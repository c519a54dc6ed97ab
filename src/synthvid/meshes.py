"""Triangle meshes: fixed primitives, a minimal OBJ file loader, helpers.

Meshes are plain triangle soups with one flat color per triangle.  The
primitives are fixed shapes centred on the origin; callers set only the
sphere's tessellation and the room's size and colour.  :func:`load_obj` reads
a file.  Loaders and primitive constructors filter zero-area triangles so the
rasterizer never sees a degenerate face.  A mesh computes its unit face
normals and centroids once, and :meth:`Mesh.facing` is the package's one
back-face test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Mesh",
    "bounding_sphere",
    "builtin_mesh",
    "cube",
    "cylinder",
    "load_obj",
    "room_box",
    "transformed",
    "uv_sphere",
    "torus",
]

_DEGENERATE_AREA = 1e-12

GRAY = (0.7, 0.7, 0.7)


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray   # (N, 3) float64
    triangles: np.ndarray  # (M, 3) int64 vertex indices
    colors: np.ndarray     # (M, 3) float64 base color per triangle
    normals: np.ndarray = field(init=False, compare=False, repr=False)    # (M, 3) unit
    centroids: np.ndarray = field(init=False, compare=False, repr=False)  # (M, 3)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        tris = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        colors = np.asarray(self.colors, dtype=float).reshape(-1, 3)
        if len(colors) != len(tris):
            raise ValueError("need one color per triangle")
        if len(tris) and (tris.min() < 0 or tris.max() >= len(verts)):
            raise ValueError("triangle index out of range")
        cross, length, centroids = _faces(verts, tris)
        if (0.5 * length <= _DEGENERATE_AREA).any():
            raise ValueError("degenerate (zero-area) triangle; filter before constructing")
        for name, arr in (("vertices", verts), ("triangles", tris), ("colors", colors),
                          ("normals", cross / length[:, None]), ("centroids", centroids)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.triangles)

    def facing(self, position) -> np.ndarray:
        """Mask of the triangles whose front side faces ``position``."""
        return np.einsum("ij,ij->i", self.normals, position - self.centroids) > 0.0


def _faces(verts: np.ndarray, tris: np.ndarray):
    """Per triangle: (b - a) x (c - a), its length (twice the area), the centroid."""
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    cross = np.cross(b - a, c - a)
    return cross, np.linalg.norm(cross, axis=1), (a + b + c) / 3.0


def _build(verts, tris, colors) -> Mesh:
    """Construct a mesh, silently dropping zero-area triangles."""
    verts = np.asarray(verts, dtype=float).reshape(-1, 3)
    tris = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
    colors = np.asarray(colors, dtype=float).reshape(-1, 3)
    keep = 0.5 * _faces(verts, tris)[1] > _DEGENERATE_AREA
    return Mesh(verts, tris[keep], colors[keep])


def bounding_sphere(mesh: Mesh) -> tuple[np.ndarray, float]:
    """Center of the vertex bounding box and the max vertex distance from it."""
    if not len(mesh.vertices):
        raise ValueError("empty mesh has no bounding sphere")
    center = 0.5 * (mesh.vertices.min(axis=0) + mesh.vertices.max(axis=0))
    radius = float(np.linalg.norm(mesh.vertices - center, axis=1).max())
    return center, radius


def transformed(mesh: Mesh, rotation: np.ndarray | None = None,
                translation: np.ndarray | None = None,
                pivot: np.ndarray | None = None) -> Mesh:
    """Mesh with vertices rotated about ``pivot`` and then translated."""
    verts = mesh.vertices
    if rotation is not None:
        pivot = np.zeros(3) if pivot is None else np.asarray(pivot, dtype=float)
        verts = (verts - pivot) @ np.asarray(rotation, dtype=float).T + pivot
    if translation is not None:
        verts = verts + np.asarray(translation, dtype=float)
    return Mesh(verts, mesh.triangles, mesh.colors)


# ---------------------------------------------------------------------------
# primitives (outward-facing counterclockwise winding)

# Per-face cube palette; distinct faces make orientation bugs visible.
CUBE_FACE_COLORS = (
    (0.85, 0.25, 0.25),  # +x
    (0.25, 0.85, 0.25),  # -x
    (0.25, 0.25, 0.85),  # +y
    (0.85, 0.85, 0.25),  # -y
    (0.25, 0.85, 0.85),  # +z
    (0.85, 0.25, 0.85),  # -z
)


def cube(size: float = 2.0, face_colors=CUBE_FACE_COLORS) -> Mesh:
    h = size / 2.0
    v = np.array([
        [-h, -h, -h], [h, -h, -h], [h, h, -h], [-h, h, -h],
        [-h, -h, h], [h, -h, h], [h, h, h], [-h, h, h],
    ])
    faces = [
        ((1, 2, 6, 5), 0),  # +x
        ((3, 0, 4, 7), 1),  # -x
        ((2, 3, 7, 6), 2),  # +y
        ((0, 1, 5, 4), 3),  # -y
        ((4, 5, 6, 7), 4),  # +z
        ((1, 0, 3, 2), 5),  # -z
    ]
    tris, colors = [], []
    for (a, b, c, d), ci in faces:
        tris += [(a, b, c), (a, c, d)]
        colors += [face_colors[ci], face_colors[ci]]
    return _build(v, tris, colors)


def uv_sphere(n_lat: int = 12, n_lon: int = 24) -> Mesh:
    """Unit sphere: ``n_lat`` rings from pole to pole, ``n_lon`` segments round."""
    verts = []
    for i in range(n_lat + 1):
        phi = np.pi * i / n_lat  # 0 at +z pole
        for j in range(n_lon):
            theta = 2.0 * np.pi * j / n_lon
            verts.append([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)])
    tris = []
    for i in range(n_lat):
        for j in range(n_lon):
            a = i * n_lon + j
            b = i * n_lon + (j + 1) % n_lon
            c = (i + 1) * n_lon + (j + 1) % n_lon
            d = (i + 1) * n_lon + j
            tris += [(a, d, c), (a, c, b)]
    colors = [GRAY] * len(tris)
    return _build(verts, tris, colors)


def torus() -> Mesh:
    """Ring of radius 1 round the z axis, tube radius 0.4, 24 x 12 quads."""
    n_major, n_minor, tube = 24, 12, 0.4
    verts = []
    for i in range(n_major):
        u = 2.0 * np.pi * i / n_major
        for j in range(n_minor):
            v = 2.0 * np.pi * j / n_minor
            r = 1.0 + tube * np.cos(v)
            verts.append([r * np.cos(u), r * np.sin(u), tube * np.sin(v)])
    tris = []
    for i in range(n_major):
        for j in range(n_minor):
            a = i * n_minor + j
            b = ((i + 1) % n_major) * n_minor + j
            c = ((i + 1) % n_major) * n_minor + (j + 1) % n_minor
            d = i * n_minor + (j + 1) % n_minor
            tris += [(a, b, c), (a, c, d)]
    colors = [GRAY] * len(tris)
    return _build(verts, tris, colors)


def cylinder() -> Mesh:
    """Capped cylinder of radius 1 from z = -1 to z = 1, 24 segments round."""
    n_seg = 24
    verts = []
    for z in (-1.0, 1.0):
        for j in range(n_seg):
            theta = 2.0 * np.pi * j / n_seg
            verts.append([np.cos(theta), np.sin(theta), z])
    bottom_center = len(verts)
    verts.append([0.0, 0.0, -1.0])
    top_center = len(verts)
    verts.append([0.0, 0.0, 1.0])

    tris = []
    for j in range(n_seg):
        a, b = j, (j + 1) % n_seg
        c, d = n_seg + (j + 1) % n_seg, n_seg + j
        tris += [(a, b, c), (a, c, d)]           # side
        tris.append((bottom_center, b, a))       # bottom cap (faces -z)
        tris.append((top_center, n_seg + j, n_seg + (j + 1) % n_seg))  # top cap
    colors = [GRAY] * len(tris)
    return _build(verts, tris, colors)


def room_box(scene_color, half_extent: float) -> Mesh:
    """Axis-aligned room enclosing the scene, triangles facing inward.

    Each wall is split into a grid of 32 triangles for shading: a triangle
    gets one Lambert shade at its centroid, so the grid is what lets the light
    vary across a wall.  The near-plane clipper clips exactly and needs no grid.
    """
    box = cube(size=2.0 * half_extent, face_colors=[scene_color] * 6)
    # flip winding so faces point inward
    tris = box.triangles[:, ::-1]
    return _subdivide(Mesh(box.vertices, tris, box.colors), rounds=2)


def _subdivide(mesh: Mesh, rounds: int) -> Mesh:
    """Split each triangle at edge midpoints (4-way), applied ``rounds`` times."""
    verts = [tuple(v) for v in mesh.vertices]
    tris = [tuple(t) for t in mesh.triangles]
    colors = [tuple(c) for c in mesh.colors]
    for _ in range(rounds):
        index: dict = {v: i for i, v in enumerate(verts)}

        def midpoint(i, j):
            m = tuple((np.asarray(verts[i]) + np.asarray(verts[j])) / 2.0)
            if m not in index:
                index[m] = len(verts)
                verts.append(m)
            return index[m]

        new_tris, new_colors = [], []
        for (a, b, c), col in zip(tris, colors):
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_tris += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
            new_colors += [col] * 4
        tris, colors = new_tris, new_colors
    return _build(verts, tris, colors)


# ---------------------------------------------------------------------------
# OBJ subset loader


def load_obj(path) -> Mesh:
    """Load the v/f subset of the Wavefront OBJ file at ``path``.

    Understands ``v x y z`` and ``f`` lines with plain or slash-qualified
    indices; polygons are fan-triangulated, everything else is ignored.  A
    malformed line raises ``ValueError`` naming the file, the line and the
    problem.
    """
    where, text = str(path), Path(path).read_text()

    verts: list[list[float]] = []
    faces: list[tuple[int, list[int], list[int]]] = []  # line, indices as written, 0-based indices
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("v "):
            parts = line.split()
            if len(parts) < 4:
                raise ValueError(f"{where}: line {lineno}: vertex needs 3 coordinates")
            try:
                vertex = [float(parts[1]), float(parts[2]), float(parts[3])]
            except ValueError:
                raise ValueError(f"{where}: line {lineno}: vertex coordinates must be numbers, "
                                 f"got {' '.join(parts[1:4])!r}") from None
            if not all(map(math.isfinite, vertex)):
                raise ValueError(f"{where}: line {lineno}: vertex coordinates must be finite, "
                                 f"got {' '.join(parts[1:4])!r}")
            verts.append(vertex)
        elif line.startswith("f "):
            written = []
            for token in line.split()[1:]:
                head = token.split("/")[0]
                try:
                    written.append(int(head))
                except ValueError:
                    raise ValueError(f"{where}: line {lineno}: face index {head!r} "
                                     "is not an integer") from None
            if len(written) < 3:
                raise ValueError(f"{where}: line {lineno}: face needs at least 3 vertices")
            # negative indices count back from the last vertex read so far
            faces.append((lineno, written, [i - 1 if i > 0 else len(verts) + i for i in written]))

    tris: list[tuple[int, int, int]] = []
    for lineno, written, idx in faces:
        for i, k in zip(written, idx):
            if not 0 <= k < len(verts) or i == 0:
                raise ValueError(f"{where}: line {lineno}: face index {i} names no vertex "
                                 f"(indices run from 1 to {len(verts)}, or back from -1)")
        for k in range(1, len(idx) - 1):
            tris.append((idx[0], idx[k], idx[k + 1]))
    colors = [GRAY] * len(tris)
    return _build(verts, tris, colors)


_BUILTIN_FACTORIES = {
    "cube": cube,
    "sphere": uv_sphere,
    "torus": torus,
    "cylinder": cylinder,
}


@functools.cache
def _primitive(name: str) -> Mesh:
    return _BUILTIN_FACTORIES[name]()


def builtin_mesh(object_ref: str) -> Mesh:
    """Resolve an object reference: a primitive name or a ``.obj`` path.

    Each primitive is built once and then shared, which is safe because a
    mesh's arrays are read-only; a ``.obj`` file is read on every call.
    """
    if object_ref in _BUILTIN_FACTORIES:
        return _primitive(object_ref)
    if object_ref.endswith(".obj"):
        return load_obj(object_ref)
    known = ", ".join(sorted(_BUILTIN_FACTORIES))
    raise KeyError(f"unknown object_ref {object_ref!r} (builtins: {known}, or a .obj path)")
