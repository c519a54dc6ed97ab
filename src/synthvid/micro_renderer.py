"""Flat-shaded z-buffered triangle rasterizer and engine-script emission.

The renderer is deliberately small: Lambertian flat shading, no shadows,
no textures, back-face culling on, near-plane clipping so room interiors
stay intact.  It exists to give the pipeline geometrically exact frames,
not pretty ones.  :meth:`Mesh.facing` culls back faces, and
:meth:`PinholeCamera.to_camera` and :func:`~synthvid.camera_rig.to_pixels` map
vertices to camera space and pixels; coverage is sampled at pixel centers.

A ``Basic`` scene's room is built once per scene colour, and every frame
shades it with the object by one rule.  A frame's draw list holds the
object's triangles, then the room's, and is clipped and rasterized
together, with no per-frame mesh: a span
rasterizer gives each pixel row of each triangle a conservative x-span and
tests every pixel center in it with exact edge functions, in batches under
a fixed fragment budget.  Its frames equal, bit for bit, those of drawing
the triangles one at a time with a strict ``<`` depth test; that loop is
kept in ``tests/reference_rasterizer.py`` as the reference.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .camera_rig import PinholeCamera, generate_trajectory, rotation_about_axis, to_pixels
from .meshes import Mesh, bounding_sphere, room_box, transformed
from .scene_config import (
    AnimationKind,
    EngineTarget,
    EnvSpec,
    LightingSpec,
    RenderQuality,
    SceneConfig,
    SceneType,
    kelvin_to_rgb,
)

__all__ = [
    "Frame",
    "animate_mesh",
    "emit_engine_script",
    "read_ppm",
    "render_frame",
    "render_video",
    "shaded_triangle_colors",
    "write_ppm",
]

NEAR_PLANE = 0.05
ROOM_HALF_EXTENT = 20.0


@dataclass(frozen=True)
class Frame:
    width: int
    height: int
    pixels: np.ndarray  # (height, width, 3) uint8, row-major

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.uint8)
        if px.shape != (self.height, self.width, 3):
            raise ValueError(
                f"pixel buffer shape {px.shape} does not match "
                f"{self.height}x{self.width}x3")
        px = px.copy()
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)


# ---------------------------------------------------------------------------
# shading


def shaded_triangle_colors(mesh: Mesh, camera_position: np.ndarray,
                           lighting: LightingSpec):
    """Flat-shaded (pre-clamp) color and facing mask for every triangle.

    Color = base * (ambient + sum_i intensity_i * max(0, n . l_i) * tint_i)
    evaluated at the triangle centroid; the unclamped values are linear in
    the light intensities.  The mask is :meth:`Mesh.facing`.
    """
    radiance = np.full((len(mesh), 3), float(lighting.ambient_intensity))
    for light in lighting.lights:
        to_light = np.asarray(light.position, dtype=float) - mesh.centroids
        to_light /= np.linalg.norm(to_light, axis=1, keepdims=True)
        lambert = np.maximum(0.0, np.einsum("ij,ij->i", mesh.normals, to_light))
        tint = np.asarray(kelvin_to_rgb(light.color_temp))
        radiance += light.intensity * lambert[:, None] * tint[None, :]

    return mesh.colors * radiance, mesh.facing(camera_position)


# ---------------------------------------------------------------------------
# rasterization


def _fan_table():
    """Pieces of a triangle clipped by the near plane, per inside pattern.

    Pattern bit i is set when vertex i lies in front of the plane.  Corner
    i < 3 is vertex i; corner 3 + i is where edge (i, i + 1) crosses the
    plane.  Walking the edges (Sutherland-Hodgman) gives a polygon of 0, 3
    or 4 corners, cut into a fan of 0, 1 or 2 triangles.
    """
    fans = np.zeros((8, 2, 3), dtype=np.int64)
    n_pieces = np.zeros(8, dtype=np.int64)
    for pattern in range(8):
        inside = [bool(pattern >> i & 1) for i in range(3)]
        poly = []
        for i in range(3):
            if inside[i]:
                poly.append(i)
            if inside[i] != inside[(i + 1) % 3]:
                poly.append(3 + i)
        n_pieces[pattern] = max(len(poly) - 2, 0)
        for k in range(1, len(poly) - 1):
            fans[pattern, k - 1] = poly[0], poly[k], poly[k + 1]
    return fans, n_pieces


_CLIP_FANS, _CLIP_PIECES = _fan_table()


def _clip_near(tris: np.ndarray):
    """Clip camera-space triangles (n, 3, 3) against z >= NEAR_PLANE.

    Returns ``(pieces (m, 3, 3), source (m,))``: each triangle's 0, 1 or 2
    pieces in front of the plane, in triangle order, and the index of the
    triangle each piece came from.  A triangle wholly in front is its own
    single piece.
    """
    pattern = (tris[:, :, 2] >= NEAR_PLANE) @ np.array([1, 2, 4])
    nxt = tris[:, [1, 2, 0]]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (NEAR_PLANE - tris[:, :, 2]) / (nxt[:, :, 2] - tris[:, :, 2])
        cut = tris + s[:, :, None] * (nxt - tris)
    corners = np.concatenate([tris, cut], axis=1)
    n_pieces = _CLIP_PIECES[pattern]
    source = np.repeat(np.arange(len(tris)), n_pieces)
    k = np.arange(len(source)) - np.repeat(np.cumsum(n_pieces) - n_pieces, n_pieces)
    return corners[source[:, None], _CLIP_FANS[pattern[source], k]], source


# Fragments evaluated per batch of pixel rows.  It caps the rasterizer's
# scratch memory whatever the overdraw: a batch ends at the row boundary
# before the cap, and a row, at most one frame wide, never splits.
_FRAGMENT_BUDGET = 1 << 14

# An edge narrows a row's span only when |dy| exceeds this fraction of the
# largest product in its edge function over the bounding box.  Rounding then
# moves the computed crossing by under 1e-6 pixel, far inside the one-pixel
# margin; a flatter edge is left to the exact per-fragment test.
_EDGE_SLOPE_FLOOR = 1e-9

# vertex a and vertex b of the edge opposite vertex 0, 1 and 2
_EDGE_A = [1, 2, 0]
_EDGE_B = [2, 0, 1]


def _rasterize(cam_tris, width: int, height: int, focal_px: float) -> np.ndarray:
    """Z-buffer a draw list of camera-space triangles, all at once.

    Each triangle is split into pixel rows, each row gets a conservative
    x-span from the triangle's edge functions (Pineda 1988), and every pixel
    center in a span is tested with the exact edge functions.  Where
    triangles overlap, a pixel takes the fragment with the lowest depth,
    then the earliest triangle in the draw list; a depth of inf or NaN never
    writes.  That is the result of drawing the triangles one by one with a
    strict ``<`` depth test, bit for bit.

    Returns each pixel's owner, shape ``(height, width)``: the index of its
    triangle in the draw list, or the draw list's length for the background.
    """
    tris = np.asarray(cam_tris, dtype=float).reshape(-1, 3, 3)
    n = len(tris)
    # edge-major (3, n) arrays: row k holds vertex k of every triangle
    z = tris[:, :, 2].T
    px, py = to_pixels(tris.transpose(1, 0, 2), focal_px, width, height)

    x_lo = np.maximum(np.floor(px.min(axis=0) - 0.5), 0.0)
    x_hi = np.minimum(np.ceil(px.max(axis=0) + 0.5), width - 1)
    y_lo = np.maximum(np.floor(py.min(axis=0) - 0.5), 0.0)
    y_hi = np.minimum(np.ceil(py.max(axis=0) + 0.5), height - 1)
    area = (px[1] - px[0]) * (py[2] - py[0]) - (py[1] - py[0]) * (px[2] - px[0])
    drawn = np.flatnonzero((x_lo <= x_hi) & (y_lo <= y_hi) & (np.abs(area) >= 1e-12))
    rows, span = _spans(drawn, px[:, drawn], py[:, drawn], z[:, drawn], area[drawn],
                        x_lo[drawn], x_hi[drawn], y_lo[drawn], y_hi[drawn], width)

    zbuf = np.full(height * width, np.inf)
    owner = np.full(height * width, n, dtype=np.int64)
    span_end = np.cumsum(span)
    start = 0
    while start < len(span):
        first = span_end[start] - span[start]
        stop = max(int(np.searchsorted(span_end, first + _FRAGMENT_BUDGET, side="right")),
                   start + 1)
        pix, depth, tri = _fragments(rows[:, start:stop], span[start:stop], first)
        start = stop
        # Each pixel keeps the lowest depth, then the earliest triangle
        # reaching it.  A tie with an earlier batch keeps the lower owner
        # through the minimum, so the batches' order does not matter.
        before = zbuf[pix]
        np.minimum.at(zbuf, pix, depth)
        after = zbuf[pix]
        owner[pix[after < before]] = n
        wins = depth == after
        np.minimum.at(owner, pix[wins], tri[wins])
    return owner.reshape(height, width)


def _spans(tri_ids, px, py, z, area, x_lo, x_hi, y_lo, y_hi, width: int):
    """Every pixel row of the triangles ``tri_ids``, with its span.

    Vertex arrays are edge-major (3, n).  Returns ``(rows, span)``: the
    per-row values :func:`_fragments` reads, (17, rows), and the number of
    pixels in each row's span, in triangle order, then row order.
    """
    ax, ay = px[_EDGE_A], py[_EDGE_A]
    dx = px[_EDGE_B] - ax   # (3, n): one row per edge function
    dy = py[_EDGE_B] - ay
    sign = np.where(area < 0.0, -1.0, 1.0)

    # Edge e holds where sign * (row_term - dy * (gx - ax)) >= 0: gx on one
    # side of ax + row_term / dy.  Allow one pixel either way.
    scale = (np.abs(dx) * np.maximum(np.abs(y_lo + 0.5 - ay), np.abs(y_hi + 0.5 - ay))
             + np.abs(dy) * np.maximum(np.abs(x_lo + 0.5 - ax), np.abs(x_hi + 0.5 - ax)))
    bounded = np.abs(dy) > _EDGE_SLOPE_FLOOR * scale

    # rows: one per pixel row of each bounding box, gathering its
    # triangle's values from one stacked table, whose first nine rows (ax,
    # dy, z) lead the values each fragment reads
    n_rows = (y_hi - y_lo + 1.0).astype(np.int64)
    row_tri = np.repeat(np.arange(len(tri_ids)), n_rows)
    per_tri = np.concatenate([
        ax, dy, z, ay, dx, bounded & (sign * dy > 0.0), bounded & (sign * dy < 0.0),
        [sign, np.abs(area), tri_ids, x_lo, x_hi, np.cumsum(n_rows) - n_rows - y_lo]])
    t = per_tri[:, row_tri]
    r_ay, r_dx, upper, lower = t[9:12], t[12:15], t[15:18], t[18:21]
    r_x_lo, r_x_hi, r_first = t[24:]
    row_y = np.arange(len(row_tri)) - r_first
    row_term = r_dx * (row_y + 0.5 - r_ay)
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = t[0:3] + row_term / t[3:6]
    span_hi = np.minimum(np.where(upper, np.floor(crossing + 0.5), np.inf).min(axis=0), r_x_hi)
    span_lo = np.maximum(np.where(lower, np.ceil(crossing - 1.5), -np.inf).max(axis=0), r_x_lo)
    span = np.maximum(span_hi - span_lo + 1.0, 0.0).astype(np.int64)

    rows = np.concatenate([t[0:9], row_term, t[21:24],
                           [np.cumsum(span) - span - span_lo, row_y * width]])
    return rows, span


def _fragments(rows, span, first):
    """Covered fragments of a batch of rows: flat pixel index, depth and triangle id.

    ``first`` is the index of the batch's first fragment among all the draw
    list's.  Only fragments with a finite depth are returned; the rest never
    write.
    """
    f = np.repeat(rows, span, axis=1)
    w, f_dy, f_z, f_row_term = f[0:3], f[3:6], f[6:9], f[9:12]
    f_sign, f_area, f_tri, f_offset, f_row_start = f[12:]
    col = np.arange(first, first + f.shape[1]) - f_offset
    np.subtract(col + 0.5, w, out=w)   # w held ax
    w *= f_dy
    np.subtract(f_row_term, w, out=w)
    w *= f_sign
    inside = (w[0] >= 0.0) & (w[1] >= 0.0) & (w[2] >= 0.0)

    # perspective-correct depth: interpolate 1/z with screen barycentrics
    w /= f_z
    depth = w[0] + w[1]
    depth += w[2]
    depth /= f_area
    with np.errstate(divide="ignore"):
        np.divide(1.0, depth, out=depth)
    keep = np.flatnonzero(inside & (depth < np.inf))
    pix = (col[keep] + f_row_start[keep]).astype(np.int64)
    return pix, depth[keep], f_tri[keep].astype(np.int64)


def _background_color(env: EnvSpec) -> np.ndarray:
    if env.scene_type is SceneType.EMPTY:
        # alpha recorded in the config, rendered over opaque black
        return np.asarray(env.background_color[:3], dtype=float)
    return np.zeros(3)


def render_frame(mesh: Mesh, camera: PinholeCamera, lighting: LightingSpec,
                 env: EnvSpec, width: int, height: int,
                 quality: RenderQuality = RenderQuality.HIGH) -> Frame:
    """Rasterize one frame.

    ``Basic`` environments add an inward-facing room box of ``scene_color``
    around the scene; ``Empty`` fills the background color.  ``Low`` quality
    renders at half resolution and upscales nearest-neighbor.
    """
    if quality is RenderQuality.LOW and (width > 1 or height > 1):
        palette, owner = _render_owners(mesh, camera, lighting, env,
                                        max(1, width // 2), max(1, height // 2))
        iy = np.minimum(np.arange(height) // 2, owner.shape[0] - 1)
        ix = np.minimum(np.arange(width) // 2, owner.shape[1] - 1)
        owner = owner[iy][:, ix]
    else:
        palette, owner = _render_owners(mesh, camera, lighting, env, width, height)
    # quantizing is per channel, so quantizing the palette before the
    # gather gives the bytes of quantizing the gathered image
    quantized = np.rint(np.clip(palette, 0.0, 1.0) * 255.0).astype(np.uint8)
    return Frame(width=width, height=height, pixels=np.take(quantized, owner, axis=0))


@functools.lru_cache(maxsize=8)
def _room(scene_color: tuple) -> Mesh:
    """The room of one ``scene_color``, built once (Mesh arrays are read-only)."""
    return room_box(scene_color, ROOM_HALF_EXTENT)


def _render_owners(mesh: Mesh, camera: PinholeCamera, lighting: LightingSpec,
                   env: EnvSpec, width: int, height: int):
    """One frame as ``(palette, owner)``: each pixel's colour is ``palette[owner]``.

    The palette holds the draw list's clipped colours, then the background.
    """
    parts = [mesh]
    if env.scene_type is SceneType.BASIC:
        parts.append(_room(tuple(env.scene_color)))

    # draw list: the pieces of each part's facing triangles, in mesh order,
    # the object's before the room's
    pieces, colors = [], []
    for part in parts:
        shaded, facing = shaded_triangle_colors(part, camera.position, lighting)
        facing_ids = np.flatnonzero(facing)
        cam_space = camera.to_camera(part.vertices)
        part_pieces, source = _clip_near(cam_space[part.triangles[facing_ids]])
        pieces.append(part_pieces)
        colors.append(shaded[facing_ids[source]])

    owner = _rasterize(np.concatenate(pieces), width, height, camera.focal_px(height))
    # clipping is elementwise, so clipping after the gather keeps every bit
    palette = np.clip(np.concatenate(colors), 0.0, 1.0)
    return np.vstack([palette, _background_color(env)]), owner


def animate_mesh(mesh: Mesh, animation, center, t_seconds: float) -> Mesh:
    """Mesh pose at ``t_seconds``: spin rotates about the vertical axis
    through ``center``, translate shifts by velocity * t."""
    if animation.kind is AnimationKind.SPIN:
        angle = math.radians(animation.rate_deg_per_s * t_seconds)
        return transformed(mesh, rotation=rotation_about_axis(np.array([0.0, 0.0, 1.0]), angle),
                           pivot=np.asarray(center, dtype=float))
    if animation.kind is AnimationKind.TRANSLATE:
        return transformed(mesh, translation=np.asarray(animation.velocity) * t_seconds)
    return mesh


def render_video(cfg: SceneConfig, mesh: Mesh) -> list[Frame]:
    """Render all ``cfg.n_frames`` frames of the configured clip."""
    center, radius = bounding_sphere(mesh)
    trajectory = generate_trajectory(cfg, center, radius)
    frames = []
    for k in range(cfg.n_frames):
        posed = animate_mesh(mesh, cfg.object_animation, center, k / cfg.fps)
        frames.append(render_frame(
            posed, trajectory.frames[k], cfg.lighting, cfg.environment,
            cfg.render.width, cfg.render.height, quality=cfg.render.quality))
    return frames


# ---------------------------------------------------------------------------
# PPM io


def write_ppm(frame: Frame, path) -> None:
    header = f"P6\n{frame.width} {frame.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + frame.pixels.tobytes())


def read_ppm(path) -> Frame:
    data = Path(path).read_bytes()
    m = re.match(rb"P6\s+(\d+)\s+(\d+)\s+255\s", data)
    if not m:
        raise ValueError(f"{path}: not a binary P6 PPM")
    width, height = int(m.group(1)), int(m.group(2))
    if width < 1 or height < 1:
        raise ValueError(f"{path}: frame size {width}x{height}; width and height must be >= 1")
    pixels = np.frombuffer(data[m.end():], dtype=np.uint8)
    expected = width * height * 3
    if pixels.size != expected:
        fault = "truncated pixel data" if pixels.size < expected else "pixel data too long"
        raise ValueError(f"{path}: {fault}: a {width}x{height} frame has {expected} bytes, "
                         f"the file has {pixels.size}")
    return Frame(width=width, height=height, pixels=pixels.reshape(height, width, 3))


# ---------------------------------------------------------------------------
# external engine script emission

_BLENDER_TEMPLATE = """\
# Auto-generated Blender scene script (emitted as text, never executed here).
# Scene seed: {seed}
import bpy
import math

scene = bpy.context.scene
scene.render.resolution_x = {width}
scene.render.resolution_y = {height}
scene.render.fps = {fps}
scene.frame_start = 1
scene.frame_end = {n_frames}
# render quality preset: {quality}
scene.cycles.samples = {samples}

# object
obj = make_object({object_ref!r})  # resolved against the local asset library
obj.location = (0.0, 0.0, 0.0)
# animation: {animation_kind} (rate {animation_rate} deg/s, velocity {animation_velocity})

{environment_block}
# lights
{light_block}
ambient_strength = {ambient}

# camera: {movement_type} sweep of {movement_value} over {n_frames} keyframes
cam_data = bpy.data.cameras.new("cam")
cam_data.lens = {focal_hint}
cam = bpy.data.objects.new("cam", cam_data)
scene.collection.objects.link(cam)
cam.location = {initial_position}
# focus: {focus_type} at the object's {focus_position} point, coverage {coverage}
for frame in range(1, {n_frames} + 1):
    place_camera(cam, frame_index=frame - 1, movement={movement_type!r},
                 value={movement_value}, n_frames={n_frames})
    cam.keyframe_insert(data_path="location", frame=frame)
    cam.keyframe_insert(data_path="rotation_euler", frame=frame)
"""


def emit_engine_script(cfg: SceneConfig) -> str:
    """Deterministic Blender-python text for configs targeting BlenderScript.

    The script is a textual artifact only; this package never executes it.
    Identical configs produce byte-identical text.
    """
    if cfg.render.engine_target is not EngineTarget.BLENDER_SCRIPT:
        raise ValueError("engine script emission requires engine_target = BlenderScript")

    env = cfg.environment
    if env.scene_type is SceneType.BASIC:
        r, g, b = env.scene_color
        environment_block = (
            "# environment: Basic room\n"
            f"room_color = ({r!r}, {g!r}, {b!r})\n"
            "build_room(room_color)\n"
        )
    else:
        r, g, b, a = env.background_color
        environment_block = (
            "# environment: Empty backdrop\n"
            f"bpy.data.worlds['World'].color = ({r!r}, {g!r}, {b!r})\n"
            f"background_alpha = {a!r}\n"
        )

    light_lines = []
    for i, light in enumerate(cfg.lighting.lights):
        light_lines.append(
            f"add_light(index={i}, position={tuple(light.position)!r}, "
            f"color_temp={light.color_temp!r}, energy={light.intensity!r})")
    light_block = "\n".join(light_lines) if light_lines else "# no point lights"

    return _BLENDER_TEMPLATE.format(
        seed=cfg.seed,
        width=cfg.render.width,
        height=cfg.render.height,
        fps=cfg.fps,
        n_frames=cfg.n_frames,
        quality=cfg.render.quality.value,
        samples=512 if cfg.render.quality is RenderQuality.HIGH else 64,
        object_ref=cfg.object_ref,
        animation_kind=cfg.object_animation.kind.value,
        animation_rate=cfg.object_animation.rate_deg_per_s,
        animation_velocity=tuple(cfg.object_animation.velocity),
        environment_block=environment_block,
        light_block=light_block,
        ambient=cfg.lighting.ambient_intensity,
        movement_type=cfg.camera.movement_type.value,
        movement_value=cfg.camera.movement_value,
        initial_position=tuple(cfg.camera.initial_position),
        focus_type=cfg.camera.focus_type.value,
        focus_position=cfg.camera.focus_position.value,
        coverage=cfg.camera.coverage,
        focal_hint=50.0,
    )
