"""Physical-fidelity measurement over rendered scenes with known geometry.

Feature tracks come straight from ground truth: every mesh vertex becomes a
candidate point, observed in each frame where it falls inside the frustum
on a triangle facing the camera (:meth:`Mesh.facing`; optional noise).  Tracks
are triangulated by homogeneous linear least squares (DLT) over all
observing frames, and the reprojection residuals summarize how
3D-consistent the observations are.  Tracks of one length share one
stacked SVD, and each frame's camera reprojects every point it observes in
one call, so a track set costs one solve per distinct track length and one
projection per frame:

* N  - number of reconstructed 3D tracks,
* T  - mean track length (observations per track),
* e  - mean reprojection error in pixels over all observations,
* e^ - same mean restricted to the 1000 tracks with the smallest
       per-track mean error (all of them when N <= 1000).

A faster camera sweep over the same scene sees more of the object (larger
N) for fewer frames each (smaller T); broken geometry shows up as larger
reprojection error.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import jsondoc
from .camera_rig import CameraTrajectory, trajectory_from_json, trajectory_to_json
from .meshes import Mesh

__all__ = [
    "DegenerateGeometryError",
    "EmptyTrackSetError",
    "FeatureTrackSet",
    "ReconMetrics",
    "TOP_K_TRACKS",
    "Track",
    "generate_tracks",
    "metrics_to_json_dict",
    "read_tracks",
    "recon_metrics",
    "tracks_from_json",
    "tracks_to_json",
    "triangulate",
    "write_tracks",
]

TOP_K_TRACKS = 1000
_MIN_BASELINE = 1e-9


class DegenerateGeometryError(ValueError):
    """Observations carry no parallax (e.g. a purely rotating camera)."""


class EmptyTrackSetError(ValueError):
    pass


@dataclass(frozen=True)
class Track:
    point_id: int
    frames: np.ndarray       # (L,) observing frame indices, strictly increasing
    pixels: np.ndarray       # (L, 2) observed pixel positions
    true_point: np.ndarray | None = None

    def __post_init__(self):
        if type(self.point_id) is bool or not isinstance(self.point_id, (int, np.integer)):
            raise ValueError(f"point_id: expected an integer, got {self.point_id!r}")
        object.__setattr__(self, "point_id", int(self.point_id))
        frames = np.asarray(self.frames, dtype=int)
        pixels = np.asarray(self.pixels, dtype=float).reshape(len(frames), 2)
        if len(frames) < 2:
            raise ValueError("a track needs at least two observations")
        if (frames[1:] <= frames[:-1]).any():
            raise ValueError("observation frame indices must be strictly increasing")
        if not np.isfinite(pixels).all():
            bad = pixels[~np.isfinite(pixels).all(axis=1)][0].tolist()
            raise ValueError(f"track {self.point_id}: pixels: {bad} is not finite")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "pixels", pixels)
        if self.true_point is not None:
            object.__setattr__(self, "true_point",
                               np.asarray(self.true_point, dtype=float).reshape(3))

    def __len__(self):
        return len(self.frames)


@dataclass(frozen=True)
class FeatureTrackSet:
    tracks: tuple[Track, ...]
    cameras: CameraTrajectory
    width: int
    height: int

    def __post_init__(self):
        for key in ("width", "height"):
            size = getattr(self, key)
            if type(size) is bool or not (isinstance(size, (int, np.integer)) and size >= 1):
                raise ValueError(f"{key}: expected an integer >= 1, got {size!r}")
            object.__setattr__(self, key, int(size))
        n_cameras = len(self.cameras)
        first = {}
        for i, track in enumerate(self.tracks):
            problem = _point_id_problem(track.point_id, i, first.setdefault(track.point_id, i))
            if problem:
                raise ValueError(f"tracks[{i}].point_id: {problem}")
            # frames are strictly increasing, so the ends bound them all
            if track.frames[0] < 0 or track.frames[-1] >= n_cameras:
                bad = track.frames[(track.frames < 0) | (track.frames >= n_cameras)][0]
                raise ValueError(f"track {track.point_id}: frames: frame index {bad} names "
                                 f"no camera (the set has {n_cameras})")

    def __len__(self):
        return len(self.tracks)


def _point_id_problem(point_id: int, index: int, first: int) -> str | None:
    """What is wrong with track ``index``'s point id, which track ``first`` was
    the first to use, or None."""
    if point_id < 0:
        return f"expected an integer >= 0, got {point_id}"
    if first != index:
        return f"{point_id} repeats tracks[{first}].point_id"
    return None


def generate_tracks(mesh: Mesh, trajectory: CameraTrajectory, width: int, height: int,
                    pixel_noise_sigma: float = 0.0, seed: int = 0) -> FeatureTrackSet:
    """Ground-truth feature tracks for every mesh vertex.

    A vertex is observed in frame k when it projects inside the image with
    positive depth and belongs to at least one triangle facing camera k.
    Isotropic Gaussian pixel noise of ``pixel_noise_sigma`` is added to each
    observation (vertex-major draw order, so results are seed-stable).
    Vertices observed fewer than twice are dropped, and so are vertices whose
    observing frames all share one camera pose (position, rotation and focal
    length): a 360-degree spin ends on its first pose, and a vertex seen only
    in those two frames would be a track with nothing to triangulate from.
    """
    if not 0.0 <= pixel_noise_sigma < np.inf:   # false for NaN
        raise ValueError(f"pixel_noise_sigma: expected a finite number >= 0, "
                         f"got {pixel_noise_sigma}")
    verts = mesh.vertices
    n_verts = len(verts)
    n_frames = len(trajectory.frames)

    xy_all = np.empty((n_frames, n_verts, 2))
    visible = np.zeros((n_frames, n_verts), dtype=bool)

    for k, camera in enumerate(trajectory.frames):
        xy, depth, behind = camera.project(verts, width, height)
        in_frame = (~behind) & (xy[:, 0] >= 0.0) & (xy[:, 0] < width) \
            & (xy[:, 1] >= 0.0) & (xy[:, 1] < height)

        vert_front = np.zeros(n_verts, dtype=bool)
        vert_front[mesh.triangles[mesh.facing(camera.position)].ravel()] = True

        visible[k] = in_frame & vert_front
        xy_all[k] = xy

    poses = np.array([np.concatenate([c.position, c.rotation.ravel(), [c.focal_mm]])
                      for c in trajectory.frames]).reshape(n_frames, 13)
    pose_ids = np.unique(poses, axis=0, return_inverse=True)[1].reshape(n_frames, 1)
    # a vertex is kept when the poses observing it differ: its largest pose id
    # exceeds its smallest (fewer than two observations never pass)
    largest = np.where(visible, pose_ids, -1).max(axis=0, initial=-1)
    smallest = np.where(visible, pose_ids, n_frames).min(axis=0, initial=n_frames)

    rng = np.random.Generator(np.random.PCG64(seed))
    tracks = []
    for vid in np.flatnonzero(largest > smallest).tolist():
        frames = np.nonzero(visible[:, vid])[0]
        pixels = xy_all[frames, vid]
        if pixel_noise_sigma > 0.0:
            pixels = pixels + pixel_noise_sigma * rng.standard_normal(pixels.shape)
        tracks.append(Track(point_id=vid, frames=frames, pixels=pixels,
                            true_point=verts[vid]))

    return FeatureTrackSet(tracks=tuple(tracks), cameras=trajectory,
                           width=width, height=height)


# ---------------------------------------------------------------------------
# triangulation

_DEGENERACY = (
    "observing cameras share one center (no baseline)",
    "rank-deficient triangulation system",
    "triangulated point at infinity",
)


def _dlt(projections: np.ndarray, centers: np.ndarray,
         pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear least-squares (DLT) points of m tracks of L observations each.

    ``projections`` (m, L, 3, 4) and ``centers`` (m, L, 3) are the observing
    cameras' projection matrices and positions, ``pixels`` (m, L, 2) the
    observations.  Each track contributes the rows ``u*p[2] - p[0]`` and
    ``v*p[2] - p[1]`` per observation, and its point is the right singular
    vector of the smallest singular value; all m systems go through one
    stacked SVD.  Returns the points (m, 3), NaN where degenerate, and per
    track the index into ``_DEGENERACY`` of why it is degenerate, or -1.
    """
    m, length = pixels.shape[:2]
    points = np.full((m, 3), np.nan)
    reason = np.full(m, -1)
    spread = np.linalg.norm(centers - centers[:, :1], axis=2).max(axis=1)
    reason[spread < _MIN_BASELINE] = 0
    solve = np.flatnonzero(reason < 0)

    p = projections[solve]
    design = np.empty((len(solve), length, 2, 4))   # rows interleaved u then v
    design[:, :, 0] = pixels[solve, :, 0, None] * p[:, :, 2] - p[:, :, 0]
    design[:, :, 1] = pixels[solve, :, 1, None] * p[:, :, 2] - p[:, :, 1]
    # thin SVD: U is never used
    _, singular, vt = np.linalg.svd(design.reshape(len(solve), 2 * length, 4),
                                    full_matrices=False)
    solution = vt[:, -1]
    rank_deficient = singular[:, 2] < 1e-12 * singular[:, 0]
    at_infinity = np.abs(solution[:, 3]) < 1e-12 * np.linalg.norm(solution[:, :3], axis=1)
    reason[solve] = np.where(rank_deficient, 1, np.where(at_infinity, 2, -1))
    good = ~(rank_deficient | at_infinity)
    points[solve[good]] = solution[good, :3] / solution[good, 3:]
    return points, reason


def triangulate(track: Track, cameras: CameraTrajectory,
                width: int, height: int) -> np.ndarray:
    """Linear least-squares (DLT) 3D point from all observing frames.

    Raises :class:`DegenerateGeometryError` when the observing cameras share
    one center (pure rotation: the equations only pin down a ray) or the
    design matrix is otherwise rank-deficient.
    """
    if len(track) < 2:
        raise ValueError("triangulation needs at least two observations")
    frames = [cameras.frames[k] for k in track.frames]
    projections = np.stack([c.projection_matrix(width, height) for c in frames])
    centers = np.stack([c.position for c in frames])
    points, reason = _dlt(projections[None], centers[None], track.pixels[None])
    if reason[0] >= 0:
        raise DegenerateGeometryError(_DEGENERACY[reason[0]])
    return points[0]


def _reconstruct(track_set: FeatureTrackSet):
    """Triangulate every track and reproject it into its observing frames.

    Tracks are grouped by length, one :func:`_dlt` call per group; each
    frame's camera then projects every triangulated point it observes in
    one call.  Returns ``(points (n, 3), kept (n,), errors (n,), residuals)``
    where ``kept`` marks tracks that are non-degenerate and in front of
    every observing camera, ``errors`` is each track's mean residual (NaN
    where not kept) and ``residuals`` holds the pixel error of every
    observation, track by track in observation order (NaN where the point
    is degenerate or behind the camera).
    """
    tracks, cams = track_set.tracks, track_set.cameras.frames
    width, height = track_set.width, track_set.height
    lengths = np.array([len(t) for t in tracks])
    starts = np.cumsum(lengths) - lengths
    frames = np.concatenate([t.frames for t in tracks])
    pixels = np.concatenate([t.pixels for t in tracks])
    owner = np.repeat(np.arange(len(tracks)), lengths)
    projections = np.stack([c.projection_matrix(width, height) for c in cams])
    positions = np.stack([c.position for c in cams])

    points = np.empty((len(tracks), 3))
    triangulated = np.empty(len(tracks), dtype=bool)
    groups = []
    for length in np.unique(lengths):
        members = np.flatnonzero(lengths == length)
        obs = starts[members, None] + np.arange(length)   # (m, L) observation indices
        points[members], reason = _dlt(projections[frames[obs]], positions[frames[obs]],
                                       pixels[obs])
        triangulated[members] = reason < 0
        groups.append((members, obs))

    residuals = np.full(len(frames), np.nan)
    behind = np.zeros(len(frames), dtype=bool)
    live = np.flatnonzero(triangulated[owner])
    by_frame = live[np.argsort(frames[live], kind="stable")]
    bounds = np.searchsorted(frames[by_frame], np.arange(len(cams) + 1))
    for k, camera in enumerate(cams):
        sel = by_frame[bounds[k]:bounds[k + 1]]
        xy, _, behind[sel] = camera.project(points[owner[sel]], width, height)
        residuals[sel] = np.linalg.norm(xy - pixels[sel], axis=1)

    kept = triangulated.copy()
    kept[owner[behind]] = False
    errors = np.empty(len(tracks))
    for members, obs in groups:
        errors[members] = residuals[obs].mean(axis=1)
    return points, kept, errors, residuals


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class ReconMetrics:
    n_points: int               # N: reconstructed 3D tracks
    mean_track_length: float    # T (NaN when N = 0)
    reproj_error: float         # e, pixels over all observations (NaN when N = 0)
    reproj_error_top1000: float  # e^, restricted to the best 1000 tracks


def metrics_to_json_dict(metrics: ReconMetrics) -> dict:
    def scrub(x):
        return None if isinstance(x, float) and not np.isfinite(x) else x

    return {
        "n_points": metrics.n_points,
        "mean_track_length": scrub(metrics.mean_track_length),
        "reproj_error_px": scrub(metrics.reproj_error),
        "reproj_error_top1000_px": scrub(metrics.reproj_error_top1000),
    }


def recon_metrics(track_set: FeatureTrackSet) -> ReconMetrics:
    """Triangulate every track and fold the residuals into (N, T, e, e^).

    Degenerate tracks are skipped (they reduce N) rather than aborting the
    run, mirroring reconstruction pipelines that drop unregistered points.
    A track whose triangulated point lies at or behind any camera that
    observes it fails the cheirality test and is dropped the same way, so
    one such track cannot turn e and e^ into inf.
    """
    if len(track_set) == 0:
        raise EmptyTrackSetError("track set is empty")

    _, kept, errors, residuals = _reconstruct(track_set)
    n = int(kept.sum())
    if n == 0:
        return ReconMetrics(n_points=0, mean_track_length=float("nan"),
                            reproj_error=float("nan"), reproj_error_top1000=float("nan"))

    lengths = np.array([len(t) for t in track_set.tracks])
    # boolean masks keep the selected tracks in their original order, so that
    # with N <= K the restricted mean is computed over the identical summation
    # order
    kept_ids = np.flatnonzero(kept)
    top = np.zeros(len(lengths), dtype=bool)
    top[kept_ids[np.argsort(errors[kept_ids], kind="stable")[:TOP_K_TRACKS]]] = True

    return ReconMetrics(
        n_points=n,
        mean_track_length=float(np.mean(lengths[kept])),
        reproj_error=float(residuals[np.repeat(kept, lengths)].mean()),
        reproj_error_top1000=float(residuals[np.repeat(top, lengths)].mean()),
    )


# ---------------------------------------------------------------------------
# track-set JSON


def tracks_to_json(track_set: FeatureTrackSet) -> str:
    """The schema-1 track file: one line per camera, focus target and track."""
    doc = {
        "schema": jsondoc.SCHEMA_VERSION,
        "width": track_set.width,
        "height": track_set.height,
        **trajectory_to_json(track_set.cameras),
        "tracks": [
            {
                "point_id": t.point_id,
                "true_point": None if t.true_point is None else t.true_point.tolist(),
                "observations": [[k, u, v] for k, (u, v)
                                 in zip(t.frames.tolist(), t.pixels.tolist())],
            }
            for t in track_set.tracks
        ],
    }
    return jsondoc.dumps_rows(doc)


def _tracks(items: list[jsondoc.Field], n_cameras: int) -> tuple[Track, ...]:
    """The tracks of ``items``, observing ``n_cameras`` cameras.  A track's
    checks run in this order: keys, observations, frame range, point id,
    true point, then :class:`Track`; each runs over all the tracks at once."""
    for t in items:
        t.object(("point_id", "observations"), ("true_point",))
    obs = jsondoc.column(items, "observations", (-1, 3))
    bounds = [0, *accumulate(len(t.value["observations"]) for t in items)]
    frames = obs[:, 0]
    bad = np.flatnonzero(~((frames >= 0) & (frames < n_cameras) & (np.floor(frames) == frames)))
    if len(bad):
        raise items[bisect_right(bounds, bad[0]) - 1]["observations"].error(
            f"frame index {frames[bad[0]]:g} is not an integer in [0, {n_cameras})")
    point_ids, first = [t["point_id"].integer() for t in items], {}
    for i, (t, point_id) in enumerate(zip(items, point_ids)):
        problem = _point_id_problem(point_id, i, first.setdefault(point_id, i))
        if problem:
            raise t["point_id"].error(problem)
    pointed = [k for k, t in enumerate(items) if t.value.get("true_point") is not None]
    points = jsondoc.column([items[k] for k in pointed], "true_point", (3,))
    true_points = dict(zip(pointed, points))
    frames = frames.astype(int)
    return tuple(t.make(Track, point_id, frames[a:b], obs[a:b, 1:], true_points.get(k))
                 for k, (t, point_id, a, b)
                 in enumerate(zip(items, point_ids, bounds, bounds[1:])))


def tracks_from_json(text: str | bytes, source: str = "track set") -> FeatureTrackSet:
    """Parse a schema-1 track set read from ``source``.

    Malformed JSON, a missing, unknown or mistyped field, an image size
    below 1, an observation of a frame outside the camera list, a negative
    or repeated ``point_id`` and a ``focus_history`` whose length differs
    from the camera count raise :class:`~synthvid.jsondoc.FormatError` naming
    ``source`` and the field path; with several faults, the first in
    document order.  Each field is checked in all the tracks at once: the
    observations as one (n, 3) array, and the true points as another.
    """
    doc = jsondoc.loads(text, source).object(
        ("schema", "width", "height", "cameras", "focus_history", "tracks")).schema()
    for key in ("width", "height"):
        if doc[key].integer() < 1:
            raise doc[key].error(f"expected an integer >= 1, got {doc.value[key]}")
    cameras = trajectory_from_json(doc.value, source)
    tracks = jsondoc.in_document_order(lambda items: _tracks(items, len(cameras)),
                                       doc["tracks"].elements())
    return FeatureTrackSet(tracks, cameras, doc.value["width"], doc.value["height"])


def write_tracks(track_set: FeatureTrackSet, path) -> None:
    Path(path).write_text(tracks_to_json(track_set))


def read_tracks(path) -> FeatureTrackSet:
    return tracks_from_json(Path(path).read_bytes(), source=str(path))
