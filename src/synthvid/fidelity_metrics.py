"""Physical-fidelity measurement over rendered scenes with known geometry.

Feature tracks come straight from ground truth: every mesh vertex becomes a
candidate point, observed in each frame where it falls inside the frustum
on a triangle facing the camera (:meth:`Mesh.facing`; optional noise).  A
track set, generated or read from a file, is built from flat arrays of all
its observations and checked once over all its tracks; of several faulty
tracks, the first in track order is reported.  Tracks are triangulated by
homogeneous linear least squares (DLT) over all observing frames, and the
reprojection residuals summarize how 3D-consistent the observations are.
Tracks of one length share one stacked SVD, and each frame's camera
reprojects every point it observes in one call, so a track set costs one
solve per distinct track length and one projection per frame:

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
        point_id = int(self.point_id)
        frames = _track_array(point_id, "frames", self.frames, (-1,), "iu").astype(int, copy=False)
        pixels = _track_array(point_id, "pixels", self.pixels, (len(frames), 2), "iuf")
        pixels = pixels.astype(float, copy=False)
        fault = _observation_fault([point_id], frames, pixels, [0, len(frames)])
        if fault:
            raise ValueError(fault[1])
        true_point = self.true_point
        if true_point is not None:
            true_point = _track_array(point_id, "true_point", true_point, (3,), "iuf")
            true_point = true_point.astype(float, copy=False)
        vars(self).update(point_id=point_id, frames=frames, pixels=pixels, true_point=true_point)

    def __len__(self):
        return len(self.frames)


def _track_array(point_id: int, key: str, value, shape: tuple[int, ...],
                 kinds: str) -> np.ndarray:
    """``value`` as an array of ``shape``, where -1 matches any length, whose
    numpy dtype kind is one of ``kinds`` (``"iu"`` integers, ``"iuf"`` also
    floats; an empty list passes as either), or a ValueError naming track
    ``point_id`` and its field ``key``."""
    try:
        arr = np.asarray(value)
    except ValueError:   # ragged lists
        arr = None
    if arr is not None and arr.shape == (0,):
        arr = arr.reshape((0,) + shape[1:])
    if (arr is None or arr.ndim != len(shape)
            or any(n not in (-1, m) for n, m in zip(shape, arr.shape))
            or (arr.size and arr.dtype.kind not in kinds)):
        dims = " x ".join("n" if n < 0 else str(n) for n in shape)
        what = "integers" if kinds == "iu" else "numbers"
        got = "ragged lists" if arr is None else f"{arr.dtype} of shape {arr.shape}"
        raise ValueError(f"track {point_id}: {key}: expected a {dims} array of {what}, got {got}")
    return arr


def _observation_fault(point_ids: list[int], frames: np.ndarray, pixels: np.ndarray,
                       bounds) -> tuple[int, str] | None:
    """The first track, in track order, that breaks the observation rule, and
    what is wrong with it; None when every track keeps it.

    Track i observes ``frames[a:b]`` at ``pixels[a:b]``, where ``a, b =
    bounds[i], bounds[i + 1]``.  The rule: at least two observations, strictly
    increasing frames and finite pixels, checked over all the tracks at once
    and, within one track, in that order.
    """
    bounds = np.asarray(bounds)
    short = np.diff(bounds) < 2
    backward = frames[1:] <= frames[:-1]
    # a step from one track's last observation to the next track's first is
    # no step of either track
    cuts = bounds[1:-1]
    backward[cuts[(cuts > 0) & (cuts < len(frames))] - 1] = False
    finite = np.isfinite(pixels).all(axis=1)
    if not (short.any() or backward.any()) and finite.all():
        return None

    def track_of(observations):
        return np.searchsorted(bounds, observations, side="right") - 1

    # the first faulty track of each kind, kinds in the order a track is checked
    firsts = (np.flatnonzero(short)[:1], track_of(np.flatnonzero(backward)[:1] + 1),
              track_of(np.flatnonzero(~finite)[:1]))
    track, kind = min((int(first[0]), kind) for kind, first in enumerate(firsts) if len(first))
    if kind == 0:
        return track, "a track needs at least two observations"
    if kind == 1:
        return track, "observation frame indices must be strictly increasing"
    a, b = bounds[track], bounds[track + 1]
    bad = pixels[a:b][~finite[a:b]][0].tolist()
    return track, f"track {point_ids[track]}: pixels: {bad} is not finite"


def _make_tracks(point_ids: list[int], frames: np.ndarray, pixels: np.ndarray, bounds: list[int],
                 true_points, fault=lambda i, message: ValueError(message)) -> tuple[Track, ...]:
    """Track i: ``point_ids[i]`` observed in ``frames[a:b]`` (int) at
    ``pixels[a:b]`` (float), where ``a, b = bounds[i], bounds[i + 1]``, with
    true point ``true_points[i]`` (a float (3,) array or None).

    The observation rule is checked over all the tracks at once, and
    ``fault(i, message)`` is raised for the first track i that breaks it.
    The tracks are then bound to their slices of the flat arrays without
    re-running the checks of :class:`Track`.
    """
    found = _observation_fault(point_ids, frames, pixels, bounds)
    if found:
        raise fault(*found)
    tracks = []
    for point_id, a, b, true_point in zip(point_ids, bounds, bounds[1:], true_points):
        track = object.__new__(Track)
        vars(track).update(point_id=point_id, frames=frames[a:b], pixels=pixels[a:b],
                           true_point=true_point)
        tracks.append(track)
    return tuple(tracks)


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
        # the first faulty track is reported; within a track, its point id first
        n_cameras = len(self.cameras)
        id_fault = _point_id_fault([t.point_id for t in self.tracks])
        frames = np.concatenate([np.empty(0, dtype=int)] + [t.frames for t in self.tracks])
        stray = np.flatnonzero((frames < 0) | (frames >= n_cameras))[:1]
        if len(stray):
            ends = np.cumsum([len(t) for t in self.tracks])
            track = int(np.searchsorted(ends, stray[0], side="right"))
            if not id_fault or track < id_fault[0]:
                raise ValueError(f"track {self.tracks[track].point_id}: frames: frame index "
                                 f"{frames[stray[0]]} names no camera (the set has {n_cameras})")
        if id_fault:
            raise ValueError(f"tracks[{id_fault[0]}].point_id: {id_fault[1]}")

    def __len__(self):
        return len(self.tracks)


def _point_id_fault(point_ids: list[int]) -> tuple[int, str] | None:
    """The first track whose point id is negative or repeats an earlier
    track's, and what is wrong with it; None when every id is fine."""
    first = {}
    for i, point_id in enumerate(point_ids):
        earlier = first.setdefault(point_id, i)
        if point_id < 0:
            return i, f"expected an integer >= 0, got {point_id}"
        if earlier != i:
            return i, f"{point_id} repeats tracks[{earlier}].point_id"
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

    keep = np.flatnonzero(largest > smallest)
    # each kept vertex's observing frames in order, vertex after vertex
    vertex, frames = np.nonzero(visible[:, keep].T)
    pixels = xy_all[frames, keep[vertex]]
    if pixel_noise_sigma > 0.0:
        rng = np.random.Generator(np.random.PCG64(seed))
        pixels = pixels + pixel_noise_sigma * rng.standard_normal(pixels.shape)
    bounds = np.searchsorted(vertex, np.arange(len(keep) + 1)).tolist()
    tracks = _make_tracks(keep.tolist(), frames, pixels, bounds, list(verts[keep]))
    return FeatureTrackSet(tracks=tracks, cameras=trajectory, width=width, height=height)


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
    true point, then the observation rule of :class:`Track`; each runs over
    all the tracks at once."""
    for t in items:
        t.object(("point_id", "observations"), ("true_point",))
    obs = jsondoc.column(items, "observations", (-1, 3))
    bounds = [0, *accumulate(len(t.value["observations"]) for t in items)]
    frames = obs[:, 0]
    bad = np.flatnonzero(~((frames >= 0) & (frames < n_cameras) & (np.floor(frames) == frames)))
    if len(bad):
        raise items[bisect_right(bounds, bad[0]) - 1]["observations"].error(
            f"frame index {frames[bad[0]]:g} is not an integer in [0, {n_cameras})")
    point_ids = [t["point_id"].integer() for t in items]
    fault = _point_id_fault(point_ids)
    if fault:
        raise items[fault[0]]["point_id"].error(fault[1])
    pointed = [k for k, t in enumerate(items) if t.value.get("true_point") is not None]
    points = jsondoc.column([items[k] for k in pointed], "true_point", (3,))
    true_points = dict(zip(pointed, points))
    return _make_tracks(point_ids, frames.astype(int), obs[:, 1:], bounds,
                        [true_points.get(k) for k in range(len(items))],
                        lambda i, message: items[i].error(message))


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
