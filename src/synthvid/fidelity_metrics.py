"""Physical-fidelity measurement over rendered scenes with known geometry.

Feature tracks come straight from ground truth: every mesh vertex becomes a
candidate point, observed in each frame where it falls inside the frustum
on a front-facing triangle (optionally with Gaussian pixel noise).  Tracks
are triangulated by homogeneous linear least squares over all observing
frames, and the reprojection residuals summarize how 3D-consistent the
observations are:

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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import jsondoc
from .camera_rig import CameraTrajectory, trajectory_from_json, trajectory_to_json
from .meshes import Mesh

__all__ = [
    "DegenerateGeometryError",
    "EmptyTrackSetError",
    "FeatureTrackSet",
    "KEYPOINT_COUNT",
    "PoseConfidenceGrid",
    "REFERENCE_POSE_CONFIDENCE",
    "ReconMetrics",
    "TOP_K_TRACKS",
    "Track",
    "generate_tracks",
    "metrics_to_json_dict",
    "pose_confidence",
    "read_tracks",
    "recon_metrics",
    "tracks_from_json",
    "tracks_to_json",
    "triangulate",
    "write_tracks",
]

TOP_K_TRACKS = 1000
KEYPOINT_COUNT = 17

# Published pose-confidence reference points shown alongside our reports for
# context (gymnastics / dance clips of a strong video model).
REFERENCE_POSE_CONFIDENCE = {"gym": 0.791, "dance": 0.837}

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
        frames = np.asarray(self.frames, dtype=int)
        pixels = np.asarray(self.pixels, dtype=float).reshape(len(frames), 2)
        if len(frames) < 2:
            raise ValueError("a track needs at least two observations")
        if (np.diff(frames) <= 0).any():
            raise ValueError("observation frame indices must be strictly increasing")
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

    def __len__(self):
        return len(self.tracks)


def generate_tracks(mesh: Mesh, trajectory: CameraTrajectory, width: int, height: int,
                    pixel_noise_sigma: float = 0.0, seed: int = 0) -> FeatureTrackSet:
    """Ground-truth feature tracks for every mesh vertex.

    A vertex is observed in frame k when it projects inside the image with
    positive depth and belongs to at least one triangle facing camera k.
    Isotropic Gaussian pixel noise of ``pixel_noise_sigma`` is added to each
    observation (vertex-major draw order, so results are seed-stable).
    Vertices observed fewer than twice are dropped.
    """
    if pixel_noise_sigma < 0.0:
        raise ValueError("pixel_noise_sigma must be nonnegative")
    verts = mesh.vertices
    n_verts = len(verts)
    n_frames = len(trajectory.frames)

    xy_all = np.empty((n_frames, n_verts, 2))
    visible = np.zeros((n_frames, n_verts), dtype=bool)

    tris = mesh.triangles
    a = verts[tris[:, 0]]
    normals = np.cross(verts[tris[:, 1]] - a, verts[tris[:, 2]] - a)
    centroids = (a + verts[tris[:, 1]] + verts[tris[:, 2]]) / 3.0

    for k, camera in enumerate(trajectory.frames):
        xy, depth, behind = camera.project(verts, width, height)
        in_frame = (~behind) & (xy[:, 0] >= 0.0) & (xy[:, 0] < width) \
            & (xy[:, 1] >= 0.0) & (xy[:, 1] < height)

        facing = np.einsum("ij,ij->i", normals, camera.position - centroids) > 0.0
        vert_front = np.zeros(n_verts, dtype=bool)
        if facing.any():
            vert_front[tris[facing].ravel()] = True

        visible[k] = in_frame & vert_front
        xy_all[k] = xy

    rng = np.random.Generator(np.random.PCG64(seed))
    tracks = []
    for vid in range(n_verts):
        frames = np.nonzero(visible[:, vid])[0]
        if len(frames) < 2:
            continue
        pixels = xy_all[frames, vid]
        if pixel_noise_sigma > 0.0:
            pixels = pixels + pixel_noise_sigma * rng.standard_normal(pixels.shape)
        tracks.append(Track(point_id=vid, frames=frames, pixels=pixels,
                            true_point=verts[vid]))

    return FeatureTrackSet(tracks=tuple(tracks), cameras=trajectory,
                           width=width, height=height)


# ---------------------------------------------------------------------------
# triangulation


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
    positions = np.stack([c.position for c in frames])
    spread = np.linalg.norm(positions - positions[0], axis=1).max()
    if spread < _MIN_BASELINE:
        raise DegenerateGeometryError("observing cameras share one center (no baseline)")

    rows = []
    for camera, (u, v) in zip(frames, track.pixels):
        p = camera.projection_matrix(width, height)
        rows.append(u * p[2] - p[0])
        rows.append(v * p[2] - p[1])
    design = np.stack(rows)

    _, singular, vt = np.linalg.svd(design)
    if singular[2] < 1e-12 * singular[0]:
        raise DegenerateGeometryError("rank-deficient triangulation system")
    solution = vt[-1]
    if abs(solution[3]) < 1e-12 * np.linalg.norm(solution[:3]):
        raise DegenerateGeometryError("triangulated point at infinity")
    return solution[:3] / solution[3]


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
        "reference_pose_confidence": dict(REFERENCE_POSE_CONFIDENCE),
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

    per_track_errors = []   # mean pixel error per kept track
    per_track_lengths = []
    per_track_residuals = []  # all observation residuals per kept track
    for track in track_set.tracks:
        try:
            point = triangulate(track, track_set.cameras, track_set.width, track_set.height)
        except DegenerateGeometryError:
            continue
        residuals = np.empty(len(track))
        for i, (k, observed) in enumerate(zip(track.frames, track.pixels)):
            xy, _, behind = track_set.cameras.frames[k].project(point, track_set.width,
                                                                track_set.height)
            if behind[0]:
                break
            residuals[i] = np.linalg.norm(xy[0] - observed)
        else:
            per_track_errors.append(float(residuals.mean()))
            per_track_lengths.append(len(track))
            per_track_residuals.append(residuals)

    n = len(per_track_errors)
    if n == 0:
        return ReconMetrics(n_points=0, mean_track_length=float("nan"),
                            reproj_error=float("nan"), reproj_error_top1000=float("nan"))

    all_residuals = np.concatenate(per_track_residuals)
    # keep selected tracks in their original order so that with N <= K the
    # restricted mean is computed over the identical summation order
    selected = np.sort(np.argsort(per_track_errors, kind="stable")[:TOP_K_TRACKS])
    top_residuals = np.concatenate([per_track_residuals[i] for i in selected])

    return ReconMetrics(
        n_points=n,
        mean_track_length=float(np.mean(per_track_lengths)),
        reproj_error=float(all_residuals.mean()),
        reproj_error_top1000=float(top_residuals.mean()),
    )


@dataclass(frozen=True)
class PoseConfidenceGrid:
    """Per-frame, per-keypoint detector confidences in [0, 1] (17 keypoints)."""

    confidences: np.ndarray  # (n_frames, 17)

    def __post_init__(self):
        grid = np.asarray(self.confidences, dtype=float)
        if grid.ndim != 2 or grid.shape[1] != KEYPOINT_COUNT:
            raise ValueError(f"confidence grid must be (n_frames, {KEYPOINT_COUNT})")
        if grid.size and ((grid < 0.0) | (grid > 1.0)).any():
            raise ValueError("confidences must lie in [0, 1]")
        object.__setattr__(self, "confidences", grid)


def pose_confidence(grid: PoseConfidenceGrid) -> float:
    """Unweighted mean confidence over all (frame, keypoint) cells."""
    if grid.confidences.size == 0:
        raise ValueError("confidence grid is empty")
    return float(grid.confidences.mean())


# ---------------------------------------------------------------------------
# track-set JSON


def tracks_to_json(track_set: FeatureTrackSet) -> str:
    doc = {
        "schema": 1,
        "width": track_set.width,
        "height": track_set.height,
        **trajectory_to_json(track_set.cameras),
        "tracks": [
            {
                "point_id": t.point_id,
                "true_point": None if t.true_point is None
                              else [float(x) for x in t.true_point],
                "observations": [
                    [int(k), float(px[0]), float(px[1])]
                    for k, px in zip(t.frames, t.pixels)
                ],
            }
            for t in track_set.tracks
        ],
    }
    return jsondoc.dumps(doc)


def tracks_from_json(text: str | bytes, source: str = "track set") -> FeatureTrackSet:
    """Parse a schema-1 track set read from ``source``.

    Malformed JSON, a missing, unknown or mistyped field, an observation of
    a frame outside the camera list and a ``focus_history`` whose length
    differs from the camera count raise :class:`~synthvid.jsondoc.FormatError`
    naming ``source`` and the field path.
    """
    doc = jsondoc.loads(text, source).object(
        ("schema", "width", "height", "cameras", "focus_history", "tracks")).schema()
    width = doc["width"].integer()
    height = doc["height"].integer()
    cameras = trajectory_from_json(doc.value, source)
    n_cameras = len(cameras)
    tracks = []
    for t in doc["tracks"].elements():
        t.object(("point_id", "observations"), ("true_point",))
        obs = t["observations"].array((-1, 3))
        frames = obs[:, 0]
        bad = ~((frames >= 0) & (frames < n_cameras) & (np.floor(frames) == frames))
        if bad.any():
            raise t["observations"].error(f"frame index {frames[bad][0]:g} is not an integer "
                                          f"in [0, {n_cameras})")
        point_id = t["point_id"].integer()
        true_point = t.get("true_point")
        true_point = None if true_point.value is None else true_point.array((3,))
        tracks.append(t.make(Track, point_id, frames.astype(int), obs[:, 1:], true_point))
    return FeatureTrackSet(tracks=tuple(tracks), cameras=cameras, width=width, height=height)


def write_tracks(track_set: FeatureTrackSet, path) -> None:
    Path(path).write_text(tracks_to_json(track_set))


def read_tracks(path) -> FeatureTrackSet:
    return tracks_from_json(Path(path).read_bytes(), source=str(path))
