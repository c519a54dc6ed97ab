"""The per-track generation, DLT and reprojection loops, kept as the reference oracle.

``fidelity_metrics`` builds a track set from flat arrays, triangulates
every track of one length with one stacked SVD and reprojects all kept
points frame by frame.  These functions build one track per vertex,
triangulate one track at a time and project one observation at a time, the
module's original design.  The bulk code must generate the same tracks and
triangulate the same points bit for bit; its residuals may differ from
these in the last bits (a stacked matmul rounds differently from a
one-point one).
"""

from __future__ import annotations

import numpy as np

from synthvid.camera_rig import CameraTrajectory
from synthvid.fidelity_metrics import (
    _MIN_BASELINE,
    TOP_K_TRACKS,
    DegenerateGeometryError,
    EmptyTrackSetError,
    FeatureTrackSet,
    ReconMetrics,
    Track,
)
from synthvid.meshes import Mesh


def generate_tracks(mesh: Mesh, trajectory: CameraTrajectory, width: int, height: int,
                    pixel_noise_sigma: float = 0.0, seed: int = 0) -> FeatureTrackSet:
    """Ground-truth feature tracks for every mesh vertex, one vertex at a time.

    A vertex is observed in frame k when it projects inside the image with
    positive depth and belongs to a triangle facing camera k; it is kept
    when its observing poses differ.  Each kept vertex draws its own noise,
    vertex after vertex.
    """
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


def triangulate(track: Track, cameras: CameraTrajectory,
                width: int, height: int) -> np.ndarray:
    """Linear least-squares (DLT) 3D point from all observing frames."""
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


def reconstruct(track_set: FeatureTrackSet) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """``(point_id, point, residuals)`` of every kept track, in track order.

    A track is dropped when it is degenerate or when its point lies at or
    behind any camera that observes it.
    """
    kept = []
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
            kept.append((track.point_id, point, residuals))
    return kept


def recon_metrics(track_set: FeatureTrackSet) -> ReconMetrics:
    """(N, T, e, e^) folded from :func:`reconstruct`."""
    if len(track_set) == 0:
        raise EmptyTrackSetError("track set is empty")

    kept = reconstruct(track_set)
    per_track_errors = [float(residuals.mean()) for _, _, residuals in kept]
    per_track_lengths = [len(residuals) for _, _, residuals in kept]
    per_track_residuals = [residuals for _, _, residuals in kept]

    n = len(per_track_errors)
    if n == 0:
        return ReconMetrics(n_points=0, mean_track_length=float("nan"),
                            reproj_error=float("nan"), reproj_error_top1000=float("nan"))

    all_residuals = np.concatenate(per_track_residuals)
    selected = np.sort(np.argsort(per_track_errors, kind="stable")[:TOP_K_TRACKS])
    top_residuals = np.concatenate([per_track_residuals[i] for i in selected])

    return ReconMetrics(
        n_points=n,
        mean_track_length=float(np.mean(per_track_lengths)),
        reproj_error=float(all_residuals.mean()),
        reproj_error_top1000=float(top_residuals.mean()),
    )
