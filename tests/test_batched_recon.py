"""The bulk track generator, batched DLT and per-frame reprojection against
the per-track oracle.

``fidelity_metrics`` must generate the same tracks, keep the same tracks
and triangulate the same points bit for bit as ``reference_recon``;
residuals, and with them e and e^, may move in the last bits because a
stacked projection rounds differently from a one-point one.
"""

import re

import numpy as np
import pytest

import reference_recon as ref
from synthvid.camera_rig import CameraTrajectory, PinholeCamera, generate_trajectory, look_at
from synthvid.fidelity_metrics import (
    DegenerateGeometryError,
    FeatureTrackSet,
    Track,
    _reconstruct,
    generate_tracks,
    recon_metrics,
    triangulate,
)
from synthvid.meshes import bounding_sphere, builtin_mesh
from synthvid.scene_config import FocusType, MovementType

from conftest import make_config

W, H = 200, 150
RESIDUAL_TOL = 1e-12  # px


def assert_matches_reference(track_set: FeatureTrackSet) -> None:
    points, kept, errors, residuals = _reconstruct(track_set)
    cams, width, height = track_set.cameras, track_set.width, track_set.height

    # every track: degenerate in both, with the same reason, or the same bits
    for track, point in zip(track_set.tracks, points):
        try:
            want = ref.triangulate(track, cams, width, height)
        except DegenerateGeometryError as exc:
            assert np.isnan(point).all(), track.point_id
            with pytest.raises(DegenerateGeometryError, match=f"^{re.escape(str(exc))}$"):
                triangulate(track, cams, width, height)
        else:
            assert np.array_equal(point, want), track.point_id
            assert np.array_equal(triangulate(track, cams, width, height), want)

    reference = ref.reconstruct(track_set)
    ids = [t.point_id for t in track_set.tracks]
    assert [ids[i] for i in np.flatnonzero(kept)] == [pid for pid, _, _ in reference]
    starts = np.cumsum([0] + [len(t) for t in track_set.tracks])
    for i, (_, point, want) in zip(np.flatnonzero(kept), reference):
        assert np.array_equal(points[i], point)
        got = residuals[starts[i]:starts[i + 1]]
        assert np.abs(got - want).max() <= RESIDUAL_TOL
        assert abs(errors[i] - want.mean()) <= RESIDUAL_TOL

    got, want = recon_metrics(track_set), ref.recon_metrics(track_set)
    assert got.n_points == want.n_points
    assert np.array_equal(got.mean_track_length, want.mean_track_length, equal_nan=True)
    for a, b in ((got.reproj_error, want.reproj_error),
                 (got.reproj_error_top1000, want.reproj_error_top1000)):
        assert (np.isnan(a) and np.isnan(b)) or abs(a - b) <= RESIDUAL_TOL


MOVES = {
    "spin": (MovementType.SPIN, 360.0, FocusType.FOLLOW),
    "pan": (MovementType.PAN, 30.0, FocusType.FIXED),
    "dolly": (MovementType.DOLLY, 2.0, FocusType.FOLLOW),
}


@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("move", list(MOVES))
@pytest.mark.parametrize("obj", ["cube", "cylinder", "sphere", "torus"])
def test_orbit_matches_reference(obj, move, sigma):
    movement, value, focus = MOVES[move]
    mesh = builtin_mesh(obj)
    center, radius = bounding_sphere(mesh)
    cfg = make_config(movement_type=movement, movement_value=value, focus_type=focus,
                      initial_position=(5.0, -3.0, 2.0), coverage=0.45, n_frames=24)
    tracks = generate_tracks(mesh, generate_trajectory(cfg, center, radius), W, H, sigma, seed=3)
    assert len(tracks) > 0
    assert_matches_reference(tracks)
    # a pan only rotates the camera: every track is degenerate
    assert (recon_metrics(tracks).n_points == 0) == (move == "pan")


@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("obj", ["cube", "cylinder", "sphere", "torus"])
def test_generated_tracks_match_the_per_vertex_reference(obj, sigma):
    mesh = builtin_mesh(obj)
    center, radius = bounding_sphere(mesh)
    for seed, (position, coverage, n_frames) in enumerate((
            ((5.0, -3.0, 2.0), 0.45, 24), ((-4.0, -6.5, 0.8), 0.6, 17),
            ((2.5, 7.0, 2.9), 0.35, 30))):
        cfg = make_config(movement_type=MovementType.SPIN, movement_value=360.0,
                          focus_type=FocusType.FOLLOW, initial_position=position,
                          coverage=coverage, n_frames=n_frames, seed=seed)
        traj = generate_trajectory(cfg, center, radius)
        got = generate_tracks(mesh, traj, W, H, sigma, seed=seed)
        want = ref.generate_tracks(mesh, traj, W, H, sigma, seed=seed)
        assert len(got) == len(want) > 0
        assert got.cameras is want.cameras and (got.width, got.height) == (W, H)
        for a, b in zip(got.tracks, want.tracks):
            assert type(a.point_id) is int and a.point_id == b.point_id
            for key in ("frames", "pixels", "true_point"):
                x, y = getattr(a, key), getattr(b, key)
                assert x.dtype == y.dtype and np.array_equal(x, y), (a.point_id, key)


def _rig(positions, targets):
    cams = tuple(PinholeCamera(position=np.array(p, dtype=float),
                               rotation=look_at(p, t), focal_mm=20.0)
                 for p, t in zip(positions, targets))
    return CameraTrajectory(frames=cams, focus_history=np.array(targets, dtype=float))


def _exact_track(traj, point, frames, point_id):
    pixels = [traj.frames[k].project(point, W, H)[0][0] for k in frames]
    return Track(point_id=point_id, frames=frames, pixels=pixels, true_point=point)


def test_length_group_mixing_degenerate_and_good_tracks():
    # frames 0 and 1 share a center (a pan); frames 2 and 3 translate but keep
    # one rotation, so one pixel seen in both is a point at infinity; frames 4
    # and 5 dolly along their common optical axis, so a point on that axis
    # pins down only the axis (rank 2)
    positions = [(0.0, -6.0, 1.0), (0.0, -6.0, 1.0), (2.0, -6.0, 1.0), (3.0, -6.0, 1.0),
                 (0.0, -6.0, 1.0), (0.0, -4.0, 1.0)]
    targets = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.5), (2.0, 0.0, 0.0), (3.0, 0.0, 0.0),
               (0.0, 0.0, 1.0), (0.0, 0.0, 1.0)]
    traj = _rig(positions, targets)
    point = np.array([0.3, 0.2, 0.1])
    tracks = (
        _exact_track(traj, point, [0, 1], point_id=0),
        _exact_track(traj, point, [1, 2], point_id=1),
        Track(point_id=2, frames=[2, 3], pixels=[[90.0, 70.0], [90.0, 70.0]]),
        _exact_track(traj, -point, [0, 3], point_id=3),
        _exact_track(traj, np.array([0.0, 0.0, 1.0]), [4, 5], point_id=4),
        _exact_track(traj, point, [4, 5], point_id=5),
        _exact_track(traj, point, [0, 1, 2], point_id=6),      # another length
    )
    track_set = FeatureTrackSet(tracks, traj, W, H)
    for track, reason in ((tracks[0], "no baseline"), (tracks[2], "at infinity"),
                          (tracks[4], "rank-deficient")):
        with pytest.raises(DegenerateGeometryError, match=reason):
            triangulate(track, traj, W, H)
    assert_matches_reference(track_set)
    _, kept, _, _ = _reconstruct(track_set)
    assert kept.tolist() == [False, True, False, True, False, True, True]


def test_behind_camera_track_among_good_tracks_of_its_length():
    positions = [(2.66, -5.0, 0.15), (-2.28, -5.0, -0.08), (4.67, -5.0, 2.6)]
    traj = _rig(positions, [(0.0, 0.0, 0.0)] * 3)
    behind = Track(point_id=5, frames=[0, 1, 2],
                   pixels=[[60.0, 60.0], [100.0, 60.0], [160.0, 60.0]])
    tracks = (
        _exact_track(traj, np.array([0.2, 0.3, -0.1]), [0, 1, 2], point_id=1),
        behind,
        _exact_track(traj, np.array([-0.4, 0.1, 0.3]), [0, 1, 2], point_id=9),
        _exact_track(traj, np.array([0.1, -0.2, 0.2]), [0, 2], point_id=4),
    )
    track_set = FeatureTrackSet(tracks, traj, W, H)
    assert_matches_reference(track_set)
    _, kept, _, _ = _reconstruct(track_set)
    assert kept.tolist() == [True, False, True, True]


def test_single_track_set():
    traj = _rig([(0.0, -6.0, 1.0), (2.0, -5.0, 1.0), (-1.0, -5.5, 2.0)], [(0.0, 0.0, 0.0)] * 3)
    track_set = FeatureTrackSet((_exact_track(traj, np.array([0.1, 0.2, 0.3]), [0, 1, 2], 7),),
                                traj, W, H)
    assert_matches_reference(track_set)
    assert recon_metrics(track_set).n_points == 1


def test_all_degenerate_set():
    traj = _rig([(0.0, -6.0, 1.0)] * 3, [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 0.5)])
    point = np.array([0.1, 0.2, 0.3])
    tracks = (_exact_track(traj, point, [0, 1], 0), _exact_track(traj, point, [0, 1, 2], 1),
              _exact_track(traj, -point, [1, 2], 2))
    track_set = FeatureTrackSet(tracks, traj, W, H)
    assert_matches_reference(track_set)
    assert recon_metrics(track_set).n_points == 0


def test_one_projection_call_per_frame(monkeypatch):
    mesh = builtin_mesh("sphere")
    center, radius = bounding_sphere(mesh)
    traj = generate_trajectory(make_config(n_frames=12), center, radius)
    tracks = generate_tracks(mesh, traj, W, H, 0.5, seed=1)
    calls = []
    project = PinholeCamera.project

    def counting(self, points, width, height):
        calls.append(len(np.asarray(points).reshape(-1, 3)))
        return project(self, points, width, height)

    monkeypatch.setattr(PinholeCamera, "project", counting)
    metrics = recon_metrics(tracks)
    assert len(calls) == len(traj)
    assert sum(calls) == sum(len(t) for t in tracks.tracks)
    assert metrics.n_points == len(tracks)
