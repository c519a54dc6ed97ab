import numpy as np
import pytest

from synthvid.camera_rig import generate_trajectory
from synthvid.fidelity_metrics import (
    DegenerateGeometryError,
    EmptyTrackSetError,
    FeatureTrackSet,
    PoseConfidenceGrid,
    REFERENCE_POSE_CONFIDENCE,
    Track,
    generate_tracks,
    metrics_to_json_dict,
    pose_confidence,
    recon_metrics,
    tracks_from_json,
    tracks_to_json,
    triangulate,
)
from synthvid.meshes import bounding_sphere, transformed, uv_sphere
from synthvid.micro_renderer import project_point
from synthvid.scene_config import FocusType, MovementType

from conftest import make_config

W, H = 200, 150
SPHERE = uv_sphere()
CENTER, RADIUS = bounding_sphere(SPHERE)


def _trajectory(movement, value, n_frames=24, focus=FocusType.FOLLOW):
    cfg = make_config(movement_type=movement, movement_value=value,
                      focus_type=focus, n_frames=n_frames,
                      render=make_config().render)
    return generate_trajectory(cfg, CENTER, RADIUS)


# -- track generation --


def test_zero_noise_observations_equal_exact_projection():
    traj = _trajectory(MovementType.SPIN, 90.0)
    tracks = generate_tracks(SPHERE, traj, W, H, pixel_noise_sigma=0.0, seed=1)
    assert len(tracks) > 0
    for track in tracks.tracks[::17]:
        for frame_idx, observed in zip(track.frames, track.pixels):
            p = project_point(traj.frames[frame_idx], track.true_point, W, H)
            assert not p.behind
            assert abs(p.x - observed[0]) < 1e-12
            assert abs(p.y - observed[1]) < 1e-12


def test_unseen_object_yields_empty_track_set():
    traj = _trajectory(MovementType.SPIN, 90.0)
    far_away = transformed(SPHERE, translation=np.array([500.0, 0.0, 0.0]))
    tracks = generate_tracks(far_away, traj, W, H, 0.0, seed=1)
    assert len(tracks) == 0


def test_spin_sees_more_points_for_shorter_tracks():
    # DERIVED visibility oracle: a full orbit reaches every vertex but holds
    # each one for only part of the sweep; a tiny pan sees the same front
    # half of the sphere the whole time.
    spin = generate_tracks(SPHERE, _trajectory(MovementType.SPIN, 360.0, 48), W, H, 0.0, 1)
    pan = generate_tracks(SPHERE, _trajectory(MovementType.PAN, 5.0, 48,
                                              focus=FocusType.FIXED), W, H, 0.0, 1)
    assert len(spin) > len(pan)
    mean_spin = np.mean([len(t) for t in spin.tracks])
    mean_pan = np.mean([len(t) for t in pan.tracks])
    assert mean_spin < mean_pan


def test_noise_is_seeded_and_applied():
    traj = _trajectory(MovementType.SPIN, 120.0)
    a = generate_tracks(SPHERE, traj, W, H, 0.5, seed=9)
    b = generate_tracks(SPHERE, traj, W, H, 0.5, seed=9)
    c = generate_tracks(SPHERE, traj, W, H, 0.5, seed=10)
    assert all((ta.pixels == tb.pixels).all() for ta, tb in zip(a.tracks, b.tracks))
    assert any((ta.pixels != tc.pixels).any() for ta, tc in zip(a.tracks, c.tracks))


def test_track_type_invariants():
    with pytest.raises(ValueError):
        Track(point_id=0, frames=[0], pixels=[[1.0, 2.0]])
    with pytest.raises(ValueError):
        Track(point_id=0, frames=[3, 1], pixels=[[0.0, 0.0], [1.0, 1.0]])


# -- triangulation --


def test_two_orthogonal_views_recover_point():
    traj = _trajectory(MovementType.SPIN, 90.0, n_frames=2)
    point = np.array([0.3, 0.2, 0.4])
    pixels = []
    for cam in traj.frames:
        p = project_point(cam, point, W, H)
        pixels.append([p.x, p.y])
    track = Track(point_id=0, frames=[0, 1], pixels=pixels, true_point=point)
    recovered = triangulate(track, traj, W, H)
    assert np.abs(recovered - point).max() < 1e-9


def test_pure_rotation_is_degenerate():
    traj = _trajectory(MovementType.PAN, 5.0, focus=FocusType.FIXED)
    tracks = generate_tracks(SPHERE, traj, W, H, 0.0, seed=1)
    assert len(tracks) > 0
    with pytest.raises(DegenerateGeometryError):
        triangulate(tracks.tracks[0], traj, W, H)


def test_zero_noise_triangulation_matches_ground_truth():
    traj = _trajectory(MovementType.SPIN, 360.0, 36)
    tracks = generate_tracks(SPHERE, traj, W, H, 0.0, seed=1)
    for track in tracks.tracks[::29]:
        recovered = triangulate(track, traj, W, H)
        assert np.abs(recovered - track.true_point).max() < 1e-6


# -- metrics --


def _exact_track(traj, point, frames, point_id=0):
    pixels = []
    for k in frames:
        p = project_point(traj.frames[k], point, W, H)
        pixels.append([p.x, p.y])
    return Track(point_id=point_id, frames=frames, pixels=pixels, true_point=point)


def test_recon_metrics_worked_example():
    traj = _trajectory(MovementType.SPIN, 180.0, n_frames=8)
    points = [np.array([0.3, 0.1, 0.2]), np.array([-0.2, 0.4, -0.1]),
              np.array([0.1, -0.3, 0.5])]
    tracks = (
        _exact_track(traj, points[0], [0, 1], point_id=0),
        _exact_track(traj, points[1], [0, 1, 2], point_id=1),
        _exact_track(traj, points[2], [0, 1, 2, 3], point_id=2),
    )
    metrics = recon_metrics(FeatureTrackSet(tracks, traj, W, H))
    assert metrics.n_points == 3
    assert metrics.mean_track_length == pytest.approx(3.0)
    assert metrics.reproj_error < 1e-6
    assert metrics.reproj_error_top1000 < 1e-6


def test_top1000_equals_full_mean_when_few_tracks():
    traj = _trajectory(MovementType.SPIN, 300.0, 24)
    tracks = generate_tracks(SPHERE, traj, W, H, 1.0, seed=5)
    assert 0 < len(tracks) <= 1000
    metrics = recon_metrics(tracks)
    assert metrics.reproj_error_top1000 == metrics.reproj_error


def test_top1000_restriction_lowers_error():
    big = uv_sphere(n_lat=26, n_lon=52)  # > 1000 vertices
    center, radius = bounding_sphere(big)
    cfg = make_config(movement_type=MovementType.SPIN, movement_value=360.0, n_frames=24)
    traj = generate_trajectory(cfg, center, radius)
    tracks = generate_tracks(big, traj, W, H, 1.0, seed=6)
    assert len(tracks) > 1000
    metrics = recon_metrics(tracks)
    assert metrics.n_points > 1000
    assert metrics.reproj_error_top1000 <= metrics.reproj_error


def test_zero_noise_error_is_tiny_and_noise_monotone():
    traj = _trajectory(MovementType.SPIN, 360.0, 30)
    sigmas = (0.0, 0.5, 1.0, 2.0)
    means = []
    for sigma in sigmas:
        errors = []
        for seed in range(5):
            tracks = generate_tracks(SPHERE, traj, W, H, sigma, seed=seed)
            errors.append(recon_metrics(tracks).reproj_error)
        means.append(np.mean(errors))
    assert means[0] < 1e-6
    assert all(a < b for a, b in zip(means, means[1:]))


def test_all_degenerate_tracks_reduce_n_to_zero():
    traj = _trajectory(MovementType.PAN, 5.0, focus=FocusType.FIXED)
    tracks = generate_tracks(SPHERE, traj, W, H, 0.0, seed=1)
    metrics = recon_metrics(tracks)
    assert metrics.n_points == 0
    assert np.isnan(metrics.mean_track_length)
    doc = metrics_to_json_dict(metrics)
    assert doc["n_points"] == 0
    assert doc["reproj_error_px"] is None


def test_empty_track_set_errors():
    traj = _trajectory(MovementType.SPIN, 90.0)
    with pytest.raises(EmptyTrackSetError):
        recon_metrics(FeatureTrackSet((), traj, W, H))


# -- pose confidence --


def test_pose_confidence_constant_grids():
    half = PoseConfidenceGrid(np.full((10, 17), 0.5))
    full = PoseConfidenceGrid(np.full((4, 17), 1.0))
    assert pose_confidence(half) == pytest.approx(0.5)
    assert pose_confidence(full) == pytest.approx(1.0)


def test_pose_confidence_mean():
    grid = np.zeros((2, 17))
    grid[0, :] = 0.25
    grid[1, :] = 0.75
    assert pose_confidence(PoseConfidenceGrid(grid)) == pytest.approx(0.5)


def test_pose_confidence_validation():
    with pytest.raises(ValueError):
        PoseConfidenceGrid(np.full((3, 16), 0.5))
    with pytest.raises(ValueError):
        PoseConfidenceGrid(np.full((3, 17), 1.5))
    with pytest.raises(ValueError):
        pose_confidence(PoseConfidenceGrid(np.zeros((0, 17))))


def test_reference_confidences_in_report():
    assert REFERENCE_POSE_CONFIDENCE == {"gym": 0.791, "dance": 0.837}
    traj = _trajectory(MovementType.SPIN, 360.0, 16)
    tracks = generate_tracks(SPHERE, traj, W, H, 0.0, seed=2)
    doc = metrics_to_json_dict(recon_metrics(tracks))
    assert doc["reference_pose_confidence"] == {"gym": 0.791, "dance": 0.837}


# -- serialization --


def test_tracks_json_round_trip():
    traj = _trajectory(MovementType.SPIN, 200.0, 12)
    tracks = generate_tracks(SPHERE, traj, W, H, 0.3, seed=3)
    loaded = tracks_from_json(tracks_to_json(tracks))
    assert loaded.width == tracks.width and loaded.height == tracks.height
    assert len(loaded) == len(tracks)
    before = recon_metrics(tracks)
    after = recon_metrics(loaded)
    assert after.n_points == before.n_points
    assert after.reproj_error == pytest.approx(before.reproj_error, rel=1e-12)


def test_track_behind_a_camera_is_dropped():
    # three cameras at y = -5 looking at the origin: the point triangulated
    # from these pixels lies behind at least one of them
    from synthvid.camera_rig import CameraTrajectory, PinholeCamera, look_at

    positions = [(2.66, -5.0, 0.15), (-2.28, -5.0, -0.08), (4.67, -5.0, 2.6)]
    cams = tuple(PinholeCamera(position=np.array(p), rotation=look_at(p, (0.0, 0.0, 0.0)),
                               focal_mm=20.0) for p in positions)
    traj = CameraTrajectory(frames=cams, focus_history=np.zeros((3, 3)))
    behind = Track(point_id=0, frames=[0, 1, 2], pixels=[[60.0, 60.0], [100.0, 60.0],
                                                          [160.0, 60.0]])
    point = triangulate(behind, traj, W, H)
    assert any(project_point(cam, point, W, H).behind for cam in cams)

    good = _exact_track(traj, np.array([0.2, 0.3, -0.1]), [0, 1, 2], point_id=1)
    metrics = recon_metrics(FeatureTrackSet((behind, good), traj, W, H))
    assert metrics.n_points == 1
    assert metrics.mean_track_length == 3.0
    assert np.isfinite(metrics.reproj_error) and metrics.reproj_error < 1e-6
    assert metrics.reproj_error_top1000 == metrics.reproj_error
    assert metrics_to_json_dict(metrics)["reproj_error_px"] is not None
