import math

import numpy as np
import pytest

from synthvid.camera_rig import (
    ConfigConflictError,
    DegenerateLookAtError,
    PinholeCamera,
    focal_from_coverage,
    generate_trajectory,
    look_at,
)
from synthvid.scene_config import FocusPosition, FocusType, MovementType, ObjectAnimation

from conftest import make_config

CENTER = np.zeros(3)
RADIUS = 1.0


def _trajectory(**overrides):
    return generate_trajectory(make_config(**overrides), CENTER, RADIUS)


# -- look_at --


def test_look_at_axis_aligned():
    rot = look_at((0.0, -5.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    assert np.allclose(rot[2], [0.0, 1.0, 0.0], atol=1e-12)


def test_look_at_degenerate_direction():
    with pytest.raises(DegenerateLookAtError):
        look_at((0.0, 0.0, 5.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))


def test_look_at_orthonormal_over_random_draws(rng):
    for _ in range(1000):
        position = rng.uniform(-10, 10, 3)
        target = rng.uniform(-10, 10, 3)
        if np.linalg.norm(target - position) < 1e-3:
            continue
        forward = (target - position) / np.linalg.norm(target - position)
        if abs(forward[2]) > 0.999:
            continue
        rot = look_at(position, target)
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-9
        assert np.linalg.det(rot) > 0.0
        assert np.allclose(rot[2], forward, atol=1e-9)


def test_look_at_equals_numpy_cross_bit_for_bit(rng):
    # look_at spells out its cross products; np.cross is the reference
    scales = np.array([1e-6, 1.0, 1e6])
    for _ in range(2000):
        position, target, up = rng.standard_normal((3, 3)) * rng.choice(scales, (3, 1))
        forward = (target - position) / np.linalg.norm(target - position)
        right = np.cross(forward, up)
        right = right / np.linalg.norm(right)
        want = np.stack([right, np.cross(forward, right), forward])
        assert look_at(position, target, up).tobytes() == want.tobytes()


# -- focal_from_coverage --


def test_focal_worked_values():
    assert focal_from_coverage(1.0, 10.0, 0.5, 24.0) == pytest.approx(60.0, abs=1e-12)
    assert focal_from_coverage(2.0, 4.0, 0.8, 24.0) == pytest.approx(19.2, abs=1e-12)


def test_focal_rejects_zero_coverage():
    with pytest.raises(ValueError):
        focal_from_coverage(1.0, 10.0, 0.0)


def test_focal_monotone(rng):
    for _ in range(100):
        r = rng.uniform(0.5, 2.0)
        d = rng.uniform(3.0, 20.0)
        c = rng.uniform(0.1, 0.9)
        assert focal_from_coverage(r, d, c + 0.05) > focal_from_coverage(r, d, c)
        assert focal_from_coverage(r, d + 1.0, c) > focal_from_coverage(r, d, c)


# -- trajectories --


def test_spin_closes_after_full_turn():
    traj = _trajectory(movement_type=MovementType.SPIN, movement_value=360.0, n_frames=73)
    assert np.linalg.norm(traj.frames[72].position - traj.frames[0].position) < 1e-6


def test_spin_orbit_radius_constant():
    traj = _trajectory(movement_type=MovementType.SPIN, movement_value=230.0, n_frames=60)
    radii = [np.linalg.norm(f.position - t) for f, t in zip(traj.frames, traj.focus_history)]
    assert max(radii) - min(radii) < 1e-9


def test_dolly_pure_translation():
    traj = _trajectory(movement_type=MovementType.DOLLY, movement_value=2.0, n_frames=10)
    first, last = traj.frames[0], traj.frames[-1]
    assert np.linalg.norm(last.position - first.position) == pytest.approx(2.0, abs=1e-9)
    for frame in traj.frames:
        assert np.abs(frame.rotation - first.rotation).max() < 1e-9


def test_zoom_focal_sequence():
    # coverage/geometry chosen so the base focal is exactly 50 mm
    cfg = make_config(movement_type=MovementType.ZOOM, movement_value=30.0,
                      initial_position=(0.0, -5.0, 0.0), coverage=50.0 / (12.0 * 5.0),
                      n_frames=5)
    traj = generate_trajectory(cfg, CENTER, 1.0)
    focals = [f.focal_mm for f in traj.frames]
    assert focals == pytest.approx([50.0, 57.5, 65.0, 72.5, 80.0], abs=1e-9)
    positions = np.stack([f.position for f in traj.frames])
    assert np.abs(positions - positions[0]).max() == 0.0


def test_tilt_with_follow_focus_conflicts():
    with pytest.raises(ConfigConflictError):
        _trajectory(movement_type=MovementType.TILT, movement_value=10.0,
                    focus_type=FocusType.FOLLOW)
    with pytest.raises(ConfigConflictError):
        _trajectory(movement_type=MovementType.PAN, movement_value=10.0,
                    focus_type=FocusType.FOLLOW)


def test_camera_inside_bounding_radius_conflicts():
    # the focus target is the unit sphere's center; a camera 0.5 from it
    # sits inside the object, so no focal length gives the coverage
    with pytest.raises(ConfigConflictError,
                       match=r"^camera\.initial_position \(0\.0, -0\.5, 0\.0\) lies 0\.5 "
                             r"from the focus target, within the object's bounding radius 1$"):
        _trajectory(initial_position=(0.0, -0.5, 0.0))


def test_tilt_rotates_about_right_axis():
    traj = _trajectory(movement_type=MovementType.TILT, movement_value=30.0,
                       focus_type=FocusType.FIXED, n_frames=7)
    first, last = traj.frames[0], traj.frames[-1]
    # right axis invariant, view direction swept by the full angle
    assert np.allclose(first.right, last.right, atol=1e-9)
    swept = math.degrees(math.acos(np.clip(first.forward @ last.forward, -1.0, 1.0)))
    assert swept == pytest.approx(30.0, abs=1e-6)
    assert np.allclose(first.position, last.position)


def test_pan_rotates_about_up_axis():
    traj = _trajectory(movement_type=MovementType.PAN, movement_value=45.0,
                       focus_type=FocusType.FIXED, n_frames=7)
    first, last = traj.frames[0], traj.frames[-1]
    assert np.allclose(first.up, last.up, atol=1e-9)
    swept = math.degrees(math.acos(np.clip(first.forward @ last.forward, -1.0, 1.0)))
    assert swept == pytest.approx(45.0, abs=1e-6)


def test_pedestal_moves_along_world_up():
    traj = _trajectory(movement_type=MovementType.PEDESTAL, movement_value=3.0, n_frames=13)
    positions = np.stack([f.position for f in traj.frames])
    assert np.abs(np.diff(positions[:, :2], axis=0)).max() < 1e-12
    assert positions[-1, 2] - positions[0, 2] == pytest.approx(3.0, abs=1e-9)


def test_following_tracks_translating_object():
    cfg = make_config(movement_type=MovementType.FOLLOWING, movement_value=1.0,
                      object_animation=ObjectAnimation.translate((0.3, 0.1, 0.0)),
                      n_frames=25)
    traj = generate_trajectory(cfg, CENTER, RADIUS)
    offsets = [frame.position - center
               for frame, center in zip(traj.frames, _centers(cfg, 25))]
    assert np.abs(np.stack(offsets) - offsets[0]).max() < 1e-9


def _centers(cfg, n):
    from synthvid.camera_rig import object_center_at
    return [object_center_at(cfg.object_animation, CENTER, k / cfg.fps) for k in range(n)]


def test_following_static_object_is_static_camera():
    traj = _trajectory(movement_type=MovementType.FOLLOWING, movement_value=1.0, n_frames=8)
    positions = np.stack([f.position for f in traj.frames])
    assert np.abs(positions - positions[0]).max() == 0.0


def test_truck_time_reversal():
    forward = _trajectory(movement_type=MovementType.TRUCK, movement_value=2.0, n_frames=16)
    backward = _trajectory(movement_type=MovementType.TRUCK, movement_value=-2.0, n_frames=16)
    for frame_fwd, frame_bwd in zip(reversed(forward.frames), backward.frames):
        assert np.abs(frame_fwd.position - frame_bwd.position).max() < 1e-9
        assert np.abs(frame_fwd.rotation - frame_bwd.rotation).max() < 1e-9


def test_follow_focus_projects_to_principal_point():
    cfg = make_config(movement_type=MovementType.SPIN, movement_value=300.0,
                      object_animation=ObjectAnimation.translate((0.2, 0.0, 0.1)),
                      focus_position=FocusPosition.UPPER, n_frames=30)
    traj = generate_trajectory(cfg, CENTER, RADIUS)
    for frame, target in zip(traj.frames, traj.focus_history):
        xy, _, behind = frame.project(target, 160, 120)
        assert not behind[0]
        assert abs(xy[0, 0] - 80.0) < 1e-6
        assert abs(xy[0, 1] - 60.0) < 1e-6


def test_all_movements_yield_orthonormal_rotations(rng):
    for movement in MovementType:
        focus = FocusType.FIXED if movement in (MovementType.TILT, MovementType.PAN) \
            else FocusType.FOLLOW
        traj = _trajectory(movement_type=movement, movement_value=25.0,
                           focus_type=focus, n_frames=11)
        assert len(traj) == 11
        for frame in traj.frames:
            assert np.abs(frame.rotation.T @ frame.rotation - np.eye(3)).max() < 1e-9


def test_focus_position_offsets():
    upper = _trajectory(focus_position=FocusPosition.UPPER)
    lower = _trajectory(focus_position=FocusPosition.LOWER)
    assert upper.focus_history[0][2] == pytest.approx(0.75 * RADIUS)
    assert lower.focus_history[0][2] == pytest.approx(-0.75 * RADIUS)


def test_pinhole_camera_rejects_sheared_rotation():
    with pytest.raises(ValueError):
        PinholeCamera(position=np.zeros(3), rotation=np.eye(3) + 1e-3, focal_mm=50.0)


def test_pinhole_camera_rejects_reflection():
    flipped = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        PinholeCamera(position=np.zeros(3), rotation=flipped, focal_mm=50.0)


def test_projection_matrix_agrees_with_project(rng):
    # one model, two forms: dehomogenized P @ [X, 1] equals project(X)
    width, height = 160, 120
    for _ in range(6):
        position = rng.uniform(-8.0, 8.0, 3)
        camera = PinholeCamera(position=position,
                               rotation=look_at(position, rng.uniform(-1.0, 1.0, 3)),
                               focal_mm=rng.uniform(15.0, 80.0),
                               sensor_height_mm=rng.uniform(10.0, 36.0))
        cam_space = np.column_stack([rng.uniform(-2.0, 2.0, (200, 2)),
                                     rng.uniform(0.5, 20.0, 200)])
        points = position + cam_space @ camera.rotation
        xy, depth, behind = camera.project(points, width, height)
        assert not behind.any() and (depth > 0.0).all()
        homog = np.column_stack([points, np.ones(len(points))]) @ \
            camera.projection_matrix(width, height).T
        assert np.abs(homog[:, :2] / homog[:, 2:] - xy).max() < 1e-9

        cam_space[:, 2] = -rng.uniform(1e-3, 20.0, 200)
        points = np.vstack([position, position + cam_space @ camera.rotation])
        xy, depth, behind = camera.project(points, width, height)
        assert behind.all() and depth[0] == 0.0
        assert np.isnan(xy).all()
