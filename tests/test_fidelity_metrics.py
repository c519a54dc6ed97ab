import copy
import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest

from synthvid.camera_rig import CameraTrajectory, generate_trajectory
from synthvid.fidelity_metrics import (
    DegenerateGeometryError,
    EmptyTrackSetError,
    FeatureTrackSet,
    Track,
    generate_tracks,
    metrics_to_json_dict,
    read_tracks,
    recon_metrics,
    tracks_from_json,
    tracks_to_json,
    triangulate,
)
from synthvid.jsondoc import FormatError
from synthvid.meshes import bounding_sphere, transformed, uv_sphere
from synthvid.scene_config import FocusType, MovementType

from conftest import make_config, mutate_members

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
            xy, _, behind = traj.frames[frame_idx].project(track.true_point, W, H)
            assert not behind[0]
            assert abs(xy[0, 0] - observed[0]) < 1e-12
            assert abs(xy[0, 1] - observed[1]) < 1e-12


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


def test_full_spin_drops_a_vertex_seen_only_from_its_repeated_pose():
    # a 360-degree spin's last frame repeats its first pose; vertex 261 of this
    # orbit is visible in those two frames only, which give no baseline
    cfg = make_config(movement_type=MovementType.SPIN, movement_value=360.0, n_frames=24,
                      initial_position=(3.8644422294922363, -3.9215681943364284,
                                        2.974837420878954),
                      coverage=0.4672817031712623)
    traj = generate_trajectory(cfg, CENTER, RADIUS)
    first, last = traj.frames[0], traj.frames[-1]
    assert (first.position == last.position).all() and (first.rotation == last.rotation).all()
    tracks = generate_tracks(SPHERE, traj, W, H, 0.0, seed=1)
    assert 261 not in [t.point_id for t in tracks.tracks]
    assert recon_metrics(tracks).n_points == len(tracks)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_track_rejects_non_finite_pixels(bad):
    # a NaN pixel would break the stacked SVD of every track of its length
    with pytest.raises(ValueError) as info:
        Track(point_id=12, frames=[0, 1, 2], pixels=[[1.0, 2.0], [3.0, bad], [5.0, 6.0]])
    assert str(info.value) == f"track 12: pixels: [3.0, {bad}] is not finite"


@pytest.mark.parametrize("frames, bad", [([0, 3], 3), ([-1, 1], -1)])
def test_track_set_rejects_a_frame_with_no_camera(frames, bad):
    traj = _trajectory(MovementType.SPIN, 90.0, n_frames=3)
    good = Track(point_id=4, frames=[0, 2], pixels=[[1.0, 2.0], [3.0, 4.0]])
    stray = Track(point_id=8, frames=frames, pixels=[[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError) as info:
        FeatureTrackSet((good, stray), traj, W, H)
    assert str(info.value) == f"track 8: frames: frame index {bad} names no camera (the set has 3)"


# -- triangulation --


def test_two_orthogonal_views_recover_point():
    traj = _trajectory(MovementType.SPIN, 90.0, n_frames=2)
    point = np.array([0.3, 0.2, 0.4])
    pixels = [cam.project(point, W, H)[0][0] for cam in traj.frames]
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
    pixels = [traj.frames[k].project(point, W, H)[0][0] for k in frames]
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


def test_metrics_report_holds_exactly_the_four_metrics():
    traj = _trajectory(MovementType.SPIN, 360.0, 16)
    tracks = generate_tracks(SPHERE, traj, W, H, 0.0, seed=2)
    doc = metrics_to_json_dict(recon_metrics(tracks))
    assert list(doc) == ["n_points", "mean_track_length", "reproj_error_px",
                         "reproj_error_top1000_px"]


# -- serialization --


def _noisy_tracks():
    traj = _trajectory(MovementType.SPIN, 200.0, 12)
    # a sensor height per camera, so a reader that drops the field shows
    traj = CameraTrajectory(tuple(dataclasses.replace(c, sensor_height_mm=20.0 + 0.5 * k)
                                  for k, c in enumerate(traj.frames)), traj.focus_history)
    return generate_tracks(SPHERE, traj, W, H, 0.3, seed=3)


def test_tracks_json_round_trip():
    tracks = _noisy_tracks()
    text = tracks_to_json(tracks)
    loaded = tracks_from_json(text)
    assert tracks_to_json(loaded) == text
    _assert_same_set(loaded, tracks)


def test_track_file_in_the_indented_layout_loads_equal():
    # track files were once written with a two-space indent throughout; the
    # reader takes any layout of the same JSON
    tracks = _noisy_tracks()
    text = json.dumps(json.loads(tracks_to_json(tracks)), indent=2) + "\n"
    assert text.count("\n") > 4 * sum(len(t) for t in tracks.tracks)
    loaded = tracks_from_json(text)
    _assert_same_set(loaded, tracks)
    assert tracks_to_json(loaded) == tracks_to_json(tracks)


def test_track_file_has_one_line_per_camera_and_track():
    tracks = _noisy_tracks()
    lines = tracks_to_json(tracks).splitlines()
    n_cameras = len(tracks.cameras)
    assert len(lines) == 11 + 2 * n_cameras + len(tracks)
    assert lines[:5] == ["{", '  "schema": 1,', f'  "width": {W},', f'  "height": {H},',
                         '  "cameras": [']
    assert lines[5].startswith('    {"rotation": [')
    assert lines[-3].startswith('    {"point_id": ') and lines[-2:] == ["  ]", "}"]


def _assert_same_set(loaded, tracks):
    assert (loaded.width, loaded.height) == (tracks.width, tracks.height)
    assert len(loaded.cameras) == len(tracks.cameras)
    for a, b in zip(loaded.cameras.frames, tracks.cameras.frames):
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.rotation, b.rotation)
        assert a.focal_mm == b.focal_mm
        assert a.sensor_height_mm == b.sensor_height_mm
    assert np.array_equal(loaded.cameras.focus_history, tracks.cameras.focus_history)
    assert len(loaded) == len(tracks)
    for a, b in zip(loaded.tracks, tracks.tracks):
        assert a.point_id == b.point_id
        assert np.array_equal(a.frames, b.frames)
        assert np.array_equal(a.pixels, b.pixels)
        assert np.array_equal(a.true_point, b.true_point)
    assert recon_metrics(loaded) == recon_metrics(tracks)


def test_empty_track_set_round_trips():
    empty = FeatureTrackSet((), CameraTrajectory((), np.zeros((0, 3))), W, H)
    text = tracks_to_json(empty)
    assert tracks_to_json(tracks_from_json(text)) == text


def _track_doc():
    traj = _trajectory(MovementType.SPIN, 90.0, n_frames=6)
    return json.loads(tracks_to_json(generate_tracks(SPHERE, traj, W, H, 0.0, seed=1)))


_DELETE = object()


def _set(path, value):
    """A mutation that sets (or, with ``_DELETE``, removes) ``doc[path]``."""
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        if value is _DELETE:
            del doc[last]
        else:
            doc[last] = value
    return mutate


BAD_TRACK_DOCS = {
    "missing width": (_set(["width"], _DELETE), "width: missing"),
    "mistyped height": (_set(["height"], "150"), "height: expected an integer"),
    "missing camera rotation": (_set(["cameras", 1, "rotation"], _DELETE),
                                "cameras[1].rotation: missing"),
    "short camera rotation": (_set(["cameras", 1, "rotation"], [1.0] * 8),
                              "cameras[1].rotation: expected a 9 array of numbers"),
    "missing camera position": (_set(["cameras", 0, "position"], _DELETE),
                                "cameras[0].position: missing"),
    "mistyped camera position": (_set(["cameras", 0, "position"], ["0", "1", "2"]),
                                 "cameras[0].position: expected a 3 array of numbers"),
    "missing focal_mm": (_set(["cameras", 4, "focal_mm"], _DELETE),
                         "cameras[4].focal_mm: missing"),
    "mistyped focal_mm": (_set(["cameras", 4, "focal_mm"], None),
                          "cameras[4].focal_mm: expected a number"),
    "missing sensor_height_mm": (_set(["cameras", 5, "sensor_height_mm"], _DELETE),
                                 "cameras[5].sensor_height_mm: missing"),
    "camera not an object": (_set(["cameras", 2], [1, 2, 3]),
                             "cameras[2]: expected a JSON object"),
    "missing focus_history": (_set(["focus_history"], _DELETE), "focus_history: missing"),
    "mistyped focus_history": (_set(["focus_history"], "none"),
                               "focus_history: expected a 6 x 3 array of numbers"),
    "short focus_history": (_set(["focus_history", slice(5, None)], []),
                            "focus_history: expected a 6 x 3 array of numbers"),
    "missing observations": (_set(["tracks", 3, "observations"], _DELETE),
                             "tracks[3].observations: missing"),
    "mistyped observations": (_set(["tracks", 3, "observations"], [[0, 1.0], [1, 2.0]]),
                              "tracks[3].observations: expected a n x 3 array of numbers"),
    "frame past the camera list": (_set(["tracks", 2, "observations", -1, 0], 6),
                                   "tracks[2].observations: frame index 6 is not an integer "
                                   "in [0, 6)"),
    "negative frame": (_set(["tracks", 2, "observations", 0, 0], -1),
                       "tracks[2].observations: frame index -1 is not an integer in [0, 6)"),
    "fractional frame": (_set(["tracks", 2, "observations", 0, 0], 0.5),
                         "tracks[2].observations: frame index 0.5 is not an integer in [0, 6)"),
    "non-finite pixel": (_set(["tracks", 1, "observations", 0, 2], float("nan")),
                         "tracks[1].observations: expected a n x 3 array of numbers"),
    "single observation": (_set(["tracks", 0, "observations", slice(1, None)], []),
                           "tracks[0]: a track needs at least two observations"),
    "negative point_id": (_set(["tracks", 2, "point_id"], -5),
                          "tracks[2].point_id: expected an integer >= 0, got -5"),
}


@pytest.mark.parametrize("case", list(BAD_TRACK_DOCS))
def test_bad_track_document_names_the_field(case):
    mutate, message = BAD_TRACK_DOCS[case]
    doc = _track_doc()
    mutate(doc)
    with pytest.raises(ValueError) as info:
        tracks_from_json(json.dumps(doc))
    assert str(info.value) == f"track set: {message}"


def test_read_tracks_prefixes_the_file_path(tmp_path):
    doc = _track_doc()
    del doc["cameras"][3]["sensor_height_mm"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"^.*bad\.json: cameras\[3\]\.sensor_height_mm: missing$"):
        read_tracks(path)
    path.write_text("{not json")
    with pytest.raises(ValueError, match=r"bad\.json: Expecting property name"):
        read_tracks(path)


# a small track set written without tracks_to_json, so that its bytes do not
# depend on the writer: exact axis-aligned rotations, one track without a
# true point and one whose true point is null
PINNED_TRACK_DOC = {
    "schema": 1, "width": 64, "height": 48,
    "cameras": [
        {"rotation": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
         "position": [0.0, 0.0, -5.0], "focal_mm": 20.0, "sensor_height_mm": 24.0},
        {"rotation": [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
         "position": [0.5, 0.0, -5.0], "focal_mm": 22.5, "sensor_height_mm": 24.0},
        {"rotation": [1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
         "position": [0.0, 5.0, 0.25], "focal_mm": 35, "sensor_height_mm": 36.0},
        {"rotation": [-1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0],
         "position": [-0.5, 0.0, -5.0], "focal_mm": 20.0, "sensor_height_mm": 24.0},
    ],
    "focus_history": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.25], [0.0, 0.0, 0.0]],
    "tracks": [
        {"point_id": 0, "true_point": [0.1, 0.2, 0.3],
         "observations": [[0, 30.5, 20.25], [1, 31.0, 21.5], [3, 12.75, 40.0]]},
        {"point_id": 3, "true_point": [-0.4, 0.0, 1.0],
         "observations": [[1, 2.5, 3.5], [2, 60.0, 47.5]]},
        {"point_id": 4, "observations": [[0, 1.0, 2.0], [2, 3.0, 4.0], [3, 5.0, 6.0]]},
        {"point_id": 7, "true_point": None, "observations": [[2, 8.5, 9.5], [3, 10.5, 11.5]]},
        {"point_id": 9, "true_point": [0.0, 0.5, -0.5],
         "observations": [[0, 63.5, 0.0], [1, 0.0, 47.0], [2, 32.0, 24.0], [3, 33.0, 25.0]]},
        {"point_id": 10, "true_point": [1, 2, 3], "observations": [[0, 5, 6], [3, 7, 8]]},
        {"point_id": 2, "true_point": [0.25, 0.25, 0.25],
         "observations": [[1, 40.5, 30.5], [2, 41.5, 31.5], [3, 42.5, 32.5]]},
        {"point_id": 12, "true_point": [0.0, 0.0, 0.0],
         "observations": [[0, 16.0, 16.0], [2, 17.0, 17.0]]},
        {"point_id": 1, "true_point": [0.5, -0.5, 0.5],
         "observations": [[0, 1e-3, 2e-3], [1, 1.5e1, 2.5e1], [2, 48.0, 36.0]]},
    ],
}

# values a mutation puts in the document: the JSON edge cases of every reader
# check (legal frames, repeated and negative ids, booleans, integers past
# int64, non-finite numbers, wrong shapes)
TRACK_MUTATION_VALUES = (
    None, True, False, 0, 1, 2, 3, 4, -1, -5, 0.5, 2.0, 12, 1e308, 2 ** 63, 2 ** 70, 10 ** 400,
    math.inf, math.nan, "junk", "", [], [1.0], [0.5, 0.5, 0.5], [1, 2, 3], [True, 1.0, 2.0],
    [True, False, True], [[0, 1.5, 2.5], [2, 3.5, 4.5]], [[0, 1.5], [1, 2.5]], {}, {"x": 1},
)


def _mutated_track_docs(n_docs, seed):
    """``n_docs`` copies of ``PINNED_TRACK_DOC``, each with one to three members
    replaced, deleted or inserted."""
    rng = np.random.default_rng(seed)
    for _ in range(n_docs):
        doc = copy.deepcopy(PINNED_TRACK_DOC)
        mutate_members(doc, rng, TRACK_MUTATION_VALUES)
        yield json.dumps(doc)


def _track_decode_outcome(text):
    """The decoded set as layout-free JSON, or the reader's error text."""
    try:
        track_set = tracks_from_json(text, "mutant.json")
    except FormatError as exc:
        return str(exc)
    return json.dumps(json.loads(tracks_to_json(track_set)), sort_keys=True)


# a rotation near the float limit overflows in the orthonormality check, which rejects it
@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
def test_track_decode_outcomes_are_pinned():
    # SHA-256 over the outcome of reading 4,000 mutants of one small track
    # set: the re-encoded set, or the error text.  Any change to what
    # tracks_from_json accepts, to the values it reads, or to which of several
    # faults it reports first changes the digest; the track-file layout does not.
    assert _track_decode_outcome(json.dumps(PINNED_TRACK_DOC)).startswith("{")
    h = hashlib.sha256()
    for text in _mutated_track_docs(4000, seed=29):
        h.update(_track_decode_outcome(text).encode())
    assert h.hexdigest() == "6d35be2f4b49c509f87f9a88bd459846024f2aae4dab2da8a831eae366262431"


def test_track_set_rejects_a_repeated_or_negative_point_id(tmp_path):
    # a repeated track counts its point twice in N and T, and a negative id
    # names a mesh vertex from the end of the vertex list
    good = generate_tracks(SPHERE, _trajectory(MovementType.SPIN, 360.0, n_frames=8), W, H,
                           0.0, seed=1)
    first = good.tracks[0]
    repeat = f"tracks[{len(good)}].point_id: {first.point_id} repeats tracks[0].point_id"
    with pytest.raises(ValueError, match="^" + re.escape(repeat) + "$"):
        dataclasses.replace(good, tracks=good.tracks + (first, first))
    with pytest.raises(ValueError, match="^" + re.escape(
            "tracks[0].point_id: expected an integer >= 0, got -5") + "$"):
        dataclasses.replace(good, tracks=(dataclasses.replace(first, point_id=-5),)
                            + good.tracks[1:])

    doc = json.loads(tracks_to_json(good))
    doc["tracks"] += [doc["tracks"][0]] * 2
    path = tmp_path / "tracks.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="^" + re.escape(f"{path}: {repeat}") + "$"):
        read_tracks(path)


@pytest.mark.parametrize("key, size", [("width", 0), ("width", -200), ("height", 0)])
def test_track_file_with_an_empty_image_is_rejected(tmp_path, key, size):
    # read or built as they stand, these exact tracks (e about 2e-14 px) would
    # report e of 18 to 69 px: the principal point moves with the image size
    doc = _track_doc()
    good = tracks_from_json(json.dumps(doc))
    doc[key] = size
    path = tmp_path / "tracks.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="^" + re.escape(
            f"{path}: {key}: expected an integer >= 1, got {size}") + "$"):
        read_tracks(path)
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{key}: expected an integer >= 1, got {size}") + "$"):
        dataclasses.replace(good, **{key: size})


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
    assert any(cam.project(point, W, H)[2][0] for cam in cams)

    good = _exact_track(traj, np.array([0.2, 0.3, -0.1]), [0, 1, 2], point_id=1)
    metrics = recon_metrics(FeatureTrackSet((behind, good), traj, W, H))
    assert metrics.n_points == 1
    assert metrics.mean_track_length == 3.0
    assert np.isfinite(metrics.reproj_error) and metrics.reproj_error < 1e-6
    assert metrics.reproj_error_top1000 == metrics.reproj_error
    assert metrics_to_json_dict(metrics)["reproj_error_px"] is not None
