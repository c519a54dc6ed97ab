"""The span rasterizer against the per-triangle reference loop, bit for bit."""

import numpy as np
import pytest

from synthvid import micro_renderer
from synthvid.camera_rig import generate_trajectory
from synthvid.cli import _DEMO_N_CLIPS
from synthvid.meshes import Mesh, bounding_sphere, builtin_mesh, cube
from synthvid.micro_renderer import (
    _FRAGMENT_BUDGET,
    NEAR_PLANE,
    _clip_near,
    _fragments,
    _rasterize,
    _render_owners,
    animate_mesh,
)
from synthvid.param_sampler import (
    Constant,
    DistributionPreset,
    PresetLibrary,
    Uniform,
    sample_batch,
    sample_config,
)
from synthvid.scene_config import EnvSpec, Light, LightingSpec, RenderQuality, SceneType
from synthvid.seeding import stream_seed

from reference_rasterizer import clip_near_loop, rasterize_loop, render_float_loop
from test_acceptance import golden_cube_config

W, H, FOCAL_PX = 64, 48, 50.0
BACKGROUND = np.array([0.2, 0.1, 0.3])
RED, GREEN, BLUE = np.eye(3)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), \
        f"{int((got != want).any(axis=-1).sum())} pixels differ from the reference loop"


def assert_draw_list_matches(tris, colors, width=W, height=H, focal_px=FOCAL_PX):
    tris = [np.asarray(t, dtype=float) for t in tris]
    colors = [np.asarray(c, dtype=float) for c in colors]
    palette = np.concatenate([np.reshape(colors, (-1, 3)), [BACKGROUND]])
    got = palette[_rasterize(tris, width, height, focal_px)]
    assert_same_bits(got, rasterize_loop(tris, colors, width, height, focal_px, BACKGROUND))
    return got


def render_float(*args):
    palette, owner = _render_owners(*args)
    return palette[owner]


def assert_clip_matches(cfg, mesh, every: int = 1):
    """Frames ``0, every, 2 * every, ...`` of a clip equal the reference's."""
    center, radius = bounding_sphere(mesh)
    trajectory = generate_trajectory(cfg, center, radius)
    width, height = cfg.render.width, cfg.render.height
    if cfg.render.quality is RenderQuality.LOW:
        width, height = max(1, width // 2), max(1, height // 2)
    for k in range(0, cfg.n_frames, every):
        args = (animate_mesh(mesh, cfg.object_animation, center, k / cfg.fps),
                trajectory.frames[k], cfg.lighting, cfg.environment, width, height)
        assert_same_bits(render_float(*args), render_float_loop(*args))


# -- whole clips --


def test_golden_orbit_matches_reference():
    assert_clip_matches(golden_cube_config(), cube())


@pytest.mark.parametrize("object_ref", ["cube", "sphere", "torus", "cylinder"])
def test_near_wall_room_clips_match_reference(object_ref):
    # a Basic room with the camera 4-7 units from its -y wall: large room
    # triangles fill the frame and many straddle the near plane
    params = dict(PresetLibrary.default().get("random").params)
    params.update({
        "object_ref": Constant(object_ref),
        "environment.scene_type": Constant("Basic"),
        "render.quality": Constant("High"),
        "render.engine_target": Constant("Internal"),
        "render.width": Constant(160),
        "render.height": Constant(120),
        "n_frames": Constant(12),
        "camera.movement_value": Uniform(1.0, 5.0),
        "camera.initial_position.x": Uniform(-3.0, 3.0),
        "camera.initial_position.y": Uniform(-16.0, -13.0),
        "camera.initial_position.z": Uniform(0.5, 3.0),
    })
    cfg = sample_config(DistributionPreset(f"room-{object_ref}", params), 101)
    assert_clip_matches(cfg, builtin_mesh(object_ref))


def test_demo_seed_7_clips_match_reference():
    configs = sample_batch(PresetLibrary.default().get("random"),
                           stream_seed(7, "configs"), _DEMO_N_CLIPS)
    for cfg in configs:
        assert_clip_matches(cfg, builtin_mesh(cfg.object_ref), every=8)


# -- hand-built draw lists --


def test_empty_draw_list_is_background():
    got = assert_draw_list_matches([], [])
    assert (got == BACKGROUND).all()


def test_coplanar_overlap_goes_to_the_earlier_triangle():
    # the same triangle twice: every covered pixel is an exact depth tie
    tri = [[-1.0, -1.0, 3.0], [1.0, -1.0, 3.0], [0.0, 1.0, 3.0]]
    got = assert_draw_list_matches([tri, tri], [RED, GREEN])
    assert (got == RED).all(axis=-1).sum() > 100
    assert not (got == GREEN).all(axis=-1).any()
    # in a plane tilted in depth, a second triangle overlapping the first
    # agrees with the loop wherever rounding makes the two depths tie or not
    tilted = np.array([[-1.0, -1.0, 2.0], [1.0, -1.0, 3.0], [0.0, 1.0, 4.0]])
    other = np.array([[-1.0, 0.0, 2.5], [0.0, -1.0, 2.5], [1.0, 0.0, 3.5]])
    assert_draw_list_matches([tilted, other], [RED, GREEN])
    assert_draw_list_matches([other, tilted], [GREEN, RED])


def test_off_screen_triangle_draws_nothing():
    got = assert_draw_list_matches([[[5.0, 0.0, 2.0], [6.0, 0.0, 2.0], [5.5, 1.0, 2.0]]], [RED])
    assert (got == BACKGROUND).all()


def test_sliver_below_area_threshold_draws_nothing():
    # its base runs along the pixel centers of row 24, which it would cover,
    # but its projected area of 5e-13 square pixels makes the loop skip it
    sliver = [[-1.0, 0.02, 2.0], [1.0, 0.02, 2.0], [0.0, 0.02 + 4e-16, 2.0]]
    got = assert_draw_list_matches([sliver], [RED])
    assert (got == BACKGROUND).all()


def test_vertices_on_pixel_centers():
    # edges through pixel centers put fragments within rounding of an edge,
    # where only the span margin keeps the exact test's verdict
    rng = np.random.default_rng(1)
    for _ in range(60):
        centers = rng.integers(0, [W, H], (10, 3, 2)) + 0.5
        centers[:, :, 0] += rng.integers(-1, 2, (10, 3)) * 1e-13
        z = rng.uniform(0.1, 50.0, (10, 3))
        tris = np.stack([(centers[:, :, 0] - W / 2.0) * z / FOCAL_PX,
                         (centers[:, :, 1] - H / 2.0) * z / FOCAL_PX, z], axis=2)
        assert_draw_list_matches(list(tris), list(rng.uniform(size=(10, 3))))


def test_fronto_parallel_overlaps_tie_like_the_loop():
    # triangles in the plane z = 4 overlap with many exact depth ties
    rng = np.random.default_rng(2)
    for _ in range(5):
        corners = rng.uniform([-10.0, -10.0], [W + 10.0, H + 10.0], (6, 3, 2))
        tris = np.stack([(corners[:, :, 0] - W / 2.0) * 4.0 / FOCAL_PX,
                         (corners[:, :, 1] - H / 2.0) * 4.0 / FOCAL_PX,
                         np.full((6, 3), 4.0)], axis=2)
        assert_draw_list_matches(list(tris), list(rng.uniform(size=(6, 3))))


@pytest.mark.parametrize("dy", [0.0, 1e-13, 1e-9, 1e-6, 1e-3])
def test_near_horizontal_edge(dy):
    # a long edge through pixel-center rows, flat or nearly so, both windings
    tri = np.array([[-0.5, 0.01, 2.0], [0.5, 0.01 + dy, 2.0], [0.0, 0.5, 2.0]])
    got = assert_draw_list_matches([tri, tri[::-1] + [0.0, -0.4, 1.0]], [RED, GREEN])
    assert (got != BACKGROUND).any()


def test_huge_clipped_screen_triangle():
    # one vertex behind the near plane; the two pieces in front reach
    # hundreds of thousands of pixels off-screen and cover the whole frame
    tri = np.array([[-400.0, -300.0, 1.0], [400.0, -300.0, 1.0], [0.0, 600.0, -1.0]])
    pieces, _ = _clip_near(tri[None])
    assert len(pieces) == 2
    assert pieces.tobytes() == np.stack(clip_near_loop(tri)).tobytes()
    got = assert_draw_list_matches(list(pieces), [BLUE, GREEN])
    assert (got != BACKGROUND).all(axis=-1).all()


def test_draw_list_larger_than_one_batch():
    # identical full-screen triangles at equal depth across several batches:
    # the first keeps every pixel; random triangles on top of that
    rng = np.random.default_rng(5)
    full = [[-10.0, -10.0, 4.0], [10.0, -10.0, 4.0], [0.0, 10.0, 4.0]]
    n_full = 3 * _FRAGMENT_BUDGET // (W * H) + 3
    tris = [full] * n_full
    colors = [rng.uniform(size=3) for _ in range(n_full)]
    for _ in range(200):
        base = rng.uniform([-1.5, -1.0, 1.0], [1.5, 1.0, 6.0])
        tris.append(base + rng.uniform(-1.0, 1.0, (3, 3)) * [1.0, 1.0, 0.5])
        colors.append(rng.uniform(size=3))
    got = assert_draw_list_matches(tris, colors)
    assert (got == colors[0]).all(axis=-1).any()


def test_triangle_larger_than_one_batch_splits_at_rows(monkeypatch):
    # at 160x120 one full-screen triangle alone exceeds the fragment budget;
    # a copy of it and a smaller coplanar triangle drawn later tie with it
    # across the batch splits
    width, height = 160, 120
    assert width * height > _FRAGMENT_BUDGET
    full = [[-40.0, -40.0, 4.0], [40.0, -40.0, 4.0], [0.0, 40.0, 4.0]]
    band = [[-1.0, 2.8, 4.0], [1.0, 2.8, 4.0], [0.0, 4.0, 4.0]]   # pixel rows 95-110
    batches = []

    def recording(rows, span, first):
        pix, depth, tri = _fragments(rows, span, first)
        batches.append((int(span.sum()), set(tri.tolist())))
        return pix, depth, tri

    monkeypatch.setattr(micro_renderer, "_fragments", recording)
    got = assert_draw_list_matches([full, full, band], [RED, GREEN, BLUE], width, height)
    assert not (got == GREEN).all(axis=-1).any()
    assert max(n for n, _ in batches) <= max(_FRAGMENT_BUDGET, width)
    assert sum(0 in tris for _, tris in batches) > 1
    assert sum(n for n, _ in batches) >= 2 * width * height


def test_random_triangle_soup_matches_reference():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(1, 60))
        centers = rng.uniform([-2.0, -1.5, NEAR_PLANE], [2.0, 1.5, 5.0], (n, 1, 3))
        tris = centers + rng.normal(0.0, 0.7, (n, 3, 3)) * [1.0, 1.0, 0.2]
        tris[:, :, 2] = np.maximum(tris[:, :, 2], NEAR_PLANE)
        assert_draw_list_matches(list(tris), list(rng.uniform(size=(n, 3))))


# -- near-plane clipping --


def test_clip_near_matches_reference_for_every_pattern():
    rng = np.random.default_rng(3)
    tris = rng.uniform([-1.0, -1.0, -0.5], [1.0, 1.0, 0.6], (400, 3, 3))
    patterns = (tris[:, :, 2] >= NEAR_PLANE) @ np.array([1, 2, 4])
    assert set(patterns.tolist()) == set(range(8))
    pieces, source = _clip_near(tris)
    want = [(i, piece) for i, tri in enumerate(tris) for piece in clip_near_loop(tri)]
    assert source.tolist() == [i for i, _ in want]
    assert pieces.tobytes() == np.stack([p for _, p in want]).tobytes()


def test_triangle_straddling_near_plane_matches_reference():
    # a floor triangle running under and behind the camera
    from synthvid.camera_rig import PinholeCamera, look_at

    floor = Mesh(np.array([[-6.0, -8.0, -1.0], [6.0, -8.0, -1.0], [0.0, 6.0, -1.0]]),
                 np.array([[0, 1, 2]]), np.array([[0.8, 0.6, 0.4]]))
    position = np.array([0.0, -5.0, 0.0])
    camera = PinholeCamera(position=position, rotation=look_at(position, (0.0, 0.0, -0.8)),
                           focal_mm=24.0)
    lighting = LightingSpec(lights=(Light((0.0, 0.0, 5.0), 6500.0, 0.8),), ambient_intensity=0.2)
    env = EnvSpec(SceneType.EMPTY, background_color=(0.2, 0.1, 0.3, 1.0))
    cam_z = ((floor.vertices - position) @ camera.rotation.T)[:, 2]
    assert (cam_z < NEAR_PLANE).any() and (cam_z >= NEAR_PLANE).any()
    got = render_float(floor, camera, lighting, env, W, H)
    assert_same_bits(got, render_float_loop(floor, camera, lighting, env, W, H))
    assert (got != BACKGROUND).any()
