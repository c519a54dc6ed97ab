"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values marked as derived below were computed from the stated
independent oracles (binomial/multinomial bounds, closed-form geometry,
ray-cast rendering, data-resample baselines) and then frozen.
"""

import functools
import itertools
import time

import numpy as np

from synthvid import captioner, dataset_mixer, fidelity_metrics, flowlab, guidance
from synthvid.camera_rig import (
    focal_from_coverage,
    generate_trajectory,
    look_at,
)
from synthvid.cli import main as cli_main
from synthvid.flowlab import TrainConfig, VelocityModel, train
from synthvid.guidance import (
    GuidanceParams,
    default_guidance_params,
    run_simdrop_experiment,
    simdrop_velocity,
    train_transfer_models,
)
from synthvid.meshes import bounding_sphere, cube, uv_sphere
from synthvid.micro_renderer import render_frame
from synthvid.scene_config import (
    CameraSpec,
    EnvSpec,
    FocusPosition,
    FocusType,
    Light,
    LightingSpec,
    MovementType,
    ObjectAnimation,
    RenderSpec,
    SceneConfig,
    SceneType,
)
from synthvid.seeding import stream_seed

from conftest import frame_sha256, make_config
from flow_helpers import energy_distance, flow_match_loss, gaussian_mixture_dataset


def criterion(number, name, budget_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} ({name}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            status = "PASS" if elapsed < budget_seconds else "FAIL (over time budget)"
            print(f"[acceptance] criterion {number} ({name}): {status} [{elapsed:.1f}s]")
            assert elapsed < budget_seconds, f"took {elapsed:.1f}s, budget {budget_seconds}s"
        return wrapper
    return decorate


# ---------------------------------------------------------------------------


@criterion(1, "guided-step algebra", budget_seconds=1.0)
def test_criterion_1_simdrop_algebra():
    rng = np.random.default_rng(1)
    for trial in range(1000):
        gen = VelocityModel(data_dim=3, cond_dim=3, hidden=16, seed=trial)
        ref = VelocityModel(data_dim=3, cond_dim=3, hidden=16, seed=100_000 + trial)
        x = rng.standard_normal(3)
        t = float(rng.uniform(0.1, 1.0))
        beta = float(rng.uniform(0.0, 1.0))
        params = GuidanceParams(alpha=0.0, beta=beta, t=0, n=1, t_hat=2, n_hat=None)
        guided = simdrop_velocity(gen, ref, x, t, params)
        base = gen.velocity(x, t, 0)
        plain = base + beta * (base - gen.velocity(x, t, 1))
        assert (guided == plain).all()

    class Scalar:
        data_dim = 1

        def __init__(self, table):
            self.table = table

        def velocity(self, x, t, cond):
            return np.full(np.asarray(x).shape, self.table[cond])

    gen = Scalar({"t": 1.0, "n": 0.4})
    ref = Scalar({"th": 0.9, "nh": 0.2})
    v = simdrop_velocity(gen, ref, np.zeros(1), 0.5,
                         GuidanceParams(alpha=0.2, beta=0.3, t="t", n="n",
                                        t_hat="th", n_hat="nh"))
    assert abs(v[0] - 1.04) < 1e-12


@criterion(2, "gradient correctness", budget_seconds=10.0)
def test_criterion_2_gradients_vs_finite_differences():
    rng = np.random.default_rng(2)
    for trial in range(10):
        data_dim = int(rng.integers(1, 4))
        cond_dim = int(rng.integers(1, 4))
        model = VelocityModel(data_dim=data_dim, cond_dim=cond_dim, hidden=6, seed=trial)
        x0 = rng.standard_normal(data_dim)
        x1 = rng.standard_normal(data_dim)
        t = float(rng.uniform(0.05, 0.95))
        cond = None if trial % 3 == 0 else int(rng.integers(cond_dim))
        _, grads = flow_match_loss(model, x0, x1, t, cond)
        h = 1e-4
        for p_idx, p in enumerate(model.params()):
            flat = p.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                lp, _ = flow_match_loss(model, x0, x1, t, cond)
                flat[j] = orig - h
                lm, _ = flow_match_loss(model, x0, x1, t, cond)
                flat[j] = orig
                fd = (lp - lm) / (2.0 * h)
                g = grads[p_idx].ravel()[j]
                rel = abs(g - fd) / max(abs(g), abs(fd), 1e-8)
                assert rel <= 1e-4, f"model {trial}, param {p_idx}[{j}]: rel err {rel:.2e}"


@criterion(3, "toy distribution learning", budget_seconds=180.0)
def test_criterion_3_gmm_energy_distance():
    train_set = gaussian_mixture_dataset(8000, seed=201)
    model = VelocityModel(data_dim=2, cond_dim=1, seed=1)
    trained, trace = train(model, train_set, TrainConfig(
        learning_rate=2e-3, steps=10_000, batch_size=512, cond_dropout=0.1, seed=2))
    assert trace[-100:].mean() < trace[:100].mean()

    rng = np.random.default_rng(3)
    samples = flowlab.integrate(lambda x, t: trained.velocity(x, t, 0),
                                rng.standard_normal((2000, 2)), 100)

    held_out = gaussian_mixture_dataset(2000, seed=303).points
    # oracle: the same statistic between two fresh data resamples, computed
    # in-suite, bounds what distribution-matching noise alone looks like
    baseline = energy_distance(gaussian_mixture_dataset(2000, seed=404).points,
                               gaussian_mixture_dataset(2000, seed=505).points)
    model_distance = energy_distance(samples, held_out)
    print(f"  energy distance {model_distance:.4f} vs baseline {baseline:.4f} "
          f"(ratio {model_distance / baseline:.2f})")
    assert model_distance <= 1.5 * baseline


@criterion(4, "capability transfer without artifacts", budget_seconds=300.0)
def test_criterion_4_simdrop_transfer():
    seeds = (1, 2, 3, 4, 5)
    alphas = (0.0, 0.1, 0.2)
    artifact_by_alpha = {alpha: [] for alpha in alphas}
    for seed in seeds:
        base, gen, ref = train_transfer_models(seed)

        # derived oracle: the real distribution itself occupies exactly half
        # the bins; the real-only model must stay well below full coverage
        real_points = flowlab.toy_real_dataset(2000, stream_seed(seed, "oracle")).points
        angles = np.mod(np.arctan2(real_points[:, 1], real_points[:, 0]), 2 * np.pi)
        data_bins = len(np.unique((angles / (2 * np.pi / 36)).astype(int)))
        assert data_bins == 18
        baseline = run_simdrop_experiment(
            base, base, GuidanceParams(alpha=0.0, beta=0.0, t=flowlab.REAL_LABEL),
            n_samples=2000, seed=stream_seed(seed, "baseline"))
        assert baseline.covered_bins <= 27, f"real-only coverage {baseline.covered_bins}"

        for alpha in alphas:
            report = run_simdrop_experiment(gen, ref, default_guidance_params(alpha=alpha),
                                            n_samples=2000, seed=stream_seed(seed, "exp"))
            assert report.beta == 0.3
            if alpha == 0.2:
                assert report.covered_bins >= 30, f"guided coverage {report.covered_bins}/36"
            artifact_by_alpha[alpha].append(report.artifact_mean)

    averaged = {alpha: abs(float(np.mean(v))) for alpha, v in artifact_by_alpha.items()}
    print("  |artifact mean| seed-averaged: " +
          "  ".join(f"alpha={a} -> {averaged[a]:.3f}" for a in alphas))
    assert averaged[0.2] < averaged[0.0]
    # monotone over the alpha grid
    assert averaged[0.0] > averaged[0.1] > averaged[0.2]


@criterion(5, "reconstruction direction check", budget_seconds=30.0)
def test_criterion_5_sweep_direction():
    sphere = uv_sphere()
    center, radius = bounding_sphere(sphere)
    width = height = 180

    def tracks_for(movement, value, focus):
        cfg = make_config(movement_type=movement, movement_value=value,
                          focus_type=focus, n_frames=48)
        trajectory = generate_trajectory(cfg, center, radius)
        return fidelity_metrics.generate_tracks(sphere, trajectory, width, height,
                                                pixel_noise_sigma=0.0, seed=5)

    spin = tracks_for(MovementType.SPIN, 360.0, FocusType.FOLLOW)
    pan = tracks_for(MovementType.PAN, 5.0, FocusType.FIXED)

    n_spin, n_pan = len(spin), len(pan)
    t_spin = float(np.mean([len(t) for t in spin.tracks]))
    t_pan = float(np.mean([len(t) for t in pan.tracks]))
    print(f"  spin: N={n_spin} T={t_spin:.1f}   pan: N={n_pan} T={t_pan:.1f}")
    assert n_spin > n_pan
    assert t_spin < t_pan

    spin_metrics = fidelity_metrics.recon_metrics(spin)
    assert spin_metrics.n_points > fidelity_metrics.recon_metrics(pan).n_points
    assert spin_metrics.reproj_error < 1e-6
    assert spin_metrics.reproj_error_top1000 <= spin_metrics.reproj_error
    assert spin_metrics.n_points <= 1000
    assert spin_metrics.reproj_error_top1000 == spin_metrics.reproj_error

    # the top-1000 rule on noisy runs, including one with > 1000 tracks
    big = uv_sphere(n_lat=26, n_lon=52)
    big_center, big_radius = bounding_sphere(big)
    cfg = make_config(movement_type=MovementType.SPIN, movement_value=360.0, n_frames=24)
    trajectory = generate_trajectory(cfg, big_center, big_radius)
    noisy = fidelity_metrics.generate_tracks(big, trajectory, width, height,
                                             pixel_noise_sigma=1.0, seed=6)
    metrics = fidelity_metrics.recon_metrics(noisy)
    assert metrics.n_points > 1000
    assert metrics.reproj_error_top1000 <= metrics.reproj_error


@criterion(6, "caption economy and tag hygiene", budget_seconds=30.0)
def test_criterion_6_caption_economy():
    registry = captioner.default_registry()
    registry.accessed.clear()
    objects = ("cube", "sphere", "torus")
    scenes = (SceneType.BASIC, SceneType.EMPTY)
    movements = (MovementType.SPIN, MovementType.DOLLY, MovementType.PAN,
                 MovementType.ZOOM)
    texts = set()
    for obj, scene, movement in itertools.product(objects, scenes, movements):
        env = EnvSpec(scene, scene_color=(0.5, 0.5, 0.5)) if scene is SceneType.BASIC \
            else EnvSpec(scene, background_color=(0.0, 0.0, 0.0, 1.0))
        cfg = make_config(object_ref=obj, environment=env, movement_type=movement)
        texts.add(captioner.caption_for_config(cfg, registry).text)
    assert len(registry.accessed) == 9, f"touched {len(registry.accessed)} entries"
    assert len(texts) == 24

    # tag hygiene over 1000 random compositions and real captions
    rng = np.random.default_rng(6)
    words = ("fox", "crate", "meadow", "harbor", "lantern", "orbiting", "gliding")
    modes = (captioner.TagMode.NONE, captioner.TagMode.TAGS,
             captioner.TagMode.TAGS_PLUS_NEGATIVE)
    for i in range(1000):
        if i % 2 == 0:
            mode = modes[int(rng.integers(len(modes)))]
            caption = captioner.compose_caption(
                captioner.ElementCaption(captioner.ElementKind.OBJECT, "o",
                                         str(rng.choice(words))),
                captioner.ElementCaption(captioner.ElementKind.SCENE, "s",
                                         str(rng.choice(words))),
                captioner.ElementCaption(captioner.ElementKind.CAMERA, "c",
                                         str(rng.choice(words))),
                tag_mode=mode)
            if mode is captioner.TagMode.NONE:
                assert caption.tags == ()
            else:
                for tag in captioner.SPECIAL_TAGS:
                    assert tag in caption.tags
                    assert tag in caption.text
        else:
            real = captioner.real_caption(" ".join(rng.choice(words, size=3)))
            assert real.tags == ()
            assert real.negative_text == ""
            for tag in captioner.SPECIAL_TAGS:
                assert tag not in real.text


@criterion(7, "mixing schedule", budget_seconds=30.0)
def test_criterion_7_mixing_schedule(tmp_path):
    syn_pool = [(f"videos/clip_{i}", captioner.ComposedCaption(
        text=f"synthetic {i}", tags=captioner.SPECIAL_TAGS, negative_text="",
        domain=captioner.CaptionDomain.SYNTHETIC)) for i in range(10)]
    real_pool = [(f"real/clip_{i}", captioner.real_caption(f"real {i}"))
                 for i in range(10)]

    schedule = dataset_mixer.MixSchedule(ratio=0.5, total_steps=10_000, seed=7)
    entries = dataset_mixer.build_manifest(syn_pool, real_pool, schedule)
    realized = sum(e.source is dataset_mixer.Source.SYNTHETIC for e in entries) / 10_000
    print(f"  realized synthetic share {realized:.4f}")
    assert abs(realized - 0.5) <= 0.015

    path_a, path_b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    dataset_mixer.write_manifest(entries, path_a)
    dataset_mixer.write_manifest(
        dataset_mixer.build_manifest(syn_pool, real_pool, schedule), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()

    assert len(dataset_mixer.schedule_grid()) == 8


GOLDEN_FRAME_SHA256 = "70972ffa242ee1c7120c47153a7d48fddcb265444e7d6c17d4c95fd975a18b45"


def golden_cube_config() -> SceneConfig:
    """The committed demo scene behind the golden-frame hash."""
    return SceneConfig(
        object_ref="cube",
        object_animation=ObjectAnimation.none(),
        camera=CameraSpec(FocusType.FOLLOW, FocusPosition.CENTER, MovementType.SPIN,
                          360.0, (3.5, -4.5, 2.5), 0.55),
        lighting=LightingSpec((Light((3.0, -3.0, 5.0), 6500.0, 1.0),
                               Light((-4.0, 2.0, 4.0), 3200.0, 0.7)), 0.2),
        environment=EnvSpec(SceneType.BASIC, scene_color=(0.45, 0.5, 0.55)),
        render=RenderSpec(192, 144),
        seed=7, n_frames=24, fps=24)


@criterion(8, "geometry suite", budget_seconds=60.0)
def test_criterion_8_geometry():
    # orbit constant radius
    traj = generate_trajectory(make_config(movement_value=290.0), np.zeros(3), 1.0)
    radii = [np.linalg.norm(f.position - t) for f, t in zip(traj.frames, traj.focus_history)]
    assert max(radii) - min(radii) < 1e-9

    # look-at orthonormality over random draws
    rng = np.random.default_rng(8)
    for _ in range(1000):
        position = rng.uniform(-10.0, 10.0, 3)
        target = rng.uniform(-10.0, 10.0, 3)
        direction = target - position
        norm = np.linalg.norm(direction)
        if norm < 1e-3 or abs(direction[2] / norm) > 0.999:
            continue
        rot = look_at(position, target)
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-9

    # focal worked values
    assert abs(focal_from_coverage(1.0, 10.0, 0.5, 24.0) - 60.0) < 1e-12
    assert abs(focal_from_coverage(2.0, 4.0, 0.8, 24.0) - 19.2) < 1e-12

    # closed full orbit
    closed = generate_trajectory(make_config(movement_value=360.0, n_frames=73),
                                 np.zeros(3), 1.0)
    assert np.linalg.norm(closed.frames[72].position - closed.frames[0].position) < 1e-6

    # committed golden frame
    cfg = golden_cube_config()
    mesh = cube()
    center, radius = bounding_sphere(mesh)
    trajectory = generate_trajectory(cfg, center, radius)
    frame = render_frame(mesh, trajectory.frames[0], cfg.lighting, cfg.environment,
                         cfg.render.width, cfg.render.height)
    assert frame_sha256(frame) == GOLDEN_FRAME_SHA256


@criterion(9, "end-to-end demo determinism", budget_seconds=600.0)
def test_criterion_9_demo(tmp_path):
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    assert cli_main(["demo", "--seed", "7", "--out", str(out_a)]) == 0
    assert cli_main(["demo", "--seed", "7", "--out", str(out_b)]) == 0

    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    assert len(files_a) > 0
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    # the demo's zero-noise metrics stage carries the tiny-error property
    # through the whole pipeline, and `evaluate` reproduces it from the
    # demo's track file
    import json
    report = json.loads((out_a / "metrics_report.json").read_text())
    assert report["n_points"] > 0
    assert report["reproj_error_px"] < 1e-6

    replay = tmp_path / "replay.json"
    assert cli_main(["evaluate", "--tracks", str(out_a / "tracks" / "metrics_tracks.json"),
                     "--report", str(replay)]) == 0
    replayed = json.loads(replay.read_text())
    assert replayed["n_points"] == report["n_points"]
    assert replayed["reproj_error_px"] < 1e-6
