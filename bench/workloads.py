"""The four benchmark workloads: inputs from a seed, one timed round, checks.

A workload is driven in rounds.  ``prepare(sv, seed, r)`` builds the
inputs of round ``r`` from the seed (set-up, untimed after round 0),
``run`` does the round's fixed work and times its operations, and
``check`` verifies the round's outputs against ``oracles``.  ``sv`` holds
the freshly imported synthvid modules by short name.

Every round of a workload attempts the same operations, so the share of
failed operations does not depend on the seed or on the run length.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from oracles import CheckFailure, require


def input_seed(seed: int, round_index: int, item: int) -> int:
    """63-bit seed of input ``item`` of round ``round_index``."""
    state = np.random.SeedSequence([seed, round_index, item]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


@dataclass
class RoundRun:
    ops: int              # units of work done (frames, steps, observations)
    op_seconds: float     # time spent inside those units of work
    outputs: dict = field(default_factory=dict)


@dataclass
class OpCheck:
    name: str
    error: str | None = None      # None when the operation's output checks out
    known_fault: bool = False     # fails by the documented torus-occlusion fault


def run_checks(items) -> list[OpCheck]:
    """Run ``(name, check)`` pairs; a raising check marks its operation failed."""
    results = []
    for name, check in items:
        try:
            check()
            results.append(OpCheck(name))
        except KnownFault as exc:
            results.append(OpCheck(name, str(exc), known_fault=True))
        except Exception as exc:  # noqa: BLE001 - any exception fails the operation
            results.append(OpCheck(name, f"{type(exc).__name__}: {exc}"))
    return results


class KnownFault(CheckFailure):
    """Tracks include observations hidden behind other geometry."""


# ---------------------------------------------------------------------------
# frame checks shared by room-clips and demo


def scene_for_frame(cfg, mesh, room, center, k: int):
    """(vertices, triangles, colours) of the posed object plus the room, if any."""
    verts = oracles.pose_vertices(mesh.vertices, cfg.object_animation, center, k / cfg.fps)
    if room is None:
        return verts, mesh.triangles, mesh.colors
    return (np.concatenate([verts, room.vertices]),
            np.concatenate([mesh.triangles, room.triangles + len(verts)]),
            np.concatenate([mesh.colors, room.colors]))


def check_clip(sv, cfg, clip_dir: Path, rng, n_samples: int) -> None:
    """Frame count, P6 size, palette, ray-cast samples and no-gap rule of a clip."""
    files = sorted(clip_dir.glob("frame_*.ppm"))
    require(len(files) == cfg.n_frames,
            f"{clip_dir.name}: {len(files)} frames written, configured {cfg.n_frames}")
    mesh = sv.meshes.builtin_mesh(cfg.object_ref)
    center, radius = sv.meshes.bounding_sphere(mesh)
    trajectory = sv.camera_rig.generate_trajectory(cfg, center, radius)
    width, height = cfg.render.width, cfg.render.height
    low = cfg.render.quality.value == "Low"
    basic = cfg.environment.scene_type.value == "Basic"
    room = None
    if basic:
        room = sv.meshes.room_box(cfg.environment.scene_color, sv.micro_renderer.ROOM_HALF_EXTENT)
        background = (0, 0, 0)
    else:
        background = np.rint(np.clip(cfg.environment.background_color[:3], 0.0, 1.0) * 255.0)
    for k, path in enumerate(files):
        pixels = oracles.parse_p6(path.read_bytes(), width, height)
        verts, tris, colors = scene_for_frame(cfg, mesh, room, center, k)
        camera = trajectory.frames[k]
        grid = (max(1, width // 2), max(1, height // 2)) if low else (width, height)
        oracle = oracles.FrameOracle(verts, tris, colors, camera, cfg.lighting,
                                     background, *grid)
        inside = basic and oracles.camera_inside_room(
            camera.position, sv.micro_renderer.ROOM_HALF_EXTENT)
        try:
            oracles.check_frame(pixels, oracle, low, rng, n_samples, no_fill=inside)
        except CheckFailure as exc:
            raise CheckFailure(f"{clip_dir.name}/{path.name}: {exc}") from None


# ---------------------------------------------------------------------------
# room-clips


class RoomClips:
    name = "room-clips"
    op_unit = "rendered frame"
    OBJECTS = ("cube", "sphere", "torus", "cylinder")
    N_FRAMES = 12
    SAMPLES_PER_FRAME = 8

    def presets(self, sv):
        """One preset per object: Basic room, High quality, camera near the -y wall."""
        ps = sv.param_sampler
        base = dict(ps.PresetLibrary.default().get("random").params)
        base.update({
            "environment.scene_type": ps.Constant("Basic"),
            "render.quality": ps.Constant("High"),
            "render.engine_target": ps.Constant("Internal"),
            "render.width": ps.Constant(160),
            "render.height": ps.Constant(120),
            "n_frames": ps.Constant(self.N_FRAMES),
            "camera.movement_value": ps.Uniform(1.0, 5.0),
            "camera.initial_position.x": ps.Uniform(-3.0, 3.0),
            "camera.initial_position.y": ps.Uniform(-16.0, -13.0),
            "camera.initial_position.z": ps.Uniform(0.5, 3.0),
        })
        return [ps.DistributionPreset(f"room-{obj}", {**base, "object_ref": ps.Constant(obj)})
                for obj in self.OBJECTS]

    def prepare(self, sv, seed: int, r: int) -> dict:
        texts = [sv.scene_config.encode_config(sv.param_sampler.sample_config(
                     preset, input_seed(seed, r, k)))
                 for k, preset in enumerate(self.presets(sv))]
        return {"config_texts": texts}

    def run(self, sv, inputs, out: Path) -> RoundRun:
        frames, busy = 0, 0.0
        configs = []
        for k, text in enumerate(inputs["config_texts"]):
            cfg = sv.scene_config.decode_config(text)
            mesh = sv.meshes.builtin_mesh(cfg.object_ref)
            clip_dir = out / f"clip_{k:03d}"
            clip_dir.mkdir()
            t0 = time.perf_counter()
            for i, frame in enumerate(sv.micro_renderer.render_video(cfg, mesh)):
                sv.micro_renderer.write_ppm(frame, clip_dir / f"frame_{i:05d}.ppm")
                frames += 1
            busy += time.perf_counter() - t0
            configs.append(cfg)
        return RoundRun(frames, busy, {"configs": configs})

    def check(self, sv, inputs, run: RoundRun, out: Path, rng) -> list[OpCheck]:
        return run_checks(
            (f"clip {k}", lambda k=k, cfg=cfg: check_clip(
                sv, cfg, out / f"clip_{k:03d}", rng, self.SAMPLES_PER_FRAME))
            for k, cfg in enumerate(run.outputs["configs"]))


# ---------------------------------------------------------------------------
# toy-flow


class ToyFlow:
    name = "toy-flow"
    op_unit = "training step or guided sample step"
    N_POINTS = 2000
    STEPS_B64 = {"base": 600, "gen": 800, "ref": 600}
    STEPS_B512 = 150
    ALPHAS = (0.0, 0.1, 0.2)
    N_SAMPLES = 400
    SAMPLE_STEPS = 50
    LEARNING_RATE = 2e-3

    def prepare(self, sv, seed: int, r: int) -> dict:
        fl = sv.flowlab
        s = [input_seed(seed, r, k) for k in range(10)]
        return {
            "real": fl.toy_real_dataset(self.N_POINTS, s[0]),
            "mixed": fl.toy_mixed_dataset(self.N_POINTS, s[1]),
            "synthetic": fl.toy_synthetic_dataset(self.N_POINTS, s[2], label=fl.REFERENCE_LABEL),
            "real_b512": fl.toy_real_dataset(4 * self.N_POINTS, s[3]),
            "init": s[4], "init_b512": s[5], "train": s[6:9], "sample": s[9],
        }

    def _config(self, sv, steps, batch, dropout, seed):
        return sv.flowlab.TrainConfig(learning_rate=self.LEARNING_RATE, steps=steps,
                                      batch_size=batch, cond_dropout=dropout, seed=seed)

    def run(self, sv, inputs, out: Path) -> RoundRun:
        fl, gd = sv.flowlab, sv.guidance
        seeds = inputs["train"]
        t0 = time.perf_counter()
        fresh = fl.VelocityModel(data_dim=3, cond_dim=fl.TOY_COND_DIM, seed=inputs["init"])
        base, loss_base = fl.train(fresh, inputs["real"], self._config(
            sv, self.STEPS_B64["base"], 64, 0.1, seeds[0]))
        gen, loss_gen = fl.train(base, inputs["mixed"], self._config(
            sv, self.STEPS_B64["gen"], 64, 0.1, seeds[1]))
        ref, loss_ref = fl.train(base, inputs["synthetic"], self._config(
            sv, self.STEPS_B64["ref"], 64, 0.0, seeds[2]))
        fresh512 = fl.VelocityModel(data_dim=3, cond_dim=fl.TOY_COND_DIM,
                                    seed=inputs["init_b512"])
        _, loss_512 = fl.train(fresh512, inputs["real_b512"], self._config(
            sv, self.STEPS_B512, 512, 0.1, seeds[0]))
        train_s = time.perf_counter() - t0

        paths = {"gen": out / "gen.ckpt", "ref": out / "ref.ckpt"}
        fl.save_checkpoint(gen, paths["gen"], seed=seeds[1], train_steps=self.STEPS_B64["gen"])
        fl.save_checkpoint(ref, paths["ref"], seed=seeds[2], train_steps=self.STEPS_B64["ref"])
        gen_loaded, _ = fl.load_checkpoint(paths["gen"])
        ref_loaded, _ = fl.load_checkpoint(paths["ref"])

        t1 = time.perf_counter()
        reports = [gd.run_simdrop_experiment(
                       gen_loaded, ref_loaded, gd.default_guidance_params(alpha=alpha),
                       n_samples=self.N_SAMPLES, seed=inputs["sample"],
                       n_steps=self.SAMPLE_STEPS)
                   for alpha in self.ALPHAS]
        sample_s = time.perf_counter() - t1

        steps = sum(self.STEPS_B64.values()) + self.STEPS_B512
        ops = steps + len(self.ALPHAS) * self.SAMPLE_STEPS
        return RoundRun(ops, train_s + sample_s, {
            "losses": {"base": loss_base, "gen": loss_gen, "ref": loss_ref, "b512": loss_512},
            "models": {"gen": gen, "ref": ref},
            "loaded": {"gen": gen_loaded, "ref": ref_loaded},
            "paths": paths, "reports": reports})

    def check(self, sv, inputs, run: RoundRun, out: Path, rng) -> list[OpCheck]:
        o = run.outputs
        items = [(f"train {name}", lambda loss=loss, name=name: check_loss(name, loss))
                 for name, loss in o["losses"].items()]
        items += [(f"checkpoint {name}", lambda name=name: check_checkpoint(
                       sv, o["models"][name], o["loaded"][name], o["paths"][name],
                       out / f"{name}.resaved.ckpt"))
                  for name in ("gen", "ref")]
        items.append(("simdrop alpha=0", lambda: check_alpha0_is_cfg(
            sv, o["reports"][0], o["loaded"]["gen"], self.N_SAMPLES, inputs["sample"],
            self.SAMPLE_STEPS)))
        items.append(("simdrop alpha sweep", lambda: check_alpha_sweep(o["reports"])))
        return run_checks(items)


def check_loss(name: str, loss: np.ndarray) -> None:
    require(len(loss) > 0 and np.isfinite(loss).all(), f"{name}: non-finite training loss")
    fifth = max(1, len(loss) // 5)
    head, tail = float(loss[:fifth].mean()), float(loss[-fifth:].mean())
    require(tail < head, f"{name}: loss tail mean {tail:.4f} is not below head mean {head:.4f}")


def check_checkpoint(sv, model, loaded, path: Path, resaved: Path) -> None:
    """Loaded weights equal the saved ones bit for bit; saving them again gives the same file."""
    for want, got in zip(model.params(), loaded.params()):
        require(want.shape == got.shape and want.tobytes() == got.tobytes(),
                f"{path.name}: loaded weights differ from the saved model")
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    sv.flowlab.save_checkpoint(loaded, resaved, seed=header["seed"],
                               train_steps=header["train_steps"])
    require(resaved.read_bytes() == path.read_bytes(),
            f"{path.name}: save(load(file)) is not byte-identical to the file")


def check_alpha0_is_cfg(sv, report, gen, n_samples: int, seed: int, n_steps: int) -> None:
    params = sv.guidance.default_guidance_params(alpha=0.0)
    require(report.alpha == 0.0, "first sweep entry is not alpha = 0")
    want = oracles.cfg_report(gen, params.t, params.n, params.beta, n_samples, seed,
                              n_steps, sv.guidance.ANGLE_BINS)
    got = {k: getattr(report, k) for k in want}
    require(got == want, f"SimDrop at alpha = 0 {got} is not classifier-free guidance {want}")


def check_alpha_sweep(reports) -> None:
    """The signed artifact mean must not rise as alpha grows (SimDrop pushes z toward real)."""
    means = [r.artifact_mean for r in reports]
    require(all(np.isfinite(means)), f"non-finite artifact means {means}")
    require(all(b <= a for a, b in zip(means, means[1:])),
            f"artifact mean rises with alpha: {means}")


# ---------------------------------------------------------------------------
# recon


TRIANGULATE_SAMPLE = 16     # tracks per zero-noise set triangulated explicitly


class Recon:
    name = "recon"
    op_unit = "triangulated observation"
    SEEDED_OBJECTS = ("sphere", "cube", "cylinder")
    N_FRAMES = 24
    SIGMA_PX = 0.5
    WIDTH, HEIGHT = 200, 150
    # the torus orbit never depends on the seed: its hidden observations are
    # the documented fault, so its two scenes fail identically in every round
    TORUS_POSITION = (0.0, -6.0, 1.5)
    TORUS_FRAMES = 12
    TORUS_NOISE_SEED = 12

    def orbit(self, sv, obj: str, position, n_frames: int, coverage: float, seed: int):
        sc = sv.scene_config
        return sc.SceneConfig(
            object_ref=obj,
            object_animation=sc.ObjectAnimation.none(),
            camera=sc.CameraSpec(
                focus_type=sc.FocusType.FOLLOW, focus_position=sc.FocusPosition.CENTER,
                movement_type=sc.MovementType.SPIN, movement_value=360.0,
                initial_position=tuple(position), coverage=coverage),
            lighting=sc.LightingSpec(lights=(), ambient_intensity=1.0),
            environment=sc.EnvSpec(scene_type=sc.SceneType.EMPTY,
                                   background_color=(0.0, 0.0, 0.0, 1.0)),
            render=sc.RenderSpec(width=self.WIDTH, height=self.HEIGHT),
            seed=seed, n_frames=n_frames, fps=24)

    def prepare(self, sv, seed: int, r: int) -> dict:
        scenes = []
        for k, obj in enumerate(self.SEEDED_OBJECTS):
            rng = np.random.Generator(np.random.PCG64(input_seed(seed, r, k)))
            dist, azimuth = rng.uniform(5.0, 8.0), rng.uniform(0.0, 2.0 * math.pi)
            position = (dist * math.cos(azimuth), dist * math.sin(azimuth), rng.uniform(0.5, 3.0))
            cfg = self.orbit(sv, obj, position, self.N_FRAMES, rng.uniform(0.35, 0.6),
                             input_seed(seed, r, 10 + k))
            noise_seed = input_seed(seed, r, 20 + k)
            scenes += [(obj, cfg, 0.0, noise_seed), (obj, cfg, self.SIGMA_PX, noise_seed)]
        torus = self.orbit(sv, "torus", self.TORUS_POSITION, self.TORUS_FRAMES, 0.5, 0)
        scenes += [("torus", torus, 0.0, self.TORUS_NOISE_SEED),
                   ("torus", torus, self.SIGMA_PX, self.TORUS_NOISE_SEED)]
        return {"scenes": scenes}

    def run(self, sv, inputs, out: Path) -> RoundRun:
        fm = sv.fidelity_metrics
        observations, busy, results = 0, 0.0, []
        for k, (obj, cfg, sigma, noise_seed) in enumerate(inputs["scenes"]):
            t0 = time.perf_counter()
            mesh = sv.meshes.builtin_mesh(obj)
            center, radius = sv.meshes.bounding_sphere(mesh)
            trajectory = sv.camera_rig.generate_trajectory(cfg, center, radius)
            tracks = fm.generate_tracks(mesh, trajectory, cfg.render.width, cfg.render.height,
                                        pixel_noise_sigma=sigma, seed=noise_seed)
            metrics = fm.recon_metrics(tracks)
            path = out / f"tracks_{k}.json"
            fm.write_tracks(tracks, path)
            reread = fm.read_tracks(path)
            busy += time.perf_counter() - t0
            observations += sum(len(t) for t in tracks.tracks)
            results.append((mesh, tracks, metrics, reread))
        return RoundRun(observations, busy, {"results": results})

    def check(self, sv, inputs, run: RoundRun, out: Path, rng) -> list[OpCheck]:
        hidden_cache = {}
        return run_checks(
            (f"{obj} sigma={sigma}", lambda obj=obj, sigma=sigma, res=res: check_track_set(
                sv, *res, sigma=sigma, rng=rng, occlusion_is_known=(obj == "torus"),
                hidden_cache=hidden_cache))
            for (obj, _, sigma, _), res in zip(inputs["scenes"], run.outputs["results"]))


def check_track_set(sv, mesh, tracks, metrics, reread, sigma: float, rng,
                    occlusion_is_known: bool = False, hidden_cache=None) -> None:
    """Observations, triangulation, error band and JSON round trip of one track set.

    At zero noise the mean error must sit at float rounding level, which
    pins every kept track to its true point; ``TRIANGULATE_SAMPLE`` tracks
    are also triangulated explicitly.  Occlusion is checked last, so a
    known-fault scene still passes every other check before it is counted
    as failed.  ``hidden_cache`` shares the occlusion ray cast between
    track sets of one scene, whose observations differ only by noise.
    """
    require(len(tracks) > 0, "no tracks")
    check_tracks_equal(tracks, reread)
    cams = tracks.cameras.frames
    for t in tracks.tracks:
        require(t.true_point is not None and len(t) >= 2, f"track {t.point_id} malformed")
    ids = np.concatenate([np.full(len(t), t.point_id) for t in tracks.tracks])
    frames = np.concatenate([t.frames for t in tracks.tracks])
    observed = np.concatenate([t.pixels for t in tracks.tracks])
    true_points = np.stack([t.true_point for t in tracks.tracks])
    point_ids = np.array([t.point_id for t in tracks.tracks])
    lengths = [len(t) for t in tracks.tracks]
    require(np.array_equal(true_points, mesh.vertices[point_ids]),
            "a track's true_point is not the mesh vertex it names")
    require(frames.min() >= 0 and frames.max() < len(cams), "observation of a missing frame")

    want = np.empty_like(observed)
    by_frame = {}
    for k in np.unique(frames):
        sel = frames == k
        by_frame[int(k)] = ids[sel]
        want[sel] = oracles.project(cams[k], mesh.vertices[ids[sel]], tracks.width, tracks.height)
    require(((want >= 0.0) & (want < (tracks.width, tracks.height))).all(),
            "an observed point projects outside the image")
    off = np.abs(observed - want).max(axis=1)
    limit = 1e-8 if sigma == 0.0 else 7.0 * sigma
    worst = int(np.argmax(off))
    require(off[worst] <= limit, f"track {ids[worst]} frame {frames[worst]}: observation is "
                                 f"{off[worst]:.3g} px from the projected true point "
                                 f"(limit {limit:g})")

    require(metrics.n_points == len(tracks),
            f"N = {metrics.n_points} of {len(tracks)} non-degenerate orbit tracks")
    require(metrics.mean_track_length == float(np.mean(lengths)),
            f"T = {metrics.mean_track_length}, track lengths give {np.mean(lengths)}")
    require(metrics.reproj_error_top1000 <= metrics.reproj_error * (1.0 + 1e-12) + 1e-15,
            "e^ exceeds e")
    if sigma == 0.0:
        require(metrics.reproj_error <= 1e-8, f"zero-noise e = {metrics.reproj_error:.3g} px")
        picks = rng.choice(len(tracks), min(TRIANGULATE_SAMPLE, len(tracks)), replace=False)
        for t in (tracks.tracks[i] for i in picks):
            point = sv.fidelity_metrics.triangulate(t, tracks.cameras, tracks.width,
                                                    tracks.height)
            err = float(np.abs(point - t.true_point).max())
            require(err <= 1e-8 * (1.0 + float(np.abs(t.true_point).max())),
                    f"track {t.point_id} triangulates {err:.3g} from its true point")
    else:
        lo, hi = oracles.noise_band(sigma, lengths)
        require(lo <= metrics.reproj_error <= hi,
                f"e = {metrics.reproj_error:.4f} px outside [{lo:.4f}, {hi:.4f}] "
                f"for sigma = {sigma} px")

    cache = {} if hidden_cache is None else hidden_cache
    key = (mesh.vertices.tobytes(), mesh.triangles.tobytes(),
           b"".join(c.position.tobytes() for c in cams),
           tuple((k, v.tobytes()) for k, v in sorted(by_frame.items())))
    if key not in cache:
        cache[key] = oracles.occluded_observations(mesh.vertices, mesh.triangles, by_frame, cams)
    hidden = cache[key]
    if hidden:
        message = (f"{hidden} of {len(ids)} observations are hidden behind other "
                   f"geometry (ray cast)")
        raise (KnownFault if occlusion_is_known else CheckFailure)(message)


def check_tracks_equal(a, b) -> None:
    require((a.width, a.height, len(a), len(a.cameras)) == (b.width, b.height, len(b), len(b.cameras)),
            "track JSON round trip changed the set's size")
    for ca, cb in zip(a.cameras.frames, b.cameras.frames):
        require(np.array_equal(ca.position, cb.position) and np.array_equal(ca.rotation, cb.rotation)
                and ca.focal_mm == cb.focal_mm and ca.sensor_height_mm == cb.sensor_height_mm,
                "track JSON round trip changed a camera")
    require(np.array_equal(a.cameras.focus_history, b.cameras.focus_history),
            "track JSON round trip changed the focus history")
    for ta, tb in zip(a.tracks, b.tracks):
        require(ta.point_id == tb.point_id and np.array_equal(ta.frames, tb.frames)
                and np.array_equal(ta.pixels, tb.pixels)
                and np.array_equal(ta.true_point, tb.true_point),
                f"track JSON round trip changed track {ta.point_id}")


# ---------------------------------------------------------------------------
# demo


class Demo:
    name = "demo"
    op_unit = "rendered frame"
    N_CLIPS = 8                # clips the demo samples from the "random" preset
    CANDIDATES = 32
    # Among CANDIDATES seeds, the round takes the one whose clips are closest
    # to the typical frame count and render work, so that the work per round
    # is steady across seeds.  Render work is a proxy: ms per frame for each
    # object and for the room, measured once on the seed renderer.
    OBJECT_MS = {"cube": 2.7, "cylinder": 7.0, "sphere": 26.0, "torus": 30.0}
    ROOM_MS = {"High": 18.0, "Low": 13.0}
    TYPICAL_FRAMES = 290
    TYPICAL_WORK_MS = 6840.0
    SAMPLES_PER_FRAME = 6
    BINOMIAL_SIGMAS = 5.0

    def work_ms(self, configs) -> float:
        return sum(c.n_frames * (self.OBJECT_MS[c.object_ref]
                                 + (self.ROOM_MS[c.render.quality.value]
                                    if c.environment.scene_type.value == "Basic" else 0.0))
                   for c in configs)

    def prepare(self, sv, seed: int, r: int) -> dict:
        preset = sv.param_sampler.PresetLibrary.default().get("random")
        ranked = []
        for k in range(self.CANDIDATES):
            demo_seed = input_seed(seed, r, k)
            configs = sv.param_sampler.sample_batch(
                preset, sv.seeding.stream_seed(demo_seed, "configs"), self.N_CLIPS)
            frames = sum(c.n_frames for c in configs)
            gap = max(abs(frames / self.TYPICAL_FRAMES - 1.0),
                      abs(self.work_ms(configs) / self.TYPICAL_WORK_MS - 1.0))
            ranked.append((gap, k, demo_seed, frames, configs))
        for _, _, demo_seed, frames, configs in sorted(ranked, key=lambda c: c[:2]):
            if all(self.placeable(sv, cfg) for cfg in configs):
                return {"demo_seed": demo_seed, "frames": frames}
        raise RuntimeError(f"none of {self.CANDIDATES} candidate demo seeds can be rendered")

    @staticmethod
    def placeable(sv, cfg) -> bool:
        """False for a clip the demo cannot render: about 2% of seeds sample a
        camera inside the object's bounding sphere, and the demo exits 1."""
        center, radius = sv.meshes.bounding_sphere(sv.meshes.builtin_mesh(cfg.object_ref))
        try:
            sv.camera_rig.generate_trajectory(cfg, center, radius)
        except ValueError:
            return False
        return True

    def run(self, sv, inputs, out: Path) -> RoundRun:
        tree = out / "demo"
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):   # keep the result line last
            code = sv.cli.main(["demo", "--seed", str(inputs["demo_seed"]), "--out", str(tree)])
        busy = time.perf_counter() - t0
        return RoundRun(inputs["frames"], busy, {"code": code, "tree": tree})

    def check(self, sv, inputs, run: RoundRun, out: Path, rng) -> list[OpCheck]:
        return run_checks([("demo run", lambda: self.check_tree(sv, inputs, run, rng))])

    def check_tree(self, sv, inputs, run: RoundRun, rng) -> None:
        require(run.outputs["code"] == 0, f"demo exited {run.outputs['code']}")
        tree = run.outputs["tree"]
        seed = inputs["demo_seed"]
        config_files = sorted((tree / "configs").glob("config_*.json"))
        require(len(config_files) == self.N_CLIPS, f"{len(config_files)} configs written")
        configs = [sv.scene_config.decode_config(p.read_text()) for p in config_files]
        require(sum(c.n_frames for c in configs) == inputs["frames"],
                "demo rendered other configs than its seed samples")
        for i, cfg in enumerate(configs):
            check_clip(sv, cfg, tree / "videos" / f"clip_{i:03d}", rng, self.SAMPLES_PER_FRAME)
            script = tree / "scripts" / f"clip_{i:03d}.py"
            require(script.is_file() == (cfg.render.engine_target.value == "BlenderScript"),
                    f"clip {i}: engine script presence does not match its engine target")

        check_manifest(tree, (tree / "manifest.ndjson").read_text(), self.BINOMIAL_SIGMAS)

        fl = sv.flowlab
        models = {}
        for name in ("base", "gen", "ref"):
            path = tree / "models" / f"{name}.ckpt"
            models[name], _ = fl.load_checkpoint(path)
            check_checkpoint(sv, models[name], models[name], path,
                             run.outputs["tree"].parent / f"{name}.resaved.ckpt")
        doc = json.loads((tree / "simdrop_report.json").read_text())
        reports = [sv.guidance.SimDropReport(**r) for r in doc["runs"]]
        # the demo samples under stream_seed(seed, "simdrop") with the default 100 steps
        check_alpha0_is_cfg(sv, reports[0], models["gen"], reports[0].n_samples,
                            sv.seeding.stream_seed(seed, "simdrop"), 100)
        check_alpha_sweep(reports)

        fm = sv.fidelity_metrics
        text = (tree / "tracks" / "metrics_tracks.json").read_text()
        tracks = fm.tracks_from_json(text)
        require(fm.tracks_to_json(tracks) == text, "track JSON does not re-encode identically")
        report = json.loads((tree / "metrics_report.json").read_text())
        metrics = fm.ReconMetrics(report["n_points"], report["mean_track_length"],
                                  report["reproj_error_px"], report["reproj_error_top1000_px"])
        require(None not in (metrics.reproj_error, metrics.reproj_error_top1000),
                "metrics report holds a null error")
        check_track_set(sv, sv.meshes.uv_sphere(), tracks, metrics, tracks, sigma=0.0, rng=rng)


def check_manifest(tree: Path, text: str, sigmas: float) -> None:
    """A 50/50 manifest: synthetic share within a binomial bound, every clip rendered."""
    entries = [json.loads(line) for line in text.splitlines()]
    synthetic = [e["uri"] for e in entries if e["source"] == "Synthetic"]
    require(all((tree / uri).is_dir() for uri in synthetic),
            "manifest names a synthetic clip the demo did not render")
    limit = sigmas * math.sqrt(len(entries) * 0.25)
    require(abs(len(synthetic) - 0.5 * len(entries)) <= limit,
            f"manifest: {len(synthetic)}/{len(entries)} synthetic, outside 0.5 +- {limit:.0f}")


WORKLOADS = {w.name: w for w in (Demo(), RoomClips(), ToyFlow(), Recon())}
