"""Command-line entry point: one subcommand per pipeline stage plus `demo`.

Every subcommand is deterministic given its flags and seed; `demo` chains
the whole pipeline (sample configs, render, caption, mix a manifest, train
the toy model triple, guided-sampling report, reconstruction metrics) under
a single seed and writes a byte-reproducible artifact tree.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

import numpy as np

from . import captioner, dataset_mixer, fidelity_metrics, flowlab, guidance, jsondoc
from .camera_rig import generate_trajectory, trajectory_to_json
from .meshes import bounding_sphere, builtin_mesh, load_obj, uv_sphere
from .micro_renderer import emit_engine_script, render_video, write_ppm
from .param_sampler import PresetLibrary, decode_preset, sample_batch
from .scene_config import (
    CameraSpec,
    EngineTarget,
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
    decode_config,
    encode_config,
    validate_config,
)
from .seeding import stream_seed

__all__ = ["main"]


def _load_config(path) -> SceneConfig:
    """The config in ``path``, decoded and validated; an error names the file and each bad field."""
    cfg = decode_config(Path(path).read_bytes(), source=str(path))
    report = validate_config(cfg)
    if not report.ok:
        raise jsondoc.FormatError(f"{path}: " + "; ".join(map(str, report.violations)))
    return cfg


def _resolve_mesh(cfg: SceneConfig, mesh_path=None):
    if mesh_path is not None:
        return load_obj(mesh_path)
    return builtin_mesh(cfg.object_ref)


# the shape of every toy model: 3-D points (circle in x/y, artifact axis z)
# and the toy condition labels
_TOY_DIMS = {"data_dim": 3, "cond_dim": flowlab.TOY_COND_DIM}


def _load_toy_checkpoint(path) -> flowlab.VelocityModel:
    """The model in ``path``; an error names the file and a header field off the toy shape."""
    model, header = flowlab.load_checkpoint(path)
    for field, want in _TOY_DIMS.items():
        if header[field] != want:
            raise jsondoc.FormatError(
                f"{path}: header: {field}: the toy models need {want}, got {header[field]}")
    return model


def _write_json(path, doc) -> None:
    Path(path).write_text(jsondoc.dumps(doc))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sample_configs(args) -> int:
    library = PresetLibrary.default()
    source = None
    if args.preset_file:
        added = decode_preset(Path(args.preset_file).read_bytes(), source=args.preset_file)
        try:
            library.add(added)
        except ValueError as exc:
            raise ValueError(f"{args.preset_file}: name: {exc}") from None
        if added.name == args.preset:
            source = args.preset_file
    preset = library.get(args.preset)
    try:
        configs = sample_batch(preset, args.seed, args.count)
    except ValueError as exc:
        # with a positive count, only a config breaking a rule across fields
        # fails here; name the file its preset came from
        if source is None or args.count < 1:
            raise
        raise ValueError(f"{source}: {exc}") from None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, cfg in enumerate(configs):
        (out_dir / f"config_{i:03d}.json").write_text(encode_config(cfg))
    print(f"wrote {args.count} configs to {out_dir}")
    return 0


def _cmd_trajectory(args) -> int:
    cfg = _load_config(args.config)
    center, radius = bounding_sphere(_resolve_mesh(cfg, args.mesh))
    trajectory = generate_trajectory(cfg, center, radius)
    doc = {"schema": jsondoc.SCHEMA_VERSION, "n_frames": len(trajectory),
           **trajectory_to_json(trajectory)}
    _write_json(args.out, doc)
    print(f"wrote {len(trajectory)}-frame trajectory to {args.out}")
    return 0


def _cmd_render(args) -> int:
    cfg = _load_config(args.config)
    mesh = _resolve_mesh(cfg, args.mesh)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, frame in enumerate(render_video(cfg, mesh)):
        write_ppm(frame, out_dir / f"frame_{k:05d}.ppm")
    print(f"rendered {cfg.n_frames} frames to {out_dir}")
    return 0


def _cmd_caption(args) -> int:
    cfg = _load_config(args.config)
    if args.registry:
        registry = captioner.CaptionRegistry.from_json(Path(args.registry).read_bytes(),
                                                       source=args.registry)
    else:
        registry = captioner.default_registry()
    caption = captioner.caption_for_config(
        cfg, registry,
        granularity=captioner.Granularity(args.granularity),
        tag_mode=captioner.TagMode(args.tags))
    sys.stdout.write(jsondoc.dumps(caption.to_json_dict()))
    return 0


def _cmd_build_manifest(args) -> int:
    synthetic = dataset_mixer.load_pool_dir(args.syn)
    real = dataset_mixer.load_pool_dir(args.real)
    schedule = dataset_mixer.MixSchedule(ratio=args.ratio, total_steps=args.steps,
                                         seed=args.seed)
    entries = dataset_mixer.build_manifest(synthetic, real, schedule)
    if args.out:
        dataset_mixer.write_manifest(entries, args.out)
        print(f"wrote {len(entries)}-step manifest to {args.out}")
    else:
        for entry in entries:
            sys.stdout.write(dataset_mixer.entry_to_json(entry) + "\n")
    return 0


_TOY_DATASETS = {
    "real": lambda n, seed, ratio: flowlab.toy_real_dataset(n, seed),
    "synthetic": lambda n, seed, ratio: flowlab.toy_synthetic_dataset(n, seed),
    "mixed": lambda n, seed, ratio: flowlab.toy_mixed_dataset(n, seed, ratio),
}


# the train-toy flag that sets each flowlab setting, so a fault names the flag;
# `learning_rate` (--lr) and a negative `n` (--n-points) keep their field-named
# messages, which the CLI tests pin word for word
_TRAIN_TOY_FLAGS = {"synthetic_share": "--ratio", "dataset size": "--n-points",
                    "labels": "--label", "steps": "--steps", "batch_size": "--batch",
                    "cond_dropout": "--dropout"}


def _cmd_train_toy(args) -> int:
    try:
        dataset = _TOY_DATASETS[args.dataset](args.n_points, stream_seed(args.seed, "data"),
                                              args.ratio)
        if args.label is not None:
            dataset = flowlab.ToyDataset(dataset.points,
                                         np.full(len(dataset), args.label))
        if args.init:
            model = _load_toy_checkpoint(args.init)
        else:
            model = flowlab.VelocityModel(**_TOY_DIMS, seed=stream_seed(args.seed, "init"))
        cfg = flowlab.TrainConfig(learning_rate=args.lr, steps=args.steps,
                                  batch_size=args.batch, cond_dropout=args.dropout,
                                  seed=stream_seed(args.seed, "train"))
        model, trace = flowlab.train(model, dataset, cfg)
    except flowlab.SettingError as exc:
        if exc.setting not in _TRAIN_TOY_FLAGS:
            raise
        raise ValueError(f"{_TRAIN_TOY_FLAGS[exc.setting]}: expected {exc.expected}, "
                         f"got {exc.value}") from None
    flowlab.save_checkpoint(model, args.out, seed=args.seed, train_steps=args.steps)
    tail = float(trace[-100:].mean()) if len(trace) else float("nan")
    print(f"trained {args.steps} steps on {args.dataset}; "
          f"final-100 mean loss {tail:.4f}; checkpoint at {args.out}")
    return 0


def _cmd_sample_simdrop(args) -> int:
    gen, ref = _load_toy_checkpoint(args.gen), _load_toy_checkpoint(args.ref)
    reports = []
    for alpha in args.alpha:
        params = guidance.default_guidance_params(alpha=alpha, beta=args.beta)
        reports.append(guidance.run_simdrop_experiment(
            gen, ref, params, n_samples=args.n, seed=args.seed, n_steps=args.steps))
    guidance.write_report(reports, args.report)
    for report in reports:
        print(f"alpha={report.alpha}: coverage {report.covered_bins}/{guidance.ANGLE_BINS}, "
              f"artifact mean {report.artifact_mean}")
    print(f"report written to {args.report}")
    return 0


def _cmd_evaluate(args) -> int:
    if args.tracks:
        track_set = fidelity_metrics.read_tracks(args.tracks)
    else:
        if not args.config:
            raise ValueError("evaluate needs either --tracks or --config")
        cfg = _load_config(args.config)
        mesh = _resolve_mesh(cfg, args.mesh)
        center, radius = bounding_sphere(mesh)
        trajectory = generate_trajectory(cfg, center, radius)
        track_set = fidelity_metrics.generate_tracks(
            mesh, trajectory, cfg.render.width, cfg.render.height,
            pixel_noise_sigma=args.noise, seed=args.seed)
    if len(track_set) == 0:
        raise ValueError(f"{args.tracks or args.config}: track set is empty")
    metrics = fidelity_metrics.recon_metrics(track_set)
    doc = fidelity_metrics.metrics_to_json_dict(metrics)
    if args.report:
        _write_json(args.report, doc)
    sys.stdout.write(jsondoc.dumps(doc))
    return 0


# ---------------------------------------------------------------------------
# demo: the full pipeline under one seed

_DEMO_REAL_CAPTIONS = (
    "a street musician playing guitar at dusk",
    "waves rolling onto a rocky shore",
    "a cyclist crossing a wet intersection",
    "steam rising from a cup of coffee",
    "a dog catching a frisbee in a park",
    "traffic moving along a rainy avenue",
    "a dancer rehearsing in a bright studio",
    "leaves drifting across a quiet courtyard",
)

_DEMO_N_CLIPS = 8


def _demo_metrics_config(seed: int) -> SceneConfig:
    """Fixed orbit scene used for the reconstruction-metrics stage.

    A full orbit around a sphere guarantees baseline for triangulation, so
    the zero-noise reprojection error is a pure function of geometry.
    """
    return SceneConfig(
        object_ref="sphere",
        object_animation=ObjectAnimation.none(),
        camera=CameraSpec(
            focus_type=FocusType.FOLLOW,
            focus_position=FocusPosition.CENTER,
            movement_type=MovementType.SPIN,
            movement_value=360.0,
            initial_position=(0.0, -6.0, 1.5),
            coverage=0.5,
        ),
        lighting=LightingSpec(lights=(Light(position=(3.0, -3.0, 5.0),
                                            color_temp=6500.0, intensity=1.0),),
                              ambient_intensity=0.2),
        environment=EnvSpec(scene_type=SceneType.EMPTY,
                            background_color=(0.05, 0.05, 0.08, 1.0)),
        render=RenderSpec(width=200, height=150),
        seed=seed,
        n_frames=48,
        fps=24,
    )


def _cmd_demo(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed
    registry = captioner.default_registry()

    # 1. sample configs
    preset = PresetLibrary.default().get("random")
    configs = sample_batch(preset, stream_seed(seed, "configs"), _DEMO_N_CLIPS)
    config_dir = out / "configs"
    config_dir.mkdir(exist_ok=True)
    for i, cfg in enumerate(configs):
        (config_dir / f"config_{i:03d}.json").write_text(encode_config(cfg))
    print(f"[demo] sampled {len(configs)} configs")

    # 2. render (and emit scripts for configs targeting the external engine)
    video_dir = out / "videos"
    script_dir = out / "scripts"
    for i, cfg in enumerate(configs):
        mesh = builtin_mesh(cfg.object_ref)
        clip_dir = video_dir / f"clip_{i:03d}"
        clip_dir.mkdir(parents=True, exist_ok=True)
        for k, frame in enumerate(render_video(cfg, mesh)):
            write_ppm(frame, clip_dir / f"frame_{k:05d}.ppm")
        if cfg.render.engine_target is EngineTarget.BLENDER_SCRIPT:
            script_dir.mkdir(exist_ok=True)
            (script_dir / f"clip_{i:03d}.py").write_text(emit_engine_script(cfg))
    print(f"[demo] rendered {len(configs)} clips")

    # 3. captions (synthetic pool) plus a fabricated real pool
    caption_dir = out / "captions"
    caption_dir.mkdir(exist_ok=True)
    for i, cfg in enumerate(configs):
        caption = captioner.caption_for_config(
            cfg, registry, tag_mode=captioner.TagMode.TAGS_PLUS_NEGATIVE)
        _write_json(caption_dir / f"clip_{i:03d}.caption.json",
                    {"uri": f"videos/clip_{i:03d}", "caption": caption.to_json_dict()})
    real_dir = out / "real_captions"
    real_dir.mkdir(exist_ok=True)
    for i, text in enumerate(_DEMO_REAL_CAPTIONS):
        _write_json(real_dir / f"real_{i:03d}.caption.json",
                    {"uri": f"real/clip_{i:03d}",
                     "caption": captioner.real_caption(text).to_json_dict()})
    print("[demo] wrote captions")

    # 4. mixed training manifest
    schedule = dataset_mixer.MixSchedule(ratio=0.5, total_steps=1000,
                                         seed=stream_seed(seed, "manifest"))
    entries = dataset_mixer.build_manifest(
        dataset_mixer.load_pool_dir(caption_dir),
        dataset_mixer.load_pool_dir(real_dir), schedule)
    dataset_mixer.write_manifest(entries, out / "manifest.ndjson")
    n_syn = sum(e.source is dataset_mixer.Source.SYNTHETIC for e in entries)
    print(f"[demo] manifest: {n_syn}/{len(entries)} synthetic steps")

    # 5. toy model triple (reduced step counts keep the demo quick)
    base, gen, ref = guidance.train_transfer_models(
        stream_seed(seed, "models"), n_points=3000,
        base_steps=1500, gen_steps=2000, ref_steps=1500)
    model_dir = out / "models"
    model_dir.mkdir(exist_ok=True)
    flowlab.save_checkpoint(base, model_dir / "base.ckpt", seed=seed, train_steps=1500)
    flowlab.save_checkpoint(gen, model_dir / "gen.ckpt", seed=seed, train_steps=2000)
    flowlab.save_checkpoint(ref, model_dir / "ref.ckpt", seed=seed, train_steps=1500)
    print("[demo] trained base/gen/ref toy models")

    # 6. guided-sampling report (alpha sweep side by side)
    reports = []
    for alpha in (0.0,) + guidance.DEFAULT_ALPHAS:
        params = guidance.default_guidance_params(alpha=alpha)
        reports.append(guidance.run_simdrop_experiment(
            gen, ref, params, n_samples=800, seed=stream_seed(seed, "simdrop")))
    guidance.write_report(reports, out / "simdrop_report.json")
    for report in reports:
        print(f"[demo] alpha={report.alpha}: coverage {report.covered_bins}/36, "
              f"artifact mean {report.artifact_mean:+.3f}")

    # 7. reconstruction metrics on a zero-noise orbit scene
    metrics_cfg = _demo_metrics_config(stream_seed(seed, "metrics"))
    mesh = uv_sphere()
    center, radius = bounding_sphere(mesh)
    trajectory = generate_trajectory(metrics_cfg, center, radius)
    track_set = fidelity_metrics.generate_tracks(
        mesh, trajectory, metrics_cfg.render.width, metrics_cfg.render.height,
        pixel_noise_sigma=0.0, seed=stream_seed(seed, "tracks"))
    tracks_dir = out / "tracks"
    tracks_dir.mkdir(exist_ok=True)
    fidelity_metrics.write_tracks(track_set, tracks_dir / "metrics_tracks.json")
    metrics = fidelity_metrics.recon_metrics(track_set)
    _write_json(out / "metrics_report.json", fidelity_metrics.metrics_to_json_dict(metrics))
    print(f"[demo] metrics: N={metrics.n_points} T={metrics.mean_track_length:.2f} "
          f"e={metrics.reproj_error:.2e}")

    print(f"[demo] artifact tree at {out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthvid",
        description="Procedural synthetic-video pipeline: scene sampling, rendering, "
                    "captioning, dataset mixing, toy guided flows, fidelity metrics.")
    parser.add_argument("--verbose", action="store_true",
                        help="print the full traceback when a command fails")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("sample-configs", help="sample scene configs from a preset")
    p.add_argument("--preset", default="random")
    p.add_argument("--preset-file", help="JSON preset to add to the library")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample_configs)

    p = sub.add_parser("trajectory", help="write the per-frame camera poses for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--mesh", help="OBJ file overriding the config's object_ref")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("render", help="render a config to numbered PPM frames")
    p.add_argument("--config", required=True)
    p.add_argument("--mesh", help="OBJ file overriding the config's object_ref")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("caption", help="compose the caption for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--registry", help="caption registry JSON (default: built-in)")
    p.add_argument("--tags", choices=[m.value for m in captioner.TagMode], default="none")
    p.add_argument("--granularity", choices=[g.value for g in captioner.Granularity],
                   default="Generic")
    p.set_defaults(func=_cmd_caption)

    p = sub.add_parser("build-manifest", help="mix synthetic/real pools into a manifest")
    p.add_argument("--syn", required=True, help="directory of *.caption.json pool entries")
    p.add_argument("--real", required=True, help="directory of *.caption.json pool entries")
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="manifest path (default: NDJSON to stdout)")
    p.set_defaults(func=_cmd_build_manifest)

    p = sub.add_parser("train-toy", help="train a toy flow model")
    p.add_argument("--dataset", choices=sorted(_TOY_DATASETS), required=True)
    p.add_argument("--ratio", type=float, default=0.5, help="synthetic share for 'mixed'")
    p.add_argument("--steps", type=int, default=4000)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--label", type=int, help="override the dataset's condition label")
    p.add_argument("--init", help="checkpoint to continue training from")
    p.add_argument("--n-points", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="model.ckpt")
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("sample-simdrop", help="guided sampling report from two checkpoints")
    p.add_argument("--gen", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--alpha", type=float, nargs="+", default=list(guidance.DEFAULT_ALPHAS))
    p.add_argument("--beta", type=float, default=guidance.DEFAULT_BETA)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_sample_simdrop)

    p = sub.add_parser("evaluate", help="reconstruction metrics from tracks or a config")
    p.add_argument("--tracks", help="track-set JSON file")
    p.add_argument("--config", help="scene config (end-to-end mode)")
    p.add_argument("--mesh", help="OBJ file overriding the config's object_ref")
    p.add_argument("--noise", type=float, default=0.0, help="pixel noise sigma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="also write the report JSON here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("demo", help="run the whole pipeline under one seed")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default="demo_out")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on unknown flags/commands
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except Exception as exc:
        if args.verbose:
            traceback.print_exc(file=sys.stderr)
        # str() of a KeyError is the repr of its argument; print the message itself
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
