"""Spans around calls into synthvid's layers, and the per-layer metrics from them.

The tracer replaces module attributes with wrappers that record a span
(name, start, end, parent) and, for some calls, a few facts about the
arguments or the result.  Spans stay in memory; ``spans_doc`` returns them
for writing out when the run ends.  Nothing is wrapped in an untraced run.
"""

from __future__ import annotations

import inspect
import os
import time

# (module, attribute, span name, facts).  Wrapping the attribute a caller
# looks up catches the benchmark's calls and the package's internal calls
# through that module's globals alike.
LAYER_TARGETS = (
    ("param_sampler", "sample_config", "param_sampler.sample_config", None),
    ("scene_config", "encode_config", "scene_config.encode_config", None),
    ("scene_config", "decode_config", "scene_config.decode_config", None),
    ("camera_rig", "generate_trajectory", "camera_rig.generate_trajectory", "trajectory"),
    ("micro_renderer", "generate_trajectory", "camera_rig.generate_trajectory", "trajectory"),
    ("micro_renderer", "room_box", "meshes.room_box", None),
    ("micro_renderer", "render_frame", "micro_renderer.render_frame", "frame"),
    ("micro_renderer", "shaded_triangle_colors", "micro_renderer.shaded_triangle_colors", "shade"),
    ("micro_renderer", "write_ppm", "micro_renderer.write_ppm", "ppm"),
    ("flowlab", "train", "flowlab.train", "train"),
    ("flowlab", "save_checkpoint", "flowlab.save_checkpoint", None),
    ("flowlab", "load_checkpoint", "flowlab.load_checkpoint", None),
    ("guidance", "run_simdrop_experiment", "guidance.run_simdrop_experiment", "simdrop"),
    ("flowlab.VelocityModel", "velocity", "flowlab.velocity", None),
    ("fidelity_metrics", "generate_tracks", "fidelity_metrics.generate_tracks", "tracks"),
    ("fidelity_metrics", "triangulate", "fidelity_metrics.triangulate", None),
    ("fidelity_metrics", "recon_metrics", "fidelity_metrics.recon_metrics", "recon"),
    ("fidelity_metrics", "write_tracks", "fidelity_metrics.write_tracks", None),
    ("fidelity_metrics", "read_tracks", "fidelity_metrics.read_tracks", None),
)

# The demo runs inside synthvid.cli, so its trace wraps only the names cli
# imports: its from-imports, and the functions it calls on imported modules.
DEMO_TARGETS = (
    ("cli", "sample_batch", "param_sampler.sample_batch", "batch"),
    ("cli", "encode_config", "scene_config.encode_config", None),
    ("cli", "builtin_mesh", "meshes.builtin_mesh", None),
    ("cli", "render_video", "micro_renderer.render_video", "video"),
    ("cli", "write_ppm", "micro_renderer.write_ppm", "ppm"),
    ("cli", "emit_engine_script", "micro_renderer.emit_engine_script", None),
    ("cli", "generate_trajectory", "camera_rig.generate_trajectory", "trajectory"),
    ("cli", "bounding_sphere", "meshes.bounding_sphere", None),
    ("cli", "uv_sphere", "meshes.uv_sphere", None),
    ("captioner", "caption_for_config", "captioner.caption_for_config", None),
    ("captioner", "real_caption", "captioner.real_caption", None),
    ("dataset_mixer", "load_pool_dir", "dataset_mixer.load_pool_dir", None),
    ("dataset_mixer", "build_manifest", "dataset_mixer.build_manifest", "manifest"),
    ("dataset_mixer", "write_manifest", "dataset_mixer.write_manifest", None),
    ("guidance", "train_transfer_models", "guidance.train_transfer_models", "transfer"),
    ("flowlab", "save_checkpoint", "flowlab.save_checkpoint", None),
    ("guidance", "run_simdrop_experiment", "guidance.run_simdrop_experiment", "simdrop"),
    ("guidance", "write_report", "guidance.write_report", None),
    ("fidelity_metrics", "generate_tracks", "fidelity_metrics.generate_tracks", "tracks"),
    ("fidelity_metrics", "write_tracks", "fidelity_metrics.write_tracks", None),
    ("fidelity_metrics", "recon_metrics", "fidelity_metrics.recon_metrics", "recon"),
)


def _facts(kind: str, args: dict, result) -> dict:
    if kind == "trajectory":
        return {"frames": len(result)}
    if kind == "frame":
        return {"room": args["env"].scene_type.value == "Basic"}
    if kind == "shade":
        return {"triangles": len(args["mesh"].triangles), "facing": int(result[1].sum())}
    if kind == "ppm":
        return {"bytes": os.path.getsize(args["path"])}
    if kind == "train":
        return {"batch": args["cfg"].batch_size, "steps": args["cfg"].steps}
    if kind == "simdrop":
        return {"steps": args["n_steps"]}
    if kind == "tracks":
        return {"frames": len(args["trajectory"])}
    if kind == "recon":
        return {"observations": sum(len(t) for t in args["track_set"].tracks),
                "kept": result.n_points}
    if kind == "batch":
        return {"configs": len(result)}
    if kind == "video":
        return {"frames": len(result), "room": args["cfg"].environment.scene_type.value == "Basic"}
    if kind == "manifest":
        return {"steps": len(result)}
    if kind == "transfer":
        return {"batch": args["batch_size"],
                "steps": args["base_steps"] + args["gen_steps"] + args["ref_steps"]}
    raise ValueError(f"unknown span facts {kind!r}")


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent index or -1, facts]
        self.active = False
        self._stack = []
        self._installed = []

    def install(self, sv, targets) -> None:
        for owner_path, attr, name, kind in targets:
            owner = sv.__dict__[owner_path.split(".")[0]]
            for part in owner_path.split(".")[1:]:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name: str, kind):
        signature = inspect.signature(fn) if kind else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, None])
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            spans[index][1:3] = start, end
            if kind:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[index][4] = _facts(kind, bound.arguments, result)
            return result

        return traced

    def spans_doc(self) -> list[dict]:
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "facts": f}
                for n, s, e, p, f in self.spans]


# ---------------------------------------------------------------------------
# per-layer metrics

PER_LAYER = (
    ("param_sampler.config_us", "us"),
    ("scene_config.roundtrip_us", "us"),
    ("camera_rig.trajectory_us_per_frame", "us"),
    ("meshes.room_box_ms", "ms"),
    ("meshes.room_builds", "count"),
    ("micro_renderer.frame_ms.room", "ms"),
    ("micro_renderer.frame_ms.empty", "ms"),
    ("micro_renderer.shade_us", "us"),
    ("micro_renderer.triangles_in", "count"),
    ("micro_renderer.triangles_facing", "count"),
    ("micro_renderer.ppm_write_ms", "ms"),
    ("micro_renderer.bytes_written", "bytes"),
    ("captioner.caption_us", "us"),
    ("dataset_mixer.manifest_us_per_step", "us"),
    ("flowlab.train_step_us.b64", "us"),
    ("flowlab.train_step_us.b512", "us"),
    ("flowlab.train_steps", "count"),
    ("flowlab.checkpoint_rw_ms", "ms"),
    ("guidance.sample_step_us", "us"),
    ("guidance.velocity_evals_per_step", "count"),
    ("fidelity_metrics.tracks_ms_per_frame", "ms"),
    ("fidelity_metrics.triangulate_us_per_track", "us"),
    ("fidelity_metrics.recon_us_per_obs", "us"),
    ("fidelity_metrics.tracks_kept", "count"),
    ("fidelity_metrics.observations", "count"),
)


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer metrics; a layer the workload never calls reads 0.

    Times are per call or per unit of work, counts are per round.
    """
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def dur(name, where=lambda f: True):
        return sum(s[2] - s[1] for s in by_name.get(name, ()) if where(s[4])) * 1e-9

    def calls(name, where=lambda f: True):
        return sum(1 for s in by_name.get(name, ()) if where(s[4]))

    def total(name, key, where=lambda f: True):
        return sum(s[4][key] for s in by_name.get(name, ()) if where(s[4]))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def room(f):
        return f["room"]

    def empty(f):
        return not f["room"]

    def batch(size):
        return lambda f: f["batch"] == size

    configs = calls("param_sampler.sample_config") + total("param_sampler.sample_batch", "configs")
    encoded = calls("scene_config.encode_config")
    # the demo only renders whole clips, so its frame time is clip time per frame
    frame_room = dur("micro_renderer.render_frame", room) + dur("micro_renderer.render_video", room)
    frames_room = calls("micro_renderer.render_frame", room) + total("micro_renderer.render_video",
                                                                   "frames", room)
    frame_empty = dur("micro_renderer.render_frame", empty) + dur("micro_renderer.render_video",
                                                                  empty)
    frames_empty = calls("micro_renderer.render_frame", empty) + total(
        "micro_renderer.render_video", "frames", empty)
    train_spans = ("flowlab.train", "guidance.train_transfer_models")
    simdrop = [i for i, s in enumerate(spans) if s[0] == "guidance.run_simdrop_experiment"]
    simdrop_set = set(simdrop)
    velocity_in_sampling = sum(1 for s in by_name.get("flowlab.velocity", ())
                               if s[3] in simdrop_set)
    sample_steps = total("guidance.run_simdrop_experiment", "steps")
    observations = total("fidelity_metrics.recon_metrics", "observations")

    values = {
        "param_sampler.config_us": ratio(dur("param_sampler.sample_config")
                                         + dur("param_sampler.sample_batch"), configs, 1e6),
        "scene_config.roundtrip_us": ratio(dur("scene_config.encode_config")
                                           + dur("scene_config.decode_config"), encoded, 1e6),
        "camera_rig.trajectory_us_per_frame": ratio(
            dur("camera_rig.generate_trajectory"),
            total("camera_rig.generate_trajectory", "frames"), 1e6),
        "meshes.room_box_ms": ratio(dur("meshes.room_box"), calls("meshes.room_box"), 1e3),
        "meshes.room_builds": ratio(calls("meshes.room_box"), rounds),
        "micro_renderer.frame_ms.room": ratio(frame_room, frames_room, 1e3),
        "micro_renderer.frame_ms.empty": ratio(frame_empty, frames_empty, 1e3),
        "micro_renderer.shade_us": ratio(dur("micro_renderer.shaded_triangle_colors"),
                                         calls("micro_renderer.shaded_triangle_colors"), 1e6),
        "micro_renderer.triangles_in": ratio(
            total("micro_renderer.shaded_triangle_colors", "triangles"), rounds),
        "micro_renderer.triangles_facing": ratio(
            total("micro_renderer.shaded_triangle_colors", "facing"), rounds),
        "micro_renderer.ppm_write_ms": ratio(dur("micro_renderer.write_ppm"),
                                             calls("micro_renderer.write_ppm"), 1e3),
        "micro_renderer.bytes_written": ratio(total("micro_renderer.write_ppm", "bytes"), rounds),
        "captioner.caption_us": ratio(dur("captioner.caption_for_config"),
                                      calls("captioner.caption_for_config"), 1e6),
        "dataset_mixer.manifest_us_per_step": ratio(
            dur("dataset_mixer.build_manifest"), total("dataset_mixer.build_manifest", "steps"),
            1e6),
        "flowlab.train_step_us.b64": ratio(
            sum(dur(n, batch(64)) for n in train_spans),
            sum(total(n, "steps", batch(64)) for n in train_spans), 1e6),
        "flowlab.train_step_us.b512": ratio(
            sum(dur(n, batch(512)) for n in train_spans),
            sum(total(n, "steps", batch(512)) for n in train_spans), 1e6),
        "flowlab.train_steps": ratio(sum(total(n, "steps") for n in train_spans), rounds),
        "flowlab.checkpoint_rw_ms": ratio(dur("flowlab.save_checkpoint")
                                          + dur("flowlab.load_checkpoint"),
                                          calls("flowlab.save_checkpoint"), 1e3),
        "guidance.sample_step_us": ratio(dur("guidance.run_simdrop_experiment"),
                                         sample_steps, 1e6),
        "guidance.velocity_evals_per_step": ratio(velocity_in_sampling, sample_steps),
        "fidelity_metrics.tracks_ms_per_frame": ratio(
            dur("fidelity_metrics.generate_tracks"),
            total("fidelity_metrics.generate_tracks", "frames"), 1e3),
        "fidelity_metrics.triangulate_us_per_track": ratio(
            dur("fidelity_metrics.triangulate"), calls("fidelity_metrics.triangulate"), 1e6),
        "fidelity_metrics.recon_us_per_obs": ratio(dur("fidelity_metrics.recon_metrics"),
                                                   observations, 1e6),
        "fidelity_metrics.tracks_kept": ratio(total("fidelity_metrics.recon_metrics", "kept"),
                                              rounds),
        "fidelity_metrics.observations": ratio(observations, rounds),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
