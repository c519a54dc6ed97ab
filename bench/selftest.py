"""Self-test of the benchmark's output checks: each must reject a corrupted output.

Usage, from the repository root:

    python3 -B bench/selftest.py

Every case builds a real output with synthvid, confirms that the check
accepts it, corrupts it (a changed pixel, a flipped checkpoint byte, a
shifted observation, ...) and confirms that the check now raises
``CheckFailure``.  Exits 1 if any check accepts a corrupted output.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import copy  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from oracles import CheckFailure  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True

from run import import_synthvid  # noqa: E402


class Cases:
    def __init__(self):
        self.failures = 0

    def expect(self, name: str, check, corrupt) -> None:
        """``check()`` must pass; after ``corrupt()`` it must raise CheckFailure."""
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report any rejection of a clean output
            self.failures += 1
            print(f"FAIL {name}: clean output rejected: {type(exc).__name__}: {exc}")
            return
        corrupt()
        try:
            check()
        except CheckFailure as exc:
            print(f"ok   {name}: rejected ({exc})")
            return
        except Exception as exc:  # noqa: BLE001
            self.failures += 1
            print(f"FAIL {name}: raised {type(exc).__name__} instead of a check failure: {exc}")
            return
        self.failures += 1
        print(f"FAIL {name}: corrupted output accepted")


def frame_cases(cases, sv, work: Path) -> None:
    room = wl.RoomClips()
    text = room.prepare(sv, seed=0, r=0)["config_texts"][1]        # the sphere clip
    cfg = sv.scene_config.decode_config(text)
    clip = work / "clip"

    def render():
        shutil.rmtree(clip, ignore_errors=True)
        clip.mkdir()
        mesh = sv.meshes.builtin_mesh(cfg.object_ref)
        for i, frame in enumerate(sv.micro_renderer.render_video(cfg, mesh)):
            sv.micro_renderer.write_ppm(frame, clip / f"frame_{i:05d}.ppm")

    def check_clip():
        wl.check_clip(sv, cfg, clip, np.random.Generator(np.random.PCG64(5)), 8)

    def edit_pixel(path, row, col, rgb):
        data = bytearray(path.read_bytes())
        offset = len(data) - cfg.render.width * cfg.render.height * 3
        start = offset + (row * cfg.render.width + col) * 3
        data[start:start + 3] = bytes(rgb)
        path.write_bytes(bytes(data))

    first = clip / "frame_00000.ppm"
    render()
    cases.expect("frame: pixel outside the scene's palette", check_clip,
                 lambda: edit_pixel(first, 60, 80, (1, 254, 3)))
    render()
    cases.expect("frame: pixel at the fill colour with the camera inside the room",
                 check_clip, lambda: edit_pixel(first, 0, 0, oracles.BACKGROUND_FILL))

    # a sampled pixel given the colour of another surface of the same scene
    render()
    mesh = sv.meshes.builtin_mesh(cfg.object_ref)
    center, radius = sv.meshes.bounding_sphere(mesh)
    camera = sv.camera_rig.generate_trajectory(cfg, center, radius).frames[0]
    room_mesh = sv.meshes.room_box(cfg.environment.scene_color,
                                   sv.micro_renderer.ROOM_HALF_EXTENT)
    oracle = oracles.FrameOracle(*wl.scene_for_frame(cfg, mesh, room_mesh, center, 0), camera,
                                 cfg.lighting, (0, 0, 0), cfg.render.width, cfg.render.height)
    pixels = oracles.parse_p6(first.read_bytes(), cfg.render.width, cfg.render.height).copy()
    sample = np.random.Generator(np.random.PCG64(9))
    cols = sample.integers(0, cfg.render.width, 8)
    rows = sample.integers(0, cfg.render.height, 8)
    want, clear = oracle.expected(cols + 0.5, rows + 0.5)
    i = int(np.nonzero(clear)[0][0])
    other = next(c for c in oracle.colors if np.abs(c - want[i]).max() > 1)

    def check_sampled():
        oracles.check_frame(pixels, oracle, False, np.random.Generator(np.random.PCG64(9)), 8,
                            no_fill=True)

    def swap_surface():
        pixels[rows[i], cols[i]] = other

    cases.expect("frame: sampled pixel shows another surface", check_sampled, swap_surface)

    render()
    cases.expect("frame: truncated P6", check_clip,
                 lambda: first.write_bytes(first.read_bytes()[:-3]))
    render()
    cases.expect("frame: missing frame", check_clip, lambda: first.unlink())


def flow_cases(cases, sv, work: Path) -> None:
    fl = sv.flowlab
    toy = wl.ToyFlow()
    inputs = toy.prepare(sv, seed=0, r=0)
    run = toy.run(sv, inputs, work)
    out = run.outputs

    loss = out["losses"]["gen"].copy()
    cases.expect("toy-flow: loss that rises", lambda: wl.check_loss("gen", loss),
                 lambda: loss.__setitem__(slice(None), loss[::-1].copy()))
    loss_nan = out["losses"]["ref"].copy()
    cases.expect("toy-flow: non-finite loss", lambda: wl.check_loss("ref", loss_nan),
                 lambda: loss_nan.__setitem__(7, np.nan))

    path = out["paths"]["gen"]

    def check_ckpt():
        loaded, _ = fl.load_checkpoint(path)
        wl.check_checkpoint(sv, out["models"]["gen"], loaded, path, work / "resaved.ckpt")

    def flip_byte():
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x01
        path.write_bytes(bytes(data))

    cases.expect("toy-flow: flipped checkpoint byte", check_ckpt, flip_byte)

    reports = list(out["reports"])

    def check_cfg():
        wl.check_alpha0_is_cfg(sv, reports[0], out["loaded"]["gen"], toy.N_SAMPLES,
                               inputs["sample"], toy.SAMPLE_STEPS)

    def nudge_report():
        r = reports[0]
        reports[0] = dataclasses.replace(r, artifact_mean=float(np.nextafter(r.artifact_mean,
                                                                             np.inf)))

    cases.expect("toy-flow: alpha=0 report one ulp off CFG", check_cfg, nudge_report)
    sweep = list(out["reports"])
    cases.expect("toy-flow: artifact mean rising with alpha", lambda: wl.check_alpha_sweep(sweep),
                 lambda: sweep.reverse())


def recon_cases(cases, sv, work: Path) -> None:
    fm = sv.fidelity_metrics
    recon = wl.Recon()
    scenes = recon.prepare(sv, seed=0, r=0)["scenes"]
    run = recon.run(sv, {"scenes": scenes}, work)
    (mesh, tracks, metrics, reread) = run.outputs["results"][0]       # sphere, zero noise
    state = {"tracks": tracks, "reread": reread, "metrics": metrics}

    def check():
        wl.check_track_set(sv, mesh, state["tracks"], state["metrics"], state["reread"], 0.0,
                           rng=np.random.Generator(np.random.PCG64(3)))

    def shift_observation():
        t = state["tracks"].tracks[3]
        pixels = t.pixels.copy()
        pixels[1, 0] += 0.5
        moved = dataclasses.replace(t, pixels=pixels)
        state["tracks"] = dataclasses.replace(
            state["tracks"], tracks=state["tracks"].tracks[:3] + (moved,)
            + state["tracks"].tracks[4:])
        state["reread"] = fm.tracks_from_json(fm.tracks_to_json(state["tracks"]))
        state["metrics"] = fm.recon_metrics(state["tracks"])

    cases.expect("recon: observation shifted by 0.5 px", check, shift_observation)

    state.update(tracks=tracks, reread=copy.deepcopy(reread), metrics=metrics)

    def corrupt_json():
        text = fm.tracks_to_json(tracks)
        doc = json.loads(text)
        doc["tracks"][0]["observations"][0][1] += 1e-6
        state["reread"] = fm.tracks_from_json(json.dumps(doc))

    cases.expect("recon: track JSON that does not round-trip", check, corrupt_json)

    (mesh_n, tracks_n, metrics_n, reread_n) = run.outputs["results"][1]   # sphere, noisy
    noisy = {"metrics": metrics_n}

    def check_noisy():
        wl.check_track_set(sv, mesh_n, tracks_n, noisy["metrics"], reread_n, recon.SIGMA_PX,
                           rng=np.random.Generator(np.random.PCG64(3)))

    cases.expect("recon: error twice the noise band", check_noisy,
                 lambda: noisy.update(metrics=dataclasses.replace(
                     metrics_n, reproj_error=2.0 * metrics_n.reproj_error)))

    (mesh_t, tracks_t, metrics_t, reread_t) = run.outputs["results"][6]   # torus, zero noise
    try:
        wl.check_track_set(sv, mesh_t, tracks_t, metrics_t, reread_t, 0.0,
                           rng=np.random.Generator(np.random.PCG64(3)), occlusion_is_known=True)
        cases.failures += 1
        print("FAIL recon: torus occlusion not found")
    except wl.KnownFault as exc:
        print(f"ok   recon: torus orbit reports the known fault ({exc})")


def manifest_cases(cases, work: Path) -> None:
    (work / "videos" / "clip_000").mkdir(parents=True)
    lines = [json.dumps({"uri": "videos/clip_000" if i % 2 else "real/clip_000",
                         "source": "Synthetic" if i % 2 else "Real"}) for i in range(1000)]
    text = {"manifest": "\n".join(lines)}

    def all_synthetic():
        text["manifest"] = "\n".join(line.replace('"Real"', '"Synthetic"')
                                     .replace("real/", "videos/") for line in lines)

    cases.expect("demo: manifest that is all synthetic",
                 lambda: wl.check_manifest(work, text["manifest"], wl.Demo.BINOMIAL_SIGMAS),
                 all_synthetic)


def main() -> int:
    sv = import_synthvid(ROOT / "src")
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    cases = Cases()
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=out_root))
    try:
        for name, fn in (("frames", frame_cases), ("flow", flow_cases),
                         ("recon", recon_cases)):
            sub = work / name
            sub.mkdir()
            fn(cases, sv, sub)
        manifest_cases(cases, work / "manifest")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{cases.failures} check(s) failed the self-test")
    return 1 if cases.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
