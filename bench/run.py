"""synthvid benchmark: one workload per run, timed end to end or traced per layer.

Usage, from the repository root:

    python3 -B bench/run.py --workload room-clips --seed 1 --seconds 15 --trace 0

Workloads: demo, room-clips, toy-flow, recon (see bench/README.md).  The run
imports synthvid from ./src, builds its inputs from --seed, sets up
several times (import compiled from source plus input preparation) and
reports the median, then runs whole rounds until --seconds of round time
have passed, checking every round's outputs.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).  Outputs go
to a fresh directory under .bench_out/ that is removed at the end; the
span trace of a traced run is kept in .bench_out/traces/.
"""

import os

# Fixed before numpy loads BLAS: one thread, so a run's timing does not
# depend on whether the second core is free.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_ROUNDS = 3   # so the steady part (rounds after the first) has two rounds
MODULES = ("camera_rig", "captioner", "cli", "dataset_mixer", "fidelity_metrics", "flowlab",
           "guidance", "meshes", "micro_renderer", "param_sampler", "scene_config", "seeding")


def machine() -> str:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        pass
    return (f"machine: cores={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas} blas_threads={BLAS_THREADS} "
            f"bytecode=compiled-from-source")


def import_synthvid(src: Path) -> types.SimpleNamespace:
    """Import synthvid afresh, compiled from source (no bytecode cache is read or written)."""
    for name in [n for n in sys.modules if n == "synthvid" or n.startswith("synthvid.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("synthvid")
    if Path(package.__file__).resolve().parent != src / "synthvid":
        raise ImportError(f"synthvid imported from {package.__file__}, not from {src}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"synthvid.{m}") for m in MODULES})


def run_workload(workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    src = ROOT / "src"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sv = import_synthvid(src)
        inputs = workload.prepare(sv, seed, 0)
        setup_times.append(time.perf_counter() - t0)

    tracer = tracing.Tracer()
    if trace:
        tracer.install(sv, tracing.DEMO_TARGETS if workload.name == "demo"
                       else tracing.LAYER_TARGETS)
    check_rng = np.random.Generator(np.random.PCG64(seed))
    durations, ops, op_seconds = [], [], []
    attempted = failed = 0
    correct = True
    r = 0
    while sum(durations) < seconds or r < MIN_ROUNDS:
        tracer.active = trace
        if r > 0:
            inputs = workload.prepare(sv, seed, r)
        out = run_dir / f"round_{r:04d}"
        out.mkdir()
        t0 = time.perf_counter()
        result = workload.run(sv, inputs, out)
        durations.append(time.perf_counter() - t0)
        tracer.active = False
        ops.append(result.ops)
        op_seconds.append(result.op_seconds)
        for op in workload.check(sv, inputs, result, out, check_rng):
            attempted += 1
            if op.error is not None:
                failed += 1
                correct = correct and op.known_fault
                if not op.known_fault or r == 0:
                    kind = "known fault" if op.known_fault else "FAILED"
                    print(f"round {r} {op.name}: {kind}: {op.error}", file=sys.stderr)
        shutil.rmtree(out)
        r += 1

    wall_s = statistics.fmean(durations)
    # the steady part: every round after the first, which pays for warm-up
    ops_per_s = sum(ops[1:]) / sum(op_seconds[1:])
    print(f"{workload.name}: seed={seed} rounds={r} round_s={[round(d, 3) for d in durations]} "
          f"wall_s={wall_s:.4f} ops_per_s={ops_per_s:.2f} "
          f"({workload.op_unit}) traced={int(trace)}")
    if trace:
        tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.spans, r)
        traces = ROOT / ".bench_out" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{workload.name}-seed{seed}.json").write_text(json.dumps(
            {"workload": workload.name, "seed": seed, "rounds": r, "wall_s": wall_s,
             "spans": tracer.spans_doc()}) + "\n")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "synthvid" / "__init__.py").is_file():
        print(f"error: no synthvid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    # synthvid compiles from source on every import: no cache is written,
    # and the empty prefix directory hides any cache a test run left behind
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(run_dir / "no-pycache")
    sys.path.insert(0, str(ROOT / "src"))
    print(machine())
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
