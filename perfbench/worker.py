"""One fresh process: set up one workload, then run its operations in a
closed loop (one at a time, the next only after the previous returns)
until the time budget is spent.

Started by run.py; prints one JSON line for it as its last line of
standard output.  With --trace 1 the operations alternate untraced and
traced, so the process measures its own tracing overhead; the first
process then adds one operation traced under tracemalloc for peaks.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WARM_UP_OP = 999


def op_seed(seed: int, worker: int, op: int) -> int:
    """The --seed of one operation: distinct per (workload seed, worker,
    operation), and the same on every run with the same workload seed."""
    return seed * 1_000_000 + worker * 1_000 + op


def _import_regg():
    sys.path.insert(0, str(ROOT / "src"))
    import regg
    import regg.cli
    import regg.graphs
    import regg.invariance
    import regg.law
    import regg.switchings
    if not Path(regg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"regg imported from {regg.__file__}, not {ROOT / 'src'}")
    return regg


def blas_record(numpy) -> dict:
    """BLAS build config and the thread count OpenBLAS actually uses."""
    cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": cfg.get("name"), "version": cfg.get("version"),
            "config": cfg.get("openblas configuration"), "libraries": libs,
            "threads": threads}


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--worker", type=int, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() in the parent just before the spawn")
    p.add_argument("--corrupt-expectation", action="store_true")
    args = p.parse_args(argv)

    regg = _import_regg()
    import numpy
    import scipy

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](regg, str(workdir),
                                            args.corrupt_expectation)
        workload.warm_up(op_seed(args.seed, args.worker, WARM_UP_OP))
        setup_s = time.monotonic() - args.spawned_at

        recorder = tracing.Recorder()
        ops = []
        start = time.perf_counter()
        while (len(ops) < 1 + args.trace
               or time.perf_counter() - start < args.budget):
            i = len(ops)
            trace = "time" if args.trace and i % 2 else None
            ops.append(_run_op(workload, recorder, trace, regg,
                               op_seed(args.seed, args.worker, i), i))
        if args.trace and args.worker == 0:
            # One operation under tracemalloc, for the per-layer peaks only.
            i = len(ops)
            ops.append(_run_op(workload, recorder, "memory", regg,
                               op_seed(args.seed, args.worker, i), i))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"setup_s": setup_s, "ops": ops,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                      "scipy": scipy.__version__, "blas": blas_record(numpy)}}
    if args.trace:
        result["layers"] = _layers(recorder, ops)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-w{args.worker}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([vars(s) for s in recorder.spans], fh)
    print(json.dumps(result))
    return 0


def _run_op(workload, recorder, trace, regg, seed: int, index: int) -> dict:
    """Time one operation, then check its outputs outside the timing.
    `trace` is None (untraced), "time" (spans) or "memory" (spans and
    tracemalloc peaks)."""
    failures = []
    with contextlib.ExitStack() as scope:
        if trace is not None:
            scope.enter_context(tracing.installed(recorder, regg))
            scope.enter_context(recorder.operation(index, trace == "memory"))
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            out = workload.run(seed)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc()
            out = None
            failures.append("operation raised")
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    if out is not None:
        try:
            failures += workload.check(out)
        except Exception:  # a malformed output fails its check, not the run
            traceback.print_exc()
            failures.append("check raised")
    for msg in failures:
        print(f"check failed ({workload.name} op {index}): {msg}", file=sys.stderr)
    return {"op": index, "seed": seed, "trace": trace,
            "wall_s": wall, "cpu_s": cpu, "failures": failures}


def _layers(recorder, ops) -> list[dict]:
    """Per traced operation, the per-layer aggregates; also checks that the
    self times of its spans sum to no more than its wall time."""
    own = tracing.self_times(recorder.spans)
    out = []
    for op in ops:
        if op["trace"] is None:
            continue
        total = sum(t for s, t in zip(recorder.spans, own) if s.op == op["op"])
        if total > op["wall_s"] + 1e-9:
            msg = f"span self times sum to {total} s, above the wall {op['wall_s']} s"
            print(f"check failed (op {op['op']}): {msg}", file=sys.stderr)
            op["failures"].append(msg)
        out.append({"trace": op["trace"],
                    "layers": tracing.op_layers(recorder.spans, own, op["op"])})
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
