"""regg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (lawsweep, kesten-mckay or resample; `all` runs each in
turn) from the root of a source checkout, importing regg from ./src.  The
workload runs in WORKERS fresh processes one after another, each given
S / WORKERS seconds of closed-loop operations after its own set-up.  One
caller issues one operation at a time; BLAS keeps its default threads.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
from traced operations, with the tracing overhead.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  A run record with the
environment goes to .perfbench_out/.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKERS = 3
DEADLINE_S = 170          # per workload
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    pass


def environment() -> dict:
    """What a reader needs to recognise a disturbed or different machine."""
    env = {"git_sha": None, "src_sha256": _tree_sha256(ROOT / "src"),
           "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "threads_env": {k: v for k, v in sorted(os.environ.items())
                           if k.endswith("_NUM_THREADS")}}
    if (ROOT / ".git").exists():
        try:
            env["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def _tree_sha256(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*.py") if p.is_file()):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 corrupt: bool, deadline: float) -> dict:
    """Run the workload's worker processes one after another."""
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "workers": WORKERS, "env": environment(),
              "loadavg_before": os.getloadavg(), "processes": []}
    for w in range(WORKERS):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
               "--seed", str(seed), "--worker", str(w),
               "--budget", repr(seconds / WORKERS), "--trace", str(trace)]
        if corrupt:
            cmd.append("--corrupt-expectation")
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(time.monotonic())], cwd=ROOT,
                stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name} worker {w} passed the deadline") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{name} worker {w} exited {proc.returncode}")
        record["processes"].append(json.loads(lines[-1]))
    record["loadavg_after"] = os.getloadavg()
    return record


def summarise(record: dict) -> dict:
    """Fold the worker results into the reported metrics."""
    procs = record["processes"]
    ops = [op for p in procs for op in p["ops"]]
    plain = [op for op in ops if op["trace"] is None]
    traced = [op for op in ops if op["trace"] == "time"]
    failed = sum(1 for op in ops if op["failures"])
    out = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
           "untraced_ops": len(plain), "traced_ops": len(traced)}
    if not record["trace"]:
        values = {
            "wall_s": statistics.median(op["wall_s"] for op in plain),
            "cpu_s": statistics.median(op["cpu_s"] for op in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in procs),
            "setup_s": statistics.median(p["setup_s"] for p in procs),
        }
        out["metrics"] = {k: {"value": v, "unit": END_TO_END[k]}
                          for k, v in values.items()}
        out["absent"] = []
        return out
    by_kind = {"time": [], "memory": []}
    for p in procs:
        for op in p["layers"]:
            by_kind[op["trace"]].append(op["layers"])
    metrics, absent = {}, []
    for metric, (span, stat, unit) in LAYER_METRICS.items():
        per_op = by_kind["memory" if stat == "peak_mb" else "time"]
        seen = [layers[span] for layers in per_op if span in layers]
        if not seen:
            absent.append(metric)
            value = 0
        elif stat == "switched_frac":
            out["pivot_edges"] = sum(r["pivot_edges"] for r in seen)
            value = sum(r["switched"] for r in seen) / out["pivot_edges"]
        else:
            value = statistics.median(layers.get(span, {}).get(stat, 0)
                                      for layers in per_op)
        metrics[metric] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": (statistics.median(op["wall_s"] for op in traced)
                  - statistics.median(op["wall_s"] for op in plain)),
        "unit": "s"}
    out["metrics"], out["absent"] = metrics, absent
    return out


def report(record: dict, summary: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    name, procs, env = record["workload"], record["processes"], record["env"]
    penv = procs[0]["env"]
    print(f"workload {name}: seed {record['seed']}, {record['seconds']} s, "
          f"trace {record['trace']}, {len(procs)} processes, "
          f"load {record['loadavg_before'][0]:.2f} -> {record['loadavg_after'][0]:.2f}")
    print(f"  python {penv['python']}, numpy {penv['numpy']}, scipy {penv['scipy']}, "
          f"{penv['blas']['name']} {penv['blas']['version']} with "
          f"{penv['blas']['threads']} threads, nproc {env['nproc']}, "
          f"*_NUM_THREADS {env['threads_env'] or 'unset'}, "
          f"git {env['git_sha'] or 'none'}, src sha256 {env['src_sha256'][:12]}")
    base = (f"median of {summary['untraced_ops']} untraced operations"
            if not record["trace"] else
            f"median of {summary['traced_ops']} traced operations")
    for metric, m in summary["metrics"].items():
        if metric in ("peak_rss_mb", "setup_s"):
            note = f"median of {len(procs)} processes"
        elif metric in summary["absent"]:
            note = "absent: the workload never calls this layer"
        elif metric.endswith(".peak_mb"):
            note = "from the operation traced under tracemalloc"
        elif metric.endswith("switched_frac"):
            note = f"of {summary['pivot_edges']} pivot edges"
        else:
            note = base
        print(f"  {name:13s} {metric:38s} {m['value']:14.6g} {m['unit']:6s} {note}")
    frac = summary["failed"] / summary["attempted"]
    print(f"  {name:13s} {'failed_frac':38s} {frac:14.6g} {'ratio':6s} "
          f"{summary['failed']} of {summary['attempted']} operations failed a check")


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-expectation", action="store_true",
                   help="negative control: alter one stored expectation per "
                        "workload, so every operation must fail its checks")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 10 ** 12 or args.seconds <= 0:
        print("error: need 0 <= seed < 1e12 and seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "regg" / "__init__.py").is_file():
        print(f"error: no regg sources under {ROOT / 'src'}; run from a source "
              f"checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace,
                                  args.corrupt_expectation,
                                  time.monotonic() + DEADLINE_S)
            summary = summarise(record)
            record["summary"] = summary
            path = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            report(record, summary)
            results[name] = summary
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, s in results.items()
                   for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in results.values()),
        "attempted": sum(s["attempted"] for s in results.values()),
        "failed": sum(s["failed"] for s in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
