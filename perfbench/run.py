"""Benchmark for symdyn: four workloads, end-to-end and per layer.

    python3 perfbench/run.py [--workload escape|erasure|zone|exact|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh interpreter (perfbench/worker.py), one at a
time, with numpy and BLAS held to one thread.  Set-up time is measured
from process launch to inputs ready, in several fresh interpreters, and
reported as the median.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See
perfbench/WORKLOADS.md for what each workload measures and why.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
WORKLOADS = ("escape", "erasure", "zone", "exact")
SETUP_RUNS = 3              # extra set-up-only interpreters per workload
CHILD_TIMEOUT = 160         # seconds; a run must end within 180
ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    pass


def spawn(args, timeout):
    """Run one worker; returns (launch time, parsed last stdout line)."""
    env = dict(os.environ, **ONE_THREAD, PYTHONHASHSEED="0")
    launched = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} exceeded {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return launched, json.loads(lines[-1])


def high_percentile(samples):
    """(p, value) for the highest whole percentile with at least ten
    samples beyond it, or None when there are fewer than 20 samples."""
    n = len(samples)
    if n < 20:
        return None
    p = min(99, math.floor(100 * (1 - 10 / n)))
    return p, statistics.quantiles(samples, n=100)[p - 1]


def run_workload(name, seed, seconds, trace):
    args = [name, str(seed), str(seconds), "1" if trace else "0"]
    setups, raw_setups = [], []
    for _ in range(0 if trace else SETUP_RUNS):
        launched, doc = spawn(args + ["--setup-only"], 60)
        raw_setups.append(doc["ready"] - launched)
        setups.append(raw_setups[-1] / doc["speed_factor"])
    load_before = os.getloadavg()[0]
    launched, res = spawn(args, CHILD_TIMEOUT)
    load_after = os.getloadavg()[0]
    raw_setups.append(res["ready"] - launched)
    setups.append(raw_setups[-1] / res["speed_factor"])
    res.update(setups=setups, raw_setups=raw_setups, load_before=load_before,
               load_after=load_after)
    return res


def end_to_end(res):
    """Metric name -> (value, unit, detail)."""
    passes, lat = res["passes"], res["latencies"]
    hp = high_percentile(passes)
    wall_detail = (f"median of {len(passes)} passes; "
                   + (f"p{hp[0]} {hp[1]:.4f} s" if hp else
                      "no percentile above the median has 10 samples beyond it")
                   + f"; raw {statistics.median(res['raw_passes']):.4f} s at "
                     f"host speed factor {statistics.median(res['speed_factors']):.3f}")
    q = statistics.quantiles(lat, n=100)
    qp = high_percentile(lat)
    q_detail = f"{len(lat)} queries, closed loop, one client" + (
        f"; highest percentile with 10 beyond: p{qp[0]}" if qp else "")
    attempted, failed = res["attempted"], res["failed"]
    return {
        "wall_s": (statistics.median(passes), "s", wall_detail),
        "setup_s": (statistics.median(res["setups"]), "s",
                    f"median of {len(res['setups'])} fresh interpreters; raw "
                    f"{statistics.median(res['raw_setups']):.4f} s"),
        "peak_rss_mib": (res["rss_kib"] / 1024, "MiB", "workload process"),
        "query_p50_ms": (q[49] * 1e3, "ms", q_detail),
        "query_p99_ms": (q[98] * 1e3, "ms", q_detail),
        "failed_ratio": (failed / attempted, "ratio",
                         f"{failed} failed of {attempted} tasks and queries"),
    }


LAYER_UNITS = {"calls": "count", "symbols": "count", "windows": "count",
               "steps": "count", "us_per_call": "us", "us_per_window": "us",
               "us_per_step": "us", "ms_per_call": "ms"}


def layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    if last in LAYER_UNITS:
        return LAYER_UNITS[last]
    return "ratio" if last.endswith("ratio") else "s"


def per_layer(res):
    m = {k: (v, layer_unit(k), res["bases"][k]) for k, v in res["layers"].items()}
    plain = statistics.median(res["passes"])
    traced = statistics.median(res["traced_passes"])
    m["trace.overhead_ratio"] = (
        traced / plain - 1, "ratio",
        f"traced pass {traced:.4f} s / plain pass {plain:.4f} s - 1")
    return m


def loc_of_package():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "symdyn").glob("*.py")))


def commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def save_trace(name, seed, res):
    """Keep the traced run's layer figures and per-task breakdown."""
    out = ROOT / ".bench_build" / "perfbench" / f"trace-{name}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({k: res[k] for k in (
        "layers", "bases", "per_task", "unfired", "missing", "passes",
        "traced_passes")}, indent=1))
    return out


def report(name, res, trace):
    print(f"[{name}] load average (1 min) {res['load_before']:.2f} before, "
          f"{res['load_after']:.2f} after")
    for task, times in res["tasks"].items():
        print(f"[{name}] task {task}: median {statistics.median(times):.4f} s raw "
              f"over {len(times)} plain passes")
    for f in res["failures"]:
        print(f"[{name}] FAILED {f}")
    if trace:
        print(f"[{name}] {len(res['passes'])} plain and "
              f"{len(res['traced_passes'])} traced passes; layer times are raw "
              f"seconds per traced pass")
        for task, vals in res["per_task"].items():
            shown = ", ".join(f"{k}={v:.6g}" for k, v in list(vals.items())[:12])
            print(f"[{name}] task {task}: {shown}")
        for span in res["missing"]:
            print(f"[{name}] span target missing from symdyn: {span}")
        for span in res["unfired"]:
            print(f"[{name}] declared span never fired: {span}")
    metrics = per_layer(res) if trace else end_to_end(res)
    for k, (v, unit, detail) in metrics.items():
        print(f"[{name}] {k} = {v:.6g} {unit} ({detail})")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "symdyn" / "__init__.py").is_file():
        print("error: symdyn sources not found under src/", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    print("env " + json.dumps({
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "loc_src_symdyn": loc_of_package(),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workloads": list(names)}))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, trace)
    except BenchError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    first = next(iter(results.values()))
    print("env " + json.dumps({"numpy": first["numpy"],
                               "python_worker": first["python"]}))
    out, attempted, failed, correct = {}, 0, 0, True
    for name, res in results.items():
        metrics = report(name, res, trace)
        if trace:
            print(f"[{name}] trace written to "
                  f"{save_trace(name, args.seed, res).relative_to(ROOT)}")
        attempted += res["attempted"]
        failed += res["failed"]
        if trace and (res["unfired"] or res["missing"]):
            correct = False
        if not trace:
            metrics.pop("failed_ratio")   # carried by attempted and failed
        prefix = "" if len(results) == 1 else f"{name}."
        out.update({prefix + k: {"value": v, "unit": unit}
                    for k, (v, unit, _) in metrics.items()})
    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
