"""One workload in a fresh interpreter: set up, run passes, check outputs.

Usage (started by run.py, one process per workload):

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Prints one JSON object on its last stdout line.  With ``--setup-only`` it
builds the inputs and reports when they were ready, nothing else.  With
TRACE 1 the first half of the time runs plain passes and the second half
runs passes with the layer spans installed.  A pass is started only while
it is expected to end within the time given (at least two plain passes,
or one of each kind with TRACE 1).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _record(rec):
    return {k: v for k, v in rec.items() if not k.startswith("_")}


# Host speed on a shared machine drifts by tens of percent over seconds to
# minutes.  Each pass therefore also times a fixed pure-Python loop around
# every long task and at least every CAL_EVERY_S between queries, outside
# the timed tasks.  A task's time is divided by its speed factor: the
# median loop time within CAL_WINDOW_S of the task over CAL_REFERENCE_S,
# which gives seconds at the host speed where the loop takes
# CAL_REFERENCE_S.
CAL_LOOP = 100_000
CAL_REFERENCE_S = 0.008
CAL_EVERY_S = 0.2
CAL_WINDOW_S = 0.5


def calibration_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_pass(wl, tracer=None):
    """Run every task once.

    Returns (outputs, raw seconds per task, speed factor per task).  Each
    pass starts from a collected heap, so the garbage of one pass does not
    decide when the collector runs in the next.
    """
    gc.collect()
    clock = time.perf_counter
    samples, spans, outputs, times = [], [], [], []

    def sample():
        samples.append((clock(), calibration_loop()))

    sample()
    for task in wl.tasks:
        if not task.query or clock() - samples[-1][0] >= CAL_EVERY_S:
            sample()
        if tracer is not None:
            tracer.task = task.name
        t0 = clock()
        try:
            out = task.run()
        except Exception:
            out = traceback.format_exc(limit=3)
        t1 = clock()
        spans.append((t0, t1))
        times.append(t1 - t0)
        outputs.append(out)
        if not task.query:
            sample()
    sample()
    factors = [statistics.median(c for t, c in samples
                                 if t0 - CAL_WINDOW_S <= t <= t1 + CAL_WINDOW_S)
               / CAL_REFERENCE_S for t0, t1 in spans]
    return outputs, times, factors


def check_pass(wl, outputs, goldens, seed):
    """Failure reasons, one per failed task."""
    failures = []
    for task, out in zip(wl.tasks, outputs):
        if isinstance(out, str):
            failures.append(f"{task.name}: raised {out.strip().splitlines()[-1]}")
            continue
        try:
            reason = task.check(out) if task.check else None
        except Exception as ex:      # malformed output
            reason = f"check raised {ex!r}"
        if reason is None and (seed == 0 or task.anchored):
            want = goldens.get(task.name)
            if want is None:
                reason = "no golden record"
            elif want != _record(out):
                reason = "output differs from the golden record"
        if reason is not None:
            failures.append(f"{task.name}: {reason}")
    return failures


def main(argv):
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy
    import workloads

    workdir = ROOT / ".bench_build" / "perfbench" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](seed, workdir)
        ready = time.monotonic()
        speed = statistics.median(calibration_loop()
                                  for _ in range(5)) / CAL_REFERENCE_S
        if setup_only:
            print(json.dumps({"ready": ready, "speed_factor": speed}))
            return 0
        result = measure(wl, seed, seconds, trace, workloads.load_goldens())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(ready=ready, speed_factor=speed, numpy=numpy.__version__,
                  python=sys.version.split()[0],
                  rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(result))
    return 0


def measure(wl, seed, seconds, trace, goldens):
    if wl.warm is not None:
        wl.warm()
    goldens = goldens.get(wl.name, {})
    # the harness's own long-lived objects (tasks, goldens) stay out of the
    # collector's generations, as they would be absent from a user's run
    gc.collect()
    gc.freeze()
    plain, raw, factors, latencies, failures = [], [], [], [], []
    traced = []
    task_times = {t.name: [] for t in wl.tasks if not t.query}
    task_times["queries"] = []
    layers, per_task, fired, missing = [], {}, set(), set()
    attempted = 0
    start = time.perf_counter()
    plain_until = seconds / 2 if trace else seconds
    elapsed = []          # whole pass: tasks, calibration and checks
    while _another(elapsed, start, plain_until, 1 if trace else 2):
        t0 = time.perf_counter()
        outputs, times, speed = run_pass(wl)
        raw.append(sum(times))
        plain.append(sum(t / f for t, f in zip(times, speed)))
        factors.append(raw[-1] / plain[-1])
        latencies += [t / f for task, t, f in zip(wl.tasks, times, speed)
                      if task.query]
        for task, t in zip(wl.tasks, times):
            if not task.query:
                task_times[task.name].append(t)
        task_times["queries"].append(sum(t for task, t in zip(wl.tasks, times)
                                         if task.query))
        attempted += len(outputs)
        failures += check_pass(wl, outputs, goldens, seed)
        elapsed.append(time.perf_counter() - t0)
    if trace:
        import spans
        elapsed = []
        while _another(elapsed, start, seconds, 1):
            t0 = time.perf_counter()
            tr = spans.Tracer()
            tr.install()
            try:
                outputs, times, speed = run_pass(wl, tr)
            finally:
                tr.restore()
            traced.append(sum(t / f for t, f in zip(times, speed)))
            attempted += len(outputs)
            failures += check_pass(wl, outputs, goldens, seed)
            layers.append({k: v for k, (v, _) in spans.layer_metrics(tr).items()})
            elapsed.append(time.perf_counter() - t0)
            fired |= spans.fired(tr)
            missing |= set(tr.missing)
        last = spans.layer_metrics(tr)
        bases = {k: b for k, (_, b) in last.items()}
        for task in wl.tasks:
            if not task.query:
                per_task[task.name] = {
                    k: v for k, (v, _) in spans.layer_metrics(tr, task.name).items()
                    if v}
        per_task["queries"] = _query_share(tr, wl)
    result = {"passes": plain, "raw_passes": raw, "speed_factors": factors,
              "traced_passes": traced, "tasks": task_times,
              "latencies": latencies, "attempted": attempted,
              "failed": len(failures), "failures": failures[:20]}
    if trace:
        result["layers"] = {k: statistics.median_low(p[k] for p in layers)
                            for k in layers[0]}
        result["bases"] = bases
        result["per_task"] = per_task
        result["unfired"] = sorted(set(wl.spans) - fired)
        result["missing"] = sorted(missing)
    return result


def _another(passes, start, until, at_least=2):
    """Start a pass while fewer than ``at_least`` have run, or when one more
    pass of the median length so far should end within the time given."""
    if len(passes) < at_least:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(passes) <= until


def _query_share(tr, wl):
    """Self seconds per span summed over the query tasks of the last pass."""
    queries = {t.name for t in wl.tasks if t.query}
    out = {}
    for (task, span), rec in tr.spans.items():
        if task in queries:
            out[span] = out.get(span, 0.0) + rec[2]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
