"""The clab benchmark: a closed loop with one client and no worker threads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout; it imports `clab` from `src/` and
nothing else.  Each request calls the user-facing entry point
`clab.cli.run(RunConfig(..., format="json"))` and every reply is checked.

`--seconds` sets how long a run measures: whole rounds of requests are
served until that much time has passed, so every round of a run has the same
composition and a faster program serves more of the same seeded sequence.
With `--trace 0` the last line of stdout carries the end-to-end metrics,
with `--trace 1` the per-layer metrics of a traced run, in which every
request is served untraced and traced, so the tracing overhead is measured
on identical requests.  The line before it is a report with the run
environment and the traffic profile; both, the per-request latencies and the
spans of a traced run are also written to `.bench_out/` in the checkout.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
PINNED_ENV = {"PYTHONHASHSEED": "0", "CLAB_THREADS": "1"}

import tracing  # noqa: E402  (this directory is sys.path[0])
import workloads  # noqa: E402


def fresh_clab():
    """Import clab from the checkout's src/ into a clean module table, so
    every module-level cache starts empty."""
    for name in [m for m in sys.modules if m == "clab" or m.startswith("clab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("clab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"clab was imported from {cli.__file__}, not {SRC}")
    return SimpleNamespace(**{layer: sys.modules[f"clab.{layer}"]
                              for layer in tracing.LAYERS})


def set_up(wl, trace):
    """Import, group construction and warm-up, SETUP_REPEATS times on fresh
    imports; the last instance serves the run.  In a traced run the last
    set-up is traced, for the time fixed_candidates takes in it."""
    times = []
    tracer = None
    for rep in range(SETUP_REPEATS):
        last = rep == SETUP_REPEATS - 1
        t0 = time.perf_counter()
        clab = fresh_clab()
        if trace and last:
            tracer = tracing.Tracer()
            tracer.install()
        wl.setup(clab)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
    fc_setup = tracer.stat("quiver.fixed_candidates", "s") if tracer else 0.0
    return clab, times, fc_setup


def tail(latencies):
    """The highest nearest-rank percentile with TAIL_BEYOND samples above it:
    (value, percentile, samples beyond)."""
    s = sorted(latencies)
    i = len(s) - TAIL_BEYOND - 1
    if i < 0:
        return statistics.median(s), 50.0, len(s) // 2
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def serve(wl, clab, req):
    """One request on one clab instance: (latency, problems, work items)."""
    configs = [clab.cli.RunConfig(format="json", **kw) for kw in req.configs]
    t0 = time.perf_counter()
    try:
        outputs = [clab.cli.run(cfg) for cfg in configs]
    except Exception:  # a failed request is counted, the loop goes on
        return time.perf_counter() - t0, [traceback.format_exc(limit=3)], 0
    latency = time.perf_counter() - t0
    return (latency, *wl.check(req, outputs))


def run_rounds(wl, clab, seed, seconds, tracer):
    """The timed closed loop: whole rounds until `seconds` have passed
    since it began.  In a traced run every request is served
    untraced and traced, on a twin instance in the same state, so the
    tracing overhead is measured on identical work at nearly the same time.
    The twin is a second warmed instance that sees the same requests where
    a replay would otherwise hit a cache, and the same instance otherwise."""
    failures, log = [], []  # log: (label, end time, latency, items)
    items = attempted = traced_requests = rounds_done = 0
    busy = {False: 0.0, True: 0.0}  # request time, untraced and traced
    wall = 0.0  # the timed loop's wall-clock time, instance set-up excluded
    twin = clab
    needs_twin = tracer is not None and (
        wl.fresh_instance_per_request or wl.replay_needs_fresh_instance)
    gen = wl.rounds(seed)
    t_loop = time.perf_counter()

    def record(req, problems, k):
        nonlocal items
        if problems:
            failures.append({"request": req.configs, "problems": problems})
        else:
            items += k

    while time.perf_counter() - t_loop < seconds:
        requests = next(gen)
        for i, req in enumerate(requests):
            if wl.fresh_instance_per_request:
                clab = twin = None
                gc.collect()  # the old instances' module cycles, before the peak
                clab = twin = fresh_clab()
                wl.warm(clab)
            if needs_twin and (twin is clab):
                twin = fresh_clab()  # the tracer patches the latest import
                wl.warm(twin)
            t_req = time.perf_counter()
            if tracer is None:
                servings = (False,)
            else:  # alternate which serving goes first
                servings = (False, True) if i % 2 == 0 else (True, False)
            for traced in servings:
                attempted += 1
                if traced:
                    traced_requests += 1
                    tracer.request = attempted
                    tracer.install()
                    latency, problems, k = serve(wl, twin, req)
                    tracer.uninstall()
                else:
                    latency, problems, k = serve(wl, clab, req)
                    log.append((req.label, time.perf_counter() - t_loop,
                                latency, k))
                busy[traced] += latency
                record(req, problems, k)
            wall += time.perf_counter() - t_req
            wl.after_request(clab, req)
        rounds_done += 1
    return SimpleNamespace(failures=failures, items=items, attempted=attempted,
                           busy=busy, wall=wall, rounds_done=rounds_done,
                           log=log, traced_requests=traced_requests)


def environment(args, wl):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_repeats": SETUP_REPEATS,
        "warmup": wl.warmup,
        "clients": 1,
        "loop": "closed",
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]()
    try:
        clab, setup_times, fc_setup = set_up(wl, args.trace)
    except ImportError as e:
        print(f"error: cannot import clab from {SRC}: {e}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    loop = run_rounds(wl, clab, args.seed, args.seconds, tracer)

    n = loop.attempted
    failed = len(loop.failures)
    latencies = [latency for _, _, latency, _ in loop.log]
    by_label = {}
    for label, _, latency, _ in loop.log:
        by_label.setdefault(label, []).append(latency)
    report = {"environment": environment(args, wl),
              "setup_s_each": setup_times,
              "rounds_done": loop.rounds_done,
              "failed_ratio": failed / n,
              "failures": loop.failures[:5],
              "latency_s_by": {
                  k: {"median": statistics.median(v), "max": max(v), "n": len(v)}
                  for k, v in sorted(by_label.items())},
              "profile": wl.profile()}
    if args.trace:
        overhead = loop.busy[True] / loop.busy[False] - 1
        metrics = tracing.layer_metrics(tracer, max(1, loop.traced_requests),
                                        overhead, fc_setup)
        report["traced_requests"] = loop.traced_requests
        report["spans"] = {"recorded": len(tracer.spans["id"]),
                           "dropped": tracer.dropped}
    else:
        value, pct, beyond = tail(latencies)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "request_s_p50": statistics.median(latencies),
            "request_s_tail": value,
            "requests_per_s": (n - failed) / loop.wall,
            "items_per_s": loop.items / loop.wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "request_s_p50": "s", "request_s_tail": "s",
                 "requests_per_s": "1/s", "items_per_s": "1/s",
                 "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        report["tail"] = {"percentile": pct, "samples_beyond": beyond,
                          "samples": len(latencies)}
        report[f"{wl.item}s_per_s"] = metrics["items_per_s"]["value"]

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_spans(OUT / f"{stem}-spans.jsonl")
    (OUT / f"{stem}.json").write_text(
        json.dumps({"report": report, "metrics": metrics,
                    "requests": loop.log}, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # fixed hash seed and sampling threads; exec replaces this process
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **PINNED_ENV})
    sys.exit(main())
