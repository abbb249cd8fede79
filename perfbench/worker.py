"""Run one workload in this process and print its result as one JSON line.

Started by run.py, one fresh process per workload run.  BLAS is pinned to
one thread and HOWLKIT_THREADS is unset before numpy is imported.  The
timed part repeats whole rounds of the workload's operations until
``--seconds`` have passed.

Untraced (``--trace 0``): reports the end-to-end numbers of the timed part.
Traced (``--trace 1``): runs a warm-up round and one untraced round to learn
the untraced round time, installs the tracer, rebuilds the inputs under it
(so set-up calls get spans), then runs traced rounds; it reports per-layer
numbers and writes the spans to ``perfbench/out/<workload>-trace.npz``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HOWLKIT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
# hop probe time per second of timed rounds, on the workloads that need it
PROBE_SHARE = 0.5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, report the time, exit")
    return p.parse_args(argv)


def timed_rounds(workload, seconds, between=None):
    """Whole rounds until their time adds up to ``seconds``; returns
    (rounds, wall, totals).  ``between(round_s)`` runs after every round,
    off the clock."""
    totals = {}
    rounds = 0
    wall = 0.0
    while True:
        t0 = time.perf_counter()
        stats = workload.run_round()
        round_s = time.perf_counter() - t0
        wall += round_s
        for key, val in stats.items():
            totals[key] = totals.get(key, 0) + val
        rounds += 1
        if between is not None:
            between(round_s)
        if wall >= seconds:
            return rounds, wall, totals


def main(argv=None):
    args = parse_args(argv)
    t_import = time.perf_counter()
    import howlkit
    import_s = time.perf_counter() - t_import
    if os.path.commonpath([os.path.abspath(howlkit.__file__), SRC]) != SRC:
        raise SystemExit(f"howlkit imported from {howlkit.__file__}, not from this checkout")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    t_inputs = time.perf_counter()
    wl.build()
    ready = time.monotonic()
    inputs_s = time.perf_counter() - t_inputs
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    checks = workloads.Checks()
    if args.trace:
        result = traced_run(args, wl, import_s, inputs_s, checks)
    else:
        if args.workload == "live":
            rounds, wall, totals = timed_rounds(wl, args.seconds)
            hops = wl.hops
        else:
            probe = workloads.HopProbe(args.seed)
            rounds, wall, totals = timed_rounds(
                wl, args.seconds, between=lambda round_s: probe.run(PROBE_SHARE * round_s))
            hops = probe.hops
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "audio_x_realtime": (totals["audio_s"] / wall, "x"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        for variant in ("kalman", "neural"):
            p90_ns = np.percentile(np.asarray(hops[variant], dtype=np.float64), 90)
            metrics[f"{variant}_hop_p90_us"] = (float(p90_ns) * 1e-3, "us")
        result = {"attempted": totals["attempted"], "failed": totals["failed"],
                  "metrics": metrics,
                  "info": {"rounds": rounds, "timed_s": wall, "import_s": import_s,
                           "inputs_s": inputs_s, "totals": totals,
                           "hops": {v: len(hops[v]) for v in hops}}}
    wl.check(checks)
    result["info"]["notes"] = checks.notes
    result.update({"ready": ready, "checks": checks.items, "correct": checks.ok})
    print(json.dumps(result))
    return 0


def traced_run(args, wl, import_s, inputs_s, checks):
    import tracer as tr
    import layers

    # the first round pays one-time costs (first touch of the big stream
    # arrays, lazy caches), so the untraced baseline is the second
    warm = wl.run_round()
    base_t0 = time.perf_counter()
    base = wl.run_round()
    base_round_s = time.perf_counter() - base_t0

    tracer = tr.Tracer()
    tracer.install(extra_modules=[sys.modules["workloads"]])
    try:
        setup_mark = tracer.count
        wl.build()
        timed_mark = tracer.count
        rounds, wall, totals = timed_rounds(wl, args.seconds)
    finally:
        tracer.uninstall()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.save(os.path.join(out_dir, f"{args.workload}-trace.npz"),
                {"setup": setup_mark, "timed": timed_mark, "rounds": rounds})
    table = tracer.analyse()
    metrics, check = layers.per_layer(table, setup_mark, timed_mark, rounds, wall,
                                      base_round_s, tracer.span_cost_s(), totals,
                                      import_s, inputs_s)
    checks.add(*check)
    return {"attempted": warm["attempted"] + base["attempted"] + totals["attempted"],
            "failed": warm["failed"] + base["failed"] + totals["failed"],
            "metrics": metrics,
            "info": {"rounds": rounds, "traced_s": wall, "untraced_round_s": base_round_s,
                     "spans": tracer.count, "totals": totals}}


if __name__ == "__main__":
    sys.exit(main())
