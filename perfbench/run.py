"""howlkit benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py [--workload live|eval-sweep|train|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository: the workloads import howlkit from its
``src/`` directory.  Each workload runs in its own fresh worker process
(perfbench/worker.py) with BLAS pinned to one thread.  With ``--trace 0``
the last line of standard output is one JSON object holding every
end-to-end metric; ``setup_s`` is the median over the measuring worker and
SETUP_PROBES more processes that only set up.  With ``--trace 1`` it holds
the per-layer metrics of a traced run instead.  Exit status: 0 when every
check passed, 1 when a check failed, 2 on a usage or checkout error, 3 when
a worker crashed or ran out of time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("live", "eval-sweep", "train")
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
E2E_ORDER = ("setup_s", "audio_x_realtime", "peak_rss_mb", "kalman_hop_p90_us",
             "neural_hop_p90_us")


class WorkerError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("HOWLKIT_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(args, deadline):
    """Run one worker to completion; returns (spawn time, parsed last line)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, env=worker_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {' '.join(args)} ran out of time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return t_spawn, json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, deadline):
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds)]
    t_spawn, res = spawn(common + ["--trace", str(trace)], deadline)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    if not trace:
        setups = [res["ready"] - t_spawn]
        for _ in range(SETUP_PROBES):
            t_probe, probe = spawn(common + ["--setup-only"], deadline)
            setups.append(probe["ready"] - t_probe)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics = {k: metrics[k] for k in E2E_ORDER}
        res["info"]["setup_runs_s"] = setups
    return {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics,
            "checks": res["checks"], "info": res["info"]}


def print_summary(name, seed, result):
    print(f"== {name} (seed {seed}): attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for key, m in result["metrics"].items():
        print(f"   {key:34s} {m['value']:14.6g} {m['unit']}")
    for check in result["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        print(f"   [{mark}] {check['name']}: {check['detail']}")
    print(f"   info: {json.dumps(result['info'])}")


def main(argv=None):
    p = argparse.ArgumentParser(description="howlkit benchmark")
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "howlkit", "__init__.py")):
        print(f"no howlkit sources under {ROOT}/src: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         time.monotonic() + TIME_LIMIT_S)
        except WorkerError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 3
        print_summary(name, args.seed, results[name])

    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        metrics = {f"{n}:{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    out = {"correct": all(r["correct"] for r in results.values()),
           "attempted": sum(r["attempted"] for r in results.values()),
           "failed": sum(r["failed"] for r in results.values()),
           "metrics": metrics}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
