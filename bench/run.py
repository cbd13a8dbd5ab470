"""Benchmark of plyalg on four seeded workloads, cold and warm.

    python3 bench/run.py --workload axioms --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                      # every workload, one after another

Each workload runs in fresh single-threaded worker processes (worker.py),
one after another, with ``src`` on ``PYTHONPATH``; nothing needs
installing. ``--trace 0`` reports the end-to-end metrics: ``WORKERS``
workers share the ``--seconds``, each making a cold pass and then warm
passes; every operation is taken at its best time over them, and every
time is taken to the nominal host by the reference calls timed beside it
(reference.py). ``--trace 1`` makes one traced run and reports the
per-layer metrics instead, writing its spans under bench/out/.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
output checked out (pinned failures aside), 1 when one did not, and 2 when
the benchmark could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import CLOCK_MONOTONIC, clock_gettime

from reference import REF_MIN, REF_S, scale, time_reference

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("axioms", "normalize", "osbb", "lts-hall")
SETUP_PROBES = 5        # set-up-only launches, besides the measuring workers
WORKERS = 3             # measuring workers per run, each with its own cold pass
BUDGET_S = 170          # one workload's runs end within this


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(workload, seed, mode, deadline, seconds=0.0, trace=0, check=1):
    """Run one worker to its end; return its JSON result."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--trace", str(trace), "--check", str(check)]
    timeout = deadline - clock_gettime(CLOCK_MONOTONIC)
    if timeout <= 0:
        raise BenchError("%s: out of time before a %s worker" % (workload, mode))
    # the host's speed just before the launch, for the set-up time
    ref_scale = scale([time_reference() for _ in range(REF_MIN)])
    cmd += ["--launched", repr(clock_gettime(CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s: %s worker did not end in time" % (workload, mode))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s: %s worker exited with code %d"
                         % (workload, mode, proc.returncode))
    result = json.loads(lines[-1])
    result["ref_scale"] = ref_scale
    return result


def best(lists):
    return [min(ts) for ts in zip(*lists)]


def figures(runs, setups):
    """End-to-end metrics of the workers' runs: each operation at its best
    time, taken to the nominal host, over the workers' cold passes, and
    over all their warm passes."""
    cold = best([r["cold_times"] for r in runs])
    prepare = min(r["cold_prepare_s"] for r in runs)
    warm = best([r["warm_times"] for r in runs])
    return {
        "setup_s": (statistics.median(setups + [r["setup_s"] * r["ref_scale"] for r in runs]),
                    "s"),
        "cold_ops_per_s": (len(cold) / (prepare + sum(cold)), "ops/s"),
        "warm_ops_per_s": (len(warm) / sum(warm), "ops/s"),
        "warm_op_p50_ms": (statistics.median(warm) * 1e3, "ms"),
        "warm_op_p90_ms": (statistics.quantiles(warm, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }


def merge(runs):
    """The workers' outcomes as one run's. Only the first worker runs the
    oracles; every other one must give the same outputs, so its passes fail
    the operations the first one's do."""
    out = dict(runs[0])
    for key in ("attempted", "warm_passes"):
        out[key] = sum(r[key] for r in runs)
    out["failed"] = out["failed_per_pass"] * (out["attempted"] // len(out["cold_times"]))
    out["unexpected"] = [m for r in runs for m in r["unexpected"]]
    out["errors"] = list(out["errors"]) + [
        "worker %d gave other outputs than the checked worker" % k
        for k, r in enumerate(runs) if r["outputs_sha256"] != out["outputs_sha256"]]
    for key in ("pinned", "pinned_errors"):
        out[key] = sorted({tuple(x) if isinstance(x, list) else x
                           for r in runs for x in r[key]})
    return out


def measure(workload, seed, seconds, trace):
    """Returns (correct, attempted, failed, metrics, report lines)."""
    deadline = clock_gettime(CLOCK_MONOTONIC) + BUDGET_S
    if trace:
        run = launch(workload, seed, "run", deadline, trace=1)
        metrics = run["per_layer"]
        peak = launch(workload, seed, "memory", deadline)["tracemalloc_peak_mb"]
        metrics["mem.tracemalloc_peak_mb"] = (peak, "MB")
    else:
        setups = [r["setup_s"] * r["ref_scale"]
                  for r in (launch(workload, seed, "setup", deadline)
                            for _ in range(SETUP_PROBES))]
        runs, end = [], clock_gettime(CLOCK_MONOTONIC) + seconds
        for k in range(WORKERS, 0, -1):
            share = max(end - clock_gettime(CLOCK_MONOTONIC), 0.0) / k
            runs.append(launch(workload, seed, "run", deadline, seconds=share,
                               check=int(k == WORKERS)))
        metrics = figures(runs, setups)
        run = merge(runs)
    attempted, failed = run["attempted"], run["failed"]
    correct = not run["unexpected"] and not run["errors"]
    lines = ["%s (seed %d, %s): attempted %d, failed %d, correct %s"
             % (workload, seed, "traced" if trace else "untraced", attempted, failed, correct)]
    lines += ["  pinned failure, %s: %s" % tuple(p) for p in run["pinned"]]
    lines += ["    raised or returned: %s" % err[:160] for err in run["pinned_errors"]]
    lines += ["  UNEXPECTED FAILURE: %s" % m for m in run["unexpected"][:20]]
    lines += ["  ORACLE FAILED: %s" % m for m in run["errors"]]
    if not trace:
        lines.append("  %d operations a pass, each at its best time over %d cold passes "
                     "and over %d warm passes" % (len(run["cold_times"]), len(runs),
                                                  run["warm_passes"]))
        lines.append("  reference call: median %s ms in the three workers; times scaled "
                     "to %.2f ms" % (", ".join("%.4f" % r["ref_ms"] for r in runs), REF_S * 1e3))
    lines += ["  %-40s %14.6g %s" % (name, value, unit)
              for name, (value, unit) in metrics.items()]
    return correct, attempted, failed, metrics, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "plyalg", "__init__.py")):
        print("bench: no plyalg sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, att, fail, m, lines = measure(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            correct, attempted, failed = correct and ok, attempted + att, failed + fail
            prefix = "" if len(names) == 1 else name + "."
            metrics.update((prefix + k, {"value": v, "unit": u}) for k, (v, u) in m.items())
    except BenchError as e:
        print("bench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
