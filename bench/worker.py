"""One workload in one fresh, single-threaded process.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and a fixed
``PYTHONHASHSEED``. Its set-up time runs from ``--launched``, the parent's
monotonic clock just before it started this process, to the first timed
operation: interpreter start, imports and input generation. Then it makes
a cold pass, with every memo table of the program empty, and warm passes
over the same operations until ``--seconds`` of wall time have passed since
the cold pass began and the warm passes have taken ``MIN_WARM_S`` (always
at least one warm pass; the traced run makes exactly one). It prints one
JSON line with each operation's cold time, its best time over the warm
passes, the reference calls' times, and the outcomes.

Mode ``memory`` makes only the cold pass, under ``tracemalloc`` and without
the oracles, and prints the traced peak: ``tracemalloc`` slows allocation
several times over, so it runs apart from the spans. Modes ``inputs`` and
``outputs`` print a sha256 digest of the workload's input texts, or of its
rendered outputs after one cold pass.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import tracemalloc
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter

import workloads
from reference import Scaler, scale, time_reference
from tracing import InstrumentError, Tracer

REF_SLOTS = 50          # reference calls a warm pass, at most: one after every k-th operation
MIN_WARM_S = 0.5        # warm passes go on at least this long, for cheap operations
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Pass:
    def __init__(self):
        self.prepare = 0.0          # s in ``prepare``
        self.times = []             # s per operation
        self.scaled = []            # the same taken to the nominal host, with prepare first
        self.refs = []              # s per reference call (untraced passes)
        self.kept = []
        self.errs = []              # per operation: None or why it failed
        self.failed = 0
        self.pinned = []            # (label, fault, error) of pinned failures
        self.unexpected = []        # messages of failures nobody expected
        self.errors = []            # whole-pass oracle failures (cold pass)


def run_pass(wl, tracer=None, cold=None, oracles=True, keep=True):
    """One pass: ``prepare`` and every operation timed, oracles untimed.
    Unless traced, reference calls are made between the operations: in the
    cold pass after every 10 ms of timed work, and the cold times are also
    given taken to the nominal host segment by segment (``Scaler``); in a
    warm pass after every k-th operation, at the same places in every pass
    (``REF_SLOTS`` a pass at most).

    With ``cold`` None this is the cold pass: it keeps the outputs unless
    ``keep`` is false, and checks them by the workload's oracles unless
    ``oracles`` is false (then only a raised error fails an operation).
    Otherwise each output must equal the cold pass's."""
    p = Pass()
    scaler = Scaler() if cold is None and not tracer else None
    if tracer:
        tracer.begin(-1)
    t0 = perf_counter()
    ops = wl.prepare()
    p.prepare = perf_counter() - t0
    if tracer:
        tracer.end()
    elif scaler:
        scaler.add(p.prepare)
    every = -(-len(ops) // REF_SLOTS)
    for i, op in enumerate(ops):
        if tracer:
            tracer.begin(i)
        t0 = perf_counter()
        try:
            out = op.run()
            err = None
        except Exception as e:  # a raising operation is a failed one
            out, err = None, "%s: %s" % (type(e).__name__, e)
        took = perf_counter() - t0
        if tracer:
            tracer.end()
        elif scaler:
            scaler.add(took)
        elif i % every == 0:
            p.refs.append(time_reference())
        p.times.append(took)
        if cold is None:
            if not keep:
                continue
            if err is None and oracles:
                err = wl.check(op, out)
            p.kept.append(wl.keep(out) if out is not None else None)
            p.errs.append(err)
        elif err is None:
            # the cold pass checked this output; an equal one fares the same
            err = (cold.errs[i] if wl.keep(out) == cold.kept[i]
                   else "output differs from the cold pass")
        if err is None:
            continue
        p.failed += 1
        if op.pinned and err.startswith(op.expect):
            p.pinned.append((op.label, op.pinned, err))
        elif op.pinned:
            p.unexpected.append("%s #%d (pinned, expected %r): %s"
                                % (op.label, i, op.expect, err))
        else:
            p.unexpected.append("%s #%d: %s" % (op.label, i, err))
    if scaler:
        scaler.close()
        p.scaled, p.refs = scaler.times, scaler.refs
    if cold is None and oracles and keep:
        p.errors = wl.check_pass(p.kept)
    return p


def best_times(passes):
    """Each operation's best time over the warm passes, taken to the
    nominal host by the reference slots' best times over the same passes,
    in s. Load from outside the process only ever adds time, and a busy
    host runs this code up to twice as slow, in bursts from milliseconds
    to many seconds long, so the best of several passes is the closest to
    the operation's own cost. An operation and a slot have their best over
    the same passes, so a slow phase in part of them raises neither."""
    factor = scale([min(ts) for ts in zip(*(p.refs for p in passes))])
    return [min(ts) * factor for ts in zip(*(p.times for p in passes))]


def outputs_digest(wl, cold):
    """sha256 of the cold pass's rendered outputs, or of the error where an
    operation raised one."""
    return digest(err if k is None else wl.render(k) for k, err in zip(cold.kept, cold.errs))


def digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1,
                    help="0: run no oracles; the outputs digest shows the outputs "
                         "equal those of a worker that did")
    ap.add_argument("--mode", choices=("run", "setup", "memory", "inputs", "outputs"),
                    default="run")
    ap.add_argument("--launched", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken just before the launch")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.mode == "inputs":
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "inputs_sha256": digest(wl.input_texts())}))
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        try:
            tracer.install(extra_modules=[workloads])
        except InstrumentError as e:
            print("worker: %s" % e, file=sys.stderr)
            return 2
    setup_s = clock_gettime(CLOCK_MONOTONIC) - args.launched
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.mode == "memory":
        tracemalloc.start()
        run_pass(wl, keep=False)
        peak = tracemalloc.get_traced_memory()[1]
        print(json.dumps({"tracemalloc_peak_mb": peak / 2 ** 20}))
        return 0

    start = clock_gettime(CLOCK_MONOTONIC)
    cold = run_pass(wl, tracer, oracles=bool(args.check))
    if args.mode == "outputs":
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "outputs_sha256": outputs_digest(wl, cold)}))
        return 0
    warm = [run_pass(wl, tracer, cold)]
    while not tracer and (clock_gettime(CLOCK_MONOTONIC) - start < args.seconds
                          or sum(sum(p.times) for p in warm) < MIN_WARM_S):
        warm.append(run_pass(wl, tracer, cold))

    passes = [cold] + warm
    result = {
        "setup_s": setup_s,
        "warm_passes": len(warm),
        "attempted": sum(len(p.times) for p in passes),
        "failed": sum(p.failed for p in passes),
        "failed_per_pass": cold.failed,
        "outputs_sha256": outputs_digest(wl, cold),
        "pinned": sorted({(label, fault) for p in passes for label, fault, _ in p.pinned}),
        "pinned_errors": sorted({err for p in passes for _, _, err in p.pinned}),
        "unexpected": [m for p in passes for m in p.unexpected],
        "errors": cold.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if not tracer:
        result.update({"cold_prepare_s": cold.scaled[0], "cold_times": cold.scaled[1:],
                       "warm_times": best_times(warm),
                       "ref_ms": statistics.median(t for p in passes for t in p.refs) * 1e3})
    if tracer:
        try:
            layers = tracer.metrics(wl.layers)
        except InstrumentError as e:
            print("worker: %s: %s" % (args.workload, e), file=sys.stderr)
            return 2
        result["per_layer"] = layers
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, "%s-seed%d" % (args.workload, args.seed))
        with open(stem + ".json", "w") as f:
            json.dump({"spans": "float64 x 5 per span: name id, op index "
                                "(-1: prepare), parent span (-1: none), start s, end s",
                       "names": tracer.names, "per_layer": layers}, f, indent=1)
        tracer.write_spans(stem + ".spans")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
