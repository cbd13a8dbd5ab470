"""sha256 digests of the benchmark's inputs or outputs for one seed.

    python3 bench/digest.py --seed 1             # each workload's input texts
    python3 bench/digest.py --seed 1 --outputs   # its rendered outputs

Equal input digests show that two commits run identical inputs; equal
output digests show byte-identical normal forms, decompositions and Hall
forms (outputs come from one cold pass, which also runs the oracles). A
digest is a comparison aid, never the correctness check.
"""
from __future__ import annotations

import argparse
import sys
from time import CLOCK_MONOTONIC, clock_gettime

from run import WORKLOADS, BenchError, launch

BUDGET_S = 900


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--outputs", action="store_true")
    args = ap.parse_args(argv)
    mode = "outputs" if args.outputs else "inputs"
    deadline = clock_gettime(CLOCK_MONOTONIC) + BUDGET_S
    try:
        for name in WORKLOADS:
            r = launch(name, args.seed, mode, deadline)
            print("%-10s seed %d %s sha256 %s" % (name, args.seed, mode, r[mode + "_sha256"]),
                  flush=True)
    except BenchError as e:
        print("digest: %s" % e, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
