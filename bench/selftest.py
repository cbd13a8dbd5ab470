"""Self-test of the benchmark: every oracle must catch a planted wrong
answer, and the pass accounting must count failures as it says. Tiny
sizes; it runs in a few seconds:

    python3 bench/selftest.py
"""
from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import workloads as W  # noqa: E402
from plyalg import hall  # noqa: E402
from plyalg.terms import Alphabet, LinComb  # noqa: E402
import tracing  # noqa: E402
from tracing import InstrumentError, Tracer  # noqa: E402
from run import merge  # noqa: E402
from worker import run_pass  # noqa: E402

A1, A2 = Alphabet.of_size(1), Alphabet.of_size(2)
failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
    print("%-4s %s" % ("ok" if ok else "FAIL", what))


def caught(message, what):
    expect(bool(message), "catches " + what)


def test_axioms():
    a = A1.gens[0]
    args = (LinComb.of(a), LinComb.of(a))
    nf, ok = W.Axioms._op("PLY", "PLY1", args)()
    expect(W.check_relation(nf, ok) is None, "PLY1(a, a) passes")
    caught(W.check_relation(nf + LinComb.of(a), ok), "an extra term in a relation's normal form")
    caught(W.check_relation(nf, False), "a trace that does not replay")
    nf, ok = W.Axioms._op("LY", "LY1", (A1.gens[0],))()
    expect(W.check_relation(nf, ok) is None, "LY1(a) passes")
    expect(not W.check_pool_sizes({2: [2, 5, 28, 169]}), "certified pool sizes pass")
    caught(W.check_pool_sizes({2: [2, 5, 28, 170]}), "an off-by-one pool size")


def test_normalize():
    wl = W.Normalize(0)
    x, nf, text, trace = wl._op("gr(a, b; a) + 1/2 * bk(b, a)")()
    expect(W.check_normal_form(x, nf, trace) is None, "a normal form passes")
    extra = nf + LinComb.of(A2.gens[0])
    caught(W.check_normal_form(x, extra, trace), "an extra term in a normal form")
    expect(not W.check_parse_back(nf, text, A2), "the rendered normal form parses back")
    caught(W.check_parse_back(nf, text + " + a", A2), "a rendered form with an extra term")
    _, nf2, _, _ = wl._op("gr(b; a)")()
    _, both, _, _ = wl._op("gr(a, b; a) + 1/2 * bk(b, a) - 2 * gr(b; a)")()
    expect(not W.check_linear(both, [(1, nf), (-2, nf2)], "sum"), "a linear sum passes")
    caught(W.check_linear(both, [(1, nf)], "sum"), "a sum with a dropped summand")


def test_osbb():
    pool = W.Osbb(0).pool()
    word = (pool[3], pool[1], pool[3], pool[2])
    word, dec = W.Osbb._op(word)()
    expect(W.check_decomposition(word, dec) is None, "a decomposition passes")
    dropped = LinComb(dict(list(dec.items())[1:]))
    caught(W.check_decomposition(word, dropped), "a dropped OSBB word")


def test_lts_hall():
    a, b = (hall.leaf(g) for g in A2.gens)
    out = W.LtsHall._op(LinComb.of(hall.node3(a, b, a)))()
    expect(W.check_hall_output("bracketing", out) is None, "a rewritten bracketing passes")
    caught(W.check_hall_output("bracketing", LinComb.of(hall.node3(a, b, a))),
           "a non-Hall output")
    caught(W.check_hall_output("skew", LinComb.of(hall.node3(b, a, a))),
           "a relation instance that is not annihilated")
    expect(not W.check_witt_counts(A2.gens, {1: 2, 3: 2, 5: 6}), "Witt counts through 5 pass")
    caught(W.check_witt_counts(A2.gens, {1: 2, 3: 3}), "an off-by-one Witt count")


class Planted(W.Workload):
    """Four operations: one passes, one is pinned and fails as expected, one
    is pinned but fails otherwise, one fails without being pinned; the warm
    pass changes the first one's output."""

    def __init__(self):
        self.calls = 0

    def prepare(self):
        return [W.Op("good", self._good),
                W.Op("pinned", self._boom, "known fault", "ValueError"),
                W.Op("pinned-other", self._other, "known fault", "ValueError"),
                W.Op("bad", self._boom)]

    def _good(self):
        self.calls += 1
        return self.calls

    @staticmethod
    def _boom():
        raise ValueError("planted")

    @staticmethod
    def _other():
        raise KeyError("planted")

    def check(self, op, out):
        return None

    def check_pass(self, outs):
        return []


def test_accounting():
    wl = Planted()
    cold = run_pass(wl)
    expect(cold.failed == 3 and len(cold.pinned) == 1 and len(cold.unexpected) == 2,
           "the cold pass counts a pinned and two unexpected failures")
    expect(any("pinned-other" in m for m in cold.unexpected),
           "a pinned operation failing with another error is unexpected")
    warm = run_pass(wl, cold=cold)
    expect(warm.failed == 4 and any("differs" in m for m in warm.unexpected),
           "the warm pass catches an output that differs from the cold pass")


def test_merge():
    def worker(digest, passes):
        return {"attempted": 4 * passes, "warm_passes": passes - 1, "failed": 1 * passes,
                "failed_per_pass": 1, "cold_times": [0.0] * 4, "outputs_sha256": digest,
                "unexpected": [], "errors": [], "pinned": [], "pinned_errors": []}
    run = merge([worker("x", 3), worker("x", 5)])
    expect(run["failed"] == 8 and run["attempted"] == 32 and not run["errors"],
           "every pass of every worker fails what the checked worker's passes fail")
    caught(merge([worker("x", 3), worker("y", 5)])["errors"],
           "a worker whose outputs differ from the checked worker's")


def test_instruments():
    from plyalg import normal
    tracer = Tracer()
    tracer.install()
    tracer.begin(0)
    a = A2.gens[0]
    normal.t_mul(a, a)
    normal.t_mul(a, a)
    tracer.end()
    layers = tracer.metrics(("normal.t_mul.hit_ratio",))
    expect(layers["normal.t_mul.hit_ratio"][0] == 0.5,
           "a memoized call counts as a miss, then as a hit")
    try:
        tracer.metrics(("hall.lts_hall_rewrite",))
        caught("", "a layer that saw no call")
    except InstrumentError:
        caught("raised", "a layer that saw no call")
    saved = tracing.SPANS
    tracing.SPANS = saved + (("normal", "no_such_function", "normal.gone"),)
    try:
        Tracer().install()
        caught("", "a listed function that is gone")
    except InstrumentError:
        caught("raised", "a listed function that is gone")
    finally:
        tracing.SPANS = saved


def test_inputs():
    for name, cls in sorted(W.WORKLOADS.items()):
        one, again, other = (cls(s).input_texts() for s in (1, 1, 2))
        expect(one == again, "%s: one seed gives the same inputs" % name)
        expect(one != other, "%s: another seed gives other inputs" % name)
        expect(len(one) == len(other),
               "%s: the operation count does not depend on the seed" % name)


def main():
    for test in (test_axioms, test_normalize, test_osbb, test_lts_hall, test_accounting,
                 test_merge, test_instruments, test_inputs):
        test()
    print("%d failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
