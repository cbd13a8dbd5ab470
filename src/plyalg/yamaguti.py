"""The Lie-Yamaguti structure carried by the free post-Lie-Yamaguti algebra:
binary operation [[x,y]] and ternary operation {x,y,z} = [[x,y]] ▷ z − [x,y,z],
both computed through normalization, plus the axiom checker."""
from __future__ import annotations

import random
from dataclasses import dataclass

from .bases import any_to_bhat
from .normal import DEFAULT_FUEL, enumerate_B, lat_project, normalize
from .tensor import tree_brk, tree_mul, triple_bracket
from .terms import Alphabet, LinComb, has_bracket


def ly_binary(x, y, fuel=DEFAULT_FUEL):
    """Normalized bracket of two elements."""
    return normalize(tree_brk(any_to_bhat(x), any_to_bhat(y)), fuel=fuel)[0]


def ly_triple(x, y, z, fuel=DEFAULT_FUEL):
    """Normalized {x,y,z} = [[x,y]] ▷ z − [x,y,z]."""
    ax, ay, az = any_to_bhat(x), any_to_bhat(y), any_to_bhat(z)
    raw = tree_mul(tree_brk(ax, ay), az) - triple_bracket(ax, ay, az)
    return normalize(raw, fuel=fuel)[0]


def triple_bracket_nf(x, y, z, fuel=DEFAULT_FUEL):
    """Normalized triple-bracket [x,y,z]."""
    return normalize(triple_bracket(any_to_bhat(x), any_to_bhat(y), any_to_bhat(z)),
                     fuel=fuel)[0]


@dataclass(frozen=True)
class LYReport:
    axiom: str
    bindings: tuple
    residual: LinComb

    @property
    def passed(self):
        return not self.residual


def _cyc3(f, x, y, z):
    return f(x, y, z) + f(y, z, x) + f(z, x, y)


def _ly1(x):
    return ly_binary(x, x)


def _ly2(x, y):
    return ly_triple(x, x, y)


def _ly3(x, y, z):
    return _cyc3(lambda a, b, c: ly_triple(a, b, c) + ly_binary(ly_binary(a, b), c),
                 x, y, z)


def _ly4(x, y, z, w):
    return _cyc3(lambda a, b, c: ly_triple(ly_binary(a, b), c, w), x, y, z)


def _ly5(x, y, z, w):
    return (ly_triple(x, y, ly_binary(z, w))
            - ly_binary(ly_triple(x, y, z), w)
            - ly_binary(z, ly_triple(x, y, w)))


def _ly6(x, y, u, v, w):
    return (ly_triple(x, y, ly_triple(u, v, w))
            - ly_triple(ly_triple(x, y, u), v, w)
            - ly_triple(u, ly_triple(x, y, v), w)
            - ly_triple(u, v, ly_triple(x, y, w)))


AXIOMS = (("LY1", _ly1, 1), ("LY2", _ly2, 2), ("LY3", _ly3, 3),
          ("LY4", _ly4, 4), ("LY5", _ly5, 4), ("LY6", _ly6, 5))


def basis_pool(max_vertices, alphabet, arity):
    """The basis elements that fit in one slot of an ``arity``-tuple of at
    most ``max_vertices`` vertices, by grade."""
    return [t for n in range(1, max_vertices - arity + 2)
            for t in enumerate_B(n, alphabet)]


def draw_tuples(pool, arity, max_vertices, samples, rng):
    """``samples`` tuples drawn from the pool, each drawn again until its
    vertex count is at most ``max_vertices``."""
    out = []
    for _ in range(samples):
        while True:
            pick = tuple(rng.choice(pool) for _ in range(arity))
            if sum(t.vc for t in pick) <= max_vertices:
                out.append(pick)
                break
    return out


def check_ly_axioms(max_vertices=6, samples=20, seed=0, alphabet=None):
    """Evaluate every Lie-Yamaguti axiom on seeded basis-element tuples.

    Returns one LYReport per instantiation; residuals are exact.
    """
    if alphabet is None:
        alphabet = Alphabet.of_size(1)
    rng = random.Random(seed)
    reports = []
    for name, fn, arity in AXIOMS:
        if arity > max_vertices:
            continue
        pool = basis_pool(max_vertices, alphabet, arity)
        for args in draw_tuples(pool, arity, max_vertices, samples, rng):
            residual = fn(*args)
            reports.append(LYReport(name, args, residual))
    return reports


def check_lat_degeneration(max_vertices=5, samples=20, seed=0, alphabet=None):
    """In the bracket -> 0 quotient the binary operation vanishes and the
    ternary operation is minus the triple-bracket. Returns LYReports, none
    when a triple does not fit in ``max_vertices``."""
    if max_vertices < 3:
        return []
    if alphabet is None:
        alphabet = Alphabet.of_size(1)
    pool = [t for t in basis_pool(max_vertices, alphabet, 3) if not has_bracket(t)]
    reports = []
    for x, y, z in draw_tuples(pool, 3, max_vertices, samples, random.Random(seed)):
        reports.append(LYReport("LAT-binary", (x, y), lat_project(ly_binary(x, y))))
        res = lat_project(ly_triple(x, y, z)) + lat_project(triple_bracket_nf(x, y, z))
        reports.append(LYReport("LAT-triple", (x, y, z), res))
    return reports
