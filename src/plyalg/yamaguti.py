"""The Lie-Yamaguti structure carried by the free post-Lie-Yamaguti algebra:
binary operation [[x,y]] and ternary operation {x,y,z} = [[x,y]] ▷ z − [x,y,z],
both computed through normalization, the axiom checkers, and the one
sampler of the basis-element tuples they and the relation suites check."""
from __future__ import annotations

import random
from dataclasses import dataclass

from .bases import any_to_bhat
from .normal import (DEFAULT_FUEL, enumerate_B, enumerate_B_lat, lat_project,
                     normalize)
from .tensor import tree_brk, tree_mul, triple_bracket
from .terms import LinComb


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


def ranked_tuples(grade, alphabet, arity, max_vertices):
    """The ``arity``-tuples of ``grade(n, alphabet)`` elements with at most
    ``max_vertices`` vertices in all: their count, and ``at(r)``, the tuple
    of rank ``r`` in lexicographic order (elements grade by grade, each grade
    in enumeration order), unranked from the counts by grade (Nijenhuis and
    Wilf, *Combinatorial Algorithms*, 1978)."""
    grades = {n: grade(n, alphabet) for n in range(1, max_vertices - arity + 2)}
    fit = {(0, b): 1 for b in range(max_vertices + 1)}  # a-tuples in b vertices
    for a in range(1, arity + 1):
        for b in range(max_vertices + 1):
            fit[a, b] = sum(len(g) * fit.get((a - 1, b - n), 0)
                            for n, g in grades.items())

    def at(r):
        out, b = [], max_vertices
        for a in range(arity, 0, -1):
            for n, g in grades.items():
                rest = fit.get((a - 1, b - n), 0)
                if r < len(g) * rest:
                    i, r = divmod(r, rest)
                    out.append(g[i])
                    b -= n
                    break
                r -= len(g) * rest
        return tuple(out)

    return fit[arity, max_vertices], at


def sample_basis_tuples(arity, max_vertices, samples, seed, alphabet,
                        grade=enumerate_B):
    """Tuples of ``grade(n, alphabet)`` elements with at most
    ``max_vertices`` vertices in all: the whole grid if it has at most
    ``samples`` tuples, else ``samples`` distinct tuples drawn by seeded
    rank. A tuple that cannot fit gives none."""
    count, at = ranked_tuples(grade, alphabet, arity, max_vertices)
    ranks = (range(count) if count <= samples
             else random.Random(seed).sample(range(count), samples))
    return [at(r) for r in ranks]


def check_ly_axioms(max_vertices, samples, seed, alphabet):
    """Evaluate every Lie-Yamaguti axiom on the basis-element tuples that
    ``sample_basis_tuples`` gives for its arity. Returns one LYReport per
    instantiation; residuals are exact."""
    return [LYReport(name, args, fn(*args)) for name, fn, arity in AXIOMS
            for args in sample_basis_tuples(arity, max_vertices, samples, seed, alphabet)]


def check_lat_degeneration(max_vertices, samples, seed, alphabet):
    """In the bracket -> 0 quotient the binary operation vanishes and the
    ternary operation is minus the triple-bracket. Returns two LYReports per
    bracket-free triple that ``sample_basis_tuples`` gives."""
    reports = []
    for x, y, z in sample_basis_tuples(3, max_vertices, samples, seed, alphabet,
                                       enumerate_B_lat):
        reports.append(LYReport("LAT-binary", (x, y), lat_project(ly_binary(x, y))))
        res = lat_project(ly_triple(x, y, z)) + lat_project(triple_bracket_nf(x, y, z))
        reports.append(LYReport("LAT-triple", (x, y, z), res))
    return reports
