"""The derived Lie-Yamaguti structure, its axioms, and the tuples they and
the relation suites are checked on."""
import itertools
from fractions import Fraction

import pytest

from plyalg.normal import enumerate_B, enumerate_B_lat, lat_project
from plyalg.terms import Alphabet, LinComb, graft
from plyalg.yamaguti import (check_lat_degeneration, check_ly_axioms,
                             ly_binary, ly_triple, ranked_tuples,
                             sample_basis_tuples, triple_bracket_nf)

A1 = Alphabet.of_size(1)
a = A1.gens[0]
g2 = graft((a,), a)


def test_binary_examples():
    assert ly_binary(a, a) == LinComb()
    pos = ly_binary(g2, a)
    neg = ly_binary(a, g2)
    assert pos == -neg
    (term, coeff), = pos.items()
    assert coeff == 1


def test_triple_antisymmetry_in_first_slots():
    assert ly_triple(g2, g2, a) == LinComb()
    assert ly_triple(a, a, g2) == LinComb()


def test_triple_example_cherry():
    # {g2, a, a} = s([[g2,a]]) ▷ a − [g2,a,a]: both already basis elements
    out = ly_triple(g2, a, a)
    assert len(out) == 2
    coeffs = sorted(out.values())
    assert coeffs == [Fraction(-1), Fraction(1)]
    kinds = sorted(t.kind for t in out)
    assert kinds == [4, 5]  # one symmetric graft, one triple-bracket


def test_axioms_hold():
    reports = check_ly_axioms(max_vertices=6, samples=10, seed=3, alphabet=A1)
    assert reports
    for r in reports:
        assert r.passed, (r.axiom, r.bindings, r.residual)


def test_axioms_two_generators():
    A2 = Alphabet.of_size(2)
    reports = check_ly_axioms(max_vertices=4, samples=6, seed=4, alphabet=A2)
    for r in reports:
        assert r.passed, (r.axiom, r.bindings)


def test_lat_degeneration():
    reports = check_lat_degeneration(max_vertices=5, samples=15, seed=5,
                                     alphabet=A1)
    assert reports
    for r in reports:
        assert r.passed, (r.axiom, r.bindings, r.residual)


def test_degenerate_triple_is_negative_triple_bracket():
    # with brackets killed, the ternary operation reduces to -[x,y,z]
    for x, y, z in ((g2, a, a), (a, g2, g2)):
        lhs = lat_project(ly_triple(x, y, z))
        rhs = -lat_project(triple_bracket_nf(x, y, z))
        assert lhs == rhs


@pytest.mark.parametrize("grade,gens,arity,max_vertices", [
    (enumerate_B, 1, 1, 4), (enumerate_B, 1, 3, 6), (enumerate_B, 2, 2, 5),
    (enumerate_B, 2, 3, 5), (enumerate_B_lat, 1, 3, 6), (enumerate_B_lat, 2, 3, 5),
    (enumerate_B, 1, 3, 2),
])
def test_ranked_tuples_is_the_filtered_grid(grade, gens, arity, max_vertices):
    # rank r is the r-th fitting tuple of the product of the elements that
    # fit in one slot, listed grade by grade
    alphabet = Alphabet.of_size(gens)
    pool = [t for n in range(1, max_vertices - arity + 2) for t in grade(n, alphabet)]
    grid = [p for p in itertools.product(pool, repeat=arity)
            if sum(t.vc for t in p) <= max_vertices]
    count, at = ranked_tuples(grade, alphabet, arity, max_vertices)
    assert count == len(grid)
    assert [at(r) for r in range(count)] == grid


def test_sample_basis_tuples_draws():
    # past the grid: ``samples`` seeded draws, each of basis elements within
    # the budget; 45,592 5-tuples over two generators fit in 8 vertices, one
    # in 7.7 million of the 5-tuples of elements with at most 4 vertices
    A2 = Alphabet.of_size(2)
    basis = {n: set(enumerate_B(n, A2)) for n in range(1, 5)}
    drawn = sample_basis_tuples(5, 8, 500, 0, A2)
    assert len(drawn) == 500
    for args in drawn:
        assert len(args) == 5 and sum(t.vc for t in args) <= 8
        assert all(t in basis.get(t.vc, ()) for t in args)
    assert drawn == sample_basis_tuples(5, 8, 500, 0, A2)
    assert drawn != sample_basis_tuples(5, 8, 500, 1, A2)


def test_sample_basis_tuples_draws_distinct():
    # 245 3-tuples fit in 7 vertices over one generator: 200 draws are 200
    # distinct tuples, where draws with replacement gave 129
    drawn = sample_basis_tuples(3, 7, 200, 0, A1)
    assert len(drawn) == len(set(drawn)) == 200


def test_ly_and_lat_take_the_whole_grid():
    # one rule for every suite: the whole grid when it fits (LY6's 6 tuples
    # within 6 vertices, the 13 bracket-free triples within 5), else
    # ``samples`` distinct draws
    by_axiom = {}
    for r in check_ly_axioms(6, 20, 0, A1):
        by_axiom.setdefault(r.axiom, []).append(r.bindings)
    assert {k: len(set(v)) for k, v in by_axiom.items()} == {
        "LY1": 20, "LY2": 20, "LY3": 20, "LY4": 20, "LY5": 20, "LY6": 6}
    count, at = ranked_tuples(enumerate_B, A1, 5, 6)
    assert by_axiom["LY6"] == [at(r) for r in range(count)]
    lat = [r.bindings for r in check_lat_degeneration(5, 20, 0, A1)
           if r.axiom == "LAT-triple"]
    count, at = ranked_tuples(enumerate_B_lat, A1, 3, 5)
    assert count == 13 and lat == [at(r) for r in range(count)]
