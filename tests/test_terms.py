"""Core term model: grading functions and exact linear combinations."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plyalg.terms import (Alphabet, LinComb, bracket_count, brk, gen, graft,
                          vertex_count)
from plyalg.bases import enumerate_Bhat, enumerate_Shat, enumerate_T, phi_inv


A = Alphabet.of_size(2)
a, b = A.gens


def test_generator_counts():
    assert vertex_count(a) == 1
    assert bracket_count(a) == 0


def test_two_chain_counts():
    chain = graft((a,), a)
    assert vertex_count(chain) == 2
    assert bracket_count(chain) == 0


def test_graft_on_bracket_counts():
    t = graft((a,), brk(a, a))
    assert vertex_count(t) == 3
    assert bracket_count(t) == 1


def test_bracket_counts():
    assert bracket_count(brk(a, a)) == 1
    assert bracket_count(brk(a, brk(b, a))) == 2


def test_bracket_count_below_vertex_count(A2):
    for n in range(1, 5):
        for t in enumerate_Bhat(n, A2):
            assert bracket_count(t) < vertex_count(t)
        for t in enumerate_Shat(n, A2):
            assert bracket_count(t) < vertex_count(t)


def test_counts_invariant_under_conversion(A1):
    for n in range(1, 5):
        for t in enumerate_T(n, A1):
            s = phi_inv(t)
            assert vertex_count(t) == vertex_count(s) == n
            assert bracket_count(t) == bracket_count(s)


def test_interning():
    assert graft((a,), a) is graft((a,), a)
    assert brk(a, b) is not brk(b, a)
    assert gen("a", 0) is a


def test_graft_requires_branches():
    with pytest.raises(AssertionError):
        graft((), a)
    with pytest.raises(AssertionError):
        graft((a,), graft((a,), a))


def test_lincomb_basic():
    x = LinComb.of(a, Fraction(2, 3)) + LinComb.of(a, Fraction(1, 3))
    assert x == LinComb.of(a)
    assert LinComb.of(a) - LinComb.of(a) == LinComb.zero()
    assert LinComb.of(a).scale(0) == LinComb.zero()
    assert not LinComb.zero()


_terms = st.sampled_from([a, b, brk(a, b), graft((a,), a), graft((b, a), a)])
_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _lincombs():
    return st.lists(st.tuples(_terms, _coeffs), max_size=4).map(LinComb.from_pairs)


@given(_lincombs(), _lincombs(), _lincombs())
def test_lincomb_vector_space(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + LinComb.zero() == x
    assert x - x == LinComb.zero()


@given(_lincombs(), _lincombs(), _coeffs, _coeffs)
def test_lincomb_scaling(x, y, c, d):
    assert (x + y).scale(c) == x.scale(c) + y.scale(c)
    assert x.scale(c + d) == x.scale(c) + x.scale(d)
    assert x.scale(c).scale(d) == x.scale(c * d)


@given(_lincombs())
def test_lincomb_no_zero_coefficients(x):
    assert all(c != 0 for c in x.terms.values())
