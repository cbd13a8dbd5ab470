"""Core term model: grading functions and exact linear combinations."""
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plyalg.terms import (BRK, GEN, GRAFT, OGRAFT, SYMGRAFT, Alphabet, LinComb,
                          OsbbWord, block, bracket_count, brk, gen, graft,
                          has_bracket, memo, multilinear, osbb_word, subterms, symgraft,
                          triple, vertex_count)
from plyalg.bases import enumerate_Bhat, enumerate_Shat, enumerate_T, phi_inv
from plyalg.exprs import lincomb_json, render_lincomb
from lemmas import assert_exact_coefficients


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
    blk = block((b, a), a, b)
    assert blk is block([a, b], a, b)
    assert blk is not block((a, b), b, a)
    assert osbb_word((blk,), (b, a)) is osbb_word([blk], [a, b])
    assert osbb_word((), ()) is not osbb_word((), (a,))
    assert symgraft((a, brk(a, b)), b) is symgraft((brk(a, b), a), b)
    assert triple((b, a), a, b, a) is triple((a, b), a, b, a)
    assert triple((), a, b, a) is not triple((), b, a, a)


def _children(t):
    """The children of a term, or the letters of an OSBB word, read off the
    node's fields."""
    if isinstance(t, OsbbWord):
        return [x for blk in t.blocks for x in (*blk.sym, blk.y, blk.z)] + list(t.tail)
    if t.kind == GEN:
        return []
    if t.kind == BRK:
        return [t.x, t.y]
    if t.kind == GRAFT:
        return [*t.branches, t.root]
    if t.kind == OGRAFT:
        return [t.word, t.root]
    if t.kind == SYMGRAFT:
        return [*t.sym, t.root]
    return [*t.sym, t.y, t.z, t.w]


def _counts(t):
    """(vertices, brackets) of a term or OSBB word, counted recursively."""
    if not isinstance(t, OsbbWord) and t.kind == GEN:
        return 1, 0
    kids = [_counts(c) for c in _children(t)]
    brackets = sum(k[1] for k in kids)
    if not isinstance(t, OsbbWord) and t.kind == BRK:
        brackets += 1
    return sum(k[0] for k in kids), brackets


def test_derived_counts(A2):
    seen, todo = set(), []
    for n in range(1, 5):
        todo += enumerate_Bhat(n, A2) + enumerate_Shat(n, A2) + enumerate_T(n, A2)
    words = 0
    while todo:
        t = todo.pop()
        if t in seen:
            continue
        seen.add(t)
        todo += _children(t)
        assert (t.vc, t.bc) == _counts(t), t
        if isinstance(t, OsbbWord):
            words += 1
            assert t.length == sum(len(blk.sym) + 2 for blk in t.blocks) + len(t.tail)
        else:
            assert has_bracket(t) == (_counts(t)[1] > 0)
    assert words > 0


def test_memo():
    calls = []

    @memo({})
    def size(t):
        calls.append(t)
        return 1 + sum(size(c) for _, c in subterms(t))

    ab = brk(a, b)
    t = brk(ab, ab)
    assert size(t) == 7 and size(t) == 7
    assert sorted(map(id, calls)) == sorted(map(id, (t, ab, a, b)))

    calls.clear()

    @memo({})
    def is_gen(t):
        calls.append(t)
        return t.kind == GEN

    @memo({})
    def zero(t):
        calls.append(t)
        return LinComb()

    assert is_gen(ab) is False and is_gen(ab) is False
    assert zero(ab) == LinComb() and zero(ab) == LinComb()
    assert calls == [ab, ab]

    table = {}

    @memo(table)
    def brk_lc(x, y):
        return LinComb.of(brk(x, y))

    assert brk_lc(a, b) is brk_lc(a, b) and brk_lc(b, a) == LinComb.of(brk(b, a))
    assert set(table) == {(a, b), (b, a)}


def test_alphabet_value_equality():
    assert Alphabet(("a", "b")) == A and hash(Alphabet(("a", "b"))) == hash(A)
    assert Alphabet(("b", "a")) != A and Alphabet(("a",)) != A


def test_graft_requires_branches():
    with pytest.raises(AssertionError):
        graft((), a)
    with pytest.raises(AssertionError):
        graft((a,), graft((a,), a))


def test_lincomb_basic():
    x = LinComb.of(a, Fraction(2, 3)) + LinComb.of(a, Fraction(1, 3))
    assert x == LinComb.of(a)
    assert LinComb.of(a) - LinComb.of(a) == LinComb()
    assert LinComb.of(a).scale(0) == LinComb()
    assert not LinComb()
    assert LinComb.of(a, 0) == {} and LinComb.of(a, Fraction(0, 3)) == {}
    assert LinComb.of(a, Fraction(1, 3)).add_in(LinComb.of(a), Fraction(-1, 3)) == {}
    # a combination is the dict itself, with no instance attributes
    y = LinComb.of(a, 2) + LinComb.of(b, Fraction(1, 2))
    assert isinstance(y, dict) and not hasattr(y, "__dict__")
    assert dict(y) == {a: 2, b: Fraction(1, 2)} and y.get(brk(a, b), 0) == 0


_terms = st.sampled_from([a, b, brk(a, b), graft((a,), a), graft((b, a), a)])
_coeffs = st.one_of(st.integers(-4, 4),
                    st.fractions(min_value=-4, max_value=4, max_denominator=6))


def _lincombs():
    return st.lists(st.tuples(_terms, _coeffs), max_size=4).map(LinComb.from_pairs)


@given(_lincombs(), _lincombs(), _lincombs())
def test_lincomb_vector_space(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + LinComb() == x
    assert x - x == LinComb()


@given(_lincombs(), _lincombs(), _coeffs, _coeffs)
def test_lincomb_scaling(x, y, c, d):
    assert (x + y).scale(c) == x.scale(c) + y.scale(c)
    assert x.scale(c + d) == x.scale(c) + x.scale(d)
    assert x.scale(c).scale(d) == x.scale(c * d)


def _brk_and_double(s, t):
    return LinComb.of(brk(s, t), Fraction(1, 2)) + LinComb.of(s, 2)


@given(_lincombs(), _lincombs(), _coeffs)
def test_lincomb_no_zero_coefficients(x, y, k):
    acc = LinComb(x).add_in(y, k)
    back = LinComb(acc).add_in(x, -1)  # x taken back out: its terms cancel
    assert back == y.scale(k)
    for z in (x, y, x + y, x - y, -x, x.scale(k), acc, back,
              multilinear(_brk_and_double, x, y)):
        assert_exact_coefficients(z)


@given(_lincombs(), _coeffs)
def test_lincomb_add_in_itself(x, k):
    assert LinComb(x).add_in(LinComb(x), -1) == LinComb()
    y = LinComb(x)
    assert y.add_in(y, -1) == LinComb()
    y = LinComb(x)
    assert y.add_in(y) == 2 * x
    y = LinComb(x)
    assert y.add_in(y, k) == x.scale(1 + k)
    assert_exact_coefficients(y)


@given(_lincombs())
def test_lincomb_of_a_combination_is_a_copy(x):
    before = dict(x)
    y = LinComb(x)
    assert y == x and y is not x
    y.add_in(LinComb.of(a))
    y[b] = 7
    y.pop(brk(a, b), None)
    assert dict(x) == before


@given(_lincombs())
def test_int_and_fraction_coefficients_agree(x):
    y = LinComb({t: Fraction(c) for t, c in x.items()})
    assert x == y and hash(x) == hash(y)
    assert render_lincomb(x) == render_lincomb(y)
    assert lincomb_json(x) == lincomb_json(y)


@pytest.mark.parametrize("make", [
    lambda: LinComb.from_pairs([(a, 0.5)]),
    lambda: LinComb.of(a).add_in(LinComb.of(a), 0.25),
    lambda: LinComb.of(a, 0.1),
    lambda: LinComb.of(a).scale(0.1),
    lambda: LinComb.of(a, Decimal("0.5")),
    lambda: LinComb.of(a, "1/2"),
    lambda: multilinear(LinComb.of, LinComb({a: 0.5})),
], ids=["from_pairs-float", "add_in-float", "of-float", "scale-float", "of-decimal",
        "of-str", "multilinear-float"])
def test_inexact_coefficient_rejected(make):
    with pytest.raises(TypeError):
        make()
