"""Expression parsing, elaboration, and printing round trips."""
import itertools
from fractions import Fraction

import pytest

from plyalg.bases import from_shat, t_value
from plyalg.exprs import (ElabError, ParseError, parse_algebra, parse_tensor,
                          render_lincomb, render_term, lincomb_json)
from plyalg.hall import leaf
from plyalg.normal import enumerate_B
from plyalg.orders import cmp_shat
from plyalg.osbb import decompose
from plyalg.tensor import symmetrize, word_act_trees
from plyalg.bases import enumerate_S, enumerate_Shat
from plyalg.terms import Alphabet, LinComb, brk, graft

A1 = Alphabet.of_size(1)
A2 = Alphabet.of_size(2)
a = A1.gens[0]


def test_parse_basic():
    assert parse_algebra("bk(a,a)", A1) == LinComb.of(brk(a, a))
    assert parse_algebra("gr(a; a)", A1) == LinComb.of(graft((a,), a))


def test_parse_lincomb():
    x = parse_tensor("1/2 * w(a,b) + -1/2 * w(b,a)", A2)
    aa, bb = A2.gens
    assert x == (LinComb.of((aa, bb)) - LinComb.of((bb, aa))).scale(Fraction(1, 2))


def test_parse_zero():
    assert parse_algebra("0", A1) == LinComb()
    assert render_lincomb(LinComb()) == "0"


def test_whitespace_insensitive():
    assert parse_algebra(" bk( a ,\n a )", A1) == parse_algebra("bk(a,a)", A1)


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as e1:
        parse_algebra("bk(a,", A1)
    assert "column" in str(e1.value)
    with pytest.raises(ParseError):
        parse_algebra("3", A1)
    with pytest.raises(ParseError):
        parse_algebra("bk(a; a; a)", A1)
    with pytest.raises(ParseError):
        parse_algebra("$", A1)


def test_elab_errors():
    with pytest.raises(ElabError):
        parse_algebra("bk(a, b)", A1)          # unknown generator
    with pytest.raises(ElabError):
        parse_algebra("bk(a)", A1)             # arity
    with pytest.raises(ElabError):
        parse_algebra("gr(a; gr(a; a))", A1)   # graft root must be gen or bracket
    with pytest.raises(ElabError):
        parse_algebra("w(a, a)", A1)           # tensor word is not an algebra element
    with pytest.raises(ParseError):
        parse_algebra("gr(; a)", A1)           # missing branch list is a syntax error
    with pytest.raises(ElabError):
        parse_algebra("gr(s(); a)", A1)        # empty branch word


def test_triangle_and_commutator():
    # tri(lb(x, y), z) is the triple bracket
    from plyalg.tensor import triple_bracket
    x = parse_algebra("tri(lb(gr(a; a), a), a)", A1)
    g2 = LinComb.of(graft((a,), a))
    assert x == triple_bracket(g2, LinComb.of(a), LinComb.of(a))


def test_sg_matches_symmetrized_graft():
    x = parse_algebra("sg(gr(a; a), a; a)", A1)
    y = parse_algebra("1/2 * gr(gr(a; a), a; a) + 1/2 * gr(a, gr(a; a); a)", A1)
    assert x == y


@pytest.mark.parametrize("branches, root", [
    ("b", "a"), ("a, b", "a"), ("b, a, b", "bk(a, b)"), ("gr(a; b), a", "b"),
    ("a + b, bk(b, a)", "a - 2 * bk(a, b)")])
def test_sg_is_the_symmetric_word_acting_on_its_root(branches, root):
    # the reader grafts the symmetrized word; the word's action is the
    # triangle product's associator recursion
    word = parse_tensor("w(%s)" % branches, A2)
    expected = word_act_trees(symmetrize(word), parse_algebra(root, A2))
    assert parse_algebra("sg(%s; %s)" % (branches, root), A2) == expected


def test_render_examples():
    g2 = graft((a,), a)
    assert render_term(brk(g2, a)) == "bk(gr(a; a), a)"
    assert render_lincomb(LinComb.of(brk(g2, a), Fraction(-1))) == "-1 * bk(gr(a; a), a)"
    assert render_lincomb(LinComb.of(a, Fraction(1, 2))) == "1/2 * a"


def test_render_tensor_words_and_magma_nodes():
    # a sum of algebra and tensor elements promotes the algebra part to
    # one-letter words; both kinds of word render and parse back
    x = parse_tensor("a + w(a, b)", A2)
    assert len(x) == 2
    assert parse_tensor(render_lincomb(x), A2) == x
    assert repr(x) == render_lincomb(x) == "w(a, b) + a"
    assert repr(LinComb.of(leaf(a))) == "Leaf(a)"


def test_render_osbb_decomposition_parses_back():
    # an OSBB word prints as w(...) of s(...) and lb(y, z) items, which read
    # back as the tensor element it stands for; a magma node prints by repr
    for n in range(4):
        for w in itertools.product(A2.gens, repeat=n):
            x = LinComb.of(w)
            assert parse_tensor(render_lincomb(decompose(x, cmp_shat)), A2) == x
    assert render_term(leaf(a)) == repr(leaf(a)) == "Leaf(a)"


def test_roundtrip_tree_basis():
    from plyalg.bases import enumerate_Bhat
    for n in range(1, 5):
        for t in enumerate_Bhat(n, A1):
            x = LinComb.of(t)
            assert parse_algebra(render_lincomb(x), A1) == x


def test_roundtrip_block_basis_values():
    for n in range(1, 5):
        for s in enumerate_Shat(n, A1):
            val = from_shat(LinComb.of(s))
            assert parse_algebra(render_term(s), A1) == val


def test_roundtrip_basis_values():
    for n in range(1, 6):
        for t in enumerate_B(n, A1):
            val = t_value(t)
            assert parse_algebra(render_term(t), A1) == val


def test_roundtrip_s_basis_values():
    for n in range(1, 6):
        for s in enumerate_S(n, A1):
            val = from_shat(LinComb.of(s))
            assert parse_algebra(render_term(s), A1) == val


def test_json_rendering():
    x = LinComb.of(a, Fraction(1, 2)) - LinComb.of(brk(a, a))
    d = lincomb_json(x)
    assert {"coeff": "1/2", "expr": "a"} in d["terms"]
    assert {"coeff": "-1", "expr": "bk(a, a)"} in d["terms"]
