"""Basis enumeration counts, conversions, the automorphism and its
triangularity, and the structural lemmas about products in the block basis."""
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import plyalg
from plyalg.bases import (BasisError, alpha_count, any_to_bhat, any_to_t, beta_count,
                          enumerate_Bhat, enumerate_S, enumerate_Shat, enumerate_T,
                          from_shat, phi, phi_inv, phi_lin, shat_elem_to_t,
                          shat_to_t, t_value, t_value_lin, to_shat)
from plyalg.orders import cmp_shat
from plyalg.tensor import tree_brk
from plyalg.terms import (SYMGRAFT, TRIPLE, Alphabet, LinComb, block, brk, graft,
                          ograft, osbb_word, symgraft, triple)

import lemmas

A1 = Alphabet.of_size(1)
A2 = Alphabet.of_size(2)
A3 = Alphabet.of_size(3)
a = A1.gens[0]


def test_counts_one_generator():
    assert [len(enumerate_S(n, A1)) for n in range(1, 6)] == [1, 1, 2, 5, 14]
    for n in range(1, 6):
        assert len(enumerate_S(n, A1)) == alpha_count(n, 1)
        assert len(enumerate_Shat(n, A1)) == beta_count(n, 1)
        assert len(enumerate_Bhat(n, A1)) == beta_count(n, 1)
        assert len(enumerate_T(n, A1)) == beta_count(n, 1)
    assert [beta_count(n, 1) for n in range(1, 6)] == [1, 2, 8, 40, 224]


def test_counts_two_generators():
    for n in range(1, 5):
        assert len(enumerate_Shat(n, A2)) == beta_count(n, 2)
        assert len(enumerate_Bhat(n, A2)) == beta_count(n, 2)
        assert len(enumerate_T(n, A2)) == beta_count(n, 2)


def test_to_from_shat_roundtrip():
    for n in range(1, 6):
        for t in enumerate_Bhat(n, A1):
            x = LinComb.of(t)
            assert from_shat(to_shat(x)) == x
    for n in range(1, 4):
        for t in enumerate_Bhat(n, A2):
            x = LinComb.of(t)
            assert from_shat(to_shat(x)) == x


def test_to_shat_fixes_block_shapes():
    # an element already of block shape converts to itself
    g2 = graft((a,), a)
    assert to_shat(LinComb.of(g2)) == LinComb.of(ograft(osbb_word((), (a,)), a))


def test_to_shat_splits_unordered_word():
    # branches (x, y) with x > y: s(x·y) plus half the bracket block
    x, y = graft((a,), a), a
    sx = ograft(osbb_word((), (a,)), a)
    t = graft((x, y), a)
    got = to_shat(LinComb.of(t))
    want = (LinComb.of(ograft(osbb_word((), (sx, a)), a))
            + LinComb.of(ograft(osbb_word((block((), sx, a),), ()), a),
                         Fraction(1, 2)))
    assert got == want


def test_phi_fixes_generators():
    assert phi(a) is a
    assert phi_inv(a) is a


def test_phi_on_bracket_block():
    # the block [g2, a] grafted on a maps to the bare triple-bracket
    sx = ograft(osbb_word((), (a,)), a)
    s = ograft(osbb_word((block((), sx, a),), ()), a)
    t = phi(s)
    assert t.kind == TRIPLE and not t.sym
    assert t.y == phi(sx) and t.z is a and t.w is a


def test_phi_on_pure_symmetric():
    sx = ograft(osbb_word((), (a,)), a)
    s = ograft(osbb_word((), (sx, a)), a)
    t = phi(s)
    assert t.kind == SYMGRAFT
    assert t.root is a


def test_phi_bijection_and_inverse():
    for n in range(1, 6):
        shat = enumerate_Shat(n, A1)
        ts = enumerate_T(n, A1)
        assert len(set(ts)) == len(shat)
        for s, t in zip(shat, ts):
            assert phi(s) is t
            assert phi_inv(t) is s


_PHI_INV_FIRST = """
    from plyalg import bases
    from plyalg.bases import enumerate_T, phi, phi_inv
    from plyalg.terms import Alphabet, block, brk, ograft, osbb_word, symgraft, triple

    A = Alphabet.of_size(2)
    a, b = A.gens
    lb = block((), b, a)
    sa = ograft(osbb_word((), (a,)), b)
    # each triple-basis term, built by the constructors, with its block term
    pairs = [
        (symgraft((a, b), a), ograft(osbb_word((), (a, b)), a)),
        (triple((), b, a, a), ograft(osbb_word((lb,), ()), a)),
        (triple((a,), b, a, b), ograft(osbb_word((block((a,), b, a),), ()), b)),
        (triple((), b, a, symgraft((b,), a)), ograft(osbb_word((lb,), (b,)), a)),
        (triple((), b, a, triple((), b, a, a)), ograft(osbb_word((lb, lb), ()), a)),
        (brk(triple((), b, a, a), b), brk(ograft(osbb_word((lb,), ()), a), b)),
        (triple((), symgraft((a,), b), a, b), ograft(osbb_word((block((), sa, a),), ()), b)),
    ]
    assert not bases._PHI and not bases._PHI_INV
    assert [phi_inv(t) for t, _ in pairs] == [s for _, s in pairs]
    assert not bases._PHI
    assert [phi(s) for _, s in pairs] == [t for t, _ in pairs]
    basis = {t for n in range(1, 6) for t in enumerate_T(n, A)}
    assert all(t in basis for t, _ in pairs)
"""


def test_phi_inv_before_any_phi():
    # a fresh process, so no call of phi has filled a table and phi_inv
    # computes every term by its own body
    env = dict(os.environ, PYTHONPATH=str(Path(plyalg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(_PHI_INV_FIRST)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_phi_triangularity():
    # expanding the value of phi(s) in block coordinates gives s plus
    # strictly smaller terms with coefficient 1 on s
    for n in range(1, 6):
        for s in enumerate_Shat(n, A1):
            coords = to_shat(t_value(phi(s)))
            assert coords.get(s, 0) == 1
            for u in coords:
                if u is not s:
                    assert cmp_shat(u, s) < 0


def test_phi_on_A():
    from plyalg.tensor import letters_to_words, lie_word, word_act_trees
    # generators are fixed
    assert phi_lin(to_shat(LinComb.of(a))) == LinComb.of(a)
    # the commutator word (g2·a − a·g2) grafted on a maps to a triple-bracket
    g2 = graft((a,), a)
    word = lie_word(letters_to_words(LinComb.of(g2)),
                    letters_to_words(LinComb.of(a)))
    out = phi_lin(to_shat(word_act_trees(word, LinComb.of(a))))
    assert len(out) == 1
    (t, c), = out.items()
    assert c == 1 and t.kind == TRIPLE and not t.sym


def test_shat_to_t_roundtrip():
    for n in range(1, 5):
        for s in enumerate_Shat(n, A1):
            x = LinComb.of(s)
            assert to_shat(t_value_lin(shat_to_t(x))) == x
        for t in enumerate_T(n, A1):
            x = LinComb.of(t)
            assert shat_to_t(to_shat(t_value_lin(x))) == x


def test_shat_elem_to_t_matches_triangular_solve():
    # every node converts by structure, a graft as its word's action on its
    # root; the triangular solve is only the oracle, and all must agree
    # with it on every element
    for alphabet, top in ((A1, 7), (A2, 5), (A3, 4)):
        for n in range(1, top + 1):
            for s in enumerate_Shat(n, alphabet):
                assert shat_elem_to_t(s) == lemmas.solve_to_t(s), s


@pytest.mark.parametrize("t", [graft((a,), a), symgraft((a,), a),
                               triple((), A2.gens[1], A2.gens[0], a)],
                         ids=["graft", "symgraft", "triple"])
def test_shat_elem_to_t_rejects_other_bases(t):
    with pytest.raises(BasisError):
        shat_elem_to_t(t)


def test_any_basis_maps_on_block_basis():
    # a block-basis element converts as its own basis's maps convert it
    for n in range(1, 5):
        for s in enumerate_Shat(n, A2):
            assert any_to_bhat(s) == from_shat(s), s
            assert any_to_t(s) == shat_elem_to_t(s), s


def test_any_basis_maps_on_bracket_of_two_bases():
    # the bracket is bilinear in every basis, so it may join two of them
    x, y = A2.gens
    u, v = graft((x,), y), triple((), y, x, x)
    for f in (any_to_bhat, any_to_t):
        assert f(brk(u, v)) == tree_brk(f(u), f(v)) != LinComb()


_x, _y = A2.gens


@pytest.mark.parametrize("t", [triple((), _y, _x, graft((_x,), _y)),
                               graft((triple((), _y, _x, _x),), _x),
                               symgraft((graft((_x,), _y),), _x),
                               ograft(osbb_word((), (graft((_x,), _y),)), _x),
                               triple((), ograft(osbb_word((), (graft((_x,), _y),)), _x),
                                      _x, _x),
                               ograft(osbb_word((block((), graft((_x,), _y), _x),), ()), _x),
                               ograft(osbb_word((block((graft((_x,), _y),), _y, _x),), ()),
                                      _x)],
                         ids=["triple", "graft", "symgraft", "ograft", "triple-ograft",
                              "block-bracket", "block-sym"])
def test_any_basis_maps_reject_foreign_subterm(t):
    # the term renders, its letters that no basis order sorts as stored, so
    # the BasisError that names it or a subterm renders too
    assert "gr(a; b)" in repr(t) or "tb(b, a, a)" in repr(t)
    for f in (any_to_bhat, any_to_t):
        with pytest.raises(BasisError):
            f(t)


# -- structural lemmas over the block basis -------------------------------------


def test_lemma_product_structure():
    assert lemmas.check_product_structure(A1, 200, seed=20) == 200


def test_corollary_triple_bracket_structure():
    assert lemmas.check_triple_bracket_structure(A1, 200, seed=21) == 200


def test_corollary_word_action_structure():
    assert lemmas.check_word_action_structure(A1, 200, seed=22) == 200


def test_lemma_symmetric_action_on_triple_bracket():
    assert lemmas.check_symmetric_action_leading_term(A1, 200, seed=23) == 200


def test_lemmas_two_generators():
    assert lemmas.check_product_structure(A2, 60, seed=24, max_total=5) == 60
    assert lemmas.check_triple_bracket_structure(A2, 60, seed=25, max_total=5) == 60
