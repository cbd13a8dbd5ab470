"""Tensor algebra operations: concatenation, the extended triangle product,
the word commutator, the triple-bracket, and symmetrization."""
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from lemmas import assert_exact_coefficients
from plyalg.bases import enumerate_Bhat
from plyalg.tensor import (_derive, graft_product, graft_words, letters_to_words,
                           lie_word, orderings, symmetrize, tensor_mul, tree_mul,
                           triangle, triple_bracket, unit, word_act_trees)
from plyalg.terms import BRK, GEN, Alphabet, LinComb, canon_key, graft

A = Alphabet.of_size(3)
a, b, c = A.gens


def olc(*letters):
    return LinComb.of(tuple(letters))


def olc_trees(t):
    return LinComb.of(t)


def test_unit_and_concat():
    w = olc(a, b)
    assert tensor_mul(unit(), w) == w
    assert tensor_mul(olc(a), olc(b)) == olc(a, b)


def test_bilinearity():
    assert tensor_mul(olc(a) + olc(b), olc(c)) == olc(a, c) + olc(b, c)


def test_associator_rule():
    # (x · y) ▷ z  =  x ▷ (y ▷ z) − (x ▷ y) ▷ z
    lhs = triangle(olc(a, b), olc(c))
    rhs = (triangle(olc(a), triangle(olc(b), olc(c)))
           - triangle(triangle(olc(a), olc(b)), olc(c)))
    assert lhs == rhs


def test_forest_graft_is_tree():
    # (t1 ... tn) ▷ c builds the planar tree directly
    t1, t2 = graft((a,), a), b
    lhs = triangle(olc(t1, t2), olc(c))
    assert lhs == olc(graft((t1, t2), c))


def test_unit_rules():
    assert triangle(unit(), olc(a, b)) == olc(a, b)
    assert triangle(olc(a), unit()) == LinComb()


def test_lie_word():
    x, y = olc(a), olc(b)
    assert lie_word(x, x) == LinComb()
    assert lie_word(x, y) == olc(a, b) - olc(b, a)


def test_lie_word_jacobi():
    x, y, z = olc(a), olc(b), olc(c)
    total = (lie_word(lie_word(x, y), z) + lie_word(lie_word(y, z), x)
             + lie_word(lie_word(z, x), y))
    assert total == LinComb()


def test_commutator_acts_as_triple_bracket():
    # [x,y] ▷ z = [x,y,z]
    x, y, z = LinComb.of(a), LinComb.of(b), LinComb.of(c)
    lhs = word_act_trees(lie_word(letters_to_words(x), letters_to_words(y)), z)
    assert lhs == triple_bracket(x, y, z)


def test_triple_bracket_antisymmetry():
    x, z = LinComb.of(a), LinComb.of(c)
    assert triple_bracket(x, x, z) == LinComb()
    y = LinComb.of(b)
    assert triple_bracket(x, y, z) + triple_bracket(y, x, z) == LinComb()


def test_triple_bracket_expansion():
    # [a,b,c] = a▷(b▷c) − (a▷b)▷c − b▷(a▷c) + (b▷a)▷c; in the planar-tree
    # basis the nested-product summands cancel down to (ab − ba) ▷ c
    x, y, z = LinComb.of(a), LinComb.of(b), LinComb.of(c)
    out = triple_bracket(x, y, z)
    expected = (tree_mul(x, tree_mul(y, z)) - tree_mul(tree_mul(x, y), z)
                - tree_mul(y, tree_mul(x, z)) + tree_mul(tree_mul(y, x), z))
    assert out == expected
    assert out == olc_trees(graft((a, b), c)) - olc_trees(graft((b, a), c))


def test_symmetrize_small():
    assert symmetrize(olc(a)) == olc(a)
    assert symmetrize(olc(a, b)) == (olc(a, b) + olc(b, a)).scale(Fraction(1, 2))
    assert symmetrize(olc(a, a)) == olc(a, a)


def test_symmetrize_idempotent():
    w = olc(a, b, c) + olc(a, a, b).scale(Fraction(2, 5))
    assert symmetrize(symmetrize(w)) == symmetrize(w)


def _multisets():
    return [ms for n in range(7) for ms in combinations_with_replacement(A.gens, n)]


def test_orderings_match_the_permutations():
    # a canon-sorted multiset: every distinct permutation once, in the
    # order of their canon_key tuples
    for ms in _multisets():
        assert orderings(ms) == sorted(set(permutations(ms)),
                                       key=lambda w: tuple(map(canon_key, w))), ms


def test_orderings_of_a_pool_ordered_tuple():
    # equal letters adjacent but not in canon order: the same orderings,
    # each once
    for ms in _multisets():
        out = orderings(ms[::-1])
        assert len(out) == len(set(out)) and set(out) == set(permutations(ms)), ms


def _symmetrize_by_permutations(x):
    """Average over all n! permutations, each repeated ordering counted."""
    out = LinComb()
    for w, c in x.items():
        scale = c * Fraction(1, math.factorial(len(w)))
        for perm, mult in Counter(permutations(w)).items():
            out.add_in(LinComb.of(perm), scale * mult)
    return out


@pytest.mark.parametrize("coeff", [1, 3, 6, -20, Fraction(2, 3), Fraction(-5, 7)])
def test_symmetrize_repeated_letters(coeff):
    words = [(a, a, b), (a, b, a, c, a), (a, a, a, a, b, b)]
    xs = [LinComb.of(w, coeff) for w in words]
    xs.append(LinComb.of((b, a, a), coeff) + LinComb.of((a, b, a, c, a), 2)
              + LinComb.of((b, a, b, a, a, a), Fraction(1, 3)))
    for x in xs:
        y = symmetrize(x)
        assert y == _symmetrize_by_permutations(x), x
        assert_exact_coefficients(y)


def test_derivation_rule_sampled(A2):
    # x ▷ (w1 · w2) = (x ▷ w1) · w2 + w1 · (x ▷ w2) for single letters x
    rng = random.Random(3)
    pool = [t for n in range(1, 3) for t in enumerate_Bhat(n, A2)]
    for _ in range(40):
        x = rng.choice(pool)
        w1 = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
        w2 = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
        if x.vc + sum(t.vc for t in w1 + w2) > 6:
            continue
        lhs = triangle(olc(x), olc(*(w1 + w2)))
        rhs = (tensor_mul(triangle(olc(x), olc(*w1)), olc(*w2))
               + tensor_mul(olc(*w1), triangle(olc(x), olc(*w2))))
        assert lhs == rhs


def test_derive_sums_distinct_words(A2):
    # the one-pass derivation builds its words straight into a dict, so no
    # two may coincide; repeated letters included, it equals the sum built
    # term by term
    pool = [t for n in range(1, 3) for t in enumerate_Bhat(n, A2)]
    for x in pool:
        for w in [(y,) * k for y in pool for k in (1, 2, 3)] + [tuple(pool[:3])]:
            want = LinComb()
            for i, y in enumerate(w):
                for t, c in graft_product(x, y).items():
                    want.add_in(LinComb.of(w[:i] + (t,) + w[i + 1:]), c)
            assert _derive(x, w, graft_product) == want


def test_graft_words_is_the_action_on_roots(A2):
    # on generator and bracket roots a word acts by its planar graft:
    # random word combinations, half of them symmetrized, on sums of roots
    rng = random.Random(5)
    pool = [t for n in range(1, 3) for t in enumerate_Bhat(n, A2)]
    roots = [t for n in range(1, 4) for t in enumerate_Bhat(n, A2)
             if t.kind in (GEN, BRK)]
    for _ in range(40):
        words = LinComb.from_pairs(
            (tuple(rng.choice(pool) for _ in range(rng.randint(1, 3))),
             rng.randint(1, 3)) for _ in range(3))
        if rng.random() < 0.5:
            words = symmetrize(words)
        on = LinComb.from_pairs((rng.choice(roots), rng.randint(-2, 2) or 1)
                                for _ in range(2))
        grafted = graft_words(words, on)
        assert grafted and grafted == word_act_trees(words, on)
