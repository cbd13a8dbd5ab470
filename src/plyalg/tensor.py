"""Tensor algebra over a basis, with the triangle product extended by the
derivation rule (single letter on a product) and the associator rule (word of
length >= 2 acting), plus the word commutator, the triple-bracket, and the
symmetrization map.

Tensor words are plain tuples of basis elements; the empty tuple is the unit.
``triangle`` extends ``graft_product``, the free product of two tree-basis
letters.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .terms import BRK, GEN, GRAFT, LinComb, brk, canon_key, graft, memo, multilinear

EMPTY = ()


def unit():
    return LinComb.of(EMPTY)


def letters_to_words(x):
    """Embed a combination over letters as length-1 tensor words."""
    return LinComb(((t,), c) for t, c in x.items())


def words_to_letters(x):
    """Inverse embedding; every word must have length exactly one."""
    out = LinComb()
    for w, c in x.items():
        assert len(w) == 1, "not a letter-graded element: %r" % (w,)
        out[w[0]] = c
    return out


def tensor_mul(u, v):
    """Bilinear concatenation of tensor words."""
    return multilinear(lambda wu, wv: LinComb.of(wu + wv), u, v)


def lie_word(u, v):
    """Word commutator u·v - v·u."""
    return tensor_mul(u, v) - tensor_mul(v, u)


def word_lincomb(parts):
    """Concatenate a sequence of letter-combinations into a word combination."""
    return reduce(tensor_mul, map(letters_to_words, parts), unit())


def orderings(ms):
    """Each distinct ordering of a tuple whose equal letters are adjacent,
    once; in ``canon_key`` order when ``ms`` is sorted by ``canon_key``."""
    if not ms:
        return [EMPTY]
    return [(t,) + rest for i, t in enumerate(ms) if i == 0 or t is not ms[i - 1]
            for rest in orderings(ms[:i] + ms[i + 1:])]


def symmetrize(x):
    """Average a word combination over all letter permutations: each of a
    word's N = n!/(k1!·k2!···) distinct orderings has weight 1/N."""
    out = LinComb()
    for w, c in x.items():
        perms = orderings(tuple(sorted(w, key=canon_key)))
        out.add_in(LinComb.fromkeys(perms, 1), Fraction(c, len(perms)))
    return out


def triangle(u, v):
    """Triangle product of word combinations.

    Two single letters multiply by ``graft_product``. The empty word acts as
    the identity on the left; a nonempty word acting on the empty word gives 0.
    """
    return multilinear(lambda wu, wv: tri_words(wu, wv, graft_product), u, v)


def tri_words(wu, wv, prod):
    """The word ``wu`` acting on the word ``wv``, letters multiplied by
    ``prod`` (two letters -> a combination of letters)."""
    if not wu:
        return LinComb.of(wv)
    if not wv:
        return LinComb()
    if len(wu) == 1:
        return _derive(wu[0], wv, prod)
    # (x · rest) ▷ v  =  x ▷ (rest ▷ v)  -  (x ▷ rest) ▷ v
    x, rest = wu[0], wu[1:]
    out = tri_words(rest, wv, prod).map_terms(lambda w: _derive(x, w, prod))
    for w, c in _derive(x, rest, prod).items():
        out.add_in(tri_words(w, wv, prod), -c)
    return out


def _derive(x, w, prod):
    """Single letter acting on a word as a derivation. No two of its words
    are equal: the one from letter i differs from the rest at i, where its
    letter has more vertices than ``w[i]``."""
    return LinComb((w[:i] + (t,) + w[i + 1:], c)
                   for i, y in enumerate(w) for t, c in prod(x, y).items())


# -- the free product on the planar-tree basis --------------------------------

_PROD = {}


@memo(_PROD)
def graft_product(x, y):
    """Free triangle product of two tree-basis terms, expanded in the basis."""
    if y.kind in (GEN, BRK):
        return LinComb.of(graft((x,), y))
    assert y.kind == GRAFT
    # x ▷ (w ▷ r) = (x·w) ▷ r + (x ▷ w) ▷ r
    # the grafts are distinct, as their branch words are
    out = LinComb.of(graft((x,) + y.branches, y.root))
    for w, c in _derive(x, y.branches, graft_product).items():
        out[graft(w, y.root)] = c
    return out


def tree_mul(u, v):
    """Bilinear free product on tree-basis combinations."""
    return multilinear(graft_product, u, v)


def tree_brk(u, v):
    """Bilinear bracket of two combinations (of tree-basis or triple-basis
    terms)."""
    return multilinear(lambda x, y: LinComb.of(brk(x, y)), u, v)


def associator(x, y, z):
    """a(x,y,z) = x ▷ (y ▷ z) − (x ▷ y) ▷ z."""
    return tree_mul(x, tree_mul(y, z)) - tree_mul(tree_mul(x, y), z)


def triple_bracket(x, y, z):
    """[x,y,z] = a(x,y,z) − a(y,x,z); antisymmetric in the first two slots."""
    return associator(x, y, z) - associator(y, x, z)


def word_act_trees(w, v):
    """A word combination of tree-basis letters acting on a tree combination."""
    return words_to_letters(triangle(w, letters_to_words(v)))


def graft_words(words, roots):
    """A combination of nonempty words grafted onto a combination of
    generator and bracket roots. On such a root a word's action is its
    planar graft: ``graft_product`` and ``tri_words`` both follow
    G(x·w, r) = x ▷ G(w, r) − G(x ▷ w, r) from G(x, r) = x ▷ r, so this is
    ``word_act_trees(words, roots)`` without the recursion."""
    return multilinear(lambda w, r: LinComb.of(graft(w, r)), words, roots)
