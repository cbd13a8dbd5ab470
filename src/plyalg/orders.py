"""Total orders on generators, OSBB words, and symmetric-block basis elements.

Each order is a tuple sort key, and the comparators return -1/0/+1 by
comparing keys. ``shat_key``, computed once per term and cached by
``terms.memo``, orders the symmetric-block basis: vertex count first, then
shape (generator < bracket < graft), then structure. The same key orders
the one-operator basis, whose elements are the bracket-free special case.
"""
from __future__ import annotations

from functools import cmp_to_key

from .terms import BRK, GEN, OGRAFT, BasisError, memo


def cmp_ints(a, b):
    return (a > b) - (a < b)


def cmp_gen(a, b):
    return cmp_ints(a.index, b.index)


def _desc(xs, key):
    return tuple(sorted(map(key, xs), reverse=True))


def delta_key(w, key):
    """Sort key of an OSBB word over letters ordered by ``key``: total length,
    then block by block. A block sorts by its length, z, y and its symmetric
    part; a bracket block sorts below a symmetric multiset of equal length."""
    items = [(b.length, 0, key(b.z), key(b.y), _desc(b.sym, key)) for b in w.blocks]
    if w.tail:
        items.append((len(w.tail), 1, _desc(w.tail, key)))
    return (w.length, tuple(items))


def cmp_delta(w1, w2, cmpl):
    """Order on OSBB words: total length first, then the first differing block."""
    if w1 is w2:
        return 0
    key = cmp_to_key(cmpl)
    return cmp_ints(delta_key(w1, key), delta_key(w2, key))


_CMP_SHAT = {}


@memo(_CMP_SHAT)
def shat_key(x):
    """Sort key of a symmetric-block basis element."""
    if x.kind == GEN:
        return (x.vc, GEN, x.index)
    if x.kind == BRK:
        return (x.vc, BRK, shat_key(x.x), shat_key(x.y))
    if x.kind != OGRAFT:
        raise BasisError("shat_key expects a block-basis term")
    return (x.vc, OGRAFT, x.word.vc, delta_key(x.word, shat_key), shat_key(x.root))


def cmp_shat(x, y):
    """Order on the symmetric-block basis of the free algebra."""
    if x is y:
        return 0
    return cmp_ints(shat_key(x), shat_key(y))


def sort_by(elems, key):
    return sorted(elems, key=key)

