"""Total orders on words, OSBB words, and symmetric-block basis elements.

All comparators return -1/0/+1. ``cmp_shat`` is the order used when forming
OSBB words over the two-operator basis: vertex count first, then shape
(generator < bracket < graft), then structure. The same function orders the
one-operator basis, whose elements are the bracket-free special case.
"""
from __future__ import annotations

from functools import cmp_to_key

from .terms import BRK, GEN, OGRAFT


def cmp_ints(a, b):
    return (a > b) - (a < b)


def cmp_gen(a, b):
    return cmp_ints(a.index, b.index)


def cmp_hall_words(a, b, cmpl):
    """Word order: longer words are larger, ties broken letterwise."""
    if len(a) != len(b):
        return cmp_ints(len(a), len(b))
    for x, y in zip(a, b):
        r = cmpl(x, y)
        if r:
            return r
    return 0


def _desc(xs, cmpl):
    return sorted(xs, key=cmp_to_key(cmpl), reverse=True)


def _cmp_desc_lex(a, b, cmpl):
    """Lexicographic comparison of equal-size multisets, largest letters first."""
    for x, y in zip(_desc(a, cmpl), _desc(b, cmpl)):
        r = cmpl(x, y)
        if r:
            return r
    return 0


def _cmp_sym(a, b, cmpl):
    # symmetric words: length, then descending-sorted letters
    if len(a) != len(b):
        return cmp_ints(len(a), len(b))
    return _cmp_desc_lex(a, b, cmpl)


def _cmp_block_pair(p, q, cmpl):
    # ordered symmetric-bracket blocks: sym size, then z, then y, then sym part
    r = cmp_ints(len(p.sym), len(q.sym))
    if r:
        return r
    r = cmpl(p.z, q.z)
    if r:
        return r
    r = cmpl(p.y, q.y)
    if r:
        return r
    return _cmp_desc_lex(p.sym, q.sym, cmpl)


def _stream(w):
    out = [("b", b) for b in w.blocks]
    if w.tail:
        out.append(("s", w.tail))
    return out


def cmp_delta(w1, w2, cmpl):
    """Order on OSBB words: total length first, then the first differing block.

    A bracket block beats a symmetric block only when it is strictly longer.
    """
    if w1 is w2:
        return 0
    if w1.length != w2.length:
        return cmp_ints(w1.length, w2.length)
    for a, b in zip(_stream(w1), _stream(w2)):
        ka, kb = a[0], b[0]
        if ka == "b" and kb == "b":
            r = _cmp_block_pair(a[1], b[1], cmpl)
        elif ka == "s" and kb == "s":
            r = _cmp_sym(a[1], b[1], cmpl)
        elif ka == "b":
            r = 1 if a[1].length > len(b[1]) else -1
        else:
            r = -1 if b[1].length > len(a[1]) else 1
        if r:
            return r
    raise AssertionError("distinct OSBB words compared equal: %r %r" % (w1, w2))


_CMP_SHAT = {}


def cmp_shat(x, y):
    """Order on the symmetric-block basis of the free algebra."""
    if x is y:
        return 0
    key = (x, y)
    r = _CMP_SHAT.get(key)
    if r is None:
        r = _cmp_shat(x, y)
        _CMP_SHAT[key] = r
        _CMP_SHAT[(y, x)] = -r
    return r


def _cmp_shat(x, y):
    if x.vc != y.vc:
        return cmp_ints(x.vc, y.vc)
    if x.kind != y.kind:
        return cmp_ints(x.kind, y.kind)  # Gen < Brk < OGraft
    if x.kind == GEN:
        return cmp_gen(x, y)
    if x.kind == BRK:
        r = cmp_shat(x.x, y.x)
        if r:
            return r
        return cmp_shat(x.y, y.y)
    assert x.kind == OGRAFT, "cmp_shat got a non-symmetric-block term"
    if x.word.vc != y.word.vc:
        return cmp_ints(x.word.vc, y.word.vc)
    r = cmp_delta(x.word, y.word, cmp_shat)
    if r:
        return r
    return cmp_shat(x.root, y.root)


def sort_by(elems, cmp, reverse=False):
    return sorted(elems, key=cmp_to_key(cmp), reverse=reverse)


def is_total_order(cmp, elems):
    """Spot check: antisymmetry and totality on a finite element list."""
    for a in elems:
        if cmp(a, a) != 0:
            return False
        for b in elems:
            if a is not b and cmp(a, b) != -cmp(b, a):
                return False
            if a is not b and cmp(a, b) == 0:
                return False
    return True
