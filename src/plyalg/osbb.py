"""OSBB words: expansion into plain tensor words and the inverse
decomposition, which writes any tensor word uniquely as a combination of
ordered symmetric-bracket-block words over a totally ordered letter basis.

The decomposition works per (length, letter-multiset) component: enumerate
every OSBB word with that multiset, expand each into a sparse column, and
factor the exact linear system once (``linalg.invert``); a word reads only
its own column of the inverse. Components are cached by ``terms.memo``,
keyed by the sorted letter multiset and the letter order. A component is
N×N, N the distinct orderings of its letters: k! for k distinct letters,
n!/(k1!·k2!···) with repeats. At 5 distinct letters the first word takes
about 0.02 s and each further word 0.5 ms; at 6, 0.13 s and 3.5 ms.
"""
from __future__ import annotations

import itertools
from collections import Counter

from . import linalg
from .terms import LinComb, block, canon_key, memo, osbb_word
from .tensor import orderings, symmetrize, tensor_mul


def expand(word):
    """Expand one OSBB word into a combination of plain tensor words, from
    the tail leftwards; an empty tail or symmetric part is the unit."""
    out = symmetrize(LinComb.of(word.tail))
    for b in reversed(word.blocks):
        pair = LinComb.of((b.y, b.z)) - LinComb.of((b.z, b.y))
        out = tensor_mul(tensor_mul(symmetrize(LinComb.of(b.sym)), pair), out)
    return out


def expand_lincomb(x):
    return x.map_terms(expand)


def _submultisets(counter):
    items = sorted(counter, key=canon_key)
    ranges = [range(counter[t] + 1) for t in items]
    for picks in itertools.product(*ranges):
        yield tuple(t for t, k in zip(items, picks) for _ in range(k))


_WORDS_CACHE = {}


def words_for_multiset(letters, cmp):
    """Every OSBB word over the given letter multiset, as a tuple."""
    return _words(tuple(sorted(letters, key=canon_key)), cmp)


@memo(_WORDS_CACHE)
def _words(ms, cmp):
    out = [osbb_word((), ms)]
    cnt = Counter(ms)   # its keys are in ``ms`` order, sorted
    for y in cnt:
        for z in cnt:
            if cmp(y, z) <= 0:
                continue
            rem = cnt.copy()
            rem[y] -= 1
            rem[z] -= 1
            rem = +rem
            eligible = Counter({t: k for t, k in rem.items() if cmp(t, z) >= 0})
            for sym in _submultisets(eligible):
                rest = rem.copy()
                rest.subtract(Counter(sym))
                blk = block(sym, y, z)
                rest_tuple = tuple(t for t, k in rest.items() for _ in range(k))
                for tail_word in words_for_multiset(rest_tuple, cmp):
                    out.append(osbb_word((blk,) + tail_word.blocks, tail_word.tail))
    return tuple(out)


_COMPONENTS = {}


@memo(_COMPONENTS)
def _component(ms, cmp):
    words = words_for_multiset(ms, cmp)
    perms = orderings(ms)
    if len(words) != len(perms):
        raise linalg.SingularSolveError(
            "OSBB component is not square: %d words vs %d orderings for %r"
            % (len(words), len(perms), ms))
    index = {w: i for i, w in enumerate(perms)}
    return words, index, linalg.invert(
        [{index[w]: c for w, c in expand(ow).items()} for ow in words])


def decompose(x, cmp):
    """Write a combination of tensor words in the OSBB basis (exact)."""
    out = LinComb()
    for w, c in x.items():
        ms = tuple(sorted(w, key=canon_key))
        words, index, inv = _component(ms, cmp)
        for i, coeff in inv.column(index[w]):
            out.add_in(LinComb.of(words[i], coeff), c)
    return out
