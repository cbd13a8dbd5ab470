"""Bases of the free algebras and the maps between them.

Four bases appear: the planar-tree basis (Graft nodes), the symmetric-block
basis (OGraft nodes, OSBB words over itself), the triple basis (SymGraft and
Triple nodes, image of the block basis under the automorphism ``phi``), and
for the one-operator algebra the bracket-free restriction of the block
basis. Conversions are exact. ``shat_to_t`` converts a bracket and a
symmetric graft by structure, from their children's triple coordinates; a
graft of a word with bracket blocks by the triangularity of ``phi`` (the
value of phi(s) re-expanded in block coordinates is s plus strictly smaller
terms).
"""
from __future__ import annotations

import math
from . import osbb
from .orders import cmp_ints, cmp_shat, shat_key, sort_by
from .terms import (BRK, GEN, GRAFT, OGRAFT, SYMGRAFT, TRIPLE, BasisError, LinComb,
                    block, brk, canon_key, graft, memo, multilinear, ograft,
                    osbb_word, symgraft, triple)
from .tensor import (graft_words, orderings, symmetrize, tree_brk,
                     triple_bracket, word_act_trees, word_lincomb)


# -- tree basis <-> symmetric-block basis -------------------------------------

_TO_SHAT = {}


@memo(_TO_SHAT)
def to_shat_term(t):
    if t.kind == GEN:
        return LinComb.of(t)
    if t.kind == BRK:
        return tree_brk(to_shat_term(t.x), to_shat_term(t.y))
    if t.kind == GRAFT:
        word = word_lincomb([to_shat_term(b) for b in t.branches])
        dec = osbb.decompose(word, cmp_shat)
        return multilinear(lambda w, r: LinComb.of(ograft(w, r)),
                           dec, to_shat_term(t.root))
    raise BasisError("to_shat expects a tree-basis term, got %r" % t)


def to_shat(x):
    if not isinstance(x, LinComb):
        return to_shat_term(x)
    return x.map_terms(to_shat_term)


_FROM_SHAT = {}


@memo(_FROM_SHAT)
def from_shat_term(s):
    if s.kind == GEN:
        return LinComb.of(s)
    if s.kind == BRK:
        return tree_brk(from_shat_term(s.x), from_shat_term(s.y))
    if s.kind == OGRAFT:
        words = osbb.expand(s.word).map_terms(
            lambda w: word_lincomb([from_shat_term(l) for l in w]))
        return graft_words(words, from_shat_term(s.root))
    raise BasisError("from_shat expects a block-basis term, got %r" % s)


def from_shat(x):
    if not isinstance(x, LinComb):
        return from_shat_term(x)
    return x.map_terms(from_shat_term)


# -- the automorphism between the block basis and the triple basis ------------

_PHI, _PHI_INV = {}, {}


@memo(_PHI)
def phi(s):
    """Basis bijection: block-basis element -> triple-basis element."""
    if s.kind == GEN:
        t = s
    elif s.kind == BRK:
        t = brk(phi(s.x), phi(s.y))
    elif s.kind == OGRAFT:
        w = s.word
        if w.is_symmetric:
            t = symgraft(tuple(phi(l) for l in w.tail), phi(s.root))
        else:
            b0 = w.blocks[0]
            rest = osbb_word(w.blocks[1:], w.tail)
            inner = phi(ograft(rest, s.root)) if rest.length else phi(s.root)
            t = triple(tuple(phi(x) for x in b0.sym), phi(b0.y), phi(b0.z), inner)
    else:
        raise BasisError("phi expects a block-basis term, got %r" % s)
    return t


@memo(_PHI_INV)
def phi_inv(t):
    """Inverse of ``phi``: triple-basis element -> block-basis element."""
    if t.kind == GEN:
        s = t
    elif t.kind == BRK:
        s = brk(phi_inv(t.x), phi_inv(t.y))
    elif t.kind == SYMGRAFT:
        s = ograft(osbb_word((), tuple(phi_inv(b) for b in t.sym)), phi_inv(t.root))
    elif t.kind == TRIPLE:
        b0 = block(tuple(phi_inv(b) for b in t.sym), phi_inv(t.y), phi_inv(t.z))
        w = phi_inv(t.w)
        if w.kind == OGRAFT:
            s = ograft(osbb_word((b0,) + w.word.blocks, w.word.tail), w.root)
        else:
            s = ograft(osbb_word((b0,), ()), w)
    else:
        raise BasisError("phi_inv expects a triple-basis term, got %r" % t)
    return s


def phi_lin(x):
    return x.map_terms(lambda s: LinComb.of(phi(s)))


def phi_inv_lin(x):
    return x.map_terms(lambda t: LinComb.of(phi_inv(t)))


# -- orders on the triple basis ------------------------------------------------

_CMP_T = {}


@memo(_CMP_T)
def t_key(t):
    """Sort key of a triple-basis element: the pullback of ``shat_key``
    along phi."""
    return shat_key(phi_inv(t))


def cmp_t(x, y):
    """Pullback of the block-basis order along phi."""
    if x is y:
        return 0
    return cmp_ints(t_key(x), t_key(y))


_FOLIAGE = {}


@memo(_FOLIAGE)
def hall_t_key(t):
    """Hall sort key of a triple-basis element: its leaf word in the ternary
    magma over the non-triple elements (a bare triple-bracket splits,
    everything else is a single letter), length first and letters by
    ``t_key``; equal words fall back to ``t_key`` (total)."""
    tk = t_key(t)
    if t.kind == TRIPLE and not t.sym:
        word = hall_t_key(t.y)[1] + hall_t_key(t.z)[1] + hall_t_key(t.w)[1]
    else:
        word = (tk,)
    return (len(word), word, tk)


def cmp_hall_t(x, y):
    """Hall order on the triple basis."""
    if x is y:
        return 0
    return cmp_ints(hall_t_key(x), hall_t_key(y))


# -- evaluation and coordinate changes ----------------------------------------

_T_VALUE = {}


@memo(_T_VALUE)
def t_value(t):
    """The tree-basis value of a triple-basis element."""
    if t.kind == GEN:
        return LinComb.of(t)
    if t.kind == BRK:
        return tree_brk(t_value(t.x), t_value(t.y))
    if t.kind not in (SYMGRAFT, TRIPLE):
        raise BasisError("t_value expects a triple-basis term, got %r" % t)
    word = symmetrize(word_lincomb([t_value(b) for b in t.sym]))
    if t.kind == SYMGRAFT:
        return graft_words(word, t_value(t.root))
    v = triple_bracket(t_value(t.y), t_value(t.z), t_value(t.w))
    return word_act_trees(word, v) if t.sym else v


def t_value_lin(x):
    return x.map_terms(t_value)


_S2T = {}


@memo(_S2T)
def shat_elem_to_t(s):
    """Triple-basis coordinates of a block-basis element.

    A bracket and a symmetric graft convert by structure, from the
    coordinates of their children:

    - ``brk(x, y)`` maps to the bracket of the images of x and y, since the
      bracket is bilinear in both bases;
    - ``ograft(s(S), r)`` maps to the multilinear ``symgraft`` of the
      images of S's letters on the image of r, which is all generators and
      brackets. Grafting a word onto such a root is the word's action on it
      (``tensor.graft_words``), and ``symmetrize`` is multilinear.

    A graft of a word with bracket blocks keeps the triangular solve: a
    triple's slot conditions do not survive substitution."""
    if s.kind == GEN:
        return LinComb.of(s)
    if s.kind == BRK:
        return tree_brk(shat_elem_to_t(s.x), shat_elem_to_t(s.y))
    if s.kind == OGRAFT and s.word.is_symmetric:
        return multilinear(lambda r, *ls: LinComb.of(symgraft(ls, r)),
                           shat_elem_to_t(s.root), *map(shat_elem_to_t, s.word.tail))
    t = phi(s)
    delta = to_shat(t_value(t)) - LinComb.of(s)
    for u in delta:
        if cmp_shat(u, s) >= 0:
            raise BasisError("triangularity violated: %r appears in phi(%r)" % (u, s))
    out = LinComb.of(t)
    for u, c in delta.items():
        out.add_in(shat_elem_to_t(u), -c)
    return out


def shat_to_t(x):
    return x.map_terms(shat_elem_to_t)


def any_to_t(x):
    """Triple-basis coordinates of a combination given in any basis, node by
    node. The bracket is bilinear in every basis, so it may join two; any
    other node must be of its subterms' basis, else ``BasisError``. The
    rewrite reaches it through ``normal._to_t``, which caches it per term."""
    if not isinstance(x, LinComb):
        x = LinComb.of(x)

    def conv(t):
        if t.kind == BRK:
            return tree_brk(conv(t.x), conv(t.y))
        if t.kind == GRAFT:
            return to_shat_term(t).map_terms(shat_elem_to_t)
        if t.kind == OGRAFT:
            return shat_elem_to_t(t)
        phi_inv(t)  # checks a generator or triple-basis node
        return LinComb.of(t)

    return x.map_terms(conv)


def any_to_bhat(x):
    """Tree-basis value of a combination given in any basis, node by node,
    under ``any_to_t``'s rule on mixed bases."""
    if not isinstance(x, LinComb):
        x = LinComb.of(x)

    def conv(t):
        if t.kind == BRK:
            return tree_brk(conv(t.x), conv(t.y))
        if t.kind == OGRAFT:
            return from_shat_term(t)
        if t.kind in (SYMGRAFT, TRIPLE):
            return t_value(t)
        if t.kind == GRAFT:
            to_shat_term(t)  # checks it
        return LinComb.of(t)

    return x.map_terms(conv)


# -- graded enumeration ---------------------------------------------------------

def alpha_count(n, k):
    """Trees with n vertices over k colors: Catalan(n-1) * k^n."""
    return k ** n * math.comb(2 * n - 2, n - 1) // n


def beta_count(n, k):
    """Two-operator basis elements with n vertices over k colors."""
    return 2 ** (n - 1) * alpha_count(n, k)


def _branch_tuples(m, pool):
    """Every multiset of pool elements with total vc m, once, as a tuple in
    pool order."""
    pool = [t for t in pool if t.vc <= m]
    out = []

    def rec(i, rem, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        for j in range(i, len(pool)):
            if pool[j].vc <= rem:
                acc.append(pool[j])
                rec(j, rem - pool[j].vc, acc)
                acc.pop()

    rec(0, m, [])
    return out


def _graded(grade, n, alphabet, brackets, tree):
    """The n-vertex elements of the basis that ``grade(k, alphabet)`` lists:
    the generators at n = 1; else the brackets of two lower grades (if
    ``brackets``) and the words of lower grades grafted onto a generator or
    bracket root. The tree basis (``tree``) grafts the orderings of
    multisets and is sorted by ``canon_key``; a block basis grafts their
    OSBB words and is sorted by ``shat_key``."""
    assert n >= 1
    if n == 1:
        return tuple(alphabet.gens)
    node, key = (graft, canon_key) if tree else (ograft, shat_key)
    items = [brk(x, y) for i in range(1, n) if brackets
             for x in grade(i, alphabet) for y in grade(n - i, alphabet)]
    pool = [t for k in range(1, n) for t in grade(k, alphabet)]
    for rvc in range(1, n):
        roots = (alphabet.gens if rvc == 1 else
                 [t for t in grade(rvc, alphabet) if t.kind == BRK])
        if not roots:
            continue
        for b in _branch_tuples(n - rvc, pool):
            for w in (orderings(b) if tree else osbb.words_for_multiset(b, cmp_shat)):
                items.extend(node(w, r) for r in roots)
    return tuple(sort_by(items, key))


_S_GRADE, _SHAT_GRADE, _BHAT_GRADE = {}, {}, {}


@memo(_S_GRADE)
def enumerate_S(n, alphabet):
    """One-operator basis elements with n vertices, in increasing order."""
    return _graded(enumerate_S, n, alphabet, False, False)


@memo(_SHAT_GRADE)
def enumerate_Shat(n, alphabet):
    """Two-operator block-basis elements with n vertices, in increasing order."""
    return _graded(enumerate_Shat, n, alphabet, True, False)


@memo(_BHAT_GRADE)
def enumerate_Bhat(n, alphabet):
    """Two-operator tree-basis elements with n vertices (canonical order)."""
    return _graded(enumerate_Bhat, n, alphabet, True, True)


def enumerate_T(n, alphabet):
    """Triple-basis elements with n vertices, in increasing order."""
    return tuple(phi(s) for s in enumerate_Shat(n, alphabet))
