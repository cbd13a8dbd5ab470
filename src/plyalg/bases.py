"""Bases of the free algebras and the maps between them.

Four bases appear: the planar-tree basis (Graft nodes), the symmetric-block
basis (OGraft nodes, OSBB words over itself), the triple basis (SymGraft and
Triple nodes, image of the block basis under the automorphism ``phi``), and
for the one-operator algebra the bracket-free restriction of the block
basis. Conversions are exact. ``shat_to_t`` converts every node by
structure, from its children's triple coordinates: a graft is its word's
action on its root, by the Guin–Oudom word action in triple coordinates
that the normalizer's products (``normal.t_mul``) also use.
"""
from __future__ import annotations

import math
from fractions import Fraction
from . import osbb
from .orders import cmp_ints, cmp_shat, shat_key, sort_by
from .terms import (BRK, GEN, GRAFT, OGRAFT, SYMGRAFT, TRIPLE, BasisError, LinComb,
                    block, brk, canon_key, graft, memo, multilinear, ograft,
                    osbb_word, symgraft, triple)
from .tensor import (graft_words, orderings, symmetrize, tensor_mul, tree_brk,
                     tri_words, triple_bracket, word_act_trees, word_lincomb)


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


# -- words acting in triple coordinates ------------------------------------------
#
# A triple-basis term is a word of the free algebra acting on a root:
# sg(S; r) = s(S) ▷ r and [y,z,w] = (yz − zy) ▷ w, s(S) the symmetrized word.
# Words act on words and on terms by the Guin–Oudom identities (deshuffle
# coproduct u(1) ⊗ u(2)): u ▷ (v ▷ t) = (u(1)·(u(2) ▷ v)) ▷ t, and
# u ▷ (v·v') = (u(1) ▷ v)·(u(2) ▷ v'). A word acting on a root is written in
# OSBB words over its triple-basis letters, each of which phi sends to one
# term up to strictly shorter words. Everything here is in free triple
# coordinates, brackets as built; ``shat_elem_to_t`` and ``normal.t_mul`` use it.

_SPLITS = {}


@memo(_SPLITS)
def _splits(u):
    """The deshuffle coproduct of the word ``u``: (u(1), u(2)) for every set
    of positions, u(1) the letters at them and u(2) the others."""
    n = len(u)
    return tuple((tuple(u[i] for i in range(n) if m >> i & 1),
                  tuple(u[i] for i in range(n) if not m >> i & 1))
                 for m in range(1 << n))


_WORD_ON_WORD = {}


@memo(_WORD_ON_WORD)
def _word_on_word(u, v):
    """The word ``u`` acting on the word ``v``, letters multiplied by the
    product here."""
    return tri_words(u, v, lambda x, y: _word_act((x,), y))


def _gl(us, vs):
    """Σ U(1)·(U(2) ▷ V) over the splits of the words of ``us``: the words
    whose action is U ▷ (V ▷ ·). The splits with U(2) empty sum to U·V."""
    out = LinComb()
    for u, cu in us.items():
        for u1, u2 in _splits(u):
            for v, cv in vs.items():
                for w, cw in (_word_on_word(u2, v) if u2 else {v: 1}).items():
                    out.add_in({u1 + w: cw}, cu * cv)
    return out


def _sym_words(sym):
    """s(sym), the symmetrized word of ``sym``."""
    return symmetrize(LinComb.of(sym))


def _lie(y, z):
    """The words yz − zy."""
    return LinComb.from_pairs((((y, z), 1), ((z, y), -1)))


_TRIPLE_WORDS = {}


@memo(_TRIPLE_WORDS)
def _triple_words(sym, y, z):
    """The words V with s(sym) ▷ [y,z,w] = V ▷ w: s(sym)(1)·(s(sym)(2) ▷
    (yz − zy))."""
    return _gl(_sym_words(sym), _lie(y, z))


_SYM_ACT = {}


@memo(_SYM_ACT)
def _sym_act(u, sym):
    """u ▷ s(sym), symmetric again: the sum over the splits of ``u`` of
    (u(1) ▷ sym[0]) times u(2) ▷ s(sym[1:]), as sorted multisets."""
    if not sym:
        return LinComb() if u else LinComb.of(())
    out = LinComb()
    for u1, u2 in _splits(u):
        first = _word_act(u1, sym[0]) if u1 else LinComb.of(sym[0])
        for rest, c in _sym_act(u2, sym[1:]).items():
            for t, ct in first.items():
                out.add_in({tuple(sorted((t,) + rest, key=canon_key)): ct}, c)
    return out


def _on_root(words, r):
    """A combination of nonempty words acting on a generator or bracket
    root ``r``. A word of one repeated letter is its symmetric graft; a word
    xy of two letters is s(x,y) + (xy − yx)/2, its OSBB decomposition in
    closed form, which spares the commonest component its factorization;
    the others go through their OSBB decomposition."""
    out, mixed = LinComb(), LinComb()
    for w, c in words.items():
        if w.count(w[0]) == len(w):
            out.add_in(LinComb.of(symgraft(w, r)), c)
        elif len(w) == 2:
            y, z = w if cmp_t(w[0], w[1]) > 0 else (w[1], w[0])
            out.add_in(LinComb.of(symgraft(w, r)), c)
            out.add_in(LinComb.of(triple((), y, z, r)), c * Fraction(1 if y is w[0] else -1, 2))
        else:
            mixed[w] = c
    if mixed:
        for ow, c in osbb.decompose(mixed, cmp_t).items():
            out.add_in(_osbb_act(ow, r), c)
    return out


_OSBB_ACT = {}


@memo(_OSBB_ACT)
def _osbb_act(ow, r):
    """An OSBB word acting on a root. A symmetric word is a symmetric graft;
    b0·rest, b0 = s(S0)·(yz − zy), is triple(S0, y, z, X) over X = rest ▷ r,
    minus (s(S0)(1)·(s(S0)(2) ▷ (yz − zy))) ▷ X and (b0(1)·(b0(2) ▷ rest)) ▷ r
    over the splits with s(S0)(2), b0(2) nonempty: strictly shorter words."""
    if ow.is_symmetric:
        return LinComb.of(symgraft(ow.tail, r))
    b0 = ow.blocks[0]
    rest = osbb_word(ow.blocks[1:], ow.tail)
    xs = _osbb_act(rest, r) if rest.length else LinComb.of(r)
    out = xs.map_terms(lambda x: LinComb.of(triple(b0.sym, b0.y, b0.z, x)))
    lead = tensor_mul(_sym_words(b0.sym), _lie(b0.y, b0.z))
    shorter = _triple_words(b0.sym, b0.y, b0.z) - lead
    out -= xs.map_terms(lambda x: _words_on(shorter, x))
    if rest.length:
        rest_words = osbb.expand(rest)
        out -= _on_root(_gl(lead, rest_words) - tensor_mul(lead, rest_words), r)
    return out


def _words_on(words, t):
    """A combination of nonempty words acting on a triple-basis term."""
    if t.kind == GEN or t.kind == BRK:
        return _on_root(words, t)
    return words.map_terms(lambda u: _word_act(u, t))


_WORD_ACT = {}


@memo(_WORD_ACT)
def _word_act(u, t):
    """The nonempty word ``u`` acting on the triple-basis term ``t``, by the
    kind of ``t``: on a root, its OSBB decomposition; on sg(S; r),
    (u(1)·(u(2) ▷ s(S))) ▷ r, whose splits with u(1) empty are symmetric
    grafts; on a triple V ▷ w, (u(1)·(u(2) ▷ V)) ▷ w."""
    if t.kind == GEN or t.kind == BRK:
        return _on_root(LinComb.of(u), t)
    if t.kind == TRIPLE:
        return _words_on(_gl(LinComb.of(u), _triple_words(t.sym, t.y, t.z)), t.w)
    out, words = LinComb(), LinComb()
    for u1, u2 in _splits(u):
        for sym, c in _sym_act(u2, t.sym).items():
            if u1:
                words.add_in(tensor_mul(LinComb.of(u1), _sym_words(sym)), c)
            else:
                out.add_in(LinComb.of(symgraft(sym, t.root)), c)
    return out.add_in(_on_root(words, t.root))


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

    Every node converts by structure, from its children's coordinates:

    - a generator is itself;
    - ``brk(x, y)`` maps to the bracket of the images of x and y, since the
      bracket is bilinear in both bases;
    - ``ograft(w, r)`` is the action of the words ``expand(w)`` on the root
      r (``tensor.graft_words``), so it maps to those words, each letter
      replaced by its image, acting on the image of r, which is all
      generators and brackets (``_on_root``). Both are multilinear, and a
      symmetric word is no special case."""
    if s.kind == GEN:
        return LinComb.of(s)
    if s.kind == BRK:
        return tree_brk(shat_elem_to_t(s.x), shat_elem_to_t(s.y))
    if s.kind != OGRAFT:
        raise BasisError("shat_elem_to_t expects a block-basis term, got %r" % s)
    words = osbb.expand(s.word).map_terms(
        lambda w: word_lincomb([shat_elem_to_t(l) for l in w]))
    return shat_elem_to_t(s.root).map_terms(lambda r: _on_root(words, r))


def shat_to_t(x):
    return x.map_terms(shat_elem_to_t)


def any_to_t(x):
    """Triple-basis coordinates of a combination given in any basis, node by
    node. The bracket is bilinear in every basis, so it may join two; any
    other node must be of its subterms' basis, else ``BasisError``. A block
    graft converts by ``shat_elem_to_t``, a tree graft through its block
    coordinates (``to_shat_term``). The rewrite reaches it through
    ``normal._to_t``, which caches it per term."""
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
