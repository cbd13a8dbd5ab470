"""Interned term nodes and exact linear combinations.

Every node is hash-consed: structurally equal terms are the same Python
object, so equality is identity, hashes are precomputed, and per-term memo
tables stay cheap. Vertex count ``vc`` and bracket count ``bc`` are stored
on the node at construction.

Node kinds
    Gen        generator (every basis)
    Brk        binary bracket of two terms (every basis)
    Graft      planar graft of an ordered branch word onto a root (tree basis)
    OGraft     graft of an OSBB word onto a root (symmetric-block basis)
    SymGraft   graft of a symmetric multiset onto a root (triple basis)
    Triple     s(x_1..x_n) ▷ [y,z,w] (triple basis)

Graft-like roots are restricted to Gen or Brk. Multisets are stored sorted
by a fixed structural key (``canon_key``); presentation orders live in the
orders module and are applied at comparison/printing time.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from operator import mul

GEN, BRK, GRAFT, OGRAFT, SYMGRAFT, TRIPLE = range(6)

_KIND_NAMES = {GEN: "Gen", BRK: "Brk", GRAFT: "Graft", OGRAFT: "OGraft",
               SYMGRAFT: "SymGraft", TRIPLE: "Triple"}


class Term:
    __slots__ = ("kind", "vc", "bc", "_hash", "_ckey")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other

    def __repr__(self):
        from .exprs import render_term
        return render_term(self)


class Gen(Term):
    __slots__ = ("name", "index")


class Brk(Term):
    __slots__ = ("x", "y")


class Graft(Term):
    __slots__ = ("branches", "root")


class OGraft(Term):
    __slots__ = ("word", "root")


class SymGraft(Term):
    __slots__ = ("sym", "root")


class Triple(Term):
    __slots__ = ("sym", "y", "z", "w")


class Block:
    """One ordered symmetric-bracket block: s(sym) · [y, z]."""
    __slots__ = ("sym", "y", "z", "_hash")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other

    def __repr__(self):
        return "Block(%r, %r, %r)" % (self.sym, self.y, self.z)

    @property
    def length(self):
        return len(self.sym) + 2


class OsbbWord:
    """Bracket blocks followed by a final symmetric multiset (may be empty)."""
    __slots__ = ("blocks", "tail", "length", "vc", "bc", "_hash")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other

    def __repr__(self):
        return "OsbbWord(%r, %r)" % (self.blocks, self.tail)

    @property
    def is_symmetric(self):
        return not self.blocks

    def letters(self):
        """All letters of the word as a tuple (block order, sym before pair)."""
        out = []
        for b in self.blocks:
            out.extend(b.sym)
            out.append(b.y)
            out.append(b.z)
        out.extend(self.tail)
        return tuple(out)


_GEN, _BRK, _GRAFT, _OGRAFT, _SYM, _TRI = {}, {}, {}, {}, {}, {}
_BLOCK, _WORD = {}, {}


def gen(name, index):
    key = (name, index)
    t = _GEN.get(key)
    if t is None:
        t = Gen()
        t.kind, t.name, t.index = GEN, name, index
        t.vc, t.bc = 1, 0
        t._hash = hash(("g", name, index))
        t._ckey = None
        _GEN[key] = t
    return t


def brk(x, y):
    key = (x, y)
    t = _BRK.get(key)
    if t is None:
        t = Brk()
        t.kind, t.x, t.y = BRK, x, y
        t.vc = x.vc + y.vc
        t.bc = 1 + x.bc + y.bc
        t._hash = hash(("b", x, y))
        t._ckey = None
        _BRK[key] = t
    return t


def graft(branches, root):
    branches = tuple(branches)
    assert branches, "graft needs at least one branch"
    assert root.kind in (GEN, BRK), "graft root must be a generator or bracket"
    key = (branches, root)
    t = _GRAFT.get(key)
    if t is None:
        t = Graft()
        t.kind, t.branches, t.root = GRAFT, branches, root
        t.vc = sum(b.vc for b in branches) + root.vc
        t.bc = sum(b.bc for b in branches) + root.bc
        t._hash = hash(("t", branches, root))
        t._ckey = None
        _GRAFT[key] = t
    return t


def block(sym, y, z):
    sym = tuple(sorted(sym, key=canon_key))
    key = (sym, y, z)
    b = _BLOCK.get(key)
    if b is None:
        b = Block()
        b.sym, b.y, b.z = sym, y, z
        b._hash = hash(("blk", sym, y, z))
        _BLOCK[key] = b
    return b


def osbb_word(blocks, tail):
    blocks = tuple(blocks)
    tail = tuple(sorted(tail, key=canon_key))
    key = (blocks, tail)
    w = _WORD.get(key)
    if w is None:
        w = OsbbWord()
        w.blocks, w.tail = blocks, tail
        w.length = sum(b.length for b in blocks) + len(tail)
        w.vc = sum(t.vc for t in w.letters())
        w.bc = sum(t.bc for t in w.letters())
        w._hash = hash(("w", blocks, tail))
        _WORD[key] = w
    return w


def ograft(word, root):
    assert word.length > 0, "ograft word must be nonempty"
    assert root.kind in (GEN, BRK), "ograft root must be a generator or bracket"
    key = (word, root)
    t = _OGRAFT.get(key)
    if t is None:
        t = OGraft()
        t.kind, t.word, t.root = OGRAFT, word, root
        t.vc = word.vc + root.vc
        t.bc = word.bc + root.bc
        t._hash = hash(("o", word, root))
        t._ckey = None
        _OGRAFT[key] = t
    return t


def symgraft(sym, root):
    sym = tuple(sorted(sym, key=canon_key))
    assert sym, "symgraft needs at least one branch"
    assert root.kind in (GEN, BRK), "symgraft root must be a generator or bracket"
    key = (sym, root)
    t = _SYM.get(key)
    if t is None:
        t = SymGraft()
        t.kind, t.sym, t.root = SYMGRAFT, sym, root
        t.vc = sum(b.vc for b in sym) + root.vc
        t.bc = sum(b.bc for b in sym) + root.bc
        t._hash = hash(("s", sym, root))
        t._ckey = None
        _SYM[key] = t
    return t


def triple(sym, y, z, w):
    sym = tuple(sorted(sym, key=canon_key))
    key = (sym, y, z, w)
    t = _TRI.get(key)
    if t is None:
        t = Triple()
        t.kind, t.sym, t.y, t.z, t.w = TRIPLE, sym, y, z, w
        t.vc = sum(b.vc for b in sym) + y.vc + z.vc + w.vc
        t.bc = sum(b.bc for b in sym) + y.bc + z.bc + w.bc
        t._hash = hash(("tr", sym, y, z, w))
        t._ckey = None
        _TRI[key] = t
    return t


def canon_key(t):
    """Fixed structural sort key; an arbitrary total order used only where
    the mathematical orders are silent (storage canon, deterministic scans)."""
    k = t._ckey
    if k is None:
        if t.kind == GEN:
            k = (GEN, t.index, t.name)
        elif t.kind == BRK:
            k = (BRK, canon_key(t.x), canon_key(t.y))
        elif t.kind == GRAFT:
            k = (GRAFT, canon_key(t.root), tuple(canon_key(b) for b in t.branches))
        elif t.kind == OGRAFT:
            k = (OGRAFT, canon_key(t.root), word_key(t.word))
        elif t.kind == SYMGRAFT:
            k = (SYMGRAFT, canon_key(t.root), tuple(canon_key(b) for b in t.sym))
        else:
            k = (TRIPLE, tuple(canon_key(b) for b in t.sym),
                 canon_key(t.y), canon_key(t.z), canon_key(t.w))
        t._ckey = k
    return k


def word_key(w):
    return (tuple((tuple(canon_key(s) for s in b.sym), canon_key(b.y), canon_key(b.z))
                  for b in w.blocks),
            tuple(canon_key(s) for s in w.tail))


EMPTY_WORD = osbb_word((), ())


def vertex_count(t):
    """Number of generator occurrences in the term."""
    return t.vc


def bracket_count(t):
    """Number of bracket nodes used to build the term."""
    return t.bc


def subterms(t):
    """The immediate children of a term as (slot, child) pairs."""
    if t.kind == GEN:
        return ()
    if t.kind == BRK:
        return (("x", t.x), ("y", t.y))
    if t.kind == GRAFT:
        return tuple((("b", i), b) for i, b in enumerate(t.branches)) + (("root", t.root),)
    if t.kind == OGRAFT:
        out = []
        for i, b in enumerate(t.word.blocks):
            out.extend(((("blk", i, "s", j), s) for j, s in enumerate(b.sym)))
            out.append((("blk", i, "y"), b.y))
            out.append((("blk", i, "z"), b.z))
        out.extend(((("tail", j), s) for j, s in enumerate(t.word.tail)))
        out.append((("root",), t.root))
        return tuple(out)
    if t.kind == SYMGRAFT:
        return tuple((("s", i), b) for i, b in enumerate(t.sym)) + (("root", t.root),)
    return (tuple((("s", i), b) for i, b in enumerate(t.sym))
            + (("y", t.y), ("z", t.z), ("w", t.w)))


_HAS_BRK = {}


def has_bracket(t):
    """True if any Brk node occurs anywhere in the term."""
    v = _HAS_BRK.get(t)
    if v is None:
        v = t.kind == BRK or any(has_bracket(c) for _, c in subterms(t))
        _HAS_BRK[t] = v
    return v


class Alphabet:
    """An ordered set of generators; list order is the generator order."""

    def __init__(self, names):
        names = tuple(names)
        assert len(set(names)) == len(names), "generator names must be unique"
        self.gens = tuple(gen(n, i) for i, n in enumerate(names))
        self.by_name = {g.name: g for g in self.gens}

    @classmethod
    def of_size(cls, k):
        assert 1 <= k <= 26
        return cls(tuple(chr(ord("a") + i) for i in range(k)))

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    def key(self):
        return tuple(g.name for g in self.gens)


ONE = Fraction(1)
ZERO = Fraction(0)


class LinComb:
    """Finite formal sum of basis elements with exact rational coefficients.

    Stored as a dict term -> nonzero Fraction. Works for any hashable basis
    kind (terms, tensor words, magma nodes).
    """
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def of(cls, term, coeff=ONE):
        if coeff is not ONE:
            coeff = Fraction(coeff)
            if coeff == 0:
                return cls()
        return cls({term: coeff})

    @classmethod
    def from_pairs(cls, pairs):
        out = {}
        for t, c in pairs:
            nc = out.get(t, ZERO) + c
            if nc == 0:
                out.pop(t, None)
            else:
                out[t] = nc
        return cls(out)

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, LinComb) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __iter__(self):
        return iter(self.terms)

    def items(self):
        return self.terms.items()

    def coeff(self, term):
        return self.terms.get(term, ZERO)

    def __add__(self, other):
        out = dict(self.terms)
        for t, c in other.terms.items():
            nc = out.get(t, ZERO) + c
            if nc == 0:
                out.pop(t, None)
            else:
                out[t] = nc
        return LinComb(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for t, c in other.terms.items():
            nc = out.get(t, ZERO) - c
            if nc == 0:
                out.pop(t, None)
            else:
                out[t] = nc
        return LinComb(out)

    def __neg__(self):
        return LinComb({t: -c for t, c in self.terms.items()})

    def scale(self, k):
        k = Fraction(k)
        if k == 0:
            return LinComb()
        return LinComb({t: c * k for t, c in self.terms.items()})

    __mul__ = scale
    __rmul__ = scale

    def add_in(self, other, k=ONE):
        """In-place accumulate k*other (builder use only)."""
        out = self.terms
        for t, c in other.terms.items():
            nc = out.get(t, ZERO) + c * k
            if nc == 0:
                out.pop(t, None)
            else:
                out[t] = nc
        return self

    def map_terms(self, f):
        """Linear extension of a map term -> LinComb (``multilinear`` with
        one combination)."""
        out = LinComb()
        for t, c in self.terms.items():
            out.add_in(f(t), c)
        return out

    def sorted_items(self, key=canon_key, reverse=False):
        return sorted(self.terms.items(), key=lambda tc: key(tc[0]), reverse=reverse)

    def __repr__(self):
        from .exprs import render_lincomb
        return render_lincomb(self)


def multilinear(f, *combs):
    """Multilinear extension of a map (term, ..., term) -> LinComb: the sum,
    over every choice of one term from each combination, of f at those terms
    times the product of their coefficients. Choices are visited in
    iteration order, the first combination outermost."""
    out = LinComb()
    for tcs in itertools.product(*(x.terms.items() for x in combs)):
        ts, cs = zip(*tcs)
        out.add_in(f(*ts), reduce(mul, cs))
    return out
