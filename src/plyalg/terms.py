"""Interned term nodes and exact linear combinations.

Every node is hash-consed: all eight constructors, and the three magma
nodes of ``hall``, go through one interning function, ``_intern``, so
structurally equal terms, blocks, words and magma nodes are the same Python
object. Equality is therefore identity, and nodes hash by
identity (the object defaults), which keeps dict lookups and per-term memo
tables cheap. ``_intern`` fills the slots from the lookup key and derives
the vertex count ``vc`` and bracket count ``bc`` (and a word's ``length``)
from the children once, at construction.

Every per-term cache of the package is a module-level table filled by one
decorator, ``memo``; only the interning tables are written by hand.

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

A combination, ``LinComb``, is a dict from each term to its exact nonzero
coefficient: an ``int`` where the value is integral, else a ``Fraction``
(``exact``; floats are rejected). ``int`` arithmetic is much cheaper, and
``int`` and ``Fraction`` compare, hash and render alike.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce, wraps
from operator import mul

GEN, BRK, GRAFT, OGRAFT, SYMGRAFT, TRIPLE = range(6)


class BasisError(AssertionError):
    """A map of one basis met a node of another."""


def memo(table):
    """Cache a function in ``table``, keyed by its argument, or by the tuple
    of its arguments when it takes several. The function must not return
    None; a cached False or empty combination is a hit."""
    def wrap(f):
        # the one-argument wrapper keys by the argument itself: the hot maps
        # (is_B, order keys) take one, and a 1-tuple per entry costs memory
        if f.__code__.co_argcount == 1:
            def cached(x):
                v = table.get(x)
                if v is None:
                    v = table[x] = f(x)
                return v
        else:
            def cached(*args):
                v = table.get(args)
                if v is None:
                    v = table[args] = f(*args)
                return v
        return wraps(f)(cached)
    return wrap


class Term:
    __slots__ = ("vc", "bc")

    def __repr__(self):
        from .exprs import render_term
        return render_term(self)


class Gen(Term):
    __slots__ = ("name", "index")
    kind = GEN


class Brk(Term):
    __slots__ = ("x", "y")
    kind = BRK


class Graft(Term):
    __slots__ = ("branches", "root")
    kind = GRAFT


class OGraft(Term):
    __slots__ = ("word", "root")
    kind = OGRAFT


class SymGraft(Term):
    __slots__ = ("sym", "root")
    kind = SYMGRAFT


class Triple(Term):
    __slots__ = ("sym", "y", "z", "w")
    kind = TRIPLE


class Block:
    """One ordered symmetric-bracket block: s(sym) · [y, z]."""
    __slots__ = ("sym", "y", "z")

    def __repr__(self):
        return "Block(%r, %r, %r)" % (self.sym, self.y, self.z)

    @property
    def length(self):
        return len(self.sym) + 2


class OsbbWord:
    """Bracket blocks followed by a final symmetric multiset (may be empty)."""
    __slots__ = ("blocks", "tail", "length", "vc", "bc")

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


def _intern(table, cls, *key):
    """The one node of ``cls`` whose leading slots hold ``key``, built on
    first use. A term's or word's counts are summed over its children (the
    letters of a word), plus one vertex for a generator and one bracket for
    a bracket; a class without a ``vc`` slot (a block, a magma node) keeps
    no counts."""
    node = table.get(key)
    if node is None:
        node = table[key] = cls()
        for slot, part in zip(cls.__slots__, key):
            setattr(node, slot, part)
        if not hasattr(cls, "vc"):
            return node
        if cls is OsbbWord:
            kids = node.letters()
            node.length = len(kids)
        else:
            kids = [c for _, c in subterms(node)]
        node.vc = (cls is Gen) + sum(c.vc for c in kids)
        node.bc = (cls is Brk) + sum(c.bc for c in kids)
    return node


def gen(name, index):
    return _intern(_GEN, Gen, name, index)


def brk(x, y):
    return _intern(_BRK, Brk, x, y)


def graft(branches, root):
    branches = tuple(branches)
    assert branches, "graft needs at least one branch"
    assert root.kind in (GEN, BRK), "graft root must be a generator or bracket"
    return _intern(_GRAFT, Graft, branches, root)


def block(sym, y, z):
    return _intern(_BLOCK, Block, tuple(sorted(sym, key=canon_key)), y, z)


def osbb_word(blocks, tail):
    return _intern(_WORD, OsbbWord, tuple(blocks), tuple(sorted(tail, key=canon_key)))


def ograft(word, root):
    assert word.length > 0, "ograft word must be nonempty"
    assert root.kind in (GEN, BRK), "ograft root must be a generator or bracket"
    return _intern(_OGRAFT, OGraft, word, root)


def symgraft(sym, root):
    sym = tuple(sorted(sym, key=canon_key))
    assert sym, "symgraft needs at least one branch"
    assert root.kind in (GEN, BRK), "symgraft root must be a generator or bracket"
    return _intern(_SYM, SymGraft, sym, root)


def triple(sym, y, z, w):
    return _intern(_TRI, Triple, tuple(sorted(sym, key=canon_key)), y, z, w)


_CANON = {}


@memo(_CANON)
def canon_key(t):
    """Fixed structural sort key; an arbitrary total order used only where
    the mathematical orders are silent (storage canon, deterministic scans)."""
    if t.kind == GEN:
        return (GEN, t.index, t.name)
    if t.kind == BRK:
        return (BRK, canon_key(t.x), canon_key(t.y))
    if t.kind == GRAFT:
        return (GRAFT, canon_key(t.root), tuple(canon_key(b) for b in t.branches))
    if t.kind == OGRAFT:
        return (OGRAFT, canon_key(t.root), word_key(t.word))
    if t.kind == SYMGRAFT:
        return (SYMGRAFT, canon_key(t.root), tuple(canon_key(b) for b in t.sym))
    return (TRIPLE, tuple(canon_key(b) for b in t.sym),
            canon_key(t.y), canon_key(t.z), canon_key(t.w))


def word_key(w):
    return (tuple((tuple(canon_key(s) for s in b.sym), canon_key(b.y), canon_key(b.z))
                  for b in w.blocks),
            tuple(canon_key(s) for s in w.tail))


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
        return (tuple((("w", i), l) for i, l in enumerate(t.word.letters()))
                + (("root", t.root),))
    if t.kind == SYMGRAFT:
        return tuple((("s", i), b) for i, b in enumerate(t.sym)) + (("root", t.root),)
    return (tuple((("s", i), b) for i, b in enumerate(t.sym))
            + (("y", t.y), ("z", t.z), ("w", t.w)))


def has_bracket(t):
    """True if any Brk node occurs anywhere in the term."""
    return t.bc > 0


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

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)


ONE = 1


def exact(c):
    """A coefficient as stored: an ``int``, or a ``Fraction`` demoted to its
    numerator when that is its value. Anything that is not an ``int`` or a
    ``Fraction`` (a float, a string) raises TypeError, so no inexact value
    reaches a combination."""
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction and not isinstance(c, (int, Fraction)):
        raise TypeError("coefficient must be an int or a Fraction, not %r" % (c,))
    return c.numerator if c.denominator == 1 else c


class LinComb(dict):
    """Finite formal sum of basis elements (terms, tensor words, magma nodes)
    with exact rational coefficients: a dict from each term to its nonzero
    ``int`` or ``Fraction`` coefficient. ``LinComb(x)`` copies ``x``. To a
    dict it adds only exact coefficients (``of``, ``from_pairs``,
    ``add_in``), arithmetic, ``map_terms``, a hash and rendering."""
    __slots__ = ()

    @classmethod
    def of(cls, term, coeff=ONE):
        if coeff is not ONE:
            coeff = exact(coeff)
            if coeff == 0:
                return cls()
        out = cls()
        out[term] = coeff
        return out

    @classmethod
    def from_pairs(cls, pairs):
        out = cls()
        for t, c in pairs:
            out.add_in(cls.of(t), c)
        return out

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __add__(self, other):
        return LinComb(self).add_in(other)

    def __sub__(self, other):
        return LinComb(self).add_in(other, -1)

    def __neg__(self):
        out = LinComb()
        for t, c in self.items():
            out[t] = -c
        return out

    def scale(self, k):
        return LinComb().add_in(self, k)

    __mul__ = scale
    __rmul__ = scale

    def add_in(self, other, k=ONE):
        """In-place accumulate k*other (builder use only); the one
        accumulate loop of every sum, difference and scaling.
        A sum or product of ``Fraction``s that is integral is stored as
        its ``int`` numerator."""
        if k is not ONE:
            k = exact(k)
        if other is self:   # read a snapshot: terms that cancel are popped
            other = dict(other)
        get = self.get
        for t, c in other.items():
            if k is not ONE:
                c = c * k
            nc = get(t)
            if nc is not None:
                c = nc + c
            if c == 0:
                self.pop(t, None)
            else:
                if c.__class__ is not int and c.denominator == 1:
                    c = c.numerator
                self[t] = c
        return self

    def map_terms(self, f):
        """Linear extension of a map term -> LinComb (``multilinear`` with
        one combination)."""
        out = LinComb()
        for t, c in self.items():
            out.add_in(f(t), c)
        return out

    def __repr__(self):
        from .exprs import render_lincomb
        return render_lincomb(self)


def multilinear(f, *combs):
    """Multilinear extension of a map (term, ..., term) -> LinComb: the sum,
    over every choice of one term from each combination, of f at those terms
    times the product of their coefficients. Choices are visited in
    iteration order, the first combination outermost."""
    out = LinComb()
    for tcs in itertools.product(*(x.items() for x in combs)):
        ts, cs = zip(*tcs)
        out.add_in(f(*ts), reduce(mul, cs))
    return out
