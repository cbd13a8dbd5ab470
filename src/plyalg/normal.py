"""Normalization of free two-operator algebra elements onto the basis of the
free post-Lie-Yamaguti algebra, with replayable rewrite traces.

The working representation is the triple basis. The worklist is a priority
queue of the terms outside the target basis, largest first. Each step pops a
term and rewrites it in one walk down to its innermost reducible subterm:
the rule that ``_match`` finds there gives an image, which each level on the
way back up puts in place of its child (``subst``). The rules:

  PLY1        reorder or kill a bracket
  PLY2        push a symmetric word through a bracket root
  PLY3        push a symmetric word through a triple-bracket
  TB-antisym  reorder the first two triple-bracket slots
  PLY4        weak Jacobi for the triple-bracket (plus bracket terms)
  PLY6        derived derivation rule for nested triple-brackets
  PLY5        move a large bracket second-component out of a triple-bracket

The target basis is the set of terms on which no rule matches, so the rules
are stated once, in ``_match``: each as its name, its bindings and its
expander, and its image is the expander applied to the bindings' values.
The symmetric expansions of PLY2 and PLY3 share one letter action, ``_act``,
and are memoized per (sym, head) through ``terms.memo``, like every other
cache here. A derivation is a sum of ``subst`` over a node's children.
Products (``t_mul``, ``t_word_action``) and the input's change of basis
(``_to_t``) are one word action in triple coordinates, a term being a word
acting on a root, by the Guin–Oudom identities; it lives in ``bases``, so
this module is the rewriting alone.

Brackets are born oriented: ``_brk`` builds [[u,v]] as PLY1's image, the
rules build their brackets through it, and a rewrite starts from its input
with every bracket oriented (``_start``). So PLY1 and TB-antisym fire only
on input triples: TB-antisym on the first two slots of an input triple,
which orienting them can put out of order, and PLY1 never inside
``normalize``, only on a term handed to ``head_rewrite`` as it is.
Otherwise both stay in ``_match`` as the statement of ``is_B``.

Each rule application is one trace step, a deterministic function of the
term (``_rewrite_step``): ``normalize`` records its result memoized per term
(``_step``), and ``check_trace`` replays it by calling the same function
unmemoized, so it never reads that memo, though it shares the input
conversion memo (``_BH2T``) and the product memos (``_TMUL`` and the
tables of the word actions) with ``normalize``. A step keeps the
term's one-step image, not the working set, which ``check_trace`` rebuilds.
``plyalg normalize --trace FILE`` writes format 3: a header with
``"format": 3`` and the hash of the oriented input, then per step an
``after_hash`` of that image.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from fractions import Fraction
from dataclasses import dataclass

from .bases import _word_act, any_to_t, cmp_hall_t, cmp_t, enumerate_T, t_key
from .terms import (BRK, GEN, SYMGRAFT, TRIPLE, LinComb, brk, canon_key,
                    has_bracket, memo, multilinear, subterms, symgraft, triple)

DEFAULT_FUEL = 10 ** 6


class OrderConflictError(Exception):
    """The Hall order and the basis order disagree on the first two slots of
    a triple: ``triple_of`` orients triples by ``cmp_t``, ``_match`` tests
    ``cmp_hall_t`` for the TB-antisym rule. Seen from 7 vertices on, for
    example on ``gr(b, gr(b, a; a), b, b; a)`` over the generators a, b."""


class InternalRewriteError(Exception):
    pass


class FuelExhausted(Exception):
    def __init__(self, partial, trace):
        super().__init__("rewriting fuel exhausted")
        self.partial = partial
        self.trace = trace


@dataclass(frozen=True)
class RewriteStep:
    """``term``, with coefficient c, leaves the working set and c times
    ``after`` comes in: its one-step image, the head rule's image at
    ``path`` put back in place one level at a time, hashed as ``after_hash``
    in the trace file (format 3). A step is the value of
    ``_rewrite_step(term)``, and replays as that function's unmemoized
    result, equal in every field."""
    rule: str
    term: object          # the working term that was rewritten
    path: tuple           # position of the redex inside it
    bindings: tuple       # ((name, value), ...) for reporting
    after: LinComb        # the one-step image of ``term``


@dataclass(frozen=True)
class RewriteTrace:
    input: LinComb
    output: LinComb
    steps: tuple


# -- the target basis predicate -------------------------------------------------

_IS_B = {}


@memo(_IS_B)
def is_B(t):
    """Membership in the basis of the free post-Lie-Yamaguti algebra.

    The predicate is the fixed-point set of the rewriting rules: a
    triple-basis term whose children are in the basis and on which
    ``_match`` finds no rule. Linear independence modulo the ideal is
    machine-verified (exact-rank oracle over the full relation span)
    through six vertices over one generator and five over two; with two
    generators a dependence among six-vertex fixed points exists, so normal
    forms beyond that envelope are sound but not canonical. See the
    repository test suite.
    """
    return (t.kind in (GEN, BRK, SYMGRAFT, TRIPLE)
            and all(is_B(c) for _, c in subterms(t)) and _match(t) is None)


def enumerate_B(n, alphabet):
    """Basis elements with n vertices, in increasing order."""
    return tuple(t for t in enumerate_T(n, alphabet) if is_B(t))


def enumerate_B_lat(n, alphabet):
    """Bracket-free basis elements: the basis of the Lie admissible triple
    quotient."""
    return tuple(t for t in enumerate_B(n, alphabet) if not has_bracket(t))


def graded_dim(n, alphabet):
    """Dimension of the n-vertex graded component of the free algebra."""
    if isinstance(alphabet, int):
        from .terms import Alphabet
        alphabet = Alphabet.of_size(alphabet)
    return len(enumerate_B(n, alphabet))


def lat_project(x):
    """Kill every term containing a bracket node (the bracket -> 0 quotient)."""
    return LinComb((t, c) for t, c in x.items() if not has_bracket(t))


# -- exact helpers ---------------------------------------------------------------

_BH2T = {}


@memo(_BH2T)
def _to_t(t):
    """``t``, of any basis or a bracket joining two, in triple-basis
    coordinates (``any_to_t``, node by node) with its brackets oriented: the
    one route into them for ``_start``."""
    return any_to_t(t).map_terms(_orient)


# -- products in triple coordinates ------------------------------------------------

_TMUL = {}


@memo(_TMUL)
def t_mul(x, y):
    """Free triangle product of two triple-basis terms, in triple coordinates
    with brackets oriented: the one-letter word (x) acting on y, computed
    in triple coordinates (``bases._word_act``), never through trees."""
    return _word_act((x,), y).map_terms(_orient)


def t_mul_lin(X, Y):
    return multilinear(t_mul, X, Y)


def t_word_action(words, target):
    """A combination of words of triple-basis letters acting on a
    combination, in triple coordinates with brackets oriented."""
    return multilinear(_word_act, words, target).map_terms(_orient)


def triple_of(y, z, w):
    """Bare triple-bracket of basis terms, oriented for storage."""
    if y is z:
        return LinComb()
    if cmp_t(y, z) > 0:
        return LinComb.of(triple((), y, z, w))
    return LinComb.of(triple((), z, y, w), -1)


def triple_raw(Y, Z, W):
    return multilinear(triple_of, Y, Z, W)


def _of(t):
    return LinComb.of(t)


def _brk(u, v):
    """The bracket [[u,v]] born oriented: PLY1 applied as it is built, so
    the bracket comes out in the basis whenever u and v are."""
    if u is v:
        return LinComb()
    if cmp_hall_t(u, v) < 0:
        return LinComb.of(brk(v, u), -1)
    return LinComb.of(brk(u, v))


def _tree_brk(U, V):
    return multilinear(_brk, U, V)


_ORIENT = {}


@memo(_ORIENT)
def _orient(t):
    """``t`` with every bracket node re-bracketed by ``_brk``, inside out.
    Triple slots and ``sym`` multisets stay as they are."""
    if t.kind == GEN:
        return _of(t)
    if t.kind == BRK:
        return _tree_brk(_orient(t.x), _orient(t.y))
    sym = [_orient(s) for s in t.sym]
    if t.kind == SYMGRAFT:
        return multilinear(lambda r, *s: _of(symgraft(s, r)), _orient(t.root), *sym)
    return multilinear(lambda y, z, w, *s: _of(triple(s, y, z, w)),
                       _orient(t.y), _orient(t.z), _orient(t.w), *sym)


# -- rule expanders ---------------------------------------------------------------

def _derive(d, t):
    """A derivation ``d`` (term -> combination) on ``t``: the sum over its
    children of ``t`` with that child replaced by its image under ``d``."""
    out = LinComb()
    for slot, child in subterms(t):
        out.add_in(subst(t, slot, d(child)))
    return out


def _act(s, t):
    """A letter ``s`` acting on a term: on a bracket the derivation
    s ▷ [[u,v]] = [[s▷u, v]] + [[u, s▷v]], on a bare triple
    s ▷ [y,z,w] = [s▷y,z,w] + [y,s▷z,w] + [y,z,s▷w]
                  + (s · [[y,z]]) ▷ w − [[y,z]] ▷ (s ▷ w),
    and on any other term the product s ▷ t."""
    if not (t.kind == BRK or t.kind == TRIPLE and not t.sym):
        return t_mul(s, t)
    out = _derive(lambda x: t_mul(s, x), t)
    if t.kind == TRIPLE:
        out += t_word_action(LinComb.of((s, brk(t.y, t.z))), _of(t.w))
        out -= t_mul_lin(_of(brk(t.y, t.z)), t_mul(s, t.w))
    return out


def _sym_expander(table, head):
    """The expander s(sym) ▷ head(*parts) modulo the ideal (Guin–Oudom),
    memoized in ``table`` by (sym, head) with ``sym`` sorted as a term stores
    it: s(x·rest) ▷ h = x ▷ (s(rest) ▷ h) − Σ_j s(rest with x ▷ rest_j) ▷ h,
    averaged over x. A letter acts on a term by ``_act``."""
    @memo(table)
    def expand(sym, h):
        if len(sym) == 1:
            return _act(sym[0], h)
        out = LinComb()
        f = Fraction(1, len(sym))
        for i, s in enumerate(sym):
            rest = sym[:i] + sym[i + 1:]
            for t, c in expand(rest, h).items():
                out.add_in(_act(s, t), c * f)
            for j in range(len(rest)):
                for t2, c2 in t_mul(s, rest[j]).items():
                    word = tuple(sorted(rest[:j] + (t2,) + rest[j + 1:], key=canon_key))
                    out.add_in(expand(word, h), -c2 * f)
        return out
    return lambda sym, *parts: expand(sym, head(*parts))


_E2 = {}
# s(sym) ▷ [[u,v]]: a combination of brackets
_ply2_sym_step = _sym_expander(_E2, brk)

_E3 = {}
# s(sym) ▷ [y,z,w]: no symmetric part remains on any triple-bracket
_ply3_step = _sym_expander(_E3, lambda y, z, w: triple((), y, z, w))


def _cyc(t):
    x, y, z = t
    return ((x, y, z), (y, z, x), (z, x, y))


def _ply2_triple_step(y, z, u, v):
    # [y,z,[[u,v]]] = [[[y,z,u],v]] + [[u,[y,z,v]]]  (from PLY2)
    return _derive(lambda x: triple_of(y, z, x), brk(u, v))


def _antisym_step(y, z, w):
    # [y,z,w] -> −[z,y,w], and [y,y,w] -> 0
    if cmp_t(z, y) < 0:
        raise OrderConflictError(
            "Hall order and basis order disagree on %r vs %r" % (y, z))
    return -triple_of(z, y, w)


def _ply4_step(y, z, w):
    # [y,z,w] -> [y,w,z] − [z,w,y] + Σ_cyc ( [[[[α,β]],γ]] + [[α,β]] ▷ γ )
    out = triple_of(y, w, z) - triple_of(z, w, y)
    for a, b, g in _cyc((y, z, w)):
        out += _tree_brk(_brk(a, b), _of(g))
        out += t_mul(brk(a, b), g)
    return out


def _ply6_step(a, b, c, v, w):
    # [[a,b,c],v,w] -> [a,b,[c,v,w]] − [c,[a,b,v],w] − [c,v,[a,b,w]]
    #                  − ([a,b] · [[c,v]]) ▷ w + [[c,v]] ▷ [a,b,w]
    out = triple_raw(_of(a), _of(b), triple_of(c, v, w))
    out -= triple_raw(_of(c), triple_of(a, b, v), _of(w))
    out -= triple_raw(_of(c), _of(v), triple_of(a, b, w))
    words = LinComb.from_pairs([((a, b, brk(c, v)), 1), ((b, a, brk(c, v)), -1)])
    out -= t_word_action(words, _of(w))
    out += t_mul_lin(_of(brk(c, v)), triple_of(a, b, w))
    return out


def _ply5_step(u, v, z, w):
    # [[[u,v]],z,w] -> [[[u,z]],v,w] − [[[v,z]],u,w] + Σ_cyc(u,v,z) [[[[α,β]],γ]] ▷ w
    out = triple_raw(_of(brk(u, z)), _of(v), _of(w))
    out -= triple_raw(_of(brk(v, z)), _of(u), _of(w))
    for a, b, g in _cyc((u, v, z)):
        out += t_mul(brk(brk(a, b), g), w)
    return out


def _ply5_mid_step(u, v, z, w):
    # [z,[[u,v]],w] = −[[[u,v]],z,w]: TB-antisym, then PLY5
    return -_ply5_step(u, v, z, w)


# -- putting an image back in place ------------------------------------------------

def subst(t, slot, image):
    """``t`` with its child at ``slot`` replaced by ``image``, a combination,
    rebuilt one level up, multilinearly: each child in ``subterms`` order
    is ``image`` at ``slot`` and itself elsewhere."""
    parts = [image if s == slot else _of(c) for s, c in subterms(t)]
    if t.kind == BRK:
        return _tree_brk(*parts)
    if t.kind == SYMGRAFT:
        def graft(*kids):
            assert kids[-1].kind in (GEN, BRK), "graft root rewrote to a non-root shape"
            return _of(symgraft(kids[:-1], kids[-1]))
        return multilinear(graft, *parts)
    if t.kind == TRIPLE and not t.sym:  # a symmetric part makes a head redex
        return triple_raw(*parts)
    raise InternalRewriteError("cannot substitute into %r" % t)


# -- the head rules -----------------------------------------------------------------

def _match(s):
    """The rule that rewrites ``s``, a term whose children are all in the
    basis: (rule name, bindings, expander), or None when no rule applies.
    The image is the expander applied to the bindings' values, in order.
    The rules that read only the shape of ``s`` come first."""
    if s.kind == BRK:
        u, v = s.x, s.y
        if u is v or cmp_hall_t(u, v) < 0:
            # [[u,v]] -> −[[v,u]], and [[u,u]] -> 0
            return "PLY1", (("x", u), ("y", v)), _brk
    elif s.kind == SYMGRAFT:
        root = s.root
        if root.kind == BRK:
            return "PLY2", (("sym", s.sym), ("x", root.x), ("y", root.y)), _ply2_sym_step
    elif s.kind == TRIPLE:
        y, z, w = s.y, s.z, s.w
        if s.sym:
            return "PLY3", (("sym", s.sym), ("x", y), ("y", z), ("z", w)), _ply3_step
        if w.kind == BRK:
            # the image of a graft onto a bracket root
            return ("PLY2", (("x", y), ("y", z), ("u", w.x), ("v", w.y)),
                    _ply2_triple_step)
        if cmp_hall_t(y, z) <= 0:
            return "TB-antisym", (("x", y), ("y", z), ("z", w)), _antisym_step
        if cmp_hall_t(z, w) > 0:
            return "PLY4", (("x", y), ("y", z), ("z", w)), _ply4_step
        if y.kind == TRIPLE and not y.sym and cmp_hall_t(y.w, z) > 0:
            return ("PLY6", (("u", y.y), ("v", y.z), ("x", y.w), ("y", z), ("z", w)),
                    _ply6_step)
        if y.kind == BRK and cmp_hall_t(y.y, z) > 0:
            return "PLY5", (("x", y.x), ("y", y.y), ("z", z), ("u", w)), _ply5_step
        if z.kind == BRK and cmp_hall_t(z.y, y) > 0:
            return "PLY5", (("x", z.x), ("y", z.y), ("z", y), ("u", w)), _ply5_mid_step
    return None


def head_rewrite(s):
    """Rewrite a redex whose children are all in the basis: the expander
    that ``_match`` finds, applied to the values of its bindings.

    Returns (rule name, bindings, replacement combination).
    """
    m = _match(s)
    if m is None:
        raise InternalRewriteError("no rule applies to %r" % s)
    rule, bindings, expand = m
    return rule, bindings, expand(*(v for _, v in bindings))


# -- the worklist loop ----------------------------------------------------------------

def _start(x):
    """The working set a rewrite starts from: ``x`` in triple-basis
    coordinates, every bracket oriented, as a fresh combination."""
    return (x if isinstance(x, LinComb) else LinComb.of(x)).map_terms(_to_t)


def _rewrite_step(t):
    """The one rewrite step of a non-basis term, as a ``RewriteStep``: the
    step of its first child outside the basis, put back in place, or its
    head rule when there is none or the term is a triple with a symmetric
    part (reduced before its children, so slot constraints never bite)."""
    if not (t.kind == TRIPLE and t.sym):
        for slot, child in subterms(t):
            if not is_B(child):
                s = _rewrite_step(child)
                return RewriteStep(s.rule, t, (slot,) + s.path, s.bindings,
                                   subst(t, slot, s.after))
    rule, bindings, after = head_rewrite(t)
    return RewriteStep(rule, t, (), bindings, after)


_STEP = {}
_step = memo(_STEP)(_rewrite_step)


class _Desc:
    """Heap priority that pops the largest ``t_key`` first."""
    __slots__ = ("key",)

    def __init__(self, t):
        self.key = t_key(t)

    def __lt__(self, other):
        return self.key > other.key


def normalize(x, fuel=DEFAULT_FUEL):
    """Normalize a combination (any basis) onto the target basis.

    The worklist is a heap of (priority, term) entries for the non-basis
    terms of the working set, which rewrites the largest term by ``t_key``
    first. ``t_key`` is injective, so equal priorities mean one term and
    terms are never compared. Each step pushes the non-basis terms of its
    image; an entry whose term has left the working set is dropped when it
    reaches the top. A step costs its rule plus O(k log h) for the k terms
    of its image and a heap of h entries, not a scan of the working set.

    Returns (normal form, trace). Raises FuelExhausted with the partial
    state and trace if the step budget runs out.
    """
    start = _start(x)
    work = LinComb(start)
    steps = []
    heap = [(_Desc(t), t) for t in work if not is_B(t)]
    heapify(heap)
    while heap:
        t = heap[0][1]
        if t not in work:
            heappop(heap)
            continue
        if fuel <= 0:
            raise FuelExhausted(work, RewriteTrace(start, work, tuple(steps)))
        fuel -= 1
        heappop(heap)
        step = _step(t)
        steps.append(step)
        work.add_in(step.after, work.pop(t))
        for u in step.after:
            if u in work and not is_B(u):
                heappush(heap, (_Desc(u), u))
    return work, RewriteTrace(start, work, tuple(steps))


def check_trace(input_lc, output_lc, trace, explain=False):
    """Replay a trace: every step must equal the unmemoized result of the
    function that made it, ``_rewrite_step`` of its term, in every field
    (rule, path, bindings and image), and its image replaces the term in the
    working set, which must end equal to the output. It never reads
    ``_STEP``, but shares the input conversion memo ``_BH2T`` and the
    product memos (``_TMUL``, the word actions' tables) with ``normalize``."""

    def fail(msg):
        if explain:
            raise AssertionError(msg)
        return False

    cur = _start(input_lc)
    if trace.input != cur:
        return fail("trace input does not match")
    for i, step in enumerate(trace.steps):
        c = cur.pop(step.term, None)
        if c is None:
            return fail("step %d: rewritten term not present" % i)
        try:
            replay = _rewrite_step(step.term)
        except (InternalRewriteError, OrderConflictError) as e:
            return fail("step %d: %s" % (i, e))
        if replay != step:
            return fail("step %d: replay differs from the recorded step" % i)
        cur.add_in(replay.after, c)
    if cur != trace.output or cur != output_lc:
        return fail("trace output does not match")
    if any(not is_B(t) for t in cur):
        return fail("output contains non-basis terms")
    return True
