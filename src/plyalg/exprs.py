"""Concrete expression syntax for the engine.

Grammar (whitespace insignificant)::

    expr   := term (("+" | "-") term)*
    term   := [sign] [rat "*"] atom | "0"
    rat    := [sign] int ["/" int]
    atom   := ident | func "(" args ")"
    funcs  := bk(e,e) | tb(e,e,e) | gr(e,..; e) | sg(e,..; e)
              | s(e,...) | w(e,...) | tri(e,e) | lb(e,e)

An identifier not followed by ``(`` is a generator. ``gr``/``sg`` take
branches, then ``;``, then a root that must evaluate to generators and
brackets; ``_ARGS`` lists each function's arguments. Values are either
algebra elements (combinations over the planar-tree basis) or tensor elements
(combinations over words of tree-basis terms, which are tuples); a value
carries its kind in its terms, and a zero reads as either. Text is read in
one pass that evaluates each rule as it reads it, so the first error in
reading order is the one reported, and at most ``MAX_NESTING`` calls may be
open at once.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key, reduce

from .terms import (BRK, GEN, GRAFT, OGRAFT, SYMGRAFT, TRIPLE, BasisError, LinComb,
                    OsbbWord, Term, canon_key)
from .tensor import (graft_words, letters_to_words, lie_word, symmetrize,
                     tensor_mul, tree_brk, triangle, triple_bracket, unit,
                     words_to_letters)

# Most calls that may be open at once. The reader takes 3 frames per open
# call and the engine up to 4 per level of the term (`orders.shat_key`, its
# memo wrapper and `delta_key`), against the default recursion limit of
# 1000. With no limit, called from 150 frames deep on CPython 3.10,
# `gr(gr(...; a); a)` normalizes and renders up to depth 168, and
# `bk(a, bk(a, ...))` up to 279, where the reader's own frames run out.
MAX_NESTING = 150


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line, self.col = line, col


class ElabError(Exception):
    pass


_SYMBOLS = "(),;/*+-"


def tokenize(text):
    toks = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch == "\n":
            line, col = line + 1, 0  # the update below makes it column 1
        elif ch in _SYMBOLS:
            toks.append((ch, ch, line, col))
        elif ch.isdecimal() or ch.isalpha() or ch == "_":
            # an integer is decimal digits; an identifier is letters, digits
            # and '_', led by a letter or '_'
            kind = "int" if ch.isdecimal() else "ident"
            while j < n and (text[j].isdecimal() if kind == "int"
                             else text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append((kind, text[i:j], line, col))
        elif not ch.isspace():
            raise ParseError("unexpected character %r" % ch, line, col)
        col += j - i
        i = j
    toks.append(("eof", "", line, col))
    return toks


class _Reader:
    """Recursive descent over the tokens of one text. Each rule evaluates as
    it reads and returns a LinComb, an algebra or a tensor element."""

    def __init__(self, text, alphabet):
        self.toks = tokenize(text)
        self.pos = 0
        self.alphabet = alphabet
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, t[1] or "end of input"),
                             t[2], t[3])
        return t

    def read(self):
        v = self.expr()
        t = self.peek()
        if t[0] != "eof":
            raise ParseError("unexpected %r" % t[1], t[2], t[3])
        return v

    def expr(self):
        # every rule returns a new combination, so a sum accumulates into
        # its first term; one tensor part makes the whole sum a tensor
        out = self.term()
        while self.peek()[0] in "+-":
            sign = 1 if self.next()[0] == "+" else -1
            v = self.term()
            if _is_d(out) != _is_d(v):
                out, v = _as_d(out), _as_d(v)
            out.add_in(v, sign)
        return out

    def term(self):
        sign = 1
        while self.peek()[0] == "-":
            self.next()
            sign = -sign
        t = self.peek()
        coeff = 1
        if t[0] == "int":
            num = int(self.next()[1])
            if self.peek()[0] == "/":
                self.next()
                tok = self.expect("int")
                den = int(tok[1])
                if den == 0:
                    raise ParseError("zero denominator", tok[2], tok[3])
                coeff = Fraction(num, den)
            else:
                coeff = num
            if self.peek()[0] != "*":
                if coeff == 0:
                    return LinComb()
                raise ParseError("a bare number is not an element (write c * expr)",
                                 t[2], t[3])
            self.next()
        v = self.atom()
        return v if sign * coeff == 1 else v.scale(sign * coeff)

    def atom(self):
        _, name, line, col = self.expect("ident")
        if self.peek()[0] != "(":
            g = self.alphabet.by_name.get(name)
            if g is None:
                raise ElabError("unknown generator %r (line %d, column %d)"
                                % (name, line, col))
            return LinComb.of(g)
        paren = self.next()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested too deeply", paren[2], paren[3])
        vals, rvals = [], None
        if self.peek()[0] != ")":
            current = vals
            current.append(self.expr())
            while self.peek()[0] in (",", ";"):
                sep = self.next()
                if sep[0] == ";":
                    if rvals is not None:
                        raise ParseError("only one ';' allowed", sep[2], sep[3])
                    rvals = current = []
                current.append(self.expr())
        self.expect(")")
        self.depth -= 1
        return _call(name, vals, rvals, line, col)


def _is_d(val):
    """Whether a value is a tensor element: its terms are words (tuples). A
    zero reads the same either way."""
    return isinstance(next(iter(val), None), tuple)


def _as_d(val):
    return val if _is_d(val) else letters_to_words(val)


def _as_a(val, what="expression"):
    if not _is_d(val):
        return val
    if any(len(w) != 1 for w in val):
        raise ElabError("%s is a tensor element, not an algebra element" % what)
    return words_to_letters(val)


# each function's arguments: how many, None for any number, or "root" for
# one or more branches, then ';', then one root
_ARGS = {"bk": 2, "tb": 3, "gr": "root", "sg": "root", "s": None, "w": None,
         "tri": 2, "lb": 2}


def _call(fn, vals, rvals, line, col):
    """The value of ``fn`` applied to the read arguments ``vals`` and, after
    a ``;``, ``rvals``."""
    at = " (line %d, column %d)" % (line, col)
    if fn not in _ARGS:
        raise ElabError("unknown function %r%s" % (fn, at))
    n = _ARGS[fn]
    if n == "root":
        if rvals is None or len(rvals) != 1 or not vals:
            raise ElabError("%s expects branches ';' root%s" % (fn, at))
    elif rvals is not None:
        raise ElabError("%s takes no ';' part%s" % (fn, at))
    elif n is not None and len(vals) != n:
        raise ElabError("%s expects %d arguments, got %d%s" % (fn, n, len(vals), at))
    if fn == "bk":
        return tree_brk(_as_a(vals[0]), _as_a(vals[1]))
    if fn == "tb":
        return triple_bracket(_as_a(vals[0]), _as_a(vals[1]), _as_a(vals[2]))
    if fn == "tri":
        return triangle(_as_d(vals[0]), _as_d(vals[1]))
    if fn == "lb":
        return lie_word(_as_d(vals[0]), _as_d(vals[1]))
    word = reduce(tensor_mul, map(_as_d, vals), unit())
    if fn in ("s", "w"):
        return symmetrize(word) if fn == "s" else word
    root = _as_a(rvals[0], fn + " root")
    if any(t.kind not in (GEN, BRK) for t in root):
        raise ElabError("%s root must elaborate to generators or brackets%s" % (fn, at))
    if () in word:
        raise ElabError("%s needs at least one branch%s" % (fn, at))
    # sg(x, ...; r) is gr(s(x, ...); r)
    return graft_words(symmetrize(word) if fn == "sg" else word, root)


def parse_algebra(text, alphabet):
    """Read text to an algebra element (tree-basis combination)."""
    return _as_a(_Reader(text, alphabet).read(), "input")


def parse_tensor(text, alphabet):
    """Read text to a tensor element (word combination)."""
    return _as_d(_Reader(text, alphabet).read())


# -- printing ---------------------------------------------------------------------

def _sorted_desc(items, key):
    """``items`` by descending ``key``, a basis's order; as they are stored
    when one is of another basis, so a term of mixed bases renders too."""
    try:
        return sorted(items, key=key, reverse=True)
    except BasisError:
        return items


def _sorted_desc_t(items):
    from .bases import t_key
    return _sorted_desc(items, t_key)


def _sorted_desc_s(items):
    from .orders import shat_key
    return _sorted_desc(items, shat_key)


def render_term(t):
    if isinstance(t, tuple):  # a tensor word
        if len(t) == 1:
            return render_term(t[0])
        return "w(%s)" % ", ".join(render_term(l) for l in t)
    if not isinstance(t, Term):  # an OSBB word or a magma node
        return render_word(t, tuple) if isinstance(t, OsbbWord) else repr(t)
    if t.kind == GEN:
        return t.name
    if t.kind == BRK:
        return "bk(%s, %s)" % (render_term(t.x), render_term(t.y))
    if t.kind == GRAFT:
        return "gr(%s; %s)" % (", ".join(render_term(b) for b in t.branches),
                               render_term(t.root))
    if t.kind == OGRAFT and not t.word.is_symmetric:
        return "tri(%s, %s)" % (render_word(t.word, _sorted_desc_s), render_term(t.root))
    if t.kind in (OGRAFT, SYMGRAFT):
        letters = (_sorted_desc_s(t.word.tail) if t.kind == OGRAFT
                   else _sorted_desc_t(t.sym))
        return "sg(%s; %s)" % (", ".join(render_term(l) for l in letters),
                               render_term(t.root))
    assert t.kind == TRIPLE
    core = "tb(%s, %s, %s)" % (render_term(t.y), render_term(t.z), render_term(t.w))
    if not t.sym:
        return core
    letters = _sorted_desc_t(t.sym)
    return "tri(s(%s), %s)" % (", ".join(render_term(l) for l in letters), core)


def render_word(w, order):
    """An OSBB word as ``w(...)`` of ``s(...)`` and ``lb(y, z)`` items, the
    letters of each multiset in the sequence ``order(letters)`` gives."""
    items = []
    for b in w.blocks:
        if b.sym:
            items.append("s(%s)" % ", ".join(render_term(l) for l in order(b.sym)))
        items.append("lb(%s, %s)" % (render_term(b.y), render_term(b.z)))
    if w.tail:
        items.append("s(%s)" % ", ".join(render_term(l) for l in order(w.tail)))
    return "w(%s)" % ", ".join(items)


def _canon(t):
    """``canon_key`` of a term, of each letter of a tensor word, or else the
    node's own ``repr``."""
    if isinstance(t, tuple):
        return tuple(map(canon_key, t))
    return canon_key(t) if isinstance(t, Term) else repr(t)


def _sorted_items(x, order):
    """The items of ``x`` by descending ``order`` (a comparison), or by
    descending ``_canon`` when ``order`` is None."""
    key = _canon if order is None else cmp_to_key(order)
    return sorted(x.items(), key=lambda tc: key(tc[0]), reverse=True)


def render_lincomb(x, order=None):
    """Canonical text for a combination; parses back to an equal value when
    its terms are terms or tensor words (other nodes print by ``repr``)."""
    if not x:
        return "0"
    return " + ".join(render_term(t) if c == 1 else "%s * %s" % (c, render_term(t))
                      for t, c in _sorted_items(x, order))


def lincomb_json(x, order=None):
    """JSON-ready dict with string coefficients (no precision loss)."""
    return {"terms": [{"coeff": str(c), "expr": render_term(t)}
                      for t, c in _sorted_items(x, order)]}
