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
brackets. Values are either algebra elements (combinations over the
planar-tree basis) or tensor elements (combinations over words of tree-basis
terms). Text is read in one pass that evaluates each rule as it reads it, so
the first error in reading order is the one reported, and at most
``MAX_NESTING`` calls may be open at once.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key, reduce

from .terms import (BRK, GEN, GRAFT, OGRAFT, SYMGRAFT, TRIPLE, LinComb, OsbbWord,
                    Term, canon_key, graft, multilinear)
from .tensor import (letters_to_words, lie_word, symmetrize, tensor_mul, tree_brk,
                     triangle, triple_bracket, unit, words_to_letters)

# Most calls that may be open at once. The reader takes 3 frames per open
# call and the engine up to 5 per level of the term it converts, against the
# default recursion limit of 1000. With no limit, called from 150 frames
# deep on CPython 3.10, `gr(gr(...; a); a)` normalizes up to depth 167 and
# `bk(a, bk(a, ...))` up to 209.
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
    line, col, i = 1, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in _SYMBOLS:
            toks.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            toks.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    toks.append(("eof", "", line, col))
    return toks


class _Reader:
    """Recursive descent over the tokens of one text. Each rule evaluates as
    it reads and returns ("A" | "D", LinComb): an algebra or a tensor
    element."""

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
        kind, out = self.term()
        while self.peek()[0] in "+-":
            sign = 1 if self.next()[0] == "+" else -1
            k, v = self.term()
            if k != kind:
                kind, out, v = "D", _as_d(kind, out), _as_d(k, v)
            out.add_in(v, sign)
        return kind, out

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
                    return "A", LinComb()
                raise ParseError("a bare number is not an element (write c * expr)",
                                 t[2], t[3])
            self.next()
        k, v = self.atom()
        return k, v if sign * coeff == 1 else v.scale(sign * coeff)

    def atom(self):
        _, name, line, col = self.expect("ident")
        if self.peek()[0] != "(":
            g = self.alphabet.by_name.get(name)
            if g is None:
                raise ElabError("unknown generator %r (line %d, column %d)"
                                % (name, line, col))
            return "A", LinComb.of(g)
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


def _as_d(kind, val):
    return val if kind == "D" else letters_to_words(val)


def _as_a(kind, val, what="expression"):
    if kind == "A":
        return val
    if any(len(w) != 1 for w in val):
        raise ElabError("%s is a tensor element, not an algebra element" % what)
    return words_to_letters(val)


def _root_check(val, fn, line, col):
    for t in val:
        if t.kind not in (GEN, BRK):
            raise ElabError(
                "%s root must elaborate to generators or brackets (line %d, column %d)"
                % (fn, line, col))
    return val


def _call(fn, vals, rvals, line, col):
    """The value of ``fn`` applied to the read arguments ``vals`` and, after
    a ``;``, ``rvals``."""

    def need(n, with_root=False):
        if with_root:
            if rvals is None or len(rvals) != 1 or len(vals) < 1:
                raise ElabError("%s expects branches ';' root (line %d, column %d)"
                                % (fn, line, col))
        else:
            if rvals is not None:
                raise ElabError("%s takes no ';' part (line %d, column %d)"
                                % (fn, line, col))
            if n is not None and len(vals) != n:
                raise ElabError("%s expects %d arguments, got %d (line %d, column %d)"
                                % (fn, n, len(vals), line, col))

    def concat():
        return reduce(tensor_mul, [_as_d(*v) for v in vals], unit())

    if fn == "bk":
        need(2)
        return "A", tree_brk(_as_a(*vals[0]), _as_a(*vals[1]))
    if fn == "tb":
        need(3)
        return "A", triple_bracket(_as_a(*vals[0]), _as_a(*vals[1]), _as_a(*vals[2]))
    if fn in ("gr", "sg"):
        need(None, with_root=True)
        root = _root_check(_as_a(*rvals[0], what=fn + " root"), fn, line, col)
        word = concat()
        if () in word.terms:
            raise ElabError("%s needs at least one branch (line %d, column %d)"
                            % (fn, line, col))
        # a word acting on a generator or bracket root is its planar graft
        # (see bases.shat_elem_to_t), so sg(x, ...; r) is gr(s(x, ...); r)
        if fn == "sg":
            word = symmetrize(word)
        return "A", multilinear(lambda w, r: LinComb.of(graft(w, r)), word, root)
    if fn in ("s", "w"):
        need(None)
        word = concat()
        return "D", symmetrize(word) if fn == "s" else word
    if fn == "tri":
        need(2)
        return "D", triangle(_as_d(*vals[0]), _as_d(*vals[1]))
    if fn == "lb":
        need(2)
        return "D", lie_word(_as_d(*vals[0]), _as_d(*vals[1]))
    raise ElabError("unknown function %r (line %d, column %d)" % (fn, line, col))


def parse_algebra(text, alphabet):
    """Read text to an algebra element (tree-basis combination)."""
    return _as_a(*_Reader(text, alphabet).read(), what="input")


def parse_tensor(text, alphabet):
    """Read text to a tensor element (word combination)."""
    return _as_d(*_Reader(text, alphabet).read())


# -- printing ---------------------------------------------------------------------

def _sorted_desc_t(items):
    from .bases import t_key
    return sorted(items, key=t_key, reverse=True)


def _sorted_desc_s(items):
    from .orders import shat_key
    return sorted(items, key=shat_key, reverse=True)


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
    if t.kind == OGRAFT:
        w = t.word
        if w.is_symmetric:
            letters = _sorted_desc_s(w.tail)
            return "sg(%s; %s)" % (", ".join(render_term(l) for l in letters),
                                   render_term(t.root))
        return "tri(%s, %s)" % (render_word(w, _sorted_desc_s), render_term(t.root))
    if t.kind == SYMGRAFT:
        letters = _sorted_desc_t(t.sym)
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
