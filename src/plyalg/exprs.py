"""Concrete expression syntax for the engine.

Grammar (whitespace insignificant)::

    expr   := term (("+" | "-") term)*
    term   := [sign] [rat "*"] atom | "0"
    rat    := [sign] int ["/" int]
    atom   := ident | func "(" args ")"
    funcs  := bk(e,e) | tb(e,e,e) | gr(e,..; e) | sg(e,..; e)
              | s(e,...) | w(e,...) | tri(e,e) | lb(e,e)

Identifiers are generators. ``gr``/``sg`` take branches, then ``;``, then a
root that must elaborate to generators and brackets. Values are either
algebra elements (combinations over the planar-tree basis) or tensor
elements (combinations over words of tree-basis terms).
"""
from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key, reduce

from .terms import (BRK, GEN, GRAFT, OGRAFT, SYMGRAFT, TRIPLE, LinComb,
                    canon_key, graft, multilinear)
from .tensor import (graft_product, letters_to_words, lie_word, symmetrize,
                     tensor_mul, tree_brk, triangle, triple_bracket, unit,
                     word_act_trees, words_to_letters)


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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
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


class Parser:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.pos = 0

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

    def parse(self):
        e = self.parse_expr()
        t = self.peek()
        if t[0] != "eof":
            raise ParseError("unexpected %r" % t[1], t[2], t[3])
        return e

    def parse_expr(self):
        parts = [(1, self.parse_term())]
        while self.peek()[0] in "+-":
            sign = 1 if self.next()[0] == "+" else -1
            parts.append((sign, self.parse_term()))
        return ("sum", parts)

    def parse_term(self):
        sign = 1
        while self.peek()[0] == "-":
            self.next()
            sign = -sign
        t = self.peek()
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
            if self.peek()[0] == "*":
                self.next()
                return ("scaled", sign * coeff, self.parse_atom())
            if coeff == 0:
                return ("zero",)
            raise ParseError("a bare number is not an element (write c * expr)",
                             t[2], t[3])
        return ("scaled", sign, self.parse_atom())

    def parse_atom(self):
        t = self.expect("ident")
        name = t[1]
        if self.peek()[0] != "(":
            return ("gen", name, t[2], t[3])
        self.next()
        args, roots = [], None
        if self.peek()[0] != ")":
            current = args
            current.append(self.parse_expr())
            while self.peek()[0] in (",", ";"):
                sep = self.next()
                if sep[0] == ";":
                    if roots is not None:
                        raise ParseError("only one ';' allowed", sep[2], sep[3])
                    roots = []
                    current = roots
                    current.append(self.parse_expr())
                else:
                    current.append(self.parse_expr())
        self.expect(")")
        return ("call", name, args, roots, t[2], t[3])


def parse(text):
    p = Parser(text)
    try:
        return p.parse()
    except RecursionError:
        t = p.peek()
        raise ParseError("expression nested too deeply", t[2], t[3]) from None


# -- elaboration ------------------------------------------------------------------

def _as_d(kind, val):
    return val if kind == "D" else letters_to_words(val)


def _as_a(kind, val, what="expression"):
    if kind == "A":
        return val
    try:
        return words_to_letters(val)
    except AssertionError:
        raise ElabError("%s is a tensor element, not an algebra element" % what)


def _root_check(val, fn, line, col):
    for t in val:
        if t.kind not in (GEN, BRK):
            raise ElabError(
                "%s root must elaborate to generators or brackets (line %d, column %d)"
                % (fn, line, col))
    return val


def elaborate(ast, alphabet):
    """Evaluate an AST to ("A" | "D", LinComb)."""
    kind = ast[0]
    if kind == "sum":
        kinds, vals = [], []
        for sign, part in ast[1]:
            k, v = elaborate(part, alphabet)
            kinds.append(k)
            vals.append(v if sign > 0 else -v)
        if all(k == "A" for k in kinds):
            out = LinComb()
            for v in vals:
                out += v
            return "A", out
        out = LinComb()
        for k, v in zip(kinds, vals):
            out += _as_d(k, v)
        return "D", out
    if kind == "zero":
        return "A", LinComb()
    if kind == "scaled":
        k, v = elaborate(ast[2], alphabet)
        return k, v.scale(ast[1])
    if kind == "gen":
        name = ast[1]
        g = alphabet.by_name.get(name)
        if g is None:
            raise ElabError("unknown generator %r (line %d, column %d)"
                            % (name, ast[2], ast[3]))
        return "A", LinComb.of(g)
    assert kind == "call"
    _, fn, args, roots, line, col = ast
    vals = [elaborate(a, alphabet) for a in args]
    rvals = [elaborate(r, alphabet) for r in roots] if roots is not None else None

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
        if fn == "gr":
            return "A", multilinear(lambda w, r: LinComb.of(graft(w, r)), word, root)
        return "A", word_act_trees(symmetrize(word), root)
    if fn in ("s", "w"):
        need(None)
        word = concat()
        return "D", symmetrize(word) if fn == "s" else word
    if fn == "tri":
        need(2)
        return "D", triangle(_as_d(*vals[0]), _as_d(*vals[1]),
                             lambda a, b: graft_product(a, b))
    if fn == "lb":
        need(2)
        return "D", lie_word(_as_d(*vals[0]), _as_d(*vals[1]))
    raise ElabError("unknown function %r (line %d, column %d)" % (fn, line, col))


def _evaluate(text, alphabet):
    ast = parse(text)
    try:
        return elaborate(ast, alphabet)
    except RecursionError:
        raise ElabError("expression nested too deeply to elaborate") from None


def parse_algebra(text, alphabet):
    """Parse and elaborate to an algebra element (tree-basis combination)."""
    k, v = _evaluate(text, alphabet)
    return _as_a(k, v, what="input")


def parse_tensor(text, alphabet):
    """Parse and elaborate to a tensor element (word combination)."""
    return _as_d(*_evaluate(text, alphabet))


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


def _term_sort_key(order):
    if order is None:
        return canon_key
    return cmp_to_key(order)


def render_lincomb(x, order=None, descending=True):
    """Canonical text for a combination; parses back to an equal value."""
    if not x:
        return "0"
    items = sorted(x.items(), key=lambda tc: _term_sort_key(order)(tc[0]),
                   reverse=descending)
    parts = []
    for t, c in items:
        if c == 1:
            parts.append(render_term(t))
        else:
            parts.append("%s * %s" % (c, render_term(t)))
    return " + ".join(parts)


def lincomb_json(x, order=None, descending=True):
    """JSON-ready dict with string coefficients (no precision loss)."""
    if not x:
        return {"terms": []}
    items = sorted(x.items(), key=lambda tc: _term_sort_key(order)(tc[0]),
                   reverse=descending)
    return {"terms": [{"coeff": str(c), "expr": render_term(t)} for t, c in items]}
