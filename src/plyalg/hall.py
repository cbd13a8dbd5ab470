"""Hall elements of free magmas: the binary case (free Lie algebra bases)
and the ternary case (free Lie triple system bases), with the rewriting
algorithm that expresses any ternary bracketing of Hall elements as a
combination of Hall elements.

Letters are arbitrary hashable values ordered by a supplied comparator.
Foliage ties between structurally distinct nodes are broken by a fixed
structural comparison so that every branch the rewriting takes is strict.
"""
from __future__ import annotations

from .orders import cmp_hall_words, cmp_ints
from .terms import LinComb


class Leaf:
    __slots__ = ("letter", "_hash")

    def __init__(self, letter):
        self.letter = letter
        self._hash = hash(("leaf", letter))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Leaf) and self.letter == other.letter

    def __repr__(self):
        return "Leaf(%r)" % (self.letter,)


class Node2:
    __slots__ = ("x", "y", "_hash")

    def __init__(self, x, y):
        self.x, self.y = x, y
        self._hash = hash(("n2", x, y))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Node2) and self.x == other.x and self.y == other.y

    def __repr__(self):
        return "[%r,%r]" % (self.x, self.y)


class Node3:
    __slots__ = ("x", "y", "z", "_hash")

    def __init__(self, x, y, z):
        self.x, self.y, self.z = x, y, z
        self._hash = hash(("n3", x, y, z))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (isinstance(other, Node3) and self.x == other.x
                and self.y == other.y and self.z == other.z)

    def __repr__(self):
        return "[%r,%r,%r]" % (self.x, self.y, self.z)


def leaf(letter):
    return Leaf(letter)


def node2(x, y):
    return Node2(x, y)


def node3(x, y, z):
    return Node3(x, y, z)


def foliage(t):
    """In-order leaf word of a binary or ternary magma element."""
    if isinstance(t, Leaf):
        return (t.letter,)
    if isinstance(t, Node2):
        return foliage(t.x) + foliage(t.y)
    return foliage(t.x) + foliage(t.y) + foliage(t.z)


def _struct_cmp(a, b, cmpl):
    arity = (lambda t: 0 if isinstance(t, Leaf) else (2 if isinstance(t, Node2) else 3))
    r = cmp_ints(arity(a), arity(b))
    if r:
        return r
    if isinstance(a, Leaf):
        return cmpl(a.letter, b.letter)
    parts_a = (a.x, a.y) if isinstance(a, Node2) else (a.x, a.y, a.z)
    parts_b = (b.x, b.y) if isinstance(b, Node2) else (b.x, b.y, b.z)
    for p, q in zip(parts_a, parts_b):
        r = _struct_cmp(p, q, cmpl)
        if r:
            return r
    return 0


def hall_cmp(a, b, cmpl):
    """Foliage word comparison with a structural tiebreak (total)."""
    r = cmp_hall_words(foliage(a), foliage(b), cmpl)
    if r:
        return r
    return _struct_cmp(a, b, cmpl)


def is_hall(t, cmpl):
    """Hall element of the free binary magma."""
    if isinstance(t, Leaf):
        return True
    if not (is_hall(t.x, cmpl) and is_hall(t.y, cmpl)):
        return False
    if hall_cmp(t.x, t.y, cmpl) <= 0:
        return False
    if isinstance(t.x, Leaf):
        return True
    return hall_cmp(t.x.y, t.y, cmpl) <= 0


def is_lts_hall(t, cmpl):
    """Hall element of the free ternary magma (Lie triple system basis).

    Fixed points of the rewriting: children Hall, x > y <= z, and when x
    is itself a node its third component t satisfies t <= y.
    """
    if isinstance(t, Leaf):
        return True
    assert isinstance(t, Node3)
    if not (is_lts_hall(t.x, cmpl) and is_lts_hall(t.y, cmpl)
            and is_lts_hall(t.z, cmpl)):
        return False
    if hall_cmp(t.x, t.y, cmpl) <= 0:
        return False
    if hall_cmp(t.y, t.z, cmpl) > 0:
        return False
    if isinstance(t.x, Leaf):
        return True
    return hall_cmp(t.x.z, t.y, cmpl) <= 0


class RewriteStuck(Exception):
    pass


def _find_non_hall(t, cmpl):
    """Path to the innermost non-Hall node, or None."""
    if isinstance(t, Leaf):
        return None
    for slot, child in (("x", t.x), ("y", t.y), ("z", t.z)):
        p = _find_non_hall(child, cmpl)
        if p is not None:
            return (slot,) + p
    if is_lts_hall(t, cmpl):
        return None
    return ()


def _subst3(t, path, repl):
    if not path:
        return repl
    slot, rest = path[0], path[1:]

    def put(u):
        parts = {"x": t.x, "y": t.y, "z": t.z}
        parts[slot] = u
        return LinComb.of(node3(parts["x"], parts["y"], parts["z"]))
    return _subst3(getattr(t, slot), rest, repl).map_terms(put)


def _step(t, cmpl):
    """One rewriting step at a node whose children are all Hall."""
    u, v, w = t.x, t.y, t.z
    if u == v:
        return LinComb()
    c = hall_cmp(u, v, cmpl)
    if c < 0:
        return LinComb.of(node3(v, u, w), -1)
    if hall_cmp(v, w, cmpl) > 0:
        return LinComb.of(node3(u, w, v)) - LinComb.of(node3(v, w, u))
    if isinstance(u, Node3) and hall_cmp(u.z, v, cmpl) > 0:
        a, b, cc = u.x, u.y, u.z
        return (LinComb.of(node3(a, b, node3(cc, v, w)))
                - LinComb.of(node3(cc, node3(a, b, v), w))
                - LinComb.of(node3(cc, v, node3(a, b, w))))
    raise RewriteStuck("no step applies at %r" % (t,))


def lts_hall_rewrite(x, cmpl, fuel=10 ** 6):
    """Rewrite a combination of ternary bracketings into Hall elements."""
    work = x if isinstance(x, LinComb) else LinComb.of(x)
    while True:
        victim = None
        for t in work:
            path = _find_non_hall(t, cmpl)
            if path is not None:
                victim = (t, path)
                break
        if victim is None:
            return work
        if fuel <= 0:
            raise RewriteStuck("fuel exhausted before reaching Hall form")
        fuel -= 1
        t, path = victim
        node = t
        for slot in path:
            node = getattr(node, slot)
        repl = _step(node, cmpl)
        c = work.coeff(t)
        work = work - LinComb.of(t, c) + _subst3(t, path, repl).scale(c)
