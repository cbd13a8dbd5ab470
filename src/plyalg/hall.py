"""Hall elements of free magmas: the binary case (free Lie algebra bases)
and the ternary case (free Lie triple system bases), with the rewriting
algorithm that expresses any ternary bracketing of Hall elements as a
combination of Hall elements.

Nodes are hash-consed by ``terms._intern``, one table per class:
structurally equal nodes are the same Python object, so equality is
identity. Letters are arbitrary hashable values ordered by a supplied
comparator. The Hall order is one tuple sort key, cached per node and
comparator by ``terms.memo``: foliage length, foliage word, then
structure, so that foliage ties between distinct nodes are broken and every
branch the rewriting takes is strict. The LTS-Hall predicate is cached the
same way.
"""
from __future__ import annotations

from functools import cmp_to_key

from .orders import cmp_ints
from .terms import LinComb, _intern, memo


class Leaf:
    __slots__ = ("letter",)

    def __repr__(self):
        return "Leaf(%r)" % (self.letter,)


class Node2:
    __slots__ = ("x", "y")

    def __repr__(self):
        return "[%r,%r]" % (self.x, self.y)


class Node3:
    __slots__ = ("x", "y", "z")

    def __repr__(self):
        return "[%r,%r,%r]" % (self.x, self.y, self.z)


_LEAF, _NODE2, _NODE3 = {}, {}, {}


def leaf(letter):
    return _intern(_LEAF, Leaf, letter)


def node2(x, y):
    return _intern(_NODE2, Node2, x, y)


def node3(x, y, z):
    return _intern(_NODE3, Node3, x, y, z)


def foliage(t):
    """In-order leaf word of a binary or ternary magma element."""
    if isinstance(t, Leaf):
        return (t.letter,)
    return sum((foliage(getattr(t, slot)) for slot in t.__slots__), ())


_HALL_KEY = {}


@memo(_HALL_KEY)
def hall_key(t, cmpl):
    """Sort key of the Hall order: foliage length, foliage word (letters by
    ``cmpl``), then the structural key, which is (0, letter) for a leaf and
    (arity, children's structural keys...) for a node."""
    if isinstance(t, Leaf):
        letter = cmp_to_key(cmpl)(t.letter)
        return (1, (letter,), (0, letter))
    kids = [hall_key(getattr(t, slot), cmpl) for slot in t.__slots__]
    return (sum(kid[0] for kid in kids), sum((kid[1] for kid in kids), ()),
            (len(kids),) + tuple(kid[2] for kid in kids))


def hall_cmp(a, b, cmpl):
    """The Hall order: foliage word order with a structural tiebreak (total)."""
    if a is b:
        return 0
    return cmp_ints(hall_key(a, cmpl), hall_key(b, cmpl))


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


_LTS_HALL = {}


@memo(_LTS_HALL)
def is_lts_hall(t, cmpl):
    """Hall element of the free ternary magma (Lie triple system basis).

    Fixed points of the rewriting: children Hall, x > y <= z, and when x
    is itself a node its third component t satisfies t <= y.
    """
    if isinstance(t, Leaf):
        return True
    assert isinstance(t, Node3)
    x, y, z = t.x, t.y, t.z
    return (is_lts_hall(x, cmpl) and is_lts_hall(y, cmpl) and is_lts_hall(z, cmpl)
            and hall_cmp(x, y, cmpl) > 0 and hall_cmp(y, z, cmpl) <= 0
            and (isinstance(x, Leaf) or hall_cmp(x.z, y, cmpl) <= 0))


class RewriteStuck(Exception):
    pass


def _step(t, cmpl):
    """One rewriting step at a node whose children are all Hall."""
    u, v, w = t.x, t.y, t.z
    if u is v:
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


def _rewrite(t, cmpl):
    """The one-step image of a non-Hall node: the image of its first non-Hall
    child put back in place, or ``_step`` at the node when every child is
    Hall."""
    for slot in t.__slots__:
        child = getattr(t, slot)
        if not is_lts_hall(child, cmpl):
            def put(u):
                parts = {"x": t.x, "y": t.y, "z": t.z, slot: u}
                return LinComb.of(node3(**parts))
            return _rewrite(child, cmpl).map_terms(put)
    return _step(t, cmpl)


def lts_hall_rewrite(x, cmpl):
    """Rewrite a combination of ternary bracketings into Hall elements."""
    work = LinComb(x) if isinstance(x, LinComb) else LinComb.of(x)
    fuel = 10 ** 6  # the most steps before giving up
    while True:
        for t in work:
            if not is_lts_hall(t, cmpl):
                break
        else:
            return work
        if fuel <= 0:
            raise RewriteStuck("fuel exhausted before reaching Hall form")
        fuel -= 1
        work.add_in(_rewrite(t, cmpl), work.pop(t))
