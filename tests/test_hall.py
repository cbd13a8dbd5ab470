"""Hall elements of the binary and ternary free magmas, the ternary
rewriting algorithm, and the exact spanning-rank oracle that pins the Hall
conditions to the free Lie-triple-system dimensions."""
import itertools
import random
from fractions import Fraction

from plyalg.hall import (Node3, foliage, hall_cmp, is_hall, is_lts_hall, leaf,
                         lts_hall_rewrite, node2, node3)
from plyalg.linalg import rank
from plyalg.orders import cmp_gen
from plyalg.terms import Alphabet, LinComb

from lemmas import is_total_order

A2 = Alphabet.of_size(2)
A3 = Alphabet.of_size(3)
a, b = A2.gens
x3 = A3.gens


def test_foliage():
    assert foliage(leaf(a)) == (a,)
    assert foliage(node2(leaf(a), node2(leaf(b), leaf(a)))) == (a, b, a)
    assert foliage(node3(leaf(a), leaf(b), leaf(a))) == (a, b, a)


def test_nodes_interned():
    assert leaf(a) is leaf(a)
    assert node2(leaf(a), leaf(b)) is node2(leaf(a), leaf(b))
    assert node3(leaf(b), leaf(a), leaf(a)) is node3(leaf(b), leaf(a), leaf(a))
    assert node3(leaf(b), leaf(a), leaf(a)) is not node3(leaf(b), leaf(a), leaf(b))


def test_hall_order_total():
    # every ternary bracketing with at most 5 leaves over 2 letters
    elems = [e for n in range(1, 6) for e in _all_m3(list(A2.gens), n)]
    assert len(elems) == 106
    assert is_total_order(lambda s, t: hall_cmp(s, t, cmp_gen), elems)


def test_is_hall_binary():
    assert is_hall(leaf(a), cmp_gen)
    assert is_hall(node2(leaf(b), leaf(a)), cmp_gen)
    assert not is_hall(node2(leaf(a), leaf(b)), cmp_gen)
    # [[b,a],b]: f(u)="ba" > "b", inner second a <= b
    t = node2(node2(leaf(b), leaf(a)), leaf(b))
    assert is_hall(t, cmp_gen)
    # [[b,a],a] has inner second a <= a: still Hall
    assert is_hall(node2(node2(leaf(b), leaf(a)), leaf(a)), cmp_gen)


def test_is_lts_hall_examples():
    assert is_lts_hall(leaf(a), cmp_gen)
    assert is_lts_hall(node3(leaf(b), leaf(a), leaf(a)), cmp_gen)
    assert is_lts_hall(node3(leaf(b), leaf(a), leaf(b)), cmp_gen)
    # x = y fails
    assert not is_lts_hall(node3(leaf(a), leaf(a), leaf(b)), cmp_gen)
    # y > z required
    assert not is_lts_hall(node3(leaf(a), leaf(b), leaf(a)), cmp_gen)
    # z <= w required: [c,b,a] with c>b>a is not Hall (the rewriting moves it)
    c3, b3, a3 = x3[2], x3[1], x3[0]
    assert not is_lts_hall(node3(leaf(c3), leaf(b3), leaf(a3)), cmp_gen)
    assert is_lts_hall(node3(leaf(c3), leaf(a3), leaf(b3)), cmp_gen)


def _rand_m3(rng, letters, budget):
    if budget < 3 or rng.random() < 0.55:
        return leaf(rng.choice(letters))
    n1 = rng.randint(1, budget - 2)
    n2 = rng.randint(1, budget - n1 - 1)
    n3 = budget - n1 - n2
    return node3(_rand_m3(rng, letters, n1), _rand_m3(rng, letters, n2),
                 _rand_m3(rng, letters, n3))


def test_rewrite_reaches_hall_and_idempotent():
    rng = random.Random(5)
    letters = list(A2.gens)
    for _ in range(150):
        t = _rand_m3(rng, letters, 5)
        out = lts_hall_rewrite(LinComb.of(t), cmp_gen)
        assert all(is_lts_hall(u, cmp_gen) for u in out)
        assert lts_hall_rewrite(out, cmp_gen) == out


def test_rewrite_examples():
    u, w = leaf(b), leaf(a)
    assert lts_hall_rewrite(LinComb.of(node3(u, u, w)), cmp_gen) == LinComb()
    got = lts_hall_rewrite(LinComb.of(node3(leaf(a), leaf(b), w)), cmp_gen)
    assert got == LinComb.of(node3(leaf(b), leaf(a), w), Fraction(-1))
    c3, b3, a3 = x3[2], x3[1], x3[0]
    got = lts_hall_rewrite(LinComb.of(node3(leaf(c3), leaf(b3), leaf(a3))), cmp_gen)
    want = (LinComb.of(node3(leaf(c3), leaf(a3), leaf(b3)))
            - LinComb.of(node3(leaf(b3), leaf(a3), leaf(c3))))
    assert want == got


def test_rewrite_annihilates_lts_relations():
    rng = random.Random(6)
    letters = list(A2.gens)
    for _ in range(60):
        u = _rand_m3(rng, letters, 2)
        v = _rand_m3(rng, letters, 2)
        w = _rand_m3(rng, letters, 1)
        skew = LinComb.of(node3(u, v, w)) + LinComb.of(node3(v, u, w))
        cyc = (LinComb.of(node3(u, v, w)) + LinComb.of(node3(v, w, u))
               + LinComb.of(node3(w, u, v)))
        assert lts_hall_rewrite(skew, cmp_gen) == LinComb()
        assert lts_hall_rewrite(cyc, cmp_gen) == LinComb()


# -- exact spanning oracle -------------------------------------------------------

def _all_m3(letters, n):
    if n == 1:
        return [leaf(l) for l in letters]
    out = []
    for i in range(1, n - 1):
        for j in range(1, n - i):
            k = n - i - j
            if k < 1:
                continue
            for p in _all_m3(letters, i):
                for q in _all_m3(letters, j):
                    for r in _all_m3(letters, k):
                        out.append(node3(p, q, r))
    return out


def _contexts(t):
    yield t, (lambda r: r)
    if isinstance(t, Node3):
        for slot in ("x", "y", "z"):
            child = getattr(t, slot)
            for node, rb in _contexts(child):
                def rebuild(r, slot=slot, rb=rb, t=t):
                    out = LinComb()
                    for u, cu in rb(r).items():
                        parts = {"x": t.x, "y": t.y, "z": t.z}
                        parts[slot] = u
                        out.add_in(LinComb.of(node3(parts["x"], parts["y"],
                                                    parts["z"])), cu)
                    return out
                yield node, rebuild


def _relation_rank(elems):
    idx = {e: i for i, e in enumerate(elems)}

    def vec(lc):
        v = [Fraction(0)] * len(elems)
        for t, c in lc.items():
            v[idx[t]] = c
        return tuple(v)

    rels = []
    seen = set()
    for e in elems:
        for node, rb in _contexts(e):
            if not isinstance(node, Node3):
                continue
            p, q, r = node.x, node.y, node.z
            cands = [rb(LinComb.of(node3(p, q, r)) + LinComb.of(node3(q, p, r))),
                     rb(LinComb.of(node3(p, q, r)) + LinComb.of(node3(q, r, p))
                        + LinComb.of(node3(r, p, q)))]
            if isinstance(r, Node3):
                u, v, w = r.x, r.y, r.z
                lhs = LinComb.of(node3(p, q, r))
                rhs = (LinComb.of(node3(node3(p, q, u), v, w))
                       + LinComb.of(node3(u, node3(p, q, v), w))
                       + LinComb.of(node3(u, v, node3(p, q, w))))
                cands.append(rb(lhs - rhs))
            for rel in cands:
                v = vec(rel)
                if any(v) and v not in seen:
                    seen.add(v)
                    rels.append(list(v))
    return rank(rels) if rels else 0


def test_hall_count_matches_free_lts_dimension():
    letters = list(A2.gens)
    for n in (3, 5):
        for ms in sorted(set(tuple(sorted(g.name for g in t))
                             for t in itertools.product(letters, repeat=n))):
            elems = [e for e in _all_m3(letters, n)
                     if tuple(sorted(g.name for g in foliage(e))) == ms]
            dim = len(elems) - _relation_rank(elems)
            halls = sum(is_lts_hall(e, cmp_gen) for e in elems)
            assert dim == halls, (n, ms, dim, halls)
