"""The total orders: word order, OSBB word order, block-basis order, and the
pulled-back orders on the triple basis, checked against the published
listings and for order axioms."""
import random

from fixtures import (B5_COMPUTED_POSITIONS, B_LISTING, S5_COMPUTED_POSITIONS,
                      S_LISTING, SHAT_LISTING)
from lemmas import is_total_order

from plyalg.bases import (cmp_hall_t, cmp_t, enumerate_S, enumerate_Shat,
                          enumerate_T, from_shat, phi, t_value)
from plyalg.exprs import parse_algebra
from plyalg.hall import hall_cmp, leaf, node2
from plyalg.normal import enumerate_B
from plyalg.orders import cmp_delta, cmp_shat
from plyalg.terms import Alphabet, brk, ograft, osbb_word

A = Alphabet.of_size(2)
a, b = A.gens
A1 = Alphabet.of_size(1)
aa = A1.gens[0]


def cmp_gen(x, y):
    return (x.index > y.index) - (x.index < y.index)


def test_hall_word_order():
    # foliage words: longer words are larger, ties broken letterwise
    ab = node2(leaf(a), leaf(b))
    assert hall_cmp(ab, leaf(a), cmp_gen) > 0
    assert hall_cmp(ab, node2(leaf(a), leaf(a)), cmp_gen) > 0
    assert hall_cmp(ab, node2(leaf(a), leaf(b)), cmp_gen) == 0


def test_delta_symmetric_length_clause():
    w1 = osbb_word((), (a,))
    w2 = osbb_word((), (a, b))
    assert cmp_delta(w1, w2, cmp_gen) < 0


def test_delta_bracket_vs_symmetric_equal_length():
    # at equal length the symmetric word is the larger one
    from plyalg.terms import block
    sym = osbb_word((), (a, b))
    brkw = osbb_word((block((), b, a),), ())
    assert cmp_delta(sym, brkw, cmp_gen) > 0
    assert cmp_delta(brkw, sym, cmp_gen) < 0


def test_delta_bracket_blocks_compare_z_then_y():
    from plyalg.terms import block
    c3 = Alphabet.of_size(3)
    x, y, z = c3.gens
    wy = osbb_word((block((), z, y),), ())   # [z, y]
    wz = osbb_word((block((), z, x),), ())   # [z, x]
    assert cmp_delta(wy, wz, cmp_gen) > 0    # second entry y > x decides


def test_shat_examples():
    g2 = ograft(osbb_word((), (aa,)), aa)
    assert cmp_shat(brk(aa, aa), g2) < 0          # bracket below the graft
    x = brk(aa, brk(aa, aa))
    y = brk(brk(aa, aa), aa)
    assert cmp_shat(x, y) < 0                      # first component decides
    # |word| vertices decide between grafts of equal size
    x2 = ograft(osbb_word((), (aa,)), brk(aa, brk(aa, aa)))
    y2 = ograft(osbb_word((), (brk(aa, brk(aa, aa)),)), aa)
    assert cmp_shat(x2, y2) < 0


def _values(exprs, alphabet):
    return [parse_algebra(e, alphabet) for e in exprs]


def test_shat_listing_order_matches_paper():
    for n, exprs in SHAT_LISTING.items():
        got = [from_shat(s) for s in enumerate_Shat(n, A1)]
        want = _values(exprs, A1)
        assert got == want, "block-basis listing mismatch at %d vertices" % n


def test_s_listing_order():
    for n in range(1, 5):
        got = [from_shat(s) for s in enumerate_S(n, A1)]
        want = _values(S_LISTING[n], A1)
        assert got == want
    # 5 vertices: one published entry sits at a different position than the
    # order produces (see the decisions notes); compare via the permutation
    got = [from_shat(s) for s in enumerate_S(5, A1)]
    want = _values(S_LISTING[5], A1)
    assert len(got) == len(want) == 14
    for pub_idx, comp_pos in enumerate(S5_COMPUTED_POSITIONS):
        assert got[comp_pos - 1] == want[pub_idx]


def test_b_listing_order():
    for n in range(1, 5):
        got = [t_value(t) for t in enumerate_B(n, A1)]
        want = _values(B_LISTING[n], A1)
        assert got == want
    got = [t_value(t) for t in enumerate_B(5, A1)]
    want = _values(B_LISTING[5], A1)
    for pub_idx, comp_pos in enumerate(B5_COMPUTED_POSITIONS):
        assert got[comp_pos - 1] == want[pub_idx]


def test_cmp_shat_total_small():
    elems = [t for n in range(1, 4) for t in enumerate_Shat(n, A)]
    assert is_total_order(cmp_shat, elems)


def test_cmp_t_total_small():
    elems = [t for n in range(1, 4) for t in enumerate_T(n, A)]
    assert is_total_order(cmp_t, elems)


def test_transitivity_sampled():
    rng = random.Random(11)
    elems = [t for n in range(1, 6) for t in enumerate_Shat(n, A1)]
    telems = [t for n in range(1, 6) for t in enumerate_T(n, A1)]
    for _ in range(3000):
        x, y, z = (rng.choice(elems) for _ in range(3))
        if cmp_shat(x, y) <= 0 and cmp_shat(y, z) <= 0:
            assert cmp_shat(x, z) <= 0
        tx, ty, tz = (rng.choice(telems) for _ in range(3))
        if cmp_hall_t(tx, ty) <= 0 and cmp_hall_t(ty, tz) <= 0:
            assert cmp_hall_t(tx, tz) <= 0


def test_cmp_t_pulls_back_along_phi():
    elems = [t for n in range(1, 5) for t in enumerate_Shat(n, A1)]
    rng = random.Random(5)
    for _ in range(500):
        x, y = rng.choice(elems), rng.choice(elems)
        assert cmp_t(phi(x), phi(y)) == cmp_shat(x, y)


def test_hall_order_on_t_examples():
    g2 = phi(ograft(osbb_word((), (aa,)), aa))
    t3 = brk(g2, aa)
    # single letters compare by the basis order
    assert cmp_hall_t(t3, aa) > 0
    # a bare triple-bracket has foliage length 3, beating any single letter
    trip = [t for t in enumerate_T(4, A1)
            if t.kind == 5 and not t.sym]
    assert trip
    big = [t for t in enumerate_T(5, A1) if t.kind != 5]
    assert all(cmp_hall_t(t, trip[0]) < 0 for t in big[:10])
