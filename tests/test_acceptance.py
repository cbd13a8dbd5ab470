"""Acceptance suite: one test per criterion, exact equality throughout.

Every test prints a single PASS line (with its measured runtime where the
criterion carries a budget) so the suite doubles as a checklist:

    pytest tests/test_acceptance.py -v -s
"""
import itertools
import random
import time
from fractions import Fraction

import lemmas
from fixtures import (B5_COMPUTED_POSITIONS, B_COUNTS, B_LISTING, S_COUNTS,
                      S_LISTING, SHAT_LISTING, scan_normalize, seeded_pick)

from plyalg.bases import (beta_count, enumerate_Bhat, enumerate_S,
                          enumerate_Shat, enumerate_T, from_shat, phi,
                          phi_inv, t_value, to_shat)
from plyalg.exprs import parse_algebra
from plyalg.hall import is_lts_hall, leaf, lts_hall_rewrite, node3
from plyalg.normal import check_trace, enumerate_B, lat_project, normalize
from plyalg.orders import cmp_gen, cmp_shat
from plyalg.osbb import decompose, expand, expand_lincomb, words_for_multiset
from plyalg.suites import RELATION_ARITY, relation_residual, sample_basis_tuples
from plyalg.terms import Alphabet, LinComb
from plyalg.yamaguti import check_lat_degeneration, check_ly_axioms

A1 = Alphabet.of_size(1)
A2 = Alphabet.of_size(2)
A3 = Alphabet.of_size(3)


def report(name, detail, elapsed=None):
    suffix = " (%.2fs)" % elapsed if elapsed is not None else ""
    print("PASS %s: %s%s" % (name, detail, suffix))


def test_criterion_01_s_basis_census():
    t0 = time.time()
    dims = [len(enumerate_S(n, A1)) for n in range(1, 6)]
    elapsed = time.time() - t0
    assert dims == [1, 1, 2, 5, 14]
    for n in range(1, 6):
        got = {from_shat(LinComb.of(s)) for s in enumerate_S(n, A1)}
        want = {parse_algebra(e, A1) for e in S_LISTING[n]}
        assert len(got) == S_COUNTS[n]
        assert got == want
    assert elapsed < 1.0
    report("criterion 1", "one-operator census 1 1 2 5 14, sets match listing",
           elapsed)


def test_criterion_02_two_operator_census():
    t0 = time.time()
    for n in range(1, 6):
        expected = beta_count(n, 1)
        assert len(enumerate_Bhat(n, A1)) == expected
        assert len(enumerate_Shat(n, A1)) == expected
        assert len(enumerate_T(n, A1)) == expected
    assert [beta_count(n, 1) for n in range(1, 6)] == [1, 2, 8, 40, 224]
    for n in range(1, 5):
        expected = beta_count(n, 2)
        assert len(enumerate_Bhat(n, A2)) == expected
        assert len(enumerate_Shat(n, A2)) == expected
        assert len(enumerate_T(n, A2)) == expected
    got = [from_shat(LinComb.of(s)) for s in enumerate_Shat(4, A1)]
    want = [parse_algebra(e, A1) for e in SHAT_LISTING[4]]
    assert got == want, "4-vertex block-basis listing must match exactly"
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report("criterion 2", "graded counts equal 2^(n-1)|C|^n Cat(n-1); "
           "40-element listing matches in order", elapsed)


def test_criterion_03_ply_basis_census():
    t0 = time.time()
    dims = [len(enumerate_B(n, A1)) for n in range(1, 6)]
    assert dims == [1, 1, 3, 9, 31]
    for n in range(1, 6):
        got = {t_value(t) for t in enumerate_B(n, A1)}
        want = {parse_algebra(e, A1) for e in B_LISTING[n]}
        assert len(got) == B_COUNTS[n]
        assert got == want
    # the computed order is strictly increasing and matches the published
    # order up to the documented permutation of the 5-vertex bracket segment
    got5 = [t_value(t) for t in enumerate_B(5, A1)]
    want5 = [parse_algebra(e, A1) for e in B_LISTING[5]]
    for pub_idx, comp_pos in enumerate(B5_COMPUTED_POSITIONS):
        assert got5[comp_pos - 1] == want5[pub_idx]
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report("criterion 3", "basis census 1 1 3 9 31, element sets match listings",
           elapsed)


def test_criterion_04_osbb_roundtrip():
    t0 = time.time()
    letters = A3.gens
    words = 0
    for n in range(0, 5):
        for w in itertools.product(letters, repeat=n):
            d = LinComb.of(w)
            dec = decompose(d, cmp_shat)
            assert expand_lincomb(dec) == d
            for ow in dec:
                assert ow.length == n
                assert (sorted(ow.letters(), key=lambda t: t.index)
                        == sorted(w, key=lambda t: t.index))
            words += 1
    osbbs = 0
    for n in range(0, 5):
        seen = set()
        for w in itertools.product(letters, repeat=n):
            ms = tuple(sorted(w, key=lambda t: t.index))
            if ms in seen:
                continue
            seen.add(ms)
            for ow in words_for_multiset(ms, cmp_shat):
                assert decompose(expand(ow), cmp_shat) == LinComb.of(ow)
                osbbs += 1
    report("criterion 4", "%d words and %d OSBB words round-trip exactly"
           % (words, osbbs), time.time() - t0)


def test_criterion_05_phi_properties():
    t0 = time.time()
    for n in range(1, 6):
        shat = enumerate_Shat(n, A1)
        ts = enumerate_T(n, A1)
        assert [phi(s) for s in shat] == list(ts)
        assert [phi_inv(t) for t in ts] == list(shat)
        assert len(set(ts)) == len(shat)
        for s in shat:
            coords = to_shat(t_value(phi(s)))
            assert coords.get(s, 0) == 1
            assert all(cmp_shat(u, s) < 0 for u in coords if u is not s)
    report("criterion 5", "bijection and strict triangularity through 5 vertices",
           time.time() - t0)


def test_criterion_06_structural_lemmas():
    t0 = time.time()
    n1 = lemmas.check_product_structure(A1, 200, seed=101)
    n2 = lemmas.check_triple_bracket_structure(A1, 200, seed=102)
    n3 = lemmas.check_word_action_structure(A1, 200, seed=103)
    n4 = lemmas.check_symmetric_action_leading_term(A1, 200, seed=104)
    assert (n1, n2, n3, n4) == (200, 200, 200, 200)
    report("criterion 6", "structural lemmas hold on 4 x 200 seeded instances",
           time.time() - t0)


def test_criterion_07_relation_annihilation():
    t0 = time.time()
    total = 0
    for rule, arity in sorted(RELATION_ARITY.items()):
        for args in sample_basis_tuples(arity, 6, 500, seed=7, alphabet=A1):
            residual = relation_residual(rule, args)
            nf, trace = normalize(residual)
            assert nf == LinComb(), (rule, args)
            assert check_trace(residual, nf, trace), (rule, args)
            total += 1
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report("criterion 7", "%d relation instances annihilate with sound traces"
           % total, elapsed)


def test_criterion_08_normal_form_well_defined():
    t0 = time.time()
    rng = random.Random(8)
    pool = [t for n in range(1, 6) for t in enumerate_Bhat(n, A1)]
    for i in range(200):
        x = LinComb()
        for _ in range(rng.randint(1, 3)):
            x += LinComb.of(rng.choice(pool),
                            Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 4)))
        ref = normalize(x)[0]
        assert scan_normalize(x, seeded_pick(1000 + i))[0] == ref
        assert scan_normalize(x, min)[0] == ref
    report("criterion 8", "the heap and the smallest-first and random-pick "
           "rescans agree on 200 seeded inputs", time.time() - t0)


def test_criterion_09_lts_hall():
    t0 = time.time()
    rng = random.Random(9)
    letters = list(A2.gens)

    def rand_m3(budget):
        if budget < 3 or rng.random() < 0.55:
            return leaf(rng.choice(letters))
        n1 = rng.randint(1, budget - 2)
        n2 = rng.randint(1, budget - n1 - 1)
        return node3(rand_m3(n1), rand_m3(n2), rand_m3(budget - n1 - n2))

    for _ in range(200):
        t = rand_m3(5)
        out = lts_hall_rewrite(LinComb.of(t), cmp_gen)
        assert all(is_lts_hall(u, cmp_gen) for u in out)
        assert lts_hall_rewrite(out, cmp_gen) == out
        u, v, w = rand_m3(2), rand_m3(2), rand_m3(1)
        skew = LinComb.of(node3(u, v, w)) + LinComb.of(node3(v, u, w))
        cyc = (LinComb.of(node3(u, v, w)) + LinComb.of(node3(v, w, u))
               + LinComb.of(node3(w, u, v)))
        assert lts_hall_rewrite(skew, cmp_gen) == LinComb()
        assert lts_hall_rewrite(cyc, cmp_gen) == LinComb()
    report("criterion 9", "Hall-only output, idempotence, and relation "
           "annihilation on 200 seeded inputs", time.time() - t0)


def test_criterion_10_lie_yamaguti():
    t0 = time.time()
    reports = check_ly_axioms(max_vertices=6, samples=12, seed=10, alphabet=A1)
    assert reports
    for r in reports:
        assert r.passed, (r.axiom, r.bindings, r.residual)
    degen = check_lat_degeneration(max_vertices=5, samples=20, seed=10,
                                   alphabet=A1)
    for r in degen:
        assert r.passed, (r.axiom, r.bindings, r.residual)
    report("criterion 10", "%d axiom and %d degeneration instances have zero "
           "residual" % (len(reports), len(degen)), time.time() - t0)


def test_criterion_11_commuting_diagram():
    t0 = time.time()
    rng = random.Random(11)
    pool = [t for n in range(1, 6) for t in enumerate_Bhat(n, A1)]
    for _ in range(200):
        x = LinComb()
        for _ in range(rng.randint(1, 2)):
            x += LinComb.of(rng.choice(pool),
                            Fraction(rng.randint(-2, 2) or 1, rng.randint(1, 3)))
        lhs = lat_project(normalize(x)[0])
        rhs = lat_project(normalize(lat_project(x))[0])
        assert lhs == rhs
    report("criterion 11", "projection of the normal form commutes with "
           "killing brackets on 200 seeded inputs", time.time() - t0)
