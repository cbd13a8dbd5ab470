"""The normalizer: worked examples, basis fixpoints, annihilation of the
defining relations, trace soundness, strategy independence, and the
projection onto the bracket-free quotient."""
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from plyalg import bases, hall, normal, osbb
from plyalg.bases import (any_to_t, cmp_hall_t, enumerate_Bhat, enumerate_Shat, enumerate_T,
                          shat_to_t, t_value, to_shat)
from plyalg.cli import main
from plyalg.exprs import render_lincomb
from plyalg.normal import (FuelExhausted, RewriteStep, RewriteTrace, check_trace,
                           enumerate_B, enumerate_B_lat, graded_dim, head_rewrite,
                           is_B, lat_project, normalize)
from plyalg.orders import cmp_gen, cmp_shat
from plyalg.osbb import decompose
from plyalg.suites import RELATION_ARITY, relation_residual, sample_basis_tuples
from plyalg.tensor import tree_brk, tree_mul, triple_bracket
from plyalg.terms import (BRK, TRIPLE, Alphabet, LinComb, brk, graft, has_bracket,
                          subterms, symgraft, triple)

from fixtures import scan_normalize, seeded_pick
from lemmas import (assert_exact_coefficients, is_lts_hall_t, ply2_act_ref, ply3_act_ref,
                    subst_ref, tree_route)

A1 = Alphabet.of_size(1)
A2 = Alphabet.of_size(2)
a = A1.gens[0]
g2 = graft((a,), a)


def nf(x):
    out, trace = normalize(x)
    assert check_trace(x, out, trace, explain=True)
    return out


def test_bracket_reorder():
    out = nf(LinComb.of(brk(a, g2)))
    assert len(out) == 1
    (term, coeff), = out.items()
    assert coeff == -1 and term.kind == 1


def test_bracket_kill():
    assert nf(LinComb.of(brk(a, a))) == LinComb()


def test_graft_onto_equal_bracket_vanishes():
    x = tree_mul(LinComb.of(a), LinComb.of(brk(a, a)))
    assert nf(x) == LinComb()


def test_basis_elements_are_fixpoints():
    for n in range(1, 6):
        for t in enumerate_B(n, A1):
            out, trace = normalize(LinComb.of(t))
            assert out == LinComb.of(t)
            assert not trace.steps
    for n in range(1, 4):
        for t in enumerate_B(n, A2):
            out, _ = normalize(LinComb.of(t))
            assert out == LinComb.of(t)


def test_output_supported_on_basis():
    rng = random.Random(31)
    pool = [t for n in range(1, 7) for t in enumerate_Bhat(n, A1)]
    for _ in range(60):
        x = LinComb.of(rng.choice(pool), Fraction(rng.randint(1, 3)))
        out = nf(x)
        assert all(is_B(t) for t in out)


def test_idempotence():
    rng = random.Random(32)
    pool = [t for n in range(1, 6) for t in enumerate_Bhat(n, A1)]
    for _ in range(40):
        x = LinComb.of(rng.choice(pool)) - LinComb.of(rng.choice(pool), Fraction(1, 2))
        once = nf(x)
        assert nf(once) == once


def test_relation_annihilation_small():
    for rule, arity in sorted(RELATION_ARITY.items()):
        for args in sample_basis_tuples(arity, 5, 40, 0, A1):
            residual = relation_residual(rule, args)
            assert nf(residual) == LinComb(), (rule, args)


def test_relation_annihilation_two_generators():
    for rule, arity in sorted(RELATION_ARITY.items()):
        for args in sample_basis_tuples(arity, 4, 15, 1, A2):
            residual = relation_residual(rule, args)
            assert nf(residual) == LinComb(), (rule, args)


def test_well_defined_across_presentations():
    # the normal form only depends on the element, not its presentation
    rng = random.Random(33)
    pool = [t for n in range(1, 6) for t in enumerate_Bhat(n, A1)]
    from plyalg.bases import from_shat, to_shat
    for _ in range(20):
        x = (LinComb.of(rng.choice(pool)) +
             LinComb.of(rng.choice(pool), Fraction(rng.randint(-2, 2) or 1)))
        roundtripped = from_shat(to_shat(x))
        assert normalize(x)[0] == normalize(roundtripped)[0]


def test_strategies_agree():
    # the normal form does not depend on the order the terms are rewritten in
    rng = random.Random(34)
    pool = [t for n in range(1, 6) for t in enumerate_Bhat(n, A1)]
    for i in range(40):
        x = LinComb.of(rng.choice(pool)) + LinComb.of(rng.choice(pool), Fraction(2, 3))
        ref = normalize(x)[0]
        assert scan_normalize(x, min)[0] == ref
        assert scan_normalize(x, seeded_pick(100 + i))[0] == ref


def _random_sums(rng, alphabet, max_n, count, size):
    pool = [t for n in range(3, max_n + 1) for t in enumerate_Bhat(n, alphabet)]
    coeffs = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2))
    for _ in range(count):
        yield LinComb.from_pairs([(rng.choice(pool), rng.choice(coeffs))
                                  for _ in range(size)])


@pytest.mark.parametrize("alphabet,max_n,size", [(A1, 7, 6), (A2, 6, 8)],
                         ids=["1-gen", "2-gen"])
def test_heap_picks_as_full_scan(alphabet, max_n, size):
    # the heap pops the term the full rescan picks, so every step, its
    # order and the output (in dict order) are the rescan's
    rng = random.Random(35)
    returns = 0
    for x in _random_sums(rng, alphabet, max_n, 10, size):
        want, want_steps, back = scan_normalize(x, max)
        # exactly enough fuel: stale entries left in the heap cost none
        out, trace = normalize(x, fuel=len(want_steps))
        assert [(s.rule, s.term, s.path, s.after) for s in trace.steps] == want_steps
        assert list(out.items()) == list(want.items())
        returns += back
    # each corpus exercises the lazy deletion: images cancel terms of the
    # working set, and some of those terms come back later (the 2-generator
    # sums need grade 6 for that; up to grade 5 none come back)
    assert returns > 0


def _graft_on_bracket():
    # one PLY2 step: a graft onto a bracket root
    return LinComb.of(graft((a,), brk(g2, a)))


def test_fuel_exhaustion():
    x = _graft_on_bracket()
    with pytest.raises(FuelExhausted) as ei:
        normalize(x, fuel=0)
    assert ei.value.partial
    assert ei.value.trace.steps == ()
    out, _ = normalize(x, fuel=1)
    assert out == (LinComb.of(brk(symgraft((g2_t(),), a), a))
                   + LinComb.of(brk(symgraft((a, a), a), a)))


def test_fuel_prefix():
    # fuel k stops before the (k+1)-th pop: the first k steps, and the
    # working set they leave, in the same dict order
    x, = _random_sums(random.Random(40), A2, 5, 1, 6)
    _, full = normalize(x)
    assert len(full.steps) == 8
    for k in range(len(full.steps)):
        with pytest.raises(FuelExhausted) as ei:
            normalize(x, fuel=k)
        assert ei.value.trace.steps == full.steps[:k]
        cur = LinComb(full.input)
        for step in full.steps[:k]:
            cur.add_in(step.after, cur.pop(step.term))
        assert list(ei.value.partial.items()) == list(cur.items())
    assert normalize(x, fuel=len(full.steps))[1].steps == full.steps


def _retrace(trace, steps):
    return RewriteTrace(trace.input, trace.output, tuple(steps))


def test_trace_tampering_detected():
    x, out, trace = _ply6_trace()
    assert check_trace(x, out, trace)
    assert not check_trace(x, out + LinComb.of(a), trace)
    assert not check_trace(x, out, _retrace(trace, trace.steps[:-1]))
    # a tampered coefficient inside a step's image breaks replay
    s0 = trace.steps[0]
    tampered = RewriteStep(s0.rule, s0.term, s0.path, s0.bindings,
                           s0.after.scale(Fraction(2)))
    assert not check_trace(x, out, _retrace(trace, (tampered,) + trace.steps[1:]))
    # a valid trace replayed against another input
    other = x + LinComb.of(a)
    assert not check_trace(other, out, trace)
    with pytest.raises(AssertionError, match="trace input does not match"):
        check_trace(other, out, trace, explain=True)


def test_trace_ending_outside_the_basis_rejected():
    # an empty trace whose output is its own start, a PLY2 redex
    x = LinComb.of(symgraft((A2.gens[0],), brk(A2.gens[1], A2.gens[0])))
    start = normal._start(x)
    assert not all(is_B(t) for t in start)
    empty = RewriteTrace(start, start, ())
    assert not check_trace(x, start, empty)
    with pytest.raises(AssertionError, match="output contains non-basis terms"):
        check_trace(x, start, empty, explain=True)


def test_trace_bad_path_rejected():
    # a path that leaves the term, or ends where no image can be put back,
    # is a failed check, not an exception
    x = _graft_on_bracket()
    b2, c2 = A2.gens
    y = LinComb.of(triple((brk(b2, c2),), b2, c2, b2))
    for z, path, rule in ((x, ("zz",), None), (x, ("x", "x"), None),
                          (y, (("s", 0),), "PLY1")):
        out, trace = normalize(z)
        s0 = trace.steps[0]
        bad = _retrace(trace, (replace(s0, path=path, rule=rule or s0.rule),)
                       + trace.steps[1:])
        assert not check_trace(z, out, bad)
        with pytest.raises(AssertionError, match="step 0"):
            check_trace(z, out, bad, explain=True)


def test_middle_slot_step_of_a_bare_triple():
    # the first non-basis child of tb(b, sg(a; bk(b, a)), a) is its middle
    # slot; triple-bracket antisymmetry holds there inside the envelope
    # (5 vertices over 2 generators)
    a2, b2 = A2.gens
    s = symgraft((a2,), brk(b2, a2))
    x = LinComb.of(triple((), b2, s, a2))
    out, trace = normalize(x)
    assert trace.steps[0].path == ("z",)
    assert check_trace(x, out, trace, explain=True)
    assert out == -nf(LinComb.of(triple((), s, b2, a2)))


def test_step_on_a_basis_term_rejected():
    x = LinComb.of(a)
    forged = RewriteTrace(x, LinComb(), (RewriteStep("PLY1", a, (), (), LinComb()),))
    assert not check_trace(x, LinComb(), forged)
    with pytest.raises(AssertionError, match="no rule applies"):
        check_trace(x, LinComb(), forged, explain=True)


def _ply6_trace():
    # nine steps (PLY3, PLY4, PLY6) from an input with four non-basis terms
    x = relation_residual("PLY6", (a_t(), g2_t(), a_t(), g2_t(), a_t()))
    out, trace = normalize(x)
    assert check_trace(x, out, trace, explain=True) and len(trace.steps) > 2
    return x, out, trace


def test_trace_renamed_rule_rejected():
    x, out, trace = _ply6_trace()
    s0 = trace.steps[0]
    bad = replace(s0, rule="PLY6")
    assert not check_trace(x, out, _retrace(trace, (bad,) + trace.steps[1:]))


def test_trace_swapped_term_rejected():
    x, out, trace = _ply6_trace()
    s0 = trace.steps[0]
    others = [t for t in trace.input if t is not s0.term and not is_B(t)]
    assert others
    for t in others:
        bad = _retrace(trace, (replace(s0, term=t),) + trace.steps[1:])
        with pytest.raises(AssertionError, match="step 0"):
            check_trace(x, out, bad, explain=True)


def test_trace_dropped_middle_row_rejected():
    x, out, trace = _ply6_trace()
    k = len(trace.steps) // 2
    assert not check_trace(x, out, _retrace(trace, trace.steps[:k] + trace.steps[k + 1:]))


def test_rewriting_leaves_input_unchanged():
    x, _, trace = _ply6_trace()
    x0 = LinComb(x)
    normalize(x)
    assert x == x0 and trace.input == normal._start(x)
    u, v = map(hall.leaf, A2.gens)
    y = LinComb.of(hall.node3(u, v, u)) + LinComb.of(hall.node3(v, u, u), Fraction(2))
    y0 = LinComb(y)
    assert hall.lts_hall_rewrite(y, cmp_gen) != y0
    assert y == y0


def test_trace_rules_recorded():
    _, out, trace = _ply6_trace()
    assert out == LinComb()
    assert {s.rule for s in trace.steps} == {"PLY3", "PLY4", "PLY6"}


def test_brk_is_ply1_image():
    # a bracket is born as PLY1's one-step image, or as itself when that
    # is a basis element, so PLY1 has nothing left to do
    pool = [t for n in range(1, 5) for t in enumerate_B(n, A2)]
    for u, v in itertools.product(pool, repeat=2):
        t = brk(u, v)
        if is_B(t):
            want = LinComb.of(t)
        else:
            rule, _, want = head_rewrite(t)
            assert rule == "PLY1"
        assert normal._brk(u, v) == want, (u, v)


def test_normal_form_antisymmetric():
    rng = random.Random(42)
    pool = [t for n in range(2, 5) for t in enumerate_T(n, A2) if not is_B(t)]
    for _ in range(40):
        u, v = rng.choice(pool), rng.choice(pool)
        assert nf(LinComb.of(brk(u, v))) == -nf(LinComb.of(brk(v, u))), (u, v)


def _grade6_and_residuals(seed):
    # grade-6 terms over a, b, alone and in sums, and PLY relation residuals;
    # a lone term with coefficient 1 is the input whose working set could
    # alias its first step's image
    rng = random.Random(seed)
    trees = rng.sample(enumerate_Bhat(6, A2), 16)
    inputs = [LinComb.of(t) for t in rng.sample(enumerate_T(6, A2), 400) if not is_B(t)][:8]
    inputs += [LinComb.of(t) - LinComb.of(u, Fraction(1, 2)) for t, u in zip(trees, trees[1:])]
    inputs += [relation_residual(rule, args) for rule, arity in sorted(RELATION_ARITY.items())
               for args in sample_basis_tuples(arity, 5, 3, seed, A2)]
    return inputs


def test_no_ply1_step():
    steps = 0
    for x in _grade6_and_residuals(43):
        _, trace = normalize(x)
        assert all(s.rule != "PLY1" for s in trace.steps), x
        steps += len(trace.steps)
    assert steps > 40  # the corpus still takes rule steps


def test_step_memo_not_mutated(tmp_path):
    # a step's image is shared by the memo, every trace that holds it and
    # every working set it was added into: no run may write into it
    inputs = _grade6_and_residuals(44)[:8] + [_ply6_trace()[0]]
    for x in inputs:
        normalize(x)
    saved = [(v.after, list(v.after.items())) for v in normal._STEP.values()]
    assert saved
    saved += [(v, list(v.items())) for v in normal._ORIENT.values()]
    # the conversion cache too: ``check_trace`` pops terms out of ``_start``'s
    # result, so that must never be one of the cached images
    assert normal._BH2T
    saved += [(v, list(v.items())) for v in normal._BH2T.values()]
    for x in inputs:
        out, trace = normalize(x)
        assert check_trace(x, out, trace, explain=True)
        if trace.steps:
            with pytest.raises(FuelExhausted):
                normalize(x, fuel=len(trace.steps) // 2)
    for x in inputs[-3:]:
        argv = ["normalize", render_lincomb(x), "--gens", "a,b", "--trace",
                str(tmp_path / "trace.jsonl")]
        assert main(argv) == 0
    for v, items in saved:
        assert list(v.items()) == items


def test_conversion_cache_agrees():
    # ``_start`` converts term by term through ``_to_t``'s cache; converting
    # the whole combination, then orienting it, is the oracle
    def oracle(x):
        return any_to_t(x).map_terms(normal._orient)

    pools = [[t for n in range(1, 5) for t in enum(n, A1)]
             for enum in (enumerate_Bhat, enumerate_Shat, enumerate_T)]
    for t in itertools.chain(*pools):
        x = LinComb.of(t)
        assert normal._start(x) == oracle(x), t
    rng = random.Random(46)
    pools = [[t for n in range(1, 6) for t in enum(n, A2)]
             for enum in (enumerate_Bhat, enumerate_Shat, enumerate_T)]
    for _ in range(40):
        x = LinComb()
        for pool in rng.sample(pools, rng.randint(2, 3)):
            x.add_in(LinComb.of(rng.choice(pool), Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))))
        assert normal._start(x) == oracle(x), x
    # one element in two bases cancels
    t = rng.choice(pools[2])
    assert normal._start(LinComb.of(t) - t_value(t)) == LinComb()


def test_t_mul_matches_round_trip():
    # products in triple coordinates equal the route through trees (tree
    # values, tree product, block basis, triangular solve, orientation) on
    # every pair of triple-basis terms whose product has at most 7
    # vertices over one generator, at most 5 over two; triples with a
    # symmetric part are among both factors
    symmetric = set()
    for alphabet, grade in ((A1, 7), (A2, 5)):
        pool = [t for n in range(1, grade) for t in enumerate_T(n, alphabet)]
        pairs = [(x, y) for x, y in itertools.product(pool, repeat=2) if x.vc + y.vc <= grade]
        for x, y in pairs:
            symmetric.update(i for i, t in enumerate((x, y)) if t.kind == TRIPLE and t.sym)
            assert normal.t_mul(x, y) == tree_route(LinComb.of((x,)), LinComb.of(y)), (x, y)
    assert symmetric == {0, 1}


def _tuples(pool, k, budget):
    """Every k-tuple of terms of ``pool`` with at most ``budget`` vertices
    in all."""
    if k == 0:
        yield ()
        return
    for t in pool:
        if t.vc <= budget - (k - 1):
            for rest in _tuples(pool, k - 1, budget - t.vc):
                yield (t,) + rest


def test_t_word_action_matches_tree_route():
    # the word actions of PLY3, (s · [[y,z]]) ▷ w, and of PLY6,
    # (a·b·[[c,v]] − b·a·[[c,v]]) ▷ w, equal the route through trees on
    # every choice of letters and target from T with at most 7 vertices in
    # all over one generator; over two, at most 5 (PLY3) and 6 (PLY6)
    shapes = (
        (lambda s, y, z: LinComb.of((s, brk(y, z))), ((A1, 7), (A2, 5))),
        (lambda a, b, c, v: LinComb.from_pairs([((a, b, brk(c, v)), 1),
                                                ((b, a, brk(c, v)), -1)]),
         ((A1, 7), (A2, 6))),
    )
    for shape, grades in shapes:
        arity = shape.__code__.co_argcount
        for alphabet, grade in grades:
            pool = [t for n in range(1, grade) for t in enumerate_T(n, alphabet)]
            for *letters, w in _tuples(pool, arity + 1, grade):
                words, target = shape(*letters), LinComb.of(w)
                assert normal.t_word_action(words, target) == tree_route(words, target), \
                    (letters, w)


def test_subst_and_act_match_reference():
    # the one-slot rebuild and the one letter action agree with their
    # statement per node kind (lemmas): every slot of every bracket,
    # symmetric graft and bare triple of T through grade 5 over one
    # generator and 4 over two, with the image a ▷ child (a graft, so not
    # at a root) and [[a ▷ child, a]], and every letter of grade at most 2
    # acting on each of those terms
    for alphabet, grade in ((A1, 5), (A2, 4)):
        g = alphabet.gens[0]
        letters = enumerate_T(1, alphabet) + enumerate_T(2, alphabet)
        for n in range(2, grade + 1):
            for t in enumerate_T(n, alphabet):
                if t.kind == TRIPLE and t.sym:
                    continue
                for slot, child in subterms(t):
                    image = normal.t_mul(g, child)
                    images = [tree_brk(image, LinComb.of(g))]
                    if slot != "root":
                        images.append(image)
                    for x in images:
                        assert normal.subst(t, slot, x) == subst_ref(t, slot, x), (t, slot, x)
                act = ply2_act_ref if t.kind == BRK else ply3_act_ref
                for s in letters:
                    assert normal._act(s, t) == act(s, t), (s, t)


def test_deep_library_term_normalizes():
    # exprs.MAX_NESTING guards text only; this chain converts in 1 frame a
    # level and orients in 2, and vanishes before is_B sees it
    t = a
    for _ in range(400):
        t = brk(a, t)
    # the innermost [[a,a]] is 0, so the whole chain is
    assert normalize(LinComb.of(t))[0] == LinComb()


@pytest.mark.xfail(strict=True, raises=RecursionError, reason=(
    "a chain that does not vanish reaches is_B, which recurses three Python "
    "frames per level (memo's wrapper, is_B and its generator), so a cold "
    "chain exceeds the interpreter's recursion limit from 249 levels on 3.10 "
    "and 3.11, from 332 on 3.12 and 3.13"))
def test_deep_alternating_library_term_normalizes():
    x, y = A2.gens
    t = y
    for i in range(400):
        t = brk((x, y)[i % 2], t)
    # innermost [a,b], then [b,[a,b]], ...: no bracket of equal parts
    assert normalize(LinComb.of(t))[0]


def a_t():
    return enumerate_B(1, A1)[0]


def g2_t():
    return enumerate_B(2, A1)[0]


def test_is_B_matches_hall_injection():
    # the basis predicate's triple conditions agree with the generic Hall
    # checker through the magma injection, plus the bracket side conditions
    # (a bracket in the third slot needs two generators to be a basis element)
    from plyalg.bases import enumerate_T
    from plyalg.terms import BRK, TRIPLE
    for alphabet, n in itertools.product((A1, A2), range(1, 6)):
        for t in enumerate_T(n, alphabet):
            if (t.kind == TRIPLE and not t.sym
                    and is_B(t.y) and is_B(t.z) and is_B(t.w)):
                hall_ok = is_lts_hall_t(t)
                side_ok = t.w.kind != BRK
                if t.y.kind == BRK and cmp_hall_t(t.y.y, t.z) > 0:
                    side_ok = False
                if t.z.kind == BRK and cmp_hall_t(t.z.y, t.y) > 0:
                    side_ok = False
                assert is_B(t) == (hall_ok and side_ok)


def test_equal_first_slots_not_in_basis():
    # no constructor builds [y,y,w]; built directly, it is no basis element
    # and antisymmetry rewrites it to 0
    from plyalg.normal import head_rewrite
    b = A2.gens[1]
    t = triple((), b, b, A2.gens[0])
    assert not is_B(t)
    assert head_rewrite(t)[0] == "TB-antisym" and not head_rewrite(t)[2]


def test_lat_projection():
    # bracket-containing basis elements die; bracket-free ones survive
    for n in range(1, 6):
        for t in enumerate_B(n, A1):
            out = lat_project(LinComb.of(t))
            if has_bracket(t):
                assert out == LinComb()
            else:
                assert out == LinComb.of(t)
    assert [len(enumerate_B_lat(n, A1)) for n in range(1, 6)] == [1, 1, 2, 5, 13]


def test_lat_quotient_dimension_oracle():
    # the projected normal forms of all bracket-free trees span exactly the
    # bracket-free basis elements (rank check by exact elimination)
    from plyalg.linalg import rank
    for n in range(1, 6):
        trees = [t for t in enumerate_Bhat(n, A1) if not has_bracket(t)]
        nfs = [lat_project(normalize(LinComb.of(t))[0]) for t in trees]
        basis = sorted(set(u for x in nfs for u in x), key=id)
        idx = {u: i for i, u in enumerate(basis)}
        rows = [[x.get(u, 0) for u in basis] for x in nfs]
        assert rank(rows) == len(enumerate_B_lat(n, A1))


def test_commuting_diagram():
    # both routes land in the bracket-free quotient: projecting the normal
    # form equals first killing brackets, then normalizing and projecting
    # (the projection realizes the quotient's own normal-form map)
    rng = random.Random(35)
    pool = [t for n in range(1, 6) for t in enumerate_Bhat(n, A1)]
    for _ in range(60):
        x = (LinComb.of(rng.choice(pool)) +
             LinComb.of(rng.choice(pool), Fraction(-1, 2)))
        lhs = lat_project(normalize(x)[0])
        rhs = lat_project(normalize(lat_project(x))[0])
        assert lhs == rhs


def test_graded_dim():
    assert graded_dim(1, 1) == 1
    assert graded_dim(4, 1) == 9
    assert graded_dim(5, 1) == 31
    # regression pins: cross-checked against the exact rank of the span of
    # all relation instances and their products (mod-p elimination oracle)
    assert graded_dim(6, 1) == 106
    assert [graded_dim(n, 2) for n in range(1, 6)] == [2, 5, 28, 169, 1128]


@pytest.mark.xfail(strict=True, reason=(
    "with two generators the six-vertex fixed points of the published "
    "rewriting are linearly dependent modulo the ideal: this relation "
    "instance rewrites, with a trace that replays, to a nonzero "
    "basis-supported combination; see ROADMAP item 4"))
def test_relation_annihilation_two_generators_grade_six():
    from plyalg.bases import enumerate_Bhat
    pool = {repr(t): t for n in range(1, 3) for t in enumerate_Bhat(n, A2)}
    args = (pool["b"], pool["gr(a; a)"], pool["gr(b; a)"], pool["a"])
    residual = relation_residual("PLY3", args)
    out, trace = normalize(residual)
    assert check_trace(residual, out, trace, explain=True)
    assert out == LinComb()


@pytest.mark.xfail(strict=True, reason=(
    "with one generator at eight vertices this PLY6 relation instance "
    "rewrites, with a trace that replays, to a 70-term nonzero "
    "basis-supported combination: the fixed points are not canonical there"))
def test_relation_annihilation_one_generator_grade_eight():
    pool = {repr(t): t for n in range(1, 4) for t in enumerate_B(n, A1)}
    args = (pool["a"], pool["sg(a; a)"], pool["bk(sg(a; a), a)"], pool["a"], pool["a"])
    residual = relation_residual("PLY6", args)
    out, trace = normalize(residual)
    assert check_trace(residual, out, trace, explain=True)
    assert out == LinComb()


def test_bracket_in_third_slot_is_rewritten():
    # [y,z,[[u,v]]] is the image of a graft onto a bracket root and must
    # reduce by the derivation identity, not sit in the basis
    g2t = g2_t()
    from plyalg.terms import triple
    t = triple((), g2t, a, brk(g2t, a))
    assert not is_B(t)
    out = nf(LinComb.of(t))
    assert all(is_B(u) for u in out)
    raw = triple_bracket(LinComb.of(g2), LinComb.of(a),
                         tree_brk(LinComb.of(g2), LinComb.of(a)))
    want = (tree_brk(triple_bracket(LinComb.of(g2), LinComb.of(a), LinComb.of(g2)),
                     LinComb.of(a))
            + tree_brk(LinComb.of(g2),
                       triple_bracket(LinComb.of(g2), LinComb.of(a), LinComb.of(a))))
    assert nf(raw - want) == LinComb()


def test_normalize_is_linear():
    rng = random.Random(18)
    pool = [t for n in range(1, 7) for t in enumerate_Bhat(n, A1)]
    for _ in range(30):
        x = LinComb.of(rng.choice(pool), Fraction(rng.randint(-2, 2) or 1))
        y = LinComb.of(rng.choice(pool), Fraction(1, rng.randint(1, 3)))
        assert normalize(x + y)[0] == normalize(x)[0] + normalize(y)[0]


def test_ideal_closed_under_products():
    # products of relation values with basis elements still annihilate:
    # together with linearity this pins kernel(normalize) = the ideal
    rng = random.Random(19)
    pool = [t for n in range(1, 3) for t in enumerate_Bhat(n, A1)]
    for rule, arity in sorted(RELATION_ARITY.items()):
        for args in sample_basis_tuples(arity, 4, 6, 2, A1):
            v = relation_residual(rule, args)
            if not v:
                continue
            e = LinComb.of(rng.choice(pool))
            for combo in (tree_brk(v, e), tree_brk(e, v),
                          tree_mul(v, e), tree_mul(e, v)):
                assert nf(combo) == LinComb(), (rule, args)


def test_termination_monotone_bracket_count():
    # rewriting never lowers the bracket count of any term below the
    # minimum bracket count of the input (b is monotone along traces)
    rng = random.Random(36)
    pool = [t for n in range(2, 6) for t in enumerate_Bhat(n, A1)]
    for _ in range(25):
        t0 = rng.choice(pool)
        x = LinComb.of(t0)
        out, trace = normalize(x)
        start = min((u.bc for u in any_to_t(x)), default=0)
        for s in trace.steps:
            assert all(u.bc >= start for u in s.after)


def test_no_integral_fraction_in_pipeline():
    # a Fraction(n, 1) gives right answers at Fraction cost, so only its type
    # shows it: every stored coefficient is an int or a non-integral Fraction
    rng = random.Random(37)
    trees = rng.sample(enumerate_Bhat(6, A2), 8)
    inputs = [LinComb.of(t, Fraction(rng.choice((1, 3)), 2)) + LinComb.of(u, Fraction(1, 2))
              for t, u in zip(trees, trees[1:])]
    inputs += [relation_residual(rule, args) for rule, arity in sorted(RELATION_ARITY.items())
               for args in sample_basis_tuples(arity, 5, 2, 3, A2)]
    for x in inputs:
        out, trace = normalize(x)
        assert_exact_coefficients(out)
        for step in trace.steps:
            assert_exact_coefficients(step.after)
    letters = Alphabet.of_size(4).gens
    for w in itertools.permutations(letters + letters[:1]):
        assert_exact_coefficients(decompose(LinComb.of(w), cmp_shat))
    for table in (normal._BH2T, normal._TMUL, normal._E2, normal._E3, bases._S2T,
                  osbb._DECOMPOSED):
        assert table
        for v in table.values():
            assert_exact_coefficients(v)
    u, v = hall.leaf(A2.gens[0]), hall.leaf(A2.gens[1])
    nodes = [hall.node3(*p) for p in itertools.product((u, v), repeat=3)]
    nodes += [hall.node3(p, q, r) for p, q, r in itertools.product(nodes[:4], (u, v), (u, v))]
    for p, q in zip(nodes, nodes[1:]):
        x = LinComb.of(p, Fraction(1, 2)) - LinComb.of(q, Fraction(3, 2))
        assert_exact_coefficients(hall.lts_hall_rewrite(x, cmp_gen))
