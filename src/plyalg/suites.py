"""Deterministic verification suites behind the ``check`` CLI command.

Every suite returns (passed, report) where the report is a JSON-ready dict,
reproducible byte-for-byte for a given seed. A suite that checked no
instance does not pass.
"""
from __future__ import annotations

import itertools
import random

from . import hall
from .bases import (alpha_count, any_to_bhat, beta_count, enumerate_S,
                    enumerate_Shat, enumerate_T)
from .exprs import render_lincomb, render_term
from .normal import check_trace, enumerate_B, normalize
from .orders import cmp_gen, cmp_shat
from .osbb import decompose, expand_lincomb, words_for_multiset
from .tensor import (letters_to_words, lie_word, tensor_mul, tree_brk,
                     tree_mul, triple_bracket, word_act_trees)
from .terms import Alphabet, LinComb
from .yamaguti import check_lat_degeneration, check_ly_axioms, sample_basis_tuples


def relation_residual(rule, args):
    """LHS − RHS of a defining relation, as an exact tree-basis element."""
    if rule == "PLY1":
        x, y = map(any_to_bhat, args)
        return tree_brk(x, y) + tree_brk(y, x)
    if rule == "PLY2":
        u, x, y = map(any_to_bhat, args)
        return (tree_mul(u, tree_brk(x, y))
                - tree_brk(tree_mul(u, x), y) - tree_brk(x, tree_mul(u, y)))
    if rule == "PLY3":
        u, x, y, z = map(any_to_bhat, args)
        lhs = tree_mul(u, triple_bracket(x, y, z))
        rhs = (triple_bracket(tree_mul(u, x), y, z)
               + triple_bracket(x, tree_mul(u, y), z)
               + triple_bracket(x, y, tree_mul(u, z))
               + word_act_trees(tensor_mul(letters_to_words(u),
                                           letters_to_words(tree_brk(x, y))), z)
               - tree_mul(tree_brk(x, y), tree_mul(u, z)))
        return lhs - rhs
    if rule == "PLY4":
        x, y, z = map(any_to_bhat, args)
        out = LinComb()
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            out += tree_brk(tree_brk(a, b), c)
            out -= triple_bracket(a, b, c)
            out += tree_mul(tree_brk(a, b), c)
        return out
    if rule == "PLY5":
        x, y, z, u = map(any_to_bhat, args)
        out = LinComb()
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            out += triple_bracket(tree_brk(a, b), c, u)
            out -= tree_mul(tree_brk(tree_brk(a, b), c), u)
        return out
    if rule == "PLY6":
        u, v, x, y, z = map(any_to_bhat, args)
        lhs = triple_bracket(u, v, triple_bracket(x, y, z))
        rhs = (triple_bracket(triple_bracket(u, v, x), y, z)
               + triple_bracket(x, triple_bracket(u, v, y), z)
               + triple_bracket(x, y, triple_bracket(u, v, z))
               + word_act_trees(tensor_mul(lie_word(letters_to_words(u),
                                                    letters_to_words(v)),
                                           letters_to_words(tree_brk(x, y))), z)
               - tree_mul(tree_brk(x, y), triple_bracket(u, v, z)))
        return lhs - rhs
    raise ValueError("unknown relation %r" % rule)


RELATION_ARITY = {"PLY1": 2, "PLY2": 3, "PLY3": 4, "PLY4": 3, "PLY5": 4, "PLY6": 5}


def suite_ply_axioms(max_vertices=6, samples=500, seed=0, gens=1):
    """Every defining relation whose arguments fit in ``max_vertices``
    vertices, normalized to 0 with a trace that replays; passes when at
    least one relation is listed and each has an instance."""
    alphabet = Alphabet.of_size(gens)
    results = []
    ok = True
    for rule, arity in sorted(RELATION_ARITY.items()):
        if arity > max_vertices:
            continue
        tuples = sample_basis_tuples(arity, max_vertices, samples, seed, alphabet)
        failures = []
        for args in tuples:
            residual = relation_residual(rule, args)
            nf, trace = normalize(residual)
            sound = check_trace(residual, nf, trace)
            if nf or not sound:
                failures.append({"args": [render_term(a) for a in args],
                                 "residual": render_lincomb(nf),
                                 "trace_ok": sound})
        ok = ok and bool(tuples) and not failures
        results.append({"rule": rule, "instances": len(tuples),
                        "failures": failures})
    ok = ok and bool(results)
    return ok, {"suite": "ply-axioms", "max_vertices": max_vertices,
                "samples": samples, "seed": seed, "gens": gens,
                "results": results, "pass": ok}


def suite_ly_axioms(max_vertices=6, samples=20, seed=0, gens=1):
    alphabet = Alphabet.of_size(gens)
    reports = check_ly_axioms(max_vertices, samples, seed, alphabet)
    reports += check_lat_degeneration(min(max_vertices, 5), samples, seed, alphabet)
    results = []
    ok = bool(reports)
    for r in reports:
        if not r.passed:
            ok = False
            results.append({"axiom": r.axiom,
                            "args": [render_lincomb(x) if isinstance(x, LinComb)
                                     else render_term(x) for x in r.bindings],
                            "residual": render_lincomb(r.residual)})
    return ok, {"suite": "ly-axioms", "max_vertices": max_vertices,
                "samples": samples, "seed": seed, "gens": gens,
                "checked": len(reports), "failures": results, "pass": ok}


def suite_lts_hall(max_vertices=5, samples=200, seed=0, gens=2):
    """Hall rewriting over generator letters: Hall-only output, annihilation
    of the skew and cyclic relations, idempotence on Hall combinations."""
    alphabet = Alphabet.of_size(gens)
    letters = list(alphabet.gens)
    rng = random.Random(seed)

    def rand_m3(budget):
        if budget < 3 or rng.random() < 0.5:
            return hall.leaf(rng.choice(letters)), 1
        total = 0
        parts = []
        for i in range(3):
            sub, used = rand_m3(budget - total - (2 - i))
            parts.append(sub)
            total += used
        return hall.node3(*parts), total

    failures = []
    for _ in range(samples):
        t, _ = rand_m3(max_vertices)
        out = hall.lts_hall_rewrite(LinComb.of(t), cmp_gen)
        if any(not hall.is_lts_hall(u, cmp_gen) for u in out):
            failures.append({"kind": "not-hall", "input": repr(t)})
            continue
        again = hall.lts_hall_rewrite(out, cmp_gen)
        if again != out:
            failures.append({"kind": "not-idempotent", "input": repr(t)})
        # skew and cyclic relation instances built from this element
        u, _ = rand_m3(max_vertices - 2)
        v, _ = rand_m3(max_vertices - 2)
        w, _ = rand_m3(max_vertices - 2)
        skew = LinComb.of(hall.node3(u, v, w)) + LinComb.of(hall.node3(v, u, w))
        cyc = (LinComb.of(hall.node3(u, v, w)) + LinComb.of(hall.node3(v, w, u))
               + LinComb.of(hall.node3(w, u, v)))
        if hall.lts_hall_rewrite(skew, cmp_gen) or hall.lts_hall_rewrite(cyc, cmp_gen):
            failures.append({"kind": "relation-not-annihilated", "input": repr((u, v, w))})
    ok = samples > 0 and not failures
    return ok, {"suite": "lts-hall", "max_vertices": max_vertices,
                "samples": samples, "seed": seed, "gens": gens,
                "failures": failures, "pass": ok}


def suite_osbb_roundtrip(max_vertices=4, samples=0, seed=0, gens=3):
    """Exhaustive round trips for words and OSBB words up to length 4."""
    alphabet = Alphabet.of_size(gens)
    letters = alphabet.gens
    failures = []
    words = 0
    for n in range(0, max_vertices + 1):
        for w in itertools.product(letters, repeat=n):
            words += 1
            d = LinComb.of(w)
            dec = decompose(d, cmp_shat)
            if expand_lincomb(dec) != d:
                failures.append({"kind": "expand-decompose", "word": repr(w)})
            for ow in dec:
                if (ow.length != n or
                        sorted(ow.letters(), key=lambda t: t.index)
                        != sorted(w, key=lambda t: t.index)):
                    failures.append({"kind": "letter-conservation", "word": repr(w)})
    osbbs = 0
    for n in range(0, max_vertices + 1):
        for ms in itertools.combinations_with_replacement(letters, n):
            for ow in words_for_multiset(ms, cmp_shat):
                osbbs += 1
                if decompose(expand_lincomb(LinComb.of(ow)), cmp_shat) != LinComb.of(ow):
                    failures.append({"kind": "decompose-expand", "osbb": repr(ow)})
    ok = not failures
    return ok, {"suite": "osbb-roundtrip", "max_vertices": max_vertices,
                "samples": words + osbbs, "seed": seed, "gens": gens,
                "words": words, "osbb_words": osbbs,
                "failures": failures, "pass": ok}


# the published dimensions of B in grades 1, 2, ..., by number of generators
KNOWN_B = {1: (1, 1, 3, 9, 31, 106), 2: (2, 5, 28, 169, 1128)}


def suite_census(max_vertices=5, samples=0, seed=0, gens=1):
    """Graded dimension census against the closed counting formulas and the
    published dimensions of B."""
    alphabet = Alphabet.of_size(gens)
    known_b = KNOWN_B.get(gens, ())
    rows = []
    ok = True
    for n in range(1, max_vertices + 1):
        s_n = len(enumerate_S(n, alphabet))
        row = {"n": n,
               "S": s_n, "S_expected": alpha_count(n, gens),
               "Shat": len(enumerate_Shat(n, alphabet)),
               "T": len(enumerate_T(n, alphabet)),
               "beta_expected": beta_count(n, gens),
               "B": len(enumerate_B(n, alphabet))}
        row["ok"] = (row["S"] == row["S_expected"]
                     and row["Shat"] == row["beta_expected"]
                     and row["T"] == row["beta_expected"]
                     and (n > len(known_b) or row["B"] == known_b[n - 1]))
        ok = ok and row["ok"]
        rows.append(row)
    return ok, {"suite": "census", "max_vertices": max_vertices, "seed": seed,
                "gens": gens, "rows": rows, "pass": ok}


SUITES = {"ply-axioms": suite_ply_axioms, "ly-axioms": suite_ly_axioms,
          "lts-hall": suite_lts_hall, "osbb-roundtrip": suite_osbb_roundtrip,
          "census": suite_census}
