"""The four benchmark workloads: seeded inputs, the operations, and the
oracles that check every output.

Each workload is built in two steps:

* ``Workload(seed)`` makes the inputs from the seed. It uses only this
  file's own generators and fixed counts, never the program's samplers, so
  it fills none of the program's memo tables (setup is not timed as work).
* ``prepare()`` runs at the start of every timed pass. It does the part of
  the input work a user of the program pays for (basis enumeration, parsing
  pinned arguments) and returns the list of ``Op``.

An op's ``run`` is the timed call. ``check`` is the per-op oracle, run
outside the timed region right after the op. ``check_pass`` holds the
whole-pass oracles. None of the oracles is a stored copy of the program's
output: they are identities the output must satisfy, or closed-form counts.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from plyalg import hall
from plyalg.bases import any_to_bhat, cmp_t, enumerate_Shat, enumerate_T
from plyalg.exprs import parse_algebra, render_lincomb, render_term
from plyalg.normal import check_trace, enumerate_B, is_B, normalize
from plyalg.orders import cmp_gen, cmp_shat
from plyalg.osbb import decompose, expand_lincomb
from plyalg.suites import relation_residual
from plyalg.terms import Alphabet, LinComb
from plyalg.yamaguti import ly_binary, ly_triple

# Certified graded dimensions of the free post-Lie-Yamaguti algebra.
B_COUNTS = {1: (1, 1, 3, 9, 31, 106), 2: (2, 5, 28, 169)}


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def t_count(n, k):
    """|T_n| = 2^(n-1) * k^n * Catalan(n-1): two-operator trees, n vertices."""
    return 2 ** (n - 1) * k ** n * catalan(n - 1)


class Workload:
    """``keep`` gives what the cold pass stores of an output: the whole-pass
    oracles read it, and every warm pass must reproduce it exactly.
    ``layers`` names the traced spans and hit ratios the workload is there
    to measure; a traced run in which one of them sees no call stops."""

    def keep(self, out):
        return out


class Op:
    """One timed operation. ``pinned`` names the known fault it shows, and
    ``expect`` starts the error it must fail with; any other error is an
    unexpected failure."""
    __slots__ = ("label", "run", "pinned", "expect")

    def __init__(self, label, run, pinned=None, expect=None):
        self.label, self.run, self.pinned, self.expect = label, run, pinned, expect


# -- axioms -----------------------------------------------------------------------

PLY_ARITY = {"PLY1": 2, "PLY2": 3, "PLY3": 4, "PLY4": 3, "PLY5": 4, "PLY6": 5}
LY_ARITY = {"LY1": 1, "LY2": 2, "LY3": 3, "LY4": 4, "LY5": 4, "LY6": 5}
# (family, generators, max total vertices, instances drawn per rule)
AXIOM_SETS = (("PLY", 1, 7, 60), ("PLY", 2, 5, 60), ("LY", 1, 6, 25))
AXIOM_POOL_GRADES = {1: 6, 2: 4}
# (family, rule, generators, arguments, fault, start of the error it gives)
AXIOM_PINNED = (
    ("PLY", "PLY3", 2, ("b", "gr(a; a)", "gr(b; a)", "a"),
     "normal forms beyond the certified envelope (2 generators, 6 vertices) "
     "are not canonical: sound trace, nonzero result", "nonzero normal form"),
    ("PLY", "PLY6", 1, ("a", "sg(a; a)", "bk(sg(a; a), a)", "a", "a"),
     "normal forms beyond the certified envelope (1 generator, 8 vertices) "
     "are not canonical: sound trace, nonzero result", "nonzero normal form"),
)


def _cyc3(f, x, y, z):
    return f(x, y, z) + f(y, z, x) + f(z, x, y)


def ly_residual(axiom, args):
    """The Lie-Yamaguti axiom as an expression that must vanish."""
    b, t = ly_binary, ly_triple
    if axiom == "LY1":
        (x,) = args
        return b(x, x)
    if axiom == "LY2":
        x, y = args
        return t(x, x, y)
    if axiom == "LY3":
        return _cyc3(lambda p, q, r: t(p, q, r) + b(b(p, q), r), *args)
    if axiom == "LY4":
        x, y, z, w = args
        return _cyc3(lambda p, q, r: t(b(p, q), r, w), x, y, z)
    if axiom == "LY5":
        x, y, z, w = args
        return t(x, y, b(z, w)) - b(t(x, y, z), w) - b(z, t(x, y, w))
    x, y, u, v, w = args
    return (t(x, y, t(u, v, w)) - t(t(x, y, u), v, w)
            - t(u, t(x, y, v), w) - t(u, v, t(x, y, w)))


def grade_grid(arity, max_vertices, sizes):
    """Every tuple of (grade, index) slots with total grade <= max_vertices;
    ``sizes[n - 1]`` is the size of the grade-n pool."""
    out = []

    def rec(acc, used):
        if len(acc) == arity:
            out.append(tuple(acc))
            return
        slack = arity - len(acc) - 1
        for n in range(1, max_vertices - used - slack + 1):
            if n > len(sizes):
                break
            for i in range(sizes[n - 1]):
                acc.append((n, i))
                rec(acc, used + n)
                acc.pop()

    rec([], 0)
    return out


def draw(rng, items, k, stratum=lambda item: ()):
    """All of ``items`` if there are at most k, else k drawn without
    replacement, spread over the strata in proportion to their sizes (the
    quotas depend on ``items`` alone, so every seed draws the same number
    from each stratum)."""
    if len(items) <= k:
        return list(items)
    strata = {}
    for item in items:
        strata.setdefault(stratum(item), []).append(item)
    share = {s: k * len(m) / len(items) for s, m in strata.items()}
    quota = {s: int(q) for s, q in share.items()}
    for s in sorted(share, key=lambda s: (quota[s] - share[s], s))[:k - sum(quota.values())]:
        quota[s] += 1
    return [item for s in sorted(strata) for item in rng.sample(strata[s], quota[s])]


def check_relation(nf, trace_ok):
    if not trace_ok:
        return "trace does not replay"
    if nf:
        return "nonzero normal form (%d terms)" % len(nf)
    return None


class Axioms(Workload):
    name = "axioms"
    layers = ("tensor", "orders.sort", "bases.any_to_t", "bases.enumerate",
              "normal.normalize", "normal.head_rewrite", "normal.subst",
              "normal.check_trace", "yamaguti", "suites.relation_residual",
              "bases.shat_elem_to_t.hit_ratio", "normal.t_mul.hit_ratio")

    def __init__(self, seed):
        # The instances are the same for every seed, drawn once from a
        # fixed random stream: with seeded draws the cold throughput moved
        # by 25% between seeds. The seed draws the order of the operations.
        rng = random.Random("axioms")
        self.instances = []     # (family, rule, gens, ((grade, index), ...))
        for family, gens, max_v, k in AXIOM_SETS:
            arities = PLY_ARITY if family == "PLY" else LY_ARITY
            for rule, arity in sorted(arities.items()):
                grid = grade_grid(arity, max_v, B_COUNTS[gens])
                # stratified by the grades of the arguments
                for slots in draw(rng, grid, k, lambda slots: tuple(n for n, _ in slots)):
                    self.instances.append((family, rule, gens, slots))
        random.Random(seed).shuffle(self.instances)

    def pools(self):
        """Graded basis pools, each sorted by rendered text."""
        return {g: {n: sorted(enumerate_B(n, Alphabet.of_size(g)), key=render_term)
                    for n in range(1, top + 1)}
                for g, top in AXIOM_POOL_GRADES.items()}

    def input_texts(self):
        pools = self.pools()
        return (["%s %d (%s)" % (rule, gens, ", ".join(render_term(pools[gens][n][i])
                                                       for n, i in slots))
                 for _, rule, gens, slots in self.instances]
                + ["%s %d (%s)" % (rule, gens, ", ".join(texts))
                   for _, rule, gens, texts, _, _ in AXIOM_PINNED])

    def prepare(self):
        pools = self.pools()
        self.pool_sizes = {g: [len(p[n]) for n in sorted(p)] for g, p in pools.items()}
        ops = []
        for family, rule, gens, slots in self.instances:
            args = tuple(pools[gens][n][i] for n, i in slots)
            ops.append(Op(rule, self._op(family, rule, args)))
        for family, rule, gens, texts, fault, expect in AXIOM_PINNED:
            alphabet = Alphabet.of_size(gens)
            args = tuple(parse_algebra(t, alphabet) for t in texts)
            ops.append(Op(rule, self._op(family, rule, args), fault, expect))
        return ops

    @staticmethod
    def _op(family, rule, args):
        build = relation_residual if family == "PLY" else ly_residual

        def run():
            residual = build(rule, args)
            nf, trace = normalize(residual)
            return nf, check_trace(residual, nf, trace)
        return run

    def check(self, op, out):
        return check_relation(*out)

    def render(self, out):
        return render_lincomb(out[0])

    def check_pass(self, outs):
        return check_pool_sizes(self.pool_sizes)


def check_pool_sizes(pool_sizes):
    errors = []
    for gens, sizes in pool_sizes.items():
        if tuple(sizes) != B_COUNTS[gens]:
            errors.append("|B_n| over %d generators is %s, expected %s"
                          % (gens, sizes, list(B_COUNTS[gens])))
        alphabet = Alphabet.of_size(gens)
        for n in range(1, len(sizes) + 1):
            got = len(enumerate_T(n, alphabet))
            if got != t_count(n, gens):
                errors.append("|T_%d| over %d generators is %d, expected %d"
                              % (n, gens, got, t_count(n, gens)))
    return errors


# -- normalize --------------------------------------------------------------------

@lru_cache(maxsize=None)
def tree_shapes(n):
    """Every planar two-operator tree shape with n vertices, as text with
    ``x`` for each vertex label (the shapes of the tree basis)."""
    if n == 1:
        return ("x",)
    out = []
    for i in range(1, n):
        for x in tree_shapes(i):
            for y in tree_shapes(n - i):
                out.append("bk(%s, %s)" % (x, y))
    for r in range(1, n):
        roots = ("x",) if r == 1 else [s for s in tree_shapes(r) if s.startswith("bk")]
        for seq in _shape_sequences(n - r):
            for root in roots:
                out.append("gr(%s; %s)" % (", ".join(seq), root))
    return tuple(out)


@lru_cache(maxsize=None)
def _shape_sequences(m):
    if m == 0:
        return ((),)
    return tuple((s,) + rest for k in range(1, m + 1) for s in tree_shapes(k)
                 for rest in _shape_sequences(m - k))


def stratified(rng, items, step):
    """One item drawn from each run of ``step`` consecutive items."""
    return [rng.choice(items[i:i + step]) for i in range(0, len(items), step)]


def label_shape(rng, shape, letters="ab"):
    return "".join(rng.choice(letters) if ch == "x" else ch for ch in shape)


NORMALIZE_SUMMANDS = 10
SUM_COEFFS = tuple(Fraction(p, q) for p in (1, 2, 3) for q in (1, 2)
                   if math.gcd(p, q) == 1)
# (text, fault, start of the error it gives)
NORMALIZE_PINNED = (
    ("gr(b, gr(b, a; a), b, b; a)",
     "OrderConflictError: triple_of orients triples by cmp_t while "
     "TB-antisym tests cmp_hall_t", "OrderConflictError"),
)


def lincomb_text(pairs):
    """``c1 * e1 + c2 * e2 ...`` in the expression grammar."""
    return " + ".join("%s * %s" % (c, e) for c, e in pairs)


class Normalize(Workload):
    name = "normalize"
    layers = ("bases.any_to_t", "normal.normalize", "normal.head_rewrite", "normal.subst",
              "exprs.parse", "exprs.render", "bases.shat_elem_to_t.hit_ratio")

    def __init__(self, seed):
        # The trees are the same for every seed: with seeded labels and
        # shapes, the p90 latency of the warm pass moved by 40% between
        # seeds, because op costs are heavy-tailed. One grade-5 shape from
        # each two in enumeration order and one grade-6 shape from each
        # six, then ten of the bracket-free grade-6 trees, whose sum
        # reaches a working set of 727 terms. The seed draws the sum's
        # coefficients and the order of the operations.
        rng = random.Random(seed)
        self.alphabet = Alphabet.of_size(2)
        fixed = random.Random("normalize-trees")
        shapes = stratified(fixed, tree_shapes(5), 2) + stratified(fixed, tree_shapes(6), 6)
        self.trees = [label_shape(fixed, s) for s in shapes]
        fixed = random.Random("normalize-sums")
        summands = [label_shape(fixed, s) for s in tree_shapes(6) if "bk" not in s]
        fixed.shuffle(summands)
        first = len(self.trees)
        self.trees += summands[NORMALIZE_SUMMANDS:2 * NORMALIZE_SUMMANDS]
        self.sums = [[(rng.choice((1, -1)) * rng.choice(SUM_COEFFS), first + k)
                      for k in range(NORMALIZE_SUMMANDS)]]
        self.order = list(range(len(self.trees) + len(self.sums) + len(NORMALIZE_PINNED)))
        rng.shuffle(self.order)

    def texts(self):
        """(text, fault, expected error) in the order the operations run."""
        out = [(t, None, None) for t in self.trees]
        out += [(lincomb_text((c, self.trees[i]) for c, i in s), None, None)
                for s in self.sums]
        out += list(NORMALIZE_PINNED)
        return [out[i] for i in self.order]

    def input_texts(self):
        return [t for t, _, _ in self.texts()]

    def prepare(self):
        return [Op("sum" if " + " in t else "tree", self._op(t), fault, expect)
                for t, fault, expect in self.texts()]

    def _op(self, text):
        alphabet = self.alphabet

        def run():
            x = parse_algebra(text, alphabet)
            nf, trace = normalize(x)
            return x, nf, render_lincomb(nf, order=cmp_t), trace
        return run

    def check(self, op, out):
        x, nf, text, trace = out
        return check_normal_form(x, nf, trace)

    def keep(self, out):
        return out[1], out[2]

    def render(self, kept):
        return kept[1]

    def check_pass(self, outs):
        errors = []
        for kept in outs:
            if kept is not None:
                errors += check_parse_back(*kept, self.alphabet)
        by_input = [None] * len(outs)
        for pos, i in enumerate(self.order):
            by_input[i] = outs[pos]
        singles = by_input[:len(self.trees)]
        for j, s in enumerate(self.sums):
            got = by_input[len(self.trees) + j]
            if got is None or any(singles[i] is None for _, i in s):
                continue
            errors += check_linear(got[0], [(c, singles[i][0]) for c, i in s],
                                   "sum %d" % j)
        return errors


def check_normal_form(x, nf, trace):
    if not check_trace(x, nf, trace):
        return "trace does not replay"
    bad = [t for t in nf if not is_B(t)]
    if bad:
        return "%d output terms are not basis elements" % len(bad)
    return None


def check_parse_back(nf, text, alphabet):
    if parse_algebra(text, alphabet) != any_to_bhat(nf):
        return ["rendered normal form does not parse back: %s" % text[:80]]
    return []


def check_linear(total, parts, what):
    """NF(sum c_i t_i) == sum c_i NF(t_i): each non-basis term has exactly
    one deterministic rewrite, so normal forms are linear."""
    want = LinComb()
    for c, nf in parts:
        want.add_in(nf, c)
    if total != want:
        return ["%s: normal form differs from the combination of its "
                "summands' normal forms" % what]
    return []


# -- osbb -------------------------------------------------------------------------

# Letter multiplicity patterns of the decomposed words. Six distinct letters
# (720 permutations) are left out.
OSBB_PATTERNS = ((1, 1, 1), (2, 1),
                 (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1),
                 (1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1), (3, 1, 1),
                 (3, 2, 1), (4, 1, 1))
OSBB_WORDS_PER_COMPONENT = 12
OSBB_LETTER_GRADES = (1, 2, 3)
OSBB_POOL_SIZE = sum(t_count(n, 2) for n in OSBB_LETTER_GRADES)


class Osbb(Workload):
    name = "osbb"
    layers = ("linalg.invert", "osbb.decompose", "osbb.component_hit_ratio")

    def __init__(self, seed):
        # The letters and words are the same for every seed, drawn once from
        # a fixed random stream: with seeded letters the warm p50 latency
        # moved by 25% between seeds. The seed draws the order of the words.
        rng = random.Random("osbb")
        self.words = []     # tuples of letter-pool indices
        for pattern in OSBB_PATTERNS:
            letters = rng.sample(range(OSBB_POOL_SIZE), len(pattern))
            ms = [l for l, k in zip(letters, pattern) for _ in range(k)]
            perms = sorted(set(itertools.permutations(ms)))
            self.words += draw(rng, perms, OSBB_WORDS_PER_COMPONENT)
        random.Random(seed).shuffle(self.words)

    def pool(self):
        alphabet = Alphabet.of_size(2)
        return sorted((t for n in OSBB_LETTER_GRADES for t in enumerate_Shat(n, alphabet)),
                      key=render_term)

    def input_texts(self):
        pool = self.pool()
        return ["w(%s)" % ", ".join(render_term(pool[i]) for i in w) for w in self.words]

    def prepare(self):
        pool = self.pool()
        self.pool_size = len(pool)
        return [Op("word", self._op(tuple(pool[i] for i in w))) for w in self.words]

    @staticmethod
    def _op(word):
        def run():
            return word, decompose(LinComb.of(word), cmp_shat)
        return run

    def check(self, op, out):
        return check_decomposition(*out)

    def render(self, out):
        return " + ".join("%s * %s" % (c, ow) for ow, c in
                          sorted(out[1].items(), key=lambda wc: repr(wc[0])))

    def check_pass(self, outs):
        if self.pool_size != OSBB_POOL_SIZE:
            return ["letter pool has %d elements, expected %d"
                    % (self.pool_size, OSBB_POOL_SIZE)]
        return []


def check_decomposition(word, dec):
    if expand_lincomb(dec) != LinComb.of(word):
        return "expanding the decomposition does not give the word back"
    letters = Counter(word)
    if any(Counter(ow.letters()) != letters for ow in dec):
        return "an OSBB word does not have the word's letter multiset"
    return None


# -- lts-hall ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def ternary_shapes(n):
    """Every ternary bracketing shape with n leaves (n odd), as nested
    tuples with ``None`` leaves."""
    if n == 1:
        return (None,)
    return tuple((x, y, z) for a in range(1, n, 2) for b in range(1, n - a, 2)
                 for x in ternary_shapes(a) for y in ternary_shapes(b)
                 for z in ternary_shapes(n - a - b))


def build_bracketing(shape, letter):
    if shape is None:
        return hall.leaf(letter())
    return hall.node3(*(build_bracketing(s, letter) for s in shape))


LTS_LEAVES = (5, 7, 9)
LTS_ROUNDS = 8
LTS_WITT = {1: 2, 3: 2, 5: 6, 7: 18, 9: 56}
# ordered leaf counts of (u, v, w) in the relation instances: every way to
# write 9 as three odd parts
LTS_RELATION_SPLITS = tuple((a, b, 9 - a - b) for a in range(1, 9, 2)
                            for b in range(1, 9 - a, 2))


class LtsHall(Workload):
    name = "lts-hall"
    layers = ("hall.lts_hall_rewrite",)

    def __init__(self, seed):
        # The inputs are the same for every seed, drawn once from a fixed
        # random stream: 1% of the operations take 45% of the time, and
        # with seeded letters and shapes a warm pass took from 1.18 to
        # 1.72 s between seeds. The seed draws the order of the operations.
        rng = random.Random("lts-hall")
        letters = Alphabet.of_size(2).gens
        self.letters = letters

        def letter():
            return rng.choice(letters)

        def rand_shape(n):
            return rng.choice(ternary_shapes(n))

        self.inputs = []    # (kind, combination)
        shapes = [s for _ in range(LTS_ROUNDS) for n in LTS_LEAVES
                  for s in ternary_shapes(n)]
        for i, shape in enumerate(shapes):
            self.inputs.append(("bracketing", LinComb.of(build_bracketing(shape, letter))))
            split = LTS_RELATION_SPLITS[i % len(LTS_RELATION_SPLITS)]
            u, v, w = (build_bracketing(rand_shape(k), letter) for k in split)
            self.inputs.append(("skew", LinComb.of(hall.node3(u, v, w))
                                + LinComb.of(hall.node3(v, u, w))))
            self.inputs.append(("cyclic", LinComb.of(hall.node3(u, v, w))
                                + LinComb.of(hall.node3(v, w, u))
                                + LinComb.of(hall.node3(w, u, v))))
        random.Random(seed).shuffle(self.inputs)

    def input_texts(self):
        return ["%s %r" % (kind, sorted(map(repr, x))) for kind, x in self.inputs]

    def prepare(self):
        return [Op(kind, self._op(x)) for kind, x in self.inputs]

    @staticmethod
    def _op(x):
        def run():
            return hall.lts_hall_rewrite(x, cmp_gen)
        return run

    def check(self, op, out):
        return check_hall_output(op.label, out)

    def render(self, out):
        return " + ".join("%s * %r" % (c, t) for t, c in
                          sorted(out.items(), key=lambda tc: repr(tc[0])))

    def check_pass(self, outs):
        return check_witt_counts(self.letters, LTS_WITT)


def check_hall_output(kind, out):
    if any(not hall.is_lts_hall(t, cmp_gen) for t in out):
        return "output has a term that is not an LTS-Hall element"
    if hall.lts_hall_rewrite(out, cmp_gen) != out:
        return "rewriting is not idempotent"
    if kind != "bracketing" and out:
        return "%s relation instance does not rewrite to 0" % kind
    return None


def check_witt_counts(letters, expected):
    """LTS-Hall elements among all bracketings with n leaves over the
    letters number as Witt's necklace count for the free Lie triple system."""
    errors = []
    for n, want in sorted(expected.items()):
        got = 0
        for shape in ternary_shapes(n):
            for labels in itertools.product(letters, repeat=n):
                it = iter(labels)
                if hall.is_lts_hall(build_bracketing(shape, lambda: next(it)), cmp_gen):
                    got += 1
        if got != want:
            errors.append("%d LTS-Hall elements with %d leaves, expected %d"
                          % (got, n, want))
    return errors


WORKLOADS = {w.name: w for w in (Axioms, Normalize, Osbb, LtsHall)}
