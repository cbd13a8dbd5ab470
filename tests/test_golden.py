"""Byte-identical outputs: the first 16 hex digits of the sha256 of the
stdout of fixed `plyalg check` suites at the default seed, of `plyalg enum`
for every basis at two grades over one generator and one over two (two for
the tree basis), of `plyalg osbb` on words whose components have 5 or 6
distinct letters or 10 letters with repeats, of `plyalg phi-inv` on
brackets, symmetric grafts and grade-6 trees over two generators (the change
into triple coordinates and back), of the Hall normal forms of every
ternary bracketing of a fixed size, of the whole tuple grids the relation
suites check, and of the normalizer's step sequence
on the residuals of one suite and, with every step's bindings and image, on
two trees whose redexes lie up to three levels deep, and of one PLY5 image. A change that alters normal forms, report
text or the steps taken on purpose updates these digests and says why."""
import hashlib
import itertools
from collections import Counter

import pytest

from plyalg.bases import cmp_t
from plyalg.cli import main
from plyalg.exprs import parse_algebra, render_lincomb, render_term
from plyalg.hall import leaf, lts_hall_rewrite, node3
from plyalg.normal import head_rewrite, normalize
from plyalg.orders import cmp_gen
from plyalg.suites import RELATION_ARITY, relation_residual, sample_basis_tuples
from plyalg.terms import Alphabet, LinComb, brk, symgraft, triple

GOLDEN = {
    "ply-axioms-6": (("--suite", "ply-axioms", "--max-vertices", "6"), "b7cc45d682e06efc"),
    "ply-axioms-5-gens-2": (("--suite", "ply-axioms", "--max-vertices", "5", "--gens", "2"),
                            "9af92e46da0808a4"),
    "ly-axioms": (("--suite", "ly-axioms"), "dd00562a185cd41a"),
    "lts-hall-7": (("--suite", "lts-hall", "--max-vertices", "7"), "f64e2d1004ba41f1"),
    "osbb-roundtrip": (("--suite", "osbb-roundtrip"), "0a2dc84e41de0a78"),
    "census-6": (("--suite", "census", "--max-vertices", "6"), "047643b48b99147e"),
}


@pytest.mark.parametrize("argv,digest", GOLDEN.values(), ids=GOLDEN.keys())
def test_check_report_digest(capsys, argv, digest):
    code = main(["check", *argv])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


ENUM = {
    ("S", 5, 1): "c8e71edf7505d131", ("S", 6, 1): "dc3578709daa81dc",
    ("S", 4, 2): "79c0f09ed3284956",
    ("Bhat", 5, 1): "74d45281a608c549", ("Bhat", 6, 1): "ffdee850154611a3",
    ("Bhat", 4, 2): "b113b9eaa81be081", ("Bhat", 5, 2): "26b7594e8bdcf747",
    ("Shat", 5, 1): "08703aff87315c39", ("Shat", 6, 1): "cca8c1e1166e6da4",
    ("Shat", 4, 2): "b2f3caae3f3a9e21",
    ("T", 5, 1): "847b5eeef9757403", ("T", 6, 1): "ecb305b61d3f0f91",
    ("T", 4, 2): "ce3f4cf91e2f0d14",
    ("B", 5, 1): "8d50095e4e2fe0a3", ("B", 6, 1): "e66d00a6e74beba1",
    ("B", 4, 2): "41f8d60ffad32b8c",
    ("LAT", 5, 1): "7532716fb29a393d", ("LAT", 6, 1): "818dd5dfb129dd16",
    ("LAT", 4, 2): "b34656c62ebd2b33",
}


@pytest.mark.parametrize("basis,n,gens,digest", [k + (d,) for k, d in ENUM.items()],
                         ids=["%s-%d-gens-%d" % k for k in ENUM])
def test_enum_listing_digest(capsys, basis, n, gens, digest):
    # every basis listing, element by element and in its order
    code = main(["enum", "--basis", basis, "--n", str(n), "--gens", str(gens)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("word,gens,digest", [
    ("w(a,b,c,d,e)", "a,b,c,d,e", "04febb29b18baf29"),
    ("w(a,a,b,c,d)", "a,b,c,d,e", "a03d05b057d29aae"),
    ("w(f,e,d,c,b,a)", "a,b,c,d,e,f", "357c064afe32c593"),
    ("w(a,a,a,a,a,a,a,a,a,b)", "a,b", "459da20f3828e196"),
    ("w(b,a,a,b,a,a,a,a,a,a)", "a,b", "46224f5d3960d837"),
], ids=["120-permutations", "60-permutations", "720-permutations", "10-orderings",
        "45-orderings"])
def test_osbb_decomposition_digest(capsys, word, gens, digest):
    # the words fill the 5- and 6-distinct-letter components, a
    # 60-ordering one and two of ten letters with one or two repeated
    code = main(["osbb", word, "--gens", gens, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("expr,digest", [
    ("bk(gr(a; b), bk(b, a))", "25bae41c4f016353"),
    ("sg(a, b; bk(a, b))", "844850b7f53d837f"),
    ("sg(bk(a, b), gr(a; b); bk(b, a))", "656a46b8ec4e30bd"),
    ("gr(a, b; a) - gr(b, a; a)", "2eb52c4f762052f5"),
    ("gr(gr(a, b; a), bk(b, a); b)", "bbf47f88a7738175"),
    ("gr(a, gr(b; a), bk(a, b); b)", "f0288d711d561915"),
    ("gr(b, a, gr(a; b), a; a)", "fbdfced737bfad6f"),
    ("gr(gr(gr(a; b); a), b; bk(a, b))", "d08d5642af1295be"),
], ids=["bracket", "sym-on-bracket", "sym-of-brackets", "block-word",
        "grade-6-sym-block", "grade-6-mixed", "grade-6-four-branches", "grade-6-bracket-root"])
def test_phi_inv_digest(capsys, expr, digest):
    # block-basis coordinates of phi^-1 of the triple coordinates: every
    # node kind shat_to_t converts (bracket, symmetric graft, block word)
    code = main(["phi-inv", expr, "--gens", "a,b"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def _shapes(n):
    """Ternary bracketing shapes with n leaves, ``None`` for a leaf."""
    if n == 1:
        return [None]
    return [(x, y, z) for i in range(1, n, 2) for j in range(1, n - i, 2)
            for x in _shapes(i) for y in _shapes(j) for z in _shapes(n - i - j)]


def _bracketing(shape, letters):
    if shape is None:
        return leaf(next(letters))
    return node3(*(_bracketing(s, letters) for s in shape))


@pytest.mark.parametrize("leaves,k,count,digest", [
    (5, 3, 729, "517762e39935c238"),
    (7, 2, 1536, "e7b415b9d73602c3"),
], ids=["5-leaves-3-letters", "7-leaves-2-letters"])
def test_hall_normal_form_digest(leaves, k, count, digest):
    letters = Alphabet.of_size(k).gens
    lines = []
    for shape in _shapes(leaves):
        for word in itertools.product(letters, repeat=leaves):
            t = _bracketing(shape, iter(word))
            out = sorted(lts_hall_rewrite(LinComb.of(t), cmp_gen).items(),
                         key=lambda uc: repr(uc[0]))
            lines.append("%r -> %s\n" % (t, " + ".join("%s * %r" % (c, u) for u, c in out)))
    assert len(lines) == count
    assert hashlib.sha256("".join(lines).encode()).hexdigest()[:16] == digest


def test_trace_step_digest():
    # (rule, rewritten term, redex path) of every step in the traces of the
    # residuals behind the "ply-axioms-6" report: pins the step sequence
    lines = []
    for rule, arity in sorted(RELATION_ARITY.items()):
        for args in sample_basis_tuples(arity, 6, 500, 0, Alphabet.of_size(1)):
            _, trace = normalize(relation_residual(rule, args))
            lines.extend("%s %s %r\n" % (s.rule, render_term(s.term), s.path)
                         for s in trace.steps)
    assert len(lines) == 88
    assert hashlib.sha256("".join(lines).encode()).hexdigest()[:16] == "21467b1b51d34d29"


def test_sample_basis_tuples_digest():
    # every tuple of the whole grid, in order, where it has at most
    # ``samples`` tuples: the tuples the grid-path suites check
    lines = []
    for arity, max_vertices, gens in ((2, 6, 1), (3, 6, 1), (4, 6, 1), (5, 6, 1),
                                      (2, 5, 2), (3, 5, 2)):
        tuples = sample_basis_tuples(arity, max_vertices, 10**6, 0,
                                     Alphabet.of_size(gens))
        lines.append("%d %d %d: %d\n" % (arity, max_vertices, gens, len(tuples)))
        lines.extend(" ".join(map(render_term, args)) + "\n" for args in tuples)
    assert len(lines) == 1891
    assert hashlib.sha256("".join(lines).encode()).hexdigest()[:16] == "13e327fbefed2ecc"


def _render_binding(v):
    return " ".join(map(render_term, v)) if isinstance(v, tuple) else render_term(v)


def test_deep_step_digest():
    # every step's rule, term, path, bindings and image, and the normal form,
    # of two grade-6 trees over two generators whose steps reach path depth 3
    lines, depths = [], Counter()
    ab = Alphabet(["a", "b"])
    for expr in ("gr(b, b, a, b; bk(b, a))", "gr(b, a, b, a, a; a)"):
        out, trace = normalize(parse_algebra(expr, ab))
        for s in trace.steps:
            depths[len(s.path)] += 1
            lines.append("%s %s %r %s -> %s\n" % (
                s.rule, render_term(s.term), s.path,
                ", ".join("%s=%s" % (k, _render_binding(v)) for k, v in s.bindings),
                render_lincomb(s.after)))
        lines.append("= %s\n" % render_lincomb(out))
    assert depths == {0: 309, 1: 141, 2: 44, 3: 6} and len(lines) == 502
    assert hashlib.sha256("".join(lines).encode()).hexdigest()[:16] == "b67fd1a33ab7c9ff"


def test_ply5_middle_slot_digest():
    # PLY5's middle-slot form, [z,[[x,y]],u] = −[[[x,y]],z,u] rewritten by
    # the first form: the one input known to reach it; only its head step is
    # pinned, since normalizing it further raises OrderConflictError
    a, b = Alphabet(["a", "b"]).gens
    tbab, tbaa = triple((), b, a, b), triple((), b, a, a)
    y = brk(tbab, symgraft((a, a), a))
    rule, bindings, image = head_rewrite(triple((), y, brk(tbab, tbaa), tbaa))
    assert rule == "PLY5"
    assert bindings == (("x", tbab), ("y", tbaa), ("z", y), ("u", tbaa))
    assert len(image) == 5
    text = render_lincomb(image, order=cmp_t)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "bcc1495c6a502b31"
