"""Command-line behavior: outputs, exit codes, determinism, trace files."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plyalg
from plyalg import suites, yamaguti
from plyalg.cli import main
from plyalg.exprs import MAX_NESTING
from plyalg.terms import Alphabet, LinComb


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dims_basis(capsys):
    code, out, _ = run(capsys, "dims", "--basis", "B", "--max-n", "5", "--gens", "1")
    assert code == 0 and out.strip() == "1 1 3 9 31"


def test_dims_block_basis(capsys):
    code, out, _ = run(capsys, "dims", "--basis", "Shat", "--max-n", "4", "--gens", "1")
    assert code == 0 and out.strip() == "1 2 8 40"


def test_dims_s_basis(capsys):
    code, out, _ = run(capsys, "dims", "--basis", "S", "--max-n", "5", "--gens", "1")
    assert code == 0 and out.strip() == "1 1 2 5 14"


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "bk(a, gr(a;a))")
    assert code == 0 and out.strip() == "-1 * bk(sg(a; a), a)"


def test_normalize_json(capsys):
    code, out, _ = run(capsys, "normalize", "bk(a, gr(a;a))", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"coeff": "-1", "expr": "bk(sg(a; a), a)"}]


def test_normalize_trace(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    # brackets are oriented before the first step, so the one step is PLY2
    code, out, _ = run(capsys, "normalize", "gr(a; bk(gr(a;a), a))", "--trace", str(path))
    assert code == 0
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["kind"] == "trace" and lines[0]["steps"] == len(lines) - 1 == 1
    assert lines[0]["format"] == 3 and lines[1]["rule"] == "PLY2"
    assert all("rule" in rec and "after_hash" in rec and "before_hash" not in rec
               for rec in lines[1:])
    # the one step's image is the whole normal form here
    assert lines[1]["after_hash"] == lines[0]["output_hash"]


def test_enum(capsys):
    code, out, _ = run(capsys, "enum", "--basis", "B", "--n", "3", "--gens", "1")
    assert code == 0
    assert out.splitlines() == ["bk(sg(a; a), a)", "sg(sg(a; a); a)", "sg(a, a; a)"]
    code, out, _ = run(capsys, "enum", "--basis", "B", "--n", "3", "--gens", "1", "--json")
    assert code == 0
    assert out == ('{"basis": "B", "count": 3, "elements": ["bk(sg(a; a), a)", '
                   '"sg(sg(a; a); a)", "sg(a, a; a)"], "n": 3}\n')


def test_enum_lat(capsys):
    code, out, _ = run(capsys, "enum", "--basis", "LAT", "--n", "3", "--gens", "1")
    assert code == 0
    assert out.splitlines() == ["sg(sg(a; a); a)", "sg(a, a; a)"]


def test_osbb(capsys):
    code, out, _ = run(capsys, "osbb", "w(a,b)", "--gens", "a,b")
    assert code == 0
    assert out == "w(s(a, b)) + -1/2 * w(lb(b, a))\n"
    code, out, _ = run(capsys, "osbb", "w(a, b) - w(a, b)")
    assert code == 0
    assert out == "0\n"


@pytest.mark.parametrize("argv, line", [
    (("osbb", "w(a,b,a)"),
     '{"terms": [{"coeff": "1", "expr": "w(s(a, a, b))"}, '
     '{"coeff": "-1/3", "expr": "w(lb(b, a), s(a))"}, '
     '{"coeff": "1/3", "expr": "w(s(a), lb(b, a))"}]}'),
    (("phi", "gr(a,b;a)"),
     '{"terms": [{"coeff": "1", "expr": "sg(b, a; a)"}, '
     '{"coeff": "-1/2", "expr": "tb(b, a, a)"}]}'),
    (("phi-inv", "tb(sg(a;a),a,a)"),
     '{"terms": [{"coeff": "1", "expr": "tri(w(lb(sg(a; a), a)), a)"}]}'),
    (("ly", "gr(a;a)", "a", "a"),
     '{"terms": [{"coeff": "-1", "expr": "tb(sg(a; a), a, a)"}, '
     '{"coeff": "1", "expr": "sg(bk(sg(a; a), a); a)"}]}'),
], ids=["osbb", "phi", "phi-inv", "ly"])
def test_json_lines(capsys, argv, line):
    assert run(capsys, *argv, "--json") == (0, line + "\n", "")


def test_phi_and_inverse(capsys):
    code, out, _ = run(capsys, "phi", "tri(lb(gr(a;a), a), a)")
    assert code == 0 and out.strip() == "tb(sg(a; a), a, a)"
    code, out2, _ = run(capsys, "phi-inv", out.strip())
    assert code == 0
    assert out2.strip() == "tri(w(lb(sg(a; a), a)), a)"


def test_ly(capsys):
    code, out, _ = run(capsys, "ly", "gr(a;a)", "a", "a")
    assert code == 0
    assert out.strip() == "-1 * tb(sg(a; a), a, a) + sg(bk(sg(a; a), a); a)"


def test_usage_error_exit_1(capsys):
    assert run(capsys, "enum", "--basis", "nope", "--n", "1")[0] == 1
    assert run(capsys, "normalize")[0] == 1


@pytest.mark.parametrize("argv", [
    ("enum", "--basis", "S", "--n", "0"),
    ("enum", "--basis", "B", "--n", "-1"),
    ("dims", "--basis", "T", "--max-n", "3", "--gens", "0"),
    ("dims", "--basis", "T", "--max-n", "2", "--gens", "27"),
    ("check", "--suite", "census", "--gens", ",".join("g%d" % i for i in range(27))),
    ("normalize", "a", "--gens", "a,a"),
    ("check", "--suite", "osbb-roundtrip", "--gens", "0"),
    ("dims", "--basis", "B", "--max-n", "0"),
    ("check", "--suite", "ply-axioms", "--max-vertices", "0"),
    ("check", "--suite", "ly-axioms", "--max-vertices", "0"),
    ("check", "--suite", "lts-hall", "--max-vertices", "-1"),
    ("check", "--suite", "osbb-roundtrip", "--max-vertices", "0"),
    ("check", "--suite", "census", "--max-vertices", "0"),
    ("check", "--suite", "ply-axioms", "--samples", "-1"),
    ("check", "--suite", "ly-axioms", "--samples", "-1"),
    ("check", "--suite", "lts-hall", "--samples", "-1"),
    ("check", "--suite", "osbb-roundtrip", "--samples", "-1"),
    ("check", "--suite", "census", "--samples", "-1"),
    ("normalize", "a", "--fuel", "-5"),
    ("ly", "a", "a", "a", "--fuel", "-3"),
], ids=["n-0", "n-negative", "gens-0", "gens-27", "check-gens-27-names",
        "gens-repeated", "check-gens-0",
        "max-n-0", "ply-axioms-max-vertices-0", "ly-axioms-max-vertices-0",
        "lts-hall-max-vertices-negative", "osbb-roundtrip-max-vertices-0",
        "census-max-vertices-0", "ply-axioms-samples-negative",
        "ly-axioms-samples-negative", "lts-hall-samples-negative",
        "osbb-roundtrip-samples-negative", "census-samples-negative",
        "normalize-fuel-negative", "ly-fuel-negative"])
def test_bad_sizes_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("usage error: ") and err.count("\n") == 1


# the bounds are checked after parsing, and a value that is not an integer
# is argparse's own error
@pytest.mark.parametrize("argv, line", [
    (("enum", "--basis", "S", "--n", "0"), "--n must be at least 1, got 0"),
    (("dims", "--basis", "B", "--max-n", "-2"), "--max-n must be at least 1, got -2"),
    (("normalize", "a", "--fuel", "-5"), "--fuel must be at least 0, got -5"),
    (("check", "--suite", "census", "--max-vertices", "0"),
     "--max-vertices must be at least 1, got 0"),
    (("check", "--suite", "ply-axioms", "--samples", "-1"),
     "--samples must be at least 0, got -1"),
    (("enum", "--basis", "B", "--n", "x"), "argument --n: invalid int value: 'x'"),
    (("normalize", "a", "--fuel", "x"), "argument --fuel: invalid int value: 'x'"),
    (("normalize", "a", "--gens", "a,a"), "--gens repeats a generator name"),
], ids=["n", "max-n", "fuel", "max-vertices", "samples", "n-not-int", "fuel-not-int",
        "gens-repeated"])
def test_usage_error_messages(capsys, argv, line):
    assert run(capsys, *argv) == (1, "", "usage error: %s\n" % line)


def test_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "normalize", "bk(a,")
    assert code == 1 and "column" in err


def test_elab_error_exit_1(capsys):
    code, _, err = run(capsys, "normalize", "bk(a)", "--gens", "a")
    assert code == 1


def _nested(depth):
    return "bk(a, " * depth + "a" + ")" * depth


def _from_depth(frames, f):
    # call f with about this many more frames on the stack
    return f() if frames <= 0 else _from_depth(frames - 1, f)


def test_deep_nesting_exit_1(capsys):
    # one call past the limit fails at the '(' that crosses it
    code, out, err = run(capsys, "normalize", _nested(MAX_NESTING + 1))
    assert code == 1 and not out
    assert err == ("error: expression nested too deeply (line 1, column %d)\n"
                   % (6 * MAX_NESTING + 3))
    for depth in (270, 400):
        code, out, err = run(capsys, "normalize", _nested(depth))
        assert code == 1 and not out
        assert err.startswith("error: expression nested too deeply")
        assert err.count("\n") == 1


@pytest.mark.parametrize("frames", [0, 150])
def test_nesting_limit_normalizes(capsys, frames):
    code, out, err = _from_depth(frames, lambda: run(capsys, "normalize",
                                                      _nested(MAX_NESTING)))
    assert (code, out, err) == (0, "0\n", "")


# one malformed input per message; an input with two faults, 'bk(c, a',
# reports the first in reading order
@pytest.mark.parametrize("argv, line", [
    (("$",), "unexpected character '$' (line 1, column 1)"),
    # a digit to str.isdigit, but not a decimal that int() reads
    (("²",), "unexpected character '²' (line 1, column 1)"),
    (("bk(a,",), "expected 'ident', found 'end of input' (line 1, column 6)"),
    (("bk(a a)",), "expected ')', found 'a' (line 1, column 6)"),
    (("a a",), "unexpected 'a' (line 1, column 3)"),
    (("1/0*a",), "zero denominator (line 1, column 3)"),
    (("3",), "a bare number is not an element (write c * expr) (line 1, column 1)"),
    (("bk(a; a; a)",), "only one ';' allowed (line 1, column 8)"),
    (("bk(a, b)", "--gens", "a"), "unknown generator 'b' (line 1, column 7)"),
    (("bk(a)", "--gens", "a"), "bk expects 2 arguments, got 1 (line 1, column 1)"),
    (("bk(a; a)", "--gens", "a"), "bk takes no ';' part (line 1, column 1)"),
    (("gr(a)", "--gens", "a"), "gr expects branches ';' root (line 1, column 1)"),
    (("gr(a; gr(a; a))", "--gens", "a"),
     "gr root must elaborate to generators or brackets (line 1, column 1)"),
    (("gr(s(); a)", "--gens", "a"), "gr needs at least one branch (line 1, column 1)"),
    (("foo(a)", "--gens", "a"), "unknown function 'foo' (line 1, column 1)"),
    (("w(a, a)", "--gens", "a"), "input is a tensor element, not an algebra element"),
    (("bk(w(a, a), a)", "--gens", "a"),
     "expression is a tensor element, not an algebra element"),
    (("gr(a; w(a, a))", "--gens", "a"), "gr root is a tensor element, not an algebra element"),
    (("bk(c, a", "--gens", "a"), "unknown generator 'c' (line 1, column 4)"),
    # positions past line 1: a newline starts column 1 of the next line,
    # and a tab or a carriage return is one column
    (("bk(a,\n  $)", "--gens", "a,b"), "unexpected character '$' (line 2, column 3)"),
    (("bk(a,\n", "--gens", "a,b"),
     "expected 'ident', found 'end of input' (line 2, column 1)"),
    (("bk(a,\tb c)", "--gens", "a,b"), "expected ')', found 'c' (line 1, column 9)"),
    (("bk(a, b)\n\n  a", "--gens", "a,b"), "unexpected 'a' (line 3, column 3)"),
    (("gr(a;\r\n a) + ²", "--gens", "a,b"), "unexpected character '²' (line 2, column 7)"),
    (("bk(a,\n  foo(a))", "--gens", "a,b"), "unknown function 'foo' (line 2, column 3)"),
], ids=["character", "non-decimal-digit", "expected-ident", "expected-paren",
        "trailing", "zero-denominator", "bare-number", "two-semicolons", "unknown-generator", "arity", "no-root-part",
        "needs-root", "root-kind", "no-branch", "unknown-function", "tensor-input",
        "tensor-argument", "tensor-root", "first-error-in-reading-order",
        "line-2-character", "line-2-end-of-input", "tab-column", "line-3-trailing",
        "carriage-return", "line-2-unknown-function"])
def test_error_messages(capsys, argv, line):
    code, out, err = run(capsys, "normalize", *argv)
    assert (code, out, err) == (1, "", "error: %s\n" % line)


@pytest.mark.parametrize("text", ["w(a, a)", "bk(w(a, a), a)"])
def test_tensor_as_algebra_exit_1_under_optimize(text):
    # the check must not be an assert, which python -O strips
    env = dict(os.environ, PYTHONPATH=str(Path(plyalg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-m", "plyalg.cli", "normalize", text],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and not proc.stdout
    assert proc.stderr.endswith("is a tensor element, not an algebra element\n")
    assert proc.stderr.count("\n") == 1


def test_closed_stdout_exit_1_without_traceback():
    # the reader end of stdout is closed before the run starts, so the
    # first write of the output fails
    env = dict(os.environ, PYTHONPATH=str(Path(plyalg.__file__).parents[1]))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "plyalg.cli", "enum", "--basis", "B",
                               "--n", "2"], stdout=w, stderr=subprocess.PIPE, text=True,
                              env=env)
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("text, gens", [("bk(s, t)", "s,t"), ("bk(β, α)", "α,β"),
                                        ("gr(bk; w)", "bk,w")])
def test_inferred_generators_match_gens(capsys, text, gens):
    # without --gens, every identifier not followed by '(' is a generator,
    # function names included
    inferred = run(capsys, "normalize", text)
    assert inferred[0] == 0 and inferred == run(capsys, "normalize", text, "--gens", gens)


@pytest.mark.parametrize("cmd", ["normalize", "osbb", "phi"])
def test_zero_denominator_exit_1(capsys, cmd):
    code, out, err = run(capsys, cmd, "1/0*a")
    assert code == 1 and not out
    assert err == "error: zero denominator (line 1, column 3)\n"


def test_unwritable_trace_exit_1(tmp_path, capsys):
    path = tmp_path / "missing" / "trace.jsonl"
    code, out, err = run(capsys, "normalize", "a", "--trace", str(path))
    assert code == 1 and not out
    assert err.startswith("error: cannot write trace ") and err.count("\n") == 1


@pytest.mark.parametrize("max_vertices", [1, 2])
def test_ly_axioms_below_three_vertices(capsys, max_vertices):
    # no LAT triple fits: only the LY axioms of arity <= max_vertices run,
    # each on its whole grid, here under 20 tuples: LY1 on 1 element at 1
    # vertex, LY1 on 2 and LY2 on 1 pair at 2
    code, out, _ = run(capsys, "check", "--suite", "ly-axioms",
                       "--max-vertices", str(max_vertices))
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["checked"] == {1: 1, 2: 3}[max_vertices]


def test_order_conflict_exit_4(capsys):
    # a known defect: triple_of orients by cmp_t, TB-antisym tests cmp_hall_t
    code, out, err = run(capsys, "normalize", "gr(b, gr(b, a; a), b, b; a)",
                         "--gens", "a,b")
    assert code == 4 and not out
    assert err.startswith("rewrite error: ") and err.count("\n") == 1


def test_fuel_exhausted_exit_2(capsys):
    code, _, err = run(capsys, "normalize", "gr(a; bk(gr(a;a), a))", "--fuel", "0")
    assert code == 2 and "fuel" in err


def test_check_suite_pass_exit_0(capsys):
    code, out, _ = run(capsys, "check", "--suite", "census",
                       "--max-vertices", "4", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True


def test_check_deterministic(capsys):
    args = ("check", "--suite", "osbb-roundtrip", "--max-vertices", "3",
            "--seed", "7", "--gens", "2")
    c1, o1, _ = run(capsys, *args)
    c2, o2, _ = run(capsys, *args)
    assert c1 == c2 == 0 and o1 == o2


def test_gens_named(capsys):
    code, out, _ = run(capsys, "normalize", "bk(x, y)", "--gens", "x,y")
    assert code == 0 and out.strip() == "-1 * bk(y, x)"


def test_check_relation_suites(capsys):
    code, out, _ = run(capsys, "check", "--suite", "ply-axioms",
                       "--max-vertices", "4", "--samples", "25", "--seed", "2")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, _ = run(capsys, "check", "--suite", "lts-hall",
                       "--max-vertices", "4", "--samples", "40", "--seed", "2")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, _ = run(capsys, "check", "--suite", "ly-axioms",
                       "--max-vertices", "4", "--samples", "4", "--seed", "2")
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("max_vertices,rules", [
    ("2", ["PLY1"]),
    ("4", ["PLY1", "PLY2", "PLY3", "PLY4", "PLY5"]),
])
def test_check_ply_axioms_lists_fitting_relations(capsys, max_vertices, rules):
    # a relation whose arguments cannot fit is left out, not passed at 0
    # instances; each one listed has an instance
    code, out, _ = run(capsys, "check", "--suite", "ply-axioms",
                       "--max-vertices", max_vertices, "--samples", "25")
    results = json.loads(out)["results"]
    assert code == 0 and [r["rule"] for r in results] == rules
    assert all(r["instances"] for r in results)


def test_check_failure_exit_3(capsys, monkeypatch):
    import plyalg.cli as cli
    monkeypatch.setitem(cli.SUITES, "census",
                        lambda **kw: (False, {"pass": False}))
    code, out, _ = run(capsys, "check", "--suite", "census")
    assert code == 3 and json.loads(out)["pass"] is False


_A = LinComb.of(Alphabet.of_size(1).gens[0])


def _nonzero_nf(monkeypatch):
    normalize = suites.normalize

    def nonzero(x):
        nf, trace = normalize(x)
        return nf + _A, trace

    monkeypatch.setattr(suites, "normalize", nonzero)


def _ly_binary_adds_a_term(monkeypatch):
    ly_binary = yamaguti.ly_binary
    monkeypatch.setattr(yamaguti, "ly_binary", lambda x, y: ly_binary(x, y) + _A)


def _hall_rewrite_is_identity(monkeypatch):
    monkeypatch.setattr(suites.hall, "lts_hall_rewrite", lambda x, cmpl: x)


def _decompose_drops_a_term(monkeypatch):
    decompose = suites.decompose
    monkeypatch.setattr(suites, "decompose",
                        lambda x, cmp: LinComb(list(decompose(x, cmp).items())[1:]))


def _wrong_known_dimension(monkeypatch):
    monkeypatch.setitem(suites.KNOWN_B, 1, (1, 1, 4, 9))


def _failures(report):
    """A check report's failure entries, wherever its suite lists them."""
    if report["suite"] == "ply-axioms":
        return [f for r in report["results"] for f in r["failures"]]
    if report["suite"] == "census":
        return [r for r in report["rows"] if not r["ok"]]
    return report["failures"]


@pytest.mark.parametrize("argv,plant,fields", [
    (("ply-axioms", "--max-vertices", "3"), _nonzero_nf,
     [{"args", "residual", "trace_ok"}]),
    (("ly-axioms", "--max-vertices", "3"), _ly_binary_adds_a_term,
     [{"axiom", "args", "residual"}]),
    (("lts-hall", "--max-vertices", "4", "--samples", "20"), _hall_rewrite_is_identity,
     [{"kind", "input"}]),
    (("osbb-roundtrip", "--max-vertices", "2", "--gens", "2"), _decompose_drops_a_term,
     [{"kind", "word"}, {"kind", "osbb"}]),
    (("census", "--max-vertices", "4"), _wrong_known_dimension,
     [{"n", "S", "S_expected", "Shat", "T", "beta_expected", "B", "ok"}]),
], ids=["ply-axioms", "ly-axioms", "lts-hall", "osbb-roundtrip", "census"])
def test_check_failure_report(capsys, monkeypatch, argv, plant, fields):
    # a planted fault: the suite exits 3 and reports each failing instance
    # with the fields it writes
    plant(monkeypatch)
    code, out, _ = run(capsys, "check", "--suite", *argv)
    report = json.loads(out)
    failures = _failures(report)
    assert code == 3 and report["pass"] is False and failures
    assert all(set(f) in fields for f in failures), failures


@pytest.mark.parametrize("argv", [
    ("--suite", "ply-axioms", "--max-vertices", "1"),
    ("--suite", "ply-axioms", "--samples", "0"),
    ("--suite", "ly-axioms", "--samples", "0"),
    ("--suite", "lts-hall", "--samples", "0"),
], ids=["ply-axioms-max-vertices-1", "ply-axioms-samples-0", "ly-axioms-samples-0",
        "lts-hall-samples-0"])
def test_check_nothing_checked_exit_3(capsys, argv):
    # every rule has 0 instances, or no sample was drawn
    code, out, _ = run(capsys, "check", *argv)
    assert code == 3 and json.loads(out)["pass"] is False


def test_census_checks_grade_6(capsys, monkeypatch):
    # one grade-6 element of B missing: 105, not the published 106
    import plyalg.suites as suites
    enumerate_B = suites.enumerate_B

    def drop_one(n, alphabet):
        elements = enumerate_B(n, alphabet)
        return elements[1:] if n == 6 else elements

    monkeypatch.setattr(suites, "enumerate_B", drop_one)
    code, out, _ = run(capsys, "check", "--suite", "census", "--max-vertices", "6")
    rows = json.loads(out)["rows"]
    assert code == 3 and [r["ok"] for r in rows] == [True] * 5 + [False]
