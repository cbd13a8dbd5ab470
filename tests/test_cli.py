"""Command-line behavior: outputs, exit codes, determinism, trace files."""
import json

import pytest

from plyalg.cli import main


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


def test_enum_lat(capsys):
    code, out, _ = run(capsys, "enum", "--basis", "LAT", "--n", "3", "--gens", "1")
    assert code == 0
    assert out.splitlines() == ["sg(sg(a; a); a)", "sg(a, a; a)"]


def test_osbb(capsys):
    code, out, _ = run(capsys, "osbb", "w(a,b)", "--gens", "a,b")
    assert code == 0
    assert "s(a, b)" in out and "-1/2" in out


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
], ids=["n-0", "n-negative", "gens-0", "gens-27", "gens-repeated", "check-gens-0",
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


def test_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "normalize", "bk(a,")
    assert code == 1 and "column" in err


def test_elab_error_exit_1(capsys):
    code, _, err = run(capsys, "normalize", "bk(a)", "--gens", "a")
    assert code == 1


def test_deep_nesting_exit_1(capsys):
    # too deep for the recursive parser (400) or for elaboration (270)
    for depth in (270, 400):
        text = "bk(a, " * depth + "a" + ")" * depth
        code, out, err = run(capsys, "normalize", text)
        assert code == 1 and not out
        assert err.startswith("error: expression nested too deeply")
        assert err.count("\n") == 1


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
    # 20 samples each
    code, out, _ = run(capsys, "check", "--suite", "ly-axioms",
                       "--max-vertices", str(max_vertices))
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["checked"] == 20 * max_vertices


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


def test_check_failure_exit_3(capsys, monkeypatch):
    import plyalg.cli as cli
    monkeypatch.setitem(cli.SUITES, "census",
                        lambda **kw: (False, {"pass": False}))
    code, out, _ = run(capsys, "check", "--suite", "census")
    assert code == 3 and json.loads(out)["pass"] is False
