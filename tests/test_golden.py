"""Byte-identical `plyalg check` reports: the first 16 hex digits of the
sha256 of stdout for fixed suites at the default seed. A change that alters
normal forms or report text on purpose updates these digests and says why."""
import hashlib

import pytest

from plyalg.cli import main

GOLDEN = {
    "ply-axioms-6": (("--suite", "ply-axioms", "--max-vertices", "6"), "b7cc45d682e06efc"),
    "ply-axioms-5-gens-2": (("--suite", "ply-axioms", "--max-vertices", "5", "--gens", "2"),
                            "9af92e46da0808a4"),
    "ly-axioms": (("--suite", "ly-axioms"), "a42e3d138dd3ca76"),
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
