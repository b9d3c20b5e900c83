"""One test per verification criterion; each prints its pass detail.

Run with `pytest tests/test_acceptance.py -v -s` to see the details as they
complete. Bounds are the advertised defaults, so this module is the slow
part of the suite (about half a minute total). A failing criterion raises
CriterionFailed, which fails its test with the mismatch as the message.
"""

import ast
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kostant.acceptance as acceptance
from kostant.acceptance import (
    CriterionFailed,
    check_alt_sets_agree,
    check_boundary_length_counts,
    check_cardinality_fibonacci,
    check_dp_vs_oracle,
    check_fibonacci_identity,
    check_interval_partition_closed,
    check_multiplicity_one,
    check_per_element_terms,
    check_power_of_q_closed,
    check_power_of_q_full,
    check_zero_weight_sum,
)
from kostant.cli import EXIT_FAIL, run
from kostant.multiplicity import MultiplicityReport
from kostant.partition import QPolynomial

SRC = Path(acceptance.__file__).parent


def test_criterion_alt_sets_agree():
    print(check_alt_sets_agree())


def test_criterion_cardinality_fibonacci():
    print(check_cardinality_fibonacci())


def test_criterion_power_of_q_full():
    print(check_power_of_q_full())


def test_criterion_power_of_q_closed():
    print(check_power_of_q_closed())


def test_criterion_multiplicity_one():
    print(check_multiplicity_one())


def test_criterion_interval_partition_closed():
    print(check_interval_partition_closed())


def test_criterion_per_element_terms():
    print(check_per_element_terms())


def test_criterion_dp_vs_oracle():
    print(check_dp_vs_oracle())


def test_criterion_fibonacci_identity():
    print(check_fibonacci_identity())


def test_criterion_boundary_length_counts():
    print(check_boundary_length_counts())


def test_criterion_zero_weight_sum():
    print(check_zero_weight_sum())


def _plus_one(route):
    return lambda *args: route(*args) + QPolynomial.one()


def _report_plus_one(route):
    def tampered(*args):
        rep = route(*args)
        return MultiplicityReport(rep.q_multiplicity + QPolynomial.one(), rep.term_count)
    return tampered


# (criterion, the route it reads that is tampered, the tamper, the criterion's arguments)
TAMPERS = [
    ("check_alt_sets_agree", "pruned_survivors", lambda route: lambda *a: route(*a)[1:], ()),
    ("check_cardinality_fibonacci", "alt_cardinality", lambda route: lambda iv: route(iv) + 1, ()),
    (
        "check_power_of_q_full",
        "predicted_q_multiplicity",
        lambda route: lambda iv: route(iv) * QPolynomial.monomial(1),
        (),
    ),
    ("check_power_of_q_closed", "q_multiplicity_closed", _plus_one, (3,)),
    ("check_multiplicity_one", "q_multiplicity", _report_plus_one, ()),
    ("check_interval_partition_closed", "consecutive_closed_form", _plus_one, ()),
    ("check_per_element_terms", "closed_form_term", _plus_one, ()),
    ("check_dp_vs_oracle", "kostant_q_oracle", _plus_one, ()),
    (
        "check_fibonacci_identity",
        "nonconsecutive_count_k",
        lambda route: lambda n, k: route(n, k) + 1,
        (),
    ),
    (
        "check_boundary_length_counts",
        "side_tally",
        lambda route: lambda side: [(n, has, c + (n == 0)) for n, has, c in route(side)],
        (),
    ),
    ("check_zero_weight_sum", "q_multiplicity", _report_plus_one, ()),
]


# the failure message a tamper case must give, where one is pinned: a wrong closed
# count is named in it, not only the built size and the Fibonacci product it matches
MESSAGES = {
    "check_cardinality_fibonacci":
        r"^RootInterval\(rank=1, i=1, j=1\): built 1, F_i \* F_\(r-j\+1\) 1, closed 2$",
}


def test_every_criterion_has_a_tamper_case():
    checks = sorted(name for name in dir(acceptance) if name.startswith("check_"))
    assert sorted(t[0] for t in TAMPERS) == checks


@pytest.mark.parametrize("check,route,tamper,args", TAMPERS, ids=[t[0] for t in TAMPERS])
def test_criterion_fails_when_a_route_it_reads_is_wrong(monkeypatch, check, route, tamper, args):
    monkeypatch.setattr(acceptance, route, tamper(getattr(acceptance, route)))
    with pytest.raises(CriterionFailed, match=MESSAGES.get(check)):
        getattr(acceptance, check)(*args)


def test_verify_under_dash_O_fails_a_tampered_criterion_without_assert():
    # a side tally missing its first count must fail the one criterion that reads it,
    # and the exit code, with asserts stripped
    probe = (
        "import sys\n"
        "import kostant.acceptance as acceptance\n"
        "from kostant.cli import run\n"
        "route = acceptance.side_tally\n"
        "acceptance.side_tally = lambda side: route(side)[1:]\n"
        "sys.exit(run(['verify', '--max-closed-rank', '2', '--format', 'csv']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == EXIT_FAIL, done.stderr
    rows = list(csv.reader(io.StringIO(done.stdout)))[1:]
    assert len(rows) == 11
    failed = [(name, passed, detail) for name, passed, _, detail in rows if passed != "True"]
    assert [row[:2] for row in failed] == [("boundary-letter-length-counts", "False")]
    assert "side tally" in failed[0][2]  # the mismatch, not a crash


def test_verify_reports_a_mismatch_and_a_crash(capsys, monkeypatch, tmp_path):
    for name in dir(acceptance):
        if name.startswith("check_"):
            monkeypatch.setattr(acceptance, name, lambda *args, **kwargs: "stub")

    def mismatch(*args, **kwargs):
        raise CriterionFailed("x")

    def crash(*args, **kwargs):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(acceptance, "check_power_of_q_full", mismatch)
    monkeypatch.setattr(acceptance, "check_dp_vs_oracle", crash)
    assert run(["verify"]) == EXIT_FAIL
    text = capsys.readouterr().out
    lines = text.splitlines()
    fails = [ln.split() for ln in lines if ln.startswith("FAIL")]
    assert [(f[1], " ".join(f[3:])) for f in fails] == [
        ("qmult-power-of-q-full-sum", "x"),
        ("partition-dp-vs-oracle", "ZeroDivisionError('boom')"),
    ]
    assert sum(ln.startswith("PASS") for ln in lines) == 9
    assert lines[-1] == "2 of 11 criteria FAILED"
    # with --out the same table streams into the file instead
    target = tmp_path / "verify.txt"
    assert run(["verify", "--out", str(target)]) == EXIT_FAIL
    assert capsys.readouterr().out == ""
    assert target.read_text() == text


def test_verify_writes_each_line_as_its_criterion_returns(capsys, monkeypatch):
    # run_all yields each result as its check returns, and the CLI writes its line at once
    seen = []

    def stub(*args, **kwargs):
        seen.append(capsys.readouterr().out)
        return "stub"

    for name in dir(acceptance):
        if name.startswith("check_"):
            monkeypatch.setattr(acceptance, name, stub)
    results = acceptance.run_all(3)
    assert next(results).detail == "stub" and len(seen) == 1  # one check per result drawn
    seen.clear()
    assert run(["verify"]) == 0
    assert len(seen) == 11
    assert seen[0] == ""  # nothing is written before the first criterion returns
    assert all(s.startswith("PASS") and s.count("\n") == 1 for s in seen[1:])
    last, summary = capsys.readouterr().out.splitlines()
    assert last.startswith("PASS  zero-weight-qmult-sum") and summary == "all 11 criteria passed"


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so a check written as one would pass silently.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_cli_is_the_only_writer():
    # The library returns values; only cli.py renders JSON or CSV, and run_all prints nothing.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    writers = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "to_json"
    ]
    assert writers == []
    importers = sorted(
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and {a.name for a in node.names} & {"json", "csv"}
        or isinstance(node, ast.ImportFrom) and node.module in ("json", "csv")
    )
    assert set(importers) == {"cli.py"}
    prints = [
        node.lineno
        for node in ast.walk(trees["acceptance.py"])
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    ]
    assert prints == []
