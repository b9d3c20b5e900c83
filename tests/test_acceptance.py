"""One test per verification criterion; each prints its pass detail.

Run with `pytest tests/test_acceptance.py -v -s` to see the details as they
complete. Bounds are the advertised defaults, so this module is the slow
part of the suite (about half a minute total). A failing criterion raises
CriterionFailed, which fails its test with the mismatch as the message.
"""

import ast
from pathlib import Path

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
