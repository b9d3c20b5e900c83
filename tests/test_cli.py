"""CLI behaviour: exit codes, formats, JSON round-trips, capacity mapping."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import kostant.acceptance as acceptance
import kostant.alternation
import kostant.weyl
from kostant import (
    fibonacci,
    highest_root,
    interval_root,
    q_multiplicity,
    RootInterval,
)
from kostant.cli import EXIT_CAPACITY, EXIT_FAIL, EXIT_OK, EXIT_USAGE, _json_text, run


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_qmult_all_routes_agree(capsys):
    code, data = _run_json(
        capsys, ["qmult", "--rank", "5", "--mu", "2..3", "--method", "all", "--format", "json"]
    )
    assert code == EXIT_OK
    assert data["verdict"] == "pass"
    assert data["query"] == {"command": "qmult", "rank": 5, "mu": [2, 3], "method": "all"}
    routes = data["result"]["routes"]
    assert set(routes) == {"kwmf", "closed", "predicted"}
    for r in routes.values():
        assert r["coeffs"] == [0, 0, 0, 1]
        assert r["pretty"] == "q^3"
        assert r["multiplicity_at_one"] == 1
    assert routes["kwmf"]["term_count"] == 2
    assert routes["predicted"]["term_count"] is None


def test_qmult_json_round_trips_the_report(capsys):
    code, data = _run_json(
        capsys, ["qmult", "--rank", "4", "--mu", "1..3", "--method", "kwmf", "--format", "json"]
    )
    assert code == EXIT_OK
    assert data["verdict"] is None
    rep = q_multiplicity(4, highest_root(4), interval_root(RootInterval(4, 1, 3)))
    got = data["result"]["routes"]["kwmf"]
    assert got["coeffs"] == list(rep.q_multiplicity.coeffs)
    assert got["pretty"] == rep.q_multiplicity.pretty()
    assert got["multiplicity_at_one"] == rep.multiplicity_at_one
    assert got["term_count"] == rep.term_count
    assert got["method"] == "kwmf_full"


def test_alt_set_both_json(capsys):
    code, data = _run_json(
        capsys, ["alt-set", "--rank", "7", "--mu", "3..4", "--method", "both", "--format", "json"]
    )
    assert code == EXIT_OK
    assert data["verdict"] == "pass"
    assert data["result"]["predicted_count"] == 6
    sets = data["result"]["sets"]
    assert sets["brute"]["count"] == 6
    assert sets["theorem"]["count"] == 6
    assert sets["theorem"]["elements"] == [[], [2], [5], [6], [2, 5], [2, 6]]
    assert sets["brute"]["provenance"] == "brute_force"


def test_alt_set_table(capsys):
    code = run(["alt-set", "--rank", "5", "--mu", "2..3", "--method", "both"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "predicted count: 2" in out
    assert "s4" in out
    assert "verdict: pass" in out


def test_alt_set_csv(capsys):
    code = run(["alt-set", "--rank", "7", "--mu", "3..4", "--format", "csv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == EXIT_OK
    assert out[0] == "method,word,perm,length,sign"
    assert len(out) == 7  # header + six elements, theorem route only
    assert out[1].startswith("theorem,,")  # identity has the empty word


_SPLICED = [1, [2, 3]]


def _spliced(pad):
    """json.dumps(_SPLICED, indent=2) on a line at `pad`, as a view's callable renders it."""
    return json.dumps(_SPLICED, indent=2).replace("\n", pad)


# strings that encode like, or around, a marker of NULs
_NEAR_MARKER = st.one_of(
    st.text(alphabet="\x00\"\\u0 ", max_size=6),
    st.sampled_from(["\x00", "\x000", "\x00\x00", json.dumps("\x00"), '"\x00', "\x00\""]),
)
_ENVELOPES = st.recursive(
    st.one_of(_NEAR_MARKER, st.integers(), st.none(), st.just(_spliced)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_NEAR_MARKER, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_ENVELOPES)
def test_spliced_text_is_the_stdlib_text_of_the_rendered_value(envelope):
    expected = json.dumps(envelope, indent=2, default=lambda render: _SPLICED)
    assert _json_text(envelope) == expected


def test_a_string_like_the_marker_next_to_a_spliced_value():
    for text in ("\x00", "\x000", "\x00\x00", json.dumps("\x00")):
        envelope = {"a": text, "b": _spliced, text: [_spliced, text, {"c": _spliced}]}
        expected = json.dumps(envelope, indent=2, default=lambda render: _SPLICED)
        assert _json_text(envelope) == expected
        assert json.loads(expected)["a"] == text
    assert _json_text(_spliced) == json.dumps(_SPLICED, indent=2)
    for bad in ({(1, 2): 0}, [object()], {"k": {1, 2}}):
        with pytest.raises(TypeError):
            _json_text(bad)


def test_large_alt_set_json_is_the_stdlib_indent_2_text(capsys):
    # rank 20, [3, 3]: 5,168 elements, beyond the golden file's rank 7
    assert run(["alt-set", "--rank", "20", "--mu", "3..3", "--format", "json"]) == EXIT_OK
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert json.loads(text)["result"]["sets"]["theorem"]["count"] == 5168


@pytest.mark.parametrize("argv", [
    ["qmult", "--rank", "12", "--mu", "2..5", "--method", "closed"],
    ["partition", "--rank", "4", "--weight", "2,3,3,2", "--oracle"],
    ["identity", "--max-n", "90"],
], ids=lambda argv: argv[0])
def test_an_envelope_with_nothing_spliced_in_is_the_stdlib_text(capsys, argv):
    # beyond the golden file's calls
    assert run(argv + ["--format", "json"]) == EXIT_OK
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_closed_route_past_the_old_subset_cap(capsys):
    code, data = _run_json(
        capsys, ["qmult", "--rank", "29", "--mu", "1..2", "--method", "closed", "--format", "json"]
    )
    assert code == EXIT_OK
    route = data["result"]["routes"]["closed"]
    assert route["pretty"] == "q^27"
    assert route["term_count"] == fibonacci(28)


def test_partition_with_oracle(capsys):
    code, data = _run_json(
        capsys,
        ["partition", "--rank", "3", "--weight", "1,2,1", "--oracle", "--format", "json"],
    )
    assert code == EXIT_OK
    assert data["verdict"] == "pass"
    assert data["result"]["dp"]["coeffs"] == [0, 0, 2, 2, 1]
    assert data["result"]["dp"]["count"] == 5
    assert data["result"]["oracle"] == data["result"]["dp"]


def test_partition_negative_coordinate_is_zero(capsys):
    # a leading minus needs the --flag=value spelling to get past argparse
    code, data = _run_json(
        capsys, ["partition", "--rank", "2", "--weight=-1,2", "--format", "json"]
    )
    assert code == EXIT_OK
    assert data["result"]["dp"]["coeffs"] == []
    assert data["result"]["dp"]["pretty"] == "0"


def test_identity_rows(capsys):
    code, data = _run_json(capsys, ["identity", "--max-n", "9", "--format", "json"])
    assert code == EXIT_OK
    assert data["verdict"] == "pass"
    rows = data["result"]["rows"]
    assert len(rows) == 10
    for row in rows:
        assert row["fibonacci"] == fibonacci(row["n"] + 2)
        assert row["equal"] is True


def test_mu_zero_needs_kwmf(capsys):
    assert run(["qmult", "--rank", "4", "--mu", "0", "--method", "closed"]) == EXIT_USAGE
    capsys.readouterr()
    code, data = _run_json(
        capsys, ["qmult", "--rank", "4", "--mu", "0", "--method", "kwmf", "--format", "json"]
    )
    assert code == EXIT_OK
    assert data["query"]["mu"] == 0
    assert data["result"]["routes"]["kwmf"]["coeffs"] == [0, 1, 1, 1, 1]


def test_usage_errors_exit_2(capsys):
    assert run(["qmult", "--rank", "5", "--mu", "2-3"]) == EXIT_USAGE
    assert run(["alt-set", "--rank", "3", "--mu", "1..4"]) == EXIT_USAGE
    assert run(["alt-set", "--rank", "3", "--mu", "1..2", "--bogus"]) == EXIT_USAGE
    assert run(["partition", "--rank", "3", "--weight", "1,2"]) == EXIT_USAGE
    assert run(["partition", "--rank", "2", "--weight", "a,b"]) == EXIT_USAGE
    assert run(["identity", "--max-n", "-1"]) == EXIT_USAGE
    capsys.readouterr()
    # every limit is fixed: no subcommand takes a cap
    assert run(["alt-set", "--rank", "3", "--mu", "1..2", "--method", "brute",
                "--brute-cap", "3"]) == EXIT_USAGE
    assert "unrecognized arguments: --brute-cap 3" in capsys.readouterr().err
    assert run(["qmult", "--rank", "9", "--mu", "1..1", "--method", "kwmf",
                "--brute-cap", "9"]) == EXIT_USAGE
    assert run(["alt-set", "--rank", "3", "--mu", "0"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE
    capsys.readouterr()


def test_capacity_exit_3(capsys):
    # the brute route reads the pruned search: rank 9 answers, rank 30 [15, 15] hits the budget
    assert run(["alt-set", "--rank", "9", "--mu", "1..2", "--method", "brute"]) == EXIT_OK
    assert "brute: 21 elements" in capsys.readouterr().out
    assert run(["alt-set", "--rank", "30", "--mu", "15..15", "--method", "brute"]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "capacity: the pruned search at rank 30 visited more than 131072 nodes, "
        "its fixed budget; no flag raises it\n"
    )
    # mu = 0 at rank 30 needs F_30 = 832,040 terms; the search stops at its node budget
    assert run(["qmult", "--rank", "30", "--mu", "0", "--method", "kwmf"]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("capacity: the pruned search at rank 30 visited more than")
    assert "its fixed budget; no flag raises it" in captured.err


def test_a_deep_search_is_refused_by_its_budget_not_the_recursion_limit(capsys, monkeypatch):
    # at rank 1200 every search path is deeper than Python's default recursion limit
    monkeypatch.setattr(kostant.alternation, "SEARCH_NODE_BUDGET", 2000)
    assert run(["qmult", "--rank", "1200", "--mu", "0", "--method", "kwmf"]) == EXIT_CAPACITY
    assert run(["alt-set", "--rank", "1200", "--mu", "600..600", "--method", "brute"]) == (
        EXIT_CAPACITY
    )
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == 2 * (
        "capacity: the pruned search at rank 1200 visited more than 2000 nodes, "
        "its fixed budget; no flag raises it\n"
    )


def test_a_refused_brute_alt_set_builds_no_leaf(capsys, monkeypatch):
    # the whole-set search refuses before it builds any element, so no reduced word is computed
    def no_leaf(*args):
        raise AssertionError("a leaf was built")

    monkeypatch.setattr(kostant.alternation, "_element", no_leaf)
    assert run(["alt-set", "--rank", "1500", "--mu", "750..750", "--method", "brute"]) == (
        EXIT_CAPACITY
    )
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "capacity: the pruned search at rank 1500 visited more than 131072 nodes, "
        "its fixed budget; no flag raises it\n"
    )


def test_no_subcommand_reaches_the_literal_scan(capsys, monkeypatch):
    def refuse(rank):
        raise AssertionError(f"the literal scan of rank {rank} was reached")

    monkeypatch.setattr(kostant.alternation, "enumerate_all", refuse)
    monkeypatch.setattr(kostant.weyl, "enumerate_all", refuse)
    for fmt in ("json", "csv", "table"):
        argv = ["alt-set", "--rank", "7", "--mu", "4..4", "--method", "both", "--format", fmt]
        assert run(argv) == EXIT_OK  # the brute and theorem sets agree
        capsys.readouterr()
    assert run(["verify", "--max-closed-rank", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert sum(ln.startswith("PASS") for ln in out.splitlines()) == 11
    assert "560 interval sets equal through rank 14" in out
    assert out.endswith("all 11 criteria passed\n")


def test_a_closed_stdout_ends_the_script_quietly():
    # about 300 kB of table, far more than a pipe buffers: the write meets the closed pipe
    src = str(Path(__file__).resolve().parents[1] / "src")
    with subprocess.Popen(
        [sys.executable, "-m", "kostant", "alt-set", "--rank", "20", "--mu", "10..10"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"alternation set, rank 20, interval weight [10, 10]\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_FAIL
    assert err == ""  # no BrokenPipeError traceback, and no warning at exit


def test_kwmf_past_the_old_rank_cap(capsys):
    assert run(["qmult", "--rank", "9", "--mu", "1..1", "--method", "kwmf"]) == EXIT_OK
    assert "q^8 " in capsys.readouterr().out
    code, data = _run_json(
        capsys, ["qmult", "--rank", "20", "--mu", "0", "--method", "kwmf", "--format", "json"]
    )
    assert code == EXIT_OK
    kwmf = data["result"]["routes"]["kwmf"]
    assert kwmf["coeffs"] == [0] + [1] * 20
    assert kwmf["term_count"] == 6765  # F_20


def test_ground_cap_exit_3_names_no_flag(capsys):
    assert run(["alt-set", "--rank", "30", "--mu", "1..1"]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "capacity: the alternation set of the interval [1, 1] at rank 30 has F_1 * F_30 elements"
    )
    assert "more than F_27 = 196418, the most 25 free letters a side give" in captured.err
    assert captured.err.endswith("the cap is fixed and no flag raises it\n")
    assert "max_ground" not in captured.err
    # each side within 25 letters, but F_27^2 elements together
    assert run(["alt-set", "--rank", "53", "--mu", "27..27", "--format", "json"]) == EXIT_CAPACITY
    assert "F_27 * F_27 elements" in capsys.readouterr().err


def test_a_side_past_the_cap_is_refused_before_its_fibonacci_number(capsys, monkeypatch):
    # F_25000 has over 5,000 digits: formatting it once exited 2, and computing it held the memory
    asked = []

    def recording(n):
        asked.append(n)
        return fibonacci(n)

    monkeypatch.setattr(kostant.alternation, "fibonacci", recording)
    assert run(["alt-set", "--rank", "50000", "--mu", "25000..25000"]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "has F_25000 * F_25001 elements" in captured.err
    assert captured.err.endswith("no flag raises it\n")
    assert all(n <= 27 for n in asked), asked


def test_a_refused_alt_set_builds_no_digit_table(capsys):
    # no text is rendered before both routes have returned, so the refusal costs nothing
    tracemalloc.start()
    try:
        assert run(["alt-set", "--rank", "1000000", "--mu", "1..1"]) == EXIT_CAPACITY
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "has F_1 * F_1000000 elements" in capsys.readouterr().err
    assert peak < 1_000_000, peak


def test_the_pruned_search_refuses_at_rank_300000_in_time(capsys):
    # A(highest root, highest root) is the identity alone, but its search passes
    # the node budget; each node's Python work is O(children), so the refusal
    # costs the budget, not budget * rank (about 7 s on a 2-vCPU VM when each
    # node moved a rank-sized list)
    start = time.perf_counter()
    code = run(["alt-set", "--rank", "300000", "--mu", "1..300000", "--method", "brute"])
    seconds = time.perf_counter() - start
    assert code == EXIT_CAPACITY
    assert "visited more than 131072 nodes, its fixed budget" in capsys.readouterr().err
    assert seconds < 2, seconds


def _drop_the_identity(cli, monkeypatch):
    # the empty right word dropped, so no row of the identity is printed
    real = cli.characterized_sides

    def tampered(iv):
        left, right = real(iv)
        return left, right[:-1]

    monkeypatch.setattr(cli, "characterized_sides", tampered)


def _print_3_for_4(cli, monkeypatch):
    # letter 4 printed as 3 wherever a word takes it: "2 3" has the length of "2 4", but
    # its letters do not commute, so it is no member; the perm texts change alike
    real = cli.nonconsecutive_choices

    def tampered(letters, take, *rest):
        return real(letters, lambda x: take(3 if x == 4 else x), *rest)

    monkeypatch.setattr(cli, "nonconsecutive_choices", tampered)


def _swap_the_taken_perm_piece(cli, monkeypatch):
    # the perm fold alone (the one with a skip piece) prints a taken letter y as "y, y + 1"
    # where the swap puts "y + 1, y": every word stays, and s2's perm prints as the identity's
    real = cli.nonconsecutive_choices

    def tampered(letters, take, skip=None, *rest):
        def unswapped(y):
            return skip(y) + skip(y + 1)

        return real(letters, take if skip is None else unswapped, skip, *rest)

    monkeypatch.setattr(cli, "nonconsecutive_choices", tampered)


@pytest.mark.parametrize(
    "tamper", [_drop_the_identity, _print_3_for_4, _swap_the_taken_perm_piece],
    ids=["dropped", "replaced", "perm"],
)
def test_the_both_verdict_compares_the_printed_rows(capsys, monkeypatch, tamper):
    # untampered, both routes agree here and at ranks 9-12 (test_alt_set_output.py);
    # the verdict compares every CSV field the two routes print, in order
    import kostant.cli as cli

    argv = ["alt-set", "--rank", "9", "--mu", "1..1", "--method", "both"]
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out.endswith("verdict: pass\n")
    tamper(cli, monkeypatch)
    assert run(argv) == EXIT_FAIL
    out = capsys.readouterr().out
    assert out.endswith("verdict: fail\n")
    theorem = out[out.index("theorem:"):]
    assert ("  e " in theorem) == (tamper is not _drop_the_identity)
    assert ("s2 s3 " in theorem) == (tamper is _print_3_for_4)
    s2 = next(line for line in theorem.splitlines() if line.startswith("  s2 "))
    swapped = tamper is _swap_the_taken_perm_piece
    assert s2.endswith("perm (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)" if swapped
                       else "perm (1, 3, 2, 4, 5, 6, 7, 8, 9, 10)")
    if tamper is _drop_the_identity:  # the count is of the products built, not the formula
        predicted = int(out.split("predicted count: ")[1].split("\n")[0])
        assert theorem.startswith(f"theorem: {predicted - 1} elements\n")


def _captured(call, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call(argv)
    return code, out.getvalue(), err.getvalue()


def _parsed_whole(argv):
    """The exit code of the top-level parser's own parse of the whole argv."""
    import kostant.cli as cli

    parser, _ = cli._build_parser()
    try:
        parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    raise AssertionError(f"{argv} parsed")


@pytest.mark.parametrize(
    "argv, code, last_line",
    [
        (["alt-set", "--rank", "3", "--mu", "1..1", "--brute-cap", "3"], EXIT_USAGE,
         "kostant: error: unrecognized arguments: --brute-cap 3"),
        (["alt-set", "--rank", "3"], EXIT_USAGE,
         "kostant alt-set: error: the following arguments are required: --mu"),
        (["qmult", "--rank", "3", "--mu", "1..1", "--method", "brute"], EXIT_USAGE,
         "kostant qmult: error: argument --method: invalid choice: "),
        (["partition", "--rank", "x", "--weight", "1"], EXIT_USAGE,
         "kostant partition: error: argument --rank: expected an integer, got 'x'"),
        (["frobnicate", "--rank", "3"], EXIT_USAGE,
         "kostant: error: argument command: invalid choice: "),
        ([], EXIT_USAGE, "kostant: error: the following arguments are required: command"),
        (["-h"], EXIT_OK, None),
        (["alt-set", "-h"], EXIT_OK, None),
    ],
    ids=["unrecognized", "missing", "choice", "integer", "command", "none", "help", "alt-set-help"],
)
def test_a_call_the_parser_ends_prints_what_the_whole_parse_prints(argv, code, last_line):
    # one parse per call: a known command's own parser takes the arguments
    # after it; the stdout, stderr and exit code are the top-level parser's
    # own parse of the whole argv, each byte
    got = _captured(run, argv)
    assert got == _captured(_parsed_whole, argv)
    assert got[0] == code
    _, out, err = got
    if last_line is None:
        assert err == ""
        assert out.startswith(f"usage: {' '.join(['kostant', *argv[:-1]])} [-h]")
    else:
        assert out == ""
        assert err.startswith("usage: kostant")
        assert err.splitlines()[-1].startswith(last_line)


def test_reused_parser_keeps_no_state_between_calls(capsys):
    import kostant.cli as cli

    assert cli._build_parser() is cli._build_parser()
    assert run(["qmult", "--rank", "x", "--mu", "1..1"]) == EXIT_USAGE
    assert run(["--help"]) == EXIT_OK
    capsys.readouterr()
    argv = ["alt-set", "--rank", "3", "--mu", "1..2", "--method", "brute"]
    assert run(argv + ["--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["sets"]["brute"]["count"] == 1
    assert run(argv) == EXIT_OK  # the --format of the last call is gone
    assert "brute: 1 elements" in capsys.readouterr().out
    golden = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
    repeated = ["alt-set", "--rank", "7", "--mu", "4..4", "--method", "theorem", "--format", "csv"]
    record = next(rec for rec in golden if rec["argv"] == repeated)
    for _ in range(3):
        assert run(record["argv"]) == record["exit"]
        assert capsys.readouterr().out == record["stdout"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = run(
        ["qmult", "--rank", "5", "--mu", "2..3", "--method", "all", "--format", "json",
         "--out", str(target)]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    data = json.loads(target.read_text())
    assert data["verdict"] == "pass"


def test_help_exits_zero(capsys):
    assert run(["--help"]) == EXIT_OK
    assert "alt-set" in capsys.readouterr().out


def test_python_dash_m_runs_without_installing():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "kostant", "identity", "--max-n", "3"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert "verdict: pass" in done.stdout


def test_verify_maps_failure_to_exit_1(capsys, monkeypatch):
    import kostant.cli as cli
    from kostant.acceptance import CriterionResult

    def forced_failure(max_closed_rank):
        return iter([CriterionResult("stub", False, "forced failure", 0.0)])

    monkeypatch.setattr(cli, "run_all", forced_failure)
    assert run(["verify"]) == EXIT_FAIL
    capsys.readouterr()


def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    import kostant.cli as cli

    target = str(tmp_path / "missing" / "x")
    assert run(["identity", "--max-n", "3", "--out", target]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out: ")

    def unreachable(max_closed_rank):
        raise AssertionError("a criterion ran before --out was opened")

    # --out is opened before any handler runs, so no criterion runs in any format
    monkeypatch.setattr(cli, "run_all", unreachable)
    for fmt in ("json", "csv", "table"):
        assert run(["verify", "--format", fmt, "--out", target]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write --out: ")


def test_failed_call_leaves_out_empty(tmp_path, capsys):
    # as a shell redirection would: the file is opened first, and nothing is written to it
    target = tmp_path / "f"
    assert run(["alt-set", "--rank", "30", "--mu", "1..1", "--out", str(target)]) == EXIT_CAPACITY
    assert target.read_text() == ""
    assert capsys.readouterr().out == ""


_VALID = {
    "--max-n": st.integers(0, 6),
    "--max-closed-rank": st.integers(1, 3),
    "--format": st.sampled_from(["json", "csv", "table"]),
    "--method:alt-set": st.sampled_from(["brute", "theorem", "both"]),
    "--method:qmult": st.sampled_from(["kwmf", "closed", "predicted", "all"]),
}
_INVALID = st.one_of(
    st.integers(-2, 0),
    st.sampled_from(["brute", "kwmf", "all", "6..1", "0..0", "1,x", "x", ""]),
)
_GRAMMAR = {
    "alt-set": ("--rank", "--mu", "--method", "--format", "--out"),
    "qmult": ("--rank", "--mu", "--method", "--format", "--out"),
    "partition": ("--rank", "--weight", "--oracle", "--format", "--out"),
    "identity": ("--max-n", "--format", "--out"),
    "verify": ("--max-closed-rank", "--format", "--out"),
}
_JUNK = st.one_of(
    st.sampled_from(["", "x", "..", "1..", "-", "--", "--bogus", "1,a", "2.5", "--rank"]),
    st.text(max_size=4),
)


def _one_in(n):
    return st.sampled_from(range(n)).map(lambda k: k == 0)


@st.composite
def _argv(draw, out_dir):
    """argv from the real grammar, each flag sometimes dropped or given a bad value."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    rank = draw(st.integers(1, 6))
    interval = st.integers(1, rank).flatmap(
        lambda i: st.integers(i, rank).map(lambda j: f"{i}..{j}")
    )
    valid = {
        **_VALID,
        "--rank": st.just(rank),
        "--mu": st.one_of(interval, interval, st.just("0")),
        "--weight": st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).map(
            lambda c: ",".join(map(str, c))
        ),
    }
    argv = [command]
    for flag in _GRAMMAR[command]:
        if draw(_one_in(8)):
            continue  # a dropped flag; required ones then exit 2
        if flag == "--oracle":
            argv.append(flag)
        elif flag == "--out":
            target = draw(st.sampled_from([None, None, None, "missing/out.txt", "out.txt"]))
            if target:
                argv += [flag, str(out_dir / target)]
        else:
            strategy = valid.get(f"{flag}:{command}", valid.get(flag))
            value = str(draw(_INVALID if draw(_one_in(8)) else strategy))
            # the = spelling lets a negative value through argparse
            if draw(st.booleans()):
                argv.append(f"{flag}={value}")
            else:
                argv += [flag, value]
    if draw(_one_in(4)):
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_fuzzed_argv_only_ever_exits_0_to_3(tmp_path, monkeypatch, data):
    # The criteria themselves are pinned by test_acceptance and the golden file;
    # stubbing them keeps each fuzzed verify call as cheap as the other subcommands.
    for name in dir(acceptance):
        if name.startswith("check_"):
            monkeypatch.setattr(acceptance, name, lambda *args, **kwargs: "stub")
    argv = data.draw(_argv(tmp_path))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_CAPACITY)
