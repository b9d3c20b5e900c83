"""Every limit is fixed, every refusal says so, and README documents exactly the CLI's flags."""

import inspect
import re
from pathlib import Path

import pytest

import kostant
from kostant import cli
from kostant.cli import EXIT_CAPACITY, _build_parser, run

README = Path(__file__).resolve().parents[1] / "README.md"
# A parameter named like a limit: max_rank, brute_cap, max_ground, node_budget, ...
_LIMIT_NAME = re.compile(r"^max_|cap|limit|budget|bound|ground")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")


def _subparser_flags() -> dict[str, set[str]]:
    """Each subcommand's option strings, without argparse's own --help."""
    (subcommands,) = _build_parser()._subparsers._group_actions
    return {
        name: set(sp._option_string_actions) - {"-h", "--help"}
        for name, sp in subcommands.choices.items()
    }


def test_the_oracle_height_is_the_only_limit_parameter():
    limits = set()
    for name in kostant.__all__:
        try:
            params = inspect.signature(getattr(kostant, name)).parameters
        except (TypeError, ValueError):  # constants and exception classes
            continue
        limits |= {(name, p) for p in params if _LIMIT_NAME.search(p)}
    assert limits == {("kostant_q_oracle", "max_height")}
    assert list(inspect.signature(kostant.alt_set_bruteforce).parameters) == ["rank", "lam", "mu"]
    assert list(inspect.signature(kostant.enumerate_all).parameters) == ["rank"]


@pytest.mark.parametrize(
    "argv",
    [
        ["alt-set", "--rank", "30", "--mu", "15..15", "--method", "brute"],
        ["alt-set", "--rank", "30", "--mu", "1..1"],
        ["qmult", "--rank", "30", "--mu", "0", "--method", "kwmf"],
        ["partition", "--rank", "2", "--weight", "13,13", "--oracle"],
        ["identity", "--max-n", "1001"],
    ],
)
def test_each_refusal_exits_3_and_names_only_real_flags(argv, capsys):
    assert run(argv) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("capacity: ")
    assert "no flag raises it" in captured.err
    assert set(_FLAG.findall(captured.err)) <= _subparser_flags()[argv[0]]


def test_the_identity_cap_admits_its_value_and_refuses_past_it_before_any_row(
    capsys, monkeypatch
):
    monkeypatch.setattr(cli, "IDENTITY_MAX_N", 5)
    assert run(["identity", "--max-n", "5", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "5,13,13,True"

    def no_rows(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli, "nonconsecutive_count_k", no_rows)
    monkeypatch.setattr(cli, "fibonacci", no_rows)
    assert run(["identity", "--max-n", "6"]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "capacity: the identity table to n = 6 is past its cap of n = 5; "
        "the cap is fixed and no flag raises it\n"
    )


def test_readme_names_exactly_the_cli_flags():
    lines = README.read_text().splitlines()
    # the pip lines carry pip's own flags
    documented = set(_FLAG.findall("\n".join(s for s in lines if not s.startswith("pip "))))
    flags = set().union(*_subparser_flags().values())
    assert documented - flags == set(), "README names flags the CLI lacks"
    assert flags - documented == set(), "README omits flags the CLI has"
