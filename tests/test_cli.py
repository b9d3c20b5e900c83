"""CLI behaviour: exit codes, formats, JSON round-trips, capacity mapping."""

import json

from kostant import (
    fibonacci,
    highest_root,
    interval_root,
    q_multiplicity,
    RootInterval,
)
from kostant.cli import EXIT_CAPACITY, EXIT_FAIL, EXIT_OK, EXIT_USAGE, run


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
    rep = q_multiplicity(4, highest_root(4), interval_root(RootInterval(4, 1, 3)), "kwmf_full")
    got = data["result"]["routes"]["kwmf"]
    assert got["coeffs"] == list(rep.q_multiplicity.coeffs)
    assert got["pretty"] == rep.q_multiplicity.pretty()
    assert got["multiplicity_at_one"] == rep.multiplicity_at_one
    assert got["term_count"] == rep.term_count
    assert got["method"] == rep.method


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
    assert run(["alt-set", "--rank", "3", "--mu", "1..2", "--brute-cap", "0"]) == EXIT_USAGE
    assert run(["alt-set", "--rank", "3", "--mu", "0"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE
    capsys.readouterr()


def test_capacity_exit_3(capsys):
    assert run(["alt-set", "--rank", "9", "--mu", "1..2", "--method", "brute"]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "--brute-cap" in err
    assert run(["qmult", "--rank", "9", "--mu", "1..2", "--method", "kwmf"]) == EXIT_CAPACITY
    capsys.readouterr()
    # an explicit cap at least the rank lets the query through
    assert run(["alt-set", "--rank", "3", "--mu", "1..2", "--method", "brute",
                "--brute-cap", "3"]) == EXIT_OK
    capsys.readouterr()


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


def test_verify_small_bounds(capsys):
    code = run(["verify", "--max-brute-rank", "3", "--max-closed-rank", "5"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 11
    assert all(ln.startswith("PASS") for ln in lines)
    assert "all 11 criteria passed" in out


def test_verify_json_deterministic_for_seed(capsys):
    argv = ["verify", "--max-brute-rank", "2", "--max-closed-rank", "4",
            "--seed", "7", "--format", "json"]
    code1, data1 = _run_json(capsys, argv)
    code2, data2 = _run_json(capsys, argv)
    assert code1 == code2 == EXIT_OK
    strip = lambda d: [
        {k: v for k, v in c.items() if k != "seconds"} for c in d["result"]["criteria"]
    ]
    assert strip(data1) == strip(data2)
    assert data1["verdict"] == "pass"
    assert data1["query"]["seed"] == 7


def test_help_exits_zero(capsys):
    assert run(["--help"]) == EXIT_OK
    assert "alt-set" in capsys.readouterr().out


def test_verify_maps_failure_to_exit_1(capsys, monkeypatch):
    import kostant.cli as cli
    from kostant.acceptance import CriterionResult

    def forced_failure(**kwargs):
        return [CriterionResult("stub", False, "forced failure", 0.0)]

    monkeypatch.setattr(cli, "run_all", forced_failure)
    assert run(["verify"]) == EXIT_FAIL
    capsys.readouterr()
