"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    diagnostics = json.loads(lines[-2].removeprefix("perfbench: "))
    return json.loads(lines[-1]), diagnostics


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    result, diagnostics = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert diagnostics["missing"] == []
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_capped_closed_route_counts_as_failed():
    result, diagnostics = _run("closed-sweep", 0)
    # The tiny sweep holds [1, 1] and [28, 28] at rank 28, which hit the cap.
    assert diagnostics["statuses"]["refused"] == 2
    sessions = result["attempted"] // diagnostics["queries_per_pass"]
    assert result["failed"] == 2 * sessions
    assert result["metrics"]["correct_frac"]["value"] == pytest.approx(
        1 - 2 / diagnostics["queries_per_pass"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_queries(workload):
    assert workloads.queries(workload, 5) == workloads.queries(workload, 5)
    assert workloads.queries(workload, 5) != workloads.queries(workload, 6)


def _kostant_bindings():
    import kostant.cli  # noqa: F401  (load every module the tracer patches)

    mods = {n: m for n, m in sys.modules.items() if n == "kostant" or n.startswith("kostant.")}
    return {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}


def test_wrappers_are_removed_after_tracing():
    import kostant.alternation
    import kostant.weyl
    from kostant.weights import Weight

    before = _kostant_bindings()
    init = Weight.__dict__["__init__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert kostant.weyl.shifted_action is not before[("kostant.weyl", "shifted_action")]
        assert kostant.alternation.shifted_action is kostant.weyl.shifted_action
        assert Weight.__dict__["__init__"] is not init
    finally:
        tracer.uninstall()
    after = _kostant_bindings()
    assert all(after[key] is value for key, value in before.items())
    assert Weight.__dict__["__init__"] is init
    assert tracer.missing == []


def test_deleted_function_is_missing_not_zero():
    tracer = tracing.Tracer(targets=(("weyl.gone", "kostant.weyl", "no_such_function", "span"),))
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["weyl.gone"]
    assert not any(name.startswith("weyl.gone") for name in tracer.summary())


def test_tracer_counts_and_folds_hot_leaves():
    import kostant.alternation
    from kostant.weights import RootInterval, highest_root, interval_root

    tracer = tracing.Tracer(max_spans=5)
    tracer.install()
    try:
        mu = interval_root(RootInterval(3, 2, 2))
        kostant.alternation.alt_set_bruteforce(3, highest_root(3), mu)
    finally:
        tracer.uninstall()
    s = tracer.summary()
    assert s["weyl.enumerate_all.elements"] == 24
    assert s["weyl.shifted_action.calls"] == 24
    assert s["alternation.alt_set_bruteforce.calls"] == 1
    # |A(highest root, [2, 2])| = F_2 * F_2 = 1 of the 24 elements of S_4.
    assert s["alternation.alt_set_bruteforce.kept_frac"] == pytest.approx(1 / 24)
    folded = sum(count for count, _ in tracer.folded.values())
    assert len(tracer.spans) + folded == s["trace.spans"]
    assert folded > 0 and len(tracer.spans) <= 5 + 1
    assert s["alternation.alt_set_bruteforce.self_ms"] >= 0


def test_references_agree_with_the_oracle_and_the_fibonacci_counts():
    from itertools import product

    from kostant.partition import kostant_q_oracle
    from kostant.weights import Weight

    for coords in product(range(3), repeat=3):
        assert reference.flow_q(coords) == list(kostant_q_oracle(3, Weight(3, coords)).coeffs)
    for r in (3, 4, 5):
        for i, j in workloads._intervals(r):
            size = reference.fib(i) * reference.fib(r - j + 1)
            mu = workloads._interval_coords(r, i, j)
            assert len(reference.literal_scan(r, (1,) * r, mu)) == size
            assert len(reference.alt_words(r, i, j)) == size
            assert reference.kwmf_q(r, (1,) * r, mu)[0] == reference.monomial(r - (j - i + 1))
        assert reference.kwmf_q(r, (1,) * r, (0,) * r)[0] == [0] + [1] * r
        assert reference.flow_q((1,) * r) == reference.consecutive_q(r)


def test_status_flags_wrong_refused_and_errors():
    q = ("closed", 10, 2, 4)
    assert reference.status(q, ["ok", reference.monomial(7)]) == "ok"
    assert reference.status(q, ["ok", reference.monomial(6)]) == "wrong"
    assert reference.status(q, ["refused", "cap"]) == "refused"
    assert reference.status(q, ["error", "TypeError"]) == "error"
    cli = ("cli", ("qmult", "--rank", "28", "--mu", "1..1", "--method", "closed"), 0)
    assert reference.status(cli, ["ok", [3, None]]) == "refused"
    assert reference.status(cli, ["ok", [1, None]]) == "error"
    bad = ("cli", ("frobnicate",), 2)
    assert reference.status(bad, ["ok", [2, None]]) == "ok"
    assert reference.status(bad, ["ok", [0, None]]) == "error"


def test_bare_directory_exits_nonzero_without_a_result():
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "group-scan", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
