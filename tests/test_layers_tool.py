"""tools/layers.py writes a complete BENCH file in its tiny mode, and compares two of them."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "layers.py"
LAYERS = {"from_word", "apply", "shifted_action", "pruned_survivors", "characterized_sides",
          "kostant_q_cold", "kostant_q_warm", "q_multiplicity", "q_multiplicity_closed"}
QUERIES = {"qmult-all-json", "qmult-closed-csv", "alt-set-theorem-json", "alt-set-both-csv",
           "partition-table"}


def _timing(entry, unit):
    assert entry["unit"] == unit
    assert entry["repeats"] >= 1
    assert 0 <= entry["q1"] <= entry["median"] <= entry["q3"]
    assert entry.get("raw_median", 1) > 0


def _tiny(cwd, *args):
    done = subprocess.run([sys.executable, str(TOOL), "--tiny", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_tiny_run_writes_the_bench_schema_and_compares_against_another(tmp_path):
    assert _tiny(tmp_path, "--label", "a") == ["wrote BENCH_a.json"]
    bench = json.loads((tmp_path / "BENCH_a.json").read_text())
    assert bench["label"] == "a" and bench["mode"] == "tiny"
    assert set(bench["machine"]) == {"cpu_count", "platform", "python", "ref_ms"}
    _timing(bench["machine"]["ref_ms"], "ms")
    timed = [*bench["layers"].values(), *bench["queries"].values()]
    # one reference reading just before and one just after each timed batch
    assert bench["machine"]["ref_ms"]["repeats"] == 2 * sum(e["repeats"] for e in timed)
    assert set(bench["layers"]) == LAYERS
    for entry in bench["layers"].values():
        _timing(entry, "ms")
    assert bench["layers"]["kostant_q_cold"]["memo"] == "cold"
    assert bench["layers"]["kostant_q_warm"]["memo"] == "warm"
    assert set(bench["queries"]) == QUERIES
    for entry in bench["queries"].values():
        _timing(entry, "ms")
        assert entry["argv"][-2:] == ["--out", "/dev/null"]
        assert entry["vmhwm_mb"] is None or entry["vmhwm_mb"] > 0
    assert bench["verify"] is None and bench["tier1"] is None  # the tiny mode skips both

    wrote, header, *rows = _tiny(tmp_path, "--label", "b", "--compare", "BENCH_a.json")
    assert wrote == "wrote BENCH_b.json" and header.split() == ["entry", "base", "new", "ratio"]
    peaks = sum(e["vmhwm_mb"] is not None for e in bench["queries"].values())
    peaks += bench["import_vmhwm_mb"] is not None
    assert len(rows) == 1 + len(LAYERS) + len(QUERIES) + peaks
    for row in rows:
        name, old, new, ratio = row.split()[:4]
        assert float(ratio) == pytest.approx(float(new) / float(old), rel=0.01, abs=0.001), row
