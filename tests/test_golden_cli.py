"""Replay recorded CLI calls: every exit code and every byte of stdout must match.

tests/golden_cli.json holds one record per call (argv, exit code, stdout).
The `verify` row reports wall-clock seconds per criterion; those fields are
dropped before recording and before comparing. Regenerate the file only when
an output change is intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from kostant.cli import run

GOLDEN = Path(__file__).with_name("golden_cli.json")
FORMATS = ("json", "csv", "table")


def golden_argvs() -> list[list[str]]:
    argvs = []
    for r in range(3, 8):
        for i, j in sorted({(1, 1), (r, r), (1, r), (2, r - 1), ((r + 1) // 2, (r + 1) // 2)}):
            for method in ("brute", "theorem", "both"):
                for fmt in FORMATS:
                    argvs.append(["alt-set", "--rank", str(r), "--mu", f"{i}..{j}",
                                  "--method", method, "--format", fmt])
    for r in range(2, 7):
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                argvs.append(["qmult", "--rank", str(r), "--mu", f"{i}..{j}",
                              "--method", "all", "--format", "json"])
        for mu in ("0", "1..1", f"1..{r}", f"2..{r}"):
            for method in ("kwmf", "closed", "predicted", "all"):
                for fmt in FORMATS:
                    argvs.append(["qmult", "--rank", str(r), "--mu", mu,
                                  "--method", method, "--format", fmt])
    for r, weight in ((2, "2,3"), (3, "1,2,1"), (3, "0,0,0"), (4, "1,1,1,1"), (2, "-1,2")):
        for fmt in FORMATS:
            argvs.append(["partition", "--rank", str(r), f"--weight={weight}",
                          "--oracle", "--format", fmt])
    for fmt in FORMATS:
        argvs.append(["identity", "--max-n", "12", "--format", fmt])
    argvs.append(["verify", "--max-brute-rank", "3", "--max-closed-rank", "5",
                  "--format", "json"])
    return argvs


def call(argv: list[str]) -> dict:
    """Run one CLI call in-process; stdout with verify's timings stripped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    text = out.getvalue()
    if argv[0] == "verify":
        doc = json.loads(text)
        for crit in doc["result"]["criteria"]:
            del crit["seconds"]
        text = json.dumps(doc, indent=2)
    return {"argv": argv, "exit": code, "stdout": text}


def test_cli_output_matches_golden():
    records = json.loads(GOLDEN.read_text())
    assert [rec["argv"] for rec in records] == golden_argvs()
    mismatched = [rec["argv"] for rec in records if call(rec["argv"]) != rec]
    assert mismatched == []


def test_python_dash_O_replays_one_golden_call_per_format():
    """`python -O -m kostant` strips asserts; the output must not change.

    The theorem route runs in every format: its membership spot check
    raises RuntimeError, never asserts, so -O keeps it.
    """
    records = {json.dumps(rec["argv"]): rec for rec in json.loads(GOLDEN.read_text())}
    argvs = (
        ["alt-set", "--rank", "7", "--mu", "4..4", "--method", "theorem", "--format", "json"],
        ["alt-set", "--rank", "7", "--mu", "4..4", "--method", "theorem", "--format", "csv"],
        ["alt-set", "--rank", "7", "--mu", "4..4", "--method", "theorem", "--format", "table"],
        ["alt-set", "--rank", "7", "--mu", "1..1", "--method", "both", "--format", "csv"],
        ["qmult", "--rank", "6", "--mu", "2..6", "--method", "all", "--format", "table"],
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for argv in argvs:
        record = records[json.dumps(argv)]
        done = subprocess.run(
            [sys.executable, "-O", "-m", "kostant", *argv],
            env=env, capture_output=True, timeout=120,
        )  # bytes, so the CSV's \r\n line ends are compared as written
        assert (done.returncode, done.stdout.decode()) == (record["exit"], record["stdout"]), (
            done.stderr.decode()
        )


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([call(argv) for argv in golden_argvs()], indent=1) + "\n")
