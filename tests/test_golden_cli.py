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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([call(argv) for argv in golden_argvs()], indent=1) + "\n")
