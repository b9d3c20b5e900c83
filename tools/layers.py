"""Time each layer of kostant and a few typical queries end to end; write BENCH_<label>.json.

    python tools/layers.py [--label L] [--tiny] [--compare BENCH_base.json]

Run from any directory: the file lands in the current one, and the package
is imported from the `src/` beside this script. One process times every
layer on fixed inputs, each a batch of calls repeated, and records the
median, the quartiles and the repeat count of the batch times:
`from_word`, `apply` and `shifted_action` (the Weyl action kernel),
`pruned_survivors` and `characterized_sides` (the two alternation-set
routes), `kostant_q` cold (its memo `partition._MEMO` cleared before each
batch) and warm, `q_multiplicity` (memo cleared before each batch) and
`q_multiplicity_closed`.

End to end it times typical `qmult`, `alt-set` and `partition` calls
through `cli.run` with `--out /dev/null`, the memo cleared before each,
and runs each once more in a fresh interpreter that prints its own peak
resident size, VmHWM from /proc/self/status (null where that file is
missing). The rusage peak is not used: it survives fork and exec, so a
child would report its parent's size. A process that only imports the
package is measured alike, as the floor of those readings.
The full mode also records verify's seconds per criterion from one
`acceptance.run_all` pass and the wall time of one tier-1 pytest run.
`--tiny` runs smaller inputs and skips verify and tier-1.

`--compare BASE` then prints, for every entry in both files, the ratio of
this run's median to BASE's, marked `*` when it lies outside BASE's
quartiles (entries of one repeat have no quartile spread to leave).
Compare two runs taken back to back on one machine.

Times are ms (s for verify and tier-1) at reference speed, as perfbench's
are: on a 2-vCPU x86-64 VM (CPython 3.11) the CPU switches between two
speeds about 1.8x apart, every fraction of a second to a few seconds, and
two back-to-back runs of one commit read 0.5x to 1.9x on a layer's raw
median. Each batch and each verify criterion is scaled by perfbench's
NOMINAL_REF_MS over the mean of perfbench's reference readings
(`session.ref_ms`) taken just before and just after it. Each entry keeps
its raw median too, and `machine.ref_ms` summarizes every reading, so a
slow machine can be told from a slow program. Tier-1's wall time, one
run of tens of seconds, is raw. Stdlib only.
"""

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

from kostant import (  # noqa: E402
    RootInterval,
    Weight,
    apply,
    from_word,
    highest_root,
    interval_root,
    kostant_q,
    q_multiplicity,
    q_multiplicity_closed,
    shifted_action,
    zero_weight,
)
from kostant import cli, partition  # noqa: E402
from kostant.acceptance import run_all  # noqa: E402
from kostant.alternation import characterized_sides, pruned_survivors  # noqa: E402
from session import NOMINAL_REF_MS, ref_ms  # noqa: E402

# A child that runs one CLI call, or none, and prints its own peak resident size in kB.
_PEAK_CHILD = """
import sys
from kostant import cli
if len(sys.argv) > 1:
    cli.run(sys.argv[1:])
try:
    with open("/proc/self/status") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
except (OSError, StopIteration):
    print("null")
"""


def _summary(times: list[float], raw: list[float] | None = None) -> dict:
    """Median, quartiles and count of a list of timings, and the median of their raw times."""
    if len(times) < 2:
        q1 = med = q3 = times[0]
    else:
        q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    summary = {"median": med, "q1": q1, "q3": q3, "repeats": len(times)}
    if raw is not None:
        summary["raw_median"] = statistics.median(raw)
    return summary


def _between_readings(readings: list[float], run):
    """run() between two reference readings, which join `readings`.

    Returns its result, its raw ms and the factor that scales a time taken
    in between to reference speed.
    """
    before = ref_ms()
    t0 = time.perf_counter()
    result = run()
    raw = (time.perf_counter() - t0) * 1e3
    after = ref_ms()
    readings += [before, after]
    return result, raw, 2 * NOMINAL_REF_MS / (before + after)


def _timed(batch, repeats: int, readings: list[float], before=None) -> dict:
    """The _summary of `repeats` calls of batch(), each after before() when given, untimed."""
    times, raw = [], []
    gc.collect()
    for _ in range(repeats):
        if before is not None:
            before()
        _, ms, scale = _between_readings(readings, batch)
        times.append(ms * scale)
        raw.append(ms)
    return _summary(times, raw)


def _layers(tiny: bool, readings: list[float]) -> dict:
    rng = random.Random(36)
    r = 8 if tiny else 20
    words = [tuple(rng.randint(1, r) for _ in range(2 * r)) for _ in range(200 if tiny else 1000)]
    elements = [from_word(r, w) for w in words]
    mixed = Weight(r, tuple(rng.randint(-3, 3) for _ in range(r)))
    lam = highest_root(r)
    pr = 8 if tiny else 16
    side_iv = RootInterval(12, 10, 10) if tiny else RootInterval(24, 22, 22)
    dr = 4 if tiny else 6
    dp_weights = [Weight(dr, tuple(k * (dr + 1 - k) for k in range(1, dr + 1)))]  # 2 rho
    dp_weights += [Weight(dr, tuple(rng.randint(0, 3) for _ in range(dr))) for _ in range(100)]
    qr = 5 if tiny else 8
    q_ivs = [RootInterval(qr, i, j) for i in range(1, qr + 1) for j in range(i, qr + 1)]
    cr = 12 if tiny else 30
    c_ivs = [RootInterval(cr, i, j) for i in range(1, cr + 1) for j in range(i, cr + 1)]
    clear = partition._MEMO.clear
    layers = {  # name: (work, batch, before, memo)
        "from_word": (f"{len(words)} words of length {2 * r} at rank {r}",
                      lambda: [from_word(r, w) for w in words], None, None),
        "apply": (f"{len(elements)} elements at rank {r} on one weight",
                  lambda: [apply(s, mixed) for s in elements], None, None),
        "shifted_action": (f"{len(elements)} elements at rank {r} on the highest root",
                           lambda: [shifted_action(s, lam) for s in elements], None, None),
        "pruned_survivors": (f"highest root at mu = 0, rank {pr}",
                             lambda: pruned_survivors(highest_root(pr), zero_weight(pr)),
                             None, None),
        "characterized_sides": (f"interval [{side_iv.i}, {side_iv.j}] at rank {side_iv.rank}",
                                lambda: characterized_sides(side_iv), None, None),
        "kostant_q_cold": (f"2 rho and 100 seeded weights at rank {dr}",
                           lambda: [kostant_q(dr, w) for w in dp_weights], clear, "cold"),
        "kostant_q_warm": (f"2 rho and 100 seeded weights at rank {dr}",
                           lambda: [kostant_q(dr, w) for w in dp_weights], None, "warm"),
        "q_multiplicity": (f"highest root on every interval at rank {qr}",
                           lambda: [q_multiplicity(qr, highest_root(qr), interval_root(iv))
                                    for iv in q_ivs], clear, "cold"),
        "q_multiplicity_closed": (f"every interval at rank {cr}",
                                  lambda: [q_multiplicity_closed(iv) for iv in c_ivs], None, None),
    }
    repeats = 3 if tiny else 9
    out = {}
    for name, (work, batch, before, memo) in layers.items():
        if memo == "warm":
            batch()
        out[name] = {"work": work, "unit": "ms", "memo": memo,
                     **_timed(batch, repeats, readings, before)}
    return out


def _peak_mb(argv: list[str]):
    """VmHWM in MB of a fresh interpreter that runs `cli.run(argv)`, or None."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _PEAK_CHILD, *argv], env=env,
                          capture_output=True, text=True, check=True)
    kb = done.stdout.split()[-1]
    return None if kb == "null" else int(kb) / 1024


def _queries(tiny: bool, readings: list[float]) -> dict:
    calls = {
        "qmult-all-json": ["qmult", "--rank", "6" if tiny else "10", "--mu", "2..4",
                           "--method", "all", "--format", "json"],
        "qmult-closed-csv": ["qmult", "--rank", "40" if tiny else "300", "--mu", "1..1",
                             "--format", "csv"],
        "alt-set-theorem-json": ["alt-set", "--rank", "12" if tiny else "20", "--mu",
                                 "6..6" if tiny else "10..10", "--format", "json"],
        "alt-set-both-csv": ["alt-set", "--rank", "7" if tiny else "12", "--mu", "3..4",
                             "--method", "both", "--format", "csv"],
        "partition-table": ["partition", "--rank", "4" if tiny else "6", "--weight",
                            "4,6,6,4" if tiny else "6,10,12,12,10,6"],
    }
    repeats = 3 if tiny else 9
    out = {}
    for name, argv in calls.items():
        argv = argv + ["--out", os.devnull]

        def call():
            code = cli.run(argv)
            if code != cli.EXIT_OK:
                raise RuntimeError(f"{argv} exited {code}")

        out[name] = {"argv": argv, "unit": "ms", "memo": "cold",
                     **_timed(call, repeats, readings, partition._MEMO.clear),
                     "vmhwm_mb": _peak_mb(argv)}
    return out


def _verify(readings: list[float]) -> dict:
    """Each criterion of one run_all pass, scaled by the readings taken around it."""
    out, criteria = {}, run_all()
    while True:
        res, _, scale = _between_readings(readings, lambda: next(criteria, None))
        if res is None:
            return out
        out[res.name] = {"unit": "s", "passed": res.passed,
                         **_summary([res.seconds * scale], [res.seconds])}


def _tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"], cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    return {"unit": "s", "exit_code": done.returncode, "summary": lines[-1] if lines else "",
            **_summary([wall])}


def _entries(bench: dict) -> dict:
    """Every timed or measured entry of a BENCH file, by a flat name."""
    flat = {"machine/ref_ms": bench["machine"]["ref_ms"]}
    for section in ("layers", "queries", "verify"):
        for name, entry in (bench.get(section) or {}).items():
            flat[f"{section}/{name}"] = entry
            if entry.get("vmhwm_mb") is not None:
                flat[f"{section}/{name}/vmhwm"] = {"unit": "MB", "median": entry["vmhwm_mb"],
                                                   "repeats": 1}
    if bench.get("tier1"):
        flat["tier1"] = bench["tier1"]
    if bench.get("import_vmhwm_mb") is not None:
        flat["import/vmhwm"] = {"unit": "MB", "median": bench["import_vmhwm_mb"], "repeats": 1}
    return flat


def _compare(base: dict, new: dict) -> list[str]:
    """One line per entry in both runs: the two medians and their ratio, `*` past BASE's quartiles."""
    lines = [f"{'entry':<44} {'base':>10} {'new':>10} {'ratio':>7}"]
    old, cur = _entries(base), _entries(new)
    for name in [n for n in cur if n in old]:
        b, c = old[name], cur[name]
        ratio = c["median"] / b["median"] if b["median"] else float("nan")
        outside = b["repeats"] > 1 and not b["q1"] <= c["median"] <= b["q3"]
        lines.append(f"{name:<44} {b['median']:>10.3f} {c['median']:>10.3f} {ratio:>7.3f}"
                     f"{' *' if outside else ''}  {c['unit']}")
    return lines


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", default="local", help="the file is BENCH_<label>.json")
    p.add_argument("--tiny", action="store_true", help="small inputs; no verify, no tier-1")
    p.add_argument("--compare", metavar="BASE", help="a BENCH file to print ratios against")
    args = p.parse_args(argv)
    base = json.loads(Path(args.compare).read_text()) if args.compare else None
    bench = {
        "label": args.label,
        "mode": "tiny" if args.tiny else "full",
        "machine": {"cpu_count": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version()},
    }
    readings = []
    bench.update(
        layers=_layers(args.tiny, readings),
        queries=_queries(args.tiny, readings),
        import_vmhwm_mb=_peak_mb([]),
        verify=None if args.tiny else _verify(readings),
        tier1=None if args.tiny else _tier1(),
    )
    bench["machine"]["ref_ms"] = {"unit": "ms", **_summary(readings)}
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out}")
    if base is not None:
        print("\n".join(_compare(base, bench)))


if __name__ == "__main__":
    main()
