"""Benchmark for the kostant package: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src. The
run repeats cold sessions (perfbench/session.py, one fresh process each, one
after another) until the next one would end after S seconds, and at least
three. Every session imports the package, builds the seeded inputs and makes
one timed pass over the workload's query stream. The answers are then
checked against the independent references in reference.py.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, medians over the sessions; with --trace 1 they are the
per-layer ones, from traced sessions that alternate with untraced ones (the
difference is trace.overhead_frac). The line before it, starting with
"perfbench:", holds diagnostics: the reference-loop timing, raw unscaled
seconds, sample counts, answer statuses and metrics that went missing.

A query that raises CapacityError (or exits 3 from the CLI) counts as
failed; a wrong answer, any other exception or exit code makes the run
incorrect as well.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SESSIONS = 3
SESSION_TIMEOUT_S = 150


class SessionError(RuntimeError):
    pass


def run_session(workload, seed, trace, tiny, spans_out=None):
    cmd = [sys.executable, str(HERE / "session.py"), workload, str(seed),
           "1" if trace else "0", "1" if tiny else "0"]
    if spans_out:
        cmd.append(str(spans_out))
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=SESSION_TIMEOUT_S)
    if proc.returncode != 0:
        raise SessionError(f"session exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_sessions(workload, seed, seconds, trace, tiny):
    """Cold sessions back to back; in a traced run every second one is traced."""
    sessions = []
    t0 = time.monotonic()
    spans_out = HERE / "out" / f"trace-{workload}-seed{seed}.json"
    while True:
        traced = trace and len(sessions) % 2 == 1
        if traced:
            spans_out.parent.mkdir(exist_ok=True)
        first_traced = traced and not any(s["traced"] for s in sessions)
        result = run_session(workload, seed, traced, tiny, spans_out if first_traced else None)
        result["traced"] = traced
        sessions.append(result)
        elapsed = time.monotonic() - t0
        enough = len(sessions) >= (2 if trace else MIN_SESSIONS)
        if enough and elapsed * (len(sessions) + 1) / len(sessions) > seconds:
            return sessions


def end_to_end(plain, ok, attempted):
    deciles = statistics.quantiles([x for s in plain for x in s["query_ms"]], n=10,
                                   method="inclusive")
    return {
        "setup_s": statistics.median(s["setup_s"] for s in plain),
        "wall_s": statistics.median(s["wall_s"] for s in plain),
        "query_p50_ms": deciles[4],
        "query_p90_ms": deciles[8],
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        "correct_frac": ok / attempted,
    }


def per_layer(plain, traced, ref_ms):
    layers = {}
    for s in traced:
        for name, value in s["layers"].items():
            layers.setdefault(name, []).append(value)
    out = {name: statistics.median(vs) for name, vs in layers.items()}
    plain_wall = statistics.median(s["wall_s"] for s in plain)
    out["trace.overhead_frac"] = statistics.median(s["wall_s"] for s in traced) / plain_wall - 1
    out["machine.ref_ms"] = ref_ms
    out["machine.raw_wall_s"] = statistics.median(s["wall_raw_s"] for s in plain)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for perfbench/tests")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "kostant" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'kostant'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    import kostant  # noqa: F401  (fails early, and leaves compiled modules for the sessions)

    try:
        sessions = run_sessions(args.workload, args.seed, args.seconds, args.trace == 1, args.tiny)
    except (SessionError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    qs = workloads.queries(args.workload, args.seed, args.tiny)
    first = sessions[0]["outcomes"]
    statuses = [reference.status(q, o) for q, o in zip(qs, first)]
    tally = Counter(statuses)
    consistent = all(s["outcomes"] == first for s in sessions[1:])
    oracle_n, oracle_bad = 0, 0
    if args.workload == "partition-dp":
        oracle_n, oracle_bad = reference.oracle_checks(qs, first, args.seed)
    ok = tally["ok"] - oracle_bad
    correct = consistent and tally["wrong"] == 0 and tally["error"] == 0 and oracle_bad == 0

    plain = [s for s in sessions if not s["traced"]]
    traced = [s for s in sessions if s["traced"]]
    ref_ms = statistics.median(r for s in sessions for r in s["refs_ms"])
    if args.trace:
        values, wanted = per_layer(plain, traced, ref_ms), spec["per_layer"]
    else:
        values, wanted = end_to_end(plain, ok, len(qs)), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "sessions": len(plain),
        "traced_sessions": len(traced),
        "queries_per_pass": len(qs),
        "query_batch": workloads.QUERY_BATCH[args.workload],
        "query_samples": sum(len(s["query_ms"]) for s in plain),
        "machine.ref_ms": ref_ms,
        "raw_setup_s": statistics.median(s["setup_raw_s"] for s in plain),
        "raw_wall_s": statistics.median(s["wall_raw_s"] for s in plain),
        "statuses": dict(tally),
        "oracle_checked": oracle_n,
        "oracle_disagree": oracle_bad,
        "sessions_agree": consistent,
        "missing": [m["name"] for m in wanted if m["name"] not in values],
    }
    print("perfbench: " + json.dumps(diagnostics))
    n = len(sessions)
    print(json.dumps({
        "correct": correct,
        "attempted": len(qs) * n,
        "failed": (len(qs) - ok) * n,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
