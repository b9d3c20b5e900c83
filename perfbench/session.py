"""One cold benchmark session: a fresh process that imports the package,
builds the inputs, runs one timed pass over a workload's query stream and
prints one JSON line with the timings, the peak RSS and a digest of every
answer. The parent (run.py) checks the answers against independent
references; nothing here knows what the right answer is.

Usage: python3 perfbench/session.py WORKLOAD SEED TRACE TINY [SPANS_OUT]

Times are "seconds at reference speed". The machine this was tuned on
switches between a fast and a slow CPU speed every fraction of a second to
a few seconds, and process CPU time moves with wall time. So fixed stdlib
loops are timed just before and just after each ~20 ms slice of work, and
every raw time in the slice is scaled by NOMINAL_REF_MS over the mean of
the two readings.
"""

import contextlib
import csv
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"

# The reference reading in ms at the speed all results are scaled to, about
# its median on a 2-vCPU x86-64 VM under CPython 3.11 (~0.18 ms at the fast
# speed, ~0.30 ms at the slow one). Written once; changing it rescales
# every time metric.
NOMINAL_REF_MS = 0.27
SLICE_S = 0.02


def _ref_dict():
    d = {}
    for i in range(1000):
        d[(i, i >> 3, i & 7)] = i
    return d


def _ref_arith():
    acc = 0
    for a, b in [(i, i + 1) for i in range(1500)]:
        acc += a * b - (a ^ b)
    return acc


def _shift(t, k):
    return tuple(x + k for x in t)


def _ref_calls():
    t = (1, 2, 3, 4, 5, 6)
    for k in range(400):
        t = _shift(t, k & 1)
    return t


REF_LOOPS = (_ref_dict, _ref_arith, _ref_calls)


def ref_ms():
    """One reference reading in ms: the geometric mean of three small loops.

    Each loop is timed twice back to back and the faster run kept. The slow
    speed state slows the three kinds of work by different factors (dict
    inserts ~1.6x, tuple arithmetic ~1.5x, Python calls ~1.9x on the tuning
    machine), and the package mixes all three, so one loop alone over- or
    under-corrects some workloads.
    """
    product = 1.0
    for loop in REF_LOOPS:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            loop()
            best = min(best, time.perf_counter() - t0)
        product *= best * 1e3
    return product ** (1 / len(REF_LOOPS))


def _to_call(q):
    """Turn one plain query into (module, function name, args)."""
    from kostant.weights import RootInterval, Weight

    kind = q[0]
    if kind in ("alt_brute", "qmult_full"):
        r, lam, mu = q[1:]
        args = (r, Weight(r, lam), Weight(r, mu))
        if kind == "alt_brute":
            import kostant.alternation

            return kostant.alternation, "alt_set_bruteforce", args
        import kostant.multiplicity

        return kostant.multiplicity, "q_multiplicity", args + ("kwmf_full",)
    if kind == "closed":
        import kostant.multiplicity

        return kostant.multiplicity, "q_multiplicity_closed", (RootInterval(*q[1:]),)
    if kind == "kostant_q":
        import kostant.partition

        r, coords = q[1:]
        return kostant.partition, "kostant_q", (r, Weight(r, coords))
    if kind == "cli":
        import kostant.cli

        return kostant.cli, "run", (list(q[1]),)
    raise ValueError(f"unknown query kind {kind!r}")


def _digest(kind, value):
    """Reduce a returned value to plain JSON data for the parent to check."""
    if kind == "alt_brute":
        return sorted(list(s.perm) for s in value.elements)
    if kind == "qmult_full":
        return [list(value.q_multiplicity.coeffs), value.term_count]
    if kind in ("closed", "kostant_q"):
        return list(value.coeffs)
    raise ValueError(f"unknown query kind {kind!r}")


def run_query(q, fn_ref, capacity_error):
    """Run one query; return (raw seconds, outcome).

    The outcome is ["ok", digest], ["refused", message] for a CapacityError,
    or ["error", message] for any other exception. A CLI call's outcome is
    ["ok", [exit code, stdout]], reduced later by cli_digest.
    """
    module, name, args = fn_ref
    fn = getattr(module, name)  # looked up per call, so tracing wrappers are seen
    if q[0] == "cli":
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = fn(*args)
        except Exception as exc:  # a traceback out of cli.run is a wrong answer
            return time.perf_counter() - t0, ["error", f"{type(exc).__name__}: {exc}"]
        return time.perf_counter() - t0, ["ok", [code, out.getvalue()]]
    t0 = time.perf_counter()
    try:
        value = fn(*args)
    except capacity_error as exc:
        return time.perf_counter() - t0, ["refused", str(exc)[:200]]
    except Exception as exc:
        return time.perf_counter() - t0, ["error", f"{type(exc).__name__}: {exc}"[:200]]
    return time.perf_counter() - t0, ["ok", _digest(q[0], value)]


def cli_digest(argv, code, text):
    """The parts of a CLI answer the parent checks, parsed from its stdout."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
    if code != 0:
        return [code, None]
    if fmt == "json":
        doc = json.loads(text)
        result = doc["result"]
        if argv[0] == "alt-set":
            words = sorted(tuple(w) for w in result["sets"]["theorem"]["elements"])
            body = {"count": result["sets"]["theorem"]["count"],
                    "predicted": result["predicted_count"], "words": hash_words(words)}
        elif argv[0] == "qmult":
            body = {name: r["coeffs"] for name, r in result["routes"].items()}
        else:
            body = {"dp": result["dp"]["coeffs"]}
        return [code, {"verdict": doc["verdict"], "body": body}]
    lines = text.rstrip("\n").split("\n")
    if fmt == "csv":
        rows = list(csv.reader(lines[1:]))
        if argv[0] == "alt-set":
            words = sorted(tuple(int(x) for x in row[1].split()) for row in rows)
            return [code, {"rows": len(rows), "words": hash_words(words)}]
        if argv[0] == "qmult":
            return [code, {row[0]: [int(x) for x in row[-1].split()] for row in rows}]
        return [code, {"dp": [int(x) for x in rows[0][-1].split()]}]
    if argv[0] == "alt-set":
        counts = [int(line.split()[1]) for line in lines if line.startswith("theorem:")]
        predicted = [int(line.split()[-1]) for line in lines
                     if line.startswith("predicted count:")]
        return [code, {"count": counts, "predicted": predicted, "lines": len(lines)}]
    if argv[0] == "qmult":
        routes = [line.split(None, 1) for line in lines[1:] if not line.startswith("verdict")]
        return [code, {name: rest.split("   at q=1:")[0] for name, rest in routes}]
    return [code, {"count": int(lines[1].split()[-1])}]


def hash_words(words):
    """A short stable fingerprint of a sorted list of reduced words."""
    return hashlib.sha256(json.dumps([list(w) for w in words]).encode()).hexdigest()[:16]


def timed_pass(qs, calls, capacity_error):
    """Run every query once, in slices bracketed by reference timings."""
    raw = [0.0] * len(qs)
    scaled = [0.0] * len(qs)
    outcomes = [None] * len(qs)
    refs = [ref_ms()]
    k = 0
    while k < len(qs):
        start = k
        t_slice = time.perf_counter()
        while k < len(qs) and (k == start or time.perf_counter() - t_slice < SLICE_S):
            raw[k], outcome = run_query(qs[k], calls[k], capacity_error)
            if qs[k][0] == "cli" and outcome[0] == "ok":
                try:
                    outcome = ["ok", cli_digest(qs[k][1], *outcome[1])]
                except (ValueError, KeyError, IndexError, TypeError, AttributeError,
                        csv.Error) as exc:
                    outcome = ["error", f"unparsable output: {type(exc).__name__}: {exc}"]
            outcomes[k] = outcome
            k += 1
        refs.append(ref_ms())
        factor = NOMINAL_REF_MS / ((refs[-2] + refs[-1]) / 2)
        for m in range(start, k):
            scaled[m] = raw[m] * factor
    return raw, scaled, outcomes, refs


def batch_samples(times, batch):
    """Sum consecutive query times into samples of `batch` queries (ms)."""
    batch = min(batch, len(times))
    return [sum(times[k:k + batch]) * 1e3 for k in range(0, len(times) - batch + 1, batch)]


def main(argv):
    workload, seed, trace, tiny = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    spans_out = argv[4] if len(argv) > 4 else None
    sys.path.insert(0, str(SRC))

    ref_before = ref_ms()
    t0 = time.perf_counter()
    import kostant  # noqa: F401  (the import is part of set-up time)

    qs = workloads.queries(workload, seed, tiny)
    calls = [_to_call(q) for q in qs]
    setup_raw = time.perf_counter() - t0
    setup_scaled = setup_raw * NOMINAL_REF_MS / ((ref_before + ref_ms()) / 2)

    from kostant.errors import CapacityError

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    t_pass = time.perf_counter()
    try:
        raw, scaled, outcomes, refs = timed_pass(qs, calls, CapacityError)
    finally:
        if tracer is not None:
            tracer.uninstall()
    pass_s = time.perf_counter() - t_pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    batch = workloads.QUERY_BATCH[workload]
    result = {
        "setup_raw_s": setup_raw,
        "setup_s": setup_scaled,
        "wall_raw_s": sum(raw),
        "wall_s": sum(scaled),
        "pass_s": pass_s,
        "query_ms": batch_samples(scaled, batch),
        "refs_ms": [ref_before] + refs,
        "peak_rss_mb": peak_rss_mb,
        "outcomes": outcomes,
    }
    if tracer is not None:
        factor = sum(scaled) / sum(raw) if sum(raw) else 1.0
        result["layers"] = tracer.summary(factor)
        result["missing"] = tracer.missing
        if spans_out:
            tracer.write(spans_out)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
