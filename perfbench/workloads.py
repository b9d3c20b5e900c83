"""Seeded inputs for the four benchmark workloads.

Everything here is plain data (ints and tuples) and imports nothing from
the package, so the parent process can regenerate a session's queries to
check its answers. A query is a tuple whose first item names its kind:

    ("alt_brute", rank, lam, mu)     alternation.alt_set_bruteforce
    ("qmult_full", rank, lam, mu)    multiplicity.q_multiplicity, "kwmf_full"
    ("closed", rank, i, j)           multiplicity.q_multiplicity_closed
    ("kostant_q", rank, coords)      partition.kostant_q
    ("cli", argv, expected_exit)     cli.run

lam, mu and coords are coordinate tuples in the simple-root basis.

The seed changes the order of every stream and every drawn parameter, but
each workload holds a fixed number of queries of each kind at each rank, so
the work per pass hardly moves between seeds. No single call takes longer
than a few hundred ms, so each one sits inside one reference-timed slice;
that is why rank-7 full scans and 2-rho at rank 7 are left out.
"""

import random

WORKLOADS = ("group-scan", "closed-sweep", "partition-dp", "cli-mix")

# Consecutive queries timed as one sample for the query percentiles. A
# closed-sweep query is ~0.1 ms once the caches are warm, too short to time
# steadily one at a time. partition-dp queries are as short, but there
# batches of 5-50 made the percentiles move more with the seed (which
# queries share a batch) than single queries do (p50 ~0.1 ms, p90 ~1 ms).
QUERY_BATCH = {"group-scan": 1, "closed-sweep": 20, "partition-dp": 1, "cli-mix": 1}

# In cli-mix, qmult --method closed draws only intervals whose two side
# ground sets have at most this many letters. The closed route builds and
# keeps every nonconsecutive subset up to the largest ground set it meets
# (F_22 at 20 letters, 0.8 s and 60 MB at 25), so a larger limit would let
# the draw set the time and memory of a pass; closed-sweep measures that.
CLI_CLOSED_MAX_GROUND = 12


def _intervals(rank):
    return [(i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]


def _interval_coords(rank, i, j):
    return tuple(1 if i <= k <= j else 0 for k in range(1, rank + 1))


def _highest(rank):
    return (1,) * rank


def group_scan(rng, tiny=False):
    ranks = (3, 4) if tiny else (4, 5, 6)
    n_generic = 2 if tiny else 12
    generic_rank = 4 if tiny else 5
    pairs = []
    for r in ranks:
        lam = _highest(r)
        pairs += [(r, lam, _interval_coords(r, i, j)) for i, j in _intervals(r)]
        pairs.append((r, lam, (0,) * r))
    for _ in range(n_generic):
        r = generic_rank
        lam = tuple(rng.randint(1, 3) for _ in range(r))
        mu = tuple(rng.randint(0, 2) for _ in range(r))
        pairs.append((r, lam, mu))
    queries = [(kind,) + p for p in pairs for kind in ("alt_brute", "qmult_full")]
    rng.shuffle(queries)
    return queries


def closed_sweep(rng, tiny=False):
    if tiny:  # two ranks, plus the two rank-28 intervals that hit the cap
        queries = [("closed", r, i, j) for r in (12, 13) for i, j in _intervals(r)]
        queries += [("closed", 28, 1, 1), ("closed", 28, 28, 28)]
    else:
        queries = [("closed", r, i, j) for r in range(20, 35) for i, j in _intervals(r)]
    rng.shuffle(queries)
    return queries


def _verify_a5_sample(rng, n):
    # The recipe of verify's partition-dp-vs-oracle sample: A5, coords 0..3.
    return [(5, tuple(rng.randint(0, 3) for _ in range(5))) for _ in range(n)]


def _weight_of_height(rng, rank, height, top):
    """Random coords in 0..top summing to height, filled in a random order."""
    coords = [0] * rank
    slots = list(range(rank))
    rng.shuffle(slots)
    for done, k in enumerate(slots):
        left = rank - 1 - done
        coords[k] = rng.randint(max(0, height - top * left), min(top, height))
        height -= coords[k]
    return tuple(coords)


def partition_dp(rng, tiny=False):
    n_a5, n_pool, n_draws, a7_each = (10, 4, 12, 1) if tiny else (200, 40, 400, 160)
    queries = _verify_a5_sample(rng, n_a5)
    pool = [(6, tuple(rng.randint(0, 4) for _ in range(6))) for _ in range(n_pool)]
    queries += [rng.choice(pool) for _ in range(n_draws)]
    # Fresh A7 weights, coords 0..5, the same number at each height 8..24:
    # the DP's cost grows ~10x over that range, so leaving the heights to
    # chance would let the seed move the pass time and the percentiles.
    queries += [(7, _weight_of_height(rng, 7, h, 5)) for h in range(8, 25)
                for _ in range(a7_each)]
    for r in (3, 4) if tiny else (4, 5, 6):
        queries.append((r, tuple(k * (r + 1 - k) for k in range(1, r + 1))))
    queries += [(r, _highest(r)) for r in (range(30, 34) if tiny else range(30, 61))]
    queries = [("kostant_q",) + q for q in queries]
    rng.shuffle(queries)
    return queries


MALFORMED = (
    ("qmult", "--rank", "x", "--mu", "1..1"),
    ("alt-set", "--rank", "5", "--mu", "4..2"),
    ("alt-set", "--rank", "5", "--mu", "0"),
    ("partition", "--rank", "3", "--weight", "1,2"),
    ("qmult", "--rank", "4", "--mu", "0", "--method", "closed"),
    ("frobnicate",),
)

FORMATS = ("json", "csv", "table")


def _fmt(rng):
    return rng.choice(FORMATS)


def _cli(argv, expected=0):
    return ("cli", tuple(str(a) for a in argv), expected)


def cli_mix(rng, tiny=False):
    queries = []
    # alt-set --method theorem: one point interval per rank and format, [k, k]
    # or its mirror [r+1-k, r+1-k], k = 3, 4, 5 for json, csv, table. Both
    # have F_k * F_(r+1-k) elements, so the rendering work and peak memory of
    # a pass, which the largest sets decide, do not depend on the draw.
    for r in range(8, 11) if tiny else range(8, 21):
        for k, fmt in enumerate(FORMATS, start=3):
            i = rng.choice((k, r + 1 - k))
            queries.append(_cli(["alt-set", "--rank", r, "--mu", f"{i}..{i}", "--format", fmt]))
    # qmult --method closed, ranks 10-30. The two end intervals at ranks
    # 28-30 hit today's subset cap, which must show as failures.
    for r in (10, 28) if tiny else range(10, 31):
        ok = [
            (i, j)
            for i, j in _intervals(r)
            if max(i - 2, r - 1 - j) <= CLI_CLOSED_MAX_GROUND
        ]
        drawn = rng.sample(ok, 3)
        if r >= 28:
            drawn += [(1, 1), (r, r)]
        for i, j in drawn:
            queries.append(
                _cli(["qmult", "--rank", r, "--mu", f"{i}..{j}", "--method", "closed",
                      "--format", _fmt(rng)])
            )
    for r in (2, 3) if tiny else (2, 3, 4, 5):
        for i, j in rng.sample(_intervals(r), min(3, len(_intervals(r)))):
            queries.append(
                _cli(["qmult", "--rank", r, "--mu", f"{i}..{j}", "--method", "all",
                      "--format", _fmt(rng)])
            )
    for _ in range(4 if tiny else 12):
        r = rng.randint(3, 6)
        weight = ",".join(str(rng.randint(0, 3)) for _ in range(r))
        queries.append(_cli(["partition", "--rank", r, "--weight", weight, "--format", _fmt(rng)]))
    queries += [_cli(argv, 2) for argv in MALFORMED]
    rng.shuffle(queries)
    # Keep the seeded positions, but let the alt-set calls take them in
    # order of rank and format: the peak RSS of a pass depends on the order of its
    # largest renders (freed arenas are reused or not), not just on them.
    slots = [k for k, q in enumerate(queries) if q[1][0] == "alt-set" and q[2] == 0]
    ordered = sorted((queries[k] for k in slots),
                     key=lambda q: (int(q[1][2]), FORMATS.index(q[1][-1])))
    for k, q in zip(slots, ordered):
        queries[k] = q
    return queries


_BUILDERS = {
    "group-scan": group_scan,
    "closed-sweep": closed_sweep,
    "partition-dp": partition_dp,
    "cli-mix": cli_mix,
}


def queries(workload, seed, tiny=False):
    """The query stream of one workload pass; the same seed gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), tiny)
