"""End-to-end verification harness.

Each criterion re-derives one advertised guarantee from scratch and reports
a single pass/fail line. ``run_all`` executes every criterion in a fixed
order; the CLI ``verify`` subcommand and the acceptance test module both
route through the functions here, so the three entry points cannot drift
apart.

Rank bounds default to the largest sizes the guarantees are advertised at.
The two knobs that matter for runtime are ``max_brute_rank`` (everything
that sums over the full symmetric group) and ``max_closed_rank`` (the
closed-form route, which never enumerates the group).
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from itertools import product

from .alternation import (
    alt_cardinality,
    alt_set_bruteforce,
    alt_set_characterized,
    count_by_length,
    max_length,
)
from .combinatorics import (
    fib_identity_check,
    fibonacci,
    nonconsecutive_count_k,
    nonconsecutive_subsets,
)
from .multiplicity import (
    closed_form_term,
    multiplicity_at_one,
    predicted_q_multiplicity,
    q_multiplicity,
    q_multiplicity_closed,
)
from .partition import QPolynomial, consecutive_closed_form, kostant_q, kostant_q_oracle
from .weights import Weight, RootInterval, highest_root, interval_root, zero_weight
from .weyl import apply, enumerate_all, shifted_action

DEFAULT_SEED = 21001
DEFAULT_BRUTE_RANK = 7
DEFAULT_CLOSED_RANK = 60


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def format_line(res: CriterionResult) -> str:
    mark = "PASS" if res.passed else "FAIL"
    return f"{mark}  {res.name:<36} {res.seconds:7.2f}s  {res.detail}"


def _intervals(rank):
    for i in range(1, rank + 1):
        for j in range(i, rank + 1):
            yield RootInterval(rank, i, j)


def check_alt_sets_agree(max_rank: int = DEFAULT_BRUTE_RANK) -> CriterionResult:
    """Brute-force membership filter and the generated description coincide."""
    t0 = time.perf_counter()
    checked = 0
    for r in range(1, max_rank + 1):
        lam = highest_root(r)
        for iv in _intervals(r):
            brute = alt_set_bruteforce(r, lam, interval_root(iv), max_rank=max_rank)
            gen = alt_set_characterized(iv)
            if brute.elements != gen.elements:
                return CriterionResult(
                    "alternation-brute-vs-characterized",
                    False,
                    f"sets differ at {iv}",
                    time.perf_counter() - t0,
                )
            checked += 1
    return CriterionResult(
        "alternation-brute-vs-characterized",
        True,
        f"{checked} interval sets equal through rank {max_rank}",
        time.perf_counter() - t0,
    )


def check_cardinality_fibonacci(max_rank: int = 16) -> CriterionResult:
    """Generated set sizes equal the two-sided Fibonacci product."""
    t0 = time.perf_counter()
    checked = largest = 0
    for r in range(1, max_rank + 1):
        for iv in _intervals(r):
            n = len(alt_set_characterized(iv))
            want = fibonacci(iv.i) * fibonacci(r - iv.j + 1)
            if n != want or n != alt_cardinality(iv):
                return CriterionResult(
                    "alternation-cardinality-fibonacci",
                    False,
                    f"{iv}: built {n}, expected {want}",
                    time.perf_counter() - t0,
                )
            checked += 1
            largest = max(largest, n)
    return CriterionResult(
        "alternation-cardinality-fibonacci",
        True,
        f"{checked} intervals through rank {max_rank}, largest set {largest}",
        time.perf_counter() - t0,
    )


def check_power_of_q_full(max_rank: int = DEFAULT_BRUTE_RANK) -> CriterionResult:
    """Full alternating sum lands on a single power of q for interval weights."""
    t0 = time.perf_counter()
    checked = 0
    for r in range(1, max_rank + 1):
        lam = highest_root(r)
        for iv in _intervals(r):
            rep = q_multiplicity(r, lam, interval_root(iv), "kwmf_full", max_rank=max_rank)
            if rep.q_multiplicity != predicted_q_multiplicity(iv):
                return CriterionResult(
                    "qmult-power-of-q-full-sum",
                    False,
                    f"{iv}: got {rep.q_multiplicity.pretty()}",
                    time.perf_counter() - t0,
                )
            checked += 1
    return CriterionResult(
        "qmult-power-of-q-full-sum",
        True,
        f"{checked} intervals through rank {max_rank}",
        time.perf_counter() - t0,
    )


def check_power_of_q_closed(max_rank: int = DEFAULT_CLOSED_RANK) -> CriterionResult:
    """Grouped closed-form route lands on the same single power of q."""
    t0 = time.perf_counter()
    checked = 0
    for r in range(1, max_rank + 1):
        for iv in _intervals(r):
            if q_multiplicity_closed(iv) != predicted_q_multiplicity(iv):
                return CriterionResult(
                    "qmult-power-of-q-closed-form",
                    False,
                    f"{iv}: closed route disagrees",
                    time.perf_counter() - t0,
                )
            checked += 1
    return CriterionResult(
        "qmult-power-of-q-closed-form",
        True,
        f"{checked} intervals through rank {max_rank}",
        time.perf_counter() - t0,
    )


def check_multiplicity_one(
    max_rank: int = DEFAULT_BRUTE_RANK, image_rank: int = 4
) -> CriterionResult:
    """Interval weights carry multiplicity 1, and so does every reflected image."""
    t0 = time.perf_counter()
    name = "multiplicity-one-at-q1"
    intervals = 0
    for r in range(1, max_rank + 1):
        lam = highest_root(r)
        for iv in _intervals(r):
            if multiplicity_at_one(r, lam, interval_root(iv), "kwmf_altset") != 1:
                return CriterionResult(
                    name, False, f"{iv}: multiplicity != 1", time.perf_counter() - t0
                )
            intervals += 1
    images = 0
    for r in range(1, min(image_rank, max_rank) + 1):
        lam = highest_root(r)
        seen: set[tuple[int, ...]] = set()
        for iv in _intervals(r):
            mu = interval_root(iv)
            for sigma in enumerate_all(r, max_rank=max_rank):
                img = apply(sigma, mu)
                if img.coords in seen:
                    continue
                seen.add(img.coords)
                if multiplicity_at_one(r, lam, img, "kwmf_full", max_rank=max_rank) != 1:
                    return CriterionResult(
                        name,
                        False,
                        f"rank {r} image {img.coords}: multiplicity != 1",
                        time.perf_counter() - t0,
                    )
                images += 1
    return CriterionResult(
        name,
        True,
        f"{intervals} intervals (rank <= {max_rank}), "
        f"{images} distinct images (rank <= {min(image_rank, max_rank)})",
        time.perf_counter() - t0,
    )


def check_interval_partition_closed(max_rank: int = 10) -> CriterionResult:
    """Partition polynomial of an interval root is q(1+q)^(height-1), any offset."""
    t0 = time.perf_counter()
    checked = 0
    q = QPolynomial.monomial(1)
    one_plus_q = QPolynomial((1, 1))
    for r in range(1, max_rank + 1):
        for iv in _intervals(r):
            s = iv.height
            expect = q
            for _ in range(s - 1):
                expect = expect * one_plus_q
            got = kostant_q(r, interval_root(iv))
            if got != expect or got != consecutive_closed_form(s):
                return CriterionResult(
                    "interval-root-partition-closed-form",
                    False,
                    f"{iv}: got {got.pretty()}",
                    time.perf_counter() - t0,
                )
            checked += 1
    return CriterionResult(
        "interval-root-partition-closed-form",
        True,
        f"{checked} interval roots through rank {max_rank}",
        time.perf_counter() - t0,
    )


def check_per_element_terms(max_rank: int = 9) -> CriterionResult:
    """Per-element closed form equals the partition DP on the shifted image."""
    t0 = time.perf_counter()
    terms = 0
    for r in range(1, max_rank + 1):
        lam = highest_root(r)
        for iv in _intervals(r):
            mu = interval_root(iv)
            for sigma in alt_set_characterized(iv):
                direct = kostant_q(r, shifted_action(sigma, lam) - mu)
                if closed_form_term(iv, sigma) != direct:
                    return CriterionResult(
                        "per-element-terms-match-dp",
                        False,
                        f"{iv}, word {sigma.reduced_word()}: mismatch",
                        time.perf_counter() - t0,
                    )
                terms += 1
    return CriterionResult(
        "per-element-terms-match-dp",
        True,
        f"{terms} terms through rank {max_rank}",
        time.perf_counter() - t0,
    )


def check_dp_vs_oracle(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Memoized DP equals the naive part-by-part enumeration oracle."""
    t0 = time.perf_counter()
    name = "partition-dp-vs-oracle"
    exhaustive = 0
    for coords in product(range(3), repeat=4):
        w = Weight(4, coords)
        if kostant_q(4, w) != kostant_q_oracle(4, w):
            return CriterionResult(
                name, False, f"A4 {coords}: DP != oracle", time.perf_counter() - t0
            )
        exhaustive += 1
    rng = random.Random(seed)
    sampled = 0
    for _ in range(200):
        coords = tuple(rng.randint(0, 3) for _ in range(5))
        w = Weight(5, coords)
        if kostant_q(5, w) != kostant_q_oracle(5, w):
            return CriterionResult(
                name, False, f"A5 {coords}: DP != oracle", time.perf_counter() - t0
            )
        sampled += 1
    return CriterionResult(
        name,
        True,
        f"{exhaustive} exhaustive A4 weights, {sampled} sampled A5 weights (seed {seed})",
        time.perf_counter() - t0,
    )


def check_fibonacci_identity(max_n: int = 30, enum_n: int = 16) -> CriterionResult:
    """Binomial sum hits the Fibonacci numbers; enumeration sizes agree."""
    t0 = time.perf_counter()
    name = "fibonacci-binomial-identity"
    for n in range(max_n + 1):
        if not fib_identity_check(n):
            return CriterionResult(
                name, False, f"identity fails at n={n}", time.perf_counter() - t0
            )
    for n in range(enum_n + 1):
        subsets = nonconsecutive_subsets(n)
        if len(subsets) != fibonacci(n + 2):
            return CriterionResult(
                name, False, f"enumeration size wrong at n={n}", time.perf_counter() - t0
            )
        for k in range(n + 2):
            if sum(1 for s in subsets if len(s) == k) != nonconsecutive_count_k(n, k):
                return CriterionResult(
                    name, False, f"size-{k} count wrong at n={n}", time.perf_counter() - t0
                )
    return CriterionResult(
        name,
        True,
        f"identity n <= {max_n}, enumeration n <= {enum_n}",
        time.perf_counter() - t0,
    )


def check_boundary_length_counts(max_rank: int = 14) -> CriterionResult:
    """Length-split counting formulas match direct filtering of the sets."""
    t0 = time.perf_counter()
    name = "boundary-letter-length-counts"
    checked = 0
    for r in range(2, max_rank + 1):
        sides = [(RootInterval(r, 1, j), "right_boundary", j + 1) for j in range(1, r)]
        sides += [(RootInterval(r, i, r), "left_boundary", i - 1) for i in range(2, r + 1)]
        for iv, side, boundary in sides:
            tallies: dict[tuple[bool, int], int] = {}
            for sigma in alt_set_characterized(iv):
                word = sigma.reduced_word()
                has = boundary in word
                key = (has, len(word) - (1 if has else 0))
                tallies[key] = tallies.get(key, 0) + 1
            for contains in (False, True):
                top = max_length(iv, side, contains)
                for k in range(top + 3):
                    want = tallies.get((contains, k), 0)
                    if count_by_length(iv, k, side, contains) != want:
                        return CriterionResult(
                            name,
                            False,
                            f"{iv} {side} contains={contains} k={k}",
                            time.perf_counter() - t0,
                        )
                if any(k > top for (has, k) in tallies if has == contains):
                    return CriterionResult(
                        name,
                        False,
                        f"{iv} {side}: element longer than the stated bound",
                        time.perf_counter() - t0,
                    )
            if sum(tallies.values()) != alt_cardinality(iv):
                return CriterionResult(
                    name, False, f"{iv}: totals miss the cardinality", time.perf_counter() - t0
                )
            checked += 1
    return CriterionResult(
        name,
        True,
        f"{checked} one-sided intervals through rank {max_rank}",
        time.perf_counter() - t0,
    )


def check_zero_weight_sum(max_rank: int = 6) -> CriterionResult:
    """Zero-weight q-multiplicity of the highest root is q + q^2 + ... + q^r."""
    t0 = time.perf_counter()
    for r in range(1, max_rank + 1):
        rep = q_multiplicity(r, highest_root(r), zero_weight(r), "kwmf_full", max_rank=max_rank)
        if rep.q_multiplicity != QPolynomial((0,) + (1,) * r):
            return CriterionResult(
                "zero-weight-qmult-sum",
                False,
                f"rank {r}: got {rep.q_multiplicity.pretty()}",
                time.perf_counter() - t0,
            )
    return CriterionResult(
        "zero-weight-qmult-sum",
        True,
        f"ranks 1..{max_rank}",
        time.perf_counter() - t0,
    )


def run_all(
    max_brute_rank: int = DEFAULT_BRUTE_RANK,
    max_closed_rank: int = DEFAULT_CLOSED_RANK,
    seed: int = DEFAULT_SEED,
    stream=None,
) -> list[CriterionResult]:
    """Run every criterion, print one line each, return the results in order."""
    out = stream if stream is not None else sys.stdout
    checks = [
        ("alternation-brute-vs-characterized", lambda: check_alt_sets_agree(max_brute_rank)),
        ("alternation-cardinality-fibonacci", check_cardinality_fibonacci),
        ("qmult-power-of-q-full-sum", lambda: check_power_of_q_full(max_brute_rank)),
        ("qmult-power-of-q-closed-form", lambda: check_power_of_q_closed(max_closed_rank)),
        ("multiplicity-one-at-q1", lambda: check_multiplicity_one(max_brute_rank)),
        ("interval-root-partition-closed-form", check_interval_partition_closed),
        ("per-element-terms-match-dp", check_per_element_terms),
        ("partition-dp-vs-oracle", lambda: check_dp_vs_oracle(seed)),
        ("fibonacci-binomial-identity", check_fibonacci_identity),
        ("boundary-letter-length-counts", check_boundary_length_counts),
        ("zero-weight-qmult-sum", lambda: check_zero_weight_sum(min(6, max_brute_rank))),
    ]
    results = []
    for name, check in checks:
        t0 = time.perf_counter()
        try:
            res = check()
        except Exception as exc:  # report the crash as a failed line, keep going
            res = CriterionResult(name, False, repr(exc), time.perf_counter() - t0)
        results.append(res)
        print(format_line(res), file=out)
    if all(r.passed for r in results):
        print(f"all {len(results)} criteria passed", file=out)
    else:
        failed = sum(1 for r in results if not r.passed)
        print(f"{failed} of {len(results)} criteria FAILED", file=out)
    return results
