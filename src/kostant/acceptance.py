"""End-to-end verification harness.

Each criterion re-derives one advertised guarantee from scratch. A check
returns a one-line detail of what it covered, or raises ``CriterionFailed``
with the detail of the first mismatch; it knows neither its own name nor
its timing, and never signals failure with ``assert`` (which ``python -O``
strips). ``run_all`` owns the names, times each check, turns a return into
a PASS line, a ``CriterionFailed`` into a FAIL line with its message, and
any other exception into a FAIL line with its repr. The CLI ``verify``
subcommand and the acceptance test module both route through the functions
here, so the entry points cannot drift apart.

Rank bounds default to the largest sizes the guarantees are advertised at.
``run_all`` takes two knobs, each bounding one criterion.
``max_brute_rank`` bounds brute vs characterized sets, which scans the full
symmetric group. It may not exceed the literal scan's rank cap of 8:
``run_all`` raises CapacityError for a larger value before any criterion
runs. ``max_closed_rank`` bounds the closed-form route. The other nine
criteria run at their function defaults, among them the pruned full-sum
power of q (rank 12), the zero-weight sum (rank 10) and multiplicity one
(intervals through rank 12, Weyl images through rank 10).
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
    one_side,
)
from .combinatorics import (
    fib_identity_check,
    fibonacci,
    nonconsecutive_count_k,
    nonconsecutive_subsets,
)
from .errors import DEFAULT_BRUTE_RANK_CAP, CapacityError
from .multiplicity import (
    closed_form_term,
    predicted_q_multiplicity,
    q_multiplicity,
    q_multiplicity_closed,
)
from .partition import QPolynomial, consecutive_closed_form, kostant_q, kostant_q_oracle
from .weights import Weight, RootInterval, highest_root, interval_root, zero_weight
from .weyl import shifted_action

DEFAULT_SEED = 21001
DEFAULT_BRUTE_RANK = 7
DEFAULT_CLOSED_RANK = 60


class CriterionFailed(Exception):
    """A criterion found a mismatch; the message is the detail of its FAIL line."""


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


def check_alt_sets_agree(max_rank: int = DEFAULT_BRUTE_RANK) -> str:
    """Brute-force membership filter and the generated description coincide."""
    checked = 0
    for r in range(1, max_rank + 1):
        lam = highest_root(r)
        for iv in _intervals(r):
            brute = alt_set_bruteforce(r, lam, interval_root(iv))
            if brute.elements != alt_set_characterized(iv).elements:
                raise CriterionFailed(f"sets differ at {iv}")
            checked += 1
    return f"{checked} interval sets equal through rank {max_rank}"


def check_cardinality_fibonacci(max_rank: int = 16) -> str:
    """Generated set sizes equal the two-sided Fibonacci product."""
    checked = largest = 0
    for r in range(1, max_rank + 1):
        for iv in _intervals(r):
            n = len(alt_set_characterized(iv))
            want = fibonacci(iv.i) * fibonacci(r - iv.j + 1)
            if n != want or n != alt_cardinality(iv):
                raise CriterionFailed(f"{iv}: built {n}, expected {want}")
            checked += 1
            largest = max(largest, n)
    return f"{checked} intervals through rank {max_rank}, largest set {largest}"


def check_power_of_q_full(max_rank: int = 12) -> str:
    """Full alternating sum lands on a single power of q for interval weights."""
    checked = 0
    for r in range(1, max_rank + 1):
        lam = highest_root(r)
        for iv in _intervals(r):
            rep = q_multiplicity(r, lam, interval_root(iv), "kwmf_full")
            if rep.q_multiplicity != predicted_q_multiplicity(iv):
                raise CriterionFailed(f"{iv}: got {rep.q_multiplicity.pretty()}")
            checked += 1
    return f"{checked} intervals through rank {max_rank}"


def check_power_of_q_closed(max_rank: int = DEFAULT_CLOSED_RANK) -> str:
    """Grouped closed-form route lands on the same single power of q."""
    checked = 0
    for r in range(1, max_rank + 1):
        for iv in _intervals(r):
            if q_multiplicity_closed(iv) != predicted_q_multiplicity(iv):
                raise CriterionFailed(f"{iv}: closed route disagrees")
            checked += 1
    return f"{checked} intervals through rank {max_rank}"


def check_multiplicity_one(max_rank: int = 12, image_rank: int = 10) -> str:
    """Interval weights carry multiplicity 1, and so does every reflected image.

    The Weyl orbit of an interval root is the set of all r(r+1) roots of A_r,
    so the images are listed directly as the +-interval roots.
    """
    intervals = 0
    for r in range(1, max_rank + 1):
        lam = highest_root(r)
        for iv in _intervals(r):
            if q_multiplicity(r, lam, interval_root(iv), "kwmf_altset").multiplicity_at_one != 1:
                raise CriterionFailed(f"{iv}: multiplicity != 1")
            intervals += 1
    images = 0
    for r in range(1, image_rank + 1):
        lam = highest_root(r)
        for iv in _intervals(r):
            for img in (interval_root(iv), -interval_root(iv)):
                rep = q_multiplicity(r, lam, img, "kwmf_full")
                if rep.multiplicity_at_one != 1:
                    raise CriterionFailed(f"rank {r} image {img.coords}: multiplicity != 1")
                images += 1
    return (
        f"{intervals} intervals (rank <= {max_rank}), {images} distinct images "
        f"(rank <= {image_rank})"
    )


def check_interval_partition_closed(max_rank: int = 10) -> str:
    """Partition polynomial of an interval root is q(1+q)^(height-1), any offset."""
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
                raise CriterionFailed(f"{iv}: got {got.pretty()}")
            checked += 1
    return f"{checked} interval roots through rank {max_rank}"


def check_per_element_terms(max_rank: int = 9) -> str:
    """Per-element closed form equals the partition DP on the shifted image."""
    terms = 0
    for r in range(1, max_rank + 1):
        lam = highest_root(r)
        for iv in _intervals(r):
            mu = interval_root(iv)
            for sigma in alt_set_characterized(iv):
                direct = kostant_q(r, shifted_action(sigma, lam) - mu)
                if closed_form_term(iv, sigma) != direct:
                    raise CriterionFailed(f"{iv}, word {sigma.reduced_word()}: mismatch")
                terms += 1
    return f"{terms} terms through rank {max_rank}"


def check_dp_vs_oracle(seed: int = DEFAULT_SEED) -> str:
    """Memoized DP equals the naive part-by-part enumeration oracle."""
    exhaustive = 0
    for coords in product(range(3), repeat=4):
        w = Weight(4, coords)
        if kostant_q(4, w) != kostant_q_oracle(4, w):
            raise CriterionFailed(f"A4 {coords}: DP != oracle")
        exhaustive += 1
    rng = random.Random(seed)
    sampled = 0
    for _ in range(200):
        coords = tuple(rng.randint(0, 3) for _ in range(5))
        w = Weight(5, coords)
        if kostant_q(5, w) != kostant_q_oracle(5, w):
            raise CriterionFailed(f"A5 {coords}: DP != oracle")
        sampled += 1
    return f"{exhaustive} exhaustive A4 weights, {sampled} sampled A5 weights (seed {seed})"


def check_fibonacci_identity(max_n: int = 30, enum_n: int = 16) -> str:
    """Binomial sum hits the Fibonacci numbers; enumeration sizes agree."""
    for n in range(max_n + 1):
        if not fib_identity_check(n):
            raise CriterionFailed(f"identity fails at n={n}")
    for n in range(enum_n + 1):
        subsets = nonconsecutive_subsets(n)
        if len(subsets) != fibonacci(n + 2):
            raise CriterionFailed(f"enumeration size wrong at n={n}")
        for k in range(n + 2):
            if sum(1 for s in subsets if len(s) == k) != nonconsecutive_count_k(n, k):
                raise CriterionFailed(f"size-{k} count wrong at n={n}")
    return f"identity n <= {max_n}, enumeration n <= {enum_n}"


def check_boundary_length_counts(max_rank: int = 14) -> str:
    """Length-split counting formulas match direct filtering of the sets."""
    checked = 0
    for r in range(2, max_rank + 1):
        ivs = [RootInterval(r, 1, j) for j in range(1, r)]
        ivs += [RootInterval(r, i, r) for i in range(2, r + 1)]
        for iv in ivs:
            boundary = one_side(iv).boundary
            tallies: dict[tuple[bool, int], int] = {}
            for sigma in alt_set_characterized(iv):
                word = sigma.reduced_word()
                has = boundary in word
                key = (has, len(word) - (1 if has else 0))
                tallies[key] = tallies.get(key, 0) + 1
            for contains in (False, True):
                top = max_length(iv, contains)
                for k in range(top + 3):
                    want = tallies.get((contains, k), 0)
                    if count_by_length(iv, k, contains) != want:
                        raise CriterionFailed(f"{iv} contains={contains} k={k}")
                if any(k > top for (has, k) in tallies if has == contains):
                    raise CriterionFailed(f"{iv}: element longer than the stated bound")
            if sum(tallies.values()) != alt_cardinality(iv):
                raise CriterionFailed(f"{iv}: totals miss the cardinality")
            checked += 1
    return f"{checked} one-sided intervals through rank {max_rank}"


def check_zero_weight_sum(max_rank: int = 10) -> str:
    """Zero-weight q-multiplicity of the highest root is q + q^2 + ... + q^r."""
    for r in range(1, max_rank + 1):
        rep = q_multiplicity(r, highest_root(r), zero_weight(r), "kwmf_full")
        if rep.q_multiplicity != QPolynomial((0,) + (1,) * r):
            raise CriterionFailed(f"rank {r}: got {rep.q_multiplicity.pretty()}")
    return f"ranks 1..{max_rank}"


def run_all(
    max_brute_rank: int = DEFAULT_BRUTE_RANK,
    max_closed_rank: int = DEFAULT_CLOSED_RANK,
    seed: int = DEFAULT_SEED,
    stream=None,
) -> list[CriterionResult]:
    """Run every criterion, print one line each, return the results in order.

    A max_brute_rank above the literal scan's rank cap raises CapacityError
    before any criterion runs.
    """
    if max_brute_rank > DEFAULT_BRUTE_RANK_CAP:
        raise CapacityError(
            f"a brute-force rank bound of {max_brute_rank} is above the literal scan's "
            f"rank cap of {DEFAULT_BRUTE_RANK_CAP}: the brute-vs-characterized criterion "
            f"scans all (rank+1)! elements at every rank up to it; no flag raises it"
        )
    out = stream if stream is not None else sys.stdout
    checks = [
        ("alternation-brute-vs-characterized", lambda: check_alt_sets_agree(max_brute_rank)),
        ("alternation-cardinality-fibonacci", check_cardinality_fibonacci),
        ("qmult-power-of-q-full-sum", check_power_of_q_full),
        ("qmult-power-of-q-closed-form", lambda: check_power_of_q_closed(max_closed_rank)),
        ("multiplicity-one-at-q1", check_multiplicity_one),
        ("interval-root-partition-closed-form", check_interval_partition_closed),
        ("per-element-terms-match-dp", check_per_element_terms),
        ("partition-dp-vs-oracle", lambda: check_dp_vs_oracle(seed)),
        ("fibonacci-binomial-identity", check_fibonacci_identity),
        ("boundary-letter-length-counts", check_boundary_length_counts),
        ("zero-weight-qmult-sum", check_zero_weight_sum),
    ]
    results = []
    for name, check in checks:
        t0 = time.perf_counter()
        try:
            passed, detail = True, check()
        except CriterionFailed as exc:
            passed, detail = False, str(exc)
        except Exception as exc:  # report the crash as a failed line, keep going
            passed, detail = False, repr(exc)
        res = CriterionResult(name, passed, detail, time.perf_counter() - t0)
        results.append(res)
        print(format_line(res), file=out)
    if all(r.passed for r in results):
        print(f"all {len(results)} criteria passed", file=out)
    else:
        failed = sum(1 for r in results if not r.passed)
        print(f"{failed} of {len(results)} criteria FAILED", file=out)
    return results
