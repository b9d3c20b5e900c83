"""End-to-end verification harness.

Each criterion re-derives one advertised guarantee from scratch. A check
returns a one-line detail of what it covered, or raises ``CriterionFailed``
with the detail of the first mismatch; it knows neither its own name nor
its timing, and never signals failure with ``assert`` (which ``python -O``
strips). ``run_all`` owns the names, times each check and yields one
``CriterionResult`` as each check returns: a return passes with its detail,
a ``CriterionFailed`` fails with its message, and any other exception fails
with its repr. It writes nothing; the CLI ``verify`` subcommand renders the
results, and it and the acceptance test module both route through the
functions here, so the entry points cannot drift apart.

``run_all`` takes one knob, ``max_closed_rank``, which bounds the
closed-form route. Every other criterion takes no arguments and runs at
one fixed size, the largest its guarantee is advertised at.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import product
from math import comb
from typing import Iterator

from .alternation import (
    alt_cardinality,
    alt_set_characterized,
    pruned_survivors,
    side_tally,
    sides,
)
from .combinatorics import (
    fibonacci,
    nonconsecutive_count_k,
    nonconsecutive_subsets,
)
from .multiplicity import (
    closed_form_term,
    predicted_q_multiplicity,
    q_multiplicity,
    q_multiplicity_closed,
)
from .partition import QPolynomial, kostant_q, kostant_q_oracle
from .weights import Value, Weight, RootInterval, highest_root, interval_root, zero_weight
from .weyl import shifted_action

DEFAULT_CLOSED_RANK = 60
_A5_SEED = 21001  # the oracle check's A5 sample is the same on every run


class CriterionFailed(Exception):
    """A criterion found a mismatch; the message is the detail of its FAIL line."""


class CriterionResult(Value):
    __slots__ = _fields = ("name", "passed", "detail", "seconds")

    def __init__(self, name: str, passed: bool, detail: str, seconds: float):
        self._fill(name, passed, detail, seconds)


def _intervals(rank):
    for i in range(1, rank + 1):
        for j in range(i, rank + 1):
            yield RootInterval(rank, i, j)


def check_alt_sets_agree() -> str:
    """The sign test over the whole group, by the pruned search, and the description agree."""
    checked = 0
    for r in range(1, 15):
        lam = highest_root(r)
        for iv in _intervals(r):
            brute = {sigma.perm for sigma, _ in pruned_survivors(lam, interval_root(iv))}
            if brute != {sigma.perm for sigma in alt_set_characterized(iv).elements}:
                raise CriterionFailed(f"sets differ at {iv}")
            checked += 1
    return f"{checked} interval sets equal through rank 14"


def check_cardinality_fibonacci() -> str:
    """Generated set sizes equal the two-sided Fibonacci product."""
    checked = largest = 0
    for r in range(1, 17):
        for iv in _intervals(r):
            n, closed = len(alt_set_characterized(iv)), alt_cardinality(iv)
            want = fibonacci(iv.i) * fibonacci(r - iv.j + 1)
            if n != want or n != closed:
                raise CriterionFailed(f"{iv}: built {n}, F_i * F_(r-j+1) {want}, closed {closed}")
            checked += 1
            largest = max(largest, n)
    return f"{checked} intervals through rank 16, largest set {largest}"


def check_power_of_q_full() -> str:
    """Full alternating sum lands on a single power of q for interval weights."""
    checked = 0
    for r in range(1, 13):
        lam = highest_root(r)
        for iv in _intervals(r):
            rep = q_multiplicity(r, lam, interval_root(iv))
            if rep.q_multiplicity != predicted_q_multiplicity(iv):
                raise CriterionFailed(f"{iv}: got {rep.q_multiplicity.pretty()}")
            checked += 1
    return f"{checked} intervals through rank 12"


def check_power_of_q_closed(max_rank: int = DEFAULT_CLOSED_RANK) -> str:
    """Grouped closed-form route lands on the same single power of q."""
    checked = 0
    for r in range(1, max_rank + 1):
        for iv in _intervals(r):
            if q_multiplicity_closed(iv) != predicted_q_multiplicity(iv):
                raise CriterionFailed(f"{iv}: closed route disagrees")
            checked += 1
    return f"{checked} intervals through rank {max_rank}"


def check_multiplicity_one() -> str:
    """Interval weights carry multiplicity 1, and so does every reflected image.

    The intervals are read off the closed route at q = 1, the paper's
    corollary; the images go through the full sum. The Weyl orbit of an
    interval root is the set of all r(r+1) roots of A_r, so the images are
    listed directly as the +-interval roots.
    """
    intervals = 0
    for r in range(1, 13):
        for iv in _intervals(r):
            if q_multiplicity_closed(iv).evaluate(1) != 1:
                raise CriterionFailed(f"{iv}: multiplicity != 1")
            intervals += 1
    images = 0
    for r in range(1, 11):
        lam = highest_root(r)
        for iv in _intervals(r):
            for img in (interval_root(iv), -interval_root(iv)):
                rep = q_multiplicity(r, lam, img)
                if rep.q_multiplicity.evaluate(1) != 1:
                    raise CriterionFailed(f"rank {r} image {img.coords}: multiplicity != 1")
                images += 1
    return f"{intervals} intervals (rank <= 12), {images} distinct images (rank <= 10)"


def check_interval_partition_closed() -> str:
    """Partition polynomial of an interval root is q(1+q)^(height-1), any offset."""
    checked = 0
    for r in range(1, 11):
        for iv in _intervals(r):
            s = iv.height
            expect = QPolynomial((0,) + tuple(comb(s - 1, y) for y in range(s)))
            got = kostant_q(r, interval_root(iv))
            if got != expect:
                raise CriterionFailed(f"{iv}: got {got.pretty()}")
            checked += 1
    return f"{checked} interval roots through rank 10"


def check_per_element_terms() -> str:
    """Per-element closed form equals the partition DP on the shifted image."""
    terms = 0
    for r in range(1, 10):
        lam = highest_root(r)
        for iv in _intervals(r):
            mu = interval_root(iv)
            for sigma in alt_set_characterized(iv):
                direct = kostant_q(r, shifted_action(sigma, lam) - mu)
                if closed_form_term(iv, sigma) != direct:
                    raise CriterionFailed(f"{iv}, word {sigma.reduced_word()}: mismatch")
                terms += 1
    return f"{terms} terms through rank 9"


def check_dp_vs_oracle() -> str:
    """Memoized DP equals the naive part-by-part enumeration oracle."""
    exhaustive = 0
    for coords in product(range(3), repeat=4):
        w = Weight(4, coords)
        if kostant_q(4, w) != kostant_q_oracle(4, w):
            raise CriterionFailed(f"A4 {coords}: DP != oracle")
        exhaustive += 1
    rng = random.Random(_A5_SEED)
    sampled = 0
    for _ in range(200):
        coords = tuple(rng.randint(0, 3) for _ in range(5))
        w = Weight(5, coords)
        if kostant_q(5, w) != kostant_q_oracle(5, w):
            raise CriterionFailed(f"A5 {coords}: DP != oracle")
        sampled += 1
    return f"{exhaustive} exhaustive A4 weights, {sampled} sampled A5 weights (seed {_A5_SEED})"


def check_fibonacci_identity() -> str:
    """Binomial sum hits the Fibonacci numbers; enumeration sizes agree."""
    for n in range(31):
        if sum(nonconsecutive_count_k(n, k) for k in range(n + 2)) != fibonacci(n + 2):
            raise CriterionFailed(f"identity fails at n={n}")
    for n in range(17):
        subsets = nonconsecutive_subsets(n)
        if len(subsets) != fibonacci(n + 2):
            raise CriterionFailed(f"enumeration size wrong at n={n}")
        for k in range(n + 2):
            if sum(1 for s in subsets if len(s) == k) != nonconsecutive_count_k(n, k):
                raise CriterionFailed(f"size-{k} count wrong at n={n}")
    return "identity n <= 30, enumeration n <= 16"


def check_boundary_length_counts() -> str:
    """The one side's tally by length and boundary letter matches direct filtering of the sets."""
    checked = 0
    for r in range(2, 15):
        ivs = [RootInterval(r, 1, j) for j in range(1, r)]
        ivs += [RootInterval(r, i, r) for i in range(2, r + 1)]
        for iv in ivs:
            (side,) = (s for s in sides(iv) if s.boundary is not None)
            words = [sigma.reduced_word() for sigma in alt_set_characterized(iv)]
            direct = Counter((len(w), side.boundary in w) for w in words)
            counts = {(length, has): count for length, has, count in side_tally(side)}
            if counts != direct:
                raise CriterionFailed(f"{iv}: side tally {counts} != direct {dict(direct)}")
            if sum(counts.values()) != alt_cardinality(iv):
                raise CriterionFailed(f"{iv}: totals miss the cardinality")
            checked += 1
    return f"{checked} one-sided intervals through rank 14"


def check_zero_weight_sum() -> str:
    """Zero-weight q-multiplicity of the highest root is q + q^2 + ... + q^r."""
    for r in range(1, 11):
        rep = q_multiplicity(r, highest_root(r), zero_weight(r))
        if rep.q_multiplicity != QPolynomial((0,) + (1,) * r):
            raise CriterionFailed(f"rank {r}: got {rep.q_multiplicity.pretty()}")
    return "ranks 1..10"


def run_all(max_closed_rank: int = DEFAULT_CLOSED_RANK) -> Iterator[CriterionResult]:
    """Run every criterion in order, yielding each result as its check returns."""
    checks = [
        ("alternation-brute-vs-characterized", check_alt_sets_agree),
        ("alternation-cardinality-fibonacci", check_cardinality_fibonacci),
        ("qmult-power-of-q-full-sum", check_power_of_q_full),
        ("qmult-power-of-q-closed-form", lambda: check_power_of_q_closed(max_closed_rank)),
        ("multiplicity-one-at-q1", check_multiplicity_one),
        ("interval-root-partition-closed-form", check_interval_partition_closed),
        ("per-element-terms-match-dp", check_per_element_terms),
        ("partition-dp-vs-oracle", check_dp_vs_oracle),
        ("fibonacci-binomial-identity", check_fibonacci_identity),
        ("boundary-letter-length-counts", check_boundary_length_counts),
        ("zero-weight-qmult-sum", check_zero_weight_sum),
    ]
    for name, check in checks:
        t0 = time.perf_counter()
        try:
            passed, detail = True, check()
        except CriterionFailed as exc:
            passed, detail = False, str(exc)
        except Exception as exc:  # report the crash as a failed result, keep going
            passed, detail = False, repr(exc)
        yield CriterionResult(name, passed, detail, time.perf_counter() - t0)
