"""Fibonacci numbers and nonconsecutive-subset counts.

Conventions: Fibonacci numbers are 1-indexed with F_1 = F_2 = 1 (there is no
F_0 here; asking for it is an error). A subset S of {1, ..., n} is
*nonconsecutive* when no two of its elements differ by 1. There are F_{n+2}
such subsets in total and C(n+1-k, k) of cardinality k, where the binomial
is the zero-padded one below. Subsets are generated fresh on each call;
no list of them stays resident.
"""

import math
from itertools import combinations
from operator import add

from .errors import DEFAULT_SUBSET_GROUND_CAP, CapacityError

# Grows on demand; _FIB[n-1] == F_n.
_FIB = [1, 1]


def fibonacci(n: int) -> int:
    """Return F_n with F_1 = F_2 = 1. n must be a positive integer."""
    if n < 1:
        raise ValueError(f"fibonacci is 1-indexed with F_1 = F_2 = 1; got n={n}")
    while len(_FIB) < n:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return _FIB[n - 1]


def binomial_safe(n: int, k: int) -> int:
    """C(n, k), defined as 0 whenever k < 0, n < 0, or k > n.

    In particular C(n, 0) = 1 only for n >= 0. The length-count formulas in
    the alternation module rely on this zero-padding to vanish exactly when
    a support condition is unsatisfiable.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def nonconsecutive_subsets(n: int) -> list[tuple[int, ...]]:
    """All nonconsecutive subsets of {1, ..., n}, ordered by (size, lexicographic).

    n = 0 yields just the empty subset. Each size k comes from the shift
    bijection x_t = y_t + t (t = 0, 1, ...) applied to the k-subsets y of
    {1, ..., n-k+1}, which itertools.combinations lists in lexicographic
    order; the shift keeps that order, so nothing is sorted, and nothing is
    cached between calls. Because the result is materialized, the ground
    set is capped at 25 (at most F_27 = 196418 subsets), the same fixed cap
    that bounds each side of a characterized alternation set.
    """
    if n < 0:
        raise ValueError(f"ground set size must be >= 0, got {n}")
    if n > DEFAULT_SUBSET_GROUND_CAP:
        raise CapacityError(
            f"nonconsecutive_subsets asked for ground set of size {n}, "
            f"more than the fixed cap of {DEFAULT_SUBSET_GROUND_CAP}"
        )
    return [
        tuple(map(add, ys, range(k)))
        for k in range((n + 1) // 2 + 1)
        for ys in combinations(range(1, n - k + 2), k)
    ]


def nonconsecutive_count_k(n: int, k: int) -> int:
    """Number of nonconsecutive k-subsets of {1, ..., n}: C(n+1-k, k)."""
    return binomial_safe(n + 1 - k, k)


def fib_identity_check(n: int) -> bool:
    """Verify sum_k C(n+1-k, k) == F_{n+2} for one n by direct evaluation."""
    if n < 0:
        raise ValueError(f"identity is stated for n >= 0, got {n}")
    total = sum(nonconsecutive_count_k(n, k) for k in range(n + 2))
    return total == fibonacci(n + 2)
