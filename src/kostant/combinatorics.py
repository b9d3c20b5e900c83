"""Fibonacci numbers and nonconsecutive-subset counts.

Conventions: Fibonacci numbers are 1-indexed with F_1 = F_2 = 1 (there is no
F_0 here; asking for it is an error). A subset S of {1, ..., n} is
*nonconsecutive* when no two of its elements differ by 1. There are
F_{n+2} such subsets in total and C(n+1-k, k) of cardinality k. Nothing
here keeps a table or a list between calls: each value is computed when
asked for.
"""

import math

from .errors import DEFAULT_SUBSET_GROUND_CAP, CapacityError


def fibonacci(n: int) -> int:
    """Return F_n with F_1 = F_2 = 1. n must be a positive integer.

    F_n is computed by fast doubling, F_2k = F_k (2 F_(k+1) - F_k) and
    F_(2k+1) = F_k^2 + F_(k+1)^2, over the bits of n, and nothing of it
    is kept, so a long-lived process holds the same few kilobytes whatever
    it asks for.
    """
    if n < 1:
        raise ValueError(f"fibonacci is 1-indexed with F_1 = F_2 = 1; got n={n}")
    a, b = 0, 1  # F_k, F_(k+1) for k the leading bits of n read so far
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def nonconsecutive_choices(letters: range, take=lambda x: (x,), skip=None, ends=((), ())) -> list:
    """Every nonconsecutive subset of a range of letters, each increasing, in post-order.

    In the tree of the choices a child adds one letter at least two above
    its parent's last; post-order puts each choice after its extensions,
    so it sorts them by choice + (x,) for any x above the letters, and
    within one size lexicographically. The choices from x on are x then a
    choice from x + 2 on, then those from x + 1 on, so a Fibonacci
    recurrence builds each choice once.

    The same recurrence folds any value of the choices that is a piece for
    the first letter joined by + to the value of the rest, in the same
    order: a choice from x on that takes x has take(x) + the value of its
    tail from x + 2 on, and one that skips x has skip(x) + the value of
    the choice from x + 1 on (the value itself when skip is None). `ends`
    holds the empty choice's values from two and from one past the last
    letter. By default the value is the choice: take(x) = (x,), no skip
    piece and ends ((), ()).
    """
    after, choices = [ends[0]], [ends[1]]  # the values of the choices from x + 2 on and from x + 1 on
    for x in reversed(letters):
        piece = take(x)
        taken = [piece + c for c in after]
        after = choices
        if skip is not None:
            piece = skip(x)
            choices = [piece + c for c in choices]
        choices = taken + choices
    return choices


def nonconsecutive_subsets(n: int) -> list[tuple[int, ...]]:
    """All nonconsecutive subsets of {1, ..., n}, ordered by (size, lexicographic).

    n = 0 yields just the empty subset. They are `nonconsecutive_choices`
    of 1..n, stably sorted by size. Because the result is materialized,
    the ground set is capped at 25 (at most F_27 = 196418 subsets), the
    same fixed cap that bounds each side of a characterized alternation set.
    """
    if n < 0:
        raise ValueError(f"ground set size must be >= 0, got {n}")
    if n > DEFAULT_SUBSET_GROUND_CAP:
        raise CapacityError(
            f"nonconsecutive_subsets asked for ground set of size {n}, "
            f"more than the fixed cap of {DEFAULT_SUBSET_GROUND_CAP}"
        )
    return sorted(nonconsecutive_choices(range(1, n + 1)), key=len)


def nonconsecutive_count_k(n: int, k: int) -> int:
    """Number of nonconsecutive k-subsets of {1, ..., n}: C(n+1-k, k).

    The binomial is zero-padded: 0 when k < 0 or n + 1 - k < 0, so the
    count is 1 at (n, k) = (-1, 0) and 0 at (-2, 0). `alternation.side_tally`
    relies on that padding to count a side's choices with and without its
    boundary letter, down to a side with no free letters.
    """
    if k < 0 or n + 1 - k < 0:
        return 0
    return math.comb(n + 1 - k, k)
