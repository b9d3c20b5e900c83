"""Weyl alternation sets for A_r and their Fibonacci structure.

The alternation set A(lam, mu) collects the Weyl group elements sigma whose
shifted image sigma(lam + rho) - rho - mu still admits a decomposition into
positive roots, i.e. contributes a nonzero term to the alternating weight
multiplicity sum. Two constructions are provided:

* `alt_set_bruteforce` scans every group element. In type A a weight has a
  partition into positive roots exactly when its simple-root coordinates
  are all nonnegative, so membership is that sign test, run by
  `survivors` in one plain loop: one shifted action per element, and a
  tuple built only for a survivor's xi. It works for any lam and mu up to
  a fixed rank cap of 8. It stays a literal scan on purpose: it is the
  reference for `pruned_survivors`, the one search entry, which finds the
  same members by a search that drops a branch as soon as one coordinate
  goes negative and is bounded by a fixed budget of visited nodes, not by
  rank. It refuses before it builds anything, for every caller: the full
  alternating sum, `alt-set --method brute|both` and verify.

* `alt_set_characterized` is specific to lam = highest root and mu an
  interval root [i, j]: there the set consists exactly of the products of
  pairwise nonconsecutive generators drawn from {2..i-1} and {j+1..r-1}.
  Nonconsecutive subsets of an n-set are Fibonacci-counted, so the set has
  exactly F_i * F_{r-j+1} elements and is cheap to generate at ranks far
  beyond brute force reach. The set is described once, by its two
  `sides`: `characterized_sides` builds each side's words once from its
  free letters (`nonconsecutive_choices`), in post-order, and a product's
  word is a left word then a right one, from which
  `from_nonconsecutive_letters` builds its element and checks the gaps
  that make the word reduced. The set is refused with CapacityError,
  before anything is built, past F_27 = 196,418 elements, the most one
  side of 25 free letters gives (at rank 30, [15, 15] has 602,070); so it
  also bounds each side.

`sides` describes the theorem's two sides once: each side's free letter
range and its boundary letter. `side_tally` counts a side's choices by
length and boundary letter, by binomials. The generated set and the
closed route in `multiplicity` read only these two.
"""

from collections import namedtuple
from heapq import nlargest
from operator import ge, sub
from typing import Iterator

from .combinatorics import fibonacci, nonconsecutive_choices, nonconsecutive_count_k
from .errors import DEFAULT_SUBSET_GROUND_CAP, SEARCH_NODE_BUDGET, CapacityError
from .weights import (
    RootInterval,
    Value,
    Weight,
    highest_root,
    interval_root,
)
from .weyl import (
    WeylElement,
    _element,
    _rho_shifted,
    enumerate_all,
    from_nonconsecutive_letters,
    shifted_action,
)

# How many elements of a characterized set get their membership re-verified
# by the brute-force sign test at construction time.
_SPOT_CHECK = 8

Factor = tuple[int, ...]  # a side's factor of a characterized product: its reduced word


class AlternationSet(Value):
    """The elements sigma with a nonzero partition count after the shifted action.

    `elements` is a frozenset of WeylElements. Iterating the set sorts them
    by length and then by reduced word, each time, so two constructions of
    one set compare equal and iterate alike, and a set that is never
    iterated never computes a reduced word.
    """

    _fields = ("rank", "lam", "mu", "elements")
    __slots__ = _fields

    def __init__(self, rank: int, lam: Weight, mu: Weight, elements: frozenset[WeylElement]):
        self._fill(rank, lam, mu, elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, sigma) -> bool:
        return sigma in self.elements

    def __iter__(self):
        return iter(sorted(self.elements, key=lambda s: (s.length, s.reduced_word())))


def survivors(lam: Weight, mu: Weight, sigmas) -> list[tuple[WeylElement, tuple[int, ...]]]:
    """(sigma, xi) for each sigma whose xi = sigma(lam + rho) - rho - mu is >= 0, as one list.

    In type A the simple roots are positive roots, so xi has a partition into
    positive roots exactly when every simple-root coordinate is nonnegative.
    The survivors are the alternation set and the nonzero terms of the
    alternating Weyl sum. The scan is one plain loop: each element goes
    through the public `shifted_action` exactly once, looked up at each
    call, so a per-call trace of that layer sees every element a scan
    visits; the image is compared with mu coordinate by coordinate, and
    only a survivor's xi is built. `pruned_survivors` runs the same test
    prefix by prefix.
    """
    if lam.rank != mu.rank:
        raise ValueError(f"rank mismatch: lam rank {lam.rank} vs mu rank {mu.rank}")
    m = mu.coords
    kept = []
    for sigma in sigmas:
        c = shifted_action(sigma, lam).coords
        if all(map(ge, c, m)):
            kept.append((sigma, tuple(map(sub, c, m))))
    return kept


def pruned_survivors(lam: Weight, mu: Weight) -> list[tuple[WeylElement, tuple[int, ...]]]:
    """The pairs of survivors(lam, mu, enumerate_all(rank)), by a pruned search, as one list.

    Coordinate k of sigma(lam + rho) - rho is the sum of the integer
    entries eps(lam)_x + r - x that sigma moves into slots 1..k, less the
    offset T_k of `weyl.shifted_action`, so the search fills sigma^-1(1),
    sigma^-1(2), ... one slot at a time and drops a branch as soon as its
    prefix sum falls below the floor T_k + mu_k: every completion would
    fail the sign test there. A leaf's xi is its prefix sums less the
    floors. The last slot takes the one entry left and has no floor, since
    no coordinate sums all r + 1 slots. Each prefix the search enters is a
    node; past SEARCH_NODE_BUDGET nodes it raises CapacityError, so what is
    refused is a search that really explodes, not a rank. The walk is
    `_walk`'s, and it keeps its open prefixes on lists, so no depth hits
    the recursion limit. It runs once without building a leaf, so a
    refused search has built nothing; only a search within the budget runs
    again and builds its pairs, in no particular order. A single walk that
    kept its leaves would hold every leaf found before the budget trips:
    35,899 of them and 700 MB at rank 1200 with mu = 0. The identity is a
    survivor exactly when lam - mu >= 0, and then its path alone enters
    rank + 1 nodes, so past the budget that search is refused before the
    walk's lists, each as long as the rank, are built.
    """
    if lam.rank != mu.rank:
        raise ValueError(f"rank mismatch: lam rank {lam.rank} vs mu rank {mu.rank}")
    rank = lam.rank
    if rank + 1 > SEARCH_NODE_BUDGET and all(map(ge, lam.coords, mu.coords)):
        raise _budget_error(rank)
    entries, offsets = _rho_shifted(lam)
    floors = [t + m for t, m in zip(offsets, mu.coords)]
    for _ in _walk(entries, floors):
        pass
    return [
        (_element(rank, tuple(perm)), tuple(map(sub, sums[1:], floors)))
        for perm, sums in _walk(entries, floors)
    ]


def _walk(entries: list[int], floors: list[int]) -> Iterator[tuple[list[int], list[int]]]:
    """The pruned search, depth first; it yields (perm, sums) at each leaf and builds nothing.

    perm[x] = sigma(x + 1) and sums holds the path's prefix sums, the root's
    0 first; both are the walk's own lists, valid until the next step. A
    node scans its candidates by entry descending, ties by index, and stops
    at the first one whose prefix sum falls below the floor: every later
    one falls below it too. The unused entries stay in one list in the
    reverse of that order, so a node's candidates sit at its end: a choice
    is taken out by `pop` and undone by `insert` at its place, which moves
    only the entries behind it, the ones the node scanned before it. A
    node's Python work is O(children), not O(rank), and nothing is copied.
    Where the entries are non-increasing, as for the highest root and
    2 rho, the scan order is by index, and so is the order of the leaves.
    The nodes entered do not depend on the order: they are the prefixes
    whose every sum passes its floor.
    """
    rank = len(floors)
    budget = SEARCH_NODE_BUDGET
    # the scan order, reversed: by entry ascending, ties by index descending
    unused = sorted(range(rank, -1, -1), key=entries.__getitem__)  # sorted is stable
    perm = [0] * (rank + 1)
    sums = [0]
    taken: list[tuple[int, int]] = []  # (candidates scanned before it, entry) of each filled slot
    nodes, n = 1, 0  # the root entered; n candidates at this depth scanned so far
    while True:
        if nodes > budget:
            raise _budget_error(rank)
        d = len(taken)
        if d == rank:
            perm[unused[0]] = rank + 1
            yield perm, sums
        elif n < len(unused) and sums[d] + entries[unused[-1 - n]] >= floors[d]:
            x = unused.pop(-1 - n)
            perm[x] = d + 1
            sums.append(sums[d] + entries[x])
            taken.append((n, x))
            nodes += 1
            n = 0
            continue
        if not taken:
            return
        n, x = taken.pop()
        unused.insert(len(unused) - n, x)
        sums.pop()
        n += 1


def _budget_error(rank: int) -> CapacityError:
    return CapacityError(
        f"the pruned search at rank {rank} visited more than {SEARCH_NODE_BUDGET} "
        f"nodes, its fixed budget; no flag raises it"
    )


def alt_set_bruteforce(rank: int, lam: Weight, mu: Weight) -> AlternationSet:
    """Filter the full Weyl group by sigma(lam + rho) - rho - mu >= 0.

    Rank is capped like enumerate_all (fixed at 8); lam and mu may be any
    root-lattice weights of matching rank.
    """
    if lam.rank != rank or mu.rank != rank:
        raise ValueError(
            f"rank mismatch: rank={rank}, lam rank {lam.rank}, mu rank {mu.rank}"
        )
    members = frozenset(sigma for sigma, _ in survivors(lam, mu, enumerate_all(rank)))
    return AlternationSet(rank, lam, mu, members)


def alt_set_characterized(iv: RootInterval) -> AlternationSet:
    """Generate A(highest root, interval root [i, j]) from its description.

    Elements are the products of pairwise nonconsecutive generators taken
    from the free ranges of the two `sides`: each is built by
    `from_nonconsecutive_letters` from a left word of `characterized_sides`
    followed by a right one, which is its reduced word.
    """
    left, right = characterized_sides(iv)
    r = iv.rank
    members = frozenset(from_nonconsecutive_letters(r, lw + rw) for lw in left for rw in right)
    return AlternationSet(r, highest_root(r), interval_root(iv), members)


def characterized_sides(iv: RootInterval) -> tuple[list[Factor], list[Factor]]:
    """The words of the left and of the right factors of A(highest root, iv), in post-order.

    Each side's words are the `nonconsecutive_choices` of its free letters.
    Post-order sorts the left words by word + (r+1,) and the right ones of
    one length lexicographically. Past F_27 elements, what 25 free letters
    on one side give, the set is refused with CapacityError before any
    side is built; the cap is fixed. The spot check builds the 8 longest
    products from their words through `from_nonconsecutive_letters`,
    which checks their letters and gaps, and re-runs the sign test on
    them.
    """
    r, i, j = iv.rank, iv.i, iv.j
    cap = DEFAULT_SUBSET_GROUND_CAP
    bound = fibonacci(cap + 2)
    # one side alone past the bound is refused before its Fibonacci number is computed
    if max(i, r - j + 1) > cap + 2 or alt_cardinality(iv) > bound:
        raise CapacityError(
            f"the alternation set of the interval [{i}, {j}] at rank {r} has "
            f"F_{i} * F_{r - j + 1} elements, more than F_{cap + 2} = {bound}, the most "
            f"{cap} free letters a side give; the cap is fixed and no flag raises it"
        )
    left, right = (nonconsecutive_choices(side.letters) for side in sides(iv))
    lefts, rights = (nlargest(_SPOT_CHECK, side, key=len) for side in (left, right))
    words = nlargest(_SPOT_CHECK, (lw + rw for lw in lefts for rw in rights), key=len)
    spot = [from_nonconsecutive_letters(r, w) for w in words]
    if sum(1 for _ in survivors(highest_root(r), interval_root(iv), spot)) != len(spot):
        raise RuntimeError(f"a characterized element of {iv} fails the membership test")
    return left, right


def alt_cardinality(iv: RootInterval) -> int:
    """|A(highest root, [i, j])| = F_i * F_{r-j+1}, without generating the set."""
    return fibonacci(iv.i) * fibonacci(iv.rank - iv.j + 1)


Side = namedtuple("Side", "letters boundary")
Side.__doc__ = """One side of A(highest root, [i, j]): its free letter range and boundary letter.

The ranges are {2..i-1} (left) and {j+1..r-1} (right); the boundary
letters are s_{i-1} and s_{j+1}, None when i = 1 or j = r. At i = 2 or
j = r-1 the range is empty, so the boundary letter is always absent.
"""


def sides(iv: RootInterval) -> tuple[Side, Side]:
    """The (left, right) sides of A(highest root, iv)."""
    r, i, j = iv.rank, iv.i, iv.j
    return (
        Side(range(2, i), i - 1 if i > 1 else None),
        Side(range(j + 1, r), j + 1 if j < r else None),
    )


def side_tally(side: Side) -> list[tuple[int, bool, int]]:
    """(length, boundary letter present, count) for each nonzero count of the side.

    A choice of k letters besides the boundary letter is a nonconsecutive
    k-subset of the other m-1 free letters, or of the m-2 not next to the
    boundary letter when that is present too.
    """
    m = len(side.letters)
    tally = []
    for k in range(m // 2 + 1):
        for contains in (False, True):
            count = nonconsecutive_count_k(m - 2 if contains else m - 1, k)
            if count:
                tally.append((k + contains, contains, count))
    return tally
