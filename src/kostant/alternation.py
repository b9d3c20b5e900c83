"""Weyl alternation sets for A_r and their Fibonacci structure.

The alternation set A(lam, mu) collects the Weyl group elements sigma whose
shifted image sigma(lam + rho) - rho - mu still admits a decomposition into
positive roots, i.e. contributes a nonzero term to the alternating weight
multiplicity sum. Two constructions are provided:

* `alt_set_bruteforce` scans every group element. In type A a weight has a
  partition into positive roots exactly when its simple-root coordinates
  are all nonnegative, so membership is that sign test, run by
  `survivors`. It works for any lam and mu up to a fixed rank cap of 8.
  It stays a literal scan on purpose: it is the reference for
  `pruned_survivors`, the one search entry, which finds the same members
  by a search that drops a branch as soon as one coordinate goes negative
  and is bounded by a fixed budget of visited nodes, not by rank. It
  refuses before it builds anything, for every caller: the full
  alternating sum, `alt-set --method brute|both` and verify.

* `alt_set_characterized` is specific to lam = highest root and mu an
  interval root [i, j]: there the set consists exactly of the products of
  pairwise nonconsecutive generators drawn from {2..i-1} and {j+1..r-1}.
  Nonconsecutive subsets of an n-set are Fibonacci-counted, so the set has
  exactly F_i * F_{r-j+1} elements and is cheap to generate at ranks far
  beyond brute force reach. `characterized_sides` builds each side's words
  once (`_side_factors`); a product's word is a left word then a right
  one. A left letter moves only slots 1..i and a right one only j+1..r+1,
  so its one-line notation is the left word's on slots 1..j then the right
  word's, each grown from its parent's by one splice (`_grown`). The CLI
  renders rows from the words in the canonical order (`canonical_blocks`).
  The set is refused with CapacityError, before anything is built, past
  F_27 = 196,418 elements, the most one side of 25 free letters gives (at
  rank 30, [15, 15] has 602,070); so it also bounds each side.

`sides` describes the theorem's two sides once: each side's free letter
range and its boundary letter. `side_tally` counts a side's choices by
binomials. The generated set, the closed route in `multiplicity` and the
counts below read only these two.

`length_counts` reads the tally of a one-sided interval as one dict:
[1, j] with j < r has only the right side, [i, r] with i > 1 only the left,
and any other interval raises ValueError. Its keys are (k, contains), and
only nonzero counts appear. Note the index convention: k counts the OTHER
letters, drawn from the free range away from the boundary; an element
counted under (k, True) has Coxeter length k + 1, one counted under
(k, False) has length k. This is the convention under which the counts are
plain binomials and their total telescopes to the Fibonacci cardinality.
"""

from collections import namedtuple
from heapq import nlargest
from itertools import chain
from operator import sub
from typing import Iterator

from .combinatorics import fibonacci, nonconsecutive_count_k
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
    _with_reduced_word,
    enumerate_all,
    from_word,
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


def survivors(lam: Weight, mu: Weight, sigmas) -> Iterator[tuple[WeylElement, tuple[int, ...]]]:
    """(sigma, xi) for each sigma whose xi = sigma(lam + rho) - rho - mu is >= 0.

    In type A the simple roots are positive roots, so xi has a partition into
    positive roots exactly when every simple-root coordinate is nonnegative.
    The survivors are the alternation set and the nonzero terms of the
    alternating Weyl sum. Each element goes through the public
    `shifted_action` exactly once, so a per-call trace of that layer sees
    every element a scan visits; only a survivor's xi is built as a tuple.
    `pruned_survivors` runs the same test prefix by prefix.
    """
    if lam.rank != mu.rank:
        raise ValueError(f"rank mismatch: lam rank {lam.rank} vs mu rank {mu.rank}")
    m = mu.coords
    images = ((sigma, shifted_action(sigma, lam).coords) for sigma in sigmas)
    return ((sigma, tuple(map(sub, c, m))) for sigma, c in images if min(map(sub, c, m)) >= 0)


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
    35,899 of them and 700 MB at rank 1200 with mu = 0.
    """
    if lam.rank != mu.rank:
        raise ValueError(f"rank mismatch: lam rank {lam.rank} vs mu rank {mu.rank}")
    entries, offsets = _rho_shifted(lam)
    floors = [t + m for t, m in zip(offsets, mu.coords)]
    for _ in _walk(entries, floors):
        pass
    rank = lam.rank
    return [
        (_element(rank, tuple(perm)), tuple(map(sub, sums[1:], floors)))
        for perm, sums in _walk(entries, floors)
    ]


def _walk(entries: list[int], floors: list[int]) -> Iterator[tuple[list[int], list[int]]]:
    """The pruned search, depth first; it yields (perm, sums) at each leaf and builds nothing.

    perm[x] = sigma(x + 1) and sums holds the path's prefix sums, the root's
    0 first; both are the walk's own lists, valid until the next step. The
    unused entries stay in one list sorted by entry descending, ties by
    index, so a node scans its candidates in that order and stops at the
    first one whose prefix sum falls below the floor: every later one falls
    below it too. A choice is taken out of the list by `pop` and undone by
    `insert` at its position, so a node's Python work is O(children), not
    O(rank), and nothing is copied. Where the entries are non-increasing,
    as for the highest root and 2 rho, that order is by index, and so is
    the order of the leaves. The nodes entered do not depend on the order:
    they are the prefixes whose every sum passes its floor.
    """
    rank = len(floors)
    budget = SEARCH_NODE_BUDGET
    unused = sorted(range(rank + 1), key=lambda x: -entries[x])  # sorted is stable: ties by index
    perm = [0] * (rank + 1)
    sums = [0]
    taken: list[tuple[int, int]] = []  # (position in unused, entry) of each filled slot
    nodes, n = 1, 0  # the root entered; n is the next candidate's position at this depth
    while True:
        if nodes > budget:
            raise CapacityError(
                f"the pruned search at rank {rank} visited more than {budget} "
                f"nodes, its fixed budget; no flag raises it"
            )
        d = len(taken)
        if d == rank:
            perm[unused[0]] = rank + 1
            yield perm, sums
        elif n < len(unused) and sums[d] + entries[unused[n]] >= floors[d]:
            x = unused.pop(n)
            perm[x] = d + 1
            sums.append(sums[d] + entries[x])
            taken.append((n, x))
            nodes += 1
            n = 0
            continue
        if not taken:
            return
        n, x = taken.pop()
        unused.insert(n, x)
        sums.pop()
        n += 1


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
    from the free ranges of the two `sides`, each a left factor of
    `characterized_sides` glued to a right one by `_side_perms`.
    """
    left, right = characterized_sides(iv)
    left_perms, right_perms = _side_perms(iv, left, right)
    r = iv.rank
    members = frozenset(
        _with_reduced_word(r, lp + rp, lw + rw)
        for lw, lp in zip(left, left_perms)
        for rw, rp in zip(right, right_perms)
    )
    return AlternationSet(r, highest_root(r), interval_root(iv), members)


def characterized_sides(iv: RootInterval) -> tuple[list[Factor], list[Factor]]:
    """The words of the left and of the right factors of A(highest root, iv), in post-order.

    Post-order (`_side_factors`) sorts the left words by word + (r+1,) and
    the right ones of one length lexicographically, so `canonical_blocks`
    reads the canonical order off them. Past F_27 elements, what 25 free
    letters on one side give, the set is refused with CapacityError before
    any side is built; the cap is fixed. The spot check builds the 8
    longest products through `from_word`, which checks the letters the CLI
    prints, and re-runs the sign test on them.
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
    left, right = (_side_factors(side) for side in sides(iv))
    lefts, rights = (nlargest(_SPOT_CHECK, side, key=len) for side in (left, right))
    words = nlargest(_SPOT_CHECK, (lw + rw for lw in lefts for rw in rights), key=len)
    spot = [_with_reduced_word(r, from_word(r, w).perm, w) for w in words]
    if sum(1 for _ in survivors(highest_root(r), interval_root(iv), spot)) != len(spot):
        raise RuntimeError(f"a characterized element of {iv} fails the membership test")
    return left, right


def canonical_blocks(left: list, right: list) -> Iterator:
    """(length, left factor, right group) blocks whose products run in the canonical order.

    The canonical order is by length, then by reduced word. Only a factor's
    first entry, its word, is read. The right factors are grouped by length
    in one stable pass. For each total length, each left factor that
    reaches it, in order, is followed by the right group that makes it up.
    """
    groups = [[] for _ in range(max(len(f[0]) for f in right) + 1)]
    for f in right:
        groups[len(f[0])].append(f)
    width = len(groups)
    lengths = [len(f[0]) for f in left]
    at = [[] for _ in range(max(lengths) + 1)]  # the positions of the left factors of each length
    for p, n in enumerate(lengths):
        at[n].append(p)
    for total in range(len(at) + width - 1):
        reach = chain.from_iterable(at[max(0, total - width + 1):total + 1])
        for p in sorted(reach):
            yield total, left[p], groups[total - lengths[p]]


def _side_factors(side: "Side") -> list[Factor]:
    """The word of each choice of letters on one side, in post-order.

    The choices, the nonconsecutive subsets of the side's free range, have
    commuting letters, so each word is reduced. In their tree a child adds
    one letter at least two above its parent's last; post-order sorts them
    by word + (x,) for any x above the side's letters. The choices from x
    on are x then a choice from x + 2 on, then those from x + 1 on, so a
    Fibonacci recurrence builds each word once.
    """
    after, words = [()], [()]  # the choices from x + 2 on and from x + 1 on
    for x in reversed(side.letters):
        after, words = words, [(x,) + w for w in after] + words
    return words


def _grown(words: list[Factor], root, pieces: dict) -> list:
    """Each word's value, grown from its parent's by one splice, in the order of `words`.

    `words` is a post-order, so reversed a pre-order: a word's parent, the
    word less its last letter y, is the last word seen one shorter, kept on
    a depth stack. The empty word's value is `root`, a child's, with
    (a, piece) = pieces[y], parent[:a] + piece + parent[a + len(piece):].
    """
    stack, values = [root] * (max(map(len, words)) + 1), []
    for w in reversed(words):
        d = len(w)
        if d:
            a, piece = pieces[w[-1]]
            parent = stack[d - 1]
            stack[d] = parent[:a] + piece + parent[a + len(piece):]
        values.append(stack[d])
    return values[::-1]


def _side_perms(iv: RootInterval, left: list[Factor], right: list[Factor]) -> tuple[list, list]:
    """The one-line tuples of the left words on slots 1..j and the right ones on j+1..r+1."""
    # letter y puts (y + 1, y) in slots y and y + 1, which its parent never moved
    return tuple(
        _grown(words, tuple(range(lo, hi + 1)), {y: (y - lo, (y + 1, y)) for y in range(lo, hi)})
        for words, lo, hi in ((left, 1, iv.j), (right, iv.j + 1, iv.rank + 1))
    )


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


def length_counts(iv: RootInterval) -> dict[tuple[int, bool], int]:
    """{(k, contains): count} for the elements of a one-sided interval, nonzero counts only.

    (k, True) counts the elements using the side's boundary letter and k
    other letters, so of length k + 1; (k, False) those without it, of
    length k. Every other interval raises ValueError.
    """
    present = [side for side in sides(iv) if side.boundary is not None]
    if len(present) != 1:
        raise ValueError(f"length counts need [1, j], j < rank, or [i, rank], i > 1; got {iv}")
    return {(length - has, has): count for length, has, count in side_tally(present[0])}
