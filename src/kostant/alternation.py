"""Weyl alternation sets for A_r and their Fibonacci structure.

The alternation set A(lam, mu) collects the Weyl group elements sigma whose
shifted image sigma(lam + rho) - rho - mu still admits a decomposition into
positive roots, i.e. contributes a nonzero term to the alternating weight
multiplicity sum. Two constructions are provided:

* `alt_set_bruteforce` scans every group element. In type A a weight has a
  partition into positive roots exactly when its simple-root coordinates
  are all nonnegative, so membership is that sign test, run by
  `survivors`. It works for any lam and mu but is capped by rank. It stays
  a literal scan on purpose: it is the reference for `pruned_survivors`,
  which finds the same members by a search that drops a branch as soon as
  one coordinate goes negative (the full alternating sum uses it).

* `alt_set_characterized` is specific to lam = highest root and mu an
  interval root [i, j]: there the set consists exactly of the products of
  pairwise nonconsecutive generators drawn from {2..i-1} and {j+1..r-1}.
  Nonconsecutive subsets of an n-set are Fibonacci-counted, so the set has
  exactly F_i * F_{r-j+1} elements and is cheap to generate at ranks far
  beyond brute force reach. Each side's choices are validated once, F_i
  and F_{r-j+1} of them; a left letter moves only slots 1..i and a right
  letter only slots j+1..r+1, so a product's one-line notation is glued as
  left[:i] + (i+1, ..., j) + right[j:] and its reduced word as the left
  letters then the right ones. The set is materialized, so it is refused
  with CapacityError, before anything is built, when it would exceed
  F_(cap+2) elements: the most one side of cap free letters gives
  (cap = max_ground, default 25; at rank 30, [15, 15] has 602,070).

The two constructions carry a provenance tag so tests can compare them
without one silently standing in for the other.

`sides` describes the theorem's two sides once: each side's free letter
range and its boundary letter. `side_tally` counts a side's choices by
binomials. The generated set, the closed route in `multiplicity` and the
counts below read only these two.

`count_by_length` and `max_length` read the tally of a one-sided interval:
[1, j] with j < r has only the right side, [i, r] with i > 1 only the left,
and any other interval raises ValueError. Note the index convention: k
counts the OTHER letters, drawn from the free range away from the boundary;
an element counted under (k, contains=True) has Coxeter length k + 1, one
counted under (k, contains=False) has length k. This is the convention
under which the counts are plain zero-padded binomials and their total
telescopes to the Fibonacci cardinality.
"""

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .combinatorics import fibonacci, nonconsecutive_count_k, nonconsecutive_subsets
from .errors import DEFAULT_SUBSET_GROUND_CAP, CapacityError
from .weights import (
    RootInterval,
    Weight,
    _two_rho_coords,
    as_interval,
    highest_root,
    interval_root,
)
from .weyl import (
    WeylElement,
    _eps,
    _halved,
    _with_reduced_word,
    check_brute_rank,
    enumerate_all,
    from_nonconsecutive_letters,
    shifted_action,
)

PROVENANCE_BRUTE = "brute_force"
PROVENANCE_CHARACTERIZED = "characterized"

# How many elements of a characterized set get their membership re-verified
# by the brute-force sign test at construction time.
_SPOT_CHECK = 8


@dataclass(frozen=True)
class AlternationSet:
    """The elements sigma with a nonzero partition count after the shifted action.

    `elements` is a frozenset of WeylElements; iteration is deterministic,
    by length and then by reduced word. `provenance` records which
    construction produced the set.

    That order is built once. `alt_set_characterized` sorts its products
    before it builds them and passes the order in as `_order`; a set built
    without one sorts its elements on its first iteration and keeps the
    result, so a set that is never iterated never computes a reduced word.
    The order takes no part in equality, hashing or repr.
    """

    rank: int
    lam: Weight
    mu: Weight
    elements: frozenset[WeylElement]
    provenance: str
    _order: tuple[WeylElement, ...] | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, sigma) -> bool:
        return sigma in self.elements

    def __iter__(self):
        if self._order is None:
            order = sorted(self.elements, key=lambda s: (s.length, s.reduced_word()))
            object.__setattr__(self, "_order", tuple(order))
        return iter(self._order)

    def to_json(self) -> dict:
        iv = as_interval(self.mu)
        return {
            "rank": self.rank,
            "mu": [iv.i, iv.j] if iv is not None else list(self.mu.coords),
            "count": len(self.elements),
            "elements": [list(s.reduced_word()) for s in self],
            "provenance": self.provenance,
        }


def survivors(lam: Weight, mu: Weight, sigmas) -> Iterator[tuple[WeylElement, tuple[int, ...]]]:
    """(sigma, xi) for each sigma whose xi = sigma(lam + rho) - rho - mu is >= 0.

    In type A the simple roots are positive roots, so xi has a partition into
    positive roots exactly when every simple-root coordinate is nonnegative.
    The survivors are the alternation set and the nonzero terms of the
    alternating Weyl sum. Each element goes through the public
    `shifted_action`, so a per-call trace of that layer sees every element a
    scan visits; `pruned_survivors` runs the same test prefix by prefix.
    """
    if lam.rank != mu.rank:
        raise ValueError(f"rank mismatch: lam rank {lam.rank} vs mu rank {mu.rank}")
    terms = (
        (sigma, tuple(a - b for a, b in zip(shifted_action(sigma, lam).coords, mu.coords)))
        for sigma in sigmas
    )
    return ((sigma, xi) for sigma, xi in terms if min(xi) >= 0)


def pruned_survivors(
    lam: Weight, mu: Weight, max_rank: int | None = None
) -> Iterator[tuple[WeylElement, tuple[int, ...]]]:
    """The pairs of survivors(lam, mu, enumerate_all(rank)), by a pruned search.

    Coordinate k of sigma(2 lam + 2 rho) is the sum of the epsilon entries
    that sigma moves into slots 1..k, so the search fills sigma^-1(1),
    sigma^-1(2), ... one slot at a time and drops a branch as soon as its
    prefix sum falls below 2 rho_k + 2 mu_k: every completion would fail the
    sign test there. The last slot is forced, since the entries sum to 0.
    The pairs come in no particular order. The rank cap of enumerate_all
    applies, checked before the first pair is produced, because for large
    lam every element can survive.
    """
    if lam.rank != mu.rank:
        raise ValueError(f"rank mismatch: lam rank {lam.rank} vs mu rank {mu.rank}")
    rank = lam.rank
    check_brute_rank(rank, max_rank)
    tr = _two_rho_coords(rank)
    eps = _eps([2 * c + t for c, t in zip(lam.coords, tr)])
    floors = [t + 2 * m for t, m in zip(tr, mu.coords)]
    perm = [0] * (rank + 1)  # perm[x] = sigma(x + 1), set as slots fill
    prefixes: list[int] = []

    def fill(unused: tuple[int, ...], total: int):
        slot = len(prefixes) + 1
        if slot > rank:
            perm[unused[0]] = slot
            xi = tuple(h - m for h, m in zip(_halved(prefixes, tr), mu.coords))
            yield WeylElement(rank, tuple(perm), check=False), xi
            return
        for n, x in enumerate(unused):
            s = total + eps[x]
            if s >= floors[slot - 1]:
                perm[x] = slot
                prefixes.append(s)
                yield from fill(unused[:n] + unused[n + 1:], s)
                prefixes.pop()

    return fill(tuple(range(rank + 1)), 0)


def alt_set_bruteforce(
    rank: int, lam: Weight, mu: Weight, max_rank: int | None = None
) -> AlternationSet:
    """Filter the full Weyl group by sigma(lam + rho) - rho - mu >= 0.

    Rank is capped like enumerate_all (default 8); lam and mu may be any
    root-lattice weights of matching rank.
    """
    if lam.rank != rank or mu.rank != rank:
        raise ValueError(
            f"rank mismatch: rank={rank}, lam rank {lam.rank}, mu rank {mu.rank}"
        )
    members = frozenset(sigma for sigma, _ in survivors(lam, mu, enumerate_all(rank, max_rank)))
    return AlternationSet(rank, lam, mu, members, PROVENANCE_BRUTE)


def alt_set_characterized(iv: RootInterval, max_ground: int | None = None) -> AlternationSet:
    """Generate A(highest root, interval root [i, j]) from its description.

    Elements are the products of pairwise nonconsecutive generators taken
    from the free ranges of the two `sides`; the gap between the two ranges
    is at least 2, so any choice on one side combines freely with any choice
    on the other. Each side's choices are validated once, and every product
    is glued from its two factors, in the set's iteration order: the glued
    (length, word, perm) triples are sorted before any element is built.
    The set is refused with CapacityError, before anything is built, when
    it would hold more than F_(cap+2) elements (cap = max_ground, default
    25). The longest few elements, which carry letters from both sides
    whenever both sides have free letters, are re-verified against the
    brute-force membership test.
    """
    r, i, j = iv.rank, iv.i, iv.j
    cap = DEFAULT_SUBSET_GROUND_CAP if max_ground is None else max_ground
    if cap < 0:
        raise ValueError(f"ground-set cap must be >= 0, got {cap}")
    size, bound = alt_cardinality(iv), fibonacci(cap + 2)
    if size > bound:
        raise CapacityError(
            f"the alternation set of {iv} has {size} elements, more than F_{cap + 2} = "
            f"{bound}, the most {cap} free letters on one side give; "
            f"pass max_ground to raise the cap"
        )
    lam = highest_root(r)
    mu = interval_root(iv)
    left_side, right_side = sides(iv)
    # Left letters (< i) move only slots 1..i, right letters (> j) only j+1..r+1.
    middle = tuple(range(i + 1, j + 1))
    left = [(el.perm[:i] + middle, el.reduced_word())
            for el in _side_factors(r, left_side, max_ground)]
    right = [(el.perm[j:], el.reduced_word()) for el in _side_factors(r, right_side, max_ground)]
    # Distinct elements have distinct words, so the sort never compares perms.
    glued = [(len(ls) + len(rs), ls + rs, lp + rp) for lp, ls in left for rp, rs in right]
    glued.sort()
    members = tuple([_with_reduced_word(r, perm, word) for _, word, perm in glued])
    spot = members[-_SPOT_CHECK:]
    if sum(1 for _ in survivors(lam, mu, spot)) != len(spot):
        raise RuntimeError(f"a characterized element of {iv} fails the membership test")
    return AlternationSet(r, lam, mu, frozenset(members), PROVENANCE_CHARACTERIZED, _order=members)


def _side_factors(rank: int, side: "Side", max_ground: int | None) -> list[WeylElement]:
    """Each choice of letters on one side, validated once, as an element."""
    shift = side.letters.start - 1  # {1..m} onto the free range
    return [from_nonconsecutive_letters(rank, tuple(x + shift for x in s))
            for s in nonconsecutive_subsets(len(side.letters), max_ground)]


def alt_cardinality(iv: RootInterval) -> int:
    """|A(highest root, [i, j])| = F_i * F_{r-j+1}, without generating the set."""
    return fibonacci(iv.i) * fibonacci(iv.rank - iv.j + 1)


class Side(NamedTuple):
    """One side of A(highest root, [i, j]): its free letter range and boundary letter.

    The ranges are {2..i-1} (left) and {j+1..r-1} (right); the boundary
    letters are s_{i-1} and s_{j+1}, None when i = 1 or j = r. At i = 2 or
    j = r-1 the range is empty, so the boundary letter is always absent.
    """

    letters: range
    boundary: int | None


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


def one_side(iv: RootInterval) -> Side:
    """The only side with a boundary letter: [1, j] with j < r, or [i, r] with i > 1."""
    present = [side for side in sides(iv) if side.boundary is not None]
    if len(present) != 1:
        raise ValueError(f"length counts need [1, j], j < rank, or [i, rank], i > 1; got {iv}")
    return present[0]


def count_by_length(iv: RootInterval, k: int, contains: bool) -> int:
    """Count characterized elements by free-range letters, split on the boundary letter.

    This is the number of elements of a one-sided interval using exactly k
    letters besides its boundary letter, with that letter required
    (contains=True, length k+1) or forbidden (contains=False, length k).
    Every other interval raises ValueError.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    tally = {(length - has, has): count for length, has, count in side_tally(one_side(iv))}
    return tally.get((k, contains), 0)


def max_length(iv: RootInterval, contains: bool) -> int:
    """Largest k with count_by_length(iv, k, contains) nonzero, or 0; past it every count is 0."""
    tally = side_tally(one_side(iv))
    return max((length - has for length, has, _ in tally if has == contains), default=0)
