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
  beyond brute force reach.

The two constructions carry a provenance tag so tests can compare them
without one silently standing in for the other.

`count_by_length` and `max_length` expose the finer count of characterized
elements by how many generators they use on one side of a one-sided
interval, split by whether the generator adjacent to the interval (s_{i-1}
on the left, s_{j+1} on the right) appears. Note the index convention: k
counts the OTHER letters, drawn from the free range away from the boundary;
an element counted under (k, contains=True) has Coxeter length k + 1, one
counted under (k, contains=False) has length k. This is the convention
under which the counts are plain zero-padded binomials and their total
telescopes to the Fibonacci cardinality.
"""

from dataclasses import dataclass
from typing import Iterator

from .combinatorics import fibonacci, nonconsecutive_count_k, nonconsecutive_subsets
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
    sorted by (length, reduced word). `provenance` records which
    construction produced the set.
    """

    rank: int
    lam: Weight
    mu: Weight
    elements: frozenset[WeylElement]
    provenance: str

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, sigma) -> bool:
        return sigma in self.elements

    def __iter__(self):
        return iter(sorted(self.elements, key=lambda s: (s.length, s.reduced_word())))

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
    from {2..i-1} on the left of the interval and {j+1..r-1} on the right;
    the gap between the two ranges is at least 2, so any choice on one side
    combines freely with any choice on the other. A few of the generated
    elements are re-verified against the brute-force membership test.
    """
    r, i, j = iv.rank, iv.i, iv.j
    lam = highest_root(r)
    mu = interval_root(iv)
    left = nonconsecutive_subsets(max(0, i - 2), max_ground)
    right = nonconsecutive_subsets(max(0, r - 1 - j), max_ground)
    members = []
    for ls in left:
        base = tuple(x + 1 for x in ls)  # {1..i-2} shifted into {2..i-1}
        for rs in right:
            letters = base + tuple(x + j for x in rs)  # {1..r-1-j} into {j+1..r-1}
            members.append(from_nonconsecutive_letters(r, letters))
    spot = members[:_SPOT_CHECK]
    if sum(1 for _ in survivors(lam, mu, spot)) != len(spot):
        raise RuntimeError(f"a characterized element of {iv} fails the membership test")
    return AlternationSet(r, lam, mu, frozenset(members), PROVENANCE_CHARACTERIZED)


def alt_cardinality(iv: RootInterval) -> int:
    """|A(highest root, [i, j])| = F_i * F_{r-j+1}, without generating the set."""
    return fibonacci(iv.i) * fibonacci(iv.rank - iv.j + 1)


def _side_ground(iv: RootInterval, side: str) -> int:
    """Letters in the one-sided free range, boundary letter included; validates side."""
    if side == "right_boundary":
        if iv.i != 1 or iv.j > iv.rank - 1:
            raise ValueError(
                f"right_boundary counts need mu = [1, j] with j <= rank-1, got {iv}"
            )
        return iv.rank - 1 - iv.j
    if side == "left_boundary":
        if iv.j != iv.rank or iv.i < 2:
            raise ValueError(
                f"left_boundary counts need mu = [i, rank] with i >= 2, got {iv}"
            )
        return iv.i - 2
    raise ValueError(f"side must be 'left_boundary' or 'right_boundary', got {side!r}")


def count_by_length(iv: RootInterval, k: int, side: str, contains: bool) -> int:
    """Count characterized elements by free-range letters, split on the boundary letter.

    For a one-sided interval the active generator range has a single
    distinguished letter adjacent to the interval: s_{j+1} when mu = [1, j]
    (side="right_boundary"), s_{i-1} when mu = [i, r] ("left_boundary").
    This returns the number of elements using exactly k letters from the
    rest of the range, with the boundary letter required (contains=True) or
    forbidden (contains=False). Lengths: k+1 in the first case, k in the
    second. All four counts are zero-padded binomials; summing them over k
    recovers the Fibonacci cardinality.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    m = _side_ground(iv, side)
    # The boundary letter, when present, also rules out its one neighbour.
    return nonconsecutive_count_k(m - 2 if contains else m - 1, k)


def max_length(iv: RootInterval, side: str, contains: bool) -> int:
    """Largest k with count_by_length(iv, k, side, contains) possibly nonzero.

    Floor formulas clamped below at zero; beyond the returned k every count
    is exactly 0.
    """
    m = _side_ground(iv, side)
    return max(0, (m - 1) // 2 if contains else m // 2)
