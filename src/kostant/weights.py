"""Weights of the type A_r root lattice, in simple-root coordinates.

A weight of rank r is an integer vector (c_1, ..., c_r) standing for
c_1*alpha_1 + ... + c_r*alpha_r, where alpha_1, ..., alpha_r are the simple
roots of sl(r+1). Every positive root is a consecutive sum
alpha_i + alpha_{i+1} + ... + alpha_j, so positive roots are named by the
interval [i, j]. The highest root is the full interval [1, r].

All arithmetic is exact on Python integers; nothing here can overflow.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import index


@dataclass(frozen=True)
class Weight:
    """An element of the rank-`rank` root lattice; coords[k-1] multiplies alpha_k."""

    rank: int
    coords: tuple[int, ...]

    def __post_init__(self):
        rank = index(self.rank)
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        coords = tuple(index(c) for c in self.coords)
        if len(coords) != rank:
            raise ValueError(f"rank {rank} weight needs {rank} coordinates, got {len(coords)}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "coords", coords)

    def _check_rank(self, other: "Weight") -> None:
        if not isinstance(other, Weight):
            raise TypeError(f"expected a Weight, got {type(other).__name__}")
        if other.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "Weight") -> "Weight":
        self._check_rank(other)
        return Weight(self.rank, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check_rank(other)
        return Weight(self.rank, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(self.rank, tuple(-a for a in self.coords))

    def __mul__(self, n: int) -> "Weight":
        n = index(n)
        return Weight(self.rank, tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True)
class RootInterval:
    """The positive root alpha_i + ... + alpha_j of A_rank, as the index pair."""

    rank: int
    i: int
    j: int

    def __post_init__(self):
        for field in ("rank", "i", "j"):
            object.__setattr__(self, field, index(getattr(self, field)))
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not 1 <= self.i <= self.j <= self.rank:
            raise ValueError(
                f"interval needs 1 <= i <= j <= rank, got i={self.i}, j={self.j}, rank={self.rank}"
            )

    @property
    def height(self) -> int:
        return self.j - self.i + 1


def simple_root(rank: int, i: int) -> Weight:
    """alpha_i as a rank-`rank` weight."""
    if not 1 <= i <= rank:
        raise ValueError(f"simple root index must satisfy 1 <= i <= {rank}, got {i}")
    return Weight(rank, tuple(1 if k == i else 0 for k in range(1, rank + 1)))


def interval_root(iv: RootInterval) -> Weight:
    """The positive root alpha_i + ... + alpha_j as a weight."""
    return Weight(iv.rank, tuple(1 if iv.i <= k <= iv.j else 0 for k in range(1, iv.rank + 1)))


def highest_root(rank: int) -> Weight:
    """alpha_1 + ... + alpha_r, the highest root of A_r."""
    return interval_root(RootInterval(rank, 1, rank))


def zero_weight(rank: int) -> Weight:
    return Weight(rank, (0,) * rank)


def height(w: Weight) -> int:
    """Sum of simple-root coordinates. For an interval root this is j - i + 1."""
    return sum(w.coords)


@lru_cache(maxsize=None)
def _two_rho_coords(rank: int) -> tuple[int, ...]:
    # Coefficient of alpha_k in the sum of all positive roots: the number of
    # intervals [i, j] containing k, which is k * (rank + 1 - k).
    return tuple(k * (rank + 1 - k) for k in range(1, rank + 1))


def two_rho(rank: int) -> Weight:
    """The sum of all positive roots of A_rank (twice the Weyl vector).

    Kept doubled so that shifted Weyl actions stay in integer arithmetic.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return Weight(rank, _two_rho_coords(rank))


def as_interval(w: Weight) -> RootInterval | None:
    """Recover [i, j] if w is an interval root (0/1 coords, one contiguous run)."""
    ones = [k for k, c in enumerate(w.coords, start=1) if c == 1]
    if not ones or len(ones) != sum(1 for c in w.coords if c != 0):
        return None
    i, j = ones[0], ones[-1]
    if j - i + 1 != len(ones):
        return None
    return RootInterval(w.rank, i, j)
