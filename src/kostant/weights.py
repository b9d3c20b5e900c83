"""Weights of the type A_r root lattice, in simple-root coordinates.

A weight of rank r is an integer vector (c_1, ..., c_r) standing for
c_1*alpha_1 + ... + c_r*alpha_r, where alpha_1, ..., alpha_r are the simple
roots of sl(r+1). Every positive root is a consecutive sum
alpha_i + alpha_{i+1} + ... + alpha_j, so positive roots are named by the
interval [i, j]. The highest root is the full interval [1, r].

All arithmetic is exact on Python integers; nothing here can overflow.
"""

from operator import index

_set = object.__setattr__


class Value:
    """Base of the package's immutable records, each a class with __slots__.

    The fields named in `_fields` decide ==, hash and repr, in that order, as
    a frozen dataclass's would, and assigning or deleting an attribute raises
    AttributeError. A slot that is not a field is a cache, set through
    object.__setattr__, and takes no part in ==, hash or repr.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._key()


class Weight(Value):
    """An element of the rank-`rank` root lattice; coords[k-1] multiplies alpha_k.

    `_shift` caches the integer entries and offsets of `weyl.shifted_action`
    on self, so a scan that sends one weight through the whole group
    computes them once, and a weight dropped takes them with it.
    """

    _fields = ("rank", "coords")
    __slots__ = _fields + ("_shift",)

    def __init__(self, rank: int, coords: tuple[int, ...]):
        rank = index(rank)
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        coords = tuple(index(c) for c in coords)
        if len(coords) != rank:
            raise ValueError(f"rank {rank} weight needs {rank} coordinates, got {len(coords)}")
        self._fill(rank, coords, None)

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


class RootInterval(Value):
    """The positive root alpha_i + ... + alpha_j of A_rank, as the index pair."""

    __slots__ = _fields = ("rank", "i", "j")

    def __init__(self, rank: int, i: int, j: int):
        self._fill(index(rank), index(i), index(j))
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not 1 <= self.i <= self.j <= self.rank:
            raise ValueError(
                f"interval needs 1 <= i <= j <= rank, got i={self.i}, j={self.j}, rank={self.rank}"
            )

    @property
    def height(self) -> int:
        return self.j - self.i + 1


def _weight(rank: int, coords: tuple[int, ...]) -> Weight:
    """The weight (rank, coords), unchecked: the caller vouches for `rank` ints."""
    w = Weight.__new__(Weight)
    _set(w, "rank", rank)
    _set(w, "coords", coords)
    _set(w, "_shift", None)
    return w


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
