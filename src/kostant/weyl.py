"""The Weyl group of A_r, realized as the symmetric group S_{r+1}.

Elements are stored in one-line notation: perm[x-1] is the image of x, for
x in 1..r+1. The simple reflection s_i is the adjacent transposition
(i, i+1), and words multiply as function composition with the RIGHTMOST
letter applied first: from_word(r, [a, b]) means "apply s_b, then s_a".
Consequently from_word(r, w1 + w2) == from_word(r, w1) * from_word(r, w2).

The action on the root lattice goes through epsilon coordinates. A weight
with simple-root coordinates (c_1, ..., c_r) has epsilon coordinates
(c_1, c_2 - c_1, ..., c_r - c_{r-1}, -c_r), which always sum to zero; a
permutation sigma moves the entry in slot x to slot sigma(x); partial sums
convert back. Both directions are integral, so the action is exact.

The shifted action sigma(lam + rho) - rho is computed on doubled weights
(2*lam + 2*rho is integral even though rho alone is not) and halved at the
end; a parity check guards the halving. One tuple-level kernel computes
the permuted prefix sums behind both `apply` and `shifted_action`.
"""

from bisect import bisect_left
from itertools import accumulate, permutations, repeat
from typing import Iterator

from .errors import DEFAULT_BRUTE_RANK_CAP, CapacityError
from .weights import Weight, _set, _two_rho_coords, _weight


class WeylElement:
    """A permutation of {1, ..., rank+1} acting on the rank-r root lattice.

    Immutable; equality uses (rank, perm) and hashing perm alone, which fixes
    the rank. Length, support and a reduced word are computed lazily and cached.
    """

    __slots__ = ("rank", "perm", "_length", "_word", "_support")

    def __init__(self, rank: int, perm: tuple[int, ...]):
        perm = tuple(perm)
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if sorted(perm) != list(range(1, rank + 2)):
            raise ValueError(
                f"one-line notation for rank {rank} must permute 1..{rank + 1}, got {perm}"
            )
        self.rank = rank
        self.perm = perm
        self._length: int | None = None
        self._word: tuple[int, ...] | None = None
        self._support: frozenset[int] | None = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.rank == other.rank
            and self.perm == other.perm
        )

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:
        return f"WeylElement(rank={self.rank}, perm={self.perm})"

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Function composition: (self * other)(x) = self(other(x))."""
        if not isinstance(other, WeylElement):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        sp, op = self.perm, other.perm
        return _element(self.rank, tuple(sp[op[x] - 1] for x in range(len(sp))))

    @property
    def is_identity(self) -> bool:
        return all(v == x for x, v in enumerate(self.perm, start=1))

    @property
    def length(self) -> int:
        """Coxeter length: the number of inversions of the one-line notation.

        Each entry adds the count of later, smaller entries, found by bisection.
        """
        if self._length is None:
            later: list[int] = []
            count = 0
            for v in reversed(self.perm):
                k = bisect_left(later, v)
                count += k
                later.insert(k, v)
            self._length = count
        return self._length

    @property
    def sign(self) -> int:
        """(-1) ** length."""
        return -1 if self.length % 2 else 1

    def reduced_word(self) -> tuple[int, ...]:
        """One reduced word for this element, deterministic.

        Found by repeatedly stripping the smallest left descent (equivalently
        the smallest right descent of the inverse); each strip removes one
        inversion, so the word length equals `length`, and a product of
        pairwise commuting generators yields its letters in increasing order.
        """
        if self._word is None:
            inv = [0] * len(self.perm)
            for x, v in enumerate(self.perm):
                inv[v - 1] = x + 1
            word = []
            while True:
                for x in range(len(inv) - 1):
                    if inv[x] > inv[x + 1]:
                        inv[x], inv[x + 1] = inv[x + 1], inv[x]
                        word.append(x + 1)
                        break
                else:
                    break
            self._word = tuple(word)
            if self._length is None:
                self._length = len(self._word)
        return self._word

    @property
    def support(self) -> frozenset[int]:
        """The set of generator indices appearing in any reduced word."""
        if self._support is None:
            self._support = frozenset(self.reduced_word())
        return self._support


def identity(rank: int) -> WeylElement:
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return _element(rank, tuple(range(1, rank + 2)))


def simple_reflection(rank: int, i: int) -> WeylElement:
    """s_i, the adjacent transposition (i, i+1)."""
    if not 1 <= i <= rank:
        raise ValueError(f"generator index must satisfy 1 <= i <= {rank}, got {i}")
    perm = list(range(1, rank + 2))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return _element(rank, tuple(perm))


def from_word(rank: int, word) -> WeylElement:
    """Product s_{w_1} s_{w_2} ... s_{w_k}, the rightmost letter acting first.

    Right-multiplying by s_i swaps the one-line entries in slots i and i+1,
    so the word is folded left to right by entry swaps.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    perm = list(range(1, rank + 2))
    for letter in word:
        if not 1 <= letter <= rank:
            raise ValueError(f"letter {letter} out of range 1..{rank}")
        perm[letter - 1], perm[letter] = perm[letter], perm[letter - 1]
    return _element(rank, tuple(perm))


def from_nonconsecutive_letters(rank: int, letters) -> WeylElement:
    """Product of the commuting generators named by `letters`.

    Letters must be strictly increasing with gaps >= 2, so they pairwise
    commute and the word is reduced; the word, and with it the length, is
    known up front and cached, which is what makes materializing large
    alternation sets cheap.
    """
    letters = tuple(letters)
    prev = None
    for letter in letters:
        if not 1 <= letter <= rank:
            raise ValueError(f"letter {letter} out of range 1..{rank}")
        if prev is not None and letter - prev < 2:
            raise ValueError(f"letters must be nonconsecutive and increasing, got {letters}")
        prev = letter
    perm = list(range(1, rank + 2))
    for letter in letters:
        perm[letter - 1], perm[letter] = perm[letter], perm[letter - 1]
    return _with_reduced_word(rank, tuple(perm), letters)


def _with_reduced_word(rank: int, perm: tuple[int, ...], word: tuple[int, ...]) -> WeylElement:
    """The element `perm`, unchecked, with its reduced word `word` and length cached.

    The caller vouches that `word` is what `reduced_word` would find for `perm`.
    """
    el = _element(rank, perm)
    el._length, el._word = len(word), word
    return el


def _element(rank: int, perm: tuple[int, ...]) -> WeylElement:
    """The element with one-line notation `perm`, unchecked; its caches start empty."""
    el = WeylElement.__new__(WeylElement)
    el.rank, el.perm = rank, perm
    el._length = el._word = el._support = None
    return el


def _eps(coords) -> list[int]:
    """Epsilon coordinates (c_1, c_2 - c_1, ..., -c_r) of simple-root coordinates."""
    return [a - b for a, b in zip((*coords, 0), (0, *coords))]


def _moved_prefix_sums(perm: tuple[int, ...], eps: list[int]) -> Iterator[int]:
    """The kernel: simple-root coordinates, in order, of eps moved by perm.

    Entry x goes to slot perm[x]; coordinate k is the sum of slots 1..k.
    """
    moved = [0] * len(perm)
    for x, p in enumerate(perm):
        moved[p - 1] = eps[x]
    return accumulate(moved[:-1])


def _halved(sums: Iterator[int], base) -> Iterator[int]:
    """(s - b) / 2 for each doubled coordinate s and offset b, checked to be integral."""
    for s, b in zip(sums, base):
        d = s - b
        if d % 2:
            raise RuntimeError("shifted action produced a non-integral weight")
        yield d // 2


def apply(sigma: WeylElement, w: Weight) -> Weight:
    """sigma acting linearly on a root-lattice weight, via epsilon coordinates."""
    if sigma.rank != w.rank:
        raise ValueError(f"rank mismatch: element {sigma.rank} vs weight {w.rank}")
    return _weight(w.rank, tuple(_moved_prefix_sums(sigma.perm, _eps(w.coords))))


def shifted_action(sigma: WeylElement, lam: Weight) -> Weight:
    """sigma(lam + rho) - rho, computed exactly on doubled weights.

    The epsilon coordinates of 2 lam + 2 rho are computed through `_eps` on
    lam's first shifted action and kept in its `_eps2` slot; every call still
    moves them by sigma, checks each doubled coordinate's parity and halves it.
    """
    rank = lam.rank
    if sigma.rank != rank:
        raise ValueError(f"rank mismatch: element {sigma.rank} vs weight {rank}")
    tr = _two_rho_coords(rank)
    eps = lam._eps2
    if eps is None:
        eps = _eps([2 * c + t for c, t in zip(lam.coords, tr)])
        _set(lam, "_eps2", eps)
    return _weight(rank, tuple(_halved(_moved_prefix_sums(sigma.perm, eps), tr)))


def enumerate_all(rank: int) -> Iterator[WeylElement]:
    """All (rank+1)! Weyl group elements, lexicographic by one-line notation.

    The rank cap of 8 (at most 362,880 elements) is fixed. It is checked
    eagerly, before the first element is produced, and a rank above it
    raises CapacityError.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    cap = DEFAULT_BRUTE_RANK_CAP
    if rank > cap:
        raise CapacityError(
            f"the literal scan of the Weyl group at rank {rank} would visit {rank + 1}! "
            f"elements; its rank cap of {cap} is fixed and no flag raises it"
        )
    return map(_element, repeat(rank), permutations(range(1, rank + 2)))
