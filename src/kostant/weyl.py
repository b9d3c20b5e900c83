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

rho's epsilon entries r/2 - x (x = 0..r) share one fractional part, so the
shifted action sigma(lam + rho) - rho runs on the integer entries
eps(lam)_x + r - x instead. That shift adds the same k*r/2 to the sum of
slots 1..k of sigma(lam + rho) and of rho, so coordinate k of the shifted
action is the prefix sum of the moved integer entries minus the offset
T_k = k*r - k*(k-1)/2, with nothing doubled or halved. Both actions are one
scatter loop, which moves each epsilon entry to its slot, and one prefix
sum over the slots; the shifted action subtracts its offsets as it sums.
"""

from bisect import bisect_left
from itertools import accumulate, permutations
from operator import index, sub
from typing import Iterator

from .errors import DEFAULT_BRUTE_RANK_CAP, CapacityError
from .weights import Weight, _set, _weight


class WeylElement:
    """A permutation of {1, ..., rank+1} acting on the rank-r root lattice.

    The one-line notation `perm` is the whole value: the rank is
    len(perm) - 1, and equality and hashing use perm alone. Length, sign
    and a reduced word are computed from perm each time they are read;
    every reduced word has the same letters, the element's support.
    Treat it as a value, but nothing guards its slot: perm can be
    reassigned, and then the element is lost from any set or dict it was
    hashed into. A guard would slow every construction several times over.
    """

    __slots__ = ("perm",)

    def __init__(self, rank: int, perm: tuple[int, ...]):
        rank, perm = index(rank), tuple(map(index, perm))
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if sorted(perm) != list(range(1, rank + 2)):
            raise ValueError(
                f"one-line notation for rank {rank} must permute 1..{rank + 1}, got {perm}"
            )
        self.perm = perm

    @property
    def rank(self) -> int:
        return len(self.perm) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self.perm == other.perm

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
        return _element(tuple(sp[op[x] - 1] for x in range(len(sp))))

    @property
    def length(self) -> int:
        """Coxeter length: the number of inversions of the one-line notation.

        Each entry adds the count of later, smaller entries, found by bisection.
        """
        later: list[int] = []
        count = 0
        for v in reversed(self.perm):
            k = bisect_left(later, v)
            count += k
            later.insert(k, v)
        return count

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
        One forward scan finds each smallest descent: a swap at slot x
        changes only the pairs at x - 1, x and x + 1, and none below x - 1
        was a descent, so the scan steps back one slot and goes on, in
        O(rank + length) steps.
        """
        inv = [0] * len(self.perm)
        for x, v in enumerate(self.perm):
            inv[v - 1] = x + 1
        word = []
        last, x = len(inv) - 1, 0
        while x < last:
            if inv[x] > inv[x + 1]:
                inv[x], inv[x + 1] = inv[x + 1], inv[x]
                word.append(x + 1)
                if x:
                    x -= 1
            else:
                x += 1
        return tuple(word)


def identity(rank: int) -> WeylElement:
    """The identity element, the empty word's product."""
    return from_word(rank, ())


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
    return _element(tuple(perm))


def from_nonconsecutive_letters(rank: int, letters) -> WeylElement:
    """Product of the commuting generators named by `letters`.

    Letters must be strictly increasing with gaps >= 2, so they pairwise
    commute and the word is the one `reduced_word` finds. `from_word`
    checks that each letter is in range.
    """
    letters = tuple(letters)
    if any(b - a < 2 for a, b in zip(letters, letters[1:])):
        raise ValueError(f"letters must be nonconsecutive and increasing, got {letters}")
    return from_word(rank, letters)


def _element(perm: tuple[int, ...]) -> WeylElement:
    """The element with one-line notation `perm`, unchecked."""
    el = WeylElement.__new__(WeylElement)
    el.perm = perm
    return el


def _eps(coords) -> list[int]:
    """Epsilon coordinates (c_1, c_2 - c_1, ..., -c_r) of simple-root coordinates."""
    return [a - b for a, b in zip((*coords, 0), (0, *coords))]


def apply(sigma: WeylElement, w: Weight) -> Weight:
    """sigma acting linearly on a root-lattice weight, via epsilon coordinates.

    Coordinate k of the image is the sum of the moved entries in slots 1..k.
    """
    if sigma.rank != w.rank:
        raise ValueError(f"rank mismatch: element {sigma.rank} vs weight {w.rank}")
    moved = [0] * (w.rank + 1)
    for e, p in zip(_eps(w.coords), sigma.perm):
        moved[p - 1] = e
    return _weight(w.rank, tuple(accumulate(moved[:-1])))


def shifted_action(sigma: WeylElement, lam: Weight) -> Weight:
    """sigma(lam + rho) - rho, computed exactly on integers.

    lam's first shifted action keeps (entries, offsets) in its `_shift`
    slot: the entries eps(lam)_x + r - x for x = 0..r, lam + rho's epsilon
    entries shifted by r/2, found through `_eps`, and the offsets
    T_k = k*r - k*(k-1)/2, the prefix sums of the shift r - x alone. Every
    call moves the entries by sigma in one scatter loop; coordinate k is the
    sum of slots 1..k less T_k. The loop is most of the literal scan's cost
    per element, so it is written out here rather than shared with `apply`.
    """
    rank = lam.rank
    # len(perm), not the `rank` property: a scan runs this check once per element
    if len(sigma.perm) != rank + 1:
        raise ValueError(f"rank mismatch: element {sigma.rank} vs weight {rank}")
    shift = lam._shift
    if shift is None:
        shift = _rho_shifted(lam)
        _set(lam, "_shift", shift)
    entries, offsets = shift
    moved = [0] * (rank + 1)
    for e, p in zip(entries, sigma.perm):
        moved[p - 1] = e
    # offsets has rank entries, so the last slot's sum is never taken
    return _weight(rank, tuple(map(sub, accumulate(moved), offsets)))


def _rho_shifted(lam: Weight) -> tuple[list[int], list[int]]:
    """lam's integer entries eps(lam)_x + r - x (x = 0..r) and offsets T_1..T_r."""
    r = lam.rank
    entries = [e + s for e, s in zip(_eps(lam.coords), range(r, -1, -1))]
    return entries, list(accumulate(range(r, 0, -1)))


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
    return map(_element, permutations(range(1, rank + 2)))
