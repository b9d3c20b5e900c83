"""Kostant's partition function for A_r and its q-analog.

For a root-lattice weight xi, the q-analog counts multisets of positive
roots summing to xi, graded by multiset size: the coefficient of q^d is the
number of ways to write xi as a sum of exactly d positive roots. Evaluating
at q = 1 recovers the plain partition count. xi = 0 has the single empty
decomposition (the constant polynomial 1), and any weight with a negative
coordinate has none at all (the zero polynomial).

Two independent evaluators are provided. `kostant_q` is a memoized dynamic
program over the positive roots in lexicographic (i, j) order; it is the
one used everywhere else. `kostant_q_oracle` exhaustively enumerates
decompositions as nonincreasing root sequences with no memoization and no
shared logic beyond the root list; it exists so the DP can be checked
against something that is obviously correct, and it is capped by height
because it is deliberately naive.

All coefficients are Python integers, so nothing overflows.

What the DP remembers. In type A every positive root is an interval, so
once the positions before the first nonzero one, f, are cleared, every
root still usable at f starts at f. A state at the start of that block of
roots [f, f], [f, f+1], ... is therefore fixed by the remaining weight
alone, and only these block-boundary states are kept between calls, in
one dict for every rank, keyed by the remaining coordinate tuple (whose
length is the rank). Inside a block the DP chooses how many copies of
[f, j] to take, j = f, f+1, ...; it takes only counts that leave the
longer roots able to clear f, so it never visits a state without a
decomposition. Those in-block states, keyed by (j, remaining weight), go
into a scratch dict that one top-level call creates and drops on return.
So about a tenth of the states stay resident (for 2rho at rank 7, 11,892
block states against 106,881 in-block ones), but one large call still
peaks with its scratch dict, which lives until the call returns. The
resident dict is checked against PARTITION_MEMO_BOUND (2^16 states) after
each top-level call, never inside the recursion, and past it is flushed
wholesale, so the memo a long-lived process keeps stays bounded; one
call's scratch is not (2rho at rank 7 peaks near 110 MB). Under CPython's
GIL concurrent callers at worst duplicate work, and since every entry is a
pure function of its key the results are identical either way.
"""

from math import comb
from operator import index

from .errors import DEFAULT_ORACLE_HEIGHT_CAP, PARTITION_MEMO_BOUND, CapacityError
from .weights import Weight, height


class QPolynomial:
    """A polynomial in q with exact integer coefficients, densely stored.

    coeffs[d] is the coefficient of q^d; there is never a trailing zero, and
    the zero polynomial has an empty coefficient tuple. Instances are treated
    as immutable values: equal iff their coefficient tuples are equal.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [index(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int) -> "QPolynomial":
        if degree < 0:
            raise ValueError(f"monomial degree must be >= 0, got {degree}")
        return cls((0,) * degree + (1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for d, c in enumerate(b):
            out[d] += c
        return QPolynomial(out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other) if isinstance(other, QPolynomial) else NotImplemented

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return QPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for d, c in enumerate(self.coeffs):
            if c:
                for e, k in enumerate(other.coeffs):
                    out[d + e] += c * k
        return QPolynomial(out)

    def evaluate(self, x: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def pretty(self) -> str:
        """Human form, e.g. "q + 2q^2 + q^3"; the zero polynomial is "0"."""
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                var = "q" if d == 1 else f"q^{d}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QPolynomial({self.pretty()})"


# Block-boundary states of every rank; a flush only costs recomputation.
_MEMO: dict[tuple[int, ...], tuple[int, ...]] = {}


def _block_coeffs(blocks, scratch, last: int, rem: tuple[int, ...]):
    # rem is nonnegative and nonzero. Every root that can still clear its
    # first nonzero position f starts at f, so rem alone fixes the state.
    hit = blocks.get(rem)
    if hit is not None:
        return hit
    f = 0
    while not rem[f]:
        f += 1
    result = _copies_coeffs(blocks, scratch, last, f, f, rem)
    blocks[rem] = result
    return result


def _copies_coeffs(blocks, scratch, last: int, f: int, j: int, rem: tuple[int, ...]):
    # Take m copies of [f, j], then the longer roots [f, j+1..] take the
    # other rem[f] - m; all of those cover position j+1, so m starts at
    # rem[f] - rem[j+1], and at j = last it must be rem[f]. Every state
    # reached is therefore feasible. Positions before f are zero, so rem
    # fixes f, and (j, rem) is the key.
    key = (j, rem)
    hit = scratch.get(key)
    if hit is not None:
        return hit
    a = rem[f]
    lo = a if j == last else max(0, a - rem[j + 1])
    out: list[int] = []
    work = list(rem)
    if lo:
        for k in range(f, j + 1):
            work[k] -= lo
    for m in range(lo, a + 1):
        nxt = tuple(work)
        if m < a:
            sub = _copies_coeffs(blocks, scratch, last, f, j + 1, nxt)
        elif any(nxt):
            sub = _block_coeffs(blocks, scratch, last, nxt)
        else:
            sub = (1,)
        need = m + len(sub)
        if len(out) < need:
            out.extend([0] * (need - len(out)))
        for d, c in enumerate(sub):
            out[m + d] += c
        if m < a:
            for k in range(f, j + 1):
                work[k] -= 1
    result = tuple(out)
    scratch[key] = result
    return result


def kostant_q(rank: int, xi: Weight) -> QPolynomial:
    """The q-analog partition polynomial of xi over the positive roots of A_rank.

    Zero polynomial iff xi has a negative coordinate (checked up front, no
    enumeration); constant 1 for xi = 0.
    """
    if xi.rank != rank:
        raise ValueError(f"rank mismatch: {rank} vs weight of rank {xi.rank}")
    if any(c < 0 for c in xi.coords):
        return QPolynomial.zero()
    if xi.is_zero:
        return QPolynomial.one()
    coeffs = _block_coeffs(_MEMO, {}, rank - 1, xi.coords)
    if len(_MEMO) > PARTITION_MEMO_BOUND:
        _MEMO.clear()
    return QPolynomial(coeffs)


def kostant_q_oracle(rank: int, xi: Weight, max_height: int | None = None) -> QPolynomial:
    """Recompute kostant_q by exhaustive depth-first enumeration.

    Decompositions are enumerated as nonincreasing sequences of positive
    roots (each multiset exactly once); there is no memoization and the only
    pruning is nonnegativity, which keeps this implementation independent of
    the DP. Heights above the cap (default 24) are refused; pass max_height
    to override.
    """
    if xi.rank != rank:
        raise ValueError(f"rank mismatch: {rank} vs weight of rank {xi.rank}")
    if any(c < 0 for c in xi.coords):
        return QPolynomial.zero()
    if xi.is_zero:
        return QPolynomial.one()
    h = height(xi)
    cap = DEFAULT_ORACLE_HEIGHT_CAP if max_height is None else max_height
    if h > cap:
        raise CapacityError(
            f"oracle enumeration for a weight of height {h} exceeds the cap of {cap}; "
            f"no flag raises it, but a library caller may pass max_height"
        )
    # the positive roots as (i, j) index pairs, lexicographic
    spans = [(i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]
    counts = [0] * (h + 1)
    _oracle_dfs(spans, counts, len(spans) - 1, xi.coords, 0)
    return QPolynomial(counts)


def _oracle_dfs(spans, counts, hi: int, rem: tuple[int, ...], depth: int) -> None:
    """Count into counts[n] the decompositions of rem into n more roots, from spans[:hi+1].

    A module-level function, not a closure that calls itself: such a closure
    is a reference cycle, which keeps each call's spans alive until a full
    garbage collection (the oracle on [1, 1] at ranks 1..300 reached 340 MB).
    """
    for t in range(hi, -1, -1):
        i0, j0 = spans[t]
        ok = True
        for k in range(i0 - 1, j0):
            if rem[k] == 0:
                ok = False
                break
        if not ok:
            continue
        nxt = tuple(
            c - 1 if i0 - 1 <= k < j0 else c for k, c in enumerate(rem)
        )
        if any(nxt):
            _oracle_dfs(spans, counts, t, nxt, depth + 1)
        else:
            counts[depth + 1] += 1


def consecutive_closed_form(s: int) -> QPolynomial:
    """q(1+q)^(s-1): the partition q-analog of any height-s interval root.

    An interval root of height s splits into consecutive blocks in exactly
    C(s-1, y-1) ways using y parts, hence the binomial coefficients.
    """
    if s < 1:
        raise ValueError(f"interval height must be >= 1, got {s}")
    return QPolynomial((0,) + tuple(comb(s - 1, y) for y in range(s)))
