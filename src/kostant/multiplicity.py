"""q-weight multiplicities for the adjoint representation of sl(r+1).

The q-multiplicity of mu in the highest-weight-lam module is the alternating
sum over the Weyl group

    m_q(lam, mu) = sum_sigma sign(sigma) * P_q(sigma(lam + rho) - rho - mu),

where P_q is the partition q-analog. Evaluating at q = 1 gives the ordinary
weight multiplicity. Three evaluation routes are implemented, deliberately
sharing as little as possible so they can check one another:

* method "kwmf_full": the sum over the whole group, run as a pruned search
  that never builds an element whose term is zero; the search, not the
  rank, is bounded, by a fixed budget of visited nodes.
* method "kwmf_altset": the same sum restricted to the characterized
  alternation set; only valid for lam = highest root and mu an interval
  root, where the omitted terms are exactly the zero ones.
* the closed route: for lam = highest root and mu the interval [i, j], each
  alternation-set element sigma has a partition polynomial in closed form
  q^a (1+q)^b (see `closed_form_term`), and the signed sum of those closed
  forms telescopes. For every interval the result is the single monomial
  q^(r - height(mu)), which `predicted_q_multiplicity` returns directly.

Both "kwmf" sums compute P_q only on the nonzero terms: a term is nonzero
exactly when sigma(lam + rho) - rho - mu is nonnegative. "kwmf_full" finds
those elements with `alternation.pruned_survivors`, which fixes sigma one
slot at a time and drops a branch once a coordinate goes negative, so it
never builds the (r+1)! elements; "kwmf_altset" runs the same sign test,
`alternation.survivors`, over the characterized set.

The closed form per element: with h = height(mu) and l the length of sigma,
the exponents are a = l + (number of ABSENT boundary generators) and
b = r - h - 2l - (that same number), where the boundary generators are
s_{i-1} (present as a possibility only when i > 1) and s_{j+1} (only when
j < r), as `alternation.sides` describes them. Both exponents are provably
nonnegative on valid input; a negative one raises RuntimeError.
"""

from math import comb

from .alternation import alt_set_characterized, pruned_survivors, side_tally, sides, survivors
from .partition import QPolynomial, kostant_q
from .weights import RootInterval, Value, Weight, as_interval, highest_root
from .weyl import WeylElement


class MultiplicityReport(Value):
    """A q-multiplicity together with how it was computed.

    method names the route that produced it, "kwmf_full" or "kwmf_altset".
    term_count is the number of group elements that contributed a nonzero
    summand (for lam = highest root this is the alternation set size).
    """

    __slots__ = _fields = ("q_multiplicity", "method", "term_count")

    def __init__(self, q_multiplicity: QPolynomial, method: str, term_count: int):
        self._fill(q_multiplicity, method, term_count)

    @property
    def multiplicity_at_one(self) -> int:
        return self.q_multiplicity.evaluate(1)


def _signed_sum(rank: int, pairs) -> tuple[QPolynomial, int]:
    """Sum sign(sigma) * P_q(xi) over the (sigma, xi) pairs of the nonzero terms."""
    total, terms = QPolynomial.zero(), 0
    for sigma, xi in pairs:
        p = kostant_q(rank, Weight(rank, xi))
        total = total + p if sigma.sign > 0 else total - p
        terms += 1
    return total, terms


def q_multiplicity(
    rank: int, lam: Weight, mu: Weight, method: str = "kwmf_full"
) -> MultiplicityReport:
    """Alternating Weyl sum for m_q(lam, mu).

    "kwmf_full" accepts any root-lattice lam and mu. Its search runs to the
    end before any partition polynomial is computed, so a query past the
    search's node budget raises CapacityError having done no DP work.
    "kwmf_altset" requires lam = highest root and mu an interval root and
    sums over the characterized alternation set instead.
    """
    if lam.rank != rank or mu.rank != rank:
        raise ValueError(
            f"rank mismatch: rank={rank}, lam rank {lam.rank}, mu rank {mu.rank}"
        )
    if method == "kwmf_full":
        pairs = list(pruned_survivors(lam, mu))
    elif method == "kwmf_altset":
        if lam != highest_root(rank):
            raise ValueError("kwmf_altset requires lam to be the highest root")
        iv = as_interval(mu)
        if iv is None:
            raise ValueError(f"kwmf_altset requires mu to be an interval root, got {mu.coords}")
        pairs = survivors(lam, mu, alt_set_characterized(iv))
    else:
        raise ValueError(f"method must be 'kwmf_full' or 'kwmf_altset', got {method!r}")
    poly, terms = _signed_sum(rank, pairs)
    return MultiplicityReport(poly, method, terms)


def _exponents(r: int, h: int, length: int, absent: int) -> tuple[int, int]:
    """(a, b) of the closed form q^a (1+q)^b; b < 0 means the input was invalid."""
    b = r - h - 2 * length - absent
    if b < 0:
        raise RuntimeError(f"closed-form exponent b = {b} went negative")
    return length + absent, b


def _term_poly(r: int, h: int, length: int, absent: int) -> QPolynomial:
    a, b = _exponents(r, h, length, absent)
    return QPolynomial((0,) * a + tuple(comb(b, y) for y in range(b + 1)))


def closed_form_term(iv: RootInterval, sigma: WeylElement) -> QPolynomial:
    """The partition polynomial of sigma's shifted image, in closed form.

    sigma must belong to the characterized alternation set of the interval
    (support inside the two generator ranges, pairwise nonconsecutive);
    membership is validated. The value is q^a (1+q)^b with a = length +
    #absent boundary generators and b = r - h - 2*length - #absent.
    """
    r = iv.rank
    if sigma.rank != r:
        raise ValueError(f"rank mismatch: interval rank {r} vs element rank {sigma.rank}")
    left, right = sides(iv)
    supp = sorted(sigma.support)
    outside = [x for x in supp if x not in left.letters and x not in right.letters]
    if outside or any(b - a < 2 for a, b in zip(supp, supp[1:])):
        raise ValueError(f"element with support {supp} is not in the alternation set of {iv}")
    absent = sum(
        1 for side in (left, right)
        if side.boundary is not None and side.boundary not in sigma.support
    )
    return _term_poly(r, iv.height, sigma.length, absent)


def q_multiplicity_closed(iv: RootInterval) -> QPolynomial:
    """Signed sum of closed_form_term over the characterized alternation set.

    Elements split as (left choice, right choice) with the two sides
    independent, and each side's term data reduces to (letters used,
    boundary letter present), so both sides are tallied by binomial counts
    and crossed into one signed (length, #absent boundary letters) tally;
    each cell then contributes one closed-form term. This is the same finite
    sum as iterating the elements, reassociated, and nothing is enumerated,
    so there is no rank cap.
    """
    r = iv.rank
    left, right = sides(iv)
    n_boundary = (left.boundary is not None) + (right.boundary is not None)
    right_tally = side_tally(right)
    cells: dict[tuple[int, int], int] = {}
    for kl, has_l, cl in side_tally(left):
        for kr, has_r, cr in right_tally:
            key = (kl + kr, n_boundary - has_l - has_r)
            cells[key] = cells.get(key, 0) + cl * cr
    total: list[int] = [0] * (r - iv.height + 1)
    for (length, absent), count in cells.items():
        weight = count if length % 2 == 0 else -count
        a, b = _exponents(r, iv.height, length, absent)
        for y in range(b + 1):
            total[a + y] += weight * comb(b, y)
    return QPolynomial(total)


def predicted_q_multiplicity(iv: RootInterval) -> QPolynomial:
    """The expected value q^(r - height(mu)) for mu an interval root of A_r."""
    return QPolynomial.monomial(iv.rank - iv.height)
