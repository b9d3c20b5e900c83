"""q-weight multiplicities for the adjoint representation of sl(r+1).

The q-multiplicity of mu in the highest-weight-lam module is the alternating
sum over the Weyl group

    m_q(lam, mu) = sum_sigma sign(sigma) * P_q(sigma(lam + rho) - rho - mu),

where P_q is the partition q-analog. Evaluating at q = 1 gives the ordinary
weight multiplicity. Two evaluation routes and a prediction are
implemented, deliberately sharing as little as possible so they can check
one another:

* `q_multiplicity`: the sum over the whole group, run as a pruned search
  that never builds an element whose term is zero; the search, not the
  rank, is bounded, by a fixed budget of visited nodes.
* the closed route: for lam = highest root and mu the interval [i, j], each
  alternation-set element sigma has a partition polynomial in closed form
  q^a (1+q)^b (see `closed_form_term`), and the signed sum of those closed
  forms telescopes. No cap refuses the closed route, but its time grows
  faster than r^3.
* the prediction: for every interval the result is the single monomial
  q^(r - height(mu)), which `predicted_q_multiplicity` returns directly.

The full sum computes P_q only on the nonzero terms: a term is nonzero
exactly when sigma(lam + rho) - rho - mu is nonnegative.
`alternation.pruned_survivors`, the one search entry, finds those elements
by fixing sigma one slot at a time and dropping a branch once a coordinate
goes negative, so it never builds the (r+1)! elements, and builds none at
all when the search is refused.

The closed form per element: with h = height(mu) and l the length of sigma,
the exponents are a = l + (number of ABSENT boundary generators) and
b = r - h - 2l - (that same number), where the boundary generators are
s_{i-1} (present as a possibility only when i > 1) and s_{j+1} (only when
j < r), as `alternation.sides` describes them. Both exponents are provably
nonnegative on valid input; a negative one raises RuntimeError.
"""

from math import comb

from .alternation import pruned_survivors, side_tally, sides
from .partition import QPolynomial, kostant_q
from .weights import RootInterval, Value, Weight
from .weyl import WeylElement


class MultiplicityReport(Value):
    """A q-multiplicity together with the number of its nonzero terms.

    term_count is the number of group elements that contributed a nonzero
    summand (for lam = highest root this is the alternation set size).
    """

    __slots__ = _fields = ("q_multiplicity", "term_count")

    def __init__(self, q_multiplicity: QPolynomial, term_count: int):
        self._fill(q_multiplicity, term_count)

    @property
    def multiplicity_at_one(self) -> int:
        return self.q_multiplicity.evaluate(1)


def q_multiplicity(
    rank: int, lam: Weight, mu: Weight, method: str = "kwmf_full"
) -> MultiplicityReport:
    """Alternating Weyl sum for m_q(lam, mu), for any root-lattice lam and mu.

    The nonzero terms come from `alternation.pruned_survivors`, which
    runs its search to the end once without building any element before it
    builds them. So a query past the search's node budget raises
    CapacityError having built no element and computed no partition
    polynomial, at any rank. `method` takes only "kwmf_full"; the package
    never passes it, and it stays for perfbench's session, which does.
    """
    if method != "kwmf_full":
        raise ValueError(f"method must be 'kwmf_full', got {method!r}")
    if lam.rank != rank or mu.rank != rank:
        raise ValueError(
            f"rank mismatch: rank={rank}, lam rank {lam.rank}, mu rank {mu.rank}"
        )
    pairs = pruned_survivors(lam, mu)
    total = QPolynomial.zero()
    for sigma, xi in pairs:
        p = kostant_q(rank, Weight(rank, xi))
        total = total + p if sigma.sign > 0 else total - p
    return MultiplicityReport(total, len(pairs))


def _exponents(r: int, h: int, length: int, absent: int) -> tuple[int, int]:
    """(a, b) of the closed form q^a (1+q)^b; b < 0 means the input was invalid."""
    b = r - h - 2 * length - absent
    if b < 0:
        raise RuntimeError(f"closed-form exponent b = {b} went negative")
    return length + absent, b


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
    supp = sorted(sigma.reduced_word())  # a repeated letter fails the gap test too
    outside = [x for x in supp if x not in left.letters and x not in right.letters]
    if outside or any(b - a < 2 for a, b in zip(supp, supp[1:])):
        raise ValueError(f"element with letters {supp} is not in the alternation set of {iv}")
    absent = sum(
        1 for side in (left, right) if side.boundary is not None and side.boundary not in supp
    )
    a, b = _exponents(r, iv.height, len(supp), absent)
    return QPolynomial((0,) * a + tuple(comb(b, y) for y in range(b + 1)))


def q_multiplicity_closed(iv: RootInterval) -> QPolynomial:
    """Signed sum of closed_form_term over the characterized alternation set.

    Elements split as (left choice, right choice) with the two sides
    independent, and each side's term data reduces to (letters used,
    boundary letter present), so both sides are tallied by binomial counts
    and crossed into one signed (length, #absent boundary letters) tally;
    each cell then contributes one closed-form term. This is the same finite
    sum as iterating the elements, reassociated, and nothing is enumerated,
    so no cap refuses it; but each cell expands into b + 1 binomials of up
    to r bits, so on [1, 1] it takes about 7 s at rank 1000 and 34 s at
    rank 1500 (ROADMAP item 2 gives each side one monomial).
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
