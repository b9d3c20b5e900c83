"""q-multiplicities: alternating sums, per-element closed forms, the q-power law."""

import functools
import json

import pytest
from hypothesis import given, settings, strategies as st

import kostant.alternation
import kostant.multiplicity
from kostant import (
    CapacityError,
    MultiplicityReport,
    QPolynomial,
    RootInterval,
    Weight,
    alt_cardinality,
    alt_set_bruteforce,
    alt_set_characterized,
    apply,
    closed_form_term,
    enumerate_all,
    fibonacci,
    from_word,
    highest_root,
    interval_root,
    kostant_q,
    predicted_q_multiplicity,
    q_multiplicity,
    q_multiplicity_closed,
    shifted_action,
    zero_weight,
)
from kostant.alternation import pruned_survivors, survivors
from kostant.cli import run
from kostant.multiplicity import _exponents


def _all_intervals(r):
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            yield RootInterval(r, i, j)


def test_known_q_multiplicities():
    rep = q_multiplicity(3, highest_root(3), interval_root(RootInterval(3, 2, 2)))
    assert rep.q_multiplicity.coeffs == (0, 0, 1)  # q^2
    rep = q_multiplicity(2, highest_root(2), highest_root(2))
    assert rep.q_multiplicity == QPolynomial.one()
    rep = q_multiplicity(2, highest_root(2), zero_weight(2))
    assert rep.q_multiplicity.coeffs == (0, 1, 1)  # q + q^2


def test_multiplicity_at_one_examples():
    iv = interval_root(RootInterval(4, 2, 3))
    assert q_multiplicity(4, highest_root(4), iv).q_multiplicity.evaluate(1) == 1
    assert q_multiplicity(3, highest_root(3), highest_root(3)).q_multiplicity.evaluate(1) == 1
    # a non-dominant Weyl image of a root has the same multiplicity
    mu = apply(from_word(3, (1,)), interval_root(RootInterval(3, 1, 1)))  # -alpha_1
    assert mu.coords == (-1, 0, 0)
    assert q_multiplicity(3, highest_root(3), mu).q_multiplicity.evaluate(1) == 1


@pytest.mark.parametrize(
    "coords,coeffs",
    [
        ((0, 0, 0), (0, 1, 1, 1)),  # the zero weight: q + q^2 + q^3
        ((1, 0, 1), (-1, 1)),  # e gives P_q(alpha_2) = q, s_2 gives -P_q(0)
        ((2, 1, 0), ()),  # lam - mu has a negative coordinate: no term at all
        ((1, -1, 1), (0, -1, 1)),  # e gives P_q(2 alpha_2) = q^2, s_2 gives -q
        ((0, 2, 0), ()),
    ],
)
def test_full_sum_on_weights_that_are_not_interval_roots(coords, coeffs):
    # the adjoint module's weights are the roots and 0, so a weight that is
    # neither has multiplicity 0 at q = 1, though its q-analog need not vanish
    rep = q_multiplicity(3, highest_root(3), Weight(3, coords))
    assert rep.q_multiplicity.coeffs == coeffs
    assert rep.q_multiplicity.evaluate(1) == (3 if coords == (0, 0, 0) else 0)


def test_report_fields():
    rep = q_multiplicity(3, highest_root(3), interval_root(RootInterval(3, 2, 2)))
    assert isinstance(rep, MultiplicityReport)
    assert list(type(rep)._fields) == ["q_multiplicity", "term_count"]
    assert rep.q_multiplicity.evaluate(1) == 1
    assert rep.term_count == alt_cardinality(RootInterval(3, 2, 2))


def test_q_power_law_through_rank_5_by_full_sum():
    for r in range(1, 6):
        lam = highest_root(r)
        for iv in _all_intervals(r):
            rep = q_multiplicity(r, lam, interval_root(iv))
            assert rep.q_multiplicity == predicted_q_multiplicity(iv), iv


def test_zero_weight_q_multiplicity_is_qsum():
    for r in range(1, 5):
        rep = q_multiplicity(r, highest_root(r), zero_weight(r))
        assert rep.q_multiplicity.coeffs == (0,) + (1,) * r


@functools.cache
def _gaussian(n, k):
    """The Gaussian binomial [n, k]_q by q-Pascal: [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k < 0 or k > n:
        return QPolynomial.zero()
    if n == 0:
        return QPolynomial.one()
    return _gaussian(n - 1, k - 1) + QPolynomial.monomial(k) * _gaussian(n - 1, k)


def test_twice_the_highest_root_at_interval_roots_through_rank_9():
    # m_q(2 alpha~, [i, j]) = q^(r + 1 - h) [r]_q, h = j - i + 1, and [r]_q = [r, 1]_q
    for r in range(1, 10):
        lam = Weight(r, (2,) * r)
        for iv in _all_intervals(r):
            h = iv.j - iv.i + 1
            rep = q_multiplicity(r, lam, interval_root(iv))
            assert rep.q_multiplicity == QPolynomial.monomial(r + 1 - h) * _gaussian(r, 1), iv


def test_twice_the_highest_root_at_zero_through_rank_10():
    # m_q(2 alpha~, 0) = q^2 [r + 1 choose 2]_q
    assert _gaussian(4, 2).coeffs == (1, 1, 2, 1, 1)
    for r in range(1, 11):
        rep = q_multiplicity(r, Weight(r, (2,) * r), zero_weight(r))
        assert rep.q_multiplicity == QPolynomial.monomial(2) * _gaussian(r + 1, 2), r


def test_negative_interval_roots_by_full_sum_through_rank_10():
    # past the paper's positive roots: m_q(highest root, -[i, j]) = q^(r+h) + q^(r+h-1) - q^h
    for r in range(1, 11):
        lam = highest_root(r)
        for iv in _all_intervals(r):
            h = iv.height
            expected = (QPolynomial.monomial(r + h) + QPolynomial.monomial(r + h - 1)
                        - QPolynomial.monomial(h))
            assert q_multiplicity(r, lam, -interval_root(iv)).q_multiplicity == expected, iv


def test_alternation_set_of_minus_alpha_1_is_fibonacci_through_rank_12():
    for r in range(1, 13):
        mu = -interval_root(RootInterval(r, 1, 1))
        assert len(pruned_survivors(highest_root(r), mu)) == fibonacci(r + 1), r


def test_alternation_sets_of_minus_1_to_j_at_rank_7():
    lam = highest_root(7)
    counts = []
    for j in range(1, 8):
        mu = -interval_root(RootInterval(7, 1, j))
        found = pruned_survivors(lam, mu)
        counts.append(len(found))
        # the pruned search and the literal scan both run the shifted action on a negative mu
        assert frozenset(sigma for sigma, _ in found) == alt_set_bruteforce(7, lam, mu).elements, j
    assert counts == [21, 24, 34, 47, 63, 82, 119]


def test_alternation_set_of_minus_1_to_4_is_lucas_at_ranks_4_to_12():
    # |A(highest root, -[1, 4])| = L_(r+1) = F_r + F_(r+2): 11, 18, 29, ..., 521
    counts = []
    for r in range(4, 13):
        lam, mu = highest_root(r), -interval_root(RootInterval(r, 1, 4))
        found = pruned_survivors(lam, mu)
        counts.append(len(found))
        if r < 7:  # rank 7 is [1, 4] of the test above
            brute = alt_set_bruteforce(r, lam, mu).elements
            assert frozenset(sigma for sigma, _ in found) == brute, r
    assert counts == [fibonacci(r) + fibonacci(r + 2) for r in range(4, 13)]
    assert counts == [11, 18, 29, 47, 76, 123, 199, 322, 521]


def test_full_sum_past_the_old_rank_cap():
    # no cap argument: only the search's node budget bounds the full sum
    for r in range(1, 17):
        rep = q_multiplicity(r, highest_root(r), zero_weight(r))
        assert rep.q_multiplicity.coeffs == (0,) + (1,) * r, r
    for r in range(9, 14):
        lam = highest_root(r)
        for iv in _all_intervals(r):
            rep = q_multiplicity(r, lam, interval_root(iv))
            assert rep.q_multiplicity == predicted_q_multiplicity(iv), iv
            assert rep.term_count == alt_cardinality(iv)


def test_a_refused_full_sum_computes_no_partition_polynomial(monkeypatch):
    # the search runs to the end before the DP, so a refusal wastes no DP work
    monkeypatch.setattr(kostant.alternation, "SEARCH_NODE_BUDGET", 100)
    calls = []
    monkeypatch.setattr(kostant.multiplicity, "kostant_q", lambda *args: calls.append(args))
    with pytest.raises(CapacityError, match="more than 100 nodes"):
        q_multiplicity(12, highest_root(12), zero_weight(12))  # 520 nodes
    assert calls == []


def test_a_refused_full_sum_builds_no_leaf(monkeypatch):
    # the search runs once without building a leaf, so a refusal at any rank builds no element
    def no_leaf(*args):
        raise AssertionError("a leaf was built")

    monkeypatch.setattr(kostant.alternation, "_element", no_leaf)
    with pytest.raises(CapacityError, match="at rank 1200 visited more than 131072 nodes"):
        q_multiplicity(1200, highest_root(1200), zero_weight(1200))


def _lam_mu_pairs():
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(st.integers(min_value=0, max_value=3), min_size=r, max_size=r),
            st.lists(st.integers(min_value=-1, max_value=2), min_size=r, max_size=r),
        )
    )


@settings(max_examples=60, deadline=None)
@given(_lam_mu_pairs())
def test_survivor_filter_matches_the_literal_weyl_sum(case):
    # the definition: sigma is kept iff its partition polynomial is nonzero
    r, lam_coords, mu_coords = case
    lam, mu = Weight(r, tuple(lam_coords)), Weight(r, tuple(mu_coords))
    members, total = set(), QPolynomial.zero()
    for sigma in enumerate_all(r):
        p = kostant_q(r, shifted_action(sigma, lam) - mu)
        if p:
            members.add(sigma)
            total = total + (p if sigma.sign > 0 else -p)
    assert alt_set_bruteforce(r, lam, mu).elements == members
    rep = q_multiplicity(r, lam, mu, "kwmf_full")
    assert rep.q_multiplicity == total
    assert rep.term_count == len(members)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=16).flatmap(
        lambda r: st.tuples(st.just(r), st.integers(1, r)).flatmap(
            lambda ri: st.tuples(st.just(ri[0]), st.just(ri[1]), st.integers(ri[1], ri[0]))
        )
    )
)
def test_every_route_agrees_on_random_intervals(rij):
    iv = RootInterval(*rij)
    r, lam, mu = iv.rank, highest_root(iv.rank), interval_root(iv)
    full = q_multiplicity(r, lam, mu, "kwmf_full")
    expected = predicted_q_multiplicity(iv)
    assert full.q_multiplicity == q_multiplicity_closed(iv) == expected
    assert full.term_count == alt_cardinality(iv)


@settings(max_examples=80, deadline=None)
@given(_lam_mu_pairs())
def test_pruned_search_matches_the_literal_scan(case):
    r, lam_coords, mu_coords = case
    lam, mu = Weight(r, tuple(lam_coords)), Weight(r, tuple(mu_coords))
    literal = {(s.perm, xi) for s, xi in survivors(lam, mu, enumerate_all(r))}
    assert {(s.perm, xi) for s, xi in pruned_survivors(lam, mu)} == literal


def _search_nodes(r, lam_coords, mu_coords):
    """The prefixes sigma^-1(1..k), k = 0..r, of the group's elements whose every sum passes.

    Computed from the definition, independently of the search: the epsilon
    entries of 2 lam + 2 rho, taken in the order sigma^-1 puts them, must
    keep each prefix sum at or above 2 rho_k + 2 mu_k.
    """
    two_rho = [k * (r + 1 - k) for k in range(1, r + 1)]
    doubled = [2 * c + t for c, t in zip(lam_coords, two_rho)]
    eps = [a - b for a, b in zip(doubled + [0], [0] + doubled)]
    floors = [t + 2 * m for t, m in zip(two_rho, mu_coords)]
    prefixes = {()}
    for sigma in enumerate_all(r):
        inverse = sorted(range(r + 1), key=lambda x: sigma.perm[x])
        total = 0
        for k in range(r):
            total += eps[inverse[k]]
            if total < floors[k]:
                break
            prefixes.add(tuple(inverse[:k + 1]))
    return len(prefixes)


@settings(max_examples=60, deadline=None)
@given(_lam_mu_pairs())
def test_the_search_enters_exactly_the_prefixes_that_pass(case):
    r, lam_coords, mu_coords = case
    lam, mu = Weight(r, tuple(lam_coords)), Weight(r, tuple(mu_coords))
    nodes = _search_nodes(r, lam_coords, mu_coords)
    literal = {(s.perm, xi) for s, xi in survivors(lam, mu, enumerate_all(r))}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kostant.alternation, "SEARCH_NODE_BUDGET", nodes)
        assert {(s.perm, xi) for s, xi in pruned_survivors(lam, mu)} == literal
        mp.setattr(kostant.alternation, "SEARCH_NODE_BUDGET", nodes - 1)
        with pytest.raises(CapacityError, match=f"more than {nodes - 1} nodes"):
            pruned_survivors(lam, mu)


# --------------------------------------------------------- closed-form route


def test_closed_form_term_known_values():
    iv = RootInterval(5, 1, 2)
    assert closed_form_term(iv, from_word(5, ())).coeffs == (0, 1, 2, 1)  # q(1+q)^2
    assert closed_form_term(iv, from_word(5, (3,))).coeffs == (0, 1, 1)  # q(1+q)
    iv = RootInterval(7, 3, 4)
    assert closed_form_term(iv, from_word(7, [2, 5])).coeffs == (0, 0, 1, 1)  # q^2(1+q)
    assert closed_form_term(iv, from_word(7, ())).coeffs == (0, 0, 1, 3, 3, 1)  # q^2(1+q)^3


def test_closed_form_term_full_interval_is_one():
    assert closed_form_term(RootInterval(4, 1, 4), from_word(4, ())) == QPolynomial.one()


def test_closed_form_term_matches_partition_polynomial_through_rank_6():
    for r in range(1, 7):
        lam = highest_root(r)
        for iv in _all_intervals(r):
            mu = interval_root(iv)
            for sigma in alt_set_characterized(iv):
                direct = kostant_q(r, shifted_action(sigma, lam) - mu)
                assert closed_form_term(iv, sigma) == direct, (iv, sigma)


def test_closed_form_term_degree_bookkeeping():
    # lowest exponent >= length, degree = rank - interval height - length
    for r in range(1, 8):
        for iv in _all_intervals(r):
            for sigma in alt_set_characterized(iv):
                p = closed_form_term(iv, sigma)
                low = next(d for d, c in enumerate(p.coeffs) if c)
                assert low >= sigma.length
                assert p.degree == r - iv.height - sigma.length


def test_closed_form_term_rejects_non_members():
    iv = RootInterval(7, 3, 4)
    with pytest.raises(ValueError):
        closed_form_term(iv, from_word(7, (3,)))  # inside the interval
    with pytest.raises(ValueError):
        closed_form_term(iv, from_word(7, (1,)))  # generator 1 never occurs
    with pytest.raises(ValueError):
        closed_form_term(iv, from_word(7, [5, 6]))  # consecutive support
    with pytest.raises(ValueError):
        closed_form_term(iv, from_word(6, ()))  # rank mismatch


def test_closed_form_term_accepts_exactly_the_characterized_set_through_rank_5():
    # the membership check and the generated set both read alternation.sides
    for r in range(1, 6):
        group = list(enumerate_all(r))
        for iv in _all_intervals(r):
            members = alt_set_characterized(iv).elements
            for sigma in group:
                try:
                    closed_form_term(iv, sigma)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == (sigma in members), (iv, sigma.reduced_word())


def test_grouped_closed_sum_equals_per_element_sum_through_rank_9():
    for r in range(1, 10):
        for iv in _all_intervals(r):
            per_element = QPolynomial.zero()
            for sigma in alt_set_characterized(iv):
                term = closed_form_term(iv, sigma)
                per_element = per_element + (term if sigma.sign > 0 else -term)
            assert q_multiplicity_closed(iv) == per_element, iv


def test_q_power_law_by_closed_route_through_rank_12():
    for r in range(1, 13):
        for iv in _all_intervals(r):
            assert q_multiplicity_closed(iv) == predicted_q_multiplicity(iv), iv


def test_closed_route_known_values():
    assert q_multiplicity_closed(RootInterval(5, 1, 2)).pretty() == "q^3"
    assert q_multiplicity_closed(RootInterval(25, 10, 12)).pretty() == "q^22"
    assert predicted_q_multiplicity(RootInterval(25, 10, 12)).coeffs == (0,) * 22 + (1,)


def test_closed_route_has_no_subset_cap():
    # the right-hand ground set {2..39} has F_40 nonconsecutive subsets
    assert q_multiplicity_closed(RootInterval(40, 1, 1)) == QPolynomial.monomial(39)
    assert q_multiplicity_closed(RootInterval(100, 40, 45)) == QPolynomial.monomial(94)


def test_exponents_reject_a_negative_b():
    with pytest.raises(RuntimeError, match="b = -1"):
        _exponents(5, 2, 2, 0)  # b = 5 - 2 - 4 = -1


def test_closed_form_report(capsys):
    # the closed route as the CLI reports it: method tag and term count
    assert run(["qmult", "--rank", "7", "--mu", "3..4", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)["result"]["routes"]["closed"]
    assert rep["method"] == "closed_form"
    assert rep["term_count"] == alt_cardinality(RootInterval(7, 3, 4)) == 6
    assert rep["pretty"] == q_multiplicity_closed(RootInterval(7, 3, 4)).pretty() == "q^5"
    assert rep["multiplicity_at_one"] == 1


def test_method_validation():
    lam, mu = highest_root(3), interval_root(RootInterval(3, 2, 2))
    # "kwmf_full" is the only method; any other name, "kwmf_altset" too, is refused
    for method in ("nope", "kwmf_altset"):
        with pytest.raises(ValueError, match="method must be 'kwmf_full'"):
            q_multiplicity(3, lam, mu, method=method)
    with pytest.raises(ValueError):
        q_multiplicity(3, lam, interval_root(RootInterval(2, 1, 1)))
