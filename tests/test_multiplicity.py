"""q-multiplicities: alternating sums, per-element closed forms, the q-power law."""

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
    from_word,
    highest_root,
    identity,
    interval_root,
    kostant_q,
    predicted_q_multiplicity,
    q_multiplicity,
    q_multiplicity_closed,
    shifted_action,
    simple_reflection,
    simple_root,
    zero_weight,
)
from kostant.alternation import pruned_survivors, survivors
from kostant.cli import run
from kostant.multiplicity import _term_poly


def _all_intervals(r):
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            yield RootInterval(r, i, j)


def test_known_q_multiplicities():
    rep = q_multiplicity(3, highest_root(3), simple_root(3, 2))
    assert rep.q_multiplicity.coeffs == (0, 0, 1)  # q^2
    rep = q_multiplicity(2, highest_root(2), highest_root(2))
    assert rep.q_multiplicity == QPolynomial.one()
    rep = q_multiplicity(2, highest_root(2), zero_weight(2))
    assert rep.q_multiplicity.coeffs == (0, 1, 1)  # q + q^2


def test_multiplicity_at_one_examples():
    iv = interval_root(RootInterval(4, 2, 3))
    assert q_multiplicity(4, highest_root(4), iv).multiplicity_at_one == 1
    assert q_multiplicity(3, highest_root(3), highest_root(3)).multiplicity_at_one == 1
    # a non-dominant Weyl image of a root has the same multiplicity
    mu = apply(simple_reflection(3, 1), simple_root(3, 1))  # -alpha_1
    assert mu.coords == (-1, 0, 0)
    assert q_multiplicity(3, highest_root(3), mu).multiplicity_at_one == 1


def test_report_fields():
    rep = q_multiplicity(3, highest_root(3), simple_root(3, 2))
    assert isinstance(rep, MultiplicityReport)
    assert list(type(rep)._fields) == ["q_multiplicity", "method", "term_count"]
    assert rep.method == "kwmf_full"
    assert rep.multiplicity_at_one == rep.q_multiplicity.evaluate(1) == 1
    assert rep.term_count == alt_cardinality(RootInterval(3, 2, 2))


def test_full_and_altset_methods_agree_through_rank_5():
    for r in range(1, 6):
        lam = highest_root(r)
        for iv in _all_intervals(r):
            mu = interval_root(iv)
            full = q_multiplicity(r, lam, mu, method="kwmf_full")
            restricted = q_multiplicity(r, lam, mu, method="kwmf_altset")
            assert full.q_multiplicity == restricted.q_multiplicity, iv
            assert full.term_count == restricted.term_count == alt_cardinality(iv)
            assert restricted.method == "kwmf_altset"


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
    restricted = q_multiplicity(r, lam, mu, "kwmf_altset")
    expected = predicted_q_multiplicity(iv)
    assert full.q_multiplicity == restricted.q_multiplicity == expected
    assert q_multiplicity_closed(iv) == expected
    assert full.term_count == restricted.term_count == alt_cardinality(iv)


@settings(max_examples=80, deadline=None)
@given(_lam_mu_pairs())
def test_pruned_search_matches_the_literal_scan(case):
    r, lam_coords, mu_coords = case
    lam, mu = Weight(r, tuple(lam_coords)), Weight(r, tuple(mu_coords))
    literal = {(s.perm, xi) for s, xi in survivors(lam, mu, enumerate_all(r))}
    assert {(s.perm, xi) for s, xi in pruned_survivors(lam, mu)} == literal


# --------------------------------------------------------- closed-form route


def test_closed_form_term_known_values():
    iv = RootInterval(5, 1, 2)
    assert closed_form_term(iv, identity(5)).coeffs == (0, 1, 2, 1)  # q(1+q)^2
    assert closed_form_term(iv, simple_reflection(5, 3)).coeffs == (0, 1, 1)  # q(1+q)
    iv = RootInterval(7, 3, 4)
    assert closed_form_term(iv, from_word(7, [2, 5])).coeffs == (0, 0, 1, 1)  # q^2(1+q)
    assert closed_form_term(iv, identity(7)).coeffs == (0, 0, 1, 3, 3, 1)  # q^2(1+q)^3


def test_closed_form_term_full_interval_is_one():
    assert closed_form_term(RootInterval(4, 1, 4), identity(4)) == QPolynomial.one()


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
        closed_form_term(iv, simple_reflection(7, 3))  # inside the interval
    with pytest.raises(ValueError):
        closed_form_term(iv, simple_reflection(7, 1))  # generator 1 never occurs
    with pytest.raises(ValueError):
        closed_form_term(iv, from_word(7, [5, 6]))  # consecutive support
    with pytest.raises(ValueError):
        closed_form_term(iv, identity(6))  # rank mismatch


def test_closed_form_term_accepts_exactly_the_characterized_set_through_rank_5():
    # the membership check and the generated set both read alternation.sides
    for r in range(1, 6):
        group = list(enumerate_all(r))
        for iv in _all_intervals(r):
            members = alt_set_characterized(iv)
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


def test_term_poly_rejects_a_negative_exponent():
    assert _term_poly(5, 2, 0, 2) == QPolynomial((0, 0, 1, 1))  # q^2 (1+q)
    with pytest.raises(RuntimeError):
        _term_poly(5, 2, 2, 0)  # b = 5 - 2 - 4 = -1


def test_closed_form_report(capsys):
    # the closed route as the CLI reports it: method tag and term count
    assert run(["qmult", "--rank", "7", "--mu", "3..4", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)["result"]["routes"]["closed"]
    assert rep["method"] == "closed_form"
    assert rep["term_count"] == alt_cardinality(RootInterval(7, 3, 4)) == 6
    assert rep["pretty"] == q_multiplicity_closed(RootInterval(7, 3, 4)).pretty() == "q^5"
    assert rep["multiplicity_at_one"] == 1


def test_method_validation():
    lam, mu = highest_root(3), simple_root(3, 2)
    with pytest.raises(ValueError):
        q_multiplicity(3, lam, mu, method="nope")
    with pytest.raises(ValueError):
        q_multiplicity(3, simple_root(3, 1), mu, method="kwmf_altset")
    with pytest.raises(ValueError):
        q_multiplicity(3, lam, zero_weight(3), method="kwmf_altset")
    with pytest.raises(ValueError):
        q_multiplicity(3, lam, simple_root(2, 1))
