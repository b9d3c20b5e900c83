"""Partition q-analog: polynomial type, DP evaluator, exhaustive oracle."""

import gc
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from kostant import (
    CapacityError,
    QPolynomial,
    RootInterval,
    Weight,
    consecutive_closed_form,
    height,
    highest_root,
    interval_root,
    kostant_q,
    kostant_q_oracle,
    zero_weight,
)
from kostant import partition


def _two_rho(r):
    """2 rho, the sum of all positive roots."""
    roots = (interval_root(RootInterval(r, i, j)) for i in range(1, r + 1) for j in range(i, r + 1))
    return sum(roots, zero_weight(r))


# ---------------------------------------------------------------- QPolynomial


def test_poly_normalization():
    assert QPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPolynomial((0, 0)).coeffs == ()
    assert QPolynomial.zero().is_zero
    assert not QPolynomial.one().is_zero
    assert QPolynomial.monomial(3).coeffs == (0, 0, 0, 1)
    assert QPolynomial.monomial(0) == QPolynomial.one()
    with pytest.raises(ValueError):
        QPolynomial.monomial(-1)
    with pytest.raises(TypeError):
        QPolynomial((1.5,))


def test_poly_degree():
    assert QPolynomial.zero().degree == -1
    assert QPolynomial.one().degree == 0
    assert QPolynomial((0, 1, 4)).degree == 2


def test_poly_arithmetic_examples():
    p = QPolynomial((0, 1, 1))  # q + q^2
    q = QPolynomial((1, 1))  # 1 + q
    assert (p + q).coeffs == (1, 2, 1)
    assert (p - p).is_zero
    assert (p * q).coeffs == (0, 1, 2, 1)
    assert (-p).coeffs == (0, -1, -1)
    assert p * QPolynomial.zero() == QPolynomial.zero()
    assert p.evaluate(1) == 2
    assert p.evaluate(2) == 6
    assert p.evaluate(-1) == 0


@settings(max_examples=200)
@given(
    st.lists(st.integers(-5, 5), max_size=6),
    st.lists(st.integers(-5, 5), max_size=6),
    st.lists(st.integers(-5, 5), max_size=6),
)
def test_poly_ring_laws(a, b, c):
    pa, pb, pc = QPolynomial(a), QPolynomial(b), QPolynomial(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) * pc == pa * pc + pb * pc
    assert (pa + pb).evaluate(3) == pa.evaluate(3) + pb.evaluate(3)
    assert (pa * pb).evaluate(3) == pa.evaluate(3) * pb.evaluate(3)


def test_poly_arithmetic_with_a_non_polynomial_is_a_type_error():
    one = QPolynomial.one()
    for other in (1, 2.0, None):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(TypeError):
                op(one, other)
            with pytest.raises(TypeError):
                op(other, one)
    assert one.__add__(1) is one.__sub__(1) is one.__mul__(1) is NotImplemented


def test_poly_pretty():
    assert QPolynomial.zero().pretty() == "0"
    assert QPolynomial.one().pretty() == "1"
    assert QPolynomial((0, 1)).pretty() == "q"
    assert QPolynomial((0, 1, 2, 1)).pretty() == "q + 2q^2 + q^3"
    assert QPolynomial((2, 0, 3)).pretty() == "2 + 3q^2"
    assert QPolynomial((0, 1, -2)).pretty() == "q - 2q^2"
    assert QPolynomial((-1, 1)).pretty() == "-1 + q"


def test_poly_hash():
    assert hash(QPolynomial((0, 1))) == hash(QPolynomial([0, 1]))


# ------------------------------------------------------------------ evaluators


def test_kostant_q_base_cases():
    assert kostant_q(3, zero_weight(3)) == QPolynomial.one()
    assert kostant_q(2, Weight(2, (-1, 0))).is_zero
    assert kostant_q(3, Weight(3, (1, -2, 1))).is_zero
    assert kostant_q(2, interval_root(RootInterval(2, 1, 1))).coeffs == (0, 1)


def test_kostant_q_known_values():
    # A_2 highest root: alpha_1 + alpha_2 as itself or as two simple roots
    assert kostant_q(2, highest_root(2)).coeffs == (0, 1, 1)
    # verified against the exhaustive oracle (five decompositions in A_3)
    assert kostant_q(3, Weight(3, (1, 2, 1))).coeffs == (0, 0, 2, 2, 1)
    assert kostant_q(3, Weight(3, (1, 2, 1))).evaluate(1) == 5
    # single root stacked three times in A_1
    assert kostant_q(1, Weight(1, (3,))).coeffs == (0, 0, 0, 1)
    assert kostant_q(4, highest_root(4)).evaluate(1) == 8


def test_oracle_known_values():
    assert kostant_q_oracle(3, Weight(3, (1, 2, 1))).coeffs == (0, 0, 2, 2, 1)
    assert kostant_q_oracle(1, Weight(1, (3,))).coeffs == (0, 0, 0, 1)
    assert kostant_q_oracle(3, zero_weight(3)) == QPolynomial.one()
    assert kostant_q_oracle(2, Weight(2, (-1, 0))).is_zero


def test_dp_matches_oracle_exhaustively_in_a3():
    for coords in product(range(3), repeat=3):
        xi = Weight(3, coords)
        assert kostant_q(3, xi) == kostant_q_oracle(3, xi), coords


def test_the_oracle_leaves_no_cyclic_garbage():
    # each call's positive roots are freed on return, not at the next full collection
    gc.collect()
    gc.disable()
    try:
        for r in range(1, 30):
            assert kostant_q_oracle(r, interval_root(RootInterval(r, 1, 1))).coeffs == (0, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=4, max_size=4))
def test_dp_matches_oracle_in_a4(coords):
    xi = Weight(4, tuple(coords))
    assert kostant_q(4, xi) == kostant_q_oracle(4, xi)


def test_top_coefficient_and_lowest_exponent():
    # the all-simple-roots decomposition is the unique largest one, so the
    # leading term is exactly q^height; no nonzero weight decomposes with
    # zero parts, so the constant term vanishes
    for coords in product(range(3), repeat=3):
        xi = Weight(3, coords)
        if xi.is_zero:
            continue
        p = kostant_q(3, xi)
        assert p.degree == height(xi)
        assert p.coeffs[-1] == 1
        assert p.coeffs[0] == 0


def test_translation_invariance_of_interval_polys():
    for r in range(1, 9):
        for s in range(1, r + 1):
            polys = {
                kostant_q(r, interval_root(RootInterval(r, i, i + s - 1)))
                for i in range(1, r - s + 2)
            }
            assert len(polys) == 1


def test_consecutive_closed_form():
    assert consecutive_closed_form(1).coeffs == (0, 1)
    assert consecutive_closed_form(2).coeffs == (0, 1, 1)
    assert consecutive_closed_form(3).coeffs == (0, 1, 2, 1)
    with pytest.raises(ValueError):
        consecutive_closed_form(0)
    for r in range(1, 9):
        for s in range(1, r + 1):
            iv = RootInterval(r, 1, s)
            assert kostant_q(r, interval_root(iv)) == consecutive_closed_form(s)


def test_oracle_height_cap():
    assert kostant_q_oracle(1, Weight(1, (24,))).coeffs == (0,) * 24 + (1,)
    with pytest.raises(CapacityError) as exc:
        kostant_q_oracle(1, Weight(1, (25,)))
    assert "max_height" in str(exc.value)
    assert kostant_q_oracle(1, Weight(1, (25,)), max_height=25).evaluate(1) == 1


def test_rank_mismatch_errors():
    with pytest.raises(ValueError):
        kostant_q(3, zero_weight(2))
    with pytest.raises(ValueError):
        kostant_q_oracle(2, zero_weight(3))


def test_memo_limit_flush_keeps_results_correct(monkeypatch):
    xi = Weight(3, (1, 2, 1))
    expected = kostant_q(3, xi)
    monkeypatch.setattr(partition, "PARTITION_MEMO_BOUND", 2)
    partition._MEMO.clear()
    try:
        assert kostant_q(3, xi) == expected
        assert len(partition._MEMO) <= 2
        assert kostant_q(3, highest_root(3)) == consecutive_closed_form(3)
        assert len(partition._MEMO) <= 2
    finally:
        monkeypatch.undo()
        partition._MEMO.clear()
    assert kostant_q(3, xi) == expected


def test_memo_stays_bounded_across_many_calls(monkeypatch):
    # a long-lived process: 200 seeded calls across ranks 3-7 under a small bound
    bound = 300
    monkeypatch.setattr(partition, "PARTITION_MEMO_BOUND", bound)
    rng = random.Random(7)
    partition._MEMO.clear()
    flushed = 0
    try:
        for _ in range(200):
            rank = rng.randint(3, 7)
            xi = Weight(rank, tuple(rng.randint(0, 3) for _ in range(rank)))
            before = len(partition._MEMO)
            assert kostant_q(rank, xi) == kostant_q_oracle(rank, xi), xi.coords
            assert len(partition._MEMO) <= bound
            flushed += len(partition._MEMO) < before
    finally:
        partition._MEMO.clear()
    assert flushed  # the bound was really reached


def test_memo_keeps_only_block_boundary_states():
    # A state whose first nonzero position is f starts at the first root
    # covering f, so the remaining weight alone is its key; the states
    # inside a block live for one call only.
    partition._MEMO.clear()
    try:
        assert kostant_q(7, _two_rho(7)).evaluate(1) == 244868962698
        memo = partition._MEMO
        assert len(memo) == 11892
        for key in memo:
            assert type(key) is tuple and len(key) == 7
            assert all(type(c) is int and c >= 0 for c in key) and any(key)
        # the states of another rank share the dict, told apart by the key's length
        kostant_q(3, _two_rho(3))
        assert {len(key) for key in memo} == {3, 7}
        assert sum(len(key) == 7 for key in memo) == 11892
    finally:
        partition._MEMO.clear()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dp_matches_oracle_in_any_call_order_warm_or_cold(data):
    rank = data.draw(st.integers(1, 5))
    coords = st.tuples(*[st.integers(0, 3)] * rank)
    weights = [Weight(rank, c) for c in data.draw(st.lists(coords, min_size=1, max_size=6))]
    expected = {xi: kostant_q_oracle(rank, xi) for xi in weights}
    for xi in weights:
        assert kostant_q(rank, xi) == expected[xi]
    partition._MEMO.clear()
    for xi in data.draw(st.permutations(weights)):
        assert kostant_q(rank, xi) == expected[xi]
