"""Root-lattice weights: constructors, arithmetic, 2*rho, interval recovery."""

import pytest

from kostant import (
    RootInterval,
    Weight,
    as_interval,
    height,
    highest_root,
    interval_root,
    simple_root,
    two_rho,
    zero_weight,
)


def test_simple_and_interval_roots():
    assert simple_root(4, 2).coords == (0, 1, 0, 0)
    assert interval_root(RootInterval(5, 2, 4)).coords == (0, 1, 1, 1, 0)
    assert highest_root(3).coords == (1, 1, 1)
    assert zero_weight(3).coords == (0, 0, 0)
    assert interval_root(RootInterval(4, 3, 3)) == simple_root(4, 3)


def test_height():
    assert height(highest_root(6)) == 6
    assert height(interval_root(RootInterval(7, 3, 5))) == 3
    assert height(zero_weight(2)) == 0
    assert height(Weight(3, (2, -1, 0))) == 1


@pytest.mark.parametrize("rank,i", [(3, 0), (3, 4), (1, 2)])
def test_simple_root_range_errors(rank, i):
    with pytest.raises(ValueError):
        simple_root(rank, i)


@pytest.mark.parametrize("rank,i,j", [(3, 2, 1), (3, 0, 2), (3, 1, 4), (0, 1, 1)])
def test_interval_validation(rank, i, j):
    with pytest.raises(ValueError):
        RootInterval(rank, i, j)


@pytest.mark.parametrize("fields", [(5, 1.0, 2), (5.0, 1, 2), (5, 1, 2.0)])
def test_interval_rejects_non_integers_at_construction(fields):
    with pytest.raises(TypeError):
        RootInterval(*fields)


def test_interval_height_property():
    assert RootInterval(9, 3, 7).height == 5
    assert RootInterval(9, 4, 4).height == 1


def test_two_rho_known_values():
    assert two_rho(1).coords == (1,)
    assert two_rho(2).coords == (2, 2)
    assert two_rho(3).coords == (3, 4, 3)


def test_two_rho_is_sum_of_all_positive_roots():
    for r in range(1, 13):
        total = zero_weight(r)
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                total = total + interval_root(RootInterval(r, i, j))
        assert total == two_rho(r)


def test_two_rho_is_palindromic():
    for r in range(1, 13):
        c = two_rho(r).coords
        assert c == c[::-1]


def test_weight_arithmetic():
    a = Weight(3, (1, 2, 3))
    b = Weight(3, (0, 1, -1))
    assert (a + b).coords == (1, 3, 2)
    assert (a - b).coords == (1, 1, 4)
    assert (-b).coords == (0, -1, 1)
    assert (2 * a).coords == (2, 4, 6)
    assert (a * -1) == -a
    assert not a.is_zero
    assert zero_weight(3).is_zero


def test_weight_validation():
    with pytest.raises(ValueError):
        Weight(2, (1, 2, 3))
    with pytest.raises(ValueError):
        Weight(0, ())
    with pytest.raises(TypeError):
        Weight(2, (1.5, 2))
    with pytest.raises(ValueError):
        Weight(2, (1, 0)) + Weight(3, (1, 0, 0))
    with pytest.raises(TypeError):
        Weight(2, (1, 0)) + (1, 0)


def test_weight_stores_the_coerced_rank():
    w = Weight(True, (1,))
    assert type(w.rank) is int
    assert repr(w) == "Weight(rank=1, coords=(1,))"
    with pytest.raises(TypeError):
        Weight(2.0, (1, 2))


def test_as_interval_roundtrip():
    for r in range(1, 9):
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                iv = RootInterval(r, i, j)
                assert as_interval(interval_root(iv)) == iv


@pytest.mark.parametrize(
    "coords",
    [(0, 0, 0), (1, 0, 1), (2, 1, 0), (1, -1, 1), (0, 2, 0)],
)
def test_as_interval_rejects_non_intervals(coords):
    assert as_interval(Weight(3, coords)) is None
