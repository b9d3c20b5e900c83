"""Root-lattice weights: constructors, arithmetic, 2*rho."""

import gc
import tracemalloc
from pathlib import Path

import pytest

import kostant
from kostant import (
    RootInterval,
    Weight,
    height,
    highest_root,
    identity,
    interval_root,
    shifted_action,
    zero_weight,
)


def _two_rho(r):
    """2 rho, the sum of all positive roots."""
    roots = (interval_root(RootInterval(r, i, j)) for i in range(1, r + 1) for j in range(i, r + 1))
    return sum(roots, zero_weight(r))


def test_simple_and_interval_roots():
    assert interval_root(RootInterval(4, 2, 2)).coords == (0, 1, 0, 0)
    assert interval_root(RootInterval(5, 2, 4)).coords == (0, 1, 1, 1, 0)
    assert highest_root(3).coords == (1, 1, 1)
    assert zero_weight(3).coords == (0, 0, 0)
    assert interval_root(RootInterval(4, 3, 3)) == Weight(4, (0, 0, 1, 0))


def test_height():
    assert height(highest_root(6)) == 6
    assert height(interval_root(RootInterval(7, 3, 5))) == 3
    assert height(zero_weight(2)) == 0
    assert height(Weight(3, (2, -1, 0))) == 1


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
    assert _two_rho(1).coords == (1,)
    assert _two_rho(2).coords == (2, 2)
    assert _two_rho(3).coords == (3, 4, 3)


def test_two_rho_is_sum_of_all_positive_roots():
    # alpha_k's coefficient counts the intervals [i, j] containing k
    for r in range(1, 13):
        assert _two_rho(r).coords == tuple(k * (r + 1 - k) for k in range(1, r + 1))


def test_two_rho_is_palindromic():
    for r in range(1, 13):
        c = _two_rho(r).coords
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


def test_interval_roots_are_distinct_and_supported_on_their_interval():
    for r in range(1, 9):
        seen = set()
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                coords = interval_root(RootInterval(r, i, j)).coords
                assert coords == tuple(int(i <= k <= j) for k in range(1, r + 1))
                seen.add(coords)
        assert len(seen) == r * (r + 1) // 2


def test_shifted_actions_at_many_ranks_leave_no_state_behind():
    # the kernel's entries and offsets live on the weight, so a process that
    # visits many ranks keeps nothing per rank once its weights are gone
    shifted_action(identity(1), highest_root(1))  # first calls' one-off allocations
    package = str(Path(kostant.__file__).parent / "*")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for r in range(1, 2 * 64 + 1):
            lam = highest_root(r)
            assert shifted_action(identity(r), lam) == lam
        del lam
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    ours = [tracemalloc.Filter(True, package)]
    diff = after.filter_traces(ours).compare_to(before.filter_traces(ours), "filename")
    kept = sum(d.size_diff for d in diff)
    # one 1-tuple kept per rank would be 128 * 48 bytes; a 64-rank 2 rho cache kept about 240 KB
    assert kept < 4096
