"""Fibonacci numbers, zero-padded binomials, nonconsecutive subsets."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from kostant import (
    CapacityError,
    fib_identity_check,
    fibonacci,
    nonconsecutive_count_k,
    nonconsecutive_subsets,
)
from kostant.combinatorics import binomial_safe


def test_fibonacci_values():
    assert [fibonacci(n) for n in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert fibonacci(16) == 987
    assert fibonacci(25) == 75025


def test_fibonacci_by_fast_doubling_holds_only_the_result():
    # F_60000 has 41,667 bits; a table grown to it would hold 60,000 big ints, 160 MB
    expected, a, b = [], 0, 1
    for n in range(1, 60001):
        a, b = b, a + b
        if n in (127, 128, 129, 130, 255, 256, 257, 1000, 59999, 60000):
            expected.append(a)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = fibonacci(60000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert value == expected[-1]
    # the int's allocation may keep a digit or two past its normalized size
    assert held <= sys.getsizeof(value) + 64, held
    assert [fibonacci(n) for n in (127, 128, 129, 130, 255, 256, 257, 1000, 59999)] == expected[:-1]


@pytest.mark.parametrize("n", [0, -1, -7])
def test_fibonacci_rejects_nonpositive_index(n):
    with pytest.raises(ValueError):
        fibonacci(n)


def test_binomial_safe_matches_comb_in_range():
    for n in range(0, 12):
        for k in range(0, n + 1):
            assert binomial_safe(n, k) == math.comb(n, k)


@pytest.mark.parametrize(
    "n,k,expected",
    [
        (0, 0, 1),
        (-1, 0, 0),  # C(n, 0) is 1 only for n >= 0
        (-3, 2, 0),
        (4, -1, 0),
        (3, 5, 0),
        (5, 0, 1),
    ],
)
def test_binomial_safe_zero_padding(n, k, expected):
    assert binomial_safe(n, k) == expected


def test_subsets_small_cases():
    assert nonconsecutive_subsets(0) == [()]
    assert nonconsecutive_subsets(1) == [(), (1,)]
    assert nonconsecutive_subsets(2) == [(), (1,), (2,)]
    assert nonconsecutive_subsets(3) == [(), (1,), (2,), (3,), (1, 3)]


def _is_nonconsecutive(s):
    return all(b - a >= 2 for a, b in zip(s, s[1:]))


def test_subsets_are_valid_unique_and_fibonacci_counted():
    for n in range(0, 19):
        subs = nonconsecutive_subsets(n)
        assert len(subs) == len(set(subs)) == fibonacci(n + 2)
        for s in subs:
            assert all(1 <= x <= n for x in s)
            assert _is_nonconsecutive(s)
        assert subs == sorted(subs, key=lambda s: (len(s), s))


def test_count_k_matches_enumeration():
    for n in range(0, 17):
        subs = nonconsecutive_subsets(n)
        for k in range(0, n + 2):
            assert nonconsecutive_count_k(n, k) == sum(1 for s in subs if len(s) == k)


def test_identity_holds_through_30():
    for n in range(0, 31):
        assert fib_identity_check(n)


def test_identity_rejects_negative():
    with pytest.raises(ValueError):
        fib_identity_check(-1)


def test_subsets_ground_cap():
    with pytest.raises(CapacityError, match="fixed cap of 25"):
        nonconsecutive_subsets(26)
    assert len(nonconsecutive_subsets(25)) == fibonacci(27)
    with pytest.raises(ValueError):
        nonconsecutive_subsets(-1)


def test_subsets_keep_nothing_resident():
    # A fresh interpreter, so no earlier call in this session has filled a cache.
    probe = (
        "import gc, tracemalloc\n"
        "from kostant.combinatorics import nonconsecutive_subsets\n"
        "tracemalloc.start()\n"
        "before = tracemalloc.get_traced_memory()[0]\n"
        "nonconsecutive_subsets(22)\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0] - before)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 1_000_000, done.stdout


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=25))
def test_count_k_is_never_negative_and_vanishes_for_large_k(n, k):
    c = nonconsecutive_count_k(n, k)
    assert c >= 0
    if 2 * k > n + 1:
        assert c == 0
