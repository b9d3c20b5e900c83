"""Weyl group elements: words, lengths, supports, lattice action, shifted action.

The action tests compare against an independent oracle that reflects
coordinates through the Cartan matrix (s_i adjusts only coordinate i using
its neighbors), letter by letter; the implementation under test goes
through epsilon coordinates instead.
"""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from kostant import (
    CapacityError,
    RootInterval,
    Weight,
    WeylElement,
    apply,
    enumerate_all,
    from_nonconsecutive_letters,
    from_word,
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


def _reflect_once(i, w):
    """s_i via the Cartan matrix: only coordinate i changes."""
    c = list(w.coords)
    left = c[i - 2] if i >= 2 else 0
    right = c[i] if i <= w.rank - 1 else 0
    c[i - 1] = -c[i - 1] + left + right
    return Weight(w.rank, tuple(c))


def _apply_oracle(word, w):
    for letter in reversed(word):
        w = _reflect_once(letter, w)
    return w


def _words(max_rank=5, max_len=8):
    return st.integers(min_value=1, max_value=max_rank).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(st.integers(min_value=1, max_value=r), max_size=max_len),
        )
    )


def test_identity_and_simple_reflections():
    assert identity(3).perm == (1, 2, 3, 4)
    assert identity(3) == from_word(3, ())
    assert from_word(3, (2,)).perm == (1, 3, 2, 4)
    assert from_word(1, (1,)).perm == (2, 1)


def test_from_word_examples():
    assert from_word(3, [2]).perm == (1, 3, 2, 4)
    assert from_word(2, [1, 2, 1]).perm == (3, 2, 1)
    assert from_word(2, []) == identity(2)
    assert from_word(4, [2, 4]) == from_word(4, [4, 2])  # distant letters commute
    assert from_word(2, [1, 2, 1]) == from_word(2, [2, 1, 2])  # braid relation
    assert from_word(3, [1, 1]) == identity(3)


def test_length_examples():
    assert from_word(2, [1, 2, 1]).length == 3
    assert from_word(4, [2, 4]).length == 2
    assert identity(5).length == 0
    assert from_word(3, [1, 1]).length == 0


def test_longest_element_length():
    # the longest element of S_{r+1} reverses everything: r(r+1)/2 inversions
    for r in range(1, 5):
        longest = max(enumerate_all(r), key=lambda s: s.length)
        assert longest.perm == tuple(range(r + 1, 0, -1))
        assert longest.length == r * (r + 1) // 2


def test_reduced_word_roundtrip_exhaustive():
    for r in range(1, 5):
        for sigma in enumerate_all(r):
            word = sigma.reduced_word()
            assert len(word) == sigma.length
            assert from_word(r, word) == sigma


def _restart_scan_word(perm):
    """Reference: strip the smallest left descent, rescanning from slot 1 after each strip."""
    inv = [0] * len(perm)
    for x, v in enumerate(perm):
        inv[v - 1] = x + 1
    word = []
    while True:
        for x in range(len(inv) - 1):
            if inv[x] > inv[x + 1]:
                inv[x], inv[x + 1] = inv[x + 1], inv[x]
                word.append(x + 1)
                break
        else:
            return tuple(word)


def test_reduced_word_equals_the_restart_scan():
    # every element through rank 7, then seeded random permutations at ranks 8-40
    for r in range(1, 8):
        for sigma in enumerate_all(r):
            assert sigma.reduced_word() == _restart_scan_word(sigma.perm), sigma.perm
    rng = random.Random(34)
    for r in range(8, 41):
        for _ in range(20):
            perm = list(range(1, r + 2))
            rng.shuffle(perm)
            sigma = WeylElement(r, perm)
            word = sigma.reduced_word()
            assert word == _restart_scan_word(sigma.perm), perm
            assert len(word) == sigma.length


def test_sign_matches_length_parity():
    for r in range(1, 5):
        for sigma in enumerate_all(r):
            assert sigma.sign == (-1) ** sigma.length


def _cycle_parity(perm):
    """(-1) ** (n - number of cycles), read off the one-line notation."""
    seen, cycles = set(), 0
    for start in range(1, len(perm) + 1):
        if start not in seen:
            cycles += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = perm[x - 1]
    return -1 if (len(perm) - cycles) % 2 else 1


def test_sign_is_cycle_parity():
    for r in range(1, 6):
        for sigma in enumerate_all(r):
            expected = _cycle_parity(sigma.perm)
            built = WeylElement(r, sigma.perm)
            assert sigma.sign == built.sign == expected
            assert built.sign == expected  # read again, computed again
    for r, letters in [(5, (2, 4)), (7, (1, 3, 5, 7)), (6, ()), (8, (3, 8))]:
        sigma = from_nonconsecutive_letters(r, letters)
        assert sigma.length == len(letters)
        assert sigma.sign == _cycle_parity(sigma.perm) == (-1) ** len(letters)


def _stabilizer_support(sigma):
    """Independent reading of support: s_i appears iff sigma moves {1..i} off itself."""
    out = set()
    for i in range(1, sigma.rank + 1):
        if {sigma.perm[x] for x in range(i)} != set(range(1, i + 1)):
            out.add(i)
    return frozenset(out)


def test_support_examples_and_oracle():
    # the support, the letters of any reduced word, read off the one reduced_word finds
    assert frozenset(identity(4).reduced_word()) == frozenset()
    assert frozenset(from_word(4, [2, 4]).reduced_word()) == {2, 4}
    assert frozenset(from_word(2, [1, 2, 1]).reduced_word()) == {1, 2}
    for r in range(1, 5):
        for sigma in enumerate_all(r):
            assert frozenset(sigma.reduced_word()) == _stabilizer_support(sigma)


@settings(max_examples=200)
@given(_words())
def test_support_is_contained_in_letters(rw):
    r, word = rw
    sigma = from_word(r, word)
    assert frozenset(sigma.reduced_word()) <= set(word)
    assert sigma.length <= len(word)


def test_from_nonconsecutive_letters_matches_from_word():
    cases = [(5, (2, 4)), (7, (2, 5, 7)), (3, ()), (6, (1, 3, 6))]
    for r, letters in cases:
        fast = from_nonconsecutive_letters(r, letters)
        slow = from_word(r, letters)
        assert fast == slow
        assert fast.length == len(letters) == slow.length
        assert frozenset(slow.reduced_word()) == frozenset(letters)
        assert fast.reduced_word() == letters


def test_from_nonconsecutive_letters_validation():
    with pytest.raises(ValueError):
        from_nonconsecutive_letters(5, (2, 3))
    with pytest.raises(ValueError):
        from_nonconsecutive_letters(5, (4, 2))
    with pytest.raises(ValueError):
        from_nonconsecutive_letters(3, (5,))


def test_apply_examples():
    r2 = highest_root(2)
    assert apply(from_word(2, (1,)), r2) == interval_root(RootInterval(2, 2, 2))
    assert apply(from_word(2, (2,)), r2) == interval_root(RootInterval(2, 1, 1))
    assert apply(identity(4), highest_root(4)) == highest_root(4)
    # s_i negates its own simple root
    for r in range(1, 6):
        for i in range(1, r + 1):
            alpha = interval_root(RootInterval(r, i, i))
            assert apply(from_word(r, (i,)), alpha) == -alpha


@settings(max_examples=200)
@given(
    _words(max_rank=4),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
)
def test_apply_matches_cartan_reflection_oracle(rw, coords):
    r, word = rw
    w = Weight(r, tuple(coords[:r]))
    assert apply(from_word(r, word), w) == _apply_oracle(word, w)


@settings(max_examples=150)
@given(
    st.lists(st.integers(min_value=1, max_value=3), max_size=6),
    st.lists(st.integers(min_value=1, max_value=3), max_size=6),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3),
)
def test_apply_is_a_group_action(word1, word2, coords):
    r = 3
    s, t = from_word(r, word1), from_word(r, word2)
    w = Weight(r, tuple(coords))
    assert apply(s, apply(t, w)) == apply(s * t, w)


def test_apply_permutes_positive_roots():
    r = 3
    roots = set()
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            roots.add(Weight(r, tuple(1 if i <= k <= j else 0 for k in range(1, r + 1))))
    all_roots = roots | {-w for w in roots}
    for sigma in enumerate_all(r):
        assert {apply(sigma, w) for w in all_roots} == all_roots


def test_shifted_action_examples():
    r3 = highest_root(3)
    assert shifted_action(from_word(3, (1,)), r3).coords == (-1, 1, 1)
    assert shifted_action(from_word(5, (3,)), highest_root(5)).coords == (1, 1, 0, 1, 1)
    assert shifted_action(identity(4), highest_root(4)) == highest_root(4)


def test_shifted_action_is_an_action():
    for r in range(1, 4):
        lam = highest_root(r)
        elements = list(enumerate_all(r))
        for s in elements:
            for t in elements:
                assert shifted_action(s, shifted_action(t, lam)) == shifted_action(s * t, lam)


def test_shifted_action_identity_cases():
    for r in range(1, 6):
        assert shifted_action(identity(r), zero_weight(r)) == zero_weight(r)
        assert shifted_action(identity(r), highest_root(r)) == highest_root(r)


def test_shifted_action_never_exceeds_original_height():
    # sigma(lam + rho) - rho = lam - (nonnegative sum of roots) for dominant lam
    for r in range(1, 5):
        lam = highest_root(r)
        for sigma in enumerate_all(r):
            assert height(shifted_action(sigma, lam)) <= height(lam)


def _linear_route(sigma, lam):
    """(sigma(2 lam + 2 rho) - 2 rho) / 2, by the linear action alone."""
    two_rho = _two_rho(lam.rank)
    doubled = (apply(sigma, 2 * lam + two_rho) - two_rho).coords
    assert all(d % 2 == 0 for d in doubled)
    return Weight(lam.rank, tuple(d // 2 for d in doubled))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda r: st.lists(st.integers(min_value=-4, max_value=4), min_size=r, max_size=r)
    )
)
def test_shifted_action_matches_the_linear_route_on_the_whole_group(coords):
    import kostant.weyl

    r = len(coords)
    sigmas = list(enumerate_all(r))
    expected = [_linear_route(sigma, Weight(r, tuple(coords))) for sigma in sigmas]
    lam = Weight(r, tuple(coords))
    with pytest.MonkeyPatch.context() as mp:
        calls = []
        real_eps = kostant.weyl._eps
        mp.setattr(kostant.weyl, "_eps", lambda c: calls.append(c) or real_eps(c))
        # one Weight through every sigma: its epsilon vector is computed once
        assert [shifted_action(sigma, lam) for sigma in sigmas] == expected
        assert len(calls) == 1
        # a fresh equal Weight for every sigma computes it every time
        fresh = [shifted_action(sigma, Weight(r, tuple(coords))) for sigma in sigmas]
        assert fresh == expected
        assert len(calls) == 1 + len(sigmas)


def test_integer_entries_are_lam_plus_rho_moved_up_by_half_the_rank():
    # rho's epsilon entries r/2 - x share one fractional part; the kernel adds r/2
    # to each, and to each k-slot sum of rho: 2 T_k = 2 rho_k + k r
    from kostant.weyl import _eps, _rho_shifted

    for r in range(1, 9):
        two_rho = _two_rho(r)
        for lam in (zero_weight(r), highest_root(r), Weight(r, tuple(range(-2, r - 2)))):
            entries, offsets = _rho_shifted(lam)
            assert [2 * e for e in entries] == [d + r for d in _eps((2 * lam + two_rho).coords)]
            assert [2 * t for t in offsets] == [c + k * r for k, c in enumerate(two_rho.coords, 1)]


def test_enumerate_all_counts_and_order():
    assert sum(1 for _ in enumerate_all(1)) == 2
    assert sum(1 for _ in enumerate_all(3)) == 24
    elements = list(enumerate_all(2))
    assert elements[0].perm == (1, 2, 3)
    assert elements[-1].perm == (3, 2, 1)
    assert len(set(elements)) == 6


def test_enumerate_cap_and_overrides():
    with pytest.raises(CapacityError) as exc:
        enumerate_all(9)
    assert "its rank cap of 8 is fixed and no flag raises it" in str(exc.value)


def test_element_validation_and_equality():
    from kostant import WeylElement

    with pytest.raises(ValueError):
        WeylElement(2, (1, 2, 2))
    with pytest.raises(ValueError):
        WeylElement(2, (1, 2))
    a = WeylElement(2, (2, 1, 3))
    assert a == from_word(2, (1,))
    assert hash(a) == hash(from_word(2, (1,))) == hash((2, 1, 3))  # the perm fixes the rank
    with pytest.raises(ValueError):
        a * identity(3)
    with pytest.raises(ValueError):
        apply(a, zero_weight(3))
    with pytest.raises(ValueError):
        from_word(3, [4])


def test_element_entries_must_be_integers():
    from kostant import WeylElement

    # a float entry would read length 0, then fail in reduced_word and shifted_action
    with pytest.raises(TypeError):
        WeylElement(2, (1.0, 2.0, 3.0))
    with pytest.raises(TypeError):
        WeylElement(2, ("1", "2", "3"))
    assert WeylElement(2, [1, 3, 2]).perm == (1, 3, 2)
    assert type(WeylElement(True, (2, 1)).rank) is int  # read off the perm


def test_equal_elements_hash_alike():
    built = [
        WeylElement(4, (1, 3, 2, 5, 4)),
        from_word(4, [2, 4]),
        from_word(4, [4, 2]),
        from_word(4, [2, 4, 1, 1]),
        from_nonconsecutive_letters(4, (2, 4)),
        next(s for s in enumerate_all(4) if s.perm == (1, 3, 2, 5, 4)),
    ]
    assert all(sigma == built[0] for sigma in built)
    assert len({hash(sigma) for sigma in built}) == 1
    assert len(set(built)) == 1 and {built[0]: 1}[built[-1]] == 1
    assert WeylElement(3, (1, 2, 3, 4)) != WeylElement(2, (1, 2, 3))


def test_elements_round_trip_through_pickle_and_copy():
    for r in range(1, 5):
        for sigma in enumerate_all(r):
            clones = [copy.copy(sigma), copy.deepcopy(sigma)]
            clones += [pickle.loads(pickle.dumps(sigma, protocol))
                       for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
            for clone in clones:
                assert type(clone) is WeylElement
                assert clone == sigma and hash(clone) == hash(sigma)
                assert (clone.rank, clone.perm) == (r, sigma.perm)
                assert (clone.sign, clone.reduced_word()) == (sigma.sign, sigma.reduced_word())


def test_element_word_and_perm():
    sigma = from_word(4, [2, 4])
    assert sigma.reduced_word() == (2, 4)
    assert sigma.perm == (1, 3, 2, 5, 4)


def test_two_rho_shifted_by_longest_element():
    # the longest element sends rho to -rho: shifted action at lam=0 gives -2rho
    for r in range(1, 5):
        longest = from_word(r, sum(([i for i in range(1, k + 1)] for k in range(r, 0, -1)), []))
        assert longest.perm == tuple(range(r + 1, 0, -1))
        assert shifted_action(longest, zero_weight(r)) == -_two_rho(r)
