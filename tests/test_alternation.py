"""Alternation sets: brute force vs generated form, Fibonacci counts, length splits."""

import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import kostant.alternation
from kostant import (
    CapacityError,
    RootInterval,
    Weight,
    alt_cardinality,
    alt_set_bruteforce,
    alt_set_characterized,
    fibonacci,
    from_nonconsecutive_letters,
    from_word,
    highest_root,
    interval_root,
    zero_weight,
)
from kostant.alternation import (
    characterized_sides,
    pruned_survivors,
    side_tally,
    sides,
    survivors,
)
from kostant.cli import _row_order
from kostant.combinatorics import nonconsecutive_choices
from kostant.weyl import enumerate_all


def _words(aset):
    return sorted(tuple(s.reduced_word()) for s in aset.elements)


def _all_intervals(r):
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            yield RootInterval(r, i, j)


def test_bruteforce_small_examples():
    a = alt_set_bruteforce(2, highest_root(2), interval_root(RootInterval(2, 1, 1)))
    assert _words(a) == [()]
    a = alt_set_bruteforce(2, highest_root(2), highest_root(2))
    assert _words(a) == [()]
    a = alt_set_bruteforce(3, highest_root(3), interval_root(RootInterval(3, 1, 1)))
    assert _words(a) == [(), (2,)]


def test_characterized_small_examples():
    assert _words(alt_set_characterized(RootInterval(5, 2, 3))) == [(), (4,)]
    assert _words(alt_set_characterized(RootInterval(4, 2, 3))) == [()]
    assert _words(alt_set_characterized(RootInterval(7, 3, 4))) == [
        (),
        (2,),
        (2, 5),
        (2, 6),
        (5,),
        (6,),
    ]


def test_identity_is_always_a_member():
    for r in range(1, 9):
        for iv in _all_intervals(r):
            assert from_word(r, ()) in alt_set_characterized(iv).elements


def test_bruteforce_matches_characterized_through_rank_5():
    for r in range(1, 6):
        lam = highest_root(r)
        for iv in _all_intervals(r):
            # two constructions of one set are one value: rank, lam, mu and elements
            assert alt_set_bruteforce(r, lam, interval_root(iv)) == alt_set_characterized(iv), iv


def test_cardinality_formula_through_rank_10():
    for r in range(1, 11):
        for iv in _all_intervals(r):
            assert len(alt_set_characterized(iv)) == alt_cardinality(iv), iv


def test_cardinality_examples():
    assert alt_cardinality(RootInterval(7, 3, 4)) == 6  # F_3 * F_4
    assert alt_cardinality(RootInterval(10, 1, 10)) == 1
    assert alt_cardinality(RootInterval(16, 1, 1)) == fibonacci(16)


def test_supports_live_in_the_two_generator_ranges():
    for r in range(2, 8):
        for iv in _all_intervals(r):
            allowed = set(range(2, iv.i)) | set(range(iv.j + 1, r))
            for sigma in alt_set_characterized(iv):
                supp = sorted(sigma.reduced_word())
                assert set(supp) <= allowed
                assert all(b - a >= 2 for a, b in zip(supp, supp[1:]))


def test_generator_one_never_appears():
    # the sign test over the whole group, read off the pruned search
    for r in range(1, 15):
        lam = highest_root(r)
        for iv in _all_intervals(r):
            members = [sigma for sigma, _ in pruned_survivors(lam, interval_root(iv))]
            assert len(members) == alt_cardinality(iv), iv
            assert all(1 not in sigma.reduced_word() for sigma in members)


def test_bruteforce_with_general_mu():
    # lam = mu = 0: only the identity survives the shifted action
    for r in range(1, 4):
        a = alt_set_bruteforce(r, zero_weight(r), zero_weight(r))
        assert _words(a) == [()]
    # mu = 0, lam = highest root: only images that stay nonnegative survive
    a = alt_set_bruteforce(2, highest_root(2), zero_weight(2))
    assert _words(a) == [()]
    a = alt_set_bruteforce(3, highest_root(3), zero_weight(3))
    assert _words(a) == [(), (2,)]


def test_set_iteration_order():
    aset = alt_set_characterized(RootInterval(7, 3, 4))
    words = [tuple(s.reduced_word()) for s in aset]
    assert words == [(), (2,), (5,), (6,), (2, 5), (2, 6)]


def _canonical(aset):
    return sorted(aset.elements, key=lambda s: (s.length, s.reduced_word()))


def test_both_constructions_iterate_in_the_canonical_order_through_rank_6():
    for r in range(1, 7):
        lam = highest_root(r)
        for iv in _all_intervals(r):
            generated = alt_set_characterized(iv)
            brute = alt_set_bruteforce(r, lam, interval_root(iv))
            assert list(generated) == list(brute) == _canonical(generated), iv
            assert list(generated) == list(generated)
            assert list(brute) == list(brute)


def test_a_brute_force_set_iterates_by_length_then_word():
    aset = alt_set_bruteforce(5, highest_root(5), interval_root(RootInterval(5, 3, 3)))
    assert len(aset) == 4
    first = list(aset)
    assert [s.reduced_word() for s in first] == [(), (2,), (4,), (2, 4)]
    assert list(aset) == first == _canonical(aset)


def test_bruteforce_cap_and_validation():
    with pytest.raises(CapacityError, match="rank cap of 8 is fixed and no flag raises it"):
        alt_set_bruteforce(9, highest_root(9), interval_root(RootInterval(9, 1, 1)))
    with pytest.raises(ValueError):
        alt_set_bruteforce(3, highest_root(2), interval_root(RootInterval(3, 1, 1)))
    with pytest.raises(ValueError):
        alt_set_bruteforce(3, highest_root(3), interval_root(RootInterval(2, 1, 1)))


def test_survivors_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        survivors(highest_root(3), interval_root(RootInterval(2, 1, 1)), [from_word(3, ())])
    with pytest.raises(ValueError):  # sigma of the wrong rank
        list(survivors(highest_root(3), interval_root(RootInterval(3, 1, 1)), [from_word(2, ())]))


def test_the_literal_scan_sends_each_drawn_element_through_shifted_action_once(monkeypatch):
    drawn, acted = [], []
    real_enumerate, real_action = kostant.alternation.enumerate_all, kostant.alternation.shifted_action

    def counting_enumerate(rank):
        return (drawn.append(sigma) or sigma for sigma in real_enumerate(rank))

    def counting_action(sigma, lam):
        acted.append(sigma)
        return real_action(sigma, lam)

    monkeypatch.setattr(kostant.alternation, "enumerate_all", counting_enumerate)
    monkeypatch.setattr(kostant.alternation, "shifted_action", counting_action)
    aset = alt_set_bruteforce(3, highest_root(3), interval_root(RootInterval(3, 2, 2)))
    assert len(drawn) == len(acted) == 24
    assert acted == drawn and set(drawn) == set(real_enumerate(3))
    assert len(aset) == 1


# ------------------------------------------------------- the pruned search


def _pairs(pairs):
    return {(sigma.perm, xi) for sigma, xi in pairs}


def test_pruned_search_keeps_the_whole_group_when_nothing_is_pruned():
    # mu far below every image: each branch reaches the forced last slot
    lam, mu = zero_weight(3), Weight(3, (-10, -10, -10))
    found = _pairs(pruned_survivors(lam, mu))
    assert len(found) == 24
    assert found == _pairs(survivors(lam, mu, enumerate_all(3)))


def test_pruned_search_guards(monkeypatch):
    with pytest.raises(ValueError):
        pruned_survivors(highest_root(3), interval_root(RootInterval(2, 1, 1)))
    # nothing pruned at rank 3: prefixes of 0, 1, 2 and 3 slots, 1 + 4 + 12 + 24 nodes
    lam, mu = zero_weight(3), Weight(3, (-10, -10, -10))
    monkeypatch.setattr(kostant.alternation, "SEARCH_NODE_BUDGET", 41)
    assert len(pruned_survivors(lam, mu)) == 24
    # rank alone is not refused: at rank 9 the search stays small
    monkeypatch.undo()
    assert len(pruned_survivors(highest_root(9), interval_root(RootInterval(9, 1, 1)))) == fibonacci(9)


def test_a_refused_search_builds_no_element(monkeypatch):
    # the budget trips on the last of 24 leaves, and not one of the 23 before it is built
    lam, mu = zero_weight(3), Weight(3, (-10, -10, -10))

    def no_leaf(perm):
        raise AssertionError("a refused search built an element")

    monkeypatch.setattr(kostant.alternation, "SEARCH_NODE_BUDGET", 40)
    monkeypatch.setattr(kostant.alternation, "_element", no_leaf)
    with pytest.raises(CapacityError, match="more than 40 nodes, its fixed budget; no flag"):
        pruned_survivors(lam, mu)


def test_pruned_search_reaches_a_deep_leaf_within_the_real_budget(monkeypatch):
    # A(highest root, highest root) is the identity alone, and only its prefixes
    # pass every floor: one survivor, 1,201 nodes deep, at a rank no scan reaches,
    # far within the real budget of 2^17 nodes
    r = 1200
    monkeypatch.setattr(kostant.alternation, "SEARCH_NODE_BUDGET", r + 1)
    [(sigma, xi)] = pruned_survivors(highest_root(r), interval_root(RootInterval(r, 1, r)))
    assert sigma == from_word(r, ())
    assert xi == (0,) * r
    monkeypatch.setattr(kostant.alternation, "SEARCH_NODE_BUDGET", r)
    with pytest.raises(CapacityError):
        pruned_survivors(highest_root(r), interval_root(RootInterval(r, 1, r)))


def test_a_search_past_the_budget_by_the_identity_alone_is_refused_before_it_builds(monkeypatch):
    # lam - mu >= 0 puts the identity among the survivors, and its path alone
    # enters rank + 1 nodes: past the budget the refusal builds none of the
    # walk's rank-long lists (68.5 MB at rank 300,000 when it built them)
    r = kostant.alternation.SEARCH_NODE_BUDGET
    lam, mu = highest_root(r), interval_root(RootInterval(r, 1, r))
    built = []
    monkeypatch.setattr(kostant.alternation, "_rho_shifted", built.append)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as refusal:
            pruned_survivors(lam, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refusal.value) == (
        f"the pruned search at rank {r} visited more than {r} nodes, "
        f"its fixed budget; no flag raises it"
    )
    assert built == []
    assert peak < 1_000_000, peak
    # at the same rank, an identity that fails the sign test leaves the search to run
    monkeypatch.undo()
    assert pruned_survivors(zero_weight(r), Weight(r, (1,) + (0,) * (r - 1))) == []


# ------------------------------------------------------- counts by length


def _tally(iv):
    """{(length, boundary letter present): count} of the one side of a one-sided interval."""
    (side,) = (side for side in sides(iv) if side.boundary is not None)
    return {(length, has): count for length, has, count in side_tally(side)}


def test_side_tally_known_values():
    iv = RootInterval(10, 1, 3)
    counts = _tally(iv)
    assert counts[(3, True)] == 3
    assert counts[(2, False)] == 6
    assert counts[(0, False)] == 1  # the identity
    assert max(length for length, contains in counts if contains) == 3
    # s_4 alone is (1, True), s_2 s_4 is (2, True)
    left = RootInterval(5, 5, 5)
    assert _tally(left) == {(0, False): 1, (1, False): 2, (1, True): 1, (2, True): 1}


def test_side_tally_keeps_only_nonzero_counts():
    # [1, 5] at rank 6: the range cannot even hold the boundary letter s_6
    assert _tally(RootInterval(6, 1, 5)) == {(0, False): 1}


def _filtered_counts(iv, side):
    """{(length, contains): count} of the generated set, by boundary presence."""
    boundary = iv.j + 1 if side == "right_boundary" else iv.i - 1
    tally = Counter()
    for sigma in alt_set_characterized(iv):
        tally[(sigma.length, boundary in sigma.reduced_word())] += 1
    return tally


def _one_sided(r, side):
    if side == "right_boundary":
        return [RootInterval(r, 1, j) for j in range(1, r)]
    return [RootInterval(r, i, r) for i in range(2, r + 1)]


@pytest.mark.parametrize("side", ["right_boundary", "left_boundary"])
def test_side_tally_matches_direct_filter_through_rank_9(side):
    for r in range(2, 10):
        for iv in _one_sided(r, side):
            assert _tally(iv) == dict(_filtered_counts(iv, side)), iv


@pytest.mark.parametrize("side", ["right_boundary", "left_boundary"])
def test_side_tally_totals_to_cardinality(side):
    for r in range(2, 15):
        for iv in _one_sided(r, side):
            counts = _tally(iv)
            assert 0 not in counts.values(), iv
            assert sum(counts.values()) == alt_cardinality(iv), iv


def test_characterized_rejects_oversized_ground_set():
    # the free range {2..39} would need F_40 elements; refused before any are built
    with pytest.raises(CapacityError):
        alt_set_characterized(RootInterval(40, 1, 1))


def test_characterized_bounds_the_product_not_only_each_side(monkeypatch):
    # 25 free letters on each side pass the per-side cap, but the product is
    # F_27^2 = 38,580,030,724 elements: refused before any side is built
    def no_side(*args, **kwargs):
        raise AssertionError("a side was built")

    monkeypatch.setattr(kostant.alternation, "nonconsecutive_choices", no_side)
    iv = RootInterval(53, 27, 27)
    assert [len(side.letters) for side in kostant.alternation.sides(iv)] == [25, 25]
    with pytest.raises(CapacityError, match=r"F_27 \* F_27 elements"):
        alt_set_characterized(iv)
    monkeypatch.undo()
    # the bound is F_(cap + 2): at cap 5, F_7 = 13 elements pass and 15 do not
    iv = RootInterval(10, 4, 6)  # sides of 2 and 3 letters: 3 * 5 = 15 elements
    assert len(alt_set_characterized(iv)) == 15
    monkeypatch.setattr(kostant.alternation, "DEFAULT_SUBSET_GROUND_CAP", 5)
    assert len(alt_set_characterized(RootInterval(7, 7, 7))) == 13
    with pytest.raises(CapacityError, match="F_7 = 13.*the cap is fixed"):
        alt_set_characterized(iv)


def _validated_products(iv):
    """The characterized set built the slow way: each product by `from_word`."""
    left, right = (_nonconsecutive(side.letters) for side in kostant.alternation.sides(iv))
    return {ls + rs: from_word(iv.rank, ls + rs) for ls in left for rs in right}


def _nonconsecutive(letters):
    """Every nonconsecutive subset of a range of letters, by plain recursion."""
    if not letters:
        return [()]
    first, rest = letters[0], letters[1:]
    return _nonconsecutive(rest) + [(first,) + s for s in _nonconsecutive(rest[1:])]


def _assert_glued_equals_validated(iv):
    expected = _validated_products(iv)
    glued = alt_set_characterized(iv)
    assert len(glued) == len(expected) == alt_cardinality(iv)
    for el in glued.elements:
        ref = expected[el.reduced_word()]
        assert el.perm == ref.perm
        assert el.reduced_word() == ref.reduced_word()
        assert el.length == ref.length
        assert el.sign == ref.sign


def test_glued_products_equal_validated_products_through_rank_12():
    for r in range(1, 13):
        for iv in _all_intervals(r):
            _assert_glued_equals_validated(iv)


def test_every_product_reduced_word_is_its_letters_through_rank_12():
    # a product's letters, a left word then a right one, are the word reduced_word finds
    for r in range(1, 13):
        for iv in _all_intervals(r):
            left, right = characterized_sides(iv)
            for lw in left:
                for rw in right:
                    assert from_nonconsecutive_letters(r, lw + rw).reduced_word() == lw + rw, iv


@st.composite
def _intervals_13_to_22(draw):
    r = draw(st.integers(13, 22))
    i = draw(st.integers(1, r))
    return RootInterval(r, i, draw(st.integers(i, r)))


@settings(max_examples=30, deadline=None)
@given(_intervals_13_to_22())
def test_glued_products_equal_validated_products_to_rank_22(iv):
    _assert_glued_equals_validated(iv)


def test_characterized_spot_check_raises(monkeypatch):
    import kostant.alternation

    monkeypatch.setattr(kostant.alternation, "survivors", lambda lam, mu, sigmas: iter(()))
    with pytest.raises(RuntimeError):
        alt_set_characterized(RootInterval(7, 3, 4))


def _run_keys(left, right):
    """(length, word) of each product, as the CLI's row order reads them."""
    lengths, groups, runs = _row_order(left, right)
    return [
        (n, left[p] + right[q])
        for n, run in runs
        for p in run
        for q in groups[n - lengths[p]]
    ]


def test_factor_blocks_run_in_the_sorted_order_through_rank_22():
    # every interval through rank 22 (2,024 of them, up to 17,711 elements):
    # i = 1, j = r and the one-letter and empty free ranges among them
    for r in range(1, 23):
        for iv in _all_intervals(r):
            left, right = characterized_sides(iv)
            assert len(left) == fibonacci(iv.i)
            assert len(right) == fibonacci(r - iv.j + 1)
            keys = _run_keys(left, right)
            assert all(length == len(word) for length, word in keys), iv
            # strictly increasing: sorted(..., key=(length, reduced word)), no repeats
            assert all(a < b for a, b in zip(keys, keys[1:])), iv
            assert len(keys) == alt_cardinality(iv)


def test_brute_force_runs_are_in_the_sorted_order_through_rank_8():
    # a brute-force set, as `alt-set --method brute` renders it: its reduced
    # words sorted by (length, word) as left words, with one empty right word
    for r in range(1, 9):
        for iv in _all_intervals(r):
            found = pruned_survivors(highest_root(r), interval_root(iv))
            left = sorted((s.reduced_word() for s, _ in found), key=lambda w: (len(w), w))
            keys = _run_keys(left, [()])
            assert [word for _, word in keys] == left, iv
            assert all(length == len(word) for length, word in keys), iv
            assert all(a < b for a, b in zip(keys, keys[1:])), iv
            assert len(keys) == alt_cardinality(iv)


def test_side_factors_are_the_side_elements_on_their_slots():
    for r in range(1, 11):
        for iv in _all_intervals(r):
            left, right = characterized_sides(iv)
            left_side, right_side = sides(iv)
            products = {el.reduced_word(): el for el in alt_set_characterized(iv).elements}
            for lw in left:
                assert set(lw) <= set(left_side.letters)
                lp = from_word(r, lw).perm
                # a left factor moves only slots 1..j, a right one only j+1..r+1
                assert lp[iv.j:] == tuple(range(iv.j + 1, r + 2))
                for rw in right:
                    assert set(rw) <= set(right_side.letters)
                    rp = from_word(r, rw).perm
                    assert rp[:iv.j] == tuple(range(1, iv.j + 1))
                    product = from_word(r, lw + rw)
                    assert product.perm == lp[:iv.j] + rp[iv.j:]
                    assert products[lw + rw].perm == product.perm


def test_side_walk_gives_the_nonconsecutive_choices_in_post_order_and_by_length():
    # every free range of m <= 18 letters, both sides of [m + 2, m + 2 + shift]
    # at rank 2m + 3 + shift, and the right side alone of [1, 1 + shift] at rank
    # m + 2 + shift; the reference is this file's plain recursion, so nothing
    # here follows the walk
    for m in range(19):
        for shift in (0, 3):
            i = m + 2
            j = i + shift
            r = j + m + 1
            iv = RootInterval(r, i, j)
            for side in sides(iv):
                assert len(side.letters) == m
                post = nonconsecutive_choices(side.letters)
                assert len(post) == fibonacci(m + 2)
                assert post == sorted(_nonconsecutive(side.letters), key=lambda w: w + (r + 1,))
            # the right factors grouped by length, each group lexicographic
            iv = RootInterval(m + 2 + shift, 1, 1 + shift)
            left, right = characterized_sides(iv)
            words = _nonconsecutive(sides(iv)[1].letters)
            _, groups, runs = _row_order(left, right)
            assert [[right[q] for q in groups[n]] for n, run in runs] == [
                sorted(w for w in words if len(w) == k) for k in range((m + 1) // 2 + 1)
            ]
            assert all(run == [0] for _, run in runs)


def test_spot_check_verifies_the_longest_products(monkeypatch):
    checked = []
    real = kostant.alternation.survivors

    def spy(lam, mu, sigmas):
        checked.append(list(sigmas))
        return real(lam, mu, checked[-1])

    monkeypatch.setattr(kostant.alternation, "survivors", spy)
    for r in range(1, 13):
        for iv in _all_intervals(r):
            checked.clear()
            left, right = characterized_sides(iv)
            lengths = sorted(
                (len(lw) + len(rw) for lw in left for rw in right),
                reverse=True,
            )
            (spot,) = checked
            # a set of fewer than 8 elements is checked whole
            assert len(set(spot)) == len(spot) == min(8, len(lengths)), iv
            assert sorted((s.length for s in spot), reverse=True) == lengths[:8], iv
            assert set(spot) <= alt_set_characterized(iv).elements, iv


def test_from_word_membership_check():
    aset = alt_set_characterized(RootInterval(7, 3, 4))
    assert from_word(7, [5, 2]) in aset.elements
    assert from_word(7, [3]) not in aset.elements
