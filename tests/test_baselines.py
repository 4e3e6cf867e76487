import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualheap import Metrics, PhaseTally, SentinelArray, prepare_buffer
from dualheap.baselines import (
    PIVOT_RULES,
    _anchor_pivot,
    hoare_partition,
    median_of_medians,
    oracle_select,
    quickselect,
)
from dualheap.bench import DISTS, generate
from conftest import reference_quickselect, same_multiset


class RangeTracker(list):
    """List that records the index window actually touched."""

    def __init__(self, items):
        super().__init__(items)
        self.lo = len(items)
        self.hi = -1

    def _note(self, index):
        self.lo = min(self.lo, index)
        self.hi = max(self.hi, index)

    def __getitem__(self, index):
        self._note(index)
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        self._note(index)
        super().__setitem__(index, value)


# --- hoare_partition ---------------------------------------------------------


def partition_sides_ok(buf, lo, hi, boundary, pivot):
    return all(buf[i] <= pivot for i in range(lo, boundary + 1)) and all(
        buf[i] >= pivot for i in range(boundary + 1, hi + 1)
    )


def test_hoare_all_orderings_all_pivots():
    for perm in itertools.permutations([1, 2, 3]):
        for pivot in (1, 2, 3):
            buf = [0, *perm, 4]
            before = sorted(buf)
            b = hoare_partition(buf, 1, 3, pivot, PhaseTally())
            assert 1 <= b <= 3
            assert partition_sides_ok(buf, 1, 3, b, pivot)
            assert sorted(buf) == before


def test_hoare_specific_example():
    buf = [1, 3, 1, 2, 3]
    b = hoare_partition(buf, 1, 3, 2, PhaseTally())
    assert partition_sides_ok(buf, 1, 3, b, 2)
    assert 3 in buf[b + 1 : 4]  # the 3 ends up on the large side


def test_hoare_all_equal_lands_strictly_inside():
    buf = [4, 4, 4, 4, 4]
    b = hoare_partition(buf, 1, 3, 4, PhaseTally())
    assert 1 <= b < 3


def test_hoare_singleton_segment():
    buf = [5, 5, 5]
    assert hoare_partition(buf, 1, 1, 5, PhaseTally()) == 1


def test_hoare_stays_inside_segment_plus_sentinels():
    values = generate(63, "random", seed=11)
    buf = RangeTracker([min(values), *values, max(values)])
    hoare_partition(buf, 1, 63, buf[1], PhaseTally())
    assert buf.lo >= 0
    assert buf.hi <= 64


def _segments_with_ties():
    """Every permutation of n <= 7, then every tuple of values from
    {1, 2, 3} up to length 6."""
    for n in range(1, 8):
        yield from itertools.permutations(range(1, n + 1))
    for length in range(1, 7):
        yield from itertools.product((1, 2, 3), repeat=length)


def test_hoare_partition_costs_its_length_plus_one_or_two():
    # each scan compares once per slot it visits; they cross at i = j + 1
    # (L + 2) or meet on one slot holding the pivot value (L + 1)
    extra = Counter()
    for values in _segments_with_ties():
        length = len(values)
        for pivot_value in set(values):
            # the guards are None, so a scan that left the segment would raise
            tally = PhaseTally()
            hoare_partition([None, *values, None], 1, length, pivot_value, tally)
            extra[tally.compares - length] += 1
    assert extra == {2: 36485, 1: 6732}


def test_mom_anchor_counts_the_offset_of_the_first_slot_holding_the_pivot():
    # ties before and after the first slot that holds the estimate, in one
    # insertion median (length 6) and after rounds of group medians
    inputs = [
        *itertools.product((1, 2, 3), repeat=6),
        *(generate(n, "fewvalues", seed=n) for n in (26, 64, 255)),
    ]
    for values in inputs:
        lo, hi = 2, len(values) + 1
        buf = [None, 0, *values, None]
        estimate = PhaseTally()
        value = median_of_medians(buf, lo, hi, estimate)
        first = next(p for p in range(lo, hi + 1) if buf[p] == value)
        expected = buf[:]
        expected[lo], expected[first] = expected[first], expected[lo]
        tally = PhaseTally()
        assert _anchor_pivot(buf, lo, hi, "median_of_medians", None, tally) == value
        assert buf == expected
        assert tally.compares == estimate.compares + first - lo + 1
        assert tally.moves == (0 if first == lo else 2)


# --- quickselect -------------------------------------------------------------


def _assert_quickselect_matches_reference(values, k, pivot):
    n = len(values)
    arr = SentinelArray(buf=[0, *values, n + 1], n=n)
    ref = arr.buf[:]
    ctx = Metrics()
    tally = PhaseTally()
    value = quickselect(arr, k, pivot, ctx, seed=17)
    assert value == reference_quickselect(ref, n, k, pivot, 17, tally)
    assert arr.buf == ref
    assert (ctx.other.compares, ctx.other.moves) == (tally.compares, tally.moves)


@pytest.mark.parametrize("pivot", PIVOT_RULES)
def test_quickselect_matches_reference_exhaustively(pivot):
    for n in range(1, 8):
        for perm in itertools.permutations(range(1, n + 1)):
            for k in range(1, n + 1):
                _assert_quickselect_matches_reference(perm, k, pivot)


@pytest.mark.parametrize("pivot", PIVOT_RULES)
def test_quickselect_matches_reference_across_families(pivot):
    for dist in DISTS:
        for n in (26, 64, 255, 1000, 4095):
            values = generate(n, dist, seed=n)
            for k in (1, (n + 1) // 2, n):
                _assert_quickselect_matches_reference(values, k, pivot)


def test_quickselect_examples():
    assert quickselect(prepare_buffer([5, 3, 9, 1, 7]), 3) == 5
    assert quickselect(prepare_buffer([2, 1]), 1) == 1


def test_quickselect_bounds():
    with pytest.raises(IndexError):
        quickselect(prepare_buffer([1, 2]), 3)


def test_quickselect_never_leaves_segment():
    values = generate(127, "random", seed=3)
    tracked = RangeTracker([min(values), *values, max(values)])
    arr = prepare_buffer(values)
    arr.buf = tracked
    assert quickselect(arr, 64) == oracle_select(values, 64)
    assert tracked.lo >= 0
    assert tracked.hi <= 128


def test_quickselect_first_quadratic_on_sorted():
    def compares_on_sorted(n):
        ctx = Metrics()
        quickselect(prepare_buffer(list(range(1, n + 1))), (n + 1) // 2, "first", ctx)
        return ctx.compares_total

    assert compares_on_sorted(1024) / compares_on_sorted(512) > 3.0


def test_quickselect_exhaustive_small_all_rules():
    for n in range(1, 7):
        for perm in itertools.permutations(range(1, n + 1)):
            for k in range(1, n + 1):
                for pivot in ("first", "random", "median_of_medians"):
                    arr = prepare_buffer(perm)
                    assert quickselect(arr, k, pivot, seed=99) == k
                    assert same_multiset(arr.payload(), perm)


@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=80),
    st.data(),
)
def test_quickselect_matches_oracle_with_duplicates(values, data):
    k = data.draw(st.integers(1, len(values)))
    pivot = data.draw(st.sampled_from(["first", "random", "median_of_medians"]))
    assert quickselect(prepare_buffer(values), k, pivot, seed=5) == oracle_select(values, k)


def test_random_rule_is_seed_deterministic():
    values = generate(301, "random", seed=8)
    counts = []
    for _ in range(2):
        ctx = Metrics()
        quickselect(prepare_buffer(values), 151, "random", ctx, seed=77)
        counts.append(ctx.compares_total)
    assert counts[0] == counts[1]


# --- median_of_medians -------------------------------------------------------


def test_mom_ordered_25():
    buf = [0, *range(1, 26), 99]
    assert median_of_medians(buf, 1, 25, PhaseTally()) == 13


def test_mom_grouped_beyond_direct_limit():
    # 30 ordered values: group medians 3,8,13,18,23,28 -> median 13 or 18
    buf = [0, *range(1, 31), 99]
    value = median_of_medians(buf, 1, 30, PhaseTally())
    assert value in range(1, 31)
    assert 0.2 * 30 <= sorted(range(1, 31)).index(value) + 1 <= 0.8 * 30


def test_mom_singleton():
    assert median_of_medians([0, 9, 9], 1, 1, PhaseTally()) == 9


def test_mom_rank_bounds_random():
    for seed in range(40):
        n = 50 + 7 * seed
        values = generate(n, "random", seed=seed)
        buf = [0, *values, n + 1]
        value = median_of_medians(buf, 1, n, PhaseTally())
        rank = sorted(values).index(value) + 1
        assert 0.2 * n <= rank <= 0.8 * n


def test_mom_empty_segment_rejected():
    with pytest.raises(ValueError):
        median_of_medians([0, 1], 1, 0, PhaseTally())


# --- quickselect with the median-of-medians pivot ----------------------------


def test_mom_select_examples():
    assert quickselect(prepare_buffer([5, 3, 9, 1, 7]), 3, "median_of_medians") == 5
    assert quickselect(prepare_buffer([6, 6, 6]), 2, "median_of_medians") == 6


def test_mom_select_linear_on_sorted():
    def compares_on_sorted(n):
        ctx = Metrics()
        quickselect(prepare_buffer(list(range(1, n + 1))), (n + 1) // 2, "median_of_medians", ctx)
        return ctx.compares_total

    assert compares_on_sorted(2048) / compares_on_sorted(1024) < 2.5


def test_mom_select_constant_stable_across_shapes_and_doublings():
    for dist in ("sorted", "reverse", "random"):
        per_n = []
        for n in (512, 1024, 2048):
            values = generate(n, dist, seed=21)
            ctx = Metrics()
            quickselect(prepare_buffer(values), (n + 1) // 2, "median_of_medians", ctx)
            per_n.append(ctx.compares_total / n)
        for a, b in zip(per_n, per_n[1:]):
            assert b / a < 1.5
            assert a / b < 1.5


# --- oracle ------------------------------------------------------------------


def test_oracle_examples():
    assert oracle_select([3, 1, 2], 2) == 2
    assert oracle_select([7], 1) == 7
    assert oracle_select([2, 2, 1], 2) == 2


def test_oracle_bounds():
    with pytest.raises(IndexError):
        oracle_select([1], 2)


def test_bool_index_rejected_like_dh_select():
    for k in (True, 2.0, "2"):
        with pytest.raises(TypeError):
            quickselect(prepare_buffer([5, 3, 9]), k)
        with pytest.raises(TypeError):
            oracle_select([5, 3, 9], k)


def test_oracle_does_not_mutate():
    values = [3, 1, 2]
    oracle_select(values, 1)
    assert values == [3, 1, 2]
