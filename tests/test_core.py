import contextlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dualheap.core as core
from dualheap import (
    Metrics,
    PhaseTally,
    SentinelArray,
    build_max_heap,
    build_min_heap,
    prepare_buffer,
    split_indices,
)
from conftest import (
    check_heap_condition,
    reference_build_max,
    reference_build_min,
    same_multiset,
    sift_down_max,
    sift_down_min,
)


# A fresh guarded buffer of n values is one min-rooted heap over base 0
# (node j at buf[j]; check_heap_condition's split at 0) or one mirrored
# max-rooted heap over base n + 1 (node j at buf[n + 1 - j], so node 1 sits
# at the last position; the split at n).


def is_min_heap(arr):
    return check_heap_condition(arr.buf, 0, arr.n, 0)


def is_max_heap(arr):
    return check_heap_condition(arr.buf, 0, arr.n, arr.n)


# --- sift_down_min -----------------------------------------------------------


def test_sift_min_root_violation():
    arr = prepare_buffer([5, 2, 9])
    sift_down_min(arr.buf, 0, arr.n, 1, PhaseTally())
    assert arr.payload() == [2, 5, 9]


def test_sift_min_already_heap():
    arr = prepare_buffer([1, 2, 3])
    ctx = Metrics()
    sift_down_min(arr.buf, 0, arr.n, 1, ctx.construct)
    assert arr.payload() == [1, 2, 3]
    assert ctx.moves_total == 0


def test_sift_min_single_node():
    arr = prepare_buffer([7])
    ctx = Metrics()
    sift_down_min(arr.buf, 0, arr.n, 1, ctx.construct)
    assert arr.payload() == [7]
    assert ctx.moves_total == 0
    assert ctx.compares_total == 0


def test_sift_min_all_orderings_of_three():
    # children are leaves, so the subtree precondition holds for any order
    for perm in itertools.permutations([5, 2, 9]):
        arr = prepare_buffer(perm)
        sift_down_min(arr.buf, 0, arr.n, 1, PhaseTally())
        assert is_min_heap(arr)
        assert same_multiset(arr.payload(), perm)


# --- sift_down_max -----------------------------------------------------------


def test_sift_max_root_violation_mirrored():
    # region [9, 2, 5]: node 1 is position 3 (value 5), nodes 2,3 are 2 and 9
    arr = prepare_buffer([9, 2, 5])
    assert arr.buf[3:0:-1] == [5, 2, 9]
    sift_down_max(arr.buf, arr.n + 1, arr.n, 1, PhaseTally())
    assert arr.buf[3] == 9
    assert is_max_heap(arr)
    assert same_multiset(arr.payload(), [9, 2, 5])


def test_sift_max_all_orderings_of_three():
    for perm in itertools.permutations([9, 2, 5]):
        arr = prepare_buffer(perm)
        sift_down_max(arr.buf, arr.n + 1, arr.n, 1, PhaseTally())
        assert is_max_heap(arr)
        assert same_multiset(arr.payload(), perm)


def test_sift_max_already_max_rooted():
    arr = prepare_buffer([1, 2, 3])  # node values 3, 2, 1: already max-rooted
    ctx = Metrics()
    sift_down_max(arr.buf, arr.n + 1, arr.n, 1, ctx.construct)
    assert arr.payload() == [1, 2, 3]
    assert ctx.moves_total == 0


def test_sift_max_single_node():
    arr = prepare_buffer([4])
    ctx = Metrics()
    sift_down_max(arr.buf, arr.n + 1, arr.n, 1, ctx.construct)
    assert arr.payload() == [4]
    assert ctx.compares_total == 0


# --- builds ------------------------------------------------------------------


def test_build_min_reverse_input():
    arr = prepare_buffer([9, 8, 7, 6, 5])
    build_min_heap(arr.buf, 0, arr.n, PhaseTally())
    assert is_min_heap(arr)
    assert arr.buf[1] == 5
    assert same_multiset(arr.payload(), [9, 8, 7, 6, 5])


def test_build_min_already_heap_unchanged():
    arr = prepare_buffer([1, 2, 3, 4, 5])
    ctx = Metrics()
    build_min_heap(arr.buf, 0, arr.n, ctx.construct)
    assert arr.payload() == [1, 2, 3, 4, 5]
    assert ctx.moves_total == 0


def test_build_min_all_equal_unchanged():
    arr = prepare_buffer([4, 4, 4])
    build_min_heap(arr.buf, 0, arr.n, PhaseTally())
    assert arr.payload() == [4, 4, 4]


def test_build_max_sorted_region():
    arr = prepare_buffer([1, 2, 3, 4, 5])
    build_max_heap(arr.buf, arr.n + 1, arr.n, PhaseTally())
    assert is_max_heap(arr)
    assert arr.buf[arr.n] == 5


def test_build_max_single_element():
    arr = prepare_buffer([3])
    ctx = Metrics()
    build_max_heap(arr.buf, arr.n + 1, arr.n, ctx.construct)
    assert arr.payload() == [3]
    assert ctx.compares_total == 0


def test_builds_exhaustive_small_n():
    # heap condition, multiset preservation, root extremality, linear cost
    for n in range(1, 8):
        for perm in itertools.permutations(range(1, n + 1)):
            arr = prepare_buffer(perm)
            ctx = Metrics()
            build_min_heap(arr.buf, 0, n, ctx.construct)
            assert is_min_heap(arr)
            assert same_multiset(arr.payload(), perm)
            assert arr.buf[1] == 1
            assert ctx.compares_total <= 3 * n

            marr = prepare_buffer(perm)
            mctx = Metrics()
            build_max_heap(marr.buf, n + 1, n, mctx.construct)
            assert is_max_heap(marr)
            assert same_multiset(marr.payload(), perm)
            assert marr.buf[n] == n
            assert mctx.compares_total <= 3 * n


def _build_bounds(n):
    """The most compares and moves one build of n nodes makes: 2(n - s2(n))
    and n - s2(n) + n // 2, where s2(n) is n's binary digit sum. Every
    internal node costs 2 compares per level it reads below it, a one-child
    node's guard read included; the sum of the node heights of a heap of n
    nodes is n - s2(n)."""
    s2 = bin(n).count("1")
    return 2 * (n - s2), n - s2 + n // 2


@pytest.mark.parametrize("build", [build_min_heap, build_max_heap], ids=["min", "max"])
def test_build_worst_case_is_exact_over_every_permutation(build):
    for n in range(1, 9):
        base = 0 if build is build_min_heap else n + 1
        most_compares = most_moves = 0
        for perm in itertools.permutations(range(1, n + 1)):
            tally = PhaseTally()
            build([0, *perm, n + 1], base, n, tally)
            most_compares = max(most_compares, tally.compares)
            most_moves = max(most_moves, tally.moves)
        assert (most_compares, most_moves) == _build_bounds(n)


@pytest.mark.parametrize("n", [1023, 65535])
def test_reverse_heap_order_reaches_the_build_bounds_at_full_heaps(n):
    # a descending buffer puts the largest value at the min-rooted heap's
    # root and the smallest at the max-rooted heap's (node j at buf[n + 1 - j])
    for build, base in ((build_min_heap, 0), (build_max_heap, n + 1)):
        tally = PhaseTally()
        build([0, *range(n, 0, -1), n + 1], base, n, tally)
        assert (tally.compares, tally.moves) == _build_bounds(n)


def test_reverse_heap_order_falls_short_of_the_compare_bound_at_1024():
    tally = PhaseTally()
    build_min_heap([0, *range(1024, 0, -1), 1025], 0, 1024, tally)
    assert (tally.compares, _build_bounds(1024)[0]) == (2030, 2046)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=200))
def test_build_min_invariants_random(values):
    arr = prepare_buffer(values)
    ctx = Metrics()
    build_min_heap(arr.buf, 0, arr.n, ctx.construct)
    assert is_min_heap(arr)
    assert same_multiset(arr.payload(), values)
    assert arr.buf[1] == min(values)
    assert ctx.compares_total <= 3 * len(values)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=200))
def test_build_max_invariants_random(values):
    arr = prepare_buffer(values)
    build_max_heap(arr.buf, arr.n + 1, arr.n, PhaseTally())
    assert is_max_heap(arr)
    assert same_multiset(arr.payload(), values)
    assert arr.buf[arr.n] == max(values)


@given(st.lists(st.integers(-99, 99), min_size=1, max_size=150))
def test_mirrored_symmetry(values):
    # building the max heap on the reversed, negated input is the exact
    # mirror of building the min heap, counters included
    arr = prepare_buffer(values)
    ctx = Metrics()
    build_min_heap(arr.buf, 0, arr.n, ctx.construct)

    mirrored = [-v for v in reversed(values)]
    marr = prepare_buffer(mirrored)
    mctx = Metrics()
    build_max_heap(marr.buf, marr.n + 1, marr.n, mctx.construct)

    assert marr.payload() == [-v for v in reversed(arr.payload())]
    assert ctx.compares_total == mctx.compares_total
    assert ctx.moves_total == mctx.moves_total


# --- inlined builds against the per-node reference ---------------------------

# Duplicate-heavy payloads of three element types, with the size drawn
# uniformly from 0..300: the builders only use < and >.
_payloads = st.one_of(
    *(
        st.integers(0, 300).flatmap(lambda n, e=elements: st.lists(e, min_size=n, max_size=n))
        for elements in (
            st.integers(-3, 3),
            st.sampled_from([-1.5, 0.0, 0.25, 2.0]),
            st.tuples(st.integers(0, 2), st.integers(0, 1)),
        )
    )
)


def _guarded_segment(values, data):
    """A larger buffer holding the values at positions off+1 .. off+n, with
    filler around them and the segment's guards at off and off+n+1, the way
    dh_sort hands sub-segments to the builders."""
    n = len(values)
    lo = min(values, default=0)
    hi = max(values, default=0)
    left = data.draw(st.lists(st.just(lo), max_size=5))
    right = data.draw(st.lists(st.just(hi), max_size=5))
    return [*left, lo, *values, hi, *right], len(left), n


# The default block height plus three that force several blocks, and the
# levels above them, into heaps of the sizes the hypothesis tests draw.
_BLOCK_HEIGHTS = (core._BLOCK_HEIGHT, 1, 2, 3)


@contextlib.contextmanager
def _block_height(height):
    """Build with another block height; the cached runs are dropped on the
    way in and out, since they were computed for the other height."""
    with mock.patch.object(core, "_BLOCK_HEIGHT", height):
        core._build_runs.cache_clear()
        try:
            yield
        finally:
            core._build_runs.cache_clear()


def _assert_build_matches_reference(build, reference, buf, base, hn, heights=_BLOCK_HEIGHTS):
    """``build`` leaves the buffer and counters exactly as ``reference`` does,
    at each of ``heights``, for the heap of ``hn`` nodes over ``base``."""
    for height in heights:
        got, ref_buf = list(buf), list(buf)
        ctx, ref_ctx = Metrics(), Metrics()
        with _block_height(height):
            build(got, base, hn, ctx.construct)
        reference(ref_buf, base, hn, ref_ctx.construct)
        assert got == ref_buf, height
        assert ctx.snapshot() == ref_ctx.snapshot(), height


@given(_payloads, st.data())
def test_build_min_matches_per_node_reference(values, data):
    buf, off, n = _guarded_segment(values, data)
    _assert_build_matches_reference(build_min_heap, reference_build_min, buf, off, n)


@given(_payloads, st.data())
def test_build_max_matches_per_node_reference(values, data):
    buf, off, n = _guarded_segment(values, data)
    _assert_build_matches_reference(build_max_heap, reference_build_max, buf, off + n + 1, n)


def _block_edges(height):
    """Heap sizes on either side of one and of two levels more than a block
    of ``height`` levels holds: the smallest heaps that height blocks."""
    return tuple(2 ** (height + e) - d for e in (1, 2) for d in (1, 0))


_BLOCK_EDGES = _block_edges(core._BLOCK_HEIGHT)

# The block edges of the default height and of a lower one (10, the default
# before blocks grew to 14 levels), each built at the height that blocks it.
_EDGE_CASES = [
    pytest.param(n, height, id=str(n))
    for height in (10, core._BLOCK_HEIGHT)
    for n in _block_edges(height)
]


@pytest.mark.parametrize(("n", "height"), _EDGE_CASES)
def test_builds_match_reference_across_block_edges(n, height):
    rng = random.Random(n)
    values = [rng.randrange(n // 3) for _ in range(n)]
    off = 3
    buf = [-1] * off + [-1, *values, n] + [n] * 2
    with _block_height(height):
        assert core._build_runs(n) != ((1, n // 2),)
    heights = (height, *_BLOCK_HEIGHTS)
    _assert_build_matches_reference(build_min_heap, reference_build_min, buf, off, n, heights)
    _assert_build_matches_reference(build_max_heap, reference_build_max, buf, off + n + 1, n, heights)


@pytest.mark.parametrize("height", _BLOCK_HEIGHTS)
def test_build_runs_sift_each_node_once_after_its_children(height):
    with _block_height(height):
        for hn in (*range(301), *_BLOCK_EDGES):
            runs = core._build_runs(hn)
            order = [j for first, last in runs for j in range(last, first - 1, -1)]
            assert sorted(order) == list(range(1, hn // 2 + 1)), hn
            step = {j: i for i, j in enumerate(order)}
            for j in order:
                for child in (2 * j, 2 * j + 1):
                    if child in step:
                        assert step[child] < step[j], (hn, j)
            assert all(first <= last for first, last in runs), hn


@pytest.mark.parametrize("height", _BLOCK_HEIGHTS)
def test_blocked_runs_span_one_level(height):
    # the builders read a blocked run's parents and children ahead, which is
    # sound only while the sifts of one run touch disjoint subtrees
    with _block_height(height):
        for hn in (*range(301), *_BLOCK_EDGES):
            runs = core._build_runs(hn)
            if len(runs) > 1:
                assert all(first.bit_length() == last.bit_length() for first, last in runs), hn


def test_blocked_max_build_at_the_lowest_base():
    # an even heap at base hn + 1 reads the guard in slot 0 as the right
    # child of its last internal node, so a row of right children starts there
    hn = 2 ** (core._BLOCK_HEIGHT + 1)
    rng = random.Random(hn)
    buf = [-1, *(rng.randrange(hn // 3) for _ in range(hn)), hn]
    assert len(core._build_runs(hn)) > 1
    _assert_build_matches_reference(build_max_heap, reference_build_max, buf, hn + 1, hn)


def test_build_runs_keep_level_order_below_one_block():
    hn = 2 ** core._BLOCK_HEIGHT - 1
    assert core._build_runs(hn) == ((1, hn // 2),)


# --- sentinel buffer ---------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5])
def test_sentinel_array_rejects_an_n_that_disagrees_with_its_buffer(n):
    # n = 3 let the selection swap the high guard 9 into the payload; n = 5
    # indexed past the buffer
    with pytest.raises(ValueError, match=f"a buffer for n={n} payload elements needs {n + 2} slots, got 6"):
        SentinelArray(buf=[0, 5, 1, 4, 2, 9], n=n)
    assert SentinelArray(buf=[0, 5, 1, 4, 9], n=3).payload() == [5, 1, 4]


# --- split rule --------------------------------------------------------------


def test_split_indices_examples():
    assert split_indices(10, 6) == (5, 5)
    assert split_indices(15, 7) == (7, 8)
    assert split_indices(1, 1) == (1, 0)


def test_split_indices_properties():
    for n in range(1, 40):
        for k in range(1, n + 1):
            shn, lhn = split_indices(n, k)
            assert shn & 1
            assert shn + lhn == n
            assert shn == (k if k & 1 else k - 1)


def test_split_indices_bounds():
    with pytest.raises(IndexError):
        split_indices(10, 0)
    with pytest.raises(IndexError):
        split_indices(10, 11)


def test_split_indices_rejects_bool():
    for k in (True, 2.0, "2"):
        with pytest.raises(TypeError):
            split_indices(4, k)


# --- validator ---------------------------------------------------------------


def test_check_heap_condition_min():
    assert is_min_heap(prepare_buffer([1, 2, 3]))
    assert not is_min_heap(prepare_buffer([3, 1, 2]))


def test_check_heap_condition_max_mirrored():
    # node values: root 9, children 2 and 5
    arr = prepare_buffer([5, 2, 9])
    assert arr.buf[arr.n] == 9
    assert is_max_heap(arr)
    assert not is_max_heap(prepare_buffer([9, 2, 5]))


def test_check_heap_condition_checks_both_sides_of_a_split():
    # small side [1, 3] (root 3, child 1), large side [4, 6, 5] (root 4)
    arr = prepare_buffer([1, 3, 4, 6, 5])
    assert check_heap_condition(arr.buf, 0, 5, 2)
    assert not check_heap_condition(arr.buf, 0, 5, 3)
    arr = prepare_buffer([3, 1, 4, 6, 5])
    assert not check_heap_condition(arr.buf, 0, 5, 2)
