import gc
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dualheap.select as select
from dualheap import (
    STRATEGIES,
    Metrics,
    SelectOptions,
    SentinelArray,
    build_min_heap,
    construct_dualheap,
    dh_select,
    dh_select_copy,
    dh_sort,
    generate,
    oracle_select,
    prepare_buffer,
    verify_partition,
)
from conftest import Tagged, same_multiset


# --- prepare_buffer ----------------------------------------------------------


def test_prepare_buffer_sentinels_from_scan():
    arr = prepare_buffer([3, 1, 2])
    assert arr.buf == [1, 3, 1, 2, 3]
    assert arr.n == 3


def test_prepare_buffer_single_element():
    assert prepare_buffer([7]).buf == [7, 7, 7]


def test_prepare_buffer_all_equal():
    assert prepare_buffer([4, 4]).buf == [4, 4, 4, 4]


def test_prepare_buffer_empty_rejected():
    with pytest.raises(ValueError):
        prepare_buffer([])


def test_prepare_buffer_accepts_any_iterable_and_copies():
    values = [3.5, -1.0, 2.0]
    arr = prepare_buffer(iter(values))
    assert arr.buf == [-1.0, 3.5, -1.0, 2.0, 3.5]
    arr.buf[1] = 0.0
    assert values == [3.5, -1.0, 2.0]


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda: dh_select(prepare_buffer([3.0, NAN, 1.0, 2.0, 5.0]), 3),
        lambda: dh_select_copy([3.0, NAN, 1.0, 2.0, 5.0], 3),
        lambda: dh_sort([NAN, 1.0, 0.5]),
        lambda: prepare_buffer([NAN]),
        lambda: prepare_buffer([1.0, 2.0, NAN]),
    ],
    ids=["dh_select", "dh_select_copy", "dh_sort", "lone_nan", "nan_last"],
)
def test_nan_breaks_the_total_order_contract(call):
    with pytest.raises(ValueError, match="totally ordered"):
        call()


# Sizes on either side of one and two scan chunks.
@pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
def test_prepare_buffer_guards_across_scan_chunks(n):
    values = [(i * 7919) % n - n // 2 for i in range(n)]
    original = list(values)
    arr = prepare_buffer(values)
    assert arr.buf[0] == min(values)
    assert arr.buf[-1] == max(values)
    assert arr.payload() == values == original


@pytest.mark.parametrize("n", [4097, 8193])
@pytest.mark.parametrize("where", ["first", "4096", "4097", "last"])
def test_nan_rejected_in_every_scan_chunk(n, where):
    values = [float(i) for i in range(n)]
    position = {"first": 1, "4096": 4096, "4097": 4097, "last": n}[where]
    values[position - 1] = NAN
    with pytest.raises(ValueError, match="totally ordered"):
        prepare_buffer(values)


@pytest.mark.parametrize(
    "values",
    [[1, "a"], [*range(5000), "a"], ["a", *range(5000)]],
    ids=["adjacent", "later_chunk", "first_element"],
)
def test_incomparable_elements_break_the_total_order_contract(values):
    with pytest.raises(TypeError, match="totally ordered") as caught:
        prepare_buffer(values)
    assert isinstance(caught.value.__cause__, TypeError)


# --- dh_select ---------------------------------------------------------------


def test_select_traced_example():
    # [3,1,2], k=2: whole-array min heap first, then split at 1
    arr = prepare_buffer([3, 1, 2])
    ctx = Metrics()
    build_min_heap(arr.buf, 0, 3, ctx.construct)
    assert arr.payload() == [1, 3, 2]

    arr = prepare_buffer([3, 1, 2])
    ctx = Metrics()
    assert construct_dualheap(arr, 2, presplit=1, ctx=ctx) == 1
    assert arr.buf[1:2] == [1]
    assert sorted(arr.buf[2:4]) == [2, 3]
    assert arr.buf[2] == 2  # the large-heap root
    out = dh_select(prepare_buffer([3, 1, 2]), 2, SelectOptions(strategy="tree", presplit=1))
    assert out.value == 2
    assert out.split == 1


def test_select_five_values():
    out = dh_select(prepare_buffer([5, 3, 9, 1, 7]), 3)
    assert out.value == 5


def test_select_all_equal():
    assert dh_select(prepare_buffer([4, 4, 4, 4]), 2).value == 4


def test_select_singleton_reads_high_sentinel_guard():
    out = dh_select(prepare_buffer([6]), 1)
    assert out.value == 6
    assert out.split == 1
    assert out.metrics.swap.compares == 1  # just the guard against the sentinel


def test_select_bounds_errors():
    arr = prepare_buffer([1, 2, 3])
    with pytest.raises(IndexError):
        dh_select(arr, 0)
    with pytest.raises(IndexError):
        dh_select(arr, 4)


@pytest.mark.parametrize(
    "presplit, error, message",
    [
        (5, ValueError, "presplit must be one of (0, 1, 2), got 5"),
        (-1, ValueError, "presplit must be one of (0, 1, 2), got -1"),
        (True, TypeError, "presplit must be an int, not bool (True)"),
        (1.0, TypeError, "presplit must be an int, not float (1.0)"),
    ],
)
def test_construct_dualheap_checks_presplit_as_select_options_does(presplit, error, message):
    # these ran as presplit 1 (or 0 for -1) with no error
    arr = prepare_buffer([3, 1, 2])
    with pytest.raises(error) as caught:
        construct_dualheap(arr, 2, presplit)
    assert str(caught.value) == message
    with pytest.raises(error, match=re.escape(message)):
        SelectOptions(presplit=presplit)
    assert arr.buf == [1, 3, 1, 2, 3]


def test_select_rejects_bool_k():
    with pytest.raises(TypeError):
        dh_select(prepare_buffer([1, 2, 3]), True)
    with pytest.raises(TypeError):
        construct_dualheap(prepare_buffer([1, 2, 3]), False)
    # a float or str k got past the check and failed with Python's own message
    for k in (2.0, "2"):
        with pytest.raises(TypeError, match=r"selection index k must be an int, not (float|str)"):
            dh_select(prepare_buffer([3, 1, 2]), k)
        with pytest.raises(TypeError, match=r"selection index k must be an int"):
            construct_dualheap(prepare_buffer([3, 1, 2]), k)


def test_select_rejects_numpy_int_k():
    # numpy ints index lists, but the heap split and step budget need int
    # methods (bit_length), so they get the same TypeError as a float
    numpy = pytest.importorskip("numpy")
    values = list(range(100, 0, -1))
    with pytest.raises(TypeError, match=r"selection index k must be an int, not int64"):
        dh_select(prepare_buffer(values), numpy.int64(50))
    with pytest.raises(TypeError):
        verify_partition(prepare_buffer(values), numpy.int64(50))


def test_select_partition_side_effect():
    arr = prepare_buffer([8, 6, 7, 5, 3, 0, 9, 1, 4, 2])
    out = dh_select(arr, 4)
    assert out.value == 3
    assert verify_partition(arr, 4)
    assert same_multiset(arr.payload(), range(10))


def test_select_copy_leaves_input_alone():
    values = [9, 4, 6, 1]
    out = dh_select_copy(values, 2)
    assert out.value == 4
    assert values == [9, 4, 6, 1]


def test_parity_both_split_paths():
    values = [12, 3, 7, 9, 1, 5, 11, 2, 8, 10]
    odd = dh_select(prepare_buffer(values), 5)
    even = dh_select(prepare_buffer(values), 6)
    assert odd.value == oracle_select(values, 5)
    assert odd.split == 5  # k odd: answer sits at the small-heap root
    assert even.value == oracle_select(values, 6)
    assert even.split == 5  # k even: answer sits at the large-heap root


def test_determinism_identical_counters():
    values = generate(513, "random", seed=42)
    runs = []
    for _ in range(2):
        ctx = Metrics()
        out = dh_select(prepare_buffer(values), 200, SelectOptions("branch", 2), ctx)
        runs.append((out.value, out.split, ctx.snapshot()))
    assert runs[0] == runs[1]


# Exact construct/swap counts (compares, moves, compares, moves) of dh_select
# at n = 65535, k = median, keyed by (swap strategy, input seed, presplit).
# Any change here changes what the benchmark's figures report.
PINNED_COUNTS_65535 = {
    ("tree", 1, 0): (123484, 74660, 251171, 148728),
    ("tree", 1, 1): (242030, 134029, 115167, 57649),
    ("tree", 1, 2): (349672, 160214, 85302, 41790),
    ("tree", 2, 0): (123358, 74401, 252476, 149251),
    ("tree", 2, 1): (242356, 133899, 114599, 57291),
    ("tree", 2, 2): (349694, 159561, 87263, 42789),
    ("tree", 3, 0): (123170, 74557, 252478, 149340),
    ("tree", 3, 1): (242442, 134243, 113712, 56932),
    ("tree", 3, 2): (350158, 160429, 84313, 41301),
    ("branch", 1, 0): (123484, 74660, 550697, 299245),
    ("branch", 1, 1): (242030, 134029, 184322, 95717),
    ("branch", 1, 2): (349672, 160214, 130495, 67033),
    ("branch", 2, 0): (123358, 74401, 551777, 299730),
    ("branch", 2, 1): (242356, 133899, 181945, 94509),
    ("branch", 2, 2): (349694, 159561, 132362, 68003),
    ("branch", 3, 0): (123170, 74557, 550738, 299378),
    ("branch", 3, 1): (242442, 134243, 181958, 94465),
    ("branch", 3, 2): (350158, 160429, 129540, 66562),
    ("root", 1, 0): (123484, 74660, 897507, 489590),
    ("root", 1, 1): (242030, 134029, 280250, 149729),
    ("root", 1, 2): (349672, 160214, 195977, 104174),
    ("root", 2, 0): (123358, 74401, 900311, 490984),
    ("root", 2, 1): (242356, 133899, 278069, 148563),
    ("root", 2, 2): (349694, 159561, 199142, 105863),
    ("root", 3, 0): (123170, 74557, 900131, 491073),
    ("root", 3, 1): (242442, 134243, 276920, 147875),
    ("root", 3, 2): (350158, 160429, 194650, 103456),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pinned_counts_n65535(seed):
    values = generate(65535, "random", seed)
    for strategy in STRATEGIES:
        for presplit in (0, 1, 2):
            ctx = Metrics()
            out = dh_select(prepare_buffer(values), 32768, SelectOptions(strategy, presplit), ctx)
            assert out.value == 32768
            got = (ctx.construct.compares, ctx.construct.moves, ctx.swap.compares, ctx.swap.moves)
            assert got == PINNED_COUNTS_65535[strategy, seed, presplit], (strategy, presplit)


def test_oracle_agreement_exhaustive_small():
    for n in range(1, 6):
        for perm in itertools.permutations(range(1, n + 1)):
            for k in range(1, n + 1):
                for strategy in ("tree", "branch", "root"):
                    for presplit in (0, 1, 2):
                        arr = prepare_buffer(perm)
                        out = dh_select(arr, k, SelectOptions(strategy, presplit))
                        assert out.value == k
                        assert verify_partition(arr, k)


@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=30),
    st.data(),
)
def test_oracle_agreement_duplicates(values, data):
    k = data.draw(st.integers(1, len(values)))
    strategy = data.draw(st.sampled_from(["tree", "branch", "root"]))
    presplit = data.draw(st.sampled_from([0, 1, 2]))
    arr = prepare_buffer(values)
    out = dh_select(arr, k, SelectOptions(strategy, presplit))
    assert out.value == oracle_select(values, k)
    assert verify_partition(arr, k)
    assert same_multiset(arr.payload(), values)


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=300), st.data())
def test_oracle_agreement_wide_values(values, data):
    k = data.draw(st.integers(1, len(values)))
    arr = prepare_buffer(values)
    out = dh_select(arr, k)
    assert out.value == oracle_select(values, k)
    assert verify_partition(arr, k)


def _duplicate_heavy(kind: str, n: int, distinct: int, seed: int) -> list:
    rng = random.Random(seed)
    ranks = [rng.randrange(distinct) for _ in range(n)]
    if kind == "int":
        return ranks
    if kind == "float":
        return [r / 4 - 3.0 for r in ranks]
    return [(r // 3, r % 3) for r in ranks]


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(st.integers(1, 64), st.integers(1, 10_000)),
    st.sampled_from(["int", "float", "tuple"]),
    st.integers(1, 40),
    st.integers(0, 2**32),
    st.data(),
)
@example(n=10_000, kind="tuple", distinct=40, seed=1, data=None)
@example(n=9_999, kind="float", distinct=3, seed=2, data=None)
def test_oracle_agreement_large_duplicate_heavy(n, kind, distinct, seed, data):
    values = _duplicate_heavy(kind, n, distinct, seed)
    k = data.draw(st.integers(1, n)) if data is not None else (n + 1) // 2
    expected = oracle_select(values, k)
    for strategy, presplit in itertools.product(("tree", "branch", "root"), (0, 1, 2)):
        arr = prepare_buffer(values)
        out = dh_select(arr, k, SelectOptions(strategy, presplit))
        assert out.value == expected
        assert verify_partition(arr, k)
        assert same_multiset(arr.payload(), values)


# --- verify_partition --------------------------------------------------------


def test_verify_partition_examples():
    assert verify_partition(prepare_buffer([1, 2, 3]), 2)
    assert not verify_partition(prepare_buffer([3, 1, 2]), 2)


@pytest.mark.parametrize(
    "k, error", [(0, IndexError), (4, IndexError), (5, IndexError), (True, TypeError), (2.0, TypeError), ("2", TypeError)]
)
def test_verify_partition_rejects_k_as_dh_select_does(k, error):
    # k = 0 and k = n + 1 would read a guard and pass; k = n + 2 ran off the buffer
    with pytest.raises(error):
        verify_partition(prepare_buffer([1, 2, 3]), k)


# --- dh_sort -----------------------------------------------------------------


def test_sort_examples():
    assert dh_sort([3, 1, 2]) == [1, 2, 3]
    assert dh_sort([]) == []
    assert dh_sort([2, 2, 1, 1]) == [1, 1, 2, 2]


@pytest.mark.parametrize("strategy", ["tree", "branch", "root"])
@pytest.mark.parametrize("presplit", [0, 1, 2])
def test_sort_all_options(strategy, presplit):
    values = generate(200, "random", seed=5)
    assert dh_sort(values, SelectOptions(strategy, presplit)) == sorted(values)


def test_sort_random_cases_across_families():
    # ten thousand oracle-checked sorts over every generator family
    cases = 0
    seed = 0
    while cases < 10_000:
        for dist in ("random", "sorted", "reverse", "organpipe", "allequal", "fewvalues"):
            n = (cases * 37 + 13) % 201  # lengths sweep 0..200
            seed += 1
            values = generate(n, dist, seed) if n else []
            assert dh_sort(values) == sorted(values)
            cases += 1
    assert cases >= 10_000


@given(st.lists(st.integers(-100, 100), max_size=120))
def test_sort_matches_oracle(values):
    assert dh_sort(values) == sorted(values)


def _weak_orders(n):
    """Every ordering of n keys with ties: rank tuples using each rank in
    0..max once or more."""
    for ranks in itertools.product(range(n), repeat=n):
        if set(ranks) == set(range(max(ranks) + 1)):
            yield ranks


def _guarded_buffer(ranks, below, above, off):
    """A buffer holding the ranks at off+1 .. off+n, their low guard at off
    (``below`` under the minimum) and high guard at off+n+1 (``above`` over
    the maximum), with more elements on either side."""
    outside = [Tagged(-10 - i, "pad") for i in range(off)]
    low = Tagged(min(ranks) - below, "low")
    high = Tagged(max(ranks) + above, "high")
    segment = [Tagged(rank, i) for i, rank in enumerate(ranks)]
    return [*outside, low, *segment, high, Tagged(99, "pad"), Tagged(100, "pad")]


def _keys_and_tags(buf):
    return [(x.key, x.tag) for x in buf]


def test_select_three_matches_the_general_path():
    # The straight-line select is a second code path; the general
    # _select_segment at k = 2 is its reference, for every weak order of the
    # segment, both kinds of guard, a nonzero offset and every presplit
    # dh_sort sends it (presplit-0 segments take the general path).
    n = 3
    off = 3
    cases = 0
    for ranks in _weak_orders(n):
        for below, above in itertools.product((0, 1), repeat=2):
            for presplit in (1, 2):
                got = _guarded_buffer(ranks, below, above, off)
                got_ctx = Metrics()
                select._select_three(got, off, presplit, got_ctx.construct, got_ctx.swap)
                for strategy in ("tree", "branch", "root"):
                    want = _guarded_buffer(ranks, below, above, off)
                    want_ctx = Metrics()
                    arr = SentinelArray(buf=want, n=len(want) - 2)
                    select._select_segment(arr, off, n, 2, SelectOptions(strategy, presplit), want_ctx)
                    assert _keys_and_tags(got) == _keys_and_tags(want), (ranks, below, above, strategy, presplit)
                    assert got_ctx.snapshot() == want_ctx.snapshot(), (ranks, below, above, strategy, presplit)
                    cases += 1
    assert cases == 13 * 4 * 6


def _reference_sort(values, opts, ctx):
    """dh_sort as recursion over _select_segment: the reference for the
    stack driver and its n = 3 select."""
    arr = prepare_buffer(values)

    def sort_segment(off, n):
        if n <= 1:
            return
        k = (n + 1) // 2
        select._select_segment(arr, off, n, k, opts, ctx)
        sort_segment(off, k - 1)
        sort_segment(off + k, n - k)

    sort_segment(0, arr.n)
    return arr.payload()


def _same_sort_as_reference(values):
    for strategy, presplit in itertools.product(("tree", "branch", "root"), (0, 1, 2)):
        opts = SelectOptions(strategy, presplit)
        got_ctx = Metrics()
        want_ctx = Metrics()
        got = dh_sort([Tagged(v, i) for i, v in enumerate(values)], opts, got_ctx)
        want = _reference_sort([Tagged(v, i) for i, v in enumerate(values)], opts, want_ctx)
        assert _keys_and_tags(got) == _keys_and_tags(want), (strategy, presplit)
        assert got_ctx.snapshot() == want_ctx.snapshot(), (strategy, presplit)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=100))
def test_sort_matches_recursive_reference_with_ties(values):
    _same_sort_as_reference(values)


@pytest.mark.parametrize("dist", ["random", "fewvalues"])
def test_sort_matches_recursive_reference_at_2047(dist):
    # 2047 = 2**11 - 1 splits into segments of 2**j - 1 only, as in the
    # benchmark; 2000 does not.
    _same_sort_as_reference(generate(2047, dist, seed=9))
    _same_sort_as_reference(generate(2000, dist, seed=9))


# --- reference cycles --------------------------------------------------------


@pytest.mark.parametrize(
    "run",
    [
        lambda values: dh_select(prepare_buffer(values), 1000, SelectOptions("tree")),
        lambda values: dh_select(prepare_buffer(values), 1000, SelectOptions("branch")),
        lambda values: dh_select(prepare_buffer(values), 1000, SelectOptions("root")),
        dh_sort,
    ],
    ids=["tree", "branch", "root", "dh_sort"],
)
def test_no_reference_cycles_left_behind(run):
    # A cycle through the buffer would keep it alive until the cyclic GC ran.
    values = generate(2047, "random", seed=3)
    gc.collect()
    gc.disable()
    try:
        run(values)
        assert gc.collect() == 0
    finally:
        gc.enable()
