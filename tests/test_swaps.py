import itertools

import pytest

import dualheap.swaps as swaps
from dualheap import (
    DualHeap,
    InternalInvariantError,
    LargeHeapView,
    Metrics,
    SelectOptions,
    SmallHeapView,
    branch_swap,
    build_max_heap,
    build_min_heap,
    check_heap_condition,
    construct_dualheap,
    dh_select,
    prepare_buffer,
    root_swap,
    run_swapping_phase,
    swap_step_budget,
    tree_swap,
    verify_partition,
)
from conftest import same_multiset


def make_dualheap(values, shn, heapify=True):
    """Dualheap over the values with an explicit split (shn must be odd)."""
    arr = prepare_buffer(values)
    assert shn & 1
    dh = DualHeap(
        small=SmallHeapView(arr.buf, shn + 1, shn),
        large=LargeHeapView(arr.buf, shn, arr.n - shn),
    )
    if heapify:
        ctx = Metrics()
        build_max_heap(dh.small, ctx)
        build_min_heap(dh.large, ctx)
    return dh, arr


def sides_partitioned(arr, shn):
    left = arr.buf[1 : shn + 1]
    right = arr.buf[shn + 1 : arr.n + 1]
    return not right or not left or max(left) <= min(right)


# --- single-exchange examples ------------------------------------------------


@pytest.mark.parametrize("exchange", ["tree", "branch", "root"])
def test_tiny_instance_all_strategies_agree(exchange):
    # small side [3], large side [1, 2]: one exchange then one sift
    dh, arr = make_dualheap([3, 1, 2], shn=1)
    ctx = Metrics()
    if exchange == "tree":
        tree_swap(dh, 1, 1, ctx)
    elif exchange == "branch":
        branch_swap(dh, ctx)
    else:
        root_swap(dh, ctx)
    assert arr.payload() == [1, 2, 3]
    assert check_heap_condition(dh.small)
    assert check_heap_condition(dh.large)
    assert dh.large.node(1) == 2


def test_root_swap_both_singletons():
    dh, arr = make_dualheap([5, 2], shn=1)
    ctx = Metrics()
    root_swap(dh, ctx)
    assert arr.payload() == [2, 5]
    assert ctx.moves_total == 2


def test_guard_false_means_no_invocation():
    # already partitioned: the phase loop does one guard compare and stops
    dh, arr = make_dualheap([1, 2, 3, 4, 5], shn=3)
    before = arr.buf[:]
    ctx = Metrics()
    run_swapping_phase(dh, "tree", ctx)
    assert arr.buf == before
    assert ctx.swap.compares == 1
    assert ctx.swap.moves == 0


def test_all_equal_values_never_swap():
    dh, arr = make_dualheap([4, 4, 4, 4], shn=3)
    ctx = Metrics()
    run_swapping_phase(dh, "branch", ctx)
    assert ctx.swap.compares == 1
    assert ctx.swap.moves == 0


# --- full phase --------------------------------------------------------------


def test_reverse_sorted_partitions_at_three():
    arr = prepare_buffer([5, 4, 3, 2, 1])
    ctx = Metrics()
    out = dh_select(arr, 3, SelectOptions(strategy="tree", presplit=1), ctx)
    assert out.value == 3
    assert sorted(arr.buf[1:4]) == [1, 2, 3]
    assert verify_partition(arr, 3)


@pytest.mark.parametrize("strategy", ["tree", "branch", "root"])
def test_exhaustive_partition_property(strategy):
    # every permutation of 1..7, every split point
    for n in range(1, 8):
        perms = itertools.permutations(range(1, n + 1))
        for perm in perms:
            for k in range(1, n + 1):
                arr = prepare_buffer(perm)
                ctx = Metrics()
                dh = construct_dualheap(arr, k, presplit=1, ctx=ctx)
                run_swapping_phase(dh, strategy, ctx)
                assert check_heap_condition(dh.small)
                assert check_heap_condition(dh.large)
                assert sides_partitioned(arr, dh.small.shn)
                assert same_multiset(arr.payload(), perm)


def test_strategy_outcomes_share_side_multisets():
    # distinct values: the two sides are value-determined, whatever the strategy
    values = [9, 1, 8, 2, 7, 3, 6, 4, 5, 0, 11, 10]
    results = {}
    for strategy in ("tree", "branch", "root"):
        dh, arr = make_dualheap(list(values), shn=5)
        run_swapping_phase(dh, strategy, Metrics())
        results[strategy] = (sorted(arr.buf[1:6]), sorted(arr.buf[6 : arr.n + 1]))
    assert results["tree"] == results["branch"] == results["root"]


def test_progress_inversions_strictly_decrease():
    def cross_inversions(arr, shn):
        left = arr.buf[1 : shn + 1]
        right = arr.buf[shn + 1 : arr.n + 1]
        return sum(1 for a in left for b in right if a > b)

    for strategy in ("tree", "branch", "root"):
        for seed in range(20):
            values = [((seed + 3) * (i + 7) * 2654435761) % 97 for i in range(15)]
            dh, arr = make_dualheap(values, shn=7)
            ctx = Metrics()
            inv = cross_inversions(arr, 7)
            guard = lambda: arr.buf[dh.small.base - 1] > arr.buf[dh.large.base + 1]
            while guard():
                if strategy == "tree":
                    tree_swap(dh, 1, 1, ctx)
                elif strategy == "branch":
                    branch_swap(dh, ctx)
                else:
                    root_swap(dh, ctx)
                now = cross_inversions(arr, 7)
                assert now < inv
                inv = now


def test_costs_positive_when_anything_swapped():
    dh, arr = make_dualheap([9, 8, 7, 1, 2, 3], shn=3)
    ctx = Metrics()
    run_swapping_phase(dh, "tree", ctx)
    assert ctx.swap.compares > 0
    assert ctx.swap.moves > 0


# --- growth character --------------------------------------------------------


def test_root_swap_phase_grows_superlinearly():
    # doubling n should more than double root-exchange swap compares
    # (the n-log-n profile of repeated root extraction), while the greedy
    # subtree exchange stays near linear
    from dualheap import InputSpec, generate

    def mean_swap_compares(strategy, n, trials=8):
        total = 0
        for t in range(trials):
            values = generate(InputSpec(n, "random", seed=900 + t))
            arr = prepare_buffer(values)
            ctx = Metrics()
            dh_select(arr, (n + 1) // 2, SelectOptions(strategy=strategy, presplit=1), ctx)
            total += ctx.swap.compares
        return total / trials

    root_ratio = mean_swap_compares("root", 2048) / mean_swap_compares("root", 1024)
    assert root_ratio > 2.0


def test_swap_budget_formula():
    assert swap_step_budget(1) == 2
    assert swap_step_budget(7) == 7 * 4
    assert swap_step_budget(1023) == 1023 * 11


def test_budget_violation_is_diagnosed(monkeypatch):
    monkeypatch.setitem(swaps._STRATEGY_FUNCS, "tree", lambda dh, ctx: None)
    dh, arr = make_dualheap([9, 1, 2], shn=1)
    with pytest.raises(InternalInvariantError):
        run_swapping_phase(dh, "tree", Metrics())


def test_unknown_strategy_rejected():
    dh, arr = make_dualheap([3, 1, 2], shn=1)
    with pytest.raises(ValueError):
        run_swapping_phase(dh, "spiral", Metrics())
