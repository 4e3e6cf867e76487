import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dualheap.select as select
import dualheap.swaps as swaps
from dualheap import (
    InternalInvariantError,
    Metrics,
    PhaseTally,
    SelectOptions,
    construct_dualheap,
    dh_select,
    prepare_buffer,
    run_swapping_phase,
    swap_step_budget,
    verify_partition,
)
from dualheap.bench import generate
from conftest import Tagged, check_heap_condition, reference_swapping_phase, same_multiset


def make_dualheap(values, shn):
    """A guarded buffer of the values with both heaps built (no presplit),
    split after ``shn`` elements (shn must be odd)."""
    arr = prepare_buffer(values)
    assert shn & 1
    select._build_dualheap(arr.buf, 0, arr.n, shn, 0, PhaseTally())
    return arr


def sides_partitioned(arr, shn):
    left = arr.buf[1 : shn + 1]
    right = arr.buf[shn + 1 : arr.n + 1]
    return not right or not left or max(left) <= min(right)


# --- single-exchange examples ------------------------------------------------


@pytest.mark.parametrize("exchange", ["tree", "branch", "root"])
def test_tiny_instance_all_strategies_agree(exchange):
    # small side [3], large side [1, 2]: one exchange then one sift
    arr = make_dualheap([3, 1, 2], shn=1)
    ctx = Metrics()
    assert run_swapping_phase(arr.buf, 0, 3, 1, exchange, ctx.swap) == (1, 1)
    assert arr.payload() == [1, 2, 3]
    assert check_heap_condition(arr.buf, 0, 3, 1)
    assert arr.buf[2] == 2  # the large-heap root


def test_root_swap_both_singletons():
    arr = make_dualheap([5, 2], shn=1)
    ctx = Metrics()
    assert run_swapping_phase(arr.buf, 0, 2, 1, "root", ctx.swap) == (1, 1)
    assert arr.payload() == [2, 5]
    assert ctx.moves_total == 2


def test_guard_false_means_no_invocation():
    # already partitioned: the phase loop does one guard compare and stops
    arr = make_dualheap([1, 2, 3, 4, 5], shn=3)
    before = arr.buf[:]
    ctx = Metrics()
    assert run_swapping_phase(arr.buf, 0, 5, 3, "tree", ctx.swap) == (0, 0)
    assert arr.buf == before
    assert ctx.swap.compares == 1
    assert ctx.swap.moves == 0


def test_all_equal_values_never_swap():
    arr = make_dualheap([4, 4, 4, 4], shn=3)
    ctx = Metrics()
    assert run_swapping_phase(arr.buf, 0, 4, 3, "branch", ctx.swap) == (0, 0)
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
                shn = construct_dualheap(arr, k, presplit=1, ctx=ctx)
                run_swapping_phase(arr.buf, 0, n, shn, strategy, ctx.swap)
                assert check_heap_condition(arr.buf, 0, n, shn)
                assert sides_partitioned(arr, shn)
                assert same_multiset(arr.payload(), perm)


def test_strategy_outcomes_share_side_multisets():
    # distinct values: the two sides are value-determined, whatever the strategy
    values = [9, 1, 8, 2, 7, 3, 6, 4, 5, 0, 11, 10]
    results = {}
    for strategy in ("tree", "branch", "root"):
        arr = make_dualheap(list(values), shn=5)
        run_swapping_phase(arr.buf, 0, arr.n, 5, strategy, PhaseTally())
        results[strategy] = (sorted(arr.buf[1:6]), sorted(arr.buf[6 : arr.n + 1]))
    assert results["tree"] == results["branch"] == results["root"]


def test_progress_inversions_strictly_decrease(monkeypatch):
    # a budget of t stops the phase after its t-th step
    def cross_inversions(arr, shn):
        left = arr.buf[1 : shn + 1]
        right = arr.buf[shn + 1 : arr.n + 1]
        return sum(1 for a in left for b in right if a > b)

    for strategy in ("tree", "branch", "root"):
        for seed in range(20):
            values = [((seed + 3) * (i + 7) * 2654435761) % 97 for i in range(15)]
            arr = make_dualheap(values, shn=7)
            inv = cross_inversions(arr, 7)
            t = 0
            while not sides_partitioned(arr, 7):
                t += 1
                arr = make_dualheap(values, shn=7)
                monkeypatch.setattr(swaps, "swap_step_budget", lambda n: t)
                try:
                    run_swapping_phase(arr.buf, 0, arr.n, 7, strategy, PhaseTally())
                except InternalInvariantError:
                    pass
                now = cross_inversions(arr, 7)
                assert now < inv
                inv = now


def test_costs_positive_when_anything_swapped():
    arr = make_dualheap([9, 8, 7, 1, 2, 3], shn=3)
    ctx = Metrics()
    run_swapping_phase(arr.buf, 0, 6, 3, "tree", ctx.swap)
    assert ctx.swap.compares > 0
    assert ctx.swap.moves > 0


# --- the loop against the recursive reference ------------------------------


def _loop_and_reference(buf, off, n, k, strategy, presplit):
    """Build the dualheap of the segment at off+1 .. off+n, then run the
    swap loop on it and the recursive reference on a copy. Returns each
    side's buffer, swap tally and ``(exchanges, guard_steps)``."""
    shn = k if k & 1 else k - 1
    select._build_dualheap(buf, off, n, shn, presplit, PhaseTally())
    ref = list(buf)
    got = PhaseTally()
    want = PhaseTally()
    got_pair = run_swapping_phase(buf, off, n, shn, strategy, got)
    want_pair = reference_swapping_phase(ref, off, n, shn, strategy, want)
    return (buf, got.compares, got.moves, got_pair), (ref, want.compares, want.moves, want_pair)


@pytest.mark.parametrize("strategy", swaps.STRATEGIES)
def test_loop_matches_reference_exhaustively(strategy):
    # every permutation of 1..n for n <= 7, every k and presplit
    cases = 0
    for n in range(1, 8):
        for perm in itertools.permutations(range(1, n + 1)):
            for k in range(1, n + 1):
                for presplit in (0, 1, 2):
                    got, want = _loop_and_reference([0, *perm, n + 1], 0, n, k, strategy, presplit)
                    assert got == want, (perm, k, presplit)
                    cases += 1
    assert cases == 3 * sum(math.factorial(n) * n for n in range(1, 8))


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=300),
    st.integers(1, 300),
    st.integers(0, 1),
    st.integers(0, 1),
)
def test_loop_matches_reference_on_ties_inside_a_larger_buffer(ranks, k, below, above):
    # tagged ties show any exchange made the other way; the segment sits at a
    # nonzero offset, so its guards are partition neighbours that may equal
    # its extremes
    n = len(ranks)
    k = min(k, n)
    off = 4
    for strategy in swaps.STRATEGIES:
        for presplit in (0, 1, 2):
            def buffer():
                return [
                    *(Tagged(-10 - i, "pad") for i in range(off)),
                    Tagged(min(ranks) - below, "low"),
                    *(Tagged(rank, i) for i, rank in enumerate(ranks)),
                    Tagged(max(ranks) + above, "high"),
                    Tagged(99, "pad"),
                ]

            got, want = _loop_and_reference(buffer(), off, n, k, strategy, presplit)
            assert got[1:] == want[1:], (strategy, presplit)
            assert [(x.key, x.tag) for x in got[0]] == [(x.key, x.tag) for x in want[0]], (strategy, presplit)


# --- exchanges and guard steps ----------------------------------------------


def _swap_pairs(strategy, n, seeds):
    """The swap phase's ``(exchanges, guard_steps)`` after a presplit-1
    construction at the median k, one pair per seed of a random input."""
    pairs = []
    for seed in seeds:
        arr = prepare_buffer(generate(n, "random", seed))
        shn = construct_dualheap(arr, (n + 1) // 2)
        pairs.append(run_swapping_phase(arr.buf, 0, n, shn, strategy, PhaseTally()))
    return pairs


def test_root_exchanges_one_pair_per_guard_step():
    # root never descends below the roots, so each step is one exchange
    for n in range(1, 8):
        for perm in itertools.permutations(range(1, n + 1)):
            for shn in range(1, n + 1, 2):
                arr = make_dualheap(perm, shn)
                exchanges, steps = run_swapping_phase(arr.buf, 0, n, shn, "root", PhaseTally())
                assert exchanges == steps, (perm, shn)
    [(exchanges, steps)] = _swap_pairs("root", 65535, (0,))
    assert exchanges == steps > 0


# Seeds 0, 1 and 2. Exchanges grow about linearly for every strategy
# (about 0.1 per element); guard steps grow slowly for tree and fastest for
# root, which makes one exchange per step.
SWAP_PAIRS = {
    ("tree", 1023): [(112, 4), (103, 4), (111, 5)],
    ("tree", 4095): [(450, 6), (427, 5), (420, 5)],
    ("tree", 16383): [(1741, 8), (1757, 7), (1747, 7)],
    ("branch", 1023): [(95, 17), (87, 16), (87, 16)],
    ("branch", 4095): [(358, 49), (348, 49), (361, 48)],
    ("branch", 16383): [(1412, 150), (1415, 150), (1391, 149)],
    ("root", 1023): [(90, 90), (83, 83), (78, 78)],
    ("root", 4095): [(339, 339), (333, 333), (336, 336)],
    ("root", 16383): [(1345, 1345), (1352, 1352), (1340, 1340)],
}


@pytest.mark.parametrize(("strategy", "n"), SWAP_PAIRS)
def test_exchanges_and_guard_steps_are_pinned(strategy, n):
    assert _swap_pairs(strategy, n, (0, 1, 2)) == SWAP_PAIRS[strategy, n]


# --- growth character --------------------------------------------------------


def test_root_swap_phase_grows_superlinearly():
    # doubling n should more than double root-exchange swap compares
    # (the n-log-n profile of repeated root extraction), while the greedy
    # subtree exchange stays near linear

    def mean_swap_compares(strategy, n, trials=8):
        total = 0
        for t in range(trials):
            values = generate(n, "random", seed=900 + t)
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


def test_swap_budget_is_exact_beyond_float_precision():
    # budget = n * (1 + b) with b = ceil(log2(n + 1)), the least b with
    # 2**b >= n + 1; checked in integers, including where a float log2
    # rounds (n = 2**53).
    for n in (*range(1, 10**5 + 1), 2**53 - 1, 2**53, 2**53 + 1, 2**60):
        steps, rest = divmod(swap_step_budget(n), n)
        b = steps - 1
        assert rest == 0
        assert 2 ** (b - 1) < n + 1 <= 2**b, n


def test_budget_violation_is_diagnosed(monkeypatch):
    monkeypatch.setattr(swaps, "swap_step_budget", lambda n: 0)
    arr = make_dualheap([9, 1, 2], shn=1)
    with pytest.raises(InternalInvariantError):
        run_swapping_phase(arr.buf, 0, 3, 1, "tree", PhaseTally())


def test_unknown_strategy_rejected():
    arr = make_dualheap([3, 1, 2], shn=1)
    with pytest.raises(ValueError):
        run_swapping_phase(arr.buf, 0, 3, 1, "spiral", PhaseTally())
