import pytest

from dualheap import Metrics, build_max_heap, build_min_heap, prepare_buffer, run_swapping_phase
from dualheap.baselines import hoare_partition, median_of_medians
from dualheap.metrics import PHASES


def test_fresh_context_is_all_zeros():
    ctx = Metrics()
    assert ctx.snapshot() == {
        "compares_construct": 0,
        "moves_construct": 0,
        "compares_swap": 0,
        "moves_swap": 0,
        "compares_other": 0,
        "moves_other": 0,
    }
    assert ctx.compares_total == 0
    assert ctx.moves_total == 0


def test_phase_additivity():
    ctx = Metrics()
    for tally, reps in ((ctx.construct, 3), (ctx.swap, 2), (ctx.other, 4)):
        for _ in range(reps):
            tally.compares += 1
            tally.moves += 2
    assert ctx.compares_total == ctx.construct.compares + ctx.swap.compares + ctx.other.compares == 9
    assert ctx.moves_total == 18
    assert ctx.snapshot()["moves_other"] == 8


# Each public counted kernel on an input that makes it compare and move.
KERNELS = {
    "build_min_heap": lambda tally: build_min_heap(prepare_buffer([9, 8, 7, 6, 5]).buf, 0, 5, tally),
    "build_max_heap": lambda tally: build_max_heap(prepare_buffer([1, 2, 3, 4, 5]).buf, 6, 5, tally),
    "run_swapping_phase": lambda tally: run_swapping_phase(prepare_buffer([3, 1, 2]).buf, 0, 3, 1, "tree", tally),
    "hoare_partition": lambda tally: hoare_partition([0, 3, 2, 1, 4], 1, 3, 2, tally),
    "median_of_medians": lambda tally: median_of_medians(list(range(31, -1, -1)), 1, 30, tally),
}


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_counts_only_in_the_tally_it_is_handed(kernel, phase):
    ctx = Metrics()
    KERNELS[kernel](getattr(ctx, phase))
    for other in PHASES:
        tally = getattr(ctx, other)
        if other == phase:
            assert tally.compares > 0
        else:
            assert (tally.compares, tally.moves) == (0, 0), other
