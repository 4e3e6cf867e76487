import pytest

from dualheap import Metrics


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


def test_set_phase_routes_counts():
    ctx = Metrics()
    ctx.set_phase("construct")
    ctx.active.compares += 1
    ctx.active.moves += 1
    ctx.set_phase("swap")
    ctx.active.compares += 2
    assert ctx.construct.compares == 1
    assert ctx.construct.moves == 1
    assert ctx.swap.compares == 2
    assert ctx.swap.moves == 0
    assert ctx.compares_total == 3


def test_unknown_phase_rejected():
    with pytest.raises(ValueError):
        Metrics().set_phase("warmup")


def test_phase_additivity():
    ctx = Metrics()
    for phase, reps in (("construct", 3), ("swap", 2), ("other", 4)):
        ctx.set_phase(phase)
        for _ in range(reps):
            ctx.active.compares += 1
            ctx.active.moves += 2
    assert ctx.compares_total == ctx.construct.compares + ctx.swap.compares + ctx.other.compares == 9
    assert ctx.moves_total == 18
    assert ctx.snapshot()["moves_other"] == 8
