"""The swapping phase: exchange values between the two heaps until every
value on the large side dominates every value on the small side.

Three strategies repair the same invariant at different granularity:

* ``tree`` recursively follows the greedy children (largest child in the
  max-rooted heap, smallest child in the min-rooted heap), also descending
  into a sibling pair while its values stay inverted, and exchanges each
  visited pair on unwind, restoring heap order bottom-up;
* ``branch`` walks a single greedy path downward, then exchanges every pair
  on the walk back toward the roots;
* ``root`` exchanges just the two roots and re-sinks each.

Every strategy must only be invoked while the small-heap root exceeds the
large-heap root; ``run_swapping_phase`` owns that guard loop.
"""

from __future__ import annotations

import math

from .core import DualHeap, sift_down_max, sift_down_min
from .errors import InternalInvariantError
from .metrics import Metrics


def tree_swap(dh: DualHeap, ks: int, kl: int, ctx: Metrics) -> None:
    """Greedy subtree exchange rooted at node pair (ks, kl).

    Both heaps must satisfy their heap condition except along the active
    traversal, and the caller must have seen value(ks) > value(kl). The
    sibling-pair guard may read one slot past the large heap; that slot is
    the high guard and can never look inverted.
    """
    small = dh.small
    large = dh.large
    buf = small.buf
    ps = small.base
    shn = small.shn
    pl = large.base
    lhn = large.lhn
    sh2 = shn // 2
    lh2 = lhn // 2
    tally = ctx.active

    def walk(ks: int, kl: int) -> None:
        js = 2 * ks
        jl = 2 * kl
        if js <= shn and jl <= lhn:
            c = 3
            if buf[ps - js - 1] > buf[ps - js]:
                js += 1
            if buf[pl + jl + 1] < buf[pl + jl]:
                jl += 1
            if buf[ps - js] > buf[pl + jl]:
                walk(js, jl)
                c += 1
                if buf[ps - (js ^ 1)] > buf[pl + (jl ^ 1)]:
                    walk(js ^ 1, jl ^ 1)
            tally.compares += c
        buf[ps - ks], buf[pl + kl] = buf[pl + kl], buf[ps - ks]
        tally.moves += 2
        if ks <= sh2:
            sift_down_max(small, ks, ctx)
        if kl <= lh2:
            sift_down_min(large, kl, ctx)

    walk(ks, kl)


def branch_swap(dh: DualHeap, ctx: Metrics) -> None:
    """Greedy-path exchange: descend while the path pair stays inverted,
    then exchange and re-sink every pair on the way back to the roots."""
    small = dh.small
    large = dh.large
    buf = small.buf
    ps = small.base
    shn = small.shn
    pl = large.base
    lhn = large.lhn
    sh2 = shn // 2
    lh2 = lhn // 2
    tally = ctx.active

    ks = kl = 1
    js = jl = 2
    while js <= shn and jl <= lhn:
        tally.compares += 3
        if buf[ps - js - 1] > buf[ps - js]:
            js += 1
        if buf[pl + jl + 1] < buf[pl + jl]:
            jl += 1
        if buf[ps - js] <= buf[pl + jl]:
            break
        ks = js
        kl = jl
        js *= 2
        jl *= 2

    while kl >= 1:
        buf[ps - ks], buf[pl + kl] = buf[pl + kl], buf[ps - ks]
        tally.moves += 2
        if ks <= sh2:
            sift_down_max(small, ks, ctx)
        if kl <= lh2:
            sift_down_min(large, kl, ctx)
        ks //= 2
        kl //= 2


def root_swap(dh: DualHeap, ctx: Metrics) -> None:
    """Exchange the two roots and re-sink each (when it has children)."""
    small = dh.small
    large = dh.large
    buf = small.buf
    ps = small.base
    pl = large.base
    buf[ps - 1], buf[pl + 1] = buf[pl + 1], buf[ps - 1]
    ctx.active.moves += 2
    if small.shn >= 2:
        sift_down_max(small, 1, ctx)
    if large.lhn >= 2:
        sift_down_min(large, 1, ctx)


_STRATEGY_FUNCS = {
    "tree": lambda dh, ctx: tree_swap(dh, 1, 1, ctx),
    "branch": branch_swap,
    "root": root_swap,
}

STRATEGIES = tuple(_STRATEGY_FUNCS)


def swap_step_budget(n: int) -> int:
    """Iteration cap for the guard loop; far above anything observed, it
    turns a latent non-termination bug into a diagnosable failure."""
    return n * (1 + math.ceil(math.log2(n + 1)))


def run_swapping_phase(dh: DualHeap, strategy: str, ctx: Metrics) -> None:
    """Apply the chosen strategy until the small-heap root no longer exceeds
    the large-heap root. Counts accrue to the swap phase, guard included."""
    try:
        step = _STRATEGY_FUNCS[strategy]
    except KeyError:
        raise ValueError(f"unknown swap strategy {strategy!r}, expected one of {STRATEGIES}") from None
    ctx.set_phase("swap")
    tally = ctx.active
    buf = dh.small.buf
    rs = dh.small.base - 1
    rl = dh.large.base + 1
    budget = swap_step_budget(dh.small.shn + dh.large.lhn)
    steps = 0
    while True:
        tally.compares += 1
        if not buf[rs] > buf[rl]:
            return
        step(dh, ctx)
        steps += 1
        if steps > budget:
            raise InternalInvariantError(
                f"swapping phase exceeded its step budget of {budget} "
                f"(strategy={strategy}, shn={dh.small.shn}, lhn={dh.large.lhn})"
            )
