"""The swapping phase: exchange values between the two heaps until every
value on the large side dominates every value on the small side.

One recursive walk from the roots repairs the invariant, and the strategies
differ only in how far it reaches. At a node pair the walk picks the greedy
children (largest child in the max-rooted heap, smallest child in the
min-rooted heap) and walks that pair first if its values are inverted. It
then exchanges its own pair and re-sinks both values, so the exchanges run
bottom-up, back toward the roots. The reach of each strategy:

* ``tree`` (2): after the greedy pair, also walks the sibling pair if its
  values are inverted;
* ``branch`` (1): walks the greedy pair only, a single path;
* ``root`` (0): never descends, exchanging just the two roots.

A step must only be taken while the small-heap root exceeds the large-heap
root; ``run_swapping_phase`` owns that guard loop.
"""

from __future__ import annotations

from .core import DualHeap, sift_down_max, sift_down_min
from .errors import InternalInvariantError
from .metrics import Metrics

_REACH = {"tree": 2, "branch": 1, "root": 0}

STRATEGIES = tuple(_REACH)


def swap_step(dh: DualHeap, strategy: str, ctx: Metrics) -> None:
    """One exchange walk from the roots, reaching as far as the strategy
    allows.

    Both heaps must satisfy their heap condition, and the caller must have
    seen the small-heap root exceed the large-heap root. The sibling-pair
    guard may read one slot past the large heap; that slot is the high guard
    and can never look inverted.
    """
    reach = _REACH[strategy]
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
        if reach and js <= shn and jl <= lhn:
            c = 3
            if buf[ps - js - 1] > buf[ps - js]:
                js += 1
            if buf[pl + jl + 1] < buf[pl + jl]:
                jl += 1
            if buf[ps - js] > buf[pl + jl]:
                walk(js, jl)
                if reach > 1:
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

    try:
        walk(1, 1)
    finally:
        # walk refers to itself through its closure cell; without this the
        # cycle keeps the whole buffer alive until the cyclic GC runs.
        del walk


def swap_step_budget(n: int) -> int:
    """Iteration cap for the guard loop; far above anything observed, it
    turns a latent non-termination bug into a diagnosable failure. It is
    ``n * (1 + ceil(log2(n + 1)))``, computed exactly: for n >= 1 the
    ceiling equals ``n.bit_length()``, which floating point misses from
    n = 2**53 on."""
    return n * (1 + n.bit_length())


def run_swapping_phase(dh: DualHeap, strategy: str, ctx: Metrics) -> None:
    """Apply the chosen strategy until the small-heap root no longer exceeds
    the large-heap root. Counts accrue to the swap phase, guard included."""
    if strategy not in _REACH:
        raise ValueError(f"unknown swap strategy {strategy!r}, expected one of {STRATEGIES}")
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
        swap_step(dh, strategy, ctx)
        steps += 1
        if steps > budget:
            raise InternalInvariantError(
                f"swapping phase exceeded its step budget of {budget} "
                f"(strategy={strategy}, shn={dh.small.shn}, lhn={dh.large.lhn})"
            )
