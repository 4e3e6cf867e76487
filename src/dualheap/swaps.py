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

``run_swapping_phase`` is the whole phase in one function. A walk is taken
only while the small-heap root exceeds the large-heap root, so the phase
compares the roots first and returns at once if they are in order; many of
``dh_sort``'s small segments end there. Otherwise it builds the walk once
and repeats walk and guard until the roots are in order.
"""

from __future__ import annotations

from .core import DualHeap, sift_down_max, sift_down_min
from .errors import InternalInvariantError
from .metrics import PhaseTally

_REACH = {"tree": 2, "branch": 1, "root": 0}

STRATEGIES = tuple(_REACH)


def swap_step_budget(n: int) -> int:
    """The most steps the guard loop may take; far above anything observed,
    it turns a latent non-termination bug into a diagnosable failure. It is
    ``n * (1 + ceil(log2(n + 1)))``, computed exactly: for n >= 1 the
    ceiling equals ``n.bit_length()``, which floating point misses from
    n = 2**53 on."""
    return n * (1 + n.bit_length())


def run_swapping_phase(dh: DualHeap, strategy: str, tally: PhaseTally) -> None:
    """Walk from the roots, reaching as far as the strategy allows, until the
    small-heap root no longer exceeds the large-heap root. Every compare and
    move, guard included, is counted in ``tally``.

    Both heaps must satisfy their heap condition. The sibling-pair guard may
    read one slot past the large heap; that slot is the high guard and can
    never look inverted.
    """
    if strategy not in _REACH:
        raise ValueError(f"unknown swap strategy {strategy!r}, expected one of {STRATEGIES}")
    small = dh.small
    large = dh.large
    buf = small.buf
    ps = small.base
    pl = large.base
    tally.compares += 1
    if not buf[ps - 1] > buf[pl + 1]:
        return
    reach = _REACH[strategy]
    shn = small.shn
    lhn = large.lhn
    sh2 = shn // 2
    lh2 = lhn // 2
    budget = swap_step_budget(shn + lhn)

    # walk is handed itself, so its closure holds no cell that refers back
    # to it: no reference cycle keeps the buffer alive after the phase.
    def walk(ks: int, kl: int, walk) -> None:
        js = 2 * ks
        jl = 2 * kl
        if reach and js <= shn and jl <= lhn:
            c = 3
            if buf[ps - js - 1] > buf[ps - js]:
                js += 1
            if buf[pl + jl + 1] < buf[pl + jl]:
                jl += 1
            if buf[ps - js] > buf[pl + jl]:
                walk(js, jl, walk)
                if reach > 1:
                    c += 1
                    if buf[ps - (js ^ 1)] > buf[pl + (jl ^ 1)]:
                        walk(js ^ 1, jl ^ 1, walk)
            tally.compares += c
        buf[ps - ks], buf[pl + kl] = buf[pl + kl], buf[ps - ks]
        tally.moves += 2
        if ks <= sh2:
            sift_down_max(small, ks, tally)
        if kl <= lh2:
            sift_down_min(large, kl, tally)

    for _ in range(budget):
        walk(1, 1, walk)
        tally.compares += 1
        if not buf[ps - 1] > buf[pl + 1]:
            return
    raise InternalInvariantError(
        f"swapping phase exceeded its step budget of {budget} "
        f"(strategy={strategy}, shn={shn}, lhn={lhn})"
    )
