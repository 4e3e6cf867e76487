"""The swapping phase: exchange values between the two heaps until every
value on the large side dominates every value on the small side.

Each guard step walks from the roots, and the strategies differ only in how
far it reaches. At a node pair the walk picks the greedy children (largest
child in the max-rooted heap, smallest child in the min-rooted heap) and
walks that pair first if its values are inverted. It then exchanges its own
pair and re-sinks both values, so the exchanges run bottom-up, back toward
the roots. The reach of each strategy:

* ``tree`` (2): after the greedy pair, also walks the sibling pair if its
  values are inverted;
* ``branch`` (1): walks the greedy pair only, a single path;
* ``root`` (0): never descends, exchanging just the two roots.

``run_swapping_phase`` is the whole phase in one loop, over a segment and
its split ``(buf, off, n, shn)`` as ``core`` lays them out: the small heap
has ``shn`` nodes over base ``ps = off + shn + 1`` (node j at
``buf[ps - j]``), the large heap ``lhn = n - shn`` nodes over base
``pl = off + shn`` (node j at ``buf[pl + j]``). It compares the
roots first and returns at once if they are in order; many of ``dh_sort``'s
small segments end there. Otherwise each guard step walks an explicit stack
of absolute slot pairs in post-order. A pair taken from the stack makes its
child picks and the greedy compare; if the greedy pair is inverted, the
pair goes back on the stack as walked (its slot negated) under its sibling
pair, when reach 2 finds that inverted too, and the walk descends into the
greedy pair. A pair with nothing left to descend into is exchanged and both
values are re-sunk inline, with Floyd's sink (CACM Algorithm 245) as the
builders run it: a small-heap slot p has children while
``p >= ps - shn // 2``, a large-heap slot q while ``q <= pl + lhn // 2``.
Then the next pair is popped; the walked ones are exchanged in turn.

This makes the exchanges, re-sinks and counts of the recursive walk
(``tests/conftest.py::reference_swapping_phase``), in the same order, even
though the sibling compare is made before the greedy pair is walked rather
than after: every decision reads slots that no exchange or re-sink of that
step has yet written. A pair's re-sinks stay inside its own two subtrees,
and sibling subtrees are disjoint.

Compares and moves gather in locals and land in the tally once per phase
(and before the step-budget error); the two moves of each exchange are
added from the exchange count, which the phase returns. Measured on
prototypes (in-process, 2 vCPUs, CPython 3.11.7), this loop read
0.88-0.90x the time of the recursive walk with per-node sifts on
``dh_sort`` at n = 16383 and 0.79x on the swap phase alone at
n = 262143 with ``tree``. Three other
designs gave the same buffers and counts and were slower than it:

* finding a step's pairs first and exchanging them in reverse: 1.12-1.13x
  on the swap phase at n = 262143 with ``tree``;
* the same with one shared sink call per heap: 1.20-1.27x. Both lose the
  cache locality of exchanging a pair right after walking below it;
* one sink kernel per orientation, shared with the builders and called
  per pair: 1.11-1.15x on ``dh_sort`` at n = 16383, and 1.13-1.15x on
  ``dh_select`` at n = 4095 and n = 262143.
"""

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


def run_swapping_phase(buf, off: int, n: int, shn: int, strategy: str, tally: PhaseTally) -> tuple[int, int]:
    """Swap between the two heaps of the segment at positions off+1 .. off+n,
    split after ``shn`` elements: walk from the roots, reaching as far as
    the strategy allows, until the small-heap root no longer exceeds the
    large-heap root. Every compare and move, guard included, is counted in
    ``tally``.

    Returns ``(exchanges, guard_steps)``: the node pairs exchanged, and the
    walks from the roots that the guard loop started; ``(0, 0)`` when the
    roots start in order. ``root`` exchanges one pair per step.

    Both heaps must satisfy their heap condition. The sibling-pair guard may
    read one slot past the large heap; that slot is the high guard and can
    never look inverted.
    """
    if strategy not in _REACH:
        raise ValueError(f"unknown swap strategy {strategy!r}, expected one of {STRATEGIES}")
    ps = off + shn + 1
    pl = off + shn
    tally.compares += 1
    if not buf[ps - 1] > buf[pl + 1]:
        return 0, 0
    reach = _REACH[strategy]
    lhn = n - shn
    budget = swap_step_budget(n)
    inner_s = ps - shn // 2
    inner_l = pl + lhn // 2
    compares = moves = exchanges = 0
    stack = []
    push = stack.append
    pop = stack.pop
    for steps in range(1, budget + 1):
        # (0, 0) ends the step; a walked pair is pushed with its slot negated
        push((0, 0))
        s = ps - 1
        l = pl + 1
        while s:
            while reach and s >= inner_s and l <= inner_l:
                js = 2 * s - ps
                x = buf[js]
                y = buf[js - 1]
                if y > x:
                    js -= 1
                    x = y
                jl = 2 * l - pl
                a = buf[jl]
                b = buf[jl + 1]
                if b < a:
                    jl += 1
                    a = b
                compares += 3
                if not x > a:
                    break
                push((-s, l))
                if reach > 1:
                    compares += 1
                    # the other child of each parent: the two children's
                    # slots sum to 4s - 2ps - 1 and 4l - 2pl + 1
                    ts = 4 * s - 2 * ps - 1 - js
                    tl = 4 * l - 2 * pl + 1 - jl
                    if buf[ts] > buf[tl]:
                        push((ts, tl))
                s = js
                l = jl
            while True:
                # exchange the pair, sinking each value from its new slot
                v = buf[l]
                w = buf[s]
                c = s
                while c >= inner_s:
                    j = 2 * c - ps
                    x = buf[j]
                    y = buf[j - 1]
                    if y > x:
                        j -= 1
                        x = y
                    compares += 2
                    if not x > v:
                        break
                    buf[c] = x
                    moves += 1
                    c = j
                buf[c] = v
                if c != s:
                    moves += 1
                c = l
                while c <= inner_l:
                    j = 2 * c - pl
                    x = buf[j]
                    y = buf[j + 1]
                    if y < x:
                        j += 1
                        x = y
                    compares += 2
                    if not x < w:
                        break
                    buf[c] = x
                    moves += 1
                    c = j
                buf[c] = w
                if c != l:
                    moves += 1
                exchanges += 1
                s, l = pop()
                if s >= 0:
                    break
                s = -s
        compares += 1
        if not buf[ps - 1] > buf[pl + 1]:
            tally.compares += compares
            tally.moves += moves + 2 * exchanges
            return exchanges, steps
    tally.compares += compares
    tally.moves += moves + 2 * exchanges
    raise InternalInvariantError(
        f"swapping phase exceeded its step budget of {budget} "
        f"(strategy={strategy}, shn={shn}, lhn={lhn})"
    )
