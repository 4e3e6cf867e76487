import os
from collections import Counter

import pytest
from hypothesis import settings

from dualheap import InternalInvariantError
from dualheap.rng import SplitMix64
from dualheap.swaps import _REACH, swap_step_budget

# Keep test runs reproducible; the library's own determinism is asserted
# elsewhere, no need for shrink-seed noise here.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process, running or unreaped."""
    yield
    reaped = []
    try:
        while pid := os.waitpid(-1, os.WNOHANG)[0]:
            reaped.append(pid)
    except ChildProcessError:
        if not reaped:
            return
        pytest.fail(f"child processes left unreaped: {reaped}")
    pytest.fail("a child process is still running")


def same_multiset(a, b) -> bool:
    return Counter(a) == Counter(b)


class Tagged:
    """Compares by ``key`` alone; the ``tag`` tells equal keys apart, so a
    tie broken the other way shows in the buffer."""

    __slots__ = ("key", "tag")

    def __init__(self, key, tag):
        self.key = key
        self.tag = tag

    def __lt__(self, other):
        return self.key < other.key

    def __gt__(self, other):
        return self.key > other.key

    def __le__(self, other):
        return self.key <= other.key

    def __ge__(self, other):
        return self.key >= other.key

    def __repr__(self):
        return f"Tagged({self.key}, {self.tag!r})"


def check_heap_condition(buf, off, n, shn) -> bool:
    """True iff both heaps of the segment at positions off+1 .. off+n, split
    after ``shn`` elements, satisfy their condition: every parent dominates
    both children, as a max-rooted heap of ``shn`` nodes over base
    ``off + shn + 1`` and a min-rooted heap of ``n - shn`` nodes over base
    ``off + shn``. A split at 0 makes the segment one min-rooted heap, a
    split at n one max-rooted heap. A validator, so it is deliberately
    uncounted."""
    ps = off + shn + 1
    for i in range(1, shn // 2 + 1):
        j = 2 * i
        if buf[ps - i] < buf[ps - j]:
            return False
        if j + 1 <= shn and buf[ps - i] < buf[ps - j - 1]:
            return False
    pl = off + shn
    lhn = n - shn
    for i in range(1, lhn // 2 + 1):
        j = 2 * i
        if buf[pl + j] < buf[pl + i]:
            return False
        if j + 1 <= lhn and buf[pl + j + 1] < buf[pl + i]:
            return False
    return True


def sift_down_min(buf, base, hn, k, tally) -> None:
    """Sink node k until the min-heap condition holds on its subtree (Floyd,
    CACM Algorithm 245), in the min-rooted heap of ``hn`` nodes with node j
    at ``buf[base + j]``: the per-node reference of the builders' and the
    swap phase's inline sinks.

    Requires the condition to already hold below node k, and the slot one
    past the heap to read as a high guard. A node without children is left
    untouched at zero cost.
    """
    j = 2 * k
    if j > hn:
        return
    v = buf[base + k]
    c = 2
    if buf[base + j + 1] < buf[base + j]:
        j += 1
    if buf[base + j] < v:
        m = 0
        while True:
            buf[base + k] = buf[base + j]
            m += 1
            k = j
            j = 2 * k
            if j > hn:
                break
            c += 2
            if buf[base + j + 1] < buf[base + j]:
                j += 1
            if not buf[base + j] < v:
                break
        buf[base + k] = v
        tally.moves += m + 1
    tally.compares += c


def sift_down_max(buf, base, hn, k, tally) -> None:
    """Mirror image of sift_down_min: sink node k in the max-rooted heap of
    ``hn`` nodes with node j at ``buf[base - j]``."""
    j = 2 * k
    if j > hn:
        return
    v = buf[base - k]
    c = 2
    if buf[base - j - 1] > buf[base - j]:
        j += 1
    if buf[base - j] > v:
        m = 0
        while True:
            buf[base - k] = buf[base - j]
            m += 1
            k = j
            j = 2 * k
            if j > hn:
                break
            c += 2
            if buf[base - j - 1] > buf[base - j]:
                j += 1
            if not buf[base - j] > v:
                break
        buf[base - k] = v
        tally.moves += m + 1
    tally.compares += c


def reference_build_min(buf, base, hn, tally) -> None:
    """Per-node bottom-up build: the reference the inlined builder must match
    in buffer and counters."""
    for i in range(hn // 2, 0, -1):
        sift_down_min(buf, base, hn, i, tally)


def reference_build_max(buf, base, hn, tally) -> None:
    for i in range(hn // 2, 0, -1):
        sift_down_max(buf, base, hn, i, tally)


def reference_swapping_phase(buf, off, n, shn, strategy, tally) -> tuple[int, int]:
    """The swapping phase as a recursive walk with per-node re-sinks: the
    reference ``run_swapping_phase`` must match in buffer, counters and its
    ``(exchanges, guard_steps)``.

    At a node pair the walk picks the greedy children and walks that pair
    first if its values are inverted, then (reach 2) the sibling pair if
    inverted; it then exchanges its own pair and re-sinks both values. It
    returns the number of pairs it exchanged.
    """
    ps = off + shn + 1
    pl = off + shn
    reach = _REACH[strategy]
    lhn = n - shn

    def walk(ks, kl):
        exchanges = 1
        js = 2 * ks
        jl = 2 * kl
        if reach and js <= shn and jl <= lhn:
            c = 3
            if buf[ps - js - 1] > buf[ps - js]:
                js += 1
            if buf[pl + jl + 1] < buf[pl + jl]:
                jl += 1
            if buf[ps - js] > buf[pl + jl]:
                exchanges += walk(js, jl)
                if reach > 1:
                    c += 1
                    if buf[ps - (js ^ 1)] > buf[pl + (jl ^ 1)]:
                        exchanges += walk(js ^ 1, jl ^ 1)
            tally.compares += c
        buf[ps - ks], buf[pl + kl] = buf[pl + kl], buf[ps - ks]
        tally.moves += 2
        sift_down_max(buf, ps, shn, ks, tally)
        sift_down_min(buf, pl, lhn, kl, tally)
        return exchanges

    tally.compares += 1
    if not buf[ps - 1] > buf[pl + 1]:
        return 0, 0
    budget = swap_step_budget(n)
    exchanges = 0
    for steps in range(1, budget + 1):
        exchanges += walk(1, 1)
        tally.compares += 1
        if not buf[ps - 1] > buf[pl + 1]:
            return exchanges, steps
    raise InternalInvariantError(f"swapping phase exceeded its step budget of {budget}")


def reference_hoare_partition(buf, lo, hi, pivot_value, tally) -> int:
    """The crossing scan with a compare counted at every step: the reference
    ``baselines.hoare_partition`` must match in buffer, boundary and
    counters."""
    i = lo - 1
    j = hi + 1
    c = 0
    m = 0
    while True:
        while True:
            j -= 1
            c += 1
            if not buf[j] > pivot_value:
                break
        while True:
            i += 1
            c += 1
            if not buf[i] < pivot_value:
                break
        if i >= j:
            tally.compares += c
            tally.moves += m
            return j
        buf[i], buf[j] = buf[j], buf[i]
        m += 2


def reference_median_by_insertion(values, tally):
    """Lower median by insertion sort on a copy, a tally write per compare."""
    vals = list(values)
    for i in range(1, len(vals)):
        v = vals[i]
        j = i - 1
        while j >= 0:
            tally.compares += 1
            if vals[j] > v:
                vals[j + 1] = vals[j]
                j -= 1
            else:
                break
        vals[j + 1] = v
    return vals[(len(vals) + 1) // 2 - 1]


def reference_mom(values, tally):
    """Median of medians by recursion on the group medians: groups of five,
    a direct insertion median at 25 values or fewer."""
    if len(values) <= 25:
        return reference_median_by_insertion(values, tally)
    medians = [reference_median_by_insertion(values[g : g + 5], tally) for g in range(0, len(values), 5)]
    return reference_mom(medians, tally)


def reference_anchor_pivot(buf, lo, hi, pivot, stream, tally):
    """Pivot choice and exchange into ``lo``; the median-of-medians rule
    finds its value's first slot by a counted scan."""
    if pivot == "random":
        r = lo + stream.below(hi - lo + 1)
        if r != lo:
            buf[lo], buf[r] = buf[r], buf[lo]
            tally.moves += 2
    elif pivot == "median_of_medians":
        v = reference_mom(buf[lo : hi + 1], tally)
        r = lo
        while True:
            tally.compares += 1
            if buf[r] == v:
                break
            r += 1
        if r != lo:
            buf[lo], buf[r] = buf[r], buf[lo]
            tally.moves += 2
    return buf[lo]


def reference_quickselect(buf, n, k, pivot, seed, tally):
    """Quickselect over buf[1..n] from the per-step-counting kernels above:
    the reference ``baselines.quickselect`` must match in buffer, value and
    its ``other`` counters."""
    stream = SplitMix64(seed) if pivot == "random" else None
    lo, hi = 1, n
    while lo < hi:
        value = reference_anchor_pivot(buf, lo, hi, pivot, stream, tally)
        b = reference_hoare_partition(buf, lo, hi, value, tally)
        if k <= b:
            hi = b
        else:
            lo = b + 1
    return buf[k]
