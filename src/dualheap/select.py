"""End-to-end dualheap selection and the recursive partition sorter.

Selection pivots about an address rather than a value: the buffer is split
at the largest odd index not exceeding k, a mirrored max-rooted heap is
built below the split and a min-rooted heap above it, and the swapping
phase then exchanges values until the two roots agree. Afterwards position
k holds the k-th smallest value and the buffer is partitioned around it.

``dh_select`` mutates its buffer in place; the partition is part of the
contract, not an accident. ``dh_select_copy`` wraps it for callers that
want their input untouched.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .core import (
    DualHeap,
    Element,
    LargeHeapView,
    SentinelArray,
    SmallHeapView,
    build_max_heap,
    build_min_heap,
    check_index,
    split_indices,
)
from .metrics import Metrics
from .swaps import STRATEGIES, run_swapping_phase

PRESPLITS = (0, 1, 2)


@dataclass(frozen=True)
class SelectOptions:
    """Knobs for the dualheap algorithm: which swap strategy runs the
    swapping phase, and how many whole-array heap constructions precede the
    split (one is the default and empirically the sweet spot)."""

    strategy: str = "tree"
    presplit: int = 1

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown swap strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if self.presplit not in PRESPLITS:
            raise ValueError(f"presplit must be one of {PRESPLITS}, got {self.presplit!r}")


@dataclass
class SelectOutcome:
    value: Element
    split: int
    metrics: Metrics


# Elements per chunk of the input scan: small enough that a chunk's element
# objects are still cached for its second and third pass.
_SCAN_CHUNK = 4096


def prepare_buffer(values) -> SentinelArray:
    """Copy values into a fresh sentinel-guarded buffer whose low and high
    guards are the minimum and maximum.

    Elements must be totally ordered. A value unequal to itself (NaN) breaks
    that contract and would yield a wrong partition, so it is rejected with
    ``ValueError``; elements that cannot be compared with each other raise
    ``TypeError``.
    """
    buf = [None, *values, None]
    n = len(buf) - 2
    if not n:
        raise ValueError("cannot build a sentinel buffer from an empty input")
    lo = hi = buf[1]
    try:
        for start in range(1, n + 1, _SCAN_CHUNK):
            chunk = buf[start : min(start + _SCAN_CHUNK, n + 1)]
            if any(map(operator.ne, chunk, chunk)):
                raise ValueError("elements must be totally ordered, but one compares unequal to itself (NaN)")
            lo = min(lo, min(chunk))
            hi = max(hi, max(chunk))
    except TypeError as exc:
        raise TypeError(f"elements must be totally ordered, but two cannot be compared: {exc}") from exc
    buf[0] = lo
    buf[-1] = hi
    return SentinelArray(buf=buf, n=n)


def _construct(buf, off: int, n: int, k: int, presplit: int, ctx: Metrics) -> DualHeap:
    """Construction phase over the segment at positions off+1 .. off+n.

    Returns the two heap views. Positions off and off+n+1 must already hold
    the segment's guards.
    """
    ctx.set_phase("construct")
    if presplit >= 1:
        build_min_heap(LargeHeapView(buf, off, n), ctx)
    if presplit == 2:
        build_max_heap(SmallHeapView(buf, off + n + 1, n), ctx)
    shn, lhn = split_indices(n, k)
    dh = DualHeap(small=SmallHeapView(buf, off + shn + 1, shn), large=LargeHeapView(buf, off + shn, lhn))
    build_max_heap(dh.small, ctx)
    build_min_heap(dh.large, ctx)
    return dh


def _select_segment(arr: SentinelArray, off: int, n: int, k: int, opts: SelectOptions, ctx: Metrics) -> DualHeap:
    dh = _construct(arr.buf, off, n, k, opts.presplit, ctx)
    run_swapping_phase(dh, opts.strategy, ctx)
    return dh


def construct_dualheap(arr: SentinelArray, k: int, presplit: int = 1, ctx: Metrics | None = None) -> DualHeap:
    """Run only the construction phase and hand back the two heap views,
    ready for a swapping phase. Useful for inspecting the phase boundary."""
    if ctx is None:
        ctx = Metrics()
    check_index(arr.n, k)
    return _construct(arr.buf, 0, arr.n, k, presplit, ctx)


def dh_select(arr: SentinelArray, k: int, opts: SelectOptions | None = None, ctx: Metrics | None = None) -> SelectOutcome:
    """Select the k-th smallest element (1-based), partitioning the buffer
    around position k as a side effect: everything left of k ends up <= the
    returned value, everything right of it >=."""
    if opts is None:
        opts = SelectOptions()
    if ctx is None:
        ctx = Metrics()
    check_index(arr.n, k)
    dh = _select_segment(arr, 0, arr.n, k, opts, ctx)
    return SelectOutcome(value=arr.buf[k], split=dh.small.shn, metrics=ctx)


def dh_select_copy(values, k: int, opts: SelectOptions | None = None, ctx: Metrics | None = None) -> SelectOutcome:
    """Convenience wrapper that leaves the caller's sequence untouched."""
    return dh_select(prepare_buffer(values), k, opts, ctx)


def verify_partition(arr: SentinelArray, k: int) -> bool:
    """True iff positions 1..k-1 hold values <= buf[k] and positions
    k+1..n hold values >= buf[k]."""
    buf = arr.buf
    v = buf[k]
    for i in range(1, k):
        if buf[i] > v:
            return False
    for i in range(k + 1, arr.n + 1):
        if buf[i] < v:
            return False
    return True


def _sort_segment(arr: SentinelArray, off: int, n: int, opts: SelectOptions, ctx: Metrics) -> None:
    if n <= 1:
        return
    k = (n + 1) // 2
    _select_segment(arr, off, n, k, opts, ctx)
    _sort_segment(arr, off, k - 1, opts, ctx)
    _sort_segment(arr, off + k, n - k, opts, ctx)


def dh_sort(values, opts: SelectOptions | None = None, ctx: Metrics | None = None) -> list[Element]:
    """Sort by recursive partitioning: select each segment's median address,
    then recurse into both halves. Placed partition elements act as the
    sub-segments' guards, so the initial sentinels are the only extras."""
    if opts is None:
        opts = SelectOptions()
    if ctx is None:
        ctx = Metrics()
    values = list(values)
    if not values:
        return []
    arr = prepare_buffer(values)
    _sort_segment(arr, 0, arr.n, opts, ctx)
    return arr.payload()
