"""End-to-end dualheap selection and the recursive partition sorter.

Selection pivots about an address rather than a value: the buffer is split
at the largest odd index not exceeding k, a mirrored max-rooted heap is
built below the split and a min-rooted heap above it, and the swapping
phase then exchanges values until the two roots agree. Afterwards position
k holds the k-th smallest value and the buffer is partitioned around it.

``dh_select`` mutates its buffer in place; the partition is part of the
contract, not an accident. ``prepare_buffer`` copies its input, so callers
that want their input untouched select on ``prepare_buffer(values)``.
"""

import operator
from collections import namedtuple

from .core import (
    SentinelArray,
    build_max_heap,
    build_min_heap,
    check_index,
    check_int,
    split_indices,
)
from .metrics import Metrics, PhaseTally
from .swaps import STRATEGIES, run_swapping_phase

PRESPLITS = (0, 1, 2)


class SelectOptions(namedtuple("SelectOptions", ("strategy", "presplit"), defaults=("tree", 1))):
    """Knobs for the dualheap algorithm: which swap strategy runs the
    swapping phase, and how many whole-array heap constructions precede the
    split (one is the default and empirically the sweet spot)."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace runs __new__'s checks

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown swap strategy {self.strategy!r}, expected one of {STRATEGIES}")
        _check_presplit(self.presplit)
        return self


def _check_presplit(presplit: int) -> None:
    """Reject a presplit outside ``PRESPLITS`` with ``ValueError``, and
    anything but an int with ``TypeError``: ``True`` or ``1.0`` would run
    as presplit 1 but print as another value."""
    check_int("presplit", presplit)
    if presplit not in PRESPLITS:
        raise ValueError(f"presplit must be one of {PRESPLITS}, got {presplit!r}")


SelectOutcome = namedtuple("SelectOutcome", ("value", "split", "metrics"))


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
    return SentinelArray(buf)


def _build_dualheap(buf, off: int, n: int, shn: int, presplit: int, tally: PhaseTally) -> None:
    """Construction phase over the segment at positions off+1 .. off+n, split
    after ``shn`` elements (the layout of ``core``), counted in ``tally``.
    Positions off and off+n+1 must already hold the segment's guards.
    """
    if presplit >= 1:
        build_min_heap(buf, off, n, tally)
    if presplit == 2:
        build_max_heap(buf, off + n + 1, n, tally)
    build_max_heap(buf, off + shn + 1, shn, tally)
    build_min_heap(buf, off + shn, n - shn, tally)


def construct_dualheap(arr: SentinelArray, k: int, presplit: int = 1, ctx: Metrics | None = None) -> int:
    """Run only the construction phase, ready for a swapping phase, and
    return the small side's size ``shn``: the buffer is then split after
    position ``shn``, as ``core`` lays out a dual heap. ``dh_select`` is
    this followed by ``run_swapping_phase``."""
    _check_presplit(presplit)
    if ctx is None:
        ctx = Metrics()
    shn, _ = split_indices(arr.n, k)
    _build_dualheap(arr.buf, 0, arr.n, shn, presplit, ctx.construct)
    return shn


def dh_select(arr: SentinelArray, k: int, opts: SelectOptions | None = None, ctx: Metrics | None = None) -> SelectOutcome:
    """Select the k-th smallest element (1-based), partitioning the buffer
    around position k as a side effect: everything left of k ends up <= the
    returned value, everything right of it >=."""
    if opts is None:
        opts = SelectOptions()
    if ctx is None:
        ctx = Metrics()
    shn = construct_dualheap(arr, k, opts.presplit, ctx)
    run_swapping_phase(arr.buf, 0, arr.n, shn, opts.strategy, ctx.swap)
    return SelectOutcome(value=arr.buf[k], split=shn, metrics=ctx)


def verify_partition(arr: SentinelArray, k: int) -> bool:
    """True iff positions 1..k-1 hold values <= buf[k] and positions
    k+1..n hold values >= buf[k]. A k outside 1..n raises ``IndexError``,
    as it does for ``dh_select``: positions 0 and n+1 hold the guards. Each
    side is one C-level scan, which answers the same for totally ordered
    elements."""
    check_index(arr.n, k)
    buf = arr.buf
    v = buf[k]
    return not (max(buf[1:k], default=v) > v or min(buf[k + 1 : -1], default=v) < v)


def _select_three(buf, off: int, presplit: int, construct: PhaseTally, swap: PhaseTally) -> None:
    """``_build_dualheap`` then ``run_swapping_phase`` at n = 3, k = 2, for
    presplit 1 or 2, written out. The small heap is the first element alone
    and the large heap the other two, so the three strategies coincide.

    Each sift picks the smaller child (the left one on ties), compares it
    with its parent and counts 2 compares; a one-child sift's other compare
    reads the high guard, which can never win, and is counted without being
    made. The whole-segment min-heap puts the minimum first, so the swap
    phase only checks its guard. The presplit-2 max-heap then orders the
    last two elements (its compare of the first with the middle one cannot
    win either) and leaves the split's large-heap build nothing to move:
    presplit 2 costs 2 compares more than presplit 1 and makes the same
    moves.
    """
    a = buf[off + 1]
    b = buf[off + 2]
    c = buf[off + 3]
    construct.compares += 2 * presplit + 2
    moves = 0
    if c < b:
        if c < a:
            a, c = c, a
            moves = 2
    elif b < a:
        a, b = b, a
        moves = 2
    if c < b:
        b, c = c, b
        moves += 2
    if moves:
        buf[off + 1] = a
        buf[off + 2] = b
        buf[off + 3] = c
        construct.moves += moves
    swap.compares += 1


def _sort_segments(buf, stack: list, opts: SelectOptions, ctx: Metrics) -> None:
    """Select the median address of every segment, left half before right
    half, popping ``(off, n)`` pairs from ``stack`` until it is empty.

    With a presplit, a segment of 3 elements runs its straight-line select,
    which gives the same buffer and counts as the general path; any other
    segment runs ``_build_dualheap`` and then ``run_swapping_phase`` with
    the split computed here, since k = (n+1)//2 is always in range.
    """
    presplit = opts.presplit
    strategy = opts.strategy
    construct = ctx.construct
    swap = ctx.swap
    while stack:
        off, n = stack.pop()
        if n <= 1:
            continue
        if n == 3 and presplit:
            _select_three(buf, off, presplit, construct, swap)
            continue
        k = (n + 1) // 2
        shn = k if k & 1 else k - 1
        _build_dualheap(buf, off, n, shn, presplit, construct)
        run_swapping_phase(buf, off, n, shn, strategy, swap)
        stack.append((off + k, n - k))
        stack.append((off, k - 1))


def dh_sort(values, opts: SelectOptions | None = None, ctx: Metrics | None = None) -> list:
    """Sort by recursive partitioning: select each segment's median address,
    then sort both halves. Placed partition elements act as the
    sub-segments' guards, so the initial sentinels are the only extras. The
    buffer and counts are those of ``_build_dualheap`` then
    ``run_swapping_phase`` at each segment's median, applied recursively
    (see ``_sort_segments``).

    ``parallel.sort_halves`` decides whether the two halves of the first
    partition are sorted in two processes, with the same buffer, counts and
    element objects, and returns the segments left to sort here.
    """
    if opts is None:
        opts = SelectOptions()
    if ctx is None:
        ctx = Metrics()
    values = list(values)
    if not values:
        return []
    arr = prepare_buffer(values)
    from .parallel import sort_halves

    _sort_segments(arr.buf, sort_halves(arr, opts, ctx), opts, ctx)
    return arr.payload()
