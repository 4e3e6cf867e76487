"""Sentinel-guarded buffer and bottom-up heap construction.

Layout convention used throughout the package:

* payload occupies 1-based positions ``1..n`` of an ``n+2``-slot buffer;
  slot 0 holds a value <= every payload value (low sentinel) and slot
  ``n+1`` a value >= every payload value (high sentinel);
* a min-rooted heap of ``hn`` nodes over ``base`` places node ``j`` at
  ``buf[base + j]``; the slot one past its last node must read as a high
  guard (the sentinel, or a partition neighbour known to dominate the
  heap), which is what lets the child-selection read ``buf[base + j + 1]``
  skip a bounds check;
* a max-rooted heap is mirrored: node ``j`` sits at ``buf[base - j]``, so
  its root lands at the high end of its region. When the node count is odd
  every internal node has two children and no guard read happens at all;
  with an even count the extra read falls on the low sentinel, which can
  never win a max-comparison;
* a dual heap is no object of its own but a segment and its split,
  ``(buf, off, n, shn)``: the segment holds positions ``off+1 .. off+n``,
  with its guards at ``off`` and ``off+n+1``, and is split after ``shn``
  elements. The small side is the max-rooted heap of ``shn`` nodes over
  base ``off + shn + 1``, the large side the min-rooted heap of
  ``n - shn`` nodes over base ``off + shn``, so the two roots are the
  adjacent slots ``off + shn`` and ``off + shn + 1``.

Node indices are 1-based so the usual parent/child arithmetic (``2j``,
``2j+1``, ``j//2``) applies literally. Equal children resolve to the left
child (strict comparisons), which keeps counter values reproducible
bit-for-bit across implementations.
"""

from .metrics import PhaseTally


class SentinelArray:
    """A buffer of ``n + 2`` slots: ``n`` payload elements at positions 1..n
    between the two guard slots. ``n`` is read from the buffer, so ``buf``
    may be replaced, say by an instrumented sequence, and the payload size
    follows it."""

    __slots__ = ("buf",)

    def __init__(self, buf: list):
        self.buf = buf

    @property
    def n(self) -> int:
        return len(self.buf) - 2

    def payload(self) -> list:
        return self.buf[1:-1]


def check_int(what: str, value) -> None:
    """Reject anything but an int with ``TypeError``, a bool posing as one
    included: it would pass a range check and leak into counts and CSV."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, not {type(value).__name__} ({value!r})")


def check_index(n: int, k: int) -> None:
    """Reject a selection index that is not an int (``TypeError``) or lies
    outside 1..n (``IndexError``)."""
    check_int("selection index k", k)
    if not 1 <= k <= n:
        raise IndexError(f"selection index k={k} out of range 1..{n}")


def split_indices(n: int, k: int) -> tuple[int, int]:
    """Heap sizes for selecting the k-th smallest of n: the small side gets
    k rounded down to odd, the large side the rest."""
    check_index(n, k)
    shn = k if k & 1 else k - 1
    return shn, n - shn


# Levels per subtree of the blocked build order, leaves included. A subtree
# of 14 levels has 16,383 nodes: 128 KiB of list slots and at most 1 MiB of
# element cache lines, inside a 2 MiB per-core L2. Building a min-heap of
# n = 262143 took 0.89, 0.87, 0.89, 0.97, 1.03 and 1.15x its time at height
# 10 at heights 12, 13, 14, 15, 16 and 18 (CPython 3.11.7, 2 vCPUs): flat up
# to 14, slower once a block outgrows L2. 14 is the tallest flat height, so
# the most heaps stay unblocked (``hn >> _BLOCK_HEIGHT`` zero).
_BLOCK_HEIGHT = 14


def _build_runs(hn: int) -> tuple[tuple[int, int], ...]:
    """Node-index runs ``(first, last)``, each sifted from ``last`` down to
    ``first``, in the order the builders sift a blocked heap.

    Every internal node (1 .. hn//2) appears once, after both of its
    children. The heap is built one subtree of ``_BLOCK_HEIGHT`` levels at a
    time, each bottom-up, and then the levels above those subtrees, so each
    subtree is finished while its elements are still cached. Each run is one
    level, so its sifts touch disjoint subtrees: they may run in any order
    and read the whole level ahead. No run is empty.
    """
    half = hn // 2
    top = hn.bit_length() - _BLOCK_HEIGHT
    spans = [
        (r << i, ((r + 1) << i) - 1)
        for r in range(1 << top, 2 << top)
        for i in range(_BLOCK_HEIGHT - 2, -1, -1)
    ]
    spans += [(1 << d, (2 << d) - 1) for d in range(top - 1, -1, -1)]
    return tuple((first, min(last, half)) for first, last in spans if first <= half)


def build_min_heap(buf: list, base: int, hn: int, tally: PhaseTally) -> None:
    """Build a min-rooted heap of ``hn`` nodes, node j at ``buf[base + j]``,
    bottom-up: sift every internal node after both of its children, a
    blocked heap one subtree at a time (see ``_build_runs``).

    Each sift reads and writes only its own subtree, so any such order gives
    the same buffer and counters as plain level order. Each sift is Floyd's
    sink (CACM Algorithm 245), inline on absolute buffer positions: the
    node at position p has its children at ``2p - base`` and
    ``2p - base + 1``. Every internal node costs 2 compares, plus 2 per
    level it descends below its children. A node that sinks costs 2 moves
    for its first level (the smaller child moved up, the node written once
    at its final slot) and 1 per further level. It sinks on only while its
    slot c is an internal node (``c <= base + hn // 2``), so a slot among
    the leaves costs one position compare. Both counts land in ``tally``
    once.

    A heap of at most ``_BLOCK_HEIGHT`` levels is sifted node by node, in
    level order. A blocked heap reads each run, one level, ahead: its
    parents and its two rows of children as three slices, walked with one
    ``zip``, so the buffer is indexed only where a node sinks. On a small
    heap, setting up the slices costs more than it saves: read one level at
    a time, builds took 3.3, 2.6, 1.7 and 1.2x as long at hn = 7, 15, 63
    and 255.
    """
    half = hn // 2
    if not half:
        return
    inner = base + half
    moves = 0
    descents = 0
    if not hn >> _BLOCK_HEIGHT:
        for p in range(inner, base, -1):
            v = buf[p]
            c = 2 * p - base
            x = buf[c]
            y = buf[c + 1]
            if y < x:
                c += 1
                x = y
            if x < v:
                buf[p] = x
                moves += 2
                while c <= inner:
                    descents += 1
                    j = 2 * c - base
                    x = buf[j]
                    y = buf[j + 1]
                    if y < x:
                        j += 1
                        x = y
                    if not x < v:
                        break
                    buf[c] = x
                    moves += 1
                    c = j
                buf[c] = v
    else:
        for lo, hi in _build_runs(hn):
            p0 = base + lo
            p1 = base + hi
            c0 = 2 * p0 - base
            c1 = 2 * p1 - base
            for p, c, v, x, y in zip(
                range(p0, p1 + 1),
                range(c0, c1 + 1, 2),
                buf[p0 : p1 + 1],
                buf[c0 : c1 + 1 : 2],
                buf[c0 + 1 : c1 + 2 : 2],
            ):
                if y < x:
                    c += 1
                    x = y
                if x < v:
                    buf[p] = x
                    moves += 2
                    while c <= inner:
                        descents += 1
                        j = 2 * c - base
                        x = buf[j]
                        y = buf[j + 1]
                        if y < x:
                            j += 1
                            x = y
                        if not x < v:
                            break
                        buf[c] = x
                        moves += 1
                        c = j
                    buf[c] = v
    tally.compares += 2 * (half + descents)
    tally.moves += moves


def build_max_heap(buf: list, base: int, hn: int, tally: PhaseTally) -> None:
    """Build a max-rooted heap of ``hn`` nodes, node j at ``buf[base - j]``:
    the mirror image of build_min_heap, in the same node order and with the
    same choice of loop. The node at position p has its children at
    ``2p - base`` and ``2p - base - 1``, and slot c is an internal node when
    ``c >= base - hn // 2``."""
    half = hn // 2
    if not half:
        return
    inner = base - half
    moves = 0
    descents = 0
    if not hn >> _BLOCK_HEIGHT:
        for p in range(inner, base):
            v = buf[p]
            c = 2 * p - base
            x = buf[c]
            y = buf[c - 1]
            if y > x:
                c -= 1
                x = y
            if x > v:
                buf[p] = x
                moves += 2
                while c >= inner:
                    descents += 1
                    j = 2 * c - base
                    x = buf[j]
                    y = buf[j - 1]
                    if y > x:
                        j -= 1
                        x = y
                    if not x > v:
                        break
                    buf[c] = x
                    moves += 1
                    c = j
                buf[c] = v
    else:
        for lo, hi in _build_runs(hn):
            p0 = base - hi
            p1 = base - lo
            c0 = 2 * p0 - base
            c1 = 2 * p1 - base
            for p, c, v, x, y in zip(
                range(p0, p1 + 1),
                range(c0, c1 + 1, 2),
                buf[p0 : p1 + 1],
                buf[c0 : c1 + 1 : 2],
                buf[c0 - 1 : c1 : 2],
            ):
                if y > x:
                    c -= 1
                    x = y
                if x > v:
                    buf[p] = x
                    moves += 2
                    while c >= inner:
                        descents += 1
                        j = 2 * c - base
                        x = buf[j]
                        y = buf[j - 1]
                        if y > x:
                            j -= 1
                            x = y
                        if not x > v:
                            break
                        buf[c] = x
                        moves += 1
                        c = j
                    buf[c] = v
    tally.compares += 2 * (half + descents)
    tally.moves += moves
