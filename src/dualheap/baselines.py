"""Selection baselines: quickselect over a Hoare crossing-scan partition,
a median-of-medians pivot estimator, and the brute-force sort oracle.

All baselines count their work into the ``other`` phase bucket. The oracle
is never counted; it exists to check everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Element, SentinelArray, check_index
from .metrics import Metrics
from .rng import SplitMix64

PIVOT_RULES = ("first", "random", "median_of_medians")

# Segments at or below this length resolve their median estimate by a direct
# counted insertion sort instead of recursing on group medians.
_MOM_DIRECT_LIMIT = 25
_MOM_GROUP = 5


@dataclass(frozen=True)
class PivotRule:
    """How quickselect picks its pivot: the segment's first element
    (deterministic, quadratic on sorted input), a seeded uniform choice, or
    the median-of-medians estimate (linear worst case, slower on average)."""

    tag: str = "first"
    seed: int = 0

    def __post_init__(self):
        if self.tag not in PIVOT_RULES:
            raise ValueError(f"unknown pivot rule {self.tag!r}, expected one of {PIVOT_RULES}")


def hoare_partition(buf, lo: int, hi: int, pivot_value: Element, ctx: Metrics) -> int:
    """Classic crossing scan over buf[lo..hi] around a pivot value that
    occurs in the segment. Returns j with values <= pivot-class at
    positions lo..j and >= pivot-class at j+1..hi.

    The scans stop on the pivot's own occurrences, so they never leave the
    segment; no sentinel is consulted.
    """
    tally = ctx.active
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


def _median_by_insertion(values: list[Element], tally) -> Element:
    """Lower median of a short list via counted insertion sort on a scratch
    copy (scratch writes are temporary traffic, not buffer moves)."""
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


def _mom(values: list[Element], tally) -> Element:
    if len(values) <= _MOM_DIRECT_LIMIT:
        return _median_by_insertion(values, tally)
    medians = [
        _median_by_insertion(values[g : g + _MOM_GROUP], tally)
        for g in range(0, len(values), _MOM_GROUP)
    ]
    return _mom(medians, tally)


def median_of_medians(buf, lo: int, hi: int, ctx: Metrics) -> Element:
    """Median estimate for buf[lo..hi]: medians of groups of five (tail
    group may be shorter), then recursively the median of those medians.
    The returned value always occurs in the segment and its rank is
    centrally bounded, which is what caps quickselect's recursion depth."""
    if hi < lo:
        raise ValueError("median_of_medians needs a non-empty segment")
    return _mom(buf[lo : hi + 1], ctx.active)


def _anchor_pivot(buf, lo: int, hi: int, rule: PivotRule, stream: SplitMix64 | None, ctx: Metrics) -> Element:
    """Choose the pivot per the rule and move one occurrence of it to
    position lo, which guarantees the crossing scan's boundary lands
    strictly left of hi (so both recursion sides are non-empty)."""
    tally = ctx.active
    if rule.tag == "random":
        r = lo + stream.below(hi - lo + 1)
        if r != lo:
            buf[lo], buf[r] = buf[r], buf[lo]
            tally.moves += 2
    elif rule.tag == "median_of_medians":
        v = median_of_medians(buf, lo, hi, ctx)
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


def quickselect(arr: SentinelArray, k: int, rule: PivotRule | None = None, ctx: Metrics | None = None) -> Element:
    """k-th smallest via iterated partitioning, recursing only into the side
    containing k. Partitions the buffer in place like dh_select does."""
    if rule is None:
        rule = PivotRule("first")
    if ctx is None:
        ctx = Metrics()
    check_index(arr.n, k)
    ctx.set_phase("other")
    buf = arr.buf
    stream = SplitMix64(rule.seed) if rule.tag == "random" else None
    lo, hi = 1, arr.n
    while lo < hi:
        pivot = _anchor_pivot(buf, lo, hi, rule, stream, ctx)
        b = hoare_partition(buf, lo, hi, pivot, ctx)
        if k <= b:
            hi = b
        else:
            lo = b + 1
    return buf[k]


def quickselect_mom(arr: SentinelArray, k: int, ctx: Metrics | None = None) -> Element:
    """Quickselect with the median-of-medians pivot estimator."""
    return quickselect(arr, k, PivotRule("median_of_medians"), ctx)


def oracle_select(values, k: int) -> Element:
    """Ground truth: k-th smallest via a full sort of a copy."""
    values = sorted(values)
    check_index(len(values), k)
    return values[k - 1]
