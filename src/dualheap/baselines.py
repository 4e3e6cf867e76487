"""Selection baselines: quickselect over a Hoare crossing-scan partition,
a median-of-medians pivot estimator, and the brute-force sort oracle.

Quickselect counts its work in the ``other`` tally of its ``Metrics``; the
partition and pivot kernels count in the tally they are handed. The oracle
is never counted; it exists to check everything else.
"""

from .core import SentinelArray, check_index
from .metrics import Metrics, PhaseTally
from .rng import SplitMix64, check_seed

PIVOT_RULES = ("first", "random", "median_of_medians")

# Segments at or below this length resolve their median estimate by a direct
# counted insertion sort instead of another round of group medians.
_MOM_DIRECT_LIMIT = 25


def hoare_partition(buf, lo: int, hi: int, pivot_value, tally: PhaseTally) -> int:
    """Classic crossing scan over buf[lo..hi] around a pivot value that
    occurs in the segment. Returns j with values <= pivot-class at
    positions lo..j and >= pivot-class at j+1..hi.

    The scans stop on the pivot's own occurrences, so they never leave the
    segment; no sentinel is consulted. Each scan compares once per slot it
    visits and visits no slot twice, so the count comes from where the scans
    stopped: a segment of L slots costs L + 1 compares, or L + 2 when the
    scans cross with i = j + 1.
    """
    i = lo
    j = hi
    m = 0
    while True:
        while buf[j] > pivot_value:
            j -= 1
        while buf[i] < pivot_value:
            i += 1
        if i >= j:
            tally.compares += (hi + 1 - j) + (i - lo + 1)
            tally.moves += m
            return j
        buf[i], buf[j] = buf[j], buf[i]
        m += 2
        i += 1
        j -= 1


def _median_by_insertion(vals: list, tally: PhaseTally):
    """Lower median of a short fresh list, sorted in place by counted
    insertion (scratch writes are temporary traffic, not buffer moves). An
    insert compares once per slot it reads: from i - 1 down to where it
    stops, or down to slot 0."""
    c = 0
    for i in range(1, len(vals)):
        v = vals[i]
        j = i - 1
        while j >= 0 and vals[j] > v:
            vals[j + 1] = vals[j]
            j -= 1
        vals[j + 1] = v
        c += i - max(j, 0)
    tally.compares += c
    return vals[(len(vals) + 1) // 2 - 1]


def _median_of_five(a, b, c, d, e):
    """``_median_by_insertion`` on [a, b, c, d, e], written out: the same
    compares in the same order (earlier value > later value), the same
    lower median and its count, returned instead of added to a tally. Each
    insert re-sorts the prefix into a..d; the last one only finds the
    median."""
    if a > b:
        a, b = b, a
    if b > c:
        if a > c:
            a, b, c = c, a, b
        else:
            b, c = c, b
        n = 3
    else:
        n = 2
    if c > d:
        if b > d:
            if a > d:
                a, b, c, d = d, a, b, c
            else:
                b, c, d = d, b, c
            n += 3
        else:
            c, d = d, c
            n += 2
    else:
        n += 1
    if d > e:
        if c > e:
            if b > e:
                a > e  # the insert's last compare; the median is b either way
                return b, n + 4
            return e, n + 3
        return c, n + 2
    return c, n + 1


def median_of_medians(buf, lo: int, hi: int, tally: PhaseTally):
    """Median estimate for buf[lo..hi]: medians of groups of five (tail
    group may be shorter), round after round, until at most
    ``_MOM_DIRECT_LIMIT`` values are left, whose median is the estimate.
    The returned value always occurs in the segment and its rank is
    centrally bounded, which is what caps quickselect's recursion depth.
    Full groups run through ``_median_of_five`` in group order, and each
    round adds their summed count once."""
    if hi < lo:
        raise ValueError("median_of_medians needs a non-empty segment")
    values = buf[lo : hi + 1]
    while len(values) > _MOM_DIRECT_LIMIT:
        full = len(values) - len(values) % 5
        medians, counts = zip(*map(_median_of_five, *(values[r:full:5] for r in range(5))))
        tally.compares += sum(counts)
        tail = values[full:]
        values = list(medians)
        if tail:
            values.append(_median_by_insertion(tail, tally))
    return _median_by_insertion(values, tally)


def _anchor_pivot(buf, lo: int, hi: int, pivot: str, stream: SplitMix64 | None, tally: PhaseTally):
    """Choose the pivot per the rule and move one occurrence of it to
    position lo, which guarantees the crossing scan's boundary lands
    strictly left of hi (so both recursion sides are non-empty). The
    median-of-medians rule takes the first slot that holds its value, at a
    count of one compare per slot read up to it."""
    r = lo
    if pivot == "random":
        r += stream.below(hi - lo + 1)
    elif pivot == "median_of_medians":
        r = buf.index(median_of_medians(buf, lo, hi, tally), lo, hi + 1)
        tally.compares += r - lo + 1
    if r != lo:
        buf[lo], buf[r] = buf[r], buf[lo]
        tally.moves += 2
    return buf[lo]


def quickselect(
    arr: SentinelArray, k: int, pivot: str = "first", ctx: Metrics | None = None, *, seed: int = 0
):
    """k-th smallest via iterated partitioning, recursing only into the side
    containing k. Partitions the buffer in place like dh_select does.

    ``pivot`` is one of ``PIVOT_RULES``: the segment's first element
    (deterministic, quadratic on sorted input), a uniform choice from a
    splitmix64 stream seeded with ``seed``, or the median-of-medians
    estimate (linear worst case, slower on average). An unknown pivot
    raises ``ValueError``, and ``seed`` is checked by ``rng.check_seed``
    whatever the pivot; both checks, and k's, run before the buffer is
    touched."""
    if pivot not in PIVOT_RULES:
        raise ValueError(f"unknown pivot rule {pivot!r}, expected one of {PIVOT_RULES}")
    check_seed(seed)
    if ctx is None:
        ctx = Metrics()
    check_index(arr.n, k)
    tally = ctx.other
    buf = arr.buf
    stream = SplitMix64(seed) if pivot == "random" else None
    lo, hi = 1, arr.n
    while lo < hi:
        value = _anchor_pivot(buf, lo, hi, pivot, stream, tally)
        b = hoare_partition(buf, lo, hi, value, tally)
        if k <= b:
            hi = b
        else:
            lo = b + 1
    return buf[k]


def oracle_select(values, k: int):
    """Ground truth: k-th smallest via a full sort of a copy."""
    values = sorted(values)
    check_index(len(values), k)
    return values[k - 1]
