"""Whether and how ``dh_sort`` sorts the two halves of its first partition
at the same time in two processes.

``select.dh_sort`` imports this module on its first sort, so that
``import dualheap`` does not load it. Inside ``select``, compiled from
source (``PYTHONDONTWRITEBYTECODE=1``), this code took the package's import
from 6.1 to 7.0 ms, medians of 40 alternating fresh-interpreter pairs
(CPython 3.11.7, 2 vCPUs).
"""

import _thread
import gc
import marshal
import os

from .core import SentinelArray
from .metrics import Metrics
from .select import SelectOptions, _sort_segments, dh_select

# The smallest input dh_sort sorts in two processes. Forking costs about
# 2 ms and sending the right half back is linear, against the half's
# n log n sort. In runs of ten in-process pairs, each the medians of 15
# alternating forked and sequential sorts of one random permutation
# (CPython 3.11.7, 2 vCPUs, the other vCPU idle), the forked sort won 7
# and 4 pairs at n = 2047 (median ratios 0.919 and 1.174); 10, 9, 8, 9,
# 8, 9, 8, 7 and 5 at 4095 (0.82 to 1.00); and 10, 8, 8, 10 and 9 at 8191
# (0.77 to 0.83). 8191 is the smallest 2^j - 1 that won 9 of 10 pairs in
# most runs. With the other vCPU running a busy loop the forked sort lost
# every pair, 1.30x at 4095 and 1.16x at 16383: the test counts permitted
# CPUs, not idle ones, and no benchmark workload covers either case.
_FORK_MIN_N = 8191

# Exact element types whose compares run no Python code, so no user
# __lt__ runs unseen in a forked child.
_PLAIN_TYPES = frozenset((int, float, str))


def sort_halves(arr: SentinelArray, opts: SelectOptions, ctx: Metrics) -> list:
    """Make every fork decision of ``dh_sort``: return the ``(off, n)``
    segments of ``arr`` still to sort with ``_sort_segments``.

    From ``_FORK_MIN_N`` elements on, when the platform forks, more than
    one CPU is usable, no other thread is alive and every element's exact
    type is in ``_PLAIN_TYPES``, this selects the median address k and
    sorts the left half while a forked child sorts the right one, which
    comes back as counters and positions in the half before the sort, so
    the buffer, counts and element objects are those of ``_sort_segments``.
    Otherwise the whole buffer is left, unselected; if the pipe or the fork
    fails, both halves; if the child exits nonzero, the right half."""
    buf = arr.buf
    n = arr.n
    # A child of a process with other threads inherits their locks held.
    # The guards are payload values, so the buffer has the payload's types.
    if (
        n < _FORK_MIN_N
        or not hasattr(os, "fork")
        or _thread._count()
        or (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1) < 2
        or not set(map(type, buf)) <= _PLAIN_TYPES
    ):
        return [(0, n)]
    k = (n + 1) // 2
    dh_select(arr, k, opts, ctx)
    seg = buf[k + 1 : n + 1]
    # The collector stays off in the child, so that a garbage cycle the
    # caller left runs its finalizers here only, not in both processes.
    collecting = gc.isenabled()
    gc.disable()
    pid = -1
    try:
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
    except OSError:
        pass
    finally:
        if pid and collecting:
            gc.enable()
    if pid < 0:
        return [(k, n - k), (0, k - 1)]
    if not pid:
        status = 1
        try:
            os.close(r)
            child = Metrics()
            _sort_segments(buf, [(k, n - k)], opts, child)
            # An object held at two positions of seg may come back from either.
            position = dict(zip(map(id, seg), range(n - k)))
            perm = list(map(position.__getitem__, map(id, buf[k + 1 : n + 1])))
            counts = (child.construct.compares, child.construct.moves, child.swap.compares, child.swap.moves)
            report = marshal.dumps((*counts, perm))
            with open(w, "wb") as pipe:
                pipe.write(report)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            _sort_segments(buf, [(0, k - 1)], opts, ctx)
            report = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status:
        return [(k, n - k)]
    construct_compares, construct_moves, swap_compares, swap_moves, perm = marshal.loads(report)
    ctx.construct.compares += construct_compares
    ctx.construct.moves += construct_moves
    ctx.swap.compares += swap_compares
    ctx.swap.moves += swap_moves
    buf[k + 1 : n + 1] = [seg[i] for i in perm]
    return []
