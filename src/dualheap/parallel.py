"""The two halves of ``dh_sort``'s first partition, sorted at the same time
in two processes.

``select.dh_sort`` imports this module on its first sort that forks, so
that ``import dualheap`` does not load it. Inside ``select``, compiled
from source (``PYTHONDONTWRITEBYTECODE=1``), this code took the package's
import from 6.1 to 7.0 ms, medians of 40 alternating fresh-interpreter
pairs (CPython 3.11.7, 2 vCPUs).
"""

import gc
import marshal
import os

from .metrics import Metrics
from .select import SelectOptions, _sort_segments


def sort_halves(buf, n: int, k: int, opts: SelectOptions, ctx: Metrics) -> None:
    """Sort the segments left and right of position k: the left one here
    and, at the same time, the right one in a forked child. The child
    writes its four counters and the half's arrangement, as positions in
    the half before the sort, to a pipe and exits 0, so this process
    rebuilds the half from its own objects. The halves share no slot, so
    the buffer and counts are those of ``_sort_segments``. If the pipe or
    the fork fails, or the child exits nonzero, the right half, which this
    process never wrote, is sorted here too."""
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
        _sort_segments(buf, [(k, n - k), (0, k - 1)], opts, ctx)
        return
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
        _sort_segments(buf, [(k, n - k)], opts, ctx)
        return
    construct_compares, construct_moves, swap_compares, swap_moves, perm = marshal.loads(report)
    ctx.construct.compares += construct_compares
    ctx.construct.moves += construct_moves
    ctx.swap.compares += swap_compares
    ctx.swap.moves += swap_moves
    buf[k + 1 : n + 1] = [seg[i] for i in perm]
