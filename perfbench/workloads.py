"""The three benchmark workloads, driven through dualheap's public functions.

Each workload builds its inputs from a seed during set-up, runs one timed
operation per call of ``op`` and checks that operation's output in ``check``,
outside the timed span. Operations look the library functions up on their
module at call time (``select.dh_select``, ``cli.main``), so the traced run
can wrap them at those names; the oracles are bound here, before any
wrapping, so checks are never traced.

``check`` returns the exact compare/move counts of the operation as a
``Counts`` tuple, or ``None`` when the output is wrong. Operations are cycled
over a fixed pool of inputs, and the count metrics are taken from one pass
over that pool, so they depend on the seed only, never on how many
operations fit into the measured time.
"""

from __future__ import annotations

import csv
import io
import random
from pathlib import Path
from typing import NamedTuple

import dualheap
from dualheap import cli, select

_verify_partition = select.verify_partition


class Counts(NamedTuple):
    """Exact counts of one operation, split by the layer that did the work:
    ``core`` is heap construction, ``swaps`` the swapping phase and
    ``baselines`` the quickselect bucket."""

    elements: int
    core_compares: int
    core_moves: int
    swaps_compares: int
    swaps_moves: int
    baselines_compares: int
    baselines_moves: int

    @property
    def compares(self) -> int:
        return self.core_compares + self.swaps_compares + self.baselines_compares

    @property
    def moves(self) -> int:
        return self.core_moves + self.swaps_moves + self.baselines_moves

    def __add__(self, other):
        return Counts(*(a + b for a, b in zip(self, other)))


ZERO = Counts(0, 0, 0, 0, 0, 0, 0)


def _from_metrics(n: int, ctx: dualheap.Metrics) -> Counts:
    return Counts(
        n,
        ctx.construct.compares,
        ctx.construct.moves,
        ctx.swap.compares,
        ctx.swap.moves,
        ctx.other.compares,
        ctx.other.moves,
    )


def _permutations(seed: int, n: int, count: int) -> list[list[int]]:
    rng = random.Random(seed)
    pool = []
    for _ in range(count):
        values = list(range(1, n + 1))
        rng.shuffle(values)
        pool.append(values)
    return pool


class SelectLarge:
    """``dh_select`` (tree swap, presplit 1, k = median) on random
    permutations too large for L2, so heap construction dominates."""

    name = "select-large"
    imports = ("dualheap",)

    def __init__(self, seed: int, n: int = 262143, pool: int = 4):
        self.k = (n + 1) // 2
        self.options = dualheap.SelectOptions(strategy="tree", presplit=1)
        self.inputs = _permutations(seed, n, pool)
        self.answers = [sorted(values)[self.k - 1] for values in self.inputs]
        self.pool = pool
        self.elements_per_op = n

    def op(self, i: int):
        ctx = dualheap.Metrics()
        arr = select.prepare_buffer(self.inputs[i % self.pool])
        out = select.dh_select(arr, self.k, self.options, ctx)
        return arr, out.value, ctx

    def check(self, i: int, result) -> Counts | None:
        arr, value, ctx = result
        if value != self.answers[i % self.pool] or not _verify_partition(arr, self.k):
            return None
        return _from_metrics(self.elements_per_op, ctx)


class SortMid:
    """``dh_sort`` with default options on random permutations: thousands
    of tiny segments, so per-call overhead in ``core`` and ``swaps`` shows."""

    name = "sort-mid"
    imports = ("dualheap",)

    def __init__(self, seed: int, n: int = 16383, pool: int = 4):
        self.inputs = _permutations(seed, n, pool)
        self.answers = [sorted(values) for values in self.inputs]
        self.pool = pool
        self.elements_per_op = n

    def op(self, i: int):
        ctx = dualheap.Metrics()
        return select.dh_sort(self.inputs[i % self.pool], None, ctx), ctx

    def check(self, i: int, result) -> Counts | None:
        out, ctx = result
        if out != self.answers[i % self.pool]:
            return None
        return _from_metrics(self.elements_per_op, ctx)


# The figure series of the repository's experiments, one `bench` call each.
FIGURE_SERIES = (
    ("--swap", "tree", "--presplit", "0"),
    ("--swap", "tree", "--presplit", "1"),
    ("--swap", "tree", "--presplit", "2"),
    ("--swap", "branch"),
    ("--swap", "root"),
    ("--algo", "quickselect", "--pivot", "first"),
    ("--algo", "quickselect", "--pivot", "random"),
    ("--algo", "quickselect-mom"),
)


class Figures:
    """One pass of in-process ``dualheap bench`` calls over the figure
    series, each writing its CSV to a scratch file. Exit codes must be 0 and
    every CSV must match the first pass byte for byte."""

    name = "figures"
    imports = ("dualheap", "dualheap.cli")

    def __init__(self, seed: int, scratch: Path, n: int = 4095, trials: int = 3):
        self.pool = 1
        self.elements_per_op = len(FIGURE_SERIES) * trials * n
        self.paths = [scratch / f"figure-{i}.csv" for i in range(len(FIGURE_SERIES))]
        common = ["bench", "--sizes", str(n), "--trials", str(trials), "--seed", str(seed)]
        self.argvs = [[*common, *flags, "--out", str(path)] for flags, path in zip(FIGURE_SERIES, self.paths)]
        self.first_pass: list[bytes] | None = None

    def op(self, i: int):
        codes = []
        for argv in self.argvs:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse rejects flags by exiting
                codes.append(exc.code)
        return codes

    def check(self, i: int, codes) -> Counts | None:
        if any(code != 0 for code in codes):
            return None
        blobs = [path.read_bytes() for path in self.paths]
        if self.first_pass is None:
            self.first_pass = blobs
        elif blobs != self.first_pass:
            return None
        total = ZERO
        for blob in blobs:
            for row in csv.DictReader(io.StringIO(blob.decode())):
                if row["correct"] != "true":
                    return None
                n = int(row["n"])
                if row["algo"] == "dhselect":
                    total += Counts(
                        n,
                        int(row["compares_construct"]),
                        int(row["moves_construct"]),
                        int(row["compares_swap"]),
                        int(row["moves_swap"]),
                        0,
                        0,
                    )
                else:
                    total += Counts(n, 0, 0, 0, 0, int(row["compares_total"]), int(row["moves_total"]))
        if total.elements != self.elements_per_op:
            return None
        return total


WORKLOADS = {cls.name: cls for cls in (SelectLarge, SortMid, Figures)}

# Sizes for the benchmark's self-tests: the same code paths in well under a
# second per operation.
SMALL_SIZES = {"select-large": {"n": 1023}, "sort-mid": {"n": 255}, "figures": {"n": 63, "trials": 1}}


def make(name: str, seed: int, scratch: Path, small: bool = False):
    """Set up the named workload: generate its inputs and oracle answers."""
    sizes = dict(SMALL_SIZES[name]) if small else {}
    if name == "figures":
        sizes["scratch"] = scratch
    return WORKLOADS[name](seed, **sizes)
