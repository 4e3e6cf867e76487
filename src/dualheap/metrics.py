"""Comparison and move counting, bucketed by algorithm phase.

Counting convention, applied uniformly by every instrumented operation:

* a comparison is one element-value vs element-value test, sentinel reads
  included;
* a move is one write of an element value into a buffer slot, so an exchange
  of two slots costs 2 moves; traffic through temporaries is not counted.

Counters live in an explicit context object threaded through every call (no
global state), so concurrent runs never share a tally.
"""

from __future__ import annotations

PHASES = ("construct", "swap", "other")


class PhaseTally:
    """Compare/move counter pair for a single phase."""

    __slots__ = ("compares", "moves")

    def __init__(self, compares: int = 0, moves: int = 0):
        self.compares = compares
        self.moves = moves

    def __repr__(self):
        return f"PhaseTally(compares={self.compares}, moves={self.moves})"


class Metrics:
    """Counter context for one algorithm run.

    ``active`` always aliases the tally of the current phase; hot loops bump
    ``ctx.active.compares``/``ctx.active.moves`` directly. The construct and
    swap buckets serve the dualheap algorithm's two phases; baselines put all
    their work in the ``other`` bucket. Wall-clock time is carried in
    ``elapsed_ns`` purely for reporting, never asserted on.
    """

    __slots__ = ("construct", "swap", "other", "phase", "active", "elapsed_ns")

    def __init__(self):
        self.construct = PhaseTally()
        self.swap = PhaseTally()
        self.other = PhaseTally()
        self.elapsed_ns = 0
        self.set_phase("other")

    def set_phase(self, phase: str) -> None:
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}, expected one of {PHASES}")
        self.phase = phase
        self.active = getattr(self, phase)

    @property
    def compares_construct(self) -> int:
        return self.construct.compares

    @property
    def moves_construct(self) -> int:
        return self.construct.moves

    @property
    def compares_swap(self) -> int:
        return self.swap.compares

    @property
    def moves_swap(self) -> int:
        return self.swap.moves

    @property
    def compares_other(self) -> int:
        return self.other.compares

    @property
    def moves_other(self) -> int:
        return self.other.moves

    @property
    def compares_total(self) -> int:
        return self.construct.compares + self.swap.compares + self.other.compares

    @property
    def moves_total(self) -> int:
        return self.construct.moves + self.swap.moves + self.other.moves

    def merge(self, other: "Metrics") -> None:
        """Fold another context into this one by summing all counters."""
        self.construct.compares += other.construct.compares
        self.construct.moves += other.construct.moves
        self.swap.compares += other.swap.compares
        self.swap.moves += other.swap.moves
        self.other.compares += other.other.compares
        self.other.moves += other.other.moves
        self.elapsed_ns += other.elapsed_ns

    def snapshot(self) -> dict:
        return {
            "compares_construct": self.construct.compares,
            "moves_construct": self.construct.moves,
            "compares_swap": self.swap.compares,
            "moves_swap": self.swap.moves,
            "compares_other": self.other.compares,
            "moves_other": self.other.moves,
        }

    def __repr__(self):
        return (
            f"Metrics(construct={self.construct!r}, swap={self.swap!r}, "
            f"other={self.other!r}, phase={self.phase!r})"
        )


def counted_compare(a, b, ctx: Metrics) -> int:
    """Three-way comparison of two element values, counted in the active phase.

    Returns -1, 0 or 1.
    """
    ctx.active.compares += 1
    if a < b:
        return -1
    if b < a:
        return 1
    return 0


def counted_move(buf, pos: int, value, ctx: Metrics) -> None:
    """Write one element value into a buffer slot, counted in the active phase."""
    buf[pos] = value
    ctx.active.moves += 1
