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
    their work in the ``other`` bucket.
    """

    __slots__ = (*PHASES, "phase", "active")

    def __init__(self):
        for phase in PHASES:
            setattr(self, phase, PhaseTally())
        self.set_phase("other")

    def set_phase(self, phase: str) -> None:
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}, expected one of {PHASES}")
        self.phase = phase
        self.active = getattr(self, phase)

    @property
    def compares_total(self) -> int:
        return sum(getattr(self, phase).compares for phase in PHASES)

    @property
    def moves_total(self) -> int:
        return sum(getattr(self, phase).moves for phase in PHASES)

    def snapshot(self) -> dict:
        """Every counter, keyed ``compares_<phase>`` and ``moves_<phase>``."""
        return {
            f"{kind}_{phase}": getattr(getattr(self, phase), kind)
            for phase in PHASES
            for kind in ("compares", "moves")
        }

    def __repr__(self):
        return (
            f"Metrics(construct={self.construct!r}, swap={self.swap!r}, "
            f"other={self.other!r}, phase={self.phase!r})"
        )
