"""Comparison and move counting, bucketed by algorithm phase.

Counting convention, applied uniformly by every instrumented operation:

* a comparison is one element-value vs element-value test, sentinel reads
  included;
* a move is one write of an element value into a buffer slot, so an exchange
  of two slots costs 2 moves; traffic through temporaries is not counted.

Counters live in an explicit context object (no global state), so
concurrent runs never share a tally. Entry points take a ``Metrics`` and
hand each phase its own ``PhaseTally``; every counted kernel takes the one
tally it writes, so a kernel called on its own counts wherever its caller
points it.
"""

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
    """Counter context for one algorithm run: one tally per phase. The
    construct and swap tallies serve the dualheap algorithm's two phases;
    baselines put all their work in ``other``."""

    __slots__ = PHASES

    def __init__(self):
        for phase in PHASES:
            setattr(self, phase, PhaseTally())

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
        return f"Metrics(construct={self.construct!r}, swap={self.swap!r}, other={self.other!r})"
