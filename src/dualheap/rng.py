"""Deterministic 64-bit PRNG for input generation and random pivots.

A fixed algorithm (rather than Python's random module) so that a given seed
produces bit-identical streams in any implementation of this harness.

splitmix64's state after t steps is ``seed + t * GAMMA (mod 2**64)``, so a
whole block of outputs can be mixed at once. ``SplitMix64.take`` packs up to
``_BLOCK`` consecutive states into one Python int, one 128-bit lane per
output, lane i (from the least significant end) holding ``state + (i+1) *
GAMMA``. Every value is kept below 2**64 inside its lane by masking after
each xor-shift and each multiply: a lane's upper 64 bits then absorb a
64x64-bit product without carrying into the next lane, and the bits a right
shift drags in from the next lane are cleared before they can be multiplied.
The low 64 bits of each lane are the outputs, in stream order.
"""

import sys
from functools import cache

from .core import check_int

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Lanes per packed block: 4,096 lanes make a 64 KiB int.
_BLOCK = 4096

# Indices of each lane's low 64-bit word in a native-order "Q" view of the
# block written with to_bytes(..., sys.byteorder): on a big-endian host the
# last lane comes first and each lane's high word precedes its low word.
_LOW_WORDS = slice(None, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


@cache
def _lane_constants() -> tuple[int, int, int]:
    """(ones, mask, steps) for a full block: 1, 2**64 - 1 and (i+1) * GAMMA
    in lane i. Built on first use, not at import."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * _BLOCK, "little")
    mask = int.from_bytes((b"\xff" * 8 + bytes(8)) * _BLOCK, "little")
    steps = int.from_bytes(
        b"".join((i * _GAMMA).to_bytes(16, "little") for i in range(1, _BLOCK + 1)), "little"
    )
    return ones, mask, steps


def check_seed(seed: int) -> int:
    """Return the seed if it is an int in 0..2**64 - 1. A seed outside that
    range would alias the one inside it that shares its low 64 bits (-1
    and 2**64 - 1 would give the same stream), so it raises ``ValueError``;
    anything but an int, ``bool`` included, raises ``TypeError``."""
    check_int("seed", seed)
    if not 0 <= seed <= MASK64:
        raise ValueError(f"expected a seed in 0..{MASK64}, got {seed}")
    return seed


class SplitMix64:
    """splitmix64: the state advances by a fixed odd constant and the output
    is a finalizing avalanche mix of the state. All arithmetic mod 2**64."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = check_seed(seed)

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def take(self, count: int) -> list[int]:
        """The next ``count`` outputs, exactly as ``count`` calls of
        ``next_u64`` would return them, leaving the same state."""
        out: list[int] = []
        ones, mask, steps = _lane_constants()
        state = self.state
        for start in range(0, count, _BLOCK):
            m = min(_BLOCK, count - start)
            if m < _BLOCK:
                # Only the mask must shrink for correctness; shrinking all
                # three keeps a short block's cost proportional to its size.
                lanes = (1 << 128 * m) - 1
                ones &= lanes
                mask &= lanes
                steps &= lanes
            z = (state * ones + steps) & mask
            z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
            z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
            z ^= z >> 31  # the bits shifted in from the next lane land in the high word
            out += memoryview(z.to_bytes(16 * m, sys.byteorder)).cast("Q")[_LOW_WORDS].tolist()
            state = (state + m * _GAMMA) & MASK64
        self.state = state
        return out

    def below(self, bound: int) -> int:
        # Plain modulo reduction: the tiny bias is irrelevant here and keeps
        # the stream trivially reproducible in other languages.
        return self.next_u64() % bound
