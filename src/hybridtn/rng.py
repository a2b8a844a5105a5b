"""Seeded 64-bit generator for reproducible random couplings.

Coupling strengths and parameter initialisations must be identical across
platforms and library versions, so instead of relying on numpy's bit
generators this module pins a splitmix-style stream completely: 64-bit
wrap-around arithmetic with the increment 0x9E3779B97F4A7C15 and the two
mixing multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB (shift
distances 30, 27 and 31).  Floats are formed from the top 53 bits, giving
uniform doubles in [0, 1).
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_INCREMENT = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic stream of 64-bit words and [0, 1) doubles."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _INCREMENT) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def next_float(self) -> float:
        # top 53 bits -> double in [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()
