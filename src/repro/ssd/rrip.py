"""Re-Reference Interval Prediction (RRIP) replacement.

The SSD-Cache uses RRIP (Jaleel et al., ISCA'10) as its replacement policy
because it tolerates the scan/thrash mixes of random page accesses far
better than LRU (§3.4).  This is SRRIP with 2-bit re-reference prediction
values (RRPV):

* insertion predicts a *long* re-reference interval (RRPV = max-1),
* a hit predicts a *near-immediate* interval (RRPV = 0),
* the victim is any way with RRPV = max; if none exists all RRPVs age by
  one and the search repeats.

The class manages one set; the SSD-Cache owns one instance per set.
"""

from __future__ import annotations

from typing import List


class RRIPSet:
    """RRPV state for the ways of one cache set."""

    def __init__(self, num_ways: int, rrpv_bits: int = 2) -> None:
        if num_ways <= 0:
            raise ValueError(f"num_ways must be > 0, got {num_ways}")
        if rrpv_bits <= 0:
            raise ValueError(f"rrpv_bits must be > 0, got {rrpv_bits}")
        self.num_ways = num_ways
        self.max_rrpv = (1 << rrpv_bits) - 1
        # Empty ways start at max so they are chosen before any occupant.
        self._rrpv: List[int] = [self.max_rrpv] * num_ways

    def rrpv_of(self, way: int) -> int:
        return self._rrpv[way]

    def on_hit(self, way: int) -> None:
        """Hit promotion: predict near-immediate re-reference."""
        self._check_way(way)
        self._rrpv[way] = 0

    def on_insert(self, way: int) -> None:
        """Insertion: predict a long (but not distant) re-reference."""
        self._check_way(way)
        self._rrpv[way] = self.max_rrpv - 1

    def select_victim(self, occupied: List[bool]) -> int:
        """Pick a victim way.

        Free ways win immediately.  Otherwise the leftmost way at max RRPV
        is evicted, aging every way until one reaches max.  ``occupied``
        flags which ways currently hold valid entries.
        """
        if len(occupied) != self.num_ways:
            raise ValueError(
                f"occupied has {len(occupied)} flags for {self.num_ways} ways"
            )
        if False in occupied:
            return occupied.index(False)
        # Aging repeats until some way reaches max, so every way ages by
        # the same amount: max minus the highest RRPV.  Age once by that.
        age = self.max_rrpv - max(self._rrpv)
        if age > 0:
            self._rrpv = [rrpv + age for rrpv in self._rrpv]
        return self._rrpv.index(self.max_rrpv)

    def reset_way(self, way: int) -> None:
        """Mark a way empty (its entry was invalidated)."""
        self._check_way(way)
        self._rrpv[way] = self.max_rrpv

    def _check_way(self, way: int) -> None:
        if not 0 <= way < self.num_ways:
            raise ValueError(f"way {way} out of range [0, {self.num_ways})")
