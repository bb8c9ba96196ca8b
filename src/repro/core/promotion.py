"""Adaptive page promotion — Algorithm 1 of the paper, verbatim.

Every memory access served by the SSD calls :meth:`PromotionManager.update`
for the touched SSD-Cache entry; every SSD-Cache eviction calls
``PromotionManager.adjust_cnt``.  The algorithm promotes a page when
its access counter reaches an *adaptive* threshold:

* ``currRatio = AggPromotedCnt / AccessCnt`` measures page re-use;
* high re-use (ratio >= HiRatio) lowers the threshold so hot pages promote
  quickly; low re-use (ratio <= LwRatio) raises it toward MaxThreshold so
  thrashing pages stay in the SSD and are accessed byte-granularly;
* every ResetEpoch accesses the counters reset, with ``AccessCnt`` seeded
  from ``NetAggCnt`` (the live sum of cached pages' counters) to preserve
  the current pages' access pattern without rescanning the counter array.

Variable names follow the paper so the implementation can be audited
against Algorithm 1 line by line.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import PromotionConfig
from repro.sim.stats import StatRegistry
from repro.ssd.ssd_cache import CacheEntry
from repro.units import LPN


class AdaptivePromotionPolicy:
    """State machine of Algorithm 1 (UPDATE and ADJUST_CNT procedures)."""

    def __init__(self, config: PromotionConfig) -> None:
        config.validate()
        self.config = config
        self.net_agg_cnt = 0
        self.access_cnt = 0
        self.agg_promoted_cnt = 0
        self.curr_threshold = config.max_threshold

    def adjust_cnt(self, entry: CacheEntry) -> None:
        """ADJUST_CNT: retire an evicted page's counter from NetAggCnt."""
        self.net_agg_cnt -= entry.page_cnt
        entry.page_cnt = 0

    def update(self, entry: CacheEntry) -> bool:
        """UPDATE: account one access; returns True when the page should be
        promoted (its counter just reached CurrThreshold)."""
        config = self.config
        self.net_agg_cnt += 1
        self.access_cnt += 1
        entry.page_cnt += 1
        promote_flag = entry.page_cnt == self.curr_threshold
        if promote_flag:
            self.agg_promoted_cnt += entry.page_cnt
        curr_ratio = self.agg_promoted_cnt / self.access_cnt
        if curr_ratio <= config.lw_ratio:
            if self.curr_threshold < config.max_threshold:
                self.curr_threshold += 1
        elif curr_ratio >= config.hi_ratio:
            if self.curr_threshold > 1 and promote_flag:
                self.curr_threshold -= 1
        if self.access_cnt >= config.reset_epoch:
            self.access_cnt = self.net_agg_cnt
            self.agg_promoted_cnt = 0
            self.curr_threshold = config.max_threshold
        return promote_flag


class FixedPromotionPolicy:
    """Ablation: promote at a fixed threshold (the naive scheme of §3.4)."""

    def __init__(self, threshold: int = 1) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.curr_threshold = threshold  # mirrors the adaptive interface

    def adjust_cnt(self, entry: CacheEntry) -> None:
        entry.page_cnt = 0

    def update(self, entry: CacheEntry) -> bool:
        entry.page_cnt += 1
        return entry.page_cnt == self.threshold


class PromotionManager:
    """The SSD's Promotion Manager: wires the policy to the device.

    The device calls :meth:`update`/``adjust_cnt`` (the
    :class:`~repro.ssd.device.PromotionSink` protocol) from inside its MMIO
    paths; ``adjust_cnt`` is the policy's own method.  Promotion
    *candidates* are queued in :attr:`candidates` and drained by the
    hierarchy after the access completes, mirroring the off-critical-path
    promotion of §3.3.
    """

    def __init__(
        self,
        config: Optional[PromotionConfig] = None,
        policy: Optional[object] = None,
        stats: Optional[StatRegistry] = None,
    ) -> None:
        if policy is None:
            policy = AdaptivePromotionPolicy(config if config is not None else PromotionConfig())
        self.policy = policy
        self.adjust_cnt = policy.adjust_cnt
        #: Queued promotion candidates (lpns, each once), oldest first.
        self.candidates: Dict[LPN, None] = {}
        self.stats = stats if stats is not None else StatRegistry()
        self._promote_signals = self.stats.counter("promotion.signals")

    def update(self, entry: CacheEntry) -> None:
        if self.policy.update(entry) and entry.lpn not in self.candidates:
            self.candidates[entry.lpn] = None
            self._promote_signals.add()

    def take_candidates(self) -> List[LPN]:
        """Drain queued promotion candidates (lpns), oldest first."""
        drained = list(self.candidates)
        self.candidates.clear()
        return drained

    @property
    def curr_threshold(self) -> int:
        return self.policy.curr_threshold
