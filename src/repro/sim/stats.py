"""Statistics collection for the simulator.

Three small primitives cover everything the evaluation needs:

* :class:`Counter` — monotone event counts (page faults, promotions, bytes).
* :class:`LatencyStats` — per-operation latency samples with mean and
  percentile queries (Figures 8, 11 and 12 report means and p99s).
* :class:`RatioStat` — hit/miss style ratios (SSD-Cache hit ratio in Fig. 12).

A :class:`StatRegistry` groups them so a memory system can expose one
``stats`` object that experiments snapshot and diff.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from repro.sim import race


class Counter:
    """A named monotone counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        if race._ACTIVE is not None:
            race._ACTIVE.note(self, "value", "w")
        self.value += amount

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class RatioStat:
    """Tracks hits out of total trials (e.g. cache hit ratio)."""

    __slots__ = ("name", "hits", "total")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.total = 0

    def record(self, hit: bool) -> None:
        if race._ACTIVE is not None:
            race._ACTIVE.note(self, "total", "w")
        self.total += 1
        if hit:
            self.hits += 1

    def record_batch(self, hits: int, total: int) -> None:
        """Record ``hits`` hits out of ``total`` trials in one update.

        Equivalent to ``total`` calls to :meth:`record` — both fields
        are commutative sums.  Used by the replay engine's stat flush.
        """
        if hits < 0 or total < hits:
            raise ValueError(
                f"need 0 <= hits <= total on {self.name!r}, got {hits}/{total}"
            )
        if total == 0:
            return
        if race._ACTIVE is not None:
            race._ACTIVE.note(self, "total", "w")
        self.total += total
        self.hits += hits

    @property
    def misses(self) -> int:
        return self.total - self.hits

    @property
    def ratio(self) -> float:
        """Hit ratio in [0, 1]; 0.0 when nothing was recorded."""
        if self.total == 0:
            return 0.0
        return self.hits / self.total

    def __repr__(self) -> str:
        return f"RatioStat({self.name}: {self.hits}/{self.total})"


class LatencyStats:
    """Latency samples in nanoseconds with summary queries.

    Samples are kept raw (a Python list of ints).  The evaluation workloads
    issue at most a few million operations, so raw retention is affordable
    and keeps percentile math exact.  ``keep_samples=False`` switches to a
    streaming mean/min/max mode for very long sweeps.
    """

    def __init__(self, name: str, keep_samples: bool = True) -> None:
        self.name = name
        self.keep_samples = keep_samples
        self._samples: List[int] = []
        self._count = 0
        self._sum = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None

    def record(self, latency_ns: int) -> None:
        latency = int(latency_ns)
        if latency < 0:
            raise ValueError(f"negative latency recorded on {self.name!r}: {latency}")
        if race._ACTIVE is not None:
            race._ACTIVE.note(self, "_count", "w")
        self._count += 1
        self._sum += latency
        if self._min is None or latency < self._min:
            self._min = latency
        if self._max is None or latency > self._max:
            self._max = latency
        if self.keep_samples:
            self._samples.append(latency)

    def extend(self, latencies: Iterable[int]) -> None:
        """Record every sample in one update.

        Equivalent to one :meth:`record` per sample, except that a
        negative sample raises before any sample is recorded.
        """
        values = [int(latency) for latency in latencies]
        if not values:
            return
        low = min(values)
        if low < 0:
            raise ValueError(f"negative latency recorded on {self.name!r}: {low}")
        if race._ACTIVE is not None:
            race._ACTIVE.note(self, "_count", "w")
        self._count += len(values)
        self._sum += sum(values)
        if self._min is None or low < self._min:
            self._min = low
        high = max(values)
        if self._max is None or high > self._max:
            self._max = high
        if self.keep_samples:
            self._samples.extend(values)

    def record_batch(self, latency_ns: int, count: int) -> None:
        """Record ``count`` identical samples in one update.

        Equivalent to ``count`` calls to :meth:`record` — the summary
        fields are commutative, so batched recording is exact.  Used by
        the replay engine (repro.engine) to flush per-value tallies.
        """
        if count < 0:
            raise ValueError(f"negative batch count on {self.name!r}: {count}")
        if count == 0:
            return
        latency = int(latency_ns)
        if latency < 0:
            raise ValueError(f"negative latency recorded on {self.name!r}: {latency}")
        if race._ACTIVE is not None:
            race._ACTIVE.note(self, "_count", "w")
        self._count += count
        self._sum += latency * count
        if self._min is None or latency < self._min:
            self._min = latency
        if self._max is None or latency > self._max:
            self._max = latency
        if self.keep_samples:
            self._samples.extend([latency] * count)

    @property
    def samples(self) -> List[int]:
        """Raw retained samples (copy); empty in streaming mode."""
        return list(self._samples)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> int:
        return self._sum

    @property
    def mean(self) -> float:
        if self._count == 0:
            return 0.0
        return self._sum / self._count

    @property
    def minimum(self) -> int:
        if self._min is None:
            raise ValueError(f"no samples recorded on {self.name!r}")
        return self._min

    @property
    def maximum(self) -> int:
        if self._max is None:
            raise ValueError(f"no samples recorded on {self.name!r}")
        return self._max

    def percentile(self, pct: float) -> int:
        """Exact percentile (nearest-rank) over retained samples."""
        if not self.keep_samples:
            raise ValueError(f"{self.name!r} does not retain samples")
        if not self._samples:
            raise ValueError(f"no samples recorded on {self.name!r}")
        if not 0.0 < pct <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {pct}")
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def p50(self) -> int:
        return self.percentile(50.0)

    @property
    def p99(self) -> int:
        return self.percentile(99.0)

    def __repr__(self) -> str:
        return f"LatencyStats({self.name}: n={self._count}, mean={self.mean:.1f}ns)"


class Histogram:
    """A log2-bucketed latency histogram for CDF-style reporting.

    Buckets double in width (0-1 us, 1-2 us, 2-4 us, ...), which matches
    how the evaluation's latency plots read: most mass near DRAM/cache
    latencies, a tail at flash latencies.
    """

    def __init__(self, name: str, base_ns: int = 1_000, num_buckets: int = 20) -> None:
        if base_ns <= 0:
            raise ValueError(f"base_ns must be > 0, got {base_ns}")
        if num_buckets <= 1:
            raise ValueError(f"num_buckets must be > 1, got {num_buckets}")
        self.name = name
        self.base_ns = base_ns
        self.buckets = [0] * num_buckets
        self.count = 0

    def bucket_of(self, latency_ns: int) -> int:
        if latency_ns < 0:
            raise ValueError(f"negative latency: {latency_ns}")
        bucket = 0
        bound = self.base_ns
        while latency_ns >= bound and bucket < len(self.buckets) - 1:
            bound *= 2
            bucket += 1
        return bucket

    def bucket_bound_ns(self, bucket: int) -> int:
        """Upper bound of a bucket (inclusive of everything below it)."""
        return self.base_ns * (2**bucket)

    def record(self, latency_ns: int) -> None:
        if race._ACTIVE is not None:
            race._ACTIVE.note(self, "buckets", "w")
        self.buckets[self.bucket_of(latency_ns)] += 1
        self.count += 1

    def extend(self, latencies: Iterable[int]) -> None:
        for latency in latencies:
            self.record(latency)

    def cdf(self) -> List[float]:
        """Cumulative fraction at each bucket's upper bound."""
        if self.count == 0:
            return [0.0] * len(self.buckets)
        total = 0
        out = []
        for value in self.buckets:
            total += value
            out.append(total / self.count)
        return out

    def quantile_bound_ns(self, fraction: float) -> int:
        """Upper bound of the first bucket whose CDF reaches ``fraction``."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        for bucket, cumulative in enumerate(self.cdf()):
            if cumulative >= fraction:
                return self.bucket_bound_ns(bucket)
        return self.bucket_bound_ns(len(self.buckets) - 1)

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count})"


class StatRegistry:
    """A named collection of counters, ratios and latency stats.

    Components create their stats through the registry so experiments can
    snapshot everything at once (``as_dict``) and reset between phases.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._ratios: Dict[str, RatioStat] = {}
        self._latencies: Dict[str, LatencyStats] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def ratio(self, name: str) -> RatioStat:
        if name not in self._ratios:
            self._ratios[name] = RatioStat(name)
        return self._ratios[name]

    def latency(self, name: str, keep_samples: bool = True) -> LatencyStats:
        if name not in self._latencies:
            self._latencies[name] = LatencyStats(name, keep_samples=keep_samples)
        return self._latencies[name]

    def counters(self) -> Dict[str, int]:
        return {name: c.value for name, c in self._counters.items()}

    def as_dict(self) -> Dict[str, float]:
        """Flat snapshot of every stat, for experiment reporting."""
        snapshot: Dict[str, float] = {}
        for name, counter in self._counters.items():
            snapshot[name] = counter.value
        for name, ratio in self._ratios.items():
            snapshot[f"{name}.ratio"] = ratio.ratio
            snapshot[f"{name}.total"] = ratio.total
        for name, lat in self._latencies.items():
            snapshot[f"{name}.count"] = lat.count
            snapshot[f"{name}.mean_ns"] = lat.mean
        return snapshot

    def snapshot(self) -> Dict[str, float]:
        """Key-sorted :meth:`as_dict`, for byte-identical schedule diffs."""
        flat = self.as_dict()
        return {key: flat[key] for key in sorted(flat)}

    def register_shared(self, recorder: "race.AccessRecorder", prefix: str = "") -> None:
        """Name every stat primitive for the dynamic access recorder."""
        for name, counter in self._counters.items():
            recorder.register(counter, f"{prefix}{name}")
        for name, ratio in self._ratios.items():
            recorder.register(ratio, f"{prefix}{name}")
        for name, lat in self._latencies.items():
            recorder.register(lat, f"{prefix}{name}")
