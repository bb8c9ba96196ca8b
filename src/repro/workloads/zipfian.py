"""Skewed key distributions for the YCSB workloads (§5.4).

YCSB workloads B and D issue requests with a Zipfian distribution; D uses
the *latest* variant that skews toward recently inserted records.  These
are the two key distributions :mod:`repro.workloads.ycsb` draws from.  The
generators here follow the YCSB definitions (Gray et al.'s rejection-free
Zipfian via the precomputed CDF) with numpy vectorization: a ``count``-key
draw returns the same keys as ``count`` one-key draws, so the YCSB op
stream is drawn in one pass, and its ``generate_ops`` iterates the same
arrays its ``compile_trace`` packs.
"""

from __future__ import annotations

import numpy as np

DEFAULT_THETA = 0.99  # YCSB's default Zipfian constant


class ZipfianGenerator:
    """Samples integers in [0, n) with P(i) proportional to 1/(i+1)^theta."""

    def __init__(self, n: int, theta: float = DEFAULT_THETA, seed: int = 1) -> None:
        if n <= 0:
            raise ValueError(f"n must be > 0, got {n}")
        if theta <= 0.0 or theta >= 1.0:
            # theta = 1 diverges with the closed form; YCSB uses 0.99.
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.n = n
        self.theta = theta
        self._rng = np.random.default_rng(seed)
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), theta)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        # The scatter multiplier.  Knuth's constant is prime, so its residue
        # is coprime with every n below it and the permutation is a bijection.
        self._multiplier = 2654435761 % n

    def sample(self, count: int = 1) -> np.ndarray:
        """Draw ``count`` skewed ranks (0 is the hottest)."""
        if count <= 0:
            raise ValueError(f"count must be > 0, got {count}")
        uniform = self._rng.random(count)
        return np.searchsorted(self._cdf, uniform, side="left")

    def sample_scattered(self, count: int = 1) -> np.ndarray:
        """Skewed ranks scrambled over the key space (hot keys spread out),
        matching YCSB's hashed item ordering."""
        # A fixed affine permutation scatters hot ranks across [0, n).
        return (self.sample(count) * self._multiplier + 17) % self.n


class LatestGenerator:
    """YCSB's 'latest' distribution: skewed toward the newest records.

    Used by workload D (read latest): ranks are Zipfian distances from the
    most recently inserted key.
    """

    def __init__(self, initial_count: int, theta: float = DEFAULT_THETA, seed: int = 2) -> None:
        if initial_count <= 0:
            raise ValueError(f"initial_count must be > 0, got {initial_count}")
        self.count = initial_count
        self._zipf = ZipfianGenerator(initial_count, theta, seed)

    def record_insert(self) -> int:
        """A new record was inserted; returns its key."""
        key = self.count
        self.count += 1
        return key

    def sample(self, batch: int = 1) -> np.ndarray:
        """Keys skewed toward the most recent insert."""
        distances = self._zipf.sample(batch)
        keys = (self.count - 1) - distances
        return np.maximum(keys, 0)
