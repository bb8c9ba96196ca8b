"""Seeded, deterministic fault plans and the cross-layer fault injector.

The simulator's fault model is *replayable by construction*: every fault
decision is a draw from a per-site ``numpy`` generator seeded with
``(plan seed, crc32(site name))``, so

* the same :class:`FaultConfig` always produces the same fault schedule,
  byte for byte, regardless of Python hash seeds or host;
* sites are independent streams — adding NAND traffic never perturbs
  which PCIe transactions fail, and vice versa;
* a campaign can pin exact fault *instants* via ``forced`` (site → the
  zero-based operation indices that must fail), which is how unit tests
  place a program failure on precisely the third program operation.

This module is deliberately leaf-level (stdlib + numpy only): it is
imported by ``repro.config`` and must not import anything above it.

Fault sites
-----------

======================================  =======================================
site                                    drawn on
======================================  =======================================
``nand.read``                           every flash page read (ECC bit error)
``nand.program``                        every flash page program (program fail)
``nand.erase``                          every block erase (erase fail → bad block)
``pcie.mmio_read.timeout`` / ``.corrupt``    every non-posted MMIO read
``pcie.mmio_write.timeout`` / ``.corrupt``   every posted MMIO write
======================================  =======================================

Power loss is *not* a probabilistic site: it is an armed deadline on the
simulated clock (see :mod:`repro.faults.power`), because "cut power at
instant T" must be exact to make crash-recovery sweeps meaningful.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np

#: Every site the injector draws for, in canonical report order.
FAULT_SITES: Tuple[str, ...] = (
    "nand.read",
    "nand.program",
    "nand.erase",
    "pcie.mmio_read.timeout",
    "pcie.mmio_read.corrupt",
    "pcie.mmio_write.timeout",
    "pcie.mmio_write.corrupt",
)


@dataclass
class FaultConfig:
    """Fault-injection knobs, carried by ``FlatFlashConfig.faults``.

    All rates default to 0.0 and ``forced`` to empty, which makes the
    injector inert: the device skips constructing one entirely, so a
    zero-fault run is bit-identical to a build without this subsystem.
    """

    #: Base seed of every per-site fault stream.
    seed: int = 0

    # NAND plane.
    nand_read_error_rate: float = 0.0
    nand_program_fail_rate: float = 0.0
    nand_erase_fail_rate: float = 0.0
    #: Erase count at which a block is retired as bad (0 = no wear limit).
    nand_wear_limit: int = 0
    #: ECC read retries before the FTL falls back to soft-decode recovery.
    ecc_max_retries: int = 3

    # PCIe plane.
    pcie_timeout_rate: float = 0.0
    pcie_corrupt_rate: float = 0.0
    #: Bounded MMIO retries in the host bridge before giving up on a access.
    mmio_max_retries: int = 3
    #: Exponential backoff: attempt ``k`` waits base * multiplier**k ns.
    mmio_backoff_base_ns: int = 2_000
    mmio_backoff_multiplier: int = 4
    #: Consecutive MMIO failures on one logical page before it is degraded
    #: to the block/DMA path permanently (promotion suppressed).
    mmio_degraded_threshold: int = 8

    #: Pinned fault schedule: site name -> zero-based op indices that fail
    #: unconditionally (tests and targeted campaigns).
    forced: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    def rate_of(self, site: str) -> float:
        if site.startswith("nand."):
            return {
                "nand.read": self.nand_read_error_rate,
                "nand.program": self.nand_program_fail_rate,
                "nand.erase": self.nand_erase_fail_rate,
            }[site]
        if site.endswith(".timeout"):
            return self.pcie_timeout_rate
        if site.endswith(".corrupt"):
            return self.pcie_corrupt_rate
        raise KeyError(f"unknown fault site {site!r}")

    @property
    def active(self) -> bool:
        """Whether any fault can ever fire under this configuration."""
        if self.nand_wear_limit > 0 or self.forced:
            return True
        return any(self.rate_of(site) > 0.0 for site in FAULT_SITES)

    def plan(self) -> "FaultPlan":
        """The normalized, replayable schedule this config denotes."""
        rates = {site: self.rate_of(site) for site in FAULT_SITES}
        forced = tuple(
            (site, tuple(sorted(set(int(i) for i in indices))))
            for site, indices in sorted(self.forced.items())
        )
        return FaultPlan(seed=self.seed, rates=rates, forced=forced)

    def validate(self) -> None:
        for name in (
            "nand_read_error_rate",
            "nand_program_fail_rate",
            "nand_erase_fail_rate",
            "pcie_timeout_rate",
            "pcie_corrupt_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate {name} must be in [0, 1], got {rate}")
        for name in ("nand_wear_limit", "ecc_max_retries", "mmio_max_retries",
                     "mmio_backoff_base_ns", "mmio_degraded_threshold"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"faults.{name} must be >= 0, got {value}")
        if self.mmio_backoff_multiplier < 1:
            raise ValueError(
                f"faults.mmio_backoff_multiplier must be >= 1, "
                f"got {self.mmio_backoff_multiplier}"
            )
        for site, indices in self.forced.items():
            if site not in FAULT_SITES:
                raise ValueError(
                    f"forced fault site {site!r} unknown "
                    f"(known sites: {', '.join(FAULT_SITES)})"
                )
            for index in indices:
                if index < 0:
                    raise ValueError(
                        f"forced fault index must be >= 0, got {index} at {site!r}"
                    )


@dataclass(frozen=True)
class FaultPlan:
    """The normalized seeded schedule a campaign is replayed from.

    Two runs with equal plans (and equal workloads) observe the same
    faults at the same operation indices — the byte-for-byte replay
    guarantee campaign reports rely on.
    """

    seed: int
    rates: Mapping[str, float]
    forced: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def to_dict(self) -> dict:
        """JSON-shaped form embedded in campaign reports."""
        return {
            "seed": self.seed,
            "rates": {site: self.rates[site] for site in FAULT_SITES},
            "forced": {site: list(indices) for site, indices in self.forced},
        }


@dataclass(frozen=True)
class FaultEvent:
    """One realized fault: which site fired on which operation index."""

    site: str
    index: int


def _site_stream_seed(seed: int, site: str) -> Tuple[int, int]:
    # crc32 gives each site a stable, collision-free-enough sub-seed so the
    # (seed, site) pair fully determines the stream — independent of every
    # other site's traffic volume.
    return (seed & 0xFFFFFFFF, zlib.crc32(site.encode("ascii")))


class FaultInjector:
    """Draws fault decisions from per-site seeded streams and logs them."""

    def __init__(self, config: FaultConfig) -> None:
        config.validate()
        self.config = config
        self.plan = config.plan()
        self._counts: Dict[str, int] = {site: 0 for site in FAULT_SITES}
        self._fired: Dict[str, int] = {site: 0 for site in FAULT_SITES}
        self._forced = {
            site: frozenset(indices) for site, indices in self.plan.forced
        }
        self._rngs: Dict[str, np.random.Generator] = {}
        #: Realized schedule, in firing order — equal across equal replays.
        self.events: List[FaultEvent] = []

    def _rng(self, site: str) -> np.random.Generator:
        rng = self._rngs.get(site)
        if rng is None:
            rng = np.random.default_rng(_site_stream_seed(self.config.seed, site))
            self._rngs[site] = rng
        return rng

    def fires(self, site: str) -> bool:
        """Advance the site's operation counter; True if this op faults."""
        index = self._counts[site]
        self._counts[site] = index + 1
        if index in self._forced.get(site, frozenset()):
            fired = True
        else:
            rate = self.config.rate_of(site)
            # Draw only when the site can fire: an all-zero-rate injector
            # never touches its RNGs, so enabling one fault plane does not
            # change any other plane's schedule.
            fired = rate > 0.0 and float(self._rng(site).random()) < rate
        if fired:
            self._fired[site] += 1
            self.events.append(FaultEvent(site, index))
        return fired

    def operations(self, site: str) -> int:
        """How many operations have been drawn for at a site."""
        return self._counts[site]

    def fired(self, site: str) -> int:
        """How many faults fired at a site."""
        return self._fired[site]

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-site operation/fired counts, in canonical site order."""
        return {
            site: {"operations": self._counts[site], "fired": self._fired[site]}
            for site in FAULT_SITES
        }
