"""SSD lifetime accounting (Table 1's lifetime column).

Flash wears out with program/erase cycles, so lifetime is inversely
proportional to the pages programmed for the same useful work.  FlatFlash
reduces programs two ways: byte-granular access avoids moving whole pages
whose lines were barely used, and byte-granular persistence avoids
journaling/COW write amplification.  The improvement factor reported in
Table 1 is simply ``programs(baseline) / programs(flatflash)`` for the
same workload.
"""

from __future__ import annotations

from repro.core.memory_system import MemorySystem


def flash_programs(system: MemorySystem) -> int:
    """Pages programmed into flash by a run on this system."""
    device = getattr(system, "ssd", None)
    if device is None:
        return 0
    return device.flash.total_programs


def write_amplification(system: MemorySystem) -> float:
    """Flash pages programmed per host-initiated page write (>= 1.0)."""
    device = getattr(system, "ssd", None)
    if device is None:
        return 0.0
    return device.ftl.write_amplification


def lifetime_improvement(baseline: MemorySystem, flatflash: MemorySystem) -> float:
    """Relative SSD lifetime: baseline programs / FlatFlash programs.

    Values > 1 mean FlatFlash wears the SSD more slowly for the same work.
    Returns 1.0 when FlatFlash wrote nothing (both idle) to avoid division
    blow-ups on read-only workloads.
    """
    baseline_programs = flash_programs(baseline)
    flatflash_programs = flash_programs(flatflash)
    if flatflash_programs == 0:
        return 1.0 if baseline_programs == 0 else float(baseline_programs)
    return baseline_programs / flatflash_programs
