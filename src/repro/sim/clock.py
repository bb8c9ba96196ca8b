"""A simulated nanosecond clock.

Every component of the FlatFlash simulator charges time to a :class:`SimClock`
instead of sleeping or measuring wall time.  A single-threaded workload owns
one clock and advances it on every memory access; the discrete-event simulator
(:mod:`repro.sim.des`) drives many logical threads against one clock.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.sanitizers import ClockSanitizer


class PowerLossTriggered(Exception):
    """Raised by the clock when simulated time reaches an armed power-loss
    deadline (see :mod:`repro.faults.power`).  The access that crossed the
    deadline never completes — the exception unwinds to the injection
    harness, which applies crash semantics and restarts the system."""

    def __init__(self, at_ns: int) -> None:
        super().__init__(f"power loss at t={at_ns}ns")
        self.at_ns = at_ns


class SimClock:
    """Monotonically non-decreasing simulated time in nanoseconds."""

    __slots__ = ("_now", "_sanitizer", "_power_deadline")

    def __init__(
        self, start_ns: int = 0, sanitizer: Optional[ClockSanitizer] = None
    ) -> None:
        if start_ns < 0:
            raise ValueError(f"clock cannot start at negative time: {start_ns}")
        self._sanitizer = sanitizer
        if sanitizer is not None:
            sanitizer.on_start(start_ns)
        self._now = int(start_ns)
        self._power_deadline: Optional[int] = None

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    def advance(self, delta_ns: int) -> int:
        """Move time forward by ``delta_ns`` and return the new time.

        Negative deltas are rejected: simulated time never runs backwards.
        """
        if self._sanitizer is not None:
            self._sanitizer.on_advance(self._now, delta_ns)
        delta = int(delta_ns)
        if delta < 0:
            raise ValueError(f"cannot advance clock by negative delta: {delta}")
        self._now += delta
        self._check_power_deadline()
        return self._now

    # ------------------------------------------------------------------ #
    # Power-loss deadline (repro.faults.power)
    # ------------------------------------------------------------------ #

    def arm_power_loss(self, at_ns: int) -> None:
        """Raise :class:`PowerLossTriggered` once time reaches ``at_ns``.

        The operation whose time charge crosses the deadline is the one
        interrupted; an already-passed deadline fires on the next advance.
        """
        if at_ns < 0:
            raise ValueError(f"power-loss deadline must be >= 0, got {at_ns}")
        self._power_deadline = int(at_ns)

    def disarm_power_loss(self) -> None:
        self._power_deadline = None

    @property
    def power_deadline(self) -> Optional[int]:
        return self._power_deadline

    def _check_power_deadline(self) -> None:
        deadline = self._power_deadline
        if deadline is not None and self._now >= deadline:
            # Disarm first: crash handling on the dying system may still
            # touch the clock and must not re-trigger.
            self._power_deadline = None
            raise PowerLossTriggered(deadline)

    def __repr__(self) -> str:
        return f"SimClock(now={self._now}ns)"
