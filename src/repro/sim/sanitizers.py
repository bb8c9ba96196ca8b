"""Runtime invariant sanitizers for the FlatFlash simulator.

The simulator's credibility rests on invariants the Python runtime never
checks on its own: simulated time is integer nanoseconds and never runs
backwards, NAND pages are erased before they are reprogrammed, DES locks
are released by their holder, and the byte-granular persistence path
(§3.5) orders posted MMIO writes behind a write-verify read before
anything is acknowledged as durable.  Each sanitizer here mirrors one of
those rule families at runtime, keeping an independent *shadow* copy of
the relevant state so that bugs which corrupt the primary state (or
bypass the public API) are still caught at the next operation:

* :class:`ClockSanitizer` — monotonic integer-ns time, no negative or
  float deltas, no tampering with the clock's internal state.
* :class:`FlashSanitizer` — program-before-erase, double-erase,
  erase-of-valid-data, and valid-page leaks across GC cycles.
* :class:`LockSanitizer` — release-by-non-holder, locks/slots still held
  at process exit, and deadlock detection via a wait-for-graph walk at
  block time (earlier than the scheduler's end-of-run check).
* :class:`PersistenceSanitizer` — a durable-write acknowledgement while
  posted persist writes are still unfenced, and persist-tagged requests
  routed to volatile DRAM.

Sanitizers are opt-in via :class:`SanitizerConfig` (a field of
``FlatFlashConfig``); the test suite enables them globally through
``tests/conftest.py`` so every tier-1 test doubles as an invariant test.
All sanitizer failures raise :class:`SanitizerError`, a ``RuntimeError``
subclass, so code that already guards against simulator-level
``RuntimeError`` keeps working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

#: Process-wide default for newly built :class:`SanitizerConfig` objects.
#: The conftest fixture flips this on for the whole test suite.
_DEFAULT_ENABLED = False


def set_default_enabled(enabled: bool) -> bool:
    """Set the process-wide sanitizer default; returns the previous value."""
    global _DEFAULT_ENABLED
    previous = _DEFAULT_ENABLED
    _DEFAULT_ENABLED = bool(enabled)
    return previous


def default_enabled() -> bool:
    """Current process-wide sanitizer default."""
    return _DEFAULT_ENABLED


class SanitizerError(RuntimeError):
    """An invariant violation detected by a runtime sanitizer."""


class ClockSanitizerError(SanitizerError):
    """Simulated time went backwards, drifted to float, or was tampered with."""


class FlashSanitizerError(SanitizerError):
    """NAND state-machine violation (program/erase/invalidate ordering)."""


class LockSanitizerError(SanitizerError):
    """DES lock discipline violation (bad release, leak, or deadlock)."""


class PersistenceSanitizerError(SanitizerError):
    """Durability protocol violation on the byte-granular persistence path."""


@dataclass
class SanitizerConfig:
    """Which runtime sanitizers a simulator instance should run.

    The zero-argument constructor leaves everything off; use
    :meth:`from_default` (what ``FlatFlashConfig`` does) to inherit the
    process-wide default set by the test suite's conftest.
    """

    flash: bool = False
    clock: bool = False
    lock: bool = False
    persistence: bool = False

    @classmethod
    def from_default(cls) -> "SanitizerConfig":
        enabled = default_enabled()
        return cls(flash=enabled, clock=enabled, lock=enabled, persistence=enabled)

    @classmethod
    def all(cls) -> "SanitizerConfig":
        return cls(flash=True, clock=True, lock=True, persistence=True)

    def any_enabled(self) -> bool:
        return self.flash or self.clock or self.lock or self.persistence

    def validate(self) -> None:
        for name in ("flash", "clock", "lock", "persistence"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"sanitizer flag {name!r} must be a bool")


# --------------------------------------------------------------------- #
# Clock
# --------------------------------------------------------------------- #


class ClockSanitizer:
    """Shadow-checks a :class:`~repro.sim.clock.SimClock`.

    Beyond the clock's own negative-delta guard, the sanitizer rejects
    non-integer deltas (float drift silently truncates under ``int()``)
    and detects external tampering by comparing the clock's claimed
    current time against an independently accumulated shadow.
    """

    __slots__ = ("_shadow_now",)

    def __init__(self) -> None:
        self._shadow_now: Optional[int] = None

    def on_start(self, start_ns: int) -> None:
        self._check_integral("start time", start_ns)
        self._shadow_now = int(start_ns)

    def _check_integral(self, what: str, value: object) -> None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ClockSanitizerError(
                f"clock {what} must be an integer nanosecond count, got "
                f"{value!r} ({type(value).__name__}); float latencies drift "
                f"and silently truncate"
            )

    def _check_shadow(self, claimed_now: int) -> None:
        if self._shadow_now is None:
            self._shadow_now = int(claimed_now)
        elif claimed_now != self._shadow_now:
            raise ClockSanitizerError(
                f"clock state tampered with: clock reports t={claimed_now}ns "
                f"but the sanitizer shadow expected t={self._shadow_now}ns"
            )

    def on_advance(self, claimed_now: int, delta_ns: object) -> None:
        self._check_integral("advance delta", delta_ns)
        assert isinstance(delta_ns, int)
        if delta_ns < 0:
            raise ClockSanitizerError(
                f"clock advanced by negative delta {delta_ns}ns: simulated "
                f"time never runs backwards"
            )
        self._check_shadow(claimed_now)
        assert self._shadow_now is not None
        self._shadow_now += delta_ns


# --------------------------------------------------------------------- #
# Flash
# --------------------------------------------------------------------- #

#: NAND page-state codes: one byte per page, in both
#: ``FlashArray.page_state`` and the sanitizer's shadow.
PAGE_ERASED = 0
PAGE_PROGRAMMED = 1
PAGE_INVALID = 2

PAGE_STATE_NAMES = {
    PAGE_ERASED: "erased",
    PAGE_PROGRAMMED: "programmed",
    PAGE_INVALID: "invalid",
}


class FlashSanitizer:
    """Shadow NAND state machine for a :class:`~repro.ssd.flash.FlashArray`.

    Tracks every page's state independently of the array, so state
    corruption (e.g. code flipping ``FlashArray.page_state`` directly) is
    caught on the next program/erase/invalidate, and GC accounting leaks
    are caught by :meth:`check_accounting`.
    """

    __slots__ = ("_states", "_pages_per_block", "_num_blocks", "_valid_pages", "_erased_clean")

    def __init__(self) -> None:
        self._states = bytearray()
        self._pages_per_block = 0
        self._num_blocks = 0
        self._valid_pages = 0
        # Blocks erased by an erase() op and not programmed since: a second
        # erase of such a block burns a program/erase cycle for nothing.
        self._erased_clean: Set[int] = set()

    def attach(self, num_blocks: int, pages_per_block: int) -> None:
        self._num_blocks = num_blocks
        self._pages_per_block = pages_per_block
        self._states = bytearray(num_blocks * pages_per_block)
        self._valid_pages = 0
        self._erased_clean.clear()

    @property
    def valid_pages(self) -> int:
        return self._valid_pages

    def _state_name(self, ppn: int) -> str:
        return PAGE_STATE_NAMES[self._states[ppn]]

    def on_program(self, ppn: int) -> None:
        if self._states[ppn] != PAGE_ERASED:
            raise FlashSanitizerError(
                f"program to non-erased page ppn={ppn} "
                f"(block {ppn // self._pages_per_block}, shadow state "
                f"{self._state_name(ppn)}): NAND pages must be erased before "
                f"reprogramming"
            )
        self._states[ppn] = PAGE_PROGRAMMED
        self._valid_pages += 1
        self._erased_clean.discard(ppn // self._pages_per_block)

    def on_invalidate(self, ppn: int) -> None:
        if self._states[ppn] != PAGE_PROGRAMMED:
            raise FlashSanitizerError(
                f"invalidate of non-programmed page ppn={ppn} (shadow state "
                f"{self._state_name(ppn)})"
            )
        self._states[ppn] = PAGE_INVALID
        self._valid_pages -= 1

    def on_erase(self, block_index: int) -> None:
        first = block_index * self._pages_per_block
        block_states = self._states[first : first + self._pages_per_block]
        valid = sum(1 for s in block_states if s == PAGE_PROGRAMMED)
        if valid:
            raise FlashSanitizerError(
                f"erase of block {block_index} would destroy {valid} valid "
                f"(programmed) pages: GC must relocate them first"
            )
        if block_index in self._erased_clean:
            raise FlashSanitizerError(
                f"double erase of block {block_index}: the block was already "
                f"erased and nothing was programmed since — this burns a "
                f"program/erase cycle for nothing"
            )
        for offset in range(self._pages_per_block):
            self._states[first + offset] = PAGE_ERASED
        self._erased_clean.add(block_index)

    def on_program_fail(self, ppn: int) -> None:
        """An injected program failure burned the page (it was announced via
        :meth:`on_program` first, so the shadow holds PROGRAMMED)."""
        if self._states[ppn] != PAGE_PROGRAMMED:
            raise FlashSanitizerError(
                f"program-fail on page ppn={ppn} whose shadow state is "
                f"{self._state_name(ppn)}, not programmed: fault hooks must "
                f"follow the announced program"
            )
        self._states[ppn] = PAGE_INVALID
        self._valid_pages -= 1

    def on_erase_fail(self, block_index: int) -> None:
        """An injected erase failure retired the block as bad.  Its shadow
        pages become INVALID — safe because a bad block is never programmed
        or erased again, and accounting only counts PROGRAMMED pages."""
        first = block_index * self._pages_per_block
        for offset in range(self._pages_per_block):
            self._states[first + offset] = PAGE_INVALID
        self._erased_clean.discard(block_index)

    def resync(self, states: bytes) -> None:
        """Rebuild the shadow from the array's page-state table after a
        power-loss image restore."""
        if len(states) != self._num_blocks * self._pages_per_block:
            raise FlashSanitizerError(
                f"resync with {len(states)} page states, expected "
                f"{self._num_blocks * self._pages_per_block}"
            )
        self._states = bytearray(states)
        self._valid_pages = self._states.count(PAGE_PROGRAMMED)
        self._erased_clean.clear()

    def check_accounting(self, mapped_pages: int, context: str = "") -> None:
        """Valid (programmed) pages must equal live FTL mappings.

        Every programmed page should be referenced by exactly one logical
        mapping; a mismatch after GC means pages leaked (relocated but not
        invalidated) or mappings dangle (invalidated but still mapped).
        """
        if self._valid_pages != mapped_pages:
            where = f" after {context}" if context else ""
            raise FlashSanitizerError(
                f"valid-page leak{where}: flash holds {self._valid_pages} "
                f"programmed pages but the FTL maps {mapped_pages} logical "
                f"pages"
            )


# --------------------------------------------------------------------- #
# Locks
# --------------------------------------------------------------------- #


class LockSanitizer:
    """Shadow lock-discipline checks for :class:`~repro.sim.des.Simulator`.

    Tracks which process holds which lock/semaphore slot, which process
    waits on what, and walks the wait-for graph at block time so lock
    deadlocks surface at the blocking acquire instead of at the end of
    the run.
    """

    __slots__ = ("_held", "_slots", "_waiting")

    def __init__(self) -> None:
        # pid -> set of Lock objects held (by identity).
        self._held: Dict[int, Set[object]] = {}
        # pid -> count of semaphore slots held, per semaphore.
        self._slots: Dict[int, Dict[object, int]] = {}
        # pid -> the Lock/Semaphore it is currently blocked on.
        self._waiting: Dict[int, object] = {}

    def on_acquired(self, pid: int, lock: object) -> None:
        """A process was granted a lock (immediately or by hand-off)."""
        self._waiting.pop(pid, None)
        held = self._held.setdefault(pid, set())
        if lock in held:
            name = getattr(lock, "name", repr(lock))
            raise LockSanitizerError(
                f"process {pid} re-acquired lock {name!r} it already holds"
            )
        held.add(lock)

    def on_released(self, pid: int, lock: object) -> None:
        held = self._held.get(pid, set())
        if lock not in held:
            name = getattr(lock, "name", repr(lock))
            holder = next(
                (p for p, locks in self._held.items() if lock in locks), None
            )
            raise LockSanitizerError(
                f"process {pid} released lock {name!r} it does not hold "
                f"(held by {holder})"
            )
        held.discard(lock)

    def on_slot_acquired(self, pid: int, semaphore: object) -> None:
        self._waiting.pop(pid, None)
        slots = self._slots.setdefault(pid, {})
        slots[semaphore] = slots.get(semaphore, 0) + 1

    def on_slot_released(self, pid: int, semaphore: object) -> None:
        slots = self._slots.get(pid, {})
        if slots.get(semaphore, 0) <= 0:
            name = getattr(semaphore, "name", repr(semaphore))
            raise LockSanitizerError(
                f"process {pid} released a slot of {name!r} without holding one"
            )
        slots[semaphore] -= 1

    def on_blocked(self, pid: int, primitive: object) -> None:
        """A process blocked; walk the wait-for graph for a lock cycle."""
        self._waiting[pid] = primitive
        chain: List[int] = [pid]
        current = primitive
        while True:
            holder = getattr(current, "holder", None)
            if holder is None:
                return  # semaphore or free lock: no single-holder edge
            if holder == pid:
                names = [
                    getattr(self._waiting[p], "name", "?")
                    for p in chain
                    if p in self._waiting
                ]
                raise LockSanitizerError(
                    f"deadlock: processes {chain} wait in a cycle on locks "
                    f"{names}"
                )
            if holder in chain:
                return  # cycle not through pid; the scheduler will report it
            chain.append(holder)
            current = self._waiting.get(holder)
            if current is None:
                return  # holder is runnable; it can still release

    def on_finished(self, pid: int) -> None:
        """Process exit: everything it held must have been released."""
        held = self._held.pop(pid, set())
        if held:
            names = sorted(getattr(lock, "name", repr(lock)) for lock in held)
            raise LockSanitizerError(
                f"process {pid} finished while still holding locks {names}: "
                f"a leaked lock leaves every waiter deadlocked"
            )
        slots = self._slots.pop(pid, {})
        leaked = {
            getattr(sem, "name", repr(sem)): count
            for sem, count in slots.items()
            if count > 0
        }
        if leaked:
            raise LockSanitizerError(
                f"process {pid} finished while still holding semaphore slots "
                f"{leaked}: leaked slots leave waiters deadlocked"
            )
        self._waiting.pop(pid, None)


# --------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------- #


class PersistenceSanitizer:
    """Durability-protocol checks for the byte-granular persistence path.

    The protocol (§3.5) is: posted persist writes reach the device only
    once an *ordering verify read* completes; only then may the store be
    acknowledged as durable.  The sanitizer counts posted persist writes
    since the last fence and rejects a durable acknowledgement while any
    are outstanding.  It also tracks link-level posted transactions
    (cleared by any non-posted read, the PCIe ordering rule) and flags
    persist-tagged requests that the host bridge routes to volatile DRAM.
    """

    __slots__ = ("_pending", "_pending_count", "_link_posted_lines", "_fences")

    #: How many outstanding persist writes to remember for diagnostics.
    MAX_PENDING_DETAIL = 16

    def __init__(self) -> None:
        self._pending: List[Tuple[int, int]] = []  # (lpn, offset), newest last
        self._pending_count = 0
        self._link_posted_lines = 0
        self._fences = 0

    @property
    def pending_persist_writes(self) -> int:
        return self._pending_count

    @property
    def link_posted_lines(self) -> int:
        return self._link_posted_lines

    @property
    def fences(self) -> int:
        return self._fences

    # Device-level protocol events ------------------------------------- #

    def on_persist_posted(self, lpn: int, offset: int) -> None:
        """A posted MMIO write with the P bit set entered the write path."""
        self._pending_count += 1
        self._pending.append((lpn, offset))
        if len(self._pending) > self.MAX_PENDING_DETAIL:
            del self._pending[0]

    def on_fence(self) -> None:
        """The write-verify read completed: earlier posted writes are durable."""
        self._fences += 1
        if self._link_posted_lines:
            raise PersistenceSanitizerError(
                f"write-verify fence completed with {self._link_posted_lines} "
                f"posted cache lines still unordered on the link: the fence "
                f"must be a non-posted read that flushes the posted queue"
            )
        self._pending.clear()
        self._pending_count = 0

    def on_crash(self) -> None:
        """Power failure: unfenced posted writes are legitimately lost."""
        self._pending.clear()
        self._pending_count = 0
        self._link_posted_lines = 0

    def ack_durable(self, what: str = "durable store") -> None:
        """A path is about to report data as durable; nothing may be unfenced."""
        if self._pending_count:
            lpn, offset = self._pending[-1]
            raise PersistenceSanitizerError(
                f"{what} acknowledged with {self._pending_count} posted "
                f"persist write(s) not yet ordered by a write-verify read "
                f"(most recent: lpn={lpn} offset={offset}); a crash here "
                f"would lose acknowledged data"
            )

    # Link-level events ------------------------------------------------- #

    def on_posted_tlp(self, lines: int) -> None:
        self._link_posted_lines += lines

    def on_ordering_read(self) -> None:
        # PCIe ordering: non-posted reads do not pass posted writes, so a
        # completed read implies every earlier posted write was delivered.
        self._link_posted_lines = 0

    # Host-bridge events ------------------------------------------------ #

    def on_persist_routed(self, target: str, page: int) -> None:
        """A persist-tagged request was routed; DRAM is not a durable domain."""
        if target == "dram":
            raise PersistenceSanitizerError(
                f"persist-tagged request routed to volatile DRAM frame "
                f"{page}: persist pages are pinned to the SSD (§3.5), host "
                f"DRAM is outside the durability domain"
            )
