"""Dynamic concurrency checking for the DES: access recording and
schedule perturbation.

Together with the :class:`~repro.sim.sanitizers.LockSanitizer` (a lock
held when its process finishes, a lock-order cycle at block time) this is
the repo's race checking; there is no static counterpart.  Two
independent mechanisms:

* **Access recorder** (:class:`AccessRecorder`) — while a recorder is
  installed, every instrumented shared-state mutation (the stats
  primitives hook themselves in; components may call :func:`note_read` /
  :func:`note_write` directly) is logged as
  ``(pid, lockset, object, attr, op)`` using the lockset the scheduler
  reports for the running process.  :meth:`AccessRecorder.conflicts`
  then applies the Eraser lockset algorithm: for each ``(object, attr)``
  the candidate lockset is the intersection of the locksets of all
  accesses; a location touched by two or more processes, with at least
  one write, whose candidate lockset is empty, is a potential race.
* **Schedule perturbation** (:func:`run_perturbed`) — replays a scenario
  under N seeded tie-break schedules (see ``Simulator(seed=...)``) and
  diffs the final stats snapshots.  A schedule-*independent* result is
  byte-identical across seeds; any diff pinpoints a stat whose value
  depends on the interleaving of same-timestamp events.

The module deliberately imports nothing from the rest of the simulator,
so both :mod:`repro.sim.des` and :mod:`repro.sim.stats` can import it
without cycles.  When no recorder is installed the per-access overhead
is one module-attribute load and a ``None`` check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

#: The installed recorder, or None.  Kept as a module global so the
#: hot-path check in the stats primitives is as cheap as possible.
_ACTIVE: Optional["AccessRecorder"] = None


def install(recorder: Optional["AccessRecorder"]) -> Optional["AccessRecorder"]:
    """Install (or, with None, remove) the active recorder; returns the
    previously installed one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    return previous


def active() -> Optional["AccessRecorder"]:
    """The currently installed recorder, if any."""
    return _ACTIVE


def note_read(obj: object, attr: str) -> None:
    """Record a read of ``obj.attr`` by the currently running process."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.note(obj, attr, "r")


def note_write(obj: object, attr: str) -> None:
    """Record a write of ``obj.attr`` by the currently running process."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.note(obj, attr, "w")


@dataclass(frozen=True)
class AccessRecord:
    """One logged shared-state access."""

    pid: int
    lockset: FrozenSet[str]
    obj: str
    attr: str
    op: str  # "r" | "w"


@dataclass(frozen=True)
class RaceReport:
    """One Eraser-style lockset violation: conflicting accesses with an
    empty candidate lockset."""

    obj: str
    attr: str
    pids: Tuple[int, ...]
    writes: int
    reads: int

    def describe(self) -> str:
        return (
            f"{self.obj}.{self.attr}: {self.writes} write(s) / "
            f"{self.reads} read(s) from processes {list(self.pids)} with an "
            f"empty candidate lockset"
        )


class AccessRecorder:
    """Logs (pid, lockset, object, attr, op) tuples between yields.

    The scheduler (``Simulator``) sets the running process and its held
    locks through :meth:`set_context`; instrumented code calls
    :meth:`note`.  Objects are named by explicit :meth:`register` calls,
    falling back to the object's own ``name`` attribute (the stats
    primitives all have one), so reports are deterministic across runs.
    """

    def __init__(self) -> None:
        self.records: List[AccessRecord] = []
        self._names: Dict[int, str] = {}
        # Keep registered objects alive so id() keys cannot be reused.
        self._registered: List[object] = []
        self._pid: Optional[int] = None
        self._locks: FrozenSet[str] = frozenset()

    # -- wiring --------------------------------------------------------- #

    def register(self, obj: object, name: str) -> None:
        """Give ``obj`` a stable name in reports."""
        self._names[id(obj)] = name
        self._registered.append(obj)

    def set_context(self, pid: Optional[int], locks: FrozenSet[str]) -> None:
        """Called by the scheduler when a process slice starts/ends and
        whenever the running process's lockset changes."""
        self._pid = pid
        self._locks = locks

    # -- recording ------------------------------------------------------ #

    def name_of(self, obj: object) -> str:
        name = self._names.get(id(obj))
        if name is not None:
            return name
        own = getattr(obj, "name", None)
        if isinstance(own, str):
            return own
        return f"<{type(obj).__name__}>"

    def note(self, obj: object, attr: str, op: str) -> None:
        if self._pid is None:
            return  # access from outside any process slice
        self.records.append(
            AccessRecord(self._pid, self._locks, self.name_of(obj), attr, op)
        )

    # -- analysis ------------------------------------------------------- #

    def conflicts(self) -> List[RaceReport]:
        """Eraser lockset pass over the recorded accesses."""
        candidate: Dict[Tuple[str, str], FrozenSet[str]] = {}
        pids: Dict[Tuple[str, str], set] = {}
        writes: Dict[Tuple[str, str], int] = {}
        reads: Dict[Tuple[str, str], int] = {}
        for record in self.records:
            key = (record.obj, record.attr)
            if key in candidate:
                candidate[key] &= record.lockset
            else:
                candidate[key] = record.lockset
            pids.setdefault(key, set()).add(record.pid)
            if record.op == "w":
                writes[key] = writes.get(key, 0) + 1
            else:
                reads[key] = reads.get(key, 0) + 1
        reports = []
        for key, lockset in sorted(candidate.items()):
            if lockset or len(pids[key]) < 2 or not writes.get(key):
                continue
            reports.append(
                RaceReport(
                    obj=key[0],
                    attr=key[1],
                    pids=tuple(sorted(pids[key])),
                    writes=writes.get(key, 0),
                    reads=reads.get(key, 0),
                )
            )
        return reports


# --------------------------------------------------------------------- #
# Schedule perturbation
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SnapshotDiff:
    """One stat that differed from the baseline under a perturbed schedule."""

    seed: int
    key: str
    baseline: object
    perturbed: object


@dataclass
class PerturbationReport:
    """Outcome of :func:`run_perturbed`."""

    seeds: List[int]
    baseline: Dict[str, object]
    diffs: List[SnapshotDiff] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        """True when every perturbed snapshot matched the baseline."""
        return not self.diffs

    def format(self) -> str:
        if self.identical:
            return (
                f"schedule-independent: {len(self.baseline)} stat(s) "
                f"byte-identical across {len(self.seeds)} perturbed schedule(s)"
            )
        lines = [
            f"schedule-DEPENDENT: {len(self.diffs)} diff(s) across "
            f"{len(self.seeds)} perturbed schedule(s):"
        ]
        for diff in self.diffs:
            lines.append(
                f"  seed={diff.seed} {diff.key}: "
                f"baseline={diff.baseline!r} perturbed={diff.perturbed!r}"
            )
        return "\n".join(lines)


#: A scenario takes a schedule seed (None = default FIFO order) and
#: returns a flat stats snapshot to compare.
Scenario = Callable[[Optional[int]], Mapping[str, object]]

_MISSING = "<missing>"


def run_perturbed(scenario: Scenario, seeds: int = 5) -> PerturbationReport:
    """Replay ``scenario`` under ``seeds`` perturbed schedules and diff
    the snapshots against the unperturbed (FIFO) baseline."""
    if seeds <= 0:
        raise ValueError(f"seeds must be > 0, got {seeds}")
    baseline = dict(scenario(None))
    report = PerturbationReport(seeds=list(range(1, seeds + 1)), baseline=baseline)
    for seed in report.seeds:
        perturbed = dict(scenario(seed))
        for key in sorted(set(baseline) | set(perturbed)):
            base_value = baseline.get(key, _MISSING)
            new_value = perturbed.get(key, _MISSING)
            if base_value != new_value:
                report.diffs.append(SnapshotDiff(seed, key, base_value, new_value))
    return report
