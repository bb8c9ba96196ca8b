"""Declared effect contracts for the batch-compilation gate.

ROADMAP item 1 wants to hoist the hot PTE/TLB/PLB walk out of the
per-access interpreter loop into trace-compiled, batched replay kernels.
That refactor is only sound for functions whose side effects are limited
to *vectorizable* state updates — scatter stores into model state and
counter aggregation.  Anything coupled to the simulated timeline (clock
reads or advances, DES yields), to stochastic streams (RNG, fault-plane
hooks) or to durability (flash programs) must stay in the event loop.

This module provides the two decorators through which hot-path functions
*declare* their contract; :mod:`repro.analysis.simeffect` checks the
declarations against an interprocedural effect inference and, on
request, writes a kernel-eligibility report.

At run time both decorators are no-ops that attach metadata attributes —
they add zero overhead to the access path and are read reflectively by
tests and tooling only.  The static analyzer recognises them
syntactically, so contracts work even on code that is never imported.

Effect vocabulary (the simeffect lattice):

==================  =====================================================
effect              meaning
==================  =====================================================
``READS_CLOCK``     reads the simulated clock (``SimClock.now`` family)
``ADVANCES_CLOCK``  moves simulated time forward
``YIELDS``          yields DES commands (cooperative scheduling point)
``RNG``             draws from a random stream
``MUTATES_STATS``   updates stats primitives (counters, ratios, latits)
``MUTATES_STATE``   writes model state (attributes, containers, globals)
``PERSISTS``        programs/erases flash (durability side effect)
``FAULT_HOOK``      consults the fault-injection plane
==================  =====================================================

``MUTATES_STATE`` and ``MUTATES_STATS`` are the *kernel-safe* subset:
state scatter and counter aggregation vectorize; the rest do not.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, TypeVar

__all__ = ["EFFECTS", "KERNEL_SAFE_EFFECTS", "kernel", "effects"]

#: Every effect name in the simeffect lattice (PURE is the empty set).
EFFECTS = frozenset(
    {
        "READS_CLOCK",
        "ADVANCES_CLOCK",
        "YIELDS",
        "RNG",
        "MUTATES_STATS",
        "MUTATES_STATE",
        "PERSISTS",
        "FAULT_HOOK",
    }
)

#: Effects a batch-compiled kernel may have without an explicit allowance.
KERNEL_SAFE_EFFECTS = frozenset({"MUTATES_STATE", "MUTATES_STATS"})

F = TypeVar("F", bound=Callable)


def _check_effect_names(names: Tuple[str, ...], decorator: str) -> Tuple[str, ...]:
    unknown = sorted(set(names) - EFFECTS)
    if unknown:
        raise ValueError(
            f"@{decorator}: unknown effect name(s) {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(EFFECTS))})"
        )
    return tuple(names)


def kernel(
    func: Optional[F] = None,
    *,
    allow: Tuple[str, ...] = (),
    may_raise: Tuple[str, ...] = (),
) -> Callable:
    """Declare a function batch-compilable (kernel-eligible).

    The contract: every transitive effect of the function is kernel-safe
    (``MUTATES_STATE``/``MUTATES_STATS``) or listed in ``allow``, every
    exception that can escape is named in ``may_raise`` (its *guard*
    exceptions — the batched kernel must bail out to the interpreter on
    them), and its call graph is fully resolvable.  simeffect verifies
    all three (rules SE001/SE003/SE004/SE005).

    Usable bare or with arguments::

        @kernel
        def lookup(self, tag): ...

        @kernel(may_raise=("KeyError",))
        def walk(self, vpn): ...
    """
    allow = _check_effect_names(tuple(allow), "kernel")
    may_raise = tuple(may_raise)

    def mark(target: F) -> F:
        target.__sim_kernel__ = {"allow": allow, "may_raise": may_raise}
        return target

    if func is not None:
        return mark(func)
    return mark


def effects(*names: str) -> Callable[[F], F]:
    """Declare the full effect envelope of a non-kernel hot-path function.

    simeffect checks that the *inferred* transitive effects stay within
    the declaration (rule SE002): the annotation is a ceiling the
    implementation cannot silently outgrow, which keeps the
    kernel-eligibility report's "disqualified because ..." lines honest.
    """
    declared = _check_effect_names(tuple(names), "effects")

    def mark(target: F) -> F:
        target.__sim_effects__ = declared
        return target

    return mark
