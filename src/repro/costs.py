"""Counter-conservation contracts declared on the simulator's components.

The paper's headline numbers are sums of the Table-2 cost constants in
:class:`repro.config.LatencyConfig`, charged along hot paths, plus the
`sim/stats.py` counters the evaluation reports.  This module is the
declaration side of the counter contract:

* :func:`counters` — a runtime-no-op class decorator declaring which
  stat-name prefix a component owns and which conservation invariants
  its counters obey.  The class-wide invariants are checked on the
  final stats of real runs, on the scalar and the fused replay path, by
  ``tests/test_counter_conservation.py``.
* :func:`parse_invariant` — the invariant grammar, validated eagerly at
  import time.

Invariant grammar
-----------------

::

    invariant := [method ":"] sum cmp sum
    sum       := term ("+" term)*
    term      := integer | leg
    leg       := stat-name [":" ("total" | "hit" | "miss" | "samples")]
    cmp       := "==" | "<=" | ">="

A *leg* names a stat primitive: a :class:`~repro.sim.stats.Counter` by
its registry name (``plb.promotions_started``), or one leg of a
:class:`~repro.sim.stats.RatioStat` (``plb.hits:total`` /
``plb.hits:hit`` / ``plb.hits:miss``) or
:class:`~repro.sim.stats.LatencyStats` (``name:samples``).  Stat names
always contain a dot, which is how a leading ``method:`` scope prefix
is told apart from a leg.

A *scoped* invariant (``"lookup: plb.hits:total == 1"``) must hold on
every non-raising control-flow path through that method of the
decorated class.  An *unscoped* invariant (``"ssd_cache.dirty_evictions
<= ssd_cache.evictions"``) must hold on every path of every method.

Example::

    @counters(
        owner="plb",
        conserve=(
            "lookup: plb.hits:total == 1",
            "plb.hits:hit + plb.hits:miss == plb.hits:total",
        ),
    )
    class PLB:
        ...

Like ``@kernel`` / ``@effects`` (:mod:`repro.effects`), the decorator
attaches metadata (``__sim_counters__``) and returns the class
unchanged — zero runtime cost on hot paths.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Type, TypeVar

#: Legs a ratio/latency stat exposes to invariants, beyond plain counters.
RATIO_LEGS = ("total", "hit", "miss")
LATENCY_LEGS = ("samples",)
_ALL_LEGS = RATIO_LEGS + LATENCY_LEGS

#: Comparison operators the grammar accepts, longest first.
OPERATORS = ("==", "<=", ">=")

_OWNER_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_SCOPE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*:\s+(.*)$")
_LEG_RE = re.compile(
    r"^[a-z_][a-z0-9_]*(?:\.[a-z0-9_]+)+(?::(" + "|".join(_ALL_LEGS) + r"))?$"
)
_INT_RE = re.compile(r"^\d+$")

#: One side's term: ``("const", int)`` or ``("leg", stat-leg-name)``.
Term = Tuple[str, object]


@dataclass(frozen=True)
class Invariant:
    """One parsed conservation invariant."""

    scope: Optional[str]  # method name, or None for class-wide
    lhs: Tuple[Term, ...]
    op: str  # "==", "<=" or ">="
    rhs: Tuple[Term, ...]
    raw: str

    def legs(self) -> Tuple[str, ...]:
        """Every stat leg the invariant mentions, in appearance order."""
        out = []
        for kind, value in self.lhs + self.rhs:
            if kind == "leg" and value not in out:
                out.append(value)
        return tuple(out)


def _parse_sum(text: str, raw: str) -> Tuple[Term, ...]:
    terms = []
    for piece in text.split("+"):
        piece = piece.strip()
        if not piece:
            raise ValueError(f"empty term in invariant {raw!r}")
        if _INT_RE.match(piece):
            terms.append(("const", int(piece)))
        elif _LEG_RE.match(piece):
            terms.append(("leg", piece))
        else:
            raise ValueError(
                f"bad term {piece!r} in invariant {raw!r} (expected an "
                f"integer or a dotted stat leg like 'plb.hits:total')"
            )
    return tuple(terms)


def parse_invariant(text: str) -> Invariant:
    """Parse one conservation invariant; raises ``ValueError`` on errors."""
    raw = text.strip()
    scope: Optional[str] = None
    body = raw
    match = _SCOPE_RE.match(raw)
    # a leading "name: " with no dot in the name is a method scope; stat
    # legs always contain a dot so the grammar stays unambiguous
    if match and "." not in match.group(1):
        scope, body = match.group(1), match.group(2)
    found = [op for op in OPERATORS if op in body]
    if len(found) != 1:
        raise ValueError(
            f"invariant {raw!r} must contain exactly one of "
            f"{', '.join(OPERATORS)}"
        )
    op = found[0]
    lhs_text, rhs_text = body.split(op, 1)
    lhs = _parse_sum(lhs_text, raw)
    rhs = _parse_sum(rhs_text, raw)
    if not any(kind == "leg" for kind, _ in lhs + rhs):
        raise ValueError(f"invariant {raw!r} names no stat leg")
    return Invariant(scope=scope, lhs=lhs, op=op, rhs=rhs, raw=raw)


_C = TypeVar("_C")


def counters(
    *, owner: str, conserve: Sequence[str] = ()
) -> "Type[_C]":
    """Class decorator declaring stat ownership + conservation invariants.

    ``owner`` is the stat-name prefix this component owns (the text
    before the first dot of its registry names, e.g. ``"plb"`` for
    ``plb.hits``).  ``conserve`` is a sequence of invariant strings in
    the grammar above.  Both are validated eagerly so a typo fails at
    import time.
    """
    if not isinstance(owner, str) or not _OWNER_RE.match(owner):
        raise ValueError(
            f"@counters owner must be a lowercase identifier prefix, "
            f"got {owner!r}"
        )
    invariants = tuple(parse_invariant(text) for text in conserve)

    def wrap(cls):
        cls.__sim_counters__ = {
            "owner": owner,
            "conserve": tuple(str(text).strip() for text in conserve),
        }
        return cls

    _ = invariants  # parsed for validation only
    return wrap
