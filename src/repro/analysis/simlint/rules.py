"""simlint rules: repo-specific static checks for the FlatFlash simulator.

Every rule carries a stable ``SL###`` code (documented in
``docs/static_analysis.md``) and can be silenced on a single line with
a ``simlint: disable=SL###`` comment.  Rules marked ``sim_scope_only`` run only on
files under ``repro/{sim,ssd,host,core,interconnect}/`` — the layers whose
timing and state discipline the simulator's credibility depends on.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import FileContext, Violation, in_repro_layer

#: The DES command vocabulary (repro.sim.des) a process generator may yield.
DES_COMMANDS = {"Delay", "Acquire", "Release", "AcquireSlot", "ReleaseSlot"}

_ACQUIRE_KINDS = {"Acquire": "lock", "AcquireSlot": "slot"}
_RELEASE_KINDS = {"Release": "lock", "ReleaseSlot": "slot"}


class Rule:
    """Base class: one lint rule with a stable code."""

    code = "SL000"
    sim_scope_only = False

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            ctx.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            self.code,
            message,
        )


def _call_name(func: ast.expr) -> Optional[str]:
    """Last identifier of a call target (``Delay`` for ``des.Delay(...)``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _find_div(node: ast.AST) -> Optional[ast.BinOp]:
    """First true-division ``/`` anywhere under ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Div):
            return child
    return None


def _own_nodes(function: ast.AST) -> Iterator[ast.AST]:
    """Nodes of a function body, excluding nested function/class bodies."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class WallClockRule(Rule):
    """SL001: no wall-clock time sources inside the simulator."""

    code = "SL001"
    sim_scope_only = True

    _TIME_ATTRS = {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "sleep",
    }
    _DATETIME_ATTRS = {"now", "utcnow", "today"}
    _DATETIME_VALUES = {"datetime", "datetime.datetime", "datetime.date", "date"}

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.value, ast.Name) and node.value.id == "time":
                if node.attr in self._TIME_ATTRS:
                    yield self.violation(
                        ctx,
                        node,
                        f"wall-clock call time.{node.attr}() in simulation "
                        f"code; use SimClock (integer simulated ns) instead",
                    )
                continue
            if node.attr in self._DATETIME_ATTRS:
                value = ast.unparse(node.value)
                if value in self._DATETIME_VALUES or value.endswith(
                    (".datetime", ".date")
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"wall-clock call {value}.{node.attr}() in simulation "
                        f"code; use SimClock (integer simulated ns) instead",
                    )


class UnseededRandomRule(Rule):
    """SL002: no unseeded / global-state RNG inside the simulator."""

    code = "SL002"
    sim_scope_only = True

    _NUMPY_LEGACY = {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "seed",
        "normal",
        "uniform",
        "integers",
    }

    #: The only attributes of the ``np.random`` namespace sim code may
    #: touch: explicit-generator constructors.  Everything else is the
    #: legacy global-state API.
    _NUMPY_ALLOWED = {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }

    @staticmethod
    def _bare_np_random_nodes(tree: ast.Module) -> Iterator[ast.Attribute]:
        """``np.random`` used as a value, not as ``np.random.<attr>``.

        Aliasing the module (``rng = np.random``) or passing it where a
        Generator is expected smuggles the global-state API past the
        per-call checks, so the bare reference itself is flagged.
        """
        inner = {
            id(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in {"np", "numpy"}
                and id(node) not in inner
            ):
                yield node

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        for bare in self._bare_np_random_nodes(tree):
            yield self.violation(
                ctx,
                bare,
                "bare np.random reference aliases the legacy global RNG; "
                "pass an explicitly seeded np.random.default_rng instead",
            )
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.violation(
                    ctx,
                    node,
                    "import from the stdlib random module (hidden global RNG "
                    "state); use an explicitly seeded np.random.default_rng",
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            text = ast.unparse(func)
            if text.endswith("random.default_rng") and not node.args and not node.keywords:
                yield self.violation(
                    ctx,
                    node,
                    "np.random.default_rng() without a seed: experiments must "
                    "be reproducible — pass an explicit seed",
                )
                continue
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if func.value.id == "random":
                    if func.attr == "Random" and not node.args and not node.keywords:
                        yield self.violation(
                            ctx, node, "random.Random() without a seed"
                        )
                    elif func.attr not in {"Random", "SystemRandom"}:
                        yield self.violation(
                            ctx,
                            node,
                            f"random.{func.attr}() uses the stdlib global RNG; "
                            f"use an explicitly seeded np.random.default_rng",
                        )
                    continue
            if (
                isinstance(func, ast.Attribute)
                and func.attr not in self._NUMPY_ALLOWED
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in {"np", "numpy"}
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"legacy numpy global RNG np.random.{func.attr}(); use an "
                    f"explicitly seeded np.random.default_rng",
                )


class FloatDivLatencyRule(Rule):
    """SL003: float division must not feed a latency (``*_ns``) value."""

    code = "SL003"
    sim_scope_only = False

    @staticmethod
    def _is_ns_target(target: ast.expr) -> bool:
        if isinstance(target, ast.Name):
            return target.id.endswith("_ns")
        if isinstance(target, ast.Attribute):
            return target.attr.endswith("_ns")
        return False

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                if any(self._is_ns_target(t) for t in node.targets):
                    div = _find_div(node.value)
                    if div is not None:
                        yield self.violation(
                            ctx,
                            div,
                            "float division assigned to a *_ns name; latencies "
                            "are integer ns — use // instead of /",
                        )
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if node.value is not None and self._is_ns_target(node.target):
                    div = _find_div(node.value)
                    if div is not None:
                        yield self.violation(
                            ctx,
                            div,
                            "float division assigned to a *_ns name; latencies "
                            "are integer ns — use // instead of /",
                        )
            elif isinstance(node, ast.Call):
                name = _call_name(node.func)
                if name == "Delay" or (
                    isinstance(node.func, ast.Attribute)
                    and name == "advance"
                ):
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        div = _find_div(arg)
                        if div is not None:
                            yield self.violation(
                                ctx,
                                div,
                                f"float division feeding {name}(); delays are "
                                f"integer ns — use // instead of /",
                            )
                            break
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.endswith(("_ns", "_cost")):
                    for child in _own_nodes(node):
                        if isinstance(child, ast.Return) and child.value is not None:
                            div = _find_div(child.value)
                            if div is not None:
                                yield self.violation(
                                    ctx,
                                    div,
                                    f"float division in return value of "
                                    f"{node.name}(); latency-returning "
                                    f"functions must return integer ns",
                                )


class UnitSuffixRule(Rule):
    """SL004: timing names inside the simulator must carry the ``_ns`` unit."""

    code = "SL004"
    sim_scope_only = True

    _BAD_SUFFIXES = ("_us", "_ms", "_sec", "_secs", "_seconds")

    def _flag(self, name: str) -> bool:
        if name.isupper():  # NS_PER_US-style conversion constants
            return False
        return name.endswith(self._BAD_SUFFIXES)

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._flag(node.name):
                    yield self.violation(
                        ctx,
                        node,
                        f"function {node.name}() carries a non-ns time unit in "
                        f"its name; simulator timing is integer ns (rename to "
                        f"*_ns, or suppress if it is a deliberate conversion)",
                    )
                args = node.args
                for arg in (
                    list(args.posonlyargs)
                    + list(args.args)
                    + list(args.kwonlyargs)
                    + [a for a in (args.vararg, args.kwarg) if a is not None]
                ):
                    if self._flag(arg.arg):
                        yield self.violation(
                            ctx,
                            arg,
                            f"parameter {arg.arg!r} carries a non-ns time unit; "
                            f"simulator timing is integer ns (rename to *_ns)",
                        )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    name = None
                    if isinstance(target, ast.Name):
                        name = target.id
                    elif isinstance(target, ast.Attribute):
                        name = target.attr
                    if name is not None and self._flag(name):
                        yield self.violation(
                            ctx,
                            target,
                            f"assignment to {name!r} carries a non-ns time "
                            f"unit; simulator timing is integer ns (rename to "
                            f"*_ns)",
                        )


class YieldCommandRule(Rule):
    """SL005: DES process generators may only yield known command types."""

    code = "SL005"
    sim_scope_only = False

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yields = [
                child for child in _own_nodes(node) if isinstance(child, ast.Yield)
            ]
            if not yields:
                continue
            is_des_process = any(
                isinstance(y.value, ast.Call)
                and _call_name(y.value.func) in DES_COMMANDS
                for y in yields
            )
            if not is_des_process:
                continue
            for y in yields:
                value = y.value
                if value is None:
                    yield self.violation(
                        ctx,
                        y,
                        "bare yield in a DES process generator; the simulator "
                        "only accepts Delay/Acquire/Release/AcquireSlot/"
                        "ReleaseSlot commands",
                    )
                elif isinstance(value, ast.Call):
                    name = _call_name(value.func)
                    if name is not None and name not in DES_COMMANDS:
                        yield self.violation(
                            ctx,
                            y,
                            f"DES process yields {name}(), which is not a "
                            f"simulator command "
                            f"({'/'.join(sorted(DES_COMMANDS))})",
                        )
                elif isinstance(
                    value,
                    (ast.Constant, ast.BinOp, ast.UnaryOp, ast.Compare,
                     ast.Tuple, ast.List, ast.Dict, ast.Set, ast.JoinedStr),
                ):
                    yield self.violation(
                        ctx,
                        y,
                        f"DES process yields {ast.unparse(value)!r}, which is "
                        f"not a simulator command",
                    )


class LockBalanceRule(Rule):
    """SL006: every Acquire in a DES process needs a Release on all paths."""

    code = "SL006"
    sim_scope_only = False

    #: Bail out of the path walk when the state set explodes.
    _MAX_STATES = 64

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            acquires, releases = self._collect(node)
            if not acquires:
                continue
            reported: Set[Tuple[str, str]] = set()
            for key, acquire_node in acquires.items():
                if key not in releases:
                    kind, text = key
                    verb = "Release" if kind == "lock" else "ReleaseSlot"
                    yield self.violation(
                        ctx,
                        acquire_node,
                        f"{kind} {text!r} is acquired but never released in "
                        f"{node.name}(); add a matching {verb}({text})",
                    )
                    reported.add(key)
            for key in self._definitely_leaked(node):
                if key in reported or key not in acquires:
                    continue
                kind, text = key
                yield self.violation(
                    ctx,
                    acquires[key],
                    f"{kind} {text!r} is still held when {node.name}() exits, "
                    f"on every non-exception path; release it before the "
                    f"generator finishes",
                )

    # ---- collection ---------------------------------------------------- #

    @staticmethod
    def _command_of(stmt: ast.stmt) -> Optional[Tuple[str, str]]:
        """(command_name, lock_source_text) for ``yield Cmd(lock)`` statements."""
        if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Yield):
            return None
        call = stmt.value.value
        if not isinstance(call, ast.Call):
            return None
        name = _call_name(call.func)
        if name not in _ACQUIRE_KINDS and name not in _RELEASE_KINDS:
            return None
        target = ast.unparse(call.args[0]) if call.args else ""
        return name, target

    def _collect(
        self, function: ast.AST
    ) -> Tuple[Dict[Tuple[str, str], ast.stmt], Set[Tuple[str, str]]]:
        acquires: Dict[Tuple[str, str], ast.stmt] = {}
        releases: Set[Tuple[str, str]] = set()
        for child in _own_nodes(function):
            if not isinstance(child, ast.stmt):
                continue
            command = self._command_of(child)
            if command is None:
                continue
            name, target = command
            if name in _ACQUIRE_KINDS:
                acquires.setdefault((_ACQUIRE_KINDS[name], target), child)
            else:
                releases.add((_RELEASE_KINDS[name], target))
        return acquires, releases

    # ---- path-sensitive walk ------------------------------------------- #

    def _definitely_leaked(self, function) -> Set[Tuple[str, str]]:
        self._exit_states: List[FrozenSet[Tuple[str, str]]] = []
        self._exploded = False
        fallthrough = self._walk(function.body, {frozenset()})
        self._exit_states.extend(fallthrough)
        if self._exploded or not self._exit_states:
            return set()
        leaked = set(self._exit_states[0])
        for state in self._exit_states[1:]:
            leaked &= state
        return leaked

    def _apply(
        self, stmt: ast.stmt, states: Set[FrozenSet[Tuple[str, str]]]
    ) -> Set[FrozenSet[Tuple[str, str]]]:
        command = self._command_of(stmt)
        if command is None:
            return states
        name, target = command
        out: Set[FrozenSet[Tuple[str, str]]] = set()
        if name in _ACQUIRE_KINDS:
            key = (_ACQUIRE_KINDS[name], target)
            for state in states:
                out.add(state | {key})
        else:
            key = (_RELEASE_KINDS[name], target)
            for state in states:
                out.add(state - {key})
        return out

    def _walk(
        self, stmts: Sequence[ast.stmt], states: Set[FrozenSet[Tuple[str, str]]]
    ) -> Set[FrozenSet[Tuple[str, str]]]:
        for stmt in stmts:
            if not states or self._exploded:
                return set()
            if len(states) > self._MAX_STATES:
                self._exploded = True
                return set()
            if isinstance(stmt, ast.Return):
                self._exit_states.extend(states)
                return set()
            if isinstance(stmt, ast.Raise):
                return set()  # exception paths are exempt
            if isinstance(stmt, ast.If):
                states = self._walk(stmt.body, set(states)) | self._walk(
                    stmt.orelse, set(states)
                )
            elif isinstance(stmt, (ast.For, ast.While, ast.AsyncFor)):
                # Approximate loops as zero-or-one executions of the body.
                states = states | self._walk(stmt.body, set(states))
                if stmt.orelse:
                    states = self._walk(stmt.orelse, states)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                states = self._walk(stmt.body, states)
            elif isinstance(stmt, ast.Try):
                body_out = self._walk(stmt.body, set(states))
                handler_in = states | body_out
                handler_out: Set[FrozenSet[Tuple[str, str]]] = set()
                for handler in stmt.handlers:
                    handler_out |= self._walk(handler.body, set(handler_in))
                states = body_out | handler_out
                if stmt.orelse:
                    states = self._walk(stmt.orelse, states)
                if stmt.finalbody:
                    states = self._walk(stmt.finalbody, states)
            else:
                states = self._apply(stmt, states)
        return states


class CounterDeclRule(Rule):
    """SL007: stats counters must be declared before they are incremented."""

    code = "SL007"
    sim_scope_only = False

    _INCREMENT_METHODS = {"add", "record"}

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        classes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }
        assigned: Dict[str, Set[str]] = {
            name: self._assigned_attrs(node) for name, node in classes.items()
        }
        for name, node in classes.items():
            allowed = self._resolve(name, classes, assigned)
            if allowed is None:
                continue  # a base class lives in another module: skip
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._INCREMENT_METHODS
                    and isinstance(func.value, ast.Attribute)
                    and isinstance(func.value.value, ast.Name)
                    and func.value.value.id == "self"
                ):
                    attr = func.value.attr
                    if attr not in allowed:
                        yield self.violation(
                            ctx,
                            call,
                            f"self.{attr}.{func.attr}() increments an attribute "
                            f"never assigned in class {name}; declare it (e.g. "
                            f"self.{attr} = stats.counter(...)) first",
                        )

    @staticmethod
    def _assigned_attrs(node: ast.ClassDef) -> Set[str]:
        attrs: Set[str] = set()
        for child in ast.walk(node):
            targets: List[ast.expr] = []
            if isinstance(child, ast.Assign):
                targets = list(child.targets)
            elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
                targets = [child.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
        return attrs

    def _resolve(
        self,
        name: str,
        classes: Dict[str, ast.ClassDef],
        assigned: Dict[str, Set[str]],
        seen: Optional[Set[str]] = None,
    ) -> Optional[Set[str]]:
        """All attrs assigned by a class and its in-module ancestors, or
        ``None`` when an ancestor is not resolvable in this module."""
        if seen is None:
            seen = set()
        if name in seen:
            return set()
        seen.add(name)
        node = classes[name]
        attrs = set(assigned[name])
        for base in node.bases:
            if not isinstance(base, ast.Name):
                return None
            if base.id == "object":
                continue
            if base.id not in classes:
                return None
            parent = self._resolve(base.id, classes, assigned, seen)
            if parent is None:
                return None
            attrs |= parent
        return attrs


class MutableDefaultRule(Rule):
    """SL008: no mutable default arguments."""

    code = "SL008"
    sim_scope_only = False

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter"}

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            return name in self._MUTABLE_CALLS
        return False

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.violation(
                        ctx,
                        default,
                        f"mutable default argument {ast.unparse(default)!r} in "
                        f"{name}(); default to None and construct inside the "
                        f"function",
                    )


class FaultRandomnessRule(Rule):
    """SL009: fault draws must come from injected seeded streams.

    Scoped to ``repro/faults/**`` (which lies outside the SL002 sim
    scope): every fault decision must be a draw from the injector's
    per-site ``np.random.default_rng((seed, crc32(site)))`` streams, or a
    campaign stops being replayable.  The stdlib ``random`` module (global
    hidden state), numpy's legacy ``np.random.*`` functions and an
    unseeded ``default_rng()`` are all forbidden here.
    """

    code = "SL009"
    sim_scope_only = False

    _NUMPY_LEGACY = UnseededRandomRule._NUMPY_LEGACY
    _NUMPY_ALLOWED = UnseededRandomRule._NUMPY_ALLOWED

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        if not in_repro_layer(ctx.path, {"faults"}):
            return
        for bare in UnseededRandomRule._bare_np_random_nodes(tree):
            yield self.violation(
                ctx,
                bare,
                "bare np.random reference in fault-injection code aliases "
                "the legacy global RNG; use the injector's seeded per-site "
                "generators",
            )
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.violation(
                            ctx,
                            node,
                            "stdlib random imported in fault-injection code; "
                            "fault draws must come from the injector's seeded "
                            "per-site np.random.default_rng streams",
                        )
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.violation(
                    ctx,
                    node,
                    "import from the stdlib random module in fault-injection "
                    "code; use the injector's seeded per-site streams",
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            text = ast.unparse(func)
            if text.endswith("random.default_rng") and not node.args and not node.keywords:
                yield self.violation(
                    ctx,
                    node,
                    "np.random.default_rng() without a seed in fault-injection "
                    "code; derive the seed from the FaultPlan "
                    "(seed, crc32(site))",
                )
                continue
            if (
                isinstance(func, ast.Attribute)
                and func.attr not in self._NUMPY_ALLOWED
                and text.startswith(("np.random.", "numpy.random."))
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"legacy global-state call {text}() in fault-injection "
                    f"code; use the injector's seeded per-site generators",
                )


#: Registered rules, in code order.
RULES: List[Rule] = [
    WallClockRule(),
    UnseededRandomRule(),
    FloatDivLatencyRule(),
    UnitSuffixRule(),
    YieldCommandRule(),
    LockBalanceRule(),
    CounterDeclRule(),
    MutableDefaultRule(),
    FaultRandomnessRule(),
]
