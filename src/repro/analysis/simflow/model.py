"""simflow model: function summaries + the flow-sensitive domain checker.

Two passes over each module:

1. **Summaries** — every function/method gets a
   :class:`FunctionSummary`: per-parameter kinds (annotation first,
   name heuristic fallback) and a return kind (annotation first, then
   the ``*_ns``/``*_cost`` naming convention).  Class bodies are also
   scanned for ``Dict[K, V]``-annotated containers.

2. **Flow walk** — each function body is walked statement by statement
   with an environment mapping local names to kinds.  Assignments
   propagate kinds (including tuple unpacking of registered tuple
   returns); branches are walked on copies of the environment and
   merged by agreement; expression evaluation reports domain mixing as
   it computes kinds.

Call resolution order: in-module summary (``f(...)`` → module scope,
``self.m(...)`` → current class), then the translation registry
(:data:`repro.analysis.simflow.domains.REGISTRY`) keyed on method name
plus receiver hint.  Calls to ``repro.units`` domain types are
*sanctioned casts*: they never warn and their result adopts the cast
kind.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.simflow import domains as d
from repro.units import DOMAIN_TYPES

Kind = Optional[str]
#: Kind of a value: a single kind, a tuple of kinds (tuple values), or None.
ValueKind = Union[None, str, Tuple[Kind, ...]]

Report = Callable[[str, ast.AST, str], None]


# --------------------------------------------------------------------------
# Pass 1: summaries
# --------------------------------------------------------------------------


@dataclass
class FunctionSummary:
    name: str
    class_name: str  # "" for module-level functions
    node: ast.AST
    param_order: List[str]
    param_kinds: Dict[str, str]
    return_kind: ValueKind
    exempt: bool  # pun-point body: skip all checks inside


@dataclass
class ModuleModel:
    functions: Dict[Tuple[str, str], FunctionSummary] = field(default_factory=dict)
    containers: d.ContainerTable = field(default_factory=d.ContainerTable)

    def resolve(self, class_name: str, name: str) -> Optional[FunctionSummary]:
        return self.functions.get((class_name, name))


def _summarize_function(
    node: ast.FunctionDef, class_name: str
) -> FunctionSummary:
    args = node.args
    params: List[ast.arg] = list(args.posonlyargs) + list(args.args)
    order: List[str] = []
    kinds: Dict[str, str] = {}
    for index, arg in enumerate(params):
        if index == 0 and class_name and arg.arg in ("self", "cls"):
            continue
        order.append(arg.arg)
        kind = d.annotation_kind(arg.annotation) or d.heuristic_kind(arg.arg)
        if kind is not None:
            kinds[arg.arg] = kind
    for arg in args.kwonlyargs:
        kind = d.annotation_kind(arg.annotation) or d.heuristic_kind(arg.arg)
        if kind is not None:
            kinds[arg.arg] = kind
    return_kind: ValueKind = d.annotation_tuple(node.returns) or d.annotation_kind(
        node.returns
    )
    if return_kind is None:
        return_kind = d.heuristic_return_kind(node.name)
    return FunctionSummary(
        name=node.name,
        class_name=class_name,
        node=node,
        param_order=order,
        param_kinds=kinds,
        return_kind=return_kind,
        exempt=node.name in d.PUN_FUNCTIONS,
    )


def _record_container(
    model: ModuleModel, class_name: str, name: str, annotation: ast.expr
) -> None:
    kinds = d.annotation_container(annotation)
    if kinds is not None:
        model.containers.record(class_name, name, kinds)


def build_module(tree: ast.Module) -> ModuleModel:
    """Collect function summaries and container declarations."""
    model = ModuleModel()

    def visit_body(body: Sequence[ast.stmt], class_name: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                summary = _summarize_function(stmt, class_name)
                model.functions[(class_name, stmt.name)] = summary
                # self.x: Dict[K, V] declarations live inside methods
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.AnnAssign) and isinstance(
                        sub.target, ast.Attribute
                    ):
                        if (
                            isinstance(sub.target.value, ast.Name)
                            and sub.target.value.id == "self"
                        ):
                            _record_container(
                                model, class_name, sub.target.attr, sub.annotation
                            )
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, ast.AnnAssign) and isinstance(
                        sub.target, ast.Name
                    ):
                        _record_container(model, stmt.name, sub.target.id, sub.annotation)
                visit_body(stmt.body, stmt.name)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                _record_container(model, class_name, stmt.target.id, stmt.annotation)

    visit_body(tree.body, "")
    return model


# --------------------------------------------------------------------------
# Pass 2: flow-sensitive walk
# --------------------------------------------------------------------------

_DICT_KEY_METHODS = {"get", "pop", "setdefault"}


def _receiver_hint(func: ast.expr) -> Optional[str]:
    """Last identifier of a call receiver chain: ``self.ftl.lookup`` → ftl."""
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name):
            return value.id
        if isinstance(value, ast.Attribute):
            return value.attr
    return None


class FlowChecker:
    """Walks one function body, tracking kinds and reporting domain mixing."""

    def __init__(self, model: ModuleModel, summary: FunctionSummary, report: Report):
        self.model = model
        self.summary = summary
        self.report = report
        self.env: Dict[str, str] = dict(summary.param_kinds)
        # containers declared locally: name -> ContainerInfo
        self.local_containers: Dict[str, d.ContainerInfo] = {}

    # -- entry point -------------------------------------------------------

    def run(self) -> None:
        if self.summary.exempt:
            return
        node = self.summary.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        self._walk_body(node.body)

    # -- statements --------------------------------------------------------

    def _walk_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are checked as their own summaries
        if isinstance(stmt, ast.Assign):
            value_kind = self._expr(stmt.value)
            for target in stmt.targets:
                self._bind(target, value_kind)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                container = d.annotation_container(stmt.annotation)
                if container is not None:
                    self.local_containers[stmt.target.id] = d.ContainerInfo(*container)
                declared = d.annotation_kind(stmt.annotation)
                if declared is not None:
                    self.env[stmt.target.id] = declared
            elif isinstance(stmt.target, ast.Subscript):
                self._subscript(stmt.target)
        elif isinstance(stmt, ast.AugAssign):
            target_kind = self._expr(stmt.target, store=True)
            value_kind = self._expr(stmt.value)
            self._check_mix(stmt, target_kind, value_kind, "augmented assignment")
        elif isinstance(stmt, (ast.Return, ast.Expr)):
            if stmt.value is not None:
                self._expr(stmt.value)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test)
            self._branch([stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.While,)):
            self._expr(stmt.test)
            self._loop(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_kind = self._expr(stmt.iter)
            self._bind_loop_target(stmt.target, stmt.iter, iter_kind)
            self._loop(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, None)
            self._walk_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body)
            for handler in stmt.handlers:
                env = dict(self.env)
                self._walk_body(handler.body)
                self.env = env
            self._walk_body(stmt.orelse)
            self._walk_body(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    self._subscript(target)

    def _branch(self, bodies: Sequence[Sequence[ast.stmt]]) -> None:
        base = dict(self.env)
        posts: List[Dict[str, str]] = []
        for body in bodies:
            self.env = dict(base)
            self._walk_body(body)
            posts.append(self.env)
        merged: Dict[str, str] = {}
        for name in set().union(*posts):
            kinds = {post.get(name) for post in posts}
            if len(kinds) == 1:
                kind = kinds.pop()
                if kind is not None:
                    merged[name] = kind
        self.env = merged

    def _loop(self, body: Sequence[ast.stmt]) -> None:
        base = dict(self.env)
        self._walk_body(body)
        post = self.env
        self.env = {
            name: kind
            for name, kind in base.items()
            if post.get(name) == kind
        }
        for name, kind in post.items():
            if name not in base and kind is not None:
                # loop may not run; keep only if base had no opinion either
                self.env.setdefault(name, kind)

    # -- binding -----------------------------------------------------------

    def _bind(self, target: ast.expr, value_kind: ValueKind) -> None:
        if isinstance(target, ast.Name):
            if isinstance(value_kind, str):
                if value_kind == d.PLAIN:
                    # a literal doesn't override what the name declares:
                    # ``elapsed_ns = 0`` still holds nanoseconds
                    value_kind = d.heuristic_kind(target.id) or d.PLAIN
                self.env[target.id] = value_kind
            else:
                self.env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elements: Tuple[Kind, ...]
            if isinstance(value_kind, tuple) and len(value_kind) == len(target.elts):
                elements = value_kind
            else:
                elements = tuple(None for _ in target.elts)
            for element, kind in zip(target.elts, elements):
                self._bind(element, kind)
        elif isinstance(target, ast.Subscript):
            self._subscript(target)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, None)
        # attribute targets carry no local env

    def _bind_loop_target(
        self, target: ast.expr, iter_expr: ast.expr, iter_kind: ValueKind
    ) -> None:
        # ``for k, v in mapping.items()`` — propagate container kinds
        if (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Attribute)
            and iter_expr.func.attr in {"items", "keys", "values"}
        ):
            info = self._container_of(iter_expr.func.value)
            if info is not None:
                method = iter_expr.func.attr
                if method == "items" and isinstance(target, ast.Tuple) and len(target.elts) == 2:
                    self._bind(target.elts[0], info.key_kind)
                    self._bind(target.elts[1], info.value_kind)
                    return
                if method == "keys":
                    self._bind(target, info.key_kind)
                    return
                if method == "values":
                    self._bind(target, info.value_kind)
                    return
        # iterating a container directly yields its keys
        info = self._container_of(iter_expr)
        if info is not None and isinstance(target, ast.Name):
            self._bind(target, info.key_kind)
            return
        # unknown iterable: leave names unbound so heuristics still apply
        for name_node in ast.walk(target):
            if isinstance(name_node, ast.Name):
                self.env.pop(name_node.id, None)

    # -- expression kinds --------------------------------------------------

    def _name_kind(self, name: str) -> Kind:
        if name in self.env:
            return self.env[name]
        return d.heuristic_kind(name)

    def _expr(self, node: ast.expr, store: bool = False) -> ValueKind:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                return None
            return d.PLAIN
        if isinstance(node, ast.Name):
            return self._name_kind(node.id)
        if isinstance(node, ast.Attribute):
            if not isinstance(node.value, (ast.Name, ast.Attribute)):
                self._expr(node.value)
            return d.heuristic_kind(node.attr)
        if isinstance(node, ast.BinOp):
            left = self._expr(node.left)
            right = self._expr(node.right)
            return self._binop(node, left, right)
        if isinstance(node, ast.UnaryOp):
            return self._expr(node.operand)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._expr(value)
            return None
        if isinstance(node, ast.Compare):
            return self._compare(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Subscript):
            return self._subscript(node)
        if isinstance(node, ast.IfExp):
            self._expr(node.test)
            body = self._expr(node.body)
            orelse = self._expr(node.orelse)
            return body if body == orelse else None
        if isinstance(node, (ast.Tuple, ast.List)):
            kinds = tuple(
                k if isinstance(k, str) else None
                for k in (self._expr(elt) for elt in node.elts)
            )
            return kinds if isinstance(node, ast.Tuple) else None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            saved = dict(self.env)
            for comp in node.generators:
                iter_kind = self._expr(comp.iter)
                self._bind_loop_target(comp.target, comp.iter, iter_kind)
                for test in comp.ifs:
                    self._expr(test)
            if isinstance(node, ast.DictComp):
                self._expr(node.key)
                self._expr(node.value)
            else:
                self._expr(node.elt)
            self.env = saved
            return None
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._expr(value.value)
            return None
        if isinstance(node, ast.Starred):
            return self._expr(node.value)
        if isinstance(node, ast.Lambda):
            return None
        if isinstance(node, (ast.Dict, ast.Set)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child)
            return None
        if isinstance(node, (ast.Await, ast.Yield, ast.YieldFrom)):
            if getattr(node, "value", None) is not None:
                self._expr(node.value)  # type: ignore[arg-type]
            return None
        return None

    # -- operators ---------------------------------------------------------

    def _check_mix(
        self, node: ast.AST, left: ValueKind, right: ValueKind, what: str
    ) -> bool:
        """Report SF001/SF004 when two concrete, different kinds meet."""
        if not isinstance(left, str) or not isinstance(right, str):
            return False
        if left == right or d.PLAIN in (left, right):
            return False
        if left in d.ADDRESS_KINDS and right in d.ADDRESS_KINDS:
            self.report(
                "SF001",
                node,
                f"{what} mixes address domains {d.describe(left)} and "
                f"{d.describe(right)}",
            )
            return True
        if left in d.TIME_KINDS and right in d.TIME_KINDS:
            self.report(
                "SF004",
                node,
                f"{what} mixes time units {d.describe(left)} and "
                f"{d.describe(right)}; convert explicitly (e.g. NS_PER_US)",
            )
            return True
        return False

    def _binop(self, node: ast.BinOp, left: ValueKind, right: ValueKind) -> ValueKind:
        op = type(node.op)
        what = "arithmetic" if op in (ast.Add, ast.Sub) else "arithmetic"
        self._check_mix(node, left, right, what)
        lk = left if isinstance(left, str) else None
        rk = right if isinstance(right, str) else None
        if op in (ast.Add, ast.Sub):
            for a, b in ((lk, rk), (rk, lk)):
                if a in d.ADDRESS_KINDS and b in (None, d.PLAIN):
                    return a  # page ± offset stays in the domain
                if a in d.TIME_KINDS and (b == a or b in (None, d.PLAIN)):
                    return a  # durations add within one unit
            if lk is not None and lk == rk and lk in d.ADDRESS_KINDS:
                return d.PLAIN  # address − address = distance
            return None
        if op in (ast.Mult, ast.FloorDiv):
            if lk in d.TIME_KINDS or rk in d.TIME_KINDS:
                return None  # multiplication is how conversions are spelled
            return d.PLAIN if lk or rk else None
        if op in (ast.Mod, ast.Div, ast.Pow, ast.LShift, ast.RShift,
                  ast.BitAnd, ast.BitOr, ast.BitXor):
            return d.PLAIN if lk or rk else None
        return None

    def _compare(self, node: ast.Compare) -> ValueKind:
        left_kind = self._expr(node.left)
        prev = left_kind
        for op, comparator in zip(node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)):
                info = self._container_of(comparator)
                kind = prev if isinstance(prev, str) else None
                if (
                    info is not None
                    and kind is not None
                    and info.key_kind is not None
                    and kind != info.key_kind
                    and d.PLAIN not in (kind, info.key_kind)
                ):
                    self.report(
                        "SF005",
                        node,
                        f"membership test probes a container keyed by "
                        f"{d.describe(info.key_kind)} with {d.describe(kind)}",
                    )
                prev = self._expr(comparator) if info is None else None
                continue
            comp_kind = self._expr(comparator)
            if not isinstance(op, (ast.Is, ast.IsNot)):
                self._check_mix(node, prev, comp_kind, "comparison")
            prev = comp_kind
        return None

    # -- containers --------------------------------------------------------

    def _container_of(self, node: ast.expr) -> Optional[d.ContainerInfo]:
        if isinstance(node, ast.Name):
            info = self.local_containers.get(node.id)
            if info is not None:
                return info
            return self.model.containers.lookup("", node.id) or (
                self.model.containers.lookup(self.summary.class_name, node.id)
                if self.summary.class_name
                else None
            )
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return self.model.containers.lookup(
                    self.summary.class_name, node.attr
                )
            # other receivers: name-pattern heuristic only
            key_kind, value_kind = d.container_name_kinds(node.attr)
            if key_kind is None and value_kind is None:
                return None
            return d.ContainerInfo(key_kind, value_kind)
        return None

    def _subscript(self, node: ast.Subscript) -> ValueKind:
        info = self._container_of(node.value)
        if info is None and not isinstance(node.value, (ast.Name, ast.Attribute)):
            self._expr(node.value)
        index_kind = self._expr(node.slice) if isinstance(node.slice, ast.expr) else None
        if info is not None and isinstance(index_kind, str):
            self._check_index(node, info, index_kind, node.value)
        if info is not None:
            return info.value_kind
        return None

    def _check_index(
        self,
        node: ast.AST,
        info: d.ContainerInfo,
        index_kind: str,
        container_node: ast.expr,
    ) -> None:
        key_kind = info.key_kind
        if key_kind is None or index_kind == key_kind:
            return
        if d.PLAIN in (index_kind, key_kind):
            return
        name = (
            container_node.attr
            if isinstance(container_node, ast.Attribute)
            else getattr(container_node, "id", "container")
        )
        self.report(
            "SF005",
            node,
            f"container {name!r} is keyed by {d.describe(key_kind)} but "
            f"indexed with {d.describe(index_kind)}",
        )

    # -- calls -------------------------------------------------------------

    def _call(self, node: ast.Call) -> ValueKind:
        func = node.func
        # sanctioned domain cast: LPN(x), units.LPN(x)
        cast_name = None
        if isinstance(func, ast.Name):
            cast_name = func.id
        elif isinstance(func, ast.Attribute):
            cast_name = func.attr
        if cast_name in DOMAIN_TYPES:
            for arg in node.args:
                self._expr(arg)
            return DOMAIN_TYPES[cast_name]

        # int(x) and friends strip the domain claim
        if isinstance(func, ast.Name) and func.id in {"int", "float", "len", "abs"}:
            for arg in node.args:
                self._expr(arg)
            return d.PLAIN

        if isinstance(func, ast.Name) and func.id in {"min", "max", "sum"}:
            kinds = {self._expr(arg) for arg in node.args}
            kinds.discard(None)
            if len(kinds) == 1:
                only = kinds.pop()
                return only if isinstance(only, str) else None
            return None

        # dict access methods double as container indexing
        if isinstance(func, ast.Attribute) and func.attr in _DICT_KEY_METHODS:
            info = self._container_of(func.value)
            if info is not None and node.args:
                index_kind = self._expr(node.args[0])
                for extra in node.args[1:]:
                    self._expr(extra)
                if isinstance(index_kind, str):
                    self._check_index(node, info, index_kind, func.value)
                return info.value_kind

        summary = self._resolve_summary(func)
        if summary is not None:
            self._check_args_against_summary(node, summary)
            return summary.return_kind

        method = func.attr if isinstance(func, ast.Attribute) else None
        receiver = _receiver_hint(func)
        if method is not None:
            entry = d.find_translation(method, receiver)
            if entry is not None:
                self._check_args_against_registry(node, entry)
                returns = entry.returns
                if isinstance(returns, tuple):
                    return tuple(r if isinstance(r, str) else None for r in returns)
                return returns if isinstance(returns, str) else None
            implied = d.heuristic_return_kind(method)
            if implied is not None:
                for arg in node.args:
                    self._expr(arg)
                for keyword in node.keywords:
                    self._expr(keyword.value)
                return implied

        # unknown callee: still walk arguments for nested violations
        if isinstance(func, ast.Attribute) and not isinstance(
            func.value, (ast.Name, ast.Attribute)
        ):
            self._expr(func.value)
        for arg in node.args:
            self._expr(arg)
        for keyword in node.keywords:
            self._expr(keyword.value)
        return None

    def _resolve_summary(self, func: ast.expr) -> Optional[FunctionSummary]:
        if isinstance(func, ast.Name):
            return self.model.resolve("", func.id)
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name) and value.id == "self":
                if self.summary.class_name:
                    return self.model.resolve(self.summary.class_name, func.attr)
        return None

    def _check_args_against_summary(
        self, node: ast.Call, summary: FunctionSummary
    ) -> None:
        for index, arg in enumerate(node.args):
            actual = self._expr(arg)
            if isinstance(arg, ast.Starred):
                break
            if index < len(summary.param_order):
                param = summary.param_order[index]
                expected = summary.param_kinds.get(param)
                self._check_arg(arg, actual, expected, summary.name, param)
        for keyword in node.keywords:
            actual = self._expr(keyword.value)
            if keyword.arg is not None:
                expected = summary.param_kinds.get(keyword.arg)
                self._check_arg(
                    keyword.value, actual, expected, summary.name, keyword.arg
                )

    def _check_args_against_registry(
        self, node: ast.Call, entry: d.Translation
    ) -> None:
        for index, arg in enumerate(node.args):
            actual = self._expr(arg)
            if isinstance(arg, ast.Starred):
                break
            expected = entry.params[index] if index < len(entry.params) else None
            self._check_arg(arg, actual, expected, entry.method, f"arg {index + 1}")
        for keyword in node.keywords:
            self._expr(keyword.value)

    def _check_arg(
        self,
        node: ast.AST,
        actual: ValueKind,
        expected: Optional[str],
        callee: str,
        param: str,
    ) -> None:
        if expected is None or not isinstance(actual, str):
            return
        if actual == expected or d.PLAIN in (actual, expected):
            return
        if actual in d.TIME_KINDS and expected in d.TIME_KINDS:
            self.report(
                "SF004",
                node,
                f"{callee}() expects {param} in {d.describe(expected)} but "
                f"receives {d.describe(actual)}; convert explicitly",
            )
            return
        if actual in d.ADDRESS_KINDS and expected in d.ADDRESS_KINDS:
            if d.LAYER[actual] != d.LAYER[expected]:
                hint = d.translation_hint(actual, expected)
                self.report(
                    "SF003",
                    node,
                    f"{d.describe(actual)} crosses the "
                    f"{d.LAYER[actual]}→{d.LAYER[expected]} boundary into "
                    f"{callee}() which expects {d.describe(expected)}; {hint}",
                )
            else:
                self.report(
                    "SF002",
                    node,
                    f"{callee}() declares {param} as {d.describe(expected)} "
                    f"but receives {d.describe(actual)}",
                )
            return
        # mixed categories (address vs time vs offset/count)
        self.report(
            "SF002",
            node,
            f"{callee}() declares {param} as {d.describe(expected)} "
            f"but receives {d.describe(actual)}",
        )


def check_module(tree: ast.Module, report: Report) -> None:
    """Run the flow checker over every function in a parsed module."""
    model = build_module(tree)
    for summary in model.functions.values():
        FlowChecker(model, summary, report).run()
