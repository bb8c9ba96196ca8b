"""Domain vocabulary for simflow: kinds, heuristics, translation registry.

A *kind* classifies what an integer means.  The address kinds mirror
FlatFlash's layered address spaces (paper §3: virtual page → host frame
or BAR-window device page → device logical page → NAND physical page);
the unit kinds cover byte offsets, page counts and the time units the
simulator's ns-clock discipline cares about.

Kind inference is annotation-first: ``repro/units.py`` domain types in
a signature are ground truth, the translation registry below covers the
sanctioned cross-layer hops (page-table walk, FTL map, cache-set hash,
BAR resolve), and identifier-name heuristics fill the gaps for
unannotated code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.units import DOMAIN_TYPES

# --------------------------------------------------------------------------
# Kinds
# --------------------------------------------------------------------------

VPN = "VPN"  #: virtual page number (host address space)
PFN = "PFN"  #: host DRAM frame index
HOST_PAGE = "HOST_PAGE"  #: device page as exposed through the PCIe BAR
LPN = "LPN"  #: device logical page number (LBA space)
PPN = "PPN"  #: NAND physical page number
BLOCK = "BLOCK"  #: NAND erase-block index
OFFSET_BYTES = "OFFSET_BYTES"  #: byte offset within a page
SIZE_PAGES = "SIZE_PAGES"  #: a count of pages
TIME_NS = "TIME_NS"  #: nanoseconds
TIME_US = "TIME_US"  #: microseconds
TIME_CYCLES = "TIME_CYCLES"  #: CPU cycles
PLAIN = "PLAIN"  #: explicitly an ordinary number (no domain claim)

#: Kinds that name a page/block in some address space; SF001/SF002/SF003
#: police these.
ADDRESS_KINDS = frozenset({VPN, PFN, HOST_PAGE, LPN, PPN, BLOCK})

#: Time-unit kinds; SF004 polices these.
TIME_KINDS = frozenset({TIME_NS, TIME_US, TIME_CYCLES})

#: Which architectural layer owns each address kind.  Same-layer
#: confusion is SF002; crossing layers without a translation is SF003.
LAYER: Dict[str, str] = {
    VPN: "host",
    PFN: "host",
    HOST_PAGE: "interconnect",
    LPN: "ssd",
    PPN: "ssd",
    BLOCK: "ssd",
}

_DESCRIPTION = {
    VPN: "virtual page number",
    PFN: "host DRAM frame index",
    HOST_PAGE: "host-visible device page (BAR window)",
    LPN: "device logical page number",
    PPN: "NAND physical page number",
    BLOCK: "NAND erase-block index",
    OFFSET_BYTES: "byte offset",
    SIZE_PAGES: "page count",
    TIME_NS: "nanoseconds",
    TIME_US: "microseconds",
    TIME_CYCLES: "CPU cycles",
    PLAIN: "plain number",
}


def describe(kind: str) -> str:
    return f"{kind} ({_DESCRIPTION.get(kind, kind)})"


# --------------------------------------------------------------------------
# Identifier-name heuristics (fallback when no annotation applies)
# --------------------------------------------------------------------------

#: Exact identifier names with an unambiguous domain meaning in this
#: codebase.  Deliberately conservative: ``frame`` (a Frame object),
#: ``block`` (an erase-block index in ``repro.ssd``, other things
#: elsewhere), ``offset`` and ``size`` (page-local byte math everywhere)
#: are NOT mapped — annotation-only.
_EXACT_NAMES: Dict[str, str] = {
    "vpn": VPN,
    "pfn": PFN,
    "lpn": LPN,
    "ppn": PPN,
    "base_vpn": VPN,
    "frame_index": PFN,
    "frame_idx": PFN,
    "mem_tag": PFN,
    "host_page": HOST_PAGE,
    "ssd_page": HOST_PAGE,
    "ssd_tag": HOST_PAGE,
    "device_page": HOST_PAGE,
    "block_index": BLOCK,
    "block_idx": BLOCK,
    "now": TIME_NS,
}

_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_vpn", VPN),
    ("_pfn", PFN),
    ("_lpn", LPN),
    ("_ppn", PPN),
    ("_host_page", HOST_PAGE),
    ("_ssd_page", HOST_PAGE),
    ("_ssd_tag", HOST_PAGE),
    ("_ns", TIME_NS),
    ("_us", TIME_US),
    ("_cycles", TIME_CYCLES),
)


def heuristic_kind(name: str) -> Optional[str]:
    """Best-effort kind for an identifier, or ``None``.

    ALL_CAPS names are constants (``NS_PER_US`` is a conversion factor,
    not a time), and ``*_to_*`` / ``by_*`` names are containers — both
    are excluded.
    """
    if not name or name.isupper():
        return None
    if "_to_" in name or name.startswith("by_") or "_by_" in name:
        return None
    bare = name.lstrip("_")
    exact = _EXACT_NAMES.get(bare)
    if exact is not None:
        return exact
    for suffix, kind in _SUFFIXES:
        if bare.endswith(suffix):
            return kind
    return None


def heuristic_return_kind(func_name: str) -> Optional[str]:
    """Kind implied by a function's *name* for its return value.

    The ``*_ns`` / ``*_cost`` naming convention is already enforced by
    simlint SL003, so it is safe to lean on here.
    """
    bare = func_name.lstrip("_")
    if bare.endswith("_ns") or bare.endswith("_cost"):
        return TIME_NS
    if bare.endswith("_us"):
        return TIME_US
    if bare.endswith("_cycles"):
        return TIME_CYCLES
    return None


def container_name_kinds(name: str) -> Tuple[Optional[str], Optional[str]]:
    """(key_kind, value_kind) implied by a container's name.

    Recognises the ``<a>_to_<b>`` and ``by_<a>`` naming patterns used
    throughout the simulator (``_vpn_to_lpn``, ``_by_ssd_tag``).
    """
    bare = name.lstrip("_")
    if "_to_" in bare:
        left, _, right = bare.partition("_to_")
        return _EXACT_NAMES.get(left), _EXACT_NAMES.get(right)
    if bare.startswith("by_"):
        return _EXACT_NAMES.get(bare[3:]), None
    if "_by_" in bare:
        _, _, right = bare.partition("_by_")
        return _EXACT_NAMES.get(right), None
    return None, None


# --------------------------------------------------------------------------
# Annotation parsing
# --------------------------------------------------------------------------

_DICT_BASES = {"Dict", "dict", "DefaultDict", "defaultdict", "Mapping", "MutableMapping"}


def _terminal_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def annotation_kind(node: Optional[ast.expr]) -> Optional[str]:
    """Kind named by an annotation AST, scanning through ``Optional[...]``
    and ``Annotated[int, LPN]`` wrappers.  Returns the first domain-type
    name found, or ``None``."""
    if node is None:
        return None
    for sub in ast.walk(node):
        name = _terminal_name(sub) if isinstance(sub, (ast.Name, ast.Attribute)) else None
        if name in DOMAIN_TYPES:
            return DOMAIN_TYPES[name]
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # string annotation, e.g. "LPN"
            if sub.value in DOMAIN_TYPES:
                return DOMAIN_TYPES[sub.value]
    return None


def annotation_container(node: Optional[ast.expr]) -> Optional[Tuple[Optional[str], Optional[str]]]:
    """(key_kind, value_kind) for a ``Dict[K, V]``-shaped annotation."""
    if node is None:
        return None
    if isinstance(node, ast.Subscript) and _terminal_name(node.value) in _DICT_BASES:
        sl = node.slice
        if isinstance(sl, ast.Tuple) and len(sl.elts) == 2:
            return annotation_kind(sl.elts[0]), annotation_kind(sl.elts[1])
    return None


def annotation_tuple(node: Optional[ast.expr]) -> Optional[Tuple[Optional[str], ...]]:
    """Element kinds for a ``Tuple[A, B, ...]`` return annotation."""
    if node is None:
        return None
    if isinstance(node, ast.Subscript) and _terminal_name(node.value) in {"Tuple", "tuple"}:
        sl = node.slice
        if isinstance(sl, ast.Tuple):
            return tuple(annotation_kind(elt) for elt in sl.elts)
    return None


# --------------------------------------------------------------------------
# Translation registry: the sanctioned cross-domain hops
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Translation:
    """One sanctioned translation/consumer signature.

    ``receivers`` restricts matching to attribute calls whose receiver's
    last identifier is listed (``self.ftl.lookup`` → ``"ftl"``); ``None``
    matches any receiver.  ``params`` gives the expected kind per
    positional argument (``None`` = unchecked).  ``returns`` is a kind,
    a tuple of kinds (for tuple returns), or ``None``.  ``pun`` marks
    the two host/ssd page-pun resolvers whose *bodies* are exempt from
    domain checking — they exist to cross the streams.
    """

    method: str
    receivers: Optional[Tuple[str, ...]]
    params: Tuple[Optional[str], ...]
    returns: object = None
    description: str = ""
    pun: bool = False


REGISTRY: Tuple[Translation, ...] = (
    # host: page-table walk & TLB (VPN consumers)
    Translation("walk", ("page_table",), (VPN,), (None, TIME_NS), "page-table walk"),
    Translation("entry", ("page_table",), (VPN,), None, "page-table entry"),
    Translation("lookup", ("page_table",), (VPN,), None, "page-table lookup"),
    Translation("lookup", ("tlb",), (VPN,), None, "TLB probe"),
    Translation("fill", ("tlb",), (VPN,), None, "TLB fill"),
    Translation("invalidate", ("tlb",), (VPN,), TIME_NS, "TLB shootdown"),
    Translation("allocate", ("dram",), (VPN,), None, "frame allocation"),
    # interconnect: PLB + bridge routing (HOST_PAGE consumers)
    Translation(
        "start", ("plb",), (HOST_PAGE, PFN, None, TIME_NS), None, "PLB fill start"
    ),
    Translation("lookup", ("plb",), (HOST_PAGE,), None, "PLB probe"),
    Translation("ssd_addr", ("bridge",), (HOST_PAGE, OFFSET_BYTES), PLAIN, "SSD address forge"),
    # ssd: FTL map — the LPN→PPN translation proper
    Translation("lookup", ("ftl",), (LPN,), PPN, "FTL map lookup"),
    Translation("lpn_of", ("ftl",), (PPN,), LPN, "FTL reverse map"),
    Translation("map_page", ("ftl",), (LPN,), (PPN, TIME_NS), "FTL map fill"),
    Translation("write", ("ftl",), (LPN, None), (PPN, TIME_NS), "FTL out-of-place write"),
    Translation("read", ("ftl",), (LPN,), None, "FTL read"),
    Translation("is_mapped", ("ftl",), (LPN,), None, "FTL map probe"),
    # ssd: cache (keyed by LPN)
    Translation("lookup", ("cache",), (LPN,), None, "SSD-cache lookup"),
    Translation("peek", ("cache",), (LPN,), None, "SSD-cache peek"),
    Translation("insert", ("cache",), (LPN, None), None, "SSD-cache insert"),
    Translation("invalidate", ("cache",), (LPN,), None, "SSD-cache invalidate"),
    # ssd: NAND array (PPN/BLOCK consumers)
    Translation("read", ("flash",), (PPN,), (None, TIME_NS, None), "NAND page read"),
    Translation("program", ("flash",), (PPN, None), (TIME_NS, None), "NAND page program"),
    Translation("invalidate", ("flash",), (PPN,), None, "NAND page invalidate"),
    Translation("erase", ("flash",), (BLOCK,), (TIME_NS, None), "NAND block erase"),
    # device boundary: the BAR-window page pun (HOST_PAGE ↔ LPN)
    Translation(
        "resolve_lpn", None, (HOST_PAGE,), LPN, "BAR page → logical page", pun=True
    ),
    Translation(
        "host_page_of", None, (LPN,), HOST_PAGE, "logical page → BAR page", pun=True
    ),
    Translation("map_page", ("ssd", "device"), (LPN,), (HOST_PAGE, TIME_NS), "device map"),
    Translation(
        "write_page_block",
        ("ssd", "device"),
        (LPN, None),
        (HOST_PAGE, TIME_NS),
        "device page write",
    ),
    Translation(
        "read_page_for_promotion",
        ("ssd", "device"),
        (HOST_PAGE,),
        None,
        "promotion DMA read",
    ),
    Translation("mmio_read", ("ssd", "device"), (HOST_PAGE,), (None, TIME_NS), "MMIO read"),
    Translation("mmio_write", ("ssd", "device"), (HOST_PAGE,), TIME_NS, "MMIO write"),
    Translation("drain_remaps", ("ssd", "device"), (), (None, TIME_NS), "remap drain"),
    # core: region bookkeeping (VPN → LPN is linear tiling, but must be cast)
    Translation("lpn_of_vpn", None, (VPN,), LPN, "region vpn→lpn map"),
)

#: Function names whose bodies are exempt from SF checks — the
#: sanctioned pun points that deliberately cross layer families.
PUN_FUNCTIONS = frozenset(t.method for t in REGISTRY if t.pun)


def find_translation(method: str, receiver: Optional[str]) -> Optional[Translation]:
    """Registry entry matching a call, preferring receiver-specific rows."""
    fallback: Optional[Translation] = None
    for entry in REGISTRY:
        if entry.method != method:
            continue
        if entry.receivers is None:
            fallback = fallback or entry
        elif receiver is not None and receiver in entry.receivers:
            return entry
    return fallback


def translation_hint(actual: str, expected: str) -> str:
    """Human hint naming the registered translation from one kind to another."""
    for entry in REGISTRY:
        returns = entry.returns
        ret_kinds: Tuple[object, ...]
        if isinstance(returns, tuple):
            ret_kinds = returns
        else:
            ret_kinds = (returns,)
        if expected in ret_kinds and entry.params[:1] == (actual,):
            return f"translate via {entry.method}() ({entry.description})"
    return f"no registered {actual}→{expected} translation exists"


# --------------------------------------------------------------------------
# Containers discovered from annotations
# --------------------------------------------------------------------------


@dataclass
class ContainerInfo:
    """Key/value kinds for one dict-like container."""

    key_kind: Optional[str] = None
    value_kind: Optional[str] = None


@dataclass
class ContainerTable:
    """Containers by (class_name, attr_or_var_name); '' = module scope."""

    table: Dict[Tuple[str, str], ContainerInfo] = field(default_factory=dict)

    def record(
        self, class_name: str, name: str, kinds: Tuple[Optional[str], Optional[str]]
    ) -> None:
        key_kind, value_kind = kinds
        if key_kind is None and value_kind is None:
            return
        self.table[(class_name, name)] = ContainerInfo(key_kind, value_kind)

    def lookup(self, class_name: str, name: str) -> Optional[ContainerInfo]:
        info = self.table.get((class_name, name))
        if info is not None:
            return info
        key_kind, value_kind = container_name_kinds(name)
        if key_kind is None and value_kind is None:
            return None
        return ContainerInfo(key_kind, value_kind)
