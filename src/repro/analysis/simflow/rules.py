"""simflow rule catalogue.

Unlike simlint (independent per-rule AST visitors), simflow's five
rules are all facets of one flow analysis — the checker in
:mod:`repro.analysis.simflow.model` emits every code in a single walk.
The descriptors here name and explain each code for the docs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RuleInfo:
    code: str
    title: str
    explanation: str
    sim_scope_only: bool = True


RULES = (
    RuleInfo(
        "SF001",
        "arithmetic/comparison mixes two address domains",
        "Adding, subtracting or ordering a vpn against an lpn (or any two "
        "of VPN/PFN/HOST_PAGE/LPN/PPN/BLOCK) has no meaning — the spaces "
        "are only related through the page table, FTL map or BAR window. "
        "Route the value through a registered translation first.",
    ),
    RuleInfo(
        "SF002",
        "argument domain contradicts the callee's declared domain",
        "A call passes a value of one address domain where the signature "
        "(repro.units annotation, name heuristic, or registry entry) "
        "declares another domain of the same architectural layer — e.g. "
        "an LPN where a PPN is expected. The classic FTL bug class.",
    ),
    RuleInfo(
        "SF003",
        "address crosses a layer boundary without a translation",
        "A host-layer value (VPN/PFN) flows into an ssd-layer consumer "
        "(LPN/PPN/BLOCK) or vice versa, or an interconnect HOST_PAGE "
        "leaks past the BAR window, without passing a registered "
        "translation (page-table walk, FTL map, resolve_lpn/host_page_of, "
        "lpn_of_vpn). The message names the sanctioned translation.",
    ),
    RuleInfo(
        "SF004",
        "time-unit mixing (ns vs µs vs cycles)",
        "Nanoseconds, microseconds and CPU cycles met in arithmetic, a "
        "comparison or a call without an explicit conversion. The "
        "simulator's clock is ns-only; convert via NS_PER_US (or an "
        "explicit cycles-per-ns factor) at the boundary.",
    ),
    RuleInfo(
        "SF005",
        "container keyed by one domain, indexed by another",
        "A dict declared (or named) as keyed by one address domain is "
        "subscripted, probed (in / get / pop / setdefault) or assigned "
        "with a key from a different domain — e.g. indexing the FTL's "
        "lpn→ppn map with a ppn.",
    ),
)
