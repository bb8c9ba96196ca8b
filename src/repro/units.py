"""Typed domain quantities for FlatFlash's flat address space.

The simulator moves five different kinds of page number around — virtual
pages, host DRAM frames, host-visible device pages (BAR offsets), device
logical pages and NAND physical pages — plus byte offsets, page counts
and nanosecond latencies, all spelled ``int``.  This module gives each
of them a name:

======================  ==========================  ===============
type                    measures                    layer
======================  ==========================  ===============
:data:`VPN`             virtual page number         host
:data:`PFN`             host DRAM frame index       host
:data:`HostPage`        device page as exposed       interconnect
                        through the PCIe BAR
:data:`LPN`             device logical page (LBA)   ssd
:data:`PPN`             NAND physical page          ssd
:data:`BlockIndex`      NAND erase-block index      ssd
:data:`OffsetBytes`     byte offset within a page   —
:data:`SizePages`       a count of pages            —
:data:`TimeNs`          nanoseconds                 —
:data:`TimeUs`          microseconds                —
:data:`TimeCycles`      CPU cycles                  —
======================  ==========================  ===============

Each name is a ``typing.NewType`` over ``int``, used in annotations::

    def lookup(self, lpn: LPN) -> PPN: ...

Under ``from __future__ import annotations`` (used throughout the
simulator) the annotations cost nothing at runtime; the static pass
:mod:`repro.analysis.simflow` reads them as ground truth and checks
every call site against them.

Calling a domain type is a **sanctioned cast**: ``LPN(vpn)`` says "this
int now means a logical page" (e.g. regions tile the SSD's logical
space linearly, so the vpn→lpn map is the identity — but the *claim*
must be written down).  At run time the call returns its argument
unchanged; simflow treats it as a translation point.
"""

from __future__ import annotations

from typing import NewType

__all__ = [
    "VPN",
    "PFN",
    "HostPage",
    "LPN",
    "PPN",
    "BlockIndex",
    "OffsetBytes",
    "SizePages",
    "TimeNs",
    "TimeUs",
    "TimeCycles",
    "DOMAIN_TYPES",
]

VPN = NewType("VPN", int)
PFN = NewType("PFN", int)
HostPage = NewType("HostPage", int)
LPN = NewType("LPN", int)
PPN = NewType("PPN", int)
BlockIndex = NewType("BlockIndex", int)
OffsetBytes = NewType("OffsetBytes", int)
SizePages = NewType("SizePages", int)
TimeNs = NewType("TimeNs", int)
TimeUs = NewType("TimeUs", int)
TimeCycles = NewType("TimeCycles", int)

#: Annotation name -> simflow kind, consumed by the static analysis.
DOMAIN_TYPES = {
    "VPN": "VPN",
    "PFN": "PFN",
    "HostPage": "HOST_PAGE",
    "LPN": "LPN",
    "PPN": "PPN",
    "BlockIndex": "BLOCK",
    "OffsetBytes": "OFFSET_BYTES",
    "SizePages": "SIZE_PAGES",
    "TimeNs": "TIME_NS",
    "TimeUs": "TIME_US",
    "TimeCycles": "TIME_CYCLES",
}
