"""Byte-addressable SSD substrate: flash, FTL, SSD-Cache, GC, device."""

from repro.ssd.device import ByteAddressableSSD
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import PageFTL
from repro.ssd.gc import GarbageCollector
from repro.ssd.rrip import RRIPSet
from repro.ssd.ssd_cache import SSDCache

__all__ = [
    "FlashArray",
    "PageFTL",
    "RRIPSet",
    "SSDCache",
    "GarbageCollector",
    "ByteAddressableSSD",
]
