"""Host DRAM: a fixed pool of page frames with LRU eviction order.

Host DRAM is the scarce resource every experiment sweeps (SSD:DRAM ratio,
working-set:DRAM ratio).  The model is a frame allocator: frames are owned
by virtual pages, carry optional real payloads, and an LRU list supplies
eviction victims when the pool is full (§3.3: "the least-recently used
pages will be evicted out for free space in host DRAM").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional

from repro.sim.stats import StatRegistry


class Frame:
    """One physical page frame."""

    __slots__ = ("index", "vpn", "dirty", "data", "referenced")

    def __init__(self, index: int) -> None:
        self.index = index
        self.vpn: Optional[int] = None
        self.dirty = False
        self.data: Optional[bytearray] = None
        self.referenced = False

    @property
    def allocated(self) -> bool:
        return self.vpn is not None

    def __repr__(self) -> str:
        return f"Frame({self.index}, vpn={self.vpn}, dirty={self.dirty})"


class HostDRAM:
    """Frame pool with LRU ordering over allocated frames."""

    def __init__(
        self,
        num_frames: int,
        page_size: int,
        track_data: bool = True,
        stats: Optional[StatRegistry] = None,
    ) -> None:
        if num_frames <= 0:
            raise ValueError(f"num_frames must be > 0, got {num_frames}")
        if page_size <= 0:
            raise ValueError(f"page_size must be > 0, got {page_size}")
        self.num_frames = num_frames
        self.page_size = page_size
        self.track_data = track_data
        self.frames = [Frame(i) for i in range(num_frames)]
        self._free = list(range(num_frames - 1, -1, -1))
        self._lru: "OrderedDict[int, None]" = OrderedDict()  # frame idx, LRU first
        self._clock_hand = 0
        self.stats = stats if stats is not None else StatRegistry()
        self._allocations = self.stats.counter("dram.allocations")

    @property
    def free_frames(self) -> int:
        return len(self._free)

    @property
    def allocated_frames(self) -> int:
        return self.num_frames - len(self._free)

    @property
    def is_full(self) -> bool:
        return not self._free

    def allocate(self, vpn: int, data: Optional[bytes] = None) -> Optional[Frame]:
        """Take a free frame for ``vpn``; None when DRAM is full."""
        if not self._free:
            return None
        frame = self.frames[self._free.pop()]
        frame.vpn = vpn
        frame.dirty = False
        if self.track_data:
            if data is not None and len(data) != self.page_size:
                raise ValueError(
                    f"frame data must be {self.page_size} bytes, got {len(data)}"
                )
            frame.data = bytearray(data) if data is not None else bytearray(self.page_size)
        self._lru[frame.index] = None
        self._lru.move_to_end(frame.index)
        self._allocations.add()
        return frame

    def free(self, frame: Frame) -> None:
        """Return a frame to the pool."""
        if not frame.allocated:
            raise ValueError(f"frame {frame.index} is not allocated")
        self._lru.pop(frame.index, None)
        frame.vpn = None
        frame.dirty = False
        frame.data = None
        self._free.append(frame.index)

    def touch(self, frame: Frame) -> None:
        """Record a use, making the frame most-recently-used."""
        frame.referenced = True
        if frame.index in self._lru:
            self._lru.move_to_end(frame.index)

    def victim(self) -> Frame:
        """Second-chance (CLOCK) victim: skips recently referenced frames.

        Kernel-style scan-resistant reclaim: the hand sweeps allocated
        frames, clearing reference bits; the first unreferenced frame is
        the victim.  Frames touched since the last sweep survive, so hot
        (e.g. vertex-state) pages are not displaced by one-shot scans.
        """
        if not self._lru:
            raise RuntimeError("no allocated frames to evict")
        allocated = list(self._lru)
        sweeps = 0
        while sweeps < 2 * len(allocated):
            self._clock_hand %= len(allocated)
            frame = self.frames[allocated[self._clock_hand]]
            self._clock_hand += 1
            sweeps += 1
            if frame.referenced:
                frame.referenced = False
            else:
                return frame
        return self.frames[allocated[0]]  # every frame hot: degrade to FIFO

    def iter_lru(self) -> Iterator[Frame]:
        """Allocated frames from least- to most-recently used."""
        for index in self._lru:
            yield self.frames[index]

    # ------------------------------------------------------------------ #
    # Payload access
    # ------------------------------------------------------------------ #

    def read_bytes(self, frame: Frame, offset: int, size: int) -> Optional[bytes]:
        if frame.data is None:
            return None
        if offset < 0 or offset + size > self.page_size:
            raise ValueError(
                f"read [{offset}, {offset + size}) outside page of {self.page_size} bytes"
            )
        return bytes(frame.data[offset : offset + size])

    def write_bytes(self, frame: Frame, offset: int, data: bytes) -> None:
        frame.dirty = True
        if frame.data is None:
            return
        if offset < 0 or offset + len(data) > self.page_size:
            raise ValueError(
                f"write [{offset}, {offset + len(data)}) outside page "
                f"of {self.page_size} bytes"
            )
        frame.data[offset : offset + len(data)] = data
