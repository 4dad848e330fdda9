"""Per-node physical memory: real bytes, page frames, and write watches.

Data integrity is a first-class concern of this reproduction (DESIGN.md
decision 1): every transfer moves actual bytes through these arrays, so
tests can assert that what was sent is what arrived, in order.

Pages are allocated lazily (a 40 MB `bytearray` per node times N nodes
would be wasteful for microbenchmarks that touch a few hundred KB).

Watchpoints let a simulated process "poll a flag" without burning one
simulation event per spin iteration: the poller registers a watch on the
flag's address and is re-checked whenever *any* write (CPU or incoming
DMA) touches the watched range.  The CPU cost of the detecting check is
charged by the caller (see ``UserProcess.poll``), preserving the paper's
cost structure while keeping the event count proportional to real work.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .config import MachineConfig

__all__ = ["MemoryError_", "Watch", "PhysicalMemory", "FrameAllocator"]


class MemoryError_(Exception):
    """Physical-address out of range or frame exhaustion.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class Watch:
    """A registered write-watch over ``[start, start+length)``.

    ``callback(paddr, nbytes)`` fires for every write overlapping the
    range, after the bytes have been stored.  Deregister with
    :meth:`PhysicalMemory.remove_watch`.
    """

    __slots__ = ("start", "length", "callback", "active", "_id")

    def __init__(self, start: int, length: int, callback: Callable[[int, int], None]):
        self.start = start
        self.length = length
        self.callback = callback
        self.active = True
        self._id = 0  # registration order, set by PhysicalMemory.add_watch

    def overlaps(self, paddr: int, nbytes: int) -> bool:
        """Does a write at ``paddr`` of ``nbytes`` touch this watch?"""
        return paddr < self.start + self.length and self.start < paddr + nbytes


class PhysicalMemory:
    """The DRAM of one node, addressed by physical byte address."""

    def __init__(self, config: MachineConfig, node_id: int = 0):
        self.config = config
        self.node_id = node_id
        self.size = config.memory_bytes
        self.page_size = config.page_size
        self._pages: Dict[int, bytearray] = {}
        # Watches are bucketed by the page(s) they span, so a write only
        # scans the watchers of the pages it touches (pollers register
        # and remove watches every sleep, and writes far outnumber
        # matches).  ``_watch_count``/``_watch_seq`` keep the public
        # count and the deterministic registration order.
        self._watch_pages: Dict[int, List[Watch]] = {}
        self._watch_count = 0
        self._watch_seq = 0
        self.bytes_written = 0
        self.bytes_read = 0

    # -- bounds ------------------------------------------------------------
    def _check(self, paddr: int, nbytes: int) -> None:
        if nbytes < 0:
            raise MemoryError_("negative length %d" % nbytes)
        if paddr < 0 or paddr + nbytes > self.size:
            raise MemoryError_(
                "physical access [%#x, %#x) outside node %d memory (%#x bytes)"
                % (paddr, paddr + nbytes, self.node_id, self.size)
            )

    def _page(self, page_number: int) -> bytearray:
        page = self._pages.get(page_number)
        if page is None:
            page = bytearray(self.page_size)
            self._pages[page_number] = page
        return page

    # -- access --------------------------------------------------------------
    def read(self, paddr: int, nbytes: int) -> bytes:
        """Read ``nbytes`` starting at ``paddr`` (may span pages)."""
        if nbytes < 0 or paddr < 0 or paddr + nbytes > self.size:
            self._check(paddr, nbytes)
        self.bytes_read += nbytes
        page_size = self.page_size
        page_number, page_offset = divmod(paddr, page_size)
        if page_offset + nbytes <= page_size:
            # Fast path: the read sits inside one page (flag polls and
            # small transfers, i.e. almost everything).
            page = self._pages.get(page_number)
            if page is None:
                return bytes(nbytes)
            return bytes(page[page_offset : page_offset + nbytes])
        out = bytearray(nbytes)
        offset = 0
        while offset < nbytes:
            addr = paddr + offset
            page_number, page_offset = divmod(addr, page_size)
            chunk = min(nbytes - offset, page_size - page_offset)
            page = self._pages.get(page_number)
            if page is not None:
                out[offset : offset + chunk] = page[page_offset : page_offset + chunk]
            offset += chunk
        return bytes(out)

    def write(self, paddr: int, data: bytes) -> None:
        """Store ``data`` at ``paddr`` and fire overlapping watches."""
        nbytes = len(data)
        if nbytes < 0 or paddr < 0 or paddr + nbytes > self.size:
            self._check(paddr, nbytes)
        self.bytes_written += nbytes
        page_size = self.page_size
        page_number, page_offset = divmod(paddr, page_size)
        if page_offset + nbytes <= page_size:
            page = self._pages.get(page_number)
            if page is None:
                page = bytearray(page_size)
                self._pages[page_number] = page
            page[page_offset : page_offset + nbytes] = data
            # Most stores land on pages nobody watches: skip the scan.
            if self._watch_count and page_number in self._watch_pages:
                self._fire_watches(paddr, nbytes)
            return
        offset = 0
        while offset < nbytes:
            addr = paddr + offset
            page_number, page_offset = divmod(addr, page_size)
            chunk = min(nbytes - offset, page_size - page_offset)
            self._page(page_number)[page_offset : page_offset + chunk] = data[
                offset : offset + chunk
            ]
            offset += chunk
        if self._watch_count:
            self._fire_watches(paddr, nbytes)

    def _fire_watches(self, paddr: int, nbytes: int) -> None:
        first_page = paddr // self.page_size
        last_page = (paddr + nbytes - 1) // self.page_size if nbytes else first_page
        watch_pages = self._watch_pages
        if last_page == first_page:
            bucket = watch_pages.get(first_page)
            if not bucket:
                return
            matches = [w for w in bucket
                       if w.active and w.start < paddr + nbytes
                       and paddr < w.start + w.length]
        else:
            matches = []
            for page in range(first_page, last_page + 1):
                bucket = watch_pages.get(page)
                if bucket:
                    matches.extend(
                        w for w in bucket
                        if w.active and w.start < paddr + nbytes
                        and paddr < w.start + w.length)
            if len(matches) > 1:
                # A watch spanning a page boundary appears in several
                # buckets; fire each watch once, in registration order.
                matches = sorted(set(matches), key=lambda w: w._id)
        # Callbacks may add/remove watches (typical: a poll that
        # matched); ``matches`` is already a private snapshot.
        for watch in matches:
            if watch.active:
                watch.callback(paddr, nbytes)

    # -- watches ---------------------------------------------------------------
    def add_watch(
        self, paddr: int, nbytes: int, callback: Callable[[int, int], None]
    ) -> Watch:
        """Watch writes to ``[paddr, paddr+nbytes)``."""
        self._check(paddr, nbytes)
        watch = Watch(paddr, nbytes, callback)
        self._watch_seq += 1
        watch._id = self._watch_seq
        first_page = paddr // self.page_size
        last_page = (paddr + nbytes - 1) // self.page_size if nbytes else first_page
        for page in range(first_page, last_page + 1):
            bucket = self._watch_pages.get(page)
            if bucket is None:
                bucket = self._watch_pages[page] = []
            bucket.append(watch)
        self._watch_count += 1
        return watch

    def remove_watch(self, watch: Watch) -> None:
        """Deregister a watch (harmless if already removed)."""
        if not watch.active:
            return
        watch.active = False
        self._watch_count -= 1
        first_page = watch.start // self.page_size
        end = watch.start + watch.length
        last_page = (end - 1) // self.page_size if watch.length else first_page
        for page in range(first_page, last_page + 1):
            bucket = self._watch_pages.get(page)
            if bucket is not None:
                try:
                    bucket.remove(watch)
                except ValueError:
                    pass
                if not bucket:
                    del self._watch_pages[page]

    @property
    def watch_count(self) -> int:
        return self._watch_count

    @property
    def resident_pages(self) -> int:
        """Number of lazily-materialized page frames (for tests)."""
        return len(self._pages)


class FrameAllocator:
    """Hands out physical page frames of one node's memory.

    The SHRIMP daemon uses this (via the OS) to place pinned receive
    buffers; user address spaces use it for ordinary anonymous pages.
    Frame 0 is reserved so that physical address 0 never appears in user
    mappings (catching uninitialized-address bugs).
    """

    def __init__(self, config: MachineConfig):
        self.config = config
        self.total_frames = config.memory_pages
        self._next_frame = 1
        self._free: List[int] = []

    def allocate(self, nframes: int) -> List[int]:
        """Allocate ``nframes`` physical frames (not necessarily contiguous)."""
        if nframes <= 0:
            raise ValueError("nframes must be positive")
        frames: List[int] = []
        while self._free and len(frames) < nframes:
            frames.append(self._free.pop())
        remaining = nframes - len(frames)
        if self._next_frame + remaining > self.total_frames:
            # Roll back partial allocation before failing.
            self._free.extend(frames)
            raise MemoryError_(
                "out of physical frames: want %d, have %d"
                % (remaining, self.total_frames - self._next_frame)
            )
        for _ in range(remaining):
            frames.append(self._next_frame)
            self._next_frame += 1
        return frames

    def allocate_contiguous(self, nframes: int) -> int:
        """Allocate ``nframes`` adjacent frames; returns the first frame.

        Pinned receive-buffer regions use contiguous frames so a single
        incoming DMA can be bounds-checked with one IPT range.
        """
        if nframes <= 0:
            raise ValueError("nframes must be positive")
        if self._next_frame + nframes > self.total_frames:
            raise MemoryError_("out of contiguous physical frames")
        first = self._next_frame
        self._next_frame += nframes
        return first

    def free(self, frames: List[int]) -> None:
        """Return frames to the free pool."""
        self._free.extend(frames)

    @property
    def frames_in_use(self) -> int:
        return self._next_frame - 1 - len(self._free)
