"""Snoop logic: watches all writes on the Xpress memory bus.

'Automatic update is implemented by having the SHRIMP network interface
hardware snoop all writes on the memory bus.  If the write is to an
address that has an automatic update binding, the hardware builds a
packet containing the destination address and the written value.'

The node CPU calls :meth:`SnoopLogic.on_write` after every store it
performs (the Xpress card carries the bus signals to the NIC).  Writes
are split at page boundaries before the OPT lookup, since bindings are
per page.
"""

from __future__ import annotations

from ..config import MachineConfig
from .opt import OutgoingPageTable
from .packetizer import Packetizer

__all__ = ["SnoopLogic"]


class SnoopLogic:
    """The memory-bus snooper of one NIC."""

    def __init__(self, config: MachineConfig, opt: OutgoingPageTable, packetizer: Packetizer):
        self.config = config
        self.opt = opt
        self.packetizer = packetizer
        self.writes_seen = 0
        self.writes_matched = 0

    def on_write(self, paddr: int, data: bytes) -> None:
        """Process one bus write of ``data`` at physical address ``paddr``."""
        self.writes_seen += 1
        page_size = self.config.page_size
        nbytes = len(data)
        page, page_offset = divmod(paddr, page_size)
        if 0 < nbytes <= page_size - page_offset:
            # One page (nearly every CPU store): one OPT lookup.
            entry = self.opt.lookup(page)
            if entry is not None:
                self.writes_matched += 1
                self.packetizer.au_write(page_offset, data, entry)
            return
        offset = 0
        while offset < nbytes:
            addr = paddr + offset
            page, page_offset = divmod(addr, page_size)
            chunk = min(nbytes - offset, page_size - page_offset)
            entry = self.opt.lookup(page)
            if entry is not None:
                self.writes_matched += 1
                self.packetizer.au_write(page_offset, data[offset : offset + chunk], entry)
            offset += chunk
