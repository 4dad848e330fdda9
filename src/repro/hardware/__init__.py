"""The simulated SHRIMP hardware (systems S2-S9 in DESIGN.md).

Substitutes for the paper's physical prototype: Pentium PC nodes with
Xpress/EISA buses, the custom two-board network interface, the Paragon
mesh routing backplane, and the side Ethernet.
"""

from .bus import EisaBus
from .config import CacheMode, MachineConfig, SoftwareCosts
from .ethernet import Ethernet, EthernetFrame
from .machine import Machine
from .memory import FrameAllocator, MemoryError_, PhysicalMemory, Watch
from .node import Node

__all__ = [
    "CacheMode",
    "EisaBus",
    "Ethernet",
    "EthernetFrame",
    "FrameAllocator",
    "Machine",
    "MachineConfig",
    "MemoryError_",
    "Node",
    "PhysicalMemory",
    "SoftwareCosts",
    "Watch",
]
