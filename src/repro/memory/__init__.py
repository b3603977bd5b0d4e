"""Simplified GPU memory hierarchy: L1 slices, shared L2, HBM, scratchpad."""

from .cache import Cache, CacheStats
from .dram import DRAM, DRAMStats
from .shared_memory import SharedMemory, SharedMemoryStats
from .subsystem import AccessResult, MemorySubsystem, build_dram, build_l2

__all__ = [
    "Cache",
    "CacheStats",
    "DRAM",
    "DRAMStats",
    "AccessResult",
    "SharedMemory",
    "SharedMemoryStats",
    "MemorySubsystem",
    "build_dram",
    "build_l2",
]
