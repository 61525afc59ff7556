"""Memory subsystem: transactional main memory, L1 cache, data layout.

Sec. III-A: *"The simulator's memory is represented as a 1D byte array with
a predefined capacity.  Memory modules operate in a transactional mode.
Functional blocks that request data from memory generate an object
representing a transaction.  Upon registration, memory management populates
this object with information about the transaction's completion time."*
"""

from repro.memory.transaction import MemoryTransaction
from repro.memory.main_memory import MainMemory
from repro.memory.replacement import (
    ReplacementPolicy,
    LruPolicy,
    FifoPolicy,
    RandomPolicy,
    make_policy,
)
from repro.memory.cache import Cache, CacheConfig, CacheStats
from repro.memory.layout import MemoryLocation, export_csv, import_csv

__all__ = [
    "MemoryTransaction",
    "MainMemory",
    "ReplacementPolicy",
    "LruPolicy",
    "FifoPolicy",
    "RandomPolicy",
    "make_policy",
    "Cache",
    "CacheConfig",
    "CacheStats",
    "MemoryLocation",
    "export_csv",
    "import_csv",
]
