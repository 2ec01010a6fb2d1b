"""Memory-system substrate: cache simulators, stack-distance profiling,
reference traces, and a shared-address-space multiprocessor memory model.

This subpackage is the measurement instrument of the reproduction.  The
paper determines working sets by simulating fully associative LRU caches
of many sizes and looking for knees in the miss-rate-versus-cache-size
curve (Section 2.2).  We provide:

- :class:`~repro.mem.cache.FullyAssociativeCache` — one cache size, its
  hits read off the stack-distance engine (and
  :class:`~repro.mem.hierarchy.CacheHierarchy`, a cascade of them).
- :class:`~repro.mem.setassoc.SetAssociativeCache` — limited-associativity
  caches for the Section 6.4 discussion of direct-mapped caches.
- :class:`~repro.mem.stack_distance.StackDistanceProfiler` — Mattson's
  algorithm, which produces exact fully associative LRU miss rates at
  *every* cache size in a single pass over the trace.  Its engine,
  :class:`~repro.mem.stack_distance.StackDistanceRun`, is the one
  fully associative engine: every fully associative view above reads
  its hits off the per-reference depths.
- :class:`~repro.mem.multiproc.MultiprocessorMemory` — per-processor
  private infinite caches over a shared address space with
  write-invalidate sharing, which isolate the communication (coherence)
  misses.
"""

from repro.mem.address import AddressSpace, Region
from repro.mem.cache import CacheStats, FullyAssociativeCache
from repro.mem.multiproc import MultiprocessorMemory, ProcessorStats
from repro.mem.setassoc import SetAssociativeCache
from repro.mem.stack_distance import StackDistanceProfiler
from repro.mem.trace import Access, Trace, READ, WRITE

__all__ = [
    "Access",
    "AddressSpace",
    "CacheStats",
    "FullyAssociativeCache",
    "MultiprocessorMemory",
    "ProcessorStats",
    "READ",
    "Region",
    "SetAssociativeCache",
    "StackDistanceProfiler",
    "Trace",
    "WRITE",
]
