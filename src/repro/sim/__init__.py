"""Reduced-fidelity cycle-level simulation substrate.

The original study used Flexus (cycle-accurate, full-system SPARC simulation).
This package is the substitute (see ``repro.sim`` in ``docs/architecture.md``):
a discrete-event, trace-driven multi-core simulator with

* trace-driven cores with a bounded outstanding-miss window (emergent
  memory-level parallelism),
* set-associative L1 and banked NUCA LLC models with LRU replacement and MSHRs,
* a directory that tracks L1 sharers and generates invalidation / forwarding
  snoops,
* bandwidth-limited DRAM channels with a fixed access latency, and
* interconnect latency supplied by the analytic topology models.

It exists to exercise the full cache/coherence/NoC code path and to validate the
analytic model's trends (Figure 3.3), not to re-derive microarchitecture.
"""

from repro.sim.engine import EventQueue
from repro.sim.cache import SetAssociativeCache, CacheStats
from repro.sim.directory import Directory, DirectoryStats
from repro.sim.memctrl import MemoryChannelSim
from repro.sim.core import TraceDrivenCore
from repro.sim.stats import SimulationStats
from repro.sim.system import SimulatedSystem, simulate_system

__all__ = [
    "EventQueue",
    "SetAssociativeCache",
    "CacheStats",
    "Directory",
    "DirectoryStats",
    "MemoryChannelSim",
    "TraceDrivenCore",
    "SimulationStats",
    "SimulatedSystem",
    "simulate_system",
]
