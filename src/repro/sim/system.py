"""System assembly: cores + NUCA LLC + directory + memory channels.

:class:`SimulatedSystem` wires together the simulation components for one pod (or
one whole-die coherence domain), runs the synthetic traces, and reports the same
aggregate statistics the paper extracts from Flexus: aggregate IPC, LLC miss
rates, snoop fractions, and memory traffic.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

from repro.caches.nuca import NucaLLC
from repro.cores.models import core_model
from repro.memory.dram import channel_for_standard
from repro.perfmodel.analytic import SystemConfig
from repro.sim.cache import SetAssociativeCache
from repro.sim.core import TraceDrivenCore
from repro.sim.directory import Directory
from repro.sim.memctrl import MemoryChannelSim
from repro.sim.stats import SimulationStats
from repro.workloads.profile import WorkloadProfile
from repro.workloads.traces import CoreTrace, SyntheticTraceGenerator

if TYPE_CHECKING:
    import ctypes

#: Regions the warm-up installs, in criticality order.
_WARM_REGIONS = ("instructions", "shared_small", "shared_hot", "capturable")


class SimulatedSystem:
    """A simulated pod: cores sharing a banked LLC behind an interconnect.

    Args:
        workload: workload profile driving the synthetic traces.
        config: system configuration (cores, core type, LLC, interconnect, node).
        memory_channels: number of DRAM channels; defaults to one per eight cores.
        seed: RNG seed for trace generation.

    Raises:
        ValueError: if ``memory_channels`` is below one.
    """

    #: LLC bank service time (cycles a bank is occupied per access).
    BANK_SERVICE_CYCLES = 2.0

    def __init__(
        self,
        workload: WorkloadProfile,
        config: SystemConfig,
        memory_channels: "int | None" = None,
        seed: int = 1,
    ):
        self.workload = workload
        self.config = config
        self.seed = seed
        self.node = config.node
        self.core = core_model(config.core_type)

        llc = config.llc()
        self.num_banks = llc.num_banks
        bank_bytes = int(llc.bank_capacity_mb * 1024 * 1024)
        self.banks = [
            SetAssociativeCache(bank_bytes, llc.associativity, llc.line_bytes, name=f"llc{b}")
            for b in range(self.num_banks)
        ]
        self._bank_next_free = [0.0] * self.num_banks
        self.bank_latency = llc.bank_access_latency_cycles
        self.network_latency = config.resolved_interconnect().latency_cycles(
            config.floorplan(), self.node
        )
        self.directory = Directory(line_bytes=llc.line_bytes)

        if memory_channels is None:
            memory_channels = max(1, config.cores // 8)
        if memory_channels < 1:
            raise ValueError("memory_channels must be >= 1")
        dram = channel_for_standard(self.node.memory_standard)
        self.channels = [
            MemoryChannelSim(dram, self.node, llc.line_bytes) for _ in range(memory_channels)
        ]

        self.stats = SimulationStats()
        self._line_bytes = llc.line_bytes
        self._ran = False

    # ----------------------------------------------------------------- routing
    def _bank_for(self, address: int) -> int:
        return (address // self._line_bytes) % self.num_banks

    def _bank_local_address(self, address: int) -> int:
        """Address as seen by the selected bank (bank-interleaving bits stripped).

        Without stripping the interleaving bits, every line routed to bank ``b``
        would also index the same subset of the bank's sets, wasting most of the
        bank's capacity.
        """
        line = address // self._line_bytes
        return (line // self.num_banks) * self._line_bytes + (address % self._line_bytes)

    def _channel_for(self, address: int) -> int:
        # Interleave channels on the line bits above the bank-select bits; using
        # the same low bits as _bank_for would tie channel choice to bank choice
        # (e.g. with channels dividing banks, each bank's lines would all land
        # on one channel), serializing that bank's misses behind one channel.
        line = address // self._line_bytes
        return (line // self.num_banks) % len(self.channels)

    # ------------------------------------------------------------ LLC servicing
    def llc_request(
        self, core_id: int, address: int, is_write: bool, is_instruction: bool, now: float
    ) -> float:
        """Service one L1 miss; returns the total latency seen by the core."""
        self.stats.llc_accesses += 1
        self.stats.network_latency_cycles_total += self.network_latency

        bank_id = self._bank_for(address)
        bank = self.banks[bank_id]
        local_address = self._bank_local_address(address)

        # Bank contention: the access occupies the bank for a fixed service time.
        start = max(now + self.network_latency, self._bank_next_free[bank_id])
        self._bank_next_free[bank_id] = start + self.BANK_SERVICE_CYCLES
        queue_delay = start - (now + self.network_latency)

        snoops = self.directory.access(core_id, address, is_write)
        self.stats.snoops += snoops
        snoop_delay = snoops * self.network_latency if snoops and is_write else 0.0

        hit = bank.access(local_address, is_write)
        latency = self.network_latency + queue_delay + self.bank_latency + snoop_delay
        if not hit:
            self.stats.llc_misses += 1
            self.stats.memory_reads += 1
            channel = self.channels[self._channel_for(address)]
            completion = channel.request(start + self.bank_latency)
            latency = (completion - now) + self.network_latency  # response traversal
            evicted = bank.fill(local_address, dirty=is_write)
            if evicted is not None:
                # The bank names its victim by bank-local address; the
                # directory tracks global lines.
                victim_line = evicted // self._line_bytes * self.num_banks + bank_id
                self.directory.evict(victim_line * self._line_bytes)
        return latency

    # ----------------------------------------------------------------- warmup
    def warm_caches(self, generator: SyntheticTraceGenerator) -> None:
        """Pre-fill the LLC with the warm working set (the paper's warmed checkpoints).

        The measurement methodology of Sections 3.3 and 4.3.4 launches simulations
        from checkpoints with warmed caches; without warmup a short measurement
        window would see compulsory misses for the entire instruction footprint and
        secondary working set.  Regions are installed in criticality order
        (instructions, shared OS data, hot shared lines, secondary working set)
        until 95% of the LLC's lines are used, so smaller LLCs naturally hold less
        of the capturable content.  A region's lines are consecutive, so its
        share of each bank is a run of consecutive bank-local lines.
        Each bank takes its share in one
        :meth:`SetAssociativeCache.install`, which leaves exactly the state of
        filling the lines one at a time (:func:`_reference_warm_caches`).
        """
        total_lines = sum(bank.num_sets * bank.associativity for bank in self.banks)
        budget = int(total_lines * 0.95)
        line_bytes, num_banks = self._line_bytes, self.num_banks
        per_bank: "list[list[np.ndarray]]" = [[] for _ in self.banks]
        for region_name in _WARM_REGIONS:
            region = generator.regions[region_name]
            first = region.base // line_bytes
            count = min(max(1, region.size_bytes // line_bytes), budget)
            budget -= count
            # The region's lines first .. first + count - 1 that map to bank b
            # are every num_banks-th line from the first one that does; the
            # bank sees them as consecutive local lines.
            for bank_id, chunks in enumerate(per_bank):
                skip = (bank_id - first) % num_banks
                if skip < count:
                    local = (first + skip) // num_banks
                    chunks.append(np.arange(local, local + (count - skip - 1) // num_banks + 1))
        for bank, chunks in zip(self.banks, per_bank):
            if chunks:
                bank.install(np.concatenate(chunks) * line_bytes)

    # -------------------------------------------------------------------- run
    def run(self, instructions_per_core: int = 20_000, warmup: bool = True) -> SimulationStats:
        """Generate traces, run every core, and aggregate the statistics.

        A system runs once: its caches, directory and statistics carry the
        state of that run.  The measured window runs in the compiled kernel
        (:mod:`repro.sim.kernel`) when :func:`repro.service.native.load`
        provides it and the system has at most
        :data:`~repro.sim.kernel.MAX_CORES` cores, else in the Python model;
        both leave identical statistics and state.  Under an enabled tracer
        each run counts ``sim.kernel.c`` or ``sim.kernel.python``.

        Raises:
            ValueError: if ``instructions_per_core`` is not positive.
            RuntimeError: if the system has already run.
        """
        if instructions_per_core <= 0:
            raise ValueError("instructions_per_core must be positive")
        if self._ran:
            raise RuntimeError("SimulatedSystem.run() is one-shot; build a new system to rerun")
        self._ran = True
        # The kernel machinery is imported on the first run, off the
        # package's import time.
        from repro.obs.tracer import get_tracer
        from repro.service import native
        from repro.sim import kernel

        generator = SyntheticTraceGenerator(
            self.workload,
            cores=self.config.cores,
            seed=self.seed,
            core_type=self.core.name,
        )
        if warmup:
            self.warm_caches(generator)
        traces = [
            generator.events_for_core(c, instructions_per_core) for c in range(self.config.cores)
        ]
        library = native.load() if len(traces) <= kernel.MAX_CORES else None
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter(f"sim.kernel.{'python' if library is None else 'c'}").add()
        return self._measure(traces, library)

    def _measure(
        self, traces: "list[CoreTrace]", library: "ctypes.CDLL | None"
    ) -> SimulationStats:
        """Run the measured window on ``library``'s kernel (``None``: in Python)."""
        from repro.sim import kernel

        if library is None:
            cycles, instructions = self._run_cores(traces)
        else:
            cycles, instructions = kernel.run_window(library, self, traces)
        self.stats.per_core_cycles.extend(cycles)
        self.stats.per_core_instructions.extend(instructions)
        self.stats.instructions += sum(instructions)
        self.stats.cycles = max(self.stats.per_core_cycles) if self.stats.per_core_cycles else 0.0
        return self.stats

    def _run_cores(self, traces: "list[CoreTrace]") -> "tuple[list[float], list[int]]":
        """The Python model of the window: per-core ``(cycles, instructions)``."""
        cores = [
            TraceDrivenCore(
                core_id=c,
                core_model=self.core,
                workload=self.workload,
                trace=trace,
                llc_request=self.llc_request,
            )
            for c, trace in enumerate(traces)
        ]
        # Interleave the cores in global time order: always advance the core with
        # the earliest local clock, so shared bank/channel contention state sees
        # requests in (approximately) the order concurrent hardware would.
        heap: "list[tuple[float, int]]" = [(0.0, c) for c in range(len(cores))]
        heapq.heapify(heap)
        while heap:
            _, core_id = heapq.heappop(heap)
            new_clock = cores[core_id].step()
            if new_clock is not None:
                heapq.heappush(heap, (new_clock, core_id))
        return [core.stats.cycles for core in cores], [core.stats.instructions for core in cores]


def simulate_system(
    workload: WorkloadProfile,
    config: SystemConfig,
    instructions_per_core: int = 20_000,
    seed: int = 1,
    memory_channels: "int | None" = None,
) -> SimulationStats:
    """Convenience wrapper: build a :class:`SimulatedSystem`, run it, return stats."""
    system = SimulatedSystem(workload, config, memory_channels=memory_channels, seed=seed)
    return system.run(instructions_per_core)


def _reference_warm_caches(system: SimulatedSystem, generator: SyntheticTraceGenerator) -> None:
    """Equivalence oracle for :meth:`SimulatedSystem.warm_caches`: one ``fill`` per line.

    The per-line loop the bulk install replaced, kept only as the reference
    the tests and the ``sim_warm`` bench target compare against.
    """
    total_lines = sum(bank.num_sets * bank.associativity for bank in system.banks)
    budget = int(total_lines * 0.95)
    filled = 0
    for region_name in _WARM_REGIONS:
        region = generator.regions[region_name]
        lines_in_region = max(1, region.size_bytes // system._line_bytes)
        for i in range(lines_in_region):
            if filled >= budget:
                return
            address = region.base + i * system._line_bytes
            bank = system.banks[system._bank_for(address)]
            bank.fill(system._bank_local_address(address))
            filled += 1
