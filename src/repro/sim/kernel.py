"""The compiled measured window: ``sim_run`` in ``kernel.c``, driven through ctypes.

:meth:`SimulatedSystem.run() <repro.sim.system.SimulatedSystem.run>` hands its
traces to :func:`run_window` when :func:`repro.service.native.load` returns
the compiled library and the system has at most :data:`MAX_CORES` cores (the
directory's sharer sets are 64-bit masks).  The kernel steps every core over
the system's own state -- the LLC banks' arrays in place, copies of the bank
and channel timing, the directory and the counters, written back afterwards
-- so the system ends exactly as the Python model
(:class:`~repro.sim.core.TraceDrivenCore` plus
:meth:`~repro.sim.system.SimulatedSystem.llc_request`) leaves it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    import ctypes

    from repro.sim.system import SimulatedSystem
    from repro.workloads.traces import CoreTrace

#: The most cores the kernel simulates (one bit per core in a sharer mask).
MAX_CORES = 64


def run_window(
    library: "ctypes.CDLL", system: "SimulatedSystem", traces: "Sequence[CoreTrace]"
) -> "tuple[list[float], list[int]]":
    """Run every core's trace on ``system`` in the compiled kernel.

    Returns:
        ``(cycles, instructions)`` per core, as the Python cores report them.

    Raises:
        ValueError: for more than :data:`MAX_CORES` traces, a negative
            address, or banks whose arrays the kernel cannot index.
    """
    if not 1 <= len(traces) <= MAX_CORES:
        raise ValueError(f"the compiled kernel runs 1 to {MAX_CORES} cores, not {len(traces)}")
    banks, channels, directory = system.banks, system.channels, system.directory
    line_bytes = system._line_bytes
    bounds = np.zeros(len(traces) + 1, dtype=np.int64)
    np.cumsum([len(trace) for trace in traces], out=bounds[1:])
    columns = [
        np.concatenate([getattr(trace, column) for trace in traces])
        for column in ("instruction_gap", "address", "is_instruction", "is_write")
    ]
    # The kernel indexes banks and sets with the addresses' line numbers.
    if len(columns[1]) and columns[1].min() < 0:
        raise ValueError("the compiled kernel needs non-negative addresses")
    first = banks[0]
    cells = []
    for name, dtype, shape in (
        ("tags", np.int64, (first.num_sets, first.associativity)),
        ("dirty", np.bool_, (first.num_sets, first.associativity)),
        ("count", np.int64, (first.num_sets,)),
    ):
        arrays = [getattr(bank, name) for bank in banks]
        if any(a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous for a in arrays):
            raise ValueError(f"every bank's {name} must be a C-contiguous {shape} array")
        cells.append(np.array([a.ctypes.data for a in arrays], dtype=np.uintp))

    # The directory's current entries seed the kernel's table, which has at
    # least twice as many slots as it can ever hold lines.
    seeds = sorted(set(directory.sharers) | set(directory.owners))
    seed_lines = np.array([address // line_bytes for address in seeds], dtype=np.int64)
    seed_masks = np.array([directory.sharers.get(a, 0) for a in seeds], dtype=np.uint64)
    seed_owners = np.array([directory.owners.get(a, -1) for a in seeds], dtype=np.int64)
    slots = 1 << max(3, (2 * (len(seeds) + int(bounds[-1])) - 1).bit_length())
    table = np.empty(slots, dtype=np.int64)
    masks = np.empty(slots, dtype=np.uint64)
    owners = np.empty(slots, dtype=np.int64)

    dstats, stats = directory.stats, system.stats
    counts = np.array(
        [stats.llc_accesses, stats.llc_misses, stats.snoops, stats.memory_reads,
         dstats.lookups, dstats.invalidation_snoops, dstats.forward_snoops],
        dtype=np.int64,
    )
    network_total = np.array([stats.network_latency_cycles_total], dtype=np.float64)
    bank_stats = np.array(
        [[b.stats.accesses, b.stats.hits, b.stats.misses, b.stats.evictions, b.stats.writebacks]
         for b in banks],
        dtype=np.int64,
    )
    bank_free = np.array(system._bank_next_free, dtype=np.float64)
    channel_free = np.array([c._next_free for c in channels], dtype=np.float64)
    channel_requests = np.array([c.requests for c in channels], dtype=np.int64)
    channel_busy = np.array([c.busy_cycles for c in channels], dtype=np.float64)
    # The per-core parameters TraceDrivenCore derives.
    window = max(1, system.core.max_outstanding_misses)
    base_cpi = system.workload.behavior(system.core.name).base_cpi
    shape = np.array(
        [len(traces), window, line_bytes, len(banks), first.num_sets,
         first.associativity, len(channels), slots, len(seeds)],
        dtype=np.int64,
    )
    timing = np.array(
        [base_cpi, system.network_latency, system.bank_latency,
         system.BANK_SERVICE_CYCLES, channels[0].service_cycles,
         channels[0].access_latency_cycles],
        dtype=np.float64,
    )
    clocks = np.zeros(len(traces), dtype=np.float64)
    instructions = np.zeros(len(traces), dtype=np.int64)
    status = library.sim_run(
        shape, timing, bounds, *columns, *cells,
        bank_stats, bank_free, channel_free, channel_requests, channel_busy,
        seed_lines, seed_masks, seed_owners, table, masks, owners, counts, network_total,
        clocks, instructions, np.empty(len(traces) * window, dtype=np.float64),
    )
    if status != 0:
        raise ValueError("the compiled kernel rejected the system's shape")

    (stats.llc_accesses, stats.llc_misses, stats.snoops, stats.memory_reads,
     dstats.lookups, dstats.invalidation_snoops, dstats.forward_snoops) = counts.tolist()
    stats.network_latency_cycles_total = float(network_total[0])
    for bank, row in zip(banks, bank_stats.tolist()):
        (bank.stats.accesses, bank.stats.hits, bank.stats.misses,
         bank.stats.evictions, bank.stats.writebacks) = row
    system._bank_next_free = bank_free.tolist()
    for channel, free, requests, busy in zip(
        channels, channel_free.tolist(), channel_requests.tolist(), channel_busy.tolist()
    ):
        channel._next_free, channel.requests, channel.busy_cycles = free, requests, busy
    keys = table * line_bytes
    shared, owned = (table >= 0) & (masks != 0), (table >= 0) & (owners >= 0)
    directory.sharers = dict(zip(keys[shared].tolist(), masks[shared].tolist()))
    directory.owners = dict(zip(keys[owned].tolist(), owners[owned].tolist()))
    return clocks.tolist(), instructions.tolist()
