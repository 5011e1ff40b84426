"""Tests for the cycle-level simulation substrate."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.cores.models import OOO
from repro.perfmodel.analytic import AnalyticPerformanceModel, SystemConfig
from repro.sim.cache import SetAssociativeCache
from repro.sim.core import TraceDrivenCore
from repro.sim.directory import Directory
from repro.sim.engine import EventQueue
from repro.sim.memctrl import MemoryChannelSim
from repro.sim.system import SimulatedSystem, _reference_warm_caches, simulate_system
from repro.technology.node import NODE_40NM
from repro.workloads import default_suite, get_workload
from repro.workloads.traces import CoreTrace, SyntheticTraceGenerator


def _cache_state(cache):
    """Everything install() must reproduce: per-set LRU order, dirty bits, stats."""
    return cache.state()


class TestSimulationStats:
    def test_network_latency_avg(self):
        from repro.sim.stats import SimulationStats

        stats = SimulationStats(llc_accesses=4, network_latency_cycles_total=36.0)
        assert stats.network_latency_avg == 9.0
        assert stats.average_network_latency == 9.0  # legacy alias

    def test_network_latency_avg_guards_zero_accesses(self):
        from repro.sim.stats import SimulationStats

        assert SimulationStats().network_latency_avg == 0.0


class TestEventQueue:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(5, lambda: order.append("b"))
        queue.schedule(1, lambda: order.append("a"))
        queue.schedule(9, lambda: order.append("c"))
        queue.run()
        assert order == ["a", "b", "c"]
        assert queue.now == 9
        assert queue.processed == 3

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(2, lambda: order.append(1))
        queue.schedule(2, lambda: order.append(2))
        queue.run()
        assert order == [1, 2]

    def test_run_until(self):
        queue = EventQueue()
        hits = []
        for t in (1, 2, 10):
            queue.schedule(t, lambda t=t: hits.append(t))
        queue.run(until=5)
        assert hits == [1, 2]
        assert queue.pending == 1

    def test_invalid_schedule(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(-1, lambda: None)
        queue.schedule(5, lambda: None)
        queue.run()
        with pytest.raises(ValueError):
            queue.schedule_at(1, lambda: None)

    def test_run_until_advances_on_empty_heap(self):
        """Regression: ``run(until=...)`` must advance ``now`` even when no
        event is pending past (or before) the horizon."""
        queue = EventQueue()
        assert queue.run(until=10) == 10
        assert queue.now == 10
        # A later schedule_at inside the simulated window is not "in the past".
        queue.schedule_at(12, lambda: None)
        queue.run()
        assert queue.now == 12

    def test_run_until_advances_when_events_drain_early(self):
        queue = EventQueue()
        queue.schedule(3, lambda: None)
        assert queue.run(until=10) == 10
        assert queue.processed == 1

    def test_run_until_does_not_rewind(self):
        queue = EventQueue()
        queue.schedule(8, lambda: None)
        queue.run()
        assert queue.run(until=5) == 8

    def test_max_events_budget_does_not_jump_to_until(self):
        queue = EventQueue()
        for t in (1, 2, 3):
            queue.schedule(t, lambda: None)
        assert queue.run(until=10, max_events=2) == 2
        assert queue.pending == 1


class TestSetAssociativeCache:
    def test_hit_after_fill(self):
        cache = SetAssociativeCache(capacity_bytes=4096, associativity=2)
        assert not cache.access(0x100)
        cache.fill(0x100)
        assert cache.access(0x100)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = SetAssociativeCache(capacity_bytes=2 * 64, associativity=2)
        # Single set with two ways: filling a third distinct line evicts the LRU.
        cache.fill(0)
        cache.fill(64 * cache.num_sets)  # same set, different tag
        cache.access(0)  # touch line 0 -> the other line becomes LRU
        evicted = cache.fill(2 * 64 * cache.num_sets)
        assert evicted == 64 * cache.num_sets
        assert cache.access(0)

    def test_writeback_counted_for_dirty_victims(self):
        cache = SetAssociativeCache(capacity_bytes=2 * 64, associativity=2)
        cache.fill(0, dirty=True)
        cache.fill(64 * cache.num_sets)
        cache.fill(2 * 64 * cache.num_sets)
        assert cache.stats.writebacks == 1

    def test_invalidate(self):
        cache = SetAssociativeCache(capacity_bytes=4096)
        cache.fill(0x40)
        assert cache.invalidate(0x40)
        assert not cache.invalidate(0x40)
        assert not cache.contains(0x40)

    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=0)
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=1024, associativity=0)
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=1024, line_bytes=48)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200))
    def test_resident_lines_never_exceed_capacity(self, addresses):
        cache = SetAssociativeCache(capacity_bytes=8192, associativity=4)
        capacity_lines = 8192 // 64
        for address in addresses:
            if not cache.access(address):
                cache.fill(address)
            assert cache.resident_lines <= capacity_lines

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=100))
    def test_second_access_always_hits_small_footprint(self, addresses):
        # With a footprint smaller than the cache, re-accessing any line hits.
        cache = SetAssociativeCache(capacity_bytes=1 << 20, associativity=16)
        for address in addresses:
            if not cache.access(address):
                cache.fill(address)
        for address in addresses:
            assert cache.access(address)


class TestBulkInstall:
    """``install(addresses)`` == ``for a in addresses: fill(a)`` for new, distinct lines."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=0, max_size=120, unique=True),
        st.integers(min_value=0, max_value=24),
        st.lists(st.booleans(), min_size=24, max_size=24),
        st.integers(min_value=0, max_value=63),
    )
    def test_install_equals_fill_loop(self, lines, resident_count, dirty_bits, offset):
        # 4 sets x 4 ways and up to 120 lines over 256 line numbers: most sets
        # overflow, and the first ``resident_count`` lines are filled beforehand
        # (some dirty) so installs also evict resident lines and count writebacks.
        resident, installed = lines[:resident_count], lines[resident_count:]
        bulk, loop = (SetAssociativeCache(capacity_bytes=16 * 64, associativity=4) for _ in "ab")
        for cache in (bulk, loop):
            for line, dirty in zip(resident, dirty_bits):
                cache.fill(line * 64, dirty=dirty)
        addresses = [line * 64 + offset for line in installed]
        bulk.install(addresses)
        for address in addresses:
            loop.fill(address)
        assert _cache_state(bulk) == _cache_state(loop)

    def test_install_overflowing_empty_sets_matches_fill_loop(self):
        # Ten lines per set into empty 2-set x 4-way caches: each set keeps its
        # last four lines, and the six dropped per set count as evictions.
        addresses = [line * 64 for line in range(20)]
        bulk, loop = (SetAssociativeCache(capacity_bytes=8 * 64, associativity=4) for _ in "ab")
        bulk.install(addresses)
        for address in addresses:
            loop.fill(address)
        assert _cache_state(bulk) == _cache_state(loop)
        assert bulk.stats.evictions == 12 and bulk.resident_lines == 8

    def test_install_accepts_numpy_and_empty_input(self):
        import numpy as np

        cache = SetAssociativeCache(capacity_bytes=4096, associativity=2)
        cache.install([])
        cache.install(np.arange(3, dtype=np.int64) * 64)
        assert cache.resident_lines == 3 and cache.stats.evictions == 0

    @pytest.mark.parametrize("addresses", [[0, 64, 0], [128, 130]])
    def test_install_rejects_repeated_lines(self, addresses):
        cache = SetAssociativeCache(capacity_bytes=4096, associativity=2)
        with pytest.raises(ValueError, match="distinct"):
            cache.install(addresses)
        assert cache.resident_lines == 0

    def test_install_rejects_resident_lines(self):
        cache = SetAssociativeCache(capacity_bytes=4096, associativity=2)
        cache.fill(64)
        with pytest.raises(ValueError, match="already resident"):
            cache.install([0, 64 + 8])
        assert cache.resident_lines == 1 and cache.stats.evictions == 0


#: (cores, LLC MB, interconnect, seed): figure_3_3's 15 geometries, then figure_4_3's.
_WARM_GEOMETRIES = [
    (cores, 4.0, net, 7) for net in ("ideal", "crossbar", "mesh") for cores in (1, 2, 4, 8, 16)
] + [(16, 8.0, "crossbar", 11)]


@pytest.mark.parametrize("cores,llc_mb,interconnect,seed", _WARM_GEOMETRIES)
def test_warm_caches_matches_per_line_reference(cores, llc_mb, interconnect, seed):
    workload = get_workload("Web Search")
    config = SystemConfig(
        cores=cores, core_type="ooo", llc_capacity_mb=llc_mb, interconnect=interconnect
    )
    bulk, reference = (SimulatedSystem(workload, config, seed=seed) for _ in "ab")
    generator = SyntheticTraceGenerator(workload, cores=cores, seed=seed, core_type="ooo")
    bulk.warm_caches(generator)
    _reference_warm_caches(reference, generator)
    assert sum(bank.resident_lines for bank in bulk.banks) > 0
    for bulk_bank, reference_bank in zip(bulk.banks, reference.banks):
        assert _cache_state(bulk_bank) == _cache_state(reference_bank)


@pytest.mark.parametrize(
    "workload,cores,llc_mb,interconnect,seed,expected",
    [
        ("Data Serving", 16, 4, "mesh", 7, (2532.841428571428, 32069, 1856, 154, 9)),
        ("Media Streaming", 4, 4, "crossbar", 7, (2395.575714285714, 8089, 256, 33, 0)),
        ("Web Search", 16, 8, "crossbar", 11, (1634.6897142857144, 31782, 1344, 55, 2)),
    ],
)
def test_simulate_system_golden_stats(workload, cores, llc_mb, interconnect, seed, expected):
    # Pinned before the bulk warm-up replaced the per-line loop: the warmed
    # LLC, and so every measured statistic, must not move.
    config = SystemConfig(
        cores=cores, core_type="ooo", llc_capacity_mb=llc_mb, interconnect=interconnect
    )
    stats = simulate_system(get_workload(workload), config, instructions_per_core=2000, seed=seed)
    assert (
        stats.cycles, stats.instructions, stats.llc_accesses, stats.llc_misses, stats.snoops
    ) == expected


class TestDirectory:
    def test_read_sharing_no_snoops(self):
        directory = Directory()
        assert directory.access(0, 0x100, is_write=False) == 0
        assert directory.access(1, 0x100, is_write=False) == 0
        assert directory.sharers_of(0x100) == frozenset({0, 1})

    def test_write_invalidates_sharers(self):
        directory = Directory()
        directory.access(0, 0x100, is_write=False)
        directory.access(1, 0x100, is_write=False)
        snoops = directory.access(2, 0x100, is_write=True)
        assert snoops == 2
        assert directory.sharers_of(0x100) == frozenset({2})

    def test_read_of_modified_line_forwards(self):
        directory = Directory()
        directory.access(0, 0x200, is_write=True)
        assert directory.access(1, 0x200, is_write=False) == 1
        assert directory.stats.forward_snoops == 1

    def test_own_data_no_snoop(self):
        directory = Directory()
        directory.access(0, 0x300, is_write=True)
        assert directory.access(0, 0x300, is_write=True) == 0
        assert directory.access(0, 0x300, is_write=False) == 0

    def test_evict_clears_state(self):
        directory = Directory()
        directory.access(0, 0x100, is_write=True)
        directory.evict(0x100)
        assert directory.sharers_of(0x100) == frozenset()

    def test_snoop_fraction_statistic(self):
        directory = Directory()
        directory.access(0, 0, is_write=False)
        directory.access(1, 0, is_write=True)
        assert directory.stats.lookups == 2
        assert 0 < directory.stats.snoop_fraction <= 1.0


class TestMemoryChannel:
    def test_fixed_latency_when_idle(self):
        channel = MemoryChannelSim(node=NODE_40NM)
        completion = channel.request(0.0)
        assert completion == pytest.approx(channel.service_cycles + 90.0)

    def test_back_to_back_requests_queue(self):
        channel = MemoryChannelSim(node=NODE_40NM)
        first = channel.request(0.0)
        second = channel.request(0.0)
        assert second > first
        assert channel.requests == 2
        assert channel.utilization(100.0) > 0

    def test_invalid_time(self):
        with pytest.raises(ValueError):
            MemoryChannelSim(node=NODE_40NM).request(-1.0)


class TestTraceDrivenCore:
    def _trace(self):
        return CoreTrace(
            instruction_gap=[10, 10, 10],
            address=[0x1000, 0x2000, 0x3000],
            is_instruction=[True, False, False],
            is_write=[False, False, True],
            shared=[False, False, False],
        )

    def test_instruction_fetches_stall_fully(self):
        latencies = []
        def llc_request(core_id, address, is_write, is_instruction, now):
            latencies.append((is_instruction, now))
            return 50.0
        core = TraceDrivenCore(0, OOO, get_workload("Web Search"), self._trace(), llc_request)
        stats = core.run()
        assert stats.instructions == 30
        assert stats.fetch_stall_cycles == pytest.approx(50.0)
        assert stats.cycles > 30 * 0.4  # at least the base-CPI time passed
        assert core.done

    def test_data_requests_overlap_within_window(self):
        def llc_request(core_id, address, is_write, is_instruction, now):
            return 100.0
        trace = CoreTrace(
            instruction_gap=[1] * 4,
            address=[0x1000 * (i + 1) for i in range(4)],
            is_instruction=[False] * 4,
            is_write=[False] * 4,
            shared=[False] * 4,
        )
        core = TraceDrivenCore(0, OOO, get_workload("Web Search"), trace, llc_request)
        stats = core.run()
        # Four overlapping 100-cycle misses must not serialize into 400 cycles.
        assert stats.cycles < 250.0

    def test_ipc_property(self):
        core = TraceDrivenCore(0, OOO, get_workload("Web Search"), self._trace(), lambda *a: 10.0)
        core.run()
        assert 0 < core.ipc < OOO.issue_width


class TestSimulatedSystem:
    def test_end_to_end_stats(self):
        workload = get_workload("Web Search")
        config = SystemConfig(cores=4, core_type="ooo", llc_capacity_mb=4, interconnect="crossbar")
        stats = simulate_system(workload, config, instructions_per_core=4000, seed=3)
        assert stats.instructions >= 4 * 4000 * 0.9
        assert stats.aggregate_ipc > 0.5
        assert 0 <= stats.snoop_fraction < 0.2
        assert stats.llc_accesses > 0
        assert stats.llc_misses <= stats.llc_accesses
        assert len(stats.per_core_cycles) == 4

    def test_deterministic_given_seed(self):
        workload = get_workload("Data Serving")
        config = SystemConfig(cores=2, core_type="ooo", llc_capacity_mb=2)
        a = simulate_system(workload, config, instructions_per_core=3000, seed=5)
        b = simulate_system(workload, config, instructions_per_core=3000, seed=5)
        assert a.aggregate_ipc == pytest.approx(b.aggregate_ipc)
        assert a.llc_misses == b.llc_misses

    def test_warmup_reduces_misses(self):
        workload = get_workload("Web Search")
        config = SystemConfig(cores=4, core_type="ooo", llc_capacity_mb=4)
        cold = SimulatedSystem(workload, config, seed=3).run(4000, warmup=False)
        warm = SimulatedSystem(workload, config, seed=3).run(4000, warmup=True)
        assert warm.llc_miss_ratio < cold.llc_miss_ratio

    def test_smaller_llc_misses_more(self):
        workload = get_workload("Web Search")
        small = simulate_system(workload, SystemConfig(cores=4, llc_capacity_mb=1), 4000, seed=3)
        large = simulate_system(workload, SystemConfig(cores=4, llc_capacity_mb=8), 4000, seed=3)
        assert small.llc_mpki > large.llc_mpki

    def test_mesh_slower_than_crossbar_at_many_cores(self):
        workload = get_workload("Web Frontend")
        mesh = simulate_system(
            workload, SystemConfig(cores=16, llc_capacity_mb=4, interconnect="mesh"), 3000, seed=3
        )
        crossbar = simulate_system(
            workload, SystemConfig(cores=16, llc_capacity_mb=4, interconnect="crossbar"), 3000, seed=3
        )
        assert crossbar.aggregate_ipc > mesh.aggregate_ipc

    def test_model_tracks_simulation_within_band(self):
        # Figure 3.3: the analytic model follows the simulator's trends; the
        # reduced-fidelity reproduction keeps the two within ~40 %.
        workload = get_workload("Data Serving")
        config = SystemConfig(cores=8, core_type="ooo", llc_capacity_mb=4)
        simulated = simulate_system(workload, config, instructions_per_core=5000, seed=7)
        predicted = AnalyticPerformanceModel().estimate(workload, config)
        ratio = predicted.aggregate_ipc / simulated.aggregate_ipc
        assert 0.6 < ratio < 1.4

    def test_invalid_run_length(self):
        workload = get_workload("Web Search")
        config = SystemConfig(cores=2, llc_capacity_mb=2)
        with pytest.raises(ValueError):
            SimulatedSystem(workload, config).run(0)

    def test_needs_a_memory_channel(self):
        # Without a channel every miss would fail late, differently on the
        # compiled and the Python window.
        config = SystemConfig(cores=2, llc_capacity_mb=2)
        with pytest.raises(ValueError, match="memory_channels"):
            SimulatedSystem(get_workload("Web Search"), config, memory_channels=0)

    def test_run_is_one_shot(self):
        workload = get_workload("Web Search")
        config = SystemConfig(cores=2, llc_capacity_mb=2)
        system = SimulatedSystem(workload, config)
        first = system.run(1000)
        instructions = first.instructions
        with pytest.raises(RuntimeError, match="one-shot"):
            system.run(1000)
        assert system.stats.instructions == instructions
        assert len(system.stats.per_core_cycles) == 2

    def test_channel_interleaving_decorrelated_from_banks(self):
        # Regression: channel selection used the same low line-address bits as
        # bank selection, so every line of a given bank hit one channel.  Lines
        # mapping to any single bank must now spread across all channels.
        workload = get_workload("Web Search")
        config = SystemConfig(cores=16, core_type="ooo", llc_capacity_mb=4, interconnect="crossbar")
        system = SimulatedSystem(workload, config, memory_channels=2, seed=3)
        assert len(system.channels) == 2 and system.num_banks % 2 == 0
        for bank in range(system.num_banks):
            lines = [line for line in range(512) if system._bank_for(line * 64) == bank]
            channels = {system._channel_for(line * 64) for line in lines}
            assert channels == set(range(len(system.channels)))

    def test_memory_traffic_spreads_across_channels(self):
        # End to end: a cold run's DRAM requests must land on every channel.
        workload = get_workload("Web Search")
        config = SystemConfig(cores=16, core_type="ooo", llc_capacity_mb=1, interconnect="crossbar")
        system = SimulatedSystem(workload, config, memory_channels=2, seed=3)
        system.run(2000, warmup=False)
        assert all(channel.requests > 0 for channel in system.channels)


# ------------------------------------------------------- compiled measured window


def _library():
    """The compiled kernels, or a skip when this host cannot build them."""
    from repro.service import native

    library = native.load()
    if library is None:
        pytest.skip("no compiled kernel library (no C compiler)")
    return library


def _end_state(system):
    """Everything a measured window leaves behind, comparable with ``==``."""
    return (
        system.stats,
        [bank.state() for bank in system.banks],
        system._bank_next_free,
        system.directory.sharers,
        system.directory.owners,
        system.directory.stats,
        [(channel._next_free, channel.requests, channel.busy_cycles) for channel in system.channels],
    )


def _measured(workload, config, instructions, seed, warmup, library, memory_channels=None):
    """A fresh system after one measured window on ``library`` (None: Python)."""
    system = SimulatedSystem(workload, config, memory_channels=memory_channels, seed=seed)
    generator = SyntheticTraceGenerator(
        workload, cores=config.cores, seed=seed, core_type=system.core.name
    )
    if warmup:
        system.warm_caches(generator)
    system._measure(generator.traces(instructions), library)
    return system


class TestDirectoryEviction:
    @pytest.mark.parametrize("path", ["python", "c"])
    def test_eviction_drops_the_victims_global_line(self, path):
        # Two banks: global line L lives in bank L % 2 as local line L // 2.
        # Core 0 reads ways + 1 lines of bank 1's set 0, so the first of them
        # (global line 1, local line 0) is evicted; the directory must drop
        # line 1, not global line 0 -- which core 1 read and still shares.
        library = None if path == "python" else _library()
        config = SystemConfig(cores=2, core_type="ooo", llc_capacity_mb=4, llc_banks=2)
        system = SimulatedSystem(get_workload("Web Search"), config, seed=1)
        bank = system.banks[1]
        lines = [k * bank.num_sets * 2 + 1 for k in range(bank.associativity + 1)]
        reads = len(lines)
        core0 = CoreTrace(
            instruction_gap=[1] * reads, address=[line * 64 for line in lines],
            is_instruction=[False] * reads, is_write=[False] * reads, shared=[False] * reads,
        )
        core1 = CoreTrace(
            instruction_gap=[1], address=[0], is_instruction=[False], is_write=[False],
            shared=[False],
        )
        system._measure([core0, core1], library)
        assert bank.stats.evictions == 1
        assert system.directory.sharers_of(0) == frozenset({1})
        assert system.directory.sharers_of(lines[0] * 64) == frozenset()
        assert system.directory.sharers_of(lines[-1] * 64) == frozenset({0})


class TestCompiledKernel:
    """The C measured window equals the Python cores + ``llc_request``, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        workload=st.sampled_from([w.name for w in default_suite()]),
        cores=st.integers(min_value=1, max_value=16),
        llc_mb=st.sampled_from([0.25, 1.0, 4.0]),
        banks=st.sampled_from([None, 1, 2, 3, 4]),
        interconnect=st.sampled_from(["ideal", "crossbar", "mesh"]),
        warmup=st.booleans(),
        memory_channels=st.sampled_from([None, 1, 2, 3]),
        instructions=st.integers(min_value=1, max_value=3000),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_c_equals_python(
        self, workload, cores, llc_mb, banks, interconnect, warmup, memory_channels,
        instructions, seed,
    ):
        library = _library()
        config = SystemConfig(
            cores=cores, core_type="ooo", llc_capacity_mb=llc_mb, interconnect=interconnect,
            llc_banks=banks,
        )
        args = (get_workload(workload), config, instructions, seed, warmup)
        compiled = _measured(*args, library, memory_channels=memory_channels)
        python = _measured(*args, None, memory_channels=memory_channels)
        assert _end_state(compiled) == _end_state(python)
        assert compiled.stats.llc_accesses > 0

    def test_directory_state_carries_into_the_kernel(self):
        # Entries the directory holds before the window seed the kernel's table.
        library = _library()
        workload = get_workload("Data Serving")
        config = SystemConfig(cores=4, core_type="ooo", llc_capacity_mb=1)
        systems = []
        for kernel in (library, None):
            system = SimulatedSystem(workload, config, seed=3)
            generator = SyntheticTraceGenerator(workload, cores=4, seed=3, core_type="ooo")
            traces = generator.traces(2000)
            for core, trace in enumerate(traces):
                for address in trace.address[:40].tolist():
                    system.directory.access((core + 1) % 4, address, is_write=core % 2 == 0)
            system._measure(traces, kernel)
            systems.append(system)
        assert systems[0].directory.stats.lookups > systems[0].stats.llc_accesses
        assert _end_state(systems[0]) == _end_state(systems[1])

    @pytest.mark.parametrize("path", ["python", "c"])
    def test_catalog_stats_digest(self, path):
        # SimulationStats of all 112 catalog points (figure_3_3, figure_4_3),
        # captured with the Python model before the kernel existed.
        from repro.runtime.bench import sim_catalog_points

        library = None if path == "python" else _library()
        digest = hashlib.sha256()
        for workload, config, instructions, seed in sim_catalog_points():
            system = _measured(workload, config, instructions, seed, True, library)
            digest.update(repr(dataclasses.astuple(system.stats)).encode())
        assert digest.hexdigest() == (
            "8bfb217ed7ba6b0b0b27896a88f106ac72df338f04643130dd85d1c80b120528"
        )

    def test_without_library_run_takes_python_path_identically(self, monkeypatch):
        from repro.obs.tracer import Tracer, use_tracer
        from repro.service import native

        workload = get_workload("Web Frontend")
        config = SystemConfig(cores=8, core_type="ooo", llc_capacity_mb=2, interconnect="mesh")
        runs = {}
        for path in ("c", "python"):
            if path == "python":
                monkeypatch.setattr(native, "_library", None)
            else:
                _library()
            tracer = Tracer()
            with use_tracer(tracer):
                runs[path] = SimulatedSystem(workload, config, seed=5).run(3000)
            other = "python" if path == "c" else "c"
            assert tracer.counters()[f"sim.kernel.{path}"] == 1
            assert f"sim.kernel.{other}" not in tracer.counters()
        assert runs["c"] == runs["python"]

    def test_more_than_64_cores_take_python_path(self, monkeypatch):
        from repro.obs.tracer import Tracer, use_tracer
        from repro.service import native
        from repro.sim import kernel

        library = _library()
        workload = get_workload("Web Search")
        config = SystemConfig(cores=65, core_type="ooo", llc_capacity_mb=4)
        tracer = Tracer()
        with use_tracer(tracer):
            stats = SimulatedSystem(workload, config, seed=2).run(400)
        assert tracer.counters()["sim.kernel.python"] == 1
        assert "sim.kernel.c" not in tracer.counters()
        monkeypatch.setattr(native, "_library", None)
        assert SimulatedSystem(workload, config, seed=2).run(400) == stats
        traces = SyntheticTraceGenerator(workload, cores=65, seed=2).traces(400)
        with pytest.raises(ValueError, match="1 to 64 cores"):
            kernel.run_window(library, SimulatedSystem(workload, config, seed=2), traces)

    def test_kernel_rejects_what_it_cannot_index(self):
        from repro.sim import kernel

        library = _library()
        workload = get_workload("Web Search")
        config = SystemConfig(cores=2, core_type="ooo", llc_capacity_mb=1, llc_banks=2)
        traces = SyntheticTraceGenerator(workload, cores=2, seed=1).traces(1000)
        negative = CoreTrace(
            instruction_gap=[1], address=[-64], is_instruction=[False], is_write=[False],
            shared=[False],
        )
        with pytest.raises(ValueError, match="non-negative"):
            kernel.run_window(library, SimulatedSystem(workload, config), [traces[0], negative])
        system = SimulatedSystem(workload, config)
        system.banks[1] = SetAssociativeCache(64 * 64, 4)
        with pytest.raises(ValueError, match="tags"):
            kernel.run_window(library, system, traces)
