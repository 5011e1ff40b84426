"""Fastpath/reference equivalence: the SoA kernel must match the object path
bit for bit -- per-packet latencies and every derived statistic -- on all three
topologies and across link widths."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.events import LinkFault
from repro.faults.noc import apply_link_faults, undirected_links
from repro.noc.fastpath import CLASS_ORDER, PacketBatch, sequential_sum
from repro.noc.network import NocConfig, NocNetwork
from repro.noc.packet import MessageClass, Packet
from repro.noc.simulation import PodNocStudy, _cached_topology
from repro.obs.tracer import Tracer, use_tracer
from repro.runtime.executor import SweepExecutor
from repro.service import native
from repro.noc.topology import build_flattened_butterfly, build_mesh, build_nocout
from repro.noc.traffic import BilateralTrafficGenerator
from repro.workloads import WorkloadSuite, get_workload

TOPOLOGY_BUILDERS = {
    "mesh": build_mesh,
    "fbfly": build_flattened_butterfly,
    "nocout": build_nocout,
}
DURATION = 1_200
ACTIVE_CORES = 32


def _traffic(topology, seed=3):
    generator = BilateralTrafficGenerator(
        topology, get_workload("Web Search"), per_core_ipc=0.5, seed=seed
    )
    return generator


@pytest.mark.parametrize("topology_name", ["mesh", "fbfly", "nocout"])
@pytest.mark.parametrize("link_width_bits", [128, 32])
class TestFastpathEquivalence:
    def test_exact_equality_against_reference(self, topology_name, link_width_bits):
        """Arrival times, hops, and all derived stats are exactly equal."""
        build = TOPOLOGY_BUILDERS[topology_name]
        config = NocConfig(link_width_bits=link_width_bits)

        reference = NocNetwork(build(64), config, use_fastpath=False)
        packets = _traffic(reference.topology).generate(DURATION, ACTIVE_CORES)
        reference.run(packets)
        reference_arrivals = {p.packet_id: p.arrival_time for p in reference.delivered}
        reference_hops = {p.packet_id: p.hops for p in reference.delivered}

        fast = NocNetwork(build(64), config, use_fastpath=True)
        batch = _traffic(fast.topology).generate_batch(DURATION, ACTIVE_CORES)
        result = fast.run_batch(batch)
        fast_arrivals = dict(
            zip(batch.packet_id.tolist(), result.arrival_time.tolist())
        )
        fast_hops = dict(zip(batch.packet_id.tolist(), result.hops.tolist()))

        assert fast_arrivals == reference_arrivals  # exact float equality
        assert fast_hops == reference_hops
        assert fast.average_latency() == reference.average_latency()
        assert fast.average_latency_by_class() == reference.average_latency_by_class()
        assert fast.average_hops() == reference.average_hops()
        assert fast.total_flit_hops() == reference.total_flit_hops()
        assert fast.max_link_utilization(DURATION) == reference.max_link_utilization(
            DURATION
        )

    def test_send_matches_batch_kernel(self, topology_name, link_width_bits):
        """Per-packet ``send`` on the fast path equals the batch kernel."""
        build = TOPOLOGY_BUILDERS[topology_name]
        config = NocConfig(link_width_bits=link_width_bits)

        batch_network = NocNetwork(build(64), config, use_fastpath=True)
        batch = _traffic(batch_network.topology).generate_batch(DURATION, ACTIVE_CORES)
        result = batch_network.run_batch(batch)

        send_network = NocNetwork(build(64), config, use_fastpath=True)
        packets = _traffic(send_network.topology).generate(DURATION, ACTIVE_CORES)
        send_network.run(packets)

        by_id = {p.packet_id: p for p in send_network.delivered}
        for pid, arrival in zip(batch.packet_id.tolist(), result.arrival_time.tolist()):
            assert by_id[pid].arrival_time == arrival
        assert send_network.average_latency() == batch_network.average_latency()
        assert send_network.total_flit_hops() == batch_network.total_flit_hops()


class TestPodStudyEquivalence:
    def test_full_study_results_identical(self):
        """`PodNocStudy` rows are exactly equal with and without the fast path."""
        suite = WorkloadSuite((get_workload("Web Search"), get_workload("Data Serving")))
        fast = PodNocStudy(duration_cycles=1_000, suite=suite, seed=2, use_fastpath=True)
        reference = PodNocStudy(
            duration_cycles=1_000, suite=suite, seed=2, use_fastpath=False
        )
        assert fast.evaluate() == reference.evaluate()

    def test_escape_hatch_selects_reference_structures(self):
        network = NocNetwork(build_mesh(16), use_fastpath=False)
        assert network._links is not None and network._compiled is None
        network = NocNetwork(build_mesh(16))
        assert network._links is None and network._compiled is not None


class TestPacketBatch:
    def test_generate_batch_is_deterministic(self):
        mesh = build_mesh(64)
        a = _traffic(mesh, seed=7).generate_batch(DURATION, ACTIVE_CORES)
        b = _traffic(mesh, seed=7).generate_batch(DURATION, ACTIVE_CORES)
        for column in ("injection_time", "source", "destination", "class_code", "flits", "packet_id"):
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_different_seeds_differ(self):
        mesh = build_mesh(64)
        a = _traffic(mesh, seed=7).generate_batch(DURATION, ACTIVE_CORES)
        b = _traffic(mesh, seed=8).generate_batch(DURATION, ACTIVE_CORES)
        assert not np.array_equal(a.injection_time, b.injection_time)

    def test_object_adapter_roundtrip(self):
        """generate() == generate_batch().to_packets(), field for field."""
        mesh = build_mesh(64)
        batch = _traffic(mesh).generate_batch(DURATION, ACTIVE_CORES)
        packets = _traffic(mesh).generate(DURATION, ACTIVE_CORES)
        assert len(batch) == len(packets)
        for packet, (src, dst, t, pid) in zip(
            packets,
            zip(
                batch.source.tolist(),
                batch.destination.tolist(),
                batch.injection_time.tolist(),
                batch.packet_id.tolist(),
            ),
        ):
            assert (packet.source, packet.destination) == (src, dst)
            assert packet.injection_time == t
            assert packet.packet_id == pid
            assert isinstance(packet.source, int)

        rebuilt = PacketBatch.from_packets(packets)
        assert np.array_equal(rebuilt.injection_time, batch.injection_time)
        assert np.array_equal(rebuilt.class_code, batch.class_code)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="mismatched length"):
            PacketBatch(
                injection_time=np.zeros(3),
                source=np.zeros(2, dtype=np.int64),
                destination=np.zeros(3, dtype=np.int64),
                class_code=np.zeros(3, dtype=np.int64),
                flits=np.zeros(3, dtype=np.int64),
                packet_id=np.arange(3),
            )


class TestSequentialSum:
    def test_matches_python_sum_bitwise(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 20_000, 10_001)
        running = 0.0
        for value in values.tolist():
            running += value
        assert sequential_sum(values) == running

    def test_empty_is_zero(self):
        assert sequential_sum(np.array([])) == 0.0


class TestMixedUsage:
    def test_multi_batch_stats_stay_bit_identical(self):
        """Running sums seeded across batches keep exact equality with the
        reference path's per-packet accumulation (regression: a per-batch
        subtotal added in one float op diverged in the last ulps)."""
        config = NocConfig()
        fast = NocNetwork(build_mesh(64), config, use_fastpath=True)
        reference = NocNetwork(build_mesh(64), config, use_fastpath=False)
        for seed in (3, 4, 5):
            batch = _traffic(fast.topology, seed=seed).generate_batch(600, ACTIVE_CORES)
            fast.run_batch(batch)
            reference.run(
                _traffic(reference.topology, seed=seed).generate(600, ACTIVE_CORES)
            )
        assert fast.average_latency() == reference.average_latency()
        assert fast.average_latency_by_class() == reference.average_latency_by_class()
        assert fast.total_flit_hops() == reference.total_flit_hops()

    def test_send_after_batch_sees_link_state(self):
        """Contention persists across run_batch and send on the fast path."""
        mesh = build_mesh(16)
        network = NocNetwork(mesh)
        first = Packet(0, 3, MessageClass.RESPONSE, injection_time=0.0, packet_id=0)
        second = Packet(0, 3, MessageClass.RESPONSE, injection_time=0.0, packet_id=1)
        network.run_batch(PacketBatch.from_packets([first]))
        network.send(second)
        assert second.latency > mesh.zero_load_latency(0, 3, flits=second.flits)


# -------------------------------------------------- compiled replay vs Python
def _library():
    library = native.load()
    if library is None:  # pragma: no cover - every CI runner has gcc
        pytest.skip("no C compiler: the compiled replay is unavailable")
    return library


@contextmanager
def _python_kernels():
    """Run the body as if no compiler were found (the Python replay)."""
    saved = native._library
    native._library = None
    try:
        yield
    finally:
        native._library = saved


_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), st.integers(0, 2**16), st.integers(50, 400)),
        st.tuples(
            st.just("send"),
            st.integers(0, 2**16),
            st.floats(0.0, 500.0, allow_nan=False),
            st.sampled_from(CLASS_ORDER),
            st.integers(0, 6),
        ),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    topology_name=st.sampled_from(["mesh", "fbfly", "nocout", "faulted"]),
    link_width_bits=st.sampled_from([32, 128]),
    operations=_OPERATIONS,
)
def test_compiled_replay_equals_the_python_replay(topology_name, link_width_bits, operations):
    """Arrivals, hops and link state after every step of a mixed sequence
    of batches and single sends are equal on the C and Python replays."""
    _library()
    if topology_name == "faulted":
        mesh = build_mesh(16)
        links = undirected_links(mesh)
        topology = apply_link_faults(
            mesh,
            (LinkFault(link=links[3], severity="down"),
             LinkFault(link=links[7], severity="degraded", latency_factor=2.0)),
        )
    else:
        topology = TOPOLOGY_BUILDERS[topology_name](16)
    config = NocConfig(link_width_bits=link_width_bits)
    compiled = NocNetwork(topology, config)
    python = NocNetwork(topology, config)
    endpoints = sorted(set(topology.core_nodes) | set(topology.llc_nodes))
    next_id = 10**6
    for operation in operations:
        if operation[0] == "batch":
            _, seed, duration = operation
            batch = _traffic(topology, seed=seed).generate_batch(duration, 8)
            expected = compiled.run_batch(batch)
            with _python_kernels():
                actual = python.run_batch(batch)
            assert expected.arrival_time.tobytes() == actual.arrival_time.tobytes()
            assert np.array_equal(expected.hops, actual.hops)
        else:
            _, seed, time, message_class, flits = operation
            rng = np.random.default_rng(seed)
            source, destination = (int(node) for node in rng.choice(endpoints, 2))
            packets = [
                Packet(source, destination, message_class, injection_time=time,
                       flits=flits, packet_id=next_id)
                for _ in range(2)
            ]
            next_id += 1
            arrival = compiled.send(packets[0])
            with _python_kernels():
                assert python.send(packets[1]) == arrival
            assert packets[0].hops == packets[1].hops
        assert compiled._next_free.tobytes() == python._next_free.tobytes()
        assert np.array_equal(compiled._flits_carried, python._flits_carried)
    assert compiled.average_latency_by_class() == python.average_latency_by_class()
    assert compiled.average_hops() == python.average_hops()


def test_without_library_study_takes_python_path_identically():
    """With no compiled library the study's routes and replays run in
    Python, count ``noc.kernel.python`` and return identical results."""
    _library()
    suite = WorkloadSuite((get_workload("Web Search"), get_workload("Data Serving")))

    def evaluate():
        # Fresh topologies, so the route tables are compiled under this library.
        _cached_topology.cache_clear()
        tracer = Tracer()
        with use_tracer(tracer):
            study = PodNocStudy(duration_cycles=800, suite=suite, seed=4)
            rows = study.evaluate(executor=SweepExecutor(mode="serial"))
        return rows, tracer.counters()

    compiled_rows, compiled_counters = evaluate()
    with _python_kernels():
        python_rows, python_counters = evaluate()
    _cached_topology.cache_clear()
    assert python_rows == compiled_rows
    assert compiled_counters["noc.kernel.c"] == 6 and "noc.kernel.python" not in compiled_counters
    assert python_counters["noc.kernel.python"] == 6 and "noc.kernel.c" not in python_counters


def test_batch_rejects_nodes_outside_the_graph():
    network = NocNetwork(build_mesh(16))
    for source in (-1, 16):
        batch = PacketBatch.from_packets(
            [Packet(source, 3, MessageClass.RESPONSE, injection_time=0.0, packet_id=0)]
        )
        with pytest.raises(ValueError, match=r"node ids must lie in 0..15"):
            network.run_batch(batch)
