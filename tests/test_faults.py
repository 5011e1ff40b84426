"""Tests for fault injection, dependability metrics, and N+k sizing."""

import json
import multiprocessing
import os

import pytest

from repro.faults import (
    FaultLoadConfig,
    FaultLoadGenerator,
    FaultSchedule,
    LinkFault,
    ServerCrash,
    Straggler,
    apply_link_faults,
    availability_from_downtime,
)
from repro.faults.events import EMPTY_SCHEDULE
from repro.faults.noc import undirected_links
from repro.obs.tracer import Tracer, use_tracer
from repro.runtime import ResultCache, SweepExecutor, SweepPointError
from repro.service.cluster import ClusterConfig, ClusterSimulation, simulate_cluster


def faulty_cluster(utilization=0.7, num_servers=4, policy="jsq"):
    parallelism, service_mean_s = 4, 0.002
    return ClusterConfig(
        num_servers=num_servers,
        parallelism=parallelism,
        service_mean_s=service_mean_s,
        offered_qps=utilization * num_servers * parallelism / service_mean_s,
        policy=policy,
    )


def crash_schedule(config, num_requests=3_000, intensity=1.0, seed=7, **overrides):
    horizon_s = num_requests / config.offered_qps
    load = FaultLoadConfig(crash_intensity=intensity, **overrides)
    return FaultLoadGenerator(load, seed=seed).schedule(config.num_servers, horizon_s)


# ---------------------------------------------------------------- schedules
class TestFaultSchedule:
    def test_same_seed_identical_schedule_and_digest(self):
        config = FaultLoadConfig(crash_intensity=2.0, straggler_intensity=1.0)
        one = FaultLoadGenerator(config, seed=7).schedule(4, 10.0)
        two = FaultLoadGenerator(config, seed=7).schedule(4, 10.0)
        assert one == two
        assert one.digest() == two.digest()

    def test_different_seed_different_schedule(self):
        config = FaultLoadConfig(crash_intensity=2.0)
        one = FaultLoadGenerator(config, seed=7).schedule(4, 10.0)
        two = FaultLoadGenerator(config, seed=8).schedule(4, 10.0)
        assert one.crashes != two.crashes
        assert one.digest() != two.digest()

    def test_digest_is_content_addressed_not_seed_addressed(self):
        crash = ServerCrash(server=0, at_s=1.0, restart_s=2.0)
        built = FaultSchedule(crashes=(crash,), seed=None, horizon_s=10.0)
        relabeled = FaultSchedule(crashes=(crash,), seed=99, horizon_s=10.0)
        assert built.digest() == relabeled.digest()

    def test_adding_a_server_preserves_existing_streams(self):
        config = FaultLoadConfig(crash_intensity=2.0)
        small = FaultLoadGenerator(config, seed=7).schedule(4, 10.0)
        large = FaultLoadGenerator(config, seed=7).schedule(5, 10.0)
        for server in range(4):
            assert small.crashes_for(server) == large.crashes_for(server)

    def test_zero_config_yields_empty_schedule(self):
        config = FaultLoadConfig()
        assert config.is_zero()
        schedule = FaultLoadGenerator(config, seed=7).schedule(4, 10.0)
        assert schedule.is_empty()
        assert schedule.num_events == 0

    def test_downtime_merges_overlapping_crashes(self):
        schedule = FaultSchedule(
            crashes=(
                ServerCrash(server=0, at_s=1.0, restart_s=3.0),
                ServerCrash(server=0, at_s=2.0, restart_s=4.0),
                ServerCrash(server=1, at_s=0.0, restart_s=1.0),
            )
        )
        assert schedule.downtime_intervals(0) == [(1.0, 4.0)]
        assert schedule.downtime_s(2, 10.0) == pytest.approx(4.0)
        # Downtime past the measured duration is clipped.
        assert schedule.downtime_s(2, 2.0) == pytest.approx(2.0)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            ServerCrash(server=0, at_s=2.0, restart_s=1.0)
        with pytest.raises(ValueError):
            Straggler(server=0, at_s=0.0, until_s=1.0, slowdown=0.5)
        with pytest.raises(ValueError):
            LinkFault(link=(0, 1), severity="melted")
        with pytest.raises(ValueError):
            FaultLoadConfig(mttr_fraction=1.5)

    def test_availability_from_downtime(self):
        assert availability_from_downtime(4, 10.0, 0.0) == 1.0
        assert availability_from_downtime(4, 10.0, 4.0) == pytest.approx(0.9)


# ---------------------------------------------------------- faulted cluster
class TestFaultedCluster:
    def test_faulted_run_deterministic(self):
        config = faulty_cluster()
        schedule = crash_schedule(config)
        one = simulate_cluster(config, num_requests=3_000, seed=42, faults=schedule)
        two = simulate_cluster(config, num_requests=3_000, seed=42, faults=schedule)
        assert one == two

    def test_empty_schedule_byte_identical_to_unfaulted(self):
        config = faulty_cluster()
        base = simulate_cluster(config, num_requests=2_000, seed=42)
        faulted = simulate_cluster(
            config, num_requests=2_000, seed=42, faults=EMPTY_SCHEDULE
        )
        assert faulted == base
        assert faulted.dependability is None

    def test_crashes_cut_availability_and_goodput(self):
        config = faulty_cluster()
        schedule = crash_schedule(config, intensity=2.0)
        result = simulate_cluster(config, num_requests=3_000, seed=42, faults=schedule)
        dep = result.dependability
        assert dep is not None
        assert 0.0 < dep.availability < 1.0
        assert dep.crashes == len(schedule.crashes)
        assert dep.lost_requests > 0
        assert dep.completed_requests + dep.failed_requests == dep.offered_requests
        assert dep.goodput_fraction < 1.0
        assert dep.mean_time_to_recover_s > 0.0
        assert dep.max_time_to_recover_s >= dep.mean_time_to_recover_s

    def test_straggler_window_inflates_latency(self):
        config = faulty_cluster(policy="random")
        horizon_s = 3_000 / config.offered_qps
        slow = FaultSchedule(
            stragglers=tuple(
                Straggler(server=s, at_s=0.0, until_s=horizon_s, slowdown=8.0)
                for s in range(config.num_servers)
            )
        )
        base = simulate_cluster(config, num_requests=3_000, seed=42, engine="event")
        slowed = simulate_cluster(config, num_requests=3_000, seed=42, faults=slow)
        assert slowed.latency.mean_s > base.latency.mean_s

    def test_fast_engine_rejects_faults(self):
        config = faulty_cluster(policy="random")
        schedule = crash_schedule(config)
        with pytest.raises(ValueError, match="live queue state"):
            ClusterSimulation(config, engine="fast", faults=schedule)

    def test_faults_force_event_engine(self):
        config = faulty_cluster(policy="random")
        schedule = crash_schedule(config)
        assert ClusterSimulation(config, faults=schedule).resolved_engine() == "event"
        assert ClusterSimulation(config, faults=EMPTY_SCHEDULE).faults is None

    def test_fault_counters_traced(self):
        config = faulty_cluster()
        schedule = crash_schedule(config, intensity=2.0)
        tracer = Tracer()
        with use_tracer(tracer):
            simulate_cluster(config, num_requests=3_000, seed=42, faults=schedule)
        counters = tracer.counters()
        assert counters["faults.server_crash"] == len(schedule.crashes)
        assert counters["faults.server_restart"] >= 1
        assert counters.get("faults.requests_lost", 0) > 0


# -------------------------------------------------------------- fault sweeps
class TestFaultSweeps:
    SWEEP_KWARGS = dict(
        crash_intensities=(0.0, 1.0, 2.0),
        num_servers=4,
        num_requests=2_000,
    )

    def test_serial_and_parallel_sweeps_identical(self):
        from repro.experiments.faults import service_fault_sweep

        serial = service_fault_sweep(
            executor=SweepExecutor(mode="serial"), **self.SWEEP_KWARGS
        )
        parallel = service_fault_sweep(
            executor=SweepExecutor(mode="process", max_workers=2), **self.SWEEP_KWARGS
        )
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    def test_sweep_payload_shape_and_faults_block(self):
        from repro.experiments.faults import service_fault_sweep

        payload = service_fault_sweep(
            executor=SweepExecutor(mode="serial"), **self.SWEEP_KWARGS
        )
        rows = payload["sweep"]
        assert [row["crash_intensity"] for row in rows] == [0.0, 1.0, 2.0]
        assert rows[0]["availability"] == 1.0
        assert rows[0]["fault_events"] == 0
        assert rows[-1]["availability"] < 1.0
        block = payload["faults"]
        assert block["schedules"] == 3
        assert len(block["digest"]) == 64

    def test_envelope_provenance_carries_fault_identity(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment(
            "fault_service_sweep", use_cache=False,
            executor=SweepExecutor(mode="serial"), **self.SWEEP_KWARGS,
        )
        assert result.provenance["fault_seed"] == 7
        assert result.provenance["fault_schedule_digest"] == result.data["faults"]["digest"]
        # The envelope's row view is the sweep list itself.
        assert result.rows == result.data["sweep"]

    def test_unfaulted_experiments_have_no_fault_provenance(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment("table_4_1", use_cache=False)
        assert "fault_seed" not in result.provenance
        assert "fault_schedule_digest" not in result.provenance

    def test_noc_fault_sweep_zero_point_matches_healthy_study(self):
        from repro.experiments.faults import noc_fault_sweep

        payload = noc_fault_sweep(
            failed_links=(0, 4), duration_cycles=2_000,
            executor=SweepExecutor(mode="serial"),
        )
        healthy, faulted = payload["sweep"]
        assert healthy["failed_links"] == 0
        assert healthy["fault_events"] == 0
        assert faulted["request_latency_cycles"] > healthy["request_latency_cycles"]
        assert faulted["system_ipc"] < healthy["system_ipc"]


# ----------------------------------------------------------------- NoC faults
class TestNocLinkFaults:
    def _mesh(self):
        from repro.noc.simulation import _cached_topology

        return _cached_topology("mesh", 64)

    def test_empty_fault_list_returns_same_object(self):
        mesh = self._mesh()
        assert apply_link_faults(mesh, ()) is mesh

    def test_down_link_removed_and_original_untouched(self):
        mesh = self._mesh()
        edges_before = mesh.graph.number_of_edges()
        link = undirected_links(mesh)[0]
        faulted = apply_link_faults(mesh, (LinkFault(link=link, severity="down"),))
        assert mesh.graph.number_of_edges() == edges_before
        assert faulted.graph.number_of_edges() == edges_before - 2
        assert faulted.name.endswith("+faults")
        assert faulted.routing is None

    def test_degraded_link_keeps_edges_but_slows_them(self):
        mesh = self._mesh()
        a, b = undirected_links(mesh)[0]
        faulted = apply_link_faults(
            mesh, (LinkFault(link=(a, b), severity="degraded", latency_factor=4.0),)
        )
        healthy_latency = mesh.graph.edges[a, b]["attrs"].latency_cycles
        assert (
            faulted.graph.edges[a, b]["attrs"].latency_cycles == 4 * healthy_latency
        )

    def test_partitioning_removal_degrades_instead(self):
        from repro.noc.graph import strongly_connected
        from repro.noc.simulation import _cached_topology

        tree = _cached_topology("nocout", 64)
        faults = tuple(
            LinkFault(link=link, severity="down") for link in undirected_links(tree)
        )
        faulted = apply_link_faults(tree, faults)
        # Taking every link "down" must not partition the network: removals
        # that would cut a core off from an LLC bank fall back to degradation,
        # so cores and LLCs stay mutually reachable (some edges survive).
        assert faulted.graph.number_of_edges() > 0
        required = set(faulted.core_nodes) | set(faulted.llc_nodes)
        assert strongly_connected(faulted.graph, required)

    def test_generator_samples_links_deterministically(self):
        mesh = self._mesh()
        config = FaultLoadConfig(num_failed_links=2, num_degraded_links=3)
        links = undirected_links(mesh)
        one = FaultLoadGenerator(config, seed=7).schedule(1, 1.0, links=links)
        two = FaultLoadGenerator(config, seed=7).schedule(1, 1.0, links=links)
        assert one.link_faults == two.link_faults
        severities = [fault.severity for fault in one.link_faults]
        assert severities.count("down") == 2
        assert severities.count("degraded") == 3


# ----------------------------------------------------------------- N+k sizing
class TestNkSizing:
    def _sizer_and_chip(self):
        from repro.experiments.service import build_service_chip
        from repro.service.sizing import ClusterSizer
        from repro.tco.datacenter import DatacenterDesign
        from repro.workloads.suite import default_suite

        suite = default_suite()
        chip = build_service_chip("Scale-Out (OoO)", suite)
        return ClusterSizer(DatacenterDesign(suite=suite), memory_gb=64), chip, suite

    def test_k0_reduces_to_base_sizing(self):
        sizer, chip, suite = self._sizer_and_chip()
        workload = suite["Web Search"]
        base = sizer.size(chip, workload, target_qps=1e6, sla_p99_s=0.025)
        redundant = sizer.size_n_plus_k(
            chip, workload, target_qps=1e6, sla_p99_s=0.025, k=0
        )
        assert redundant.servers == base.servers
        assert redundant.monthly_tco_usd == pytest.approx(base.monthly_tco_usd)
        assert redundant.p99_s == pytest.approx(base.p99_s)
        assert redundant.redundancy_overhead == pytest.approx(0.0)

    def test_tco_and_availability_monotone_in_k(self):
        sizer, chip, suite = self._sizer_and_chip()
        workload = suite["Web Search"]
        results = [
            sizer.size_n_plus_k(chip, workload, target_qps=1e6, sla_p99_s=0.025, k=k)
            for k in (0, 1, 2, 4)
        ]
        tcos = [r.monthly_tco_usd for r in results]
        availabilities = [r.cluster_availability for r in results]
        assert tcos == sorted(tcos)
        assert availabilities == sorted(availabilities)
        assert all(r.servers == r.base_servers + r.k for r in results)
        # Degraded operation (k servers lost) still shows the base p99.
        assert all(
            r.degraded_p99_s == pytest.approx(results[0].p99_s) for r in results
        )

    def test_cluster_availability_bounds(self):
        from repro.service.sizing import cluster_availability

        assert cluster_availability(4, 4, 0.9) == pytest.approx(1.0)
        assert cluster_availability(4, 0, 0.9) == pytest.approx(0.9**4)
        assert cluster_availability(10, 2, 1.0) == pytest.approx(1.0)


# ------------------------------------------------------------ executor retry
def _fails_on_three(value):
    if value == 3:
        raise ValueError("point three always fails")
    return value * 10


def _fails_in_worker(value):
    if multiprocessing.current_process().name != "MainProcess":
        raise RuntimeError("worker-only failure")
    return value * 10


class TestExecutorRetry:
    def test_retry_recovers_worker_only_failures(self):
        executor = SweepExecutor(mode="process", max_workers=2, chunksize=2)
        results = executor.map(_fails_in_worker, [(i,) for i in range(6)])
        assert results == [i * 10 for i in range(6)]

    def test_persistent_point_failure_names_its_index(self):
        executor = SweepExecutor(mode="process", max_workers=2, chunksize=2)
        with pytest.raises(SweepPointError) as excinfo:
            executor.map(_fails_on_three, [(i,) for i in range(6)])
        assert excinfo.value.point_index == 3
        assert "3" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_retry_counter_traced(self):
        executor = SweepExecutor(mode="process", max_workers=2, chunksize=3)
        tracer = Tracer()
        with use_tracer(tracer):
            results = executor.map(_fails_in_worker, [(i,) for i in range(6)])
        assert results == [i * 10 for i in range(6)]
        assert tracer.counters()["executor.chunk_retries"] == 2


# ------------------------------------------------------------- corrupt cache
class TestCorruptCacheEntries:
    def test_corrupt_json_degrades_to_miss(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        cache.put("key", {"rows": [1, 2]}, category="experiment")
        path = os.path.join(str(tmp_path), "key.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"payload": [truncated')
        fresh = ResultCache(cache_dir=str(tmp_path))
        tracer = Tracer()
        with use_tracer(tracer):
            assert fresh.get("key", category="experiment") is None
        stats = fresh.stats()
        assert stats["corrupt"] == 1
        assert stats["misses"] == 1
        assert stats["categories"]["experiment"]["corrupt"] == 1
        assert tracer.counters()["cache.experiment.corrupt"] == 1

    def test_corrupt_pickle_degrades_to_miss(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        with open(os.path.join(str(tmp_path), "key.pkl"), "wb") as handle:
            handle.write(b"\x80\x05 not a pickle")
        assert cache.get("key") is None
        assert cache.stats()["corrupt"] == 1

    def test_healthy_entries_unaffected(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        cache.put("key", {"rows": [1, 2]})
        fresh = ResultCache(cache_dir=str(tmp_path))
        assert fresh.get("key") == {"rows": [1, 2]}
        assert fresh.stats()["corrupt"] == 0
