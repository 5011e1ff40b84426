"""Property-based equivalence suite for the fleet and fast-engine kernels.

The determinism contract under test: the vectorized fast kernels and the
discrete-event reference engine, fed identical generated request arrays,
produce **bit-identical** results -- not approximately equal ones.  Randomized
(but seeded, via hypothesis) configurations sweep cluster policies, arrival
processes, parallelism, and fleet shapes; any counterexample shrinks to a
minimal reproducing configuration.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import (
    Datacenter,
    FleetConfig,
    FleetSimulation,
    LoadShape,
    Region,
    RequestClass,
)
from repro.runtime.executor import SweepExecutor
from repro.service.cluster import ClusterConfig, serve, serve_event, simulate_cluster

# ---------------------------------------------------------------- strategies

cluster_configs = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(["jsq", "po2", "random", "round_robin"]),
        "num_servers": st.integers(min_value=1, max_value=6),
        "parallelism": st.integers(min_value=1, max_value=3),
        "utilization": st.floats(min_value=0.2, max_value=1.15),
        "arrival": st.sampled_from(["poisson", "mmpp"]),
        "seed": st.integers(min_value=0, max_value=2**20),
    }
)

fleet_shapes = st.fixed_dictionaries(
    {
        "routing": st.sampled_from(["nearest", "latency_weighted", "spillover"]),
        "policy": st.sampled_from(["jsq", "po2", "random", "round_robin"]),
        "arrival": st.sampled_from(["poisson", "mmpp"]),
        "num_epochs": st.integers(min_value=1, max_value=3),
        "offered_qps": st.floats(min_value=50.0, max_value=400.0),
        "seed": st.integers(min_value=0, max_value=2**20),
    }
)


def _cluster_config(params) -> ClusterConfig:
    num_servers = params["num_servers"]
    parallelism = params["parallelism"]
    service_mean_s = 0.01
    capacity = num_servers * parallelism / service_mean_s
    return ClusterConfig(
        num_servers=num_servers,
        parallelism=parallelism,
        service_mean_s=service_mean_s,
        offered_qps=params["utilization"] * capacity,
        policy=params["policy"],
        arrival=params["arrival"],
        arrival_kwargs=(
            {"burstiness": 3.0, "burst_fraction": 0.25, "mean_phase_s": 0.05}
            if params["arrival"] == "mmpp"
            else {}
        ),
    )


def _fleet_config(params) -> FleetConfig:
    datacenters = (
        Datacenter(
            "east", Region("east", 0.0, 0.0), num_servers=3, parallelism=2,
            service_mean_s=0.01, policy=params["policy"],
        ),
        Datacenter(
            "west", Region("west", 1.0, 0.5), num_servers=2, parallelism=1,
            service_mean_s=0.012, policy=params["policy"],
        ),
    )
    return FleetConfig(
        datacenters=datacenters,
        offered_qps=params["offered_qps"],
        routing=params["routing"],
        load_shape=LoadShape((1.4, 0.6, 1.0)[: params["num_epochs"]], epoch_s=3.0),
        arrival=params["arrival"],
        arrival_kwargs=(
            {"burstiness": 4.0, "burst_fraction": 0.2, "mean_phase_s": 1.0}
            if params["arrival"] == "mmpp"
            else {}
        ),
        origin_weights=(0.7, 0.3),
    )


def _assert_fleet_identical(first, second) -> None:
    """Bitwise equality of two fleet results (samples, histograms, counts)."""
    assert first.total_requests == second.total_requests
    assert first.network_sum_s == second.network_sum_s
    for name in first.class_samples:
        assert np.array_equal(
            np.array(first.class_samples[name]),
            np.array(second.class_samples[name]),
        )
    for name, histogram in first.datacenter_histograms.items():
        other = second.datacenter_histograms[name]
        assert np.array_equal(histogram.counts, other.counts)
        assert histogram.sum_s == other.sum_s
        assert histogram.max_s == other.max_s
    for mine, theirs in zip(first.epoch_stats, second.epoch_stats):
        assert mine.requests == theirs.requests
        assert mine.busy_s == theirs.busy_s
        assert mine.servers == theirs.servers


# ------------------------------------------------------------------ cluster


class TestClusterEngineEquivalence:
    """Fast kernels == event engine on randomized cluster configurations."""

    @given(params=cluster_configs)
    @settings(max_examples=25, deadline=None)
    def test_fast_matches_event_bitwise(self, params):
        """Sorted latencies, routing counts, and duration are bit-identical
        across engines for every policy and arrival process."""
        config = _cluster_config(params)
        fast = simulate_cluster(config, num_requests=400, seed=params["seed"], engine="fast")
        event = simulate_cluster(config, num_requests=400, seed=params["seed"], engine="event")
        assert np.array_equal(
            np.sort(np.array(fast.latency.samples)),
            np.sort(np.array(event.latency.samples)),
        )
        assert fast.per_server_counts == event.per_server_counts
        assert fast.duration_s == event.duration_s


class _Recorder:
    """Collector duck-type keeping each request's (server, latency)."""

    def __init__(self, count: int):
        self.servers = [None] * count
        self.latencies = [None] * count

    def record(self, request_index: int, server_id: int, latency_s: float) -> None:
        self.servers[request_index] = server_id
        self.latencies[request_index] = latency_s


# Exact binary fractions, so ties are real ties: four simultaneous arrivals
# on an idle cluster (JSQ backlog ties), arrivals landing exactly on earlier
# completions (the kernel drains with a strict ``<``), and bursts that queue.
_TIE_ARRIVALS = [
    0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.5, 2.0,
    2.0, 2.5, 3.0, 3.0, 3.0, 3.0, 3.5, 4.0, 4.0, 6.0,
]
_TIE_SERVICES = [
    1.0, 1.0, 2.0, 0.5, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0,
    1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 2.0, 1.0,
]


class TestServeEdgeCases:
    """The serving seam on a hand-built stream with exact timestamp ties."""

    @pytest.mark.parametrize("policy", ["jsq", "po2", "random", "round_robin"])
    @pytest.mark.parametrize("num_servers, parallelism", [(1, 1), (1, 2), (3, 1), (3, 2)])
    def test_serve_matches_serve_event_on_ties(self, policy, num_servers, parallelism):
        """Per-request latency and server choice are bit-identical between
        :func:`serve` and its event oracle, ties and single server included."""
        completions, assignment = serve(
            _TIE_ARRIVALS, _TIE_SERVICES, policy, num_servers, parallelism,
            random.Random(7),
        )
        recorder = _Recorder(len(_TIE_ARRIVALS))
        serve_event(
            _TIE_ARRIVALS, _TIE_SERVICES, policy, num_servers, parallelism,
            random.Random(7), recorder,
        )
        assert set(_TIE_ARRIVALS) & set(completions)  # the stream hits the edge
        assert assignment == recorder.servers
        assert [
            completion - arrival
            for completion, arrival in zip(completions, _TIE_ARRIVALS)
        ] == recorder.latencies


# -------------------------------------------------------------------- fleet


class TestFleetEngineEquivalence:
    """Fleet days replay bit-identically on the fast and event engines."""

    @given(params=fleet_shapes)
    @settings(max_examples=15, deadline=None)
    def test_fast_matches_event_bitwise(self, params):
        """Per-class samples, per-site histograms, and per-epoch cells agree
        bitwise between the two engines on randomized fleet days."""
        config = _fleet_config(params)
        fast = FleetSimulation(
            config, seed=params["seed"], engine="fast", collect_samples=True
        ).run()
        event = FleetSimulation(
            config, seed=params["seed"], engine="event", collect_samples=True
        ).run()
        assert fast.engine == "fast" and event.engine == "event"
        _assert_fleet_identical(fast, event)

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        epochs=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_empty_shape_is_stationary_baseline(self, seed, epochs):
        """The empty LoadShape and an explicit all-ones flat trace produce
        byte-identical days: modulation composes onto, never perturbs."""
        datacenters = (
            Datacenter(
                "solo", Region("solo"), num_servers=3, parallelism=2,
                service_mean_s=0.01, policy="jsq",
            ),
        )
        stationary = FleetConfig(
            datacenters=datacenters, offered_qps=300.0, num_epochs=epochs,
            load_shape=LoadShape((), epoch_s=2.0),
        )
        flat = FleetConfig(
            datacenters=datacenters, offered_qps=300.0,
            load_shape=LoadShape.flat(epochs, epoch_s=2.0),
        )
        first = FleetSimulation(stationary, seed=seed, collect_samples=True).run()
        second = FleetSimulation(flat, seed=seed, collect_samples=True).run()
        _assert_fleet_identical(first, second)

    def test_identical_seeds_identical_days(self):
        """Re-running the same configuration and seed reproduces the day."""
        config = _fleet_config(
            {
                "routing": "spillover",
                "policy": "po2",
                "arrival": "mmpp",
                "num_epochs": 3,
                "offered_qps": 250.0,
                "seed": 0,
            }
        )
        first = FleetSimulation(config, seed=9, collect_samples=True).run()
        second = FleetSimulation(config, seed=9, collect_samples=True).run()
        _assert_fleet_identical(first, second)


# ------------------------------------------------------- executor invariance


def _fleet_day_requests(seed: int) -> int:
    """One tiny fleet day's request count (module-level: picklable)."""
    config = FleetConfig(
        datacenters=(
            Datacenter(
                "east", Region("east"), num_servers=2, parallelism=2,
                service_mean_s=0.01, policy="jsq",
            ),
        ),
        offered_qps=200.0,
        load_shape=LoadShape((1.5, 0.5), epoch_s=2.0),
    )
    return FleetSimulation(config, seed=seed).run().total_requests


class TestExecutorInvariance:
    """Serial and process-parallel sweeps produce identical fleet results."""

    def test_serial_equals_parallel(self):
        """Fleet days are pure functions of (config, seed): fan-out across
        processes must not change a single result."""
        points = [(seed,) for seed in range(6)]
        serial = SweepExecutor(mode="serial").map(_fleet_day_requests, points)
        parallel = SweepExecutor(mode="process", max_workers=3).map(
            _fleet_day_requests, points
        )
        assert serial == parallel


# ----------------------------------------------------------- study-level


class TestStudyEquivalence:
    """The catalog studies accept engine overrides and agree across them."""

    def test_diurnal_study_rows_match_event_engine(self):
        """A small diurnal-day study produces identical rows on both engines
        (rows only carry histogram-derived and count statistics)."""
        from repro.experiments.fleet import fleet_diurnal_day

        kwargs = dict(offered_qps=400.0, epoch_s=0.5)
        assert fleet_diurnal_day(engine="fast", **kwargs) == fleet_diurnal_day(
            engine="event", **kwargs
        )
