"""Unit, statistical, and regression tests for the fleet layer.

Covers the pieces of ``src/repro/fleet/`` individually -- geography, load
shapes, routing, traffic generation (with statistical validation against
analytic rates and pinned-seed regression vectors), histograms, autoscaling
guard rails -- plus the chapter-10 studies' row contracts.  The cross-engine
bit-identity properties live in ``tests/test_fleet_equivalence.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import (
    DIURNAL_24,
    FLASH_CROWD_24,
    Autoscaler,
    Datacenter,
    EpochObservation,
    FleetConfig,
    FleetSimulation,
    LatencyHistogram,
    LoadShape,
    Region,
    RequestClass,
    StaticPolicy,
    TargetUtilizationPolicy,
    latency_rank,
    make_policy,
    network_latency_s,
    route_demand,
    routing_seed,
)
from repro.fleet.metrics import _EDGES
from repro.fleet.traffic import (
    chunk_rng,
    generate_chunk,
    mmpp_arrival_times,
    poisson_arrival_times,
    service_times,
)
from repro.service.arrivals import MmppArrivals


def _datacenter(name="east", x=0.0, y=0.0, servers=3, **kwargs):
    defaults = dict(parallelism=2, service_mean_s=0.01, policy="jsq")
    defaults.update(kwargs)
    return Datacenter(name, Region(name, x, y), num_servers=servers, **defaults)


# ------------------------------------------------------------------- geo


class TestGeo:
    """Regions, distances, and the network latency model."""

    def test_same_region_is_free(self):
        region = Region("east", 1.0, 2.0)
        assert network_latency_s(region, region) == 0.0

    def test_latency_grows_with_distance(self):
        origin = Region("o", 0.0, 0.0)
        near = Region("near", 1.0, 0.0)
        far = Region("far", 3.0, 4.0)
        assert 0.0 < network_latency_s(origin, near) < network_latency_s(origin, far)

    def test_capacity_and_validation(self):
        dc = _datacenter(servers=4)
        assert dc.capacity_qps() == pytest.approx(4 * 2 / 0.01)
        assert dc.capacity_qps(servers=1) == pytest.approx(200.0)
        with pytest.raises(ValueError):
            Datacenter("bad", Region("bad"), num_servers=0, parallelism=1,
                       service_mean_s=0.01)
        with pytest.raises(ValueError):
            Datacenter("bad", Region("bad"), num_servers=2, parallelism=1,
                       service_mean_s=0.01, min_servers=3)


# ------------------------------------------------------------- load shapes


class TestLoadShape:
    """Trace normalization, lookup semantics, and the bundled shapes."""

    def test_from_trace_normalizes_to_unit_mean(self):
        shape = LoadShape.from_trace((2.0, 4.0, 6.0), epoch_s=10.0)
        assert sum(shape.multipliers) / 3 == pytest.approx(1.0)
        assert shape.multiplier(2) == pytest.approx(1.5)

    def test_empty_shape_is_flat(self):
        shape = LoadShape()
        assert shape.num_epochs == 0
        assert shape.multiplier(0) == 1.0
        assert shape.multiplier(99) == 1.0

    def test_multiplier_beyond_trace_is_one(self):
        shape = LoadShape.from_trace((1.0, 3.0))
        assert shape.multiplier(17) == 1.0

    def test_diurnal_peak_and_trough(self):
        assert DIURNAL_24.num_epochs == 24
        assert DIURNAL_24.peak_epoch == 14
        assert DIURNAL_24.trough_epoch == 2
        assert DIURNAL_24.multiplier(14) == pytest.approx(1.75, rel=1e-6)
        assert sum(DIURNAL_24.multipliers) / 24 == pytest.approx(1.0)

    def test_flash_crowd_spikes(self):
        peak = FLASH_CROWD_24.multiplier(FLASH_CROWD_24.peak_epoch)
        assert peak > 2.0
        assert sum(FLASH_CROWD_24.multipliers) / 24 == pytest.approx(1.0)


# ----------------------------------------------------------------- routing


class TestRouting:
    """Fluid demand splitting under the three geo-routing policies."""

    def setup_method(self):
        self.datacenters = (
            _datacenter("east", 0.0, 0.0),
            _datacenter("mid", 1.0, 0.0),
            _datacenter("west", 2.0, 0.0),
        )
        self.capacities = [dc.capacity_qps() for dc in self.datacenters]

    def test_latency_rank_orders_by_distance(self):
        assert latency_rank(Region("east"), self.datacenters) == [0, 1, 2]
        assert latency_rank(Region("west", 2.0, 0.0), self.datacenters) == [2, 1, 0]

    def test_nearest_sends_everything_home(self):
        allocated = [0.0, 0.0, 0.0]
        shares = route_demand(
            "nearest", Region("east"), 100.0, self.datacenters,
            self.capacities, allocated,
        )
        assert shares == [(0, 100.0)]
        assert allocated == [100.0, 0.0, 0.0]

    def test_latency_weighted_prefers_closer_sites(self):
        allocated = [0.0, 0.0, 0.0]
        shares = dict(
            route_demand(
                "latency_weighted", Region("east"), 100.0, self.datacenters,
                self.capacities, allocated,
            )
        )
        assert shares[0] > shares[1] > shares[2]
        assert sum(shares.values()) == pytest.approx(100.0)

    def test_spillover_overflows_past_threshold(self):
        demand = 0.9 * self.capacities[0]
        allocated = [0.0, 0.0, 0.0]
        shares = dict(
            route_demand(
                "spillover", Region("east"), demand, self.datacenters,
                self.capacities, allocated, spill_threshold=0.75,
            )
        )
        assert shares[0] == pytest.approx(0.75 * self.capacities[0])
        assert shares[1] == pytest.approx(demand - shares[0])
        assert 2 not in shares

    def test_spillover_last_site_absorbs_everything(self):
        demand = 10 * sum(self.capacities)
        allocated = [0.0, 0.0, 0.0]
        shares = dict(
            route_demand(
                "spillover", Region("east"), demand, self.datacenters,
                self.capacities, allocated,
            )
        )
        assert sum(shares.values()) == pytest.approx(demand)
        assert shares[2] > shares[0]

    def test_request_class_validation(self):
        with pytest.raises(ValueError):
            RequestClass("bad", fraction=0.0)
        with pytest.raises(ValueError):
            RequestClass("bad", fraction=0.5, service_scale=-1.0)


# ----------------------------------------------------------------- traffic


class TestTrafficStatistics:
    """Empirical rates of the vectorized generators match analytics."""

    def test_poisson_count_matches_rate(self):
        """Pooled over many chunks, the empirical rate lands within a few
        standard errors of the configured one."""
        rate, duration, chunks = 50.0, 10.0, 40
        counts = [
            poisson_arrival_times(chunk_rng(3, e, 0, 0, 0, 0), rate, duration).size
            for e in range(chunks)
        ]
        total = sum(counts)
        expected = rate * duration * chunks
        assert abs(total - expected) < 4 * math.sqrt(expected)

    def test_poisson_uniform_conditional_law(self):
        """Conditioned on the count, arrival instants are uniform on the
        epoch: the empirical mean sits near duration/2."""
        times = poisson_arrival_times(chunk_rng(5, 0, 0, 0, 0, 0), 2_000.0, 10.0)
        assert times.size > 1_000
        assert abs(float(times.mean()) - 5.0) < 0.2
        assert float(times.min()) >= 0.0 and float(times.max()) < 10.0
        assert np.all(np.diff(times) >= 0.0)

    def test_mmpp_mean_rate_matches_configuration(self):
        """The time-warped MMPP keeps the configured long-run mean rate."""
        process = MmppArrivals(
            rate_rps=80.0, burstiness=5.0, burst_fraction=0.25, mean_phase_s=0.5
        )
        duration, chunks = 20.0, 30
        total = sum(
            mmpp_arrival_times(chunk_rng(11, e, 0, 0, 0, 0), process, duration).size
            for e in range(chunks)
        )
        expected = process.rate_rps * duration * chunks
        assert abs(total - expected) / expected < 0.05

    def test_mmpp_is_burstier_than_poisson(self):
        """Windowed counts of the MMPP overdisperse relative to Poisson:
        variance-to-mean well above 1 for the modulated stream."""
        process = MmppArrivals(
            rate_rps=200.0, burstiness=8.0, burst_fraction=0.15, mean_phase_s=1.0
        )
        times = mmpp_arrival_times(chunk_rng(13, 0, 0, 0, 0, 0), process, 60.0)
        windows = np.histogram(times, bins=np.arange(0.0, 60.5, 0.5))[0]
        dispersion = float(windows.var()) / float(windows.mean())
        assert dispersion > 2.0

    def test_service_time_means(self):
        rng = chunk_rng(17, 0, 0, 0, 0, 1)
        exp = service_times(rng, "exponential", 0.02, 50_000)
        assert float(exp.mean()) == pytest.approx(0.02, rel=0.05)
        det = service_times(rng, "deterministic", 0.02, 10)
        assert np.all(det == 0.02)
        with pytest.raises(ValueError):
            service_times(rng, "pareto", 0.02, 10)


class TestTrafficRegressionVectors:
    """Pinned-seed vectors freeze the generator streams against RNG drift."""

    def test_poisson_vector(self):
        times = poisson_arrival_times(chunk_rng(7, 2, 1, 0, 0, 0), 5.0, 4.0)
        assert times.size == 18
        assert times[:5].tolist() == [
            0.11537636155533981, 0.5287030465606044, 0.6443057696102161,
            0.6579819221532568, 0.6645733244510623,
        ]

    def test_mmpp_vector(self):
        process = MmppArrivals(
            rate_rps=6.0, burstiness=4.0, burst_fraction=0.2, mean_phase_s=1.0
        )
        times = mmpp_arrival_times(chunk_rng(7, 2, 1, 0, 0, 0), process, 4.0)
        assert times.size == 42
        assert times[:5].tolist() == [
            0.041099576132181494, 0.322913308817391, 0.3281970303622831,
            0.3828154668495689, 0.5058861188810286,
        ]

    def test_service_vector(self):
        values = service_times(chunk_rng(7, 2, 1, 0, 0, 1), "exponential", 0.01, 4)
        assert values.tolist() == [
            0.006151809168205258, 0.003922689768713194,
            0.01389441549625162, 0.013773271280528972,
        ]

    def test_routing_seed_vector(self):
        assert routing_seed(7, 2, 1) == 6542025431983499246

    def test_streams_are_independent_of_generation_order(self):
        """Chunk RNGs key on coordinates, not call order."""
        first = poisson_arrival_times(chunk_rng(1, 0, 0, 0, 0, 0), 20.0, 2.0)
        _ = poisson_arrival_times(chunk_rng(1, 5, 3, 1, 1, 0), 20.0, 2.0)
        again = poisson_arrival_times(chunk_rng(1, 0, 0, 0, 0, 0), 20.0, 2.0)
        assert np.array_equal(first, again)


class TestGenerateChunk:
    """Merged chunk assembly: ordering, alignment, and class scaling."""

    def test_chunk_is_sorted_and_aligned(self):
        chunk = generate_chunk(
            seed=1, epoch=0, datacenter=0,
            shares=[(0, 0, 100.0), (1, 1, 50.0)],
            duration_s=4.0, arrival="poisson", arrival_kwargs={},
            service_mean_s=0.01, service_distribution="exponential",
            class_service_scales=(1.0, 4.0),
        )
        assert np.all(np.diff(chunk.arrivals) >= 0.0)
        assert chunk.count == chunk.services.size == chunk.class_ids.size
        assert set(np.unique(chunk.class_ids)) <= {0, 1}
        assert chunk.offered_qps == pytest.approx(150.0)
        # The 4x class mean shows up in the per-class service averages.
        heavy = chunk.services[chunk.class_ids == 1]
        light = chunk.services[chunk.class_ids == 0]
        assert float(heavy.mean()) > 2.0 * float(light.mean())

    def test_empty_shares_make_empty_chunk(self):
        chunk = generate_chunk(
            seed=1, epoch=0, datacenter=0, shares=[], duration_s=4.0,
            arrival="poisson", arrival_kwargs={}, service_mean_s=0.01,
            service_distribution="exponential", class_service_scales=(1.0,),
        )
        assert chunk.count == 0


# --------------------------------------------------------------- histograms


class TestLatencyHistogram:
    """Log-binned percentiles, merging, and empty-distribution semantics."""

    def test_percentiles_track_exact_quantiles(self):
        rng = np.random.default_rng(3)
        samples = rng.exponential(0.01, 200_000)
        histogram = LatencyHistogram()
        histogram.add_batch(samples)
        for fraction in (0.5, 0.95, 0.99):
            exact = float(np.quantile(samples, fraction))
            assert histogram.percentile(fraction) == pytest.approx(exact, rel=0.02)
        assert histogram.mean_s == pytest.approx(float(samples.mean()))
        assert histogram.count == samples.size

    def test_merge_matches_single_pass(self):
        rng = np.random.default_rng(4)
        first, second = rng.exponential(0.01, 5_000), rng.exponential(0.03, 5_000)
        merged = LatencyHistogram()
        merged.add_batch(first)
        other = LatencyHistogram()
        other.add_batch(second)
        merged.merge(other)
        single = LatencyHistogram()
        single.add_batch(np.concatenate([first, second]))
        assert np.array_equal(merged.counts, single.counts)
        assert merged.sum_s == pytest.approx(single.sum_s)
        assert merged.max_s == single.max_s

    def test_empty_histogram_is_nan_not_crash(self):
        histogram = LatencyHistogram()
        assert math.isnan(histogram.mean_s)
        assert math.isnan(histogram.percentile(0.99))
        assert math.isnan(histogram.fraction_below(0.1))
        assert histogram.count == 0

    def test_sla_attainment_fraction(self):
        histogram = LatencyHistogram()
        histogram.add_batch(np.array([0.001] * 90 + [1.0] * 10))
        assert histogram.fraction_below(0.1) == pytest.approx(0.9, abs=0.01)
        assert histogram.fraction_below(2.0) == 1.0


class _DenseHistogram:
    """Reference: the full 512-bin int64 histogram the compact one replaces."""

    def __init__(self):
        self.counts = np.zeros(_EDGES.size - 1, dtype=np.int64)
        self.underflow = self.overflow = self.total = 0
        self.max_s = 0.0

    def add_batch(self, latencies):
        if latencies.size:
            self.counts += np.histogram(latencies, bins=_EDGES)[0]
            self.underflow += int(np.count_nonzero(latencies < _EDGES[0]))
            self.overflow += int(np.count_nonzero(latencies >= _EDGES[-1]))
            self.total += int(latencies.size)
            self.max_s = max(self.max_s, float(latencies.max()))

    def merge(self, other):
        self.counts += other.counts
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.total += other.total
        self.max_s = max(self.max_s, other.max_s)

    # The compact histogram's queries read only these fields, so the same
    # code evaluated over the dense fields is the reference answer.
    percentile = LatencyHistogram.percentile
    fraction_below = LatencyHistogram.fraction_below


#: Latency batches whose bins fall in one of a few decades, so pairs of
#: batches land on disjoint, touching and overlapping bin ranges; the
#: extremes reach the underflow and overflow slots.
_batches = st.tuples(
    st.sampled_from([1e-6, 1e-5, 3e-4, 2e-3, 0.05, 2.0, 900.0]),
    st.lists(st.floats(min_value=1.0, max_value=40.0), max_size=40),
).map(lambda case: np.array([case[0] * factor for factor in case[1]]))

_FRACTIONS = (0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0)
_THRESHOLDS = (1e-6, 1e-5, 4e-4, 0.003, 0.07, 0.5, 3.0, 60.0, 5e3)


def _same(value, reference):
    return (math.isnan(value) and math.isnan(reference)) or value == reference


def _assert_matches_dense(compact, dense):
    assert compact.counts.dtype == np.int64
    assert np.array_equal(compact.counts, dense.counts)
    assert (compact.underflow, compact.overflow, compact.total) == (
        dense.underflow, dense.overflow, dense.total,
    )
    for fraction in _FRACTIONS:
        assert _same(compact.percentile(fraction), dense.percentile(fraction))
    for threshold in _THRESHOLDS:
        assert _same(compact.fraction_below(threshold), dense.fraction_below(threshold))


class TestCompactHistogram:
    """The compact bin store answers exactly as a dense 512-bin histogram."""

    @given(first=st.lists(_batches, max_size=3), second=st.lists(_batches, max_size=3))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_matches_dense_reference_and_merges_in_both_orders(self, first, second):
        """Counts, percentiles and SLA fractions equal the dense reference's,
        for each side and for the merge taken in either order -- empty
        histograms, disjoint and overlapping bin ranges included."""
        compact = [LatencyHistogram(), LatencyHistogram()]
        dense = [_DenseHistogram(), _DenseHistogram()]
        for side, batches in enumerate((first, second)):
            for batch in batches:
                compact[side].add_batch(batch)
                dense[side].add_batch(batch)
            _assert_matches_dense(compact[side], dense[side])
        for left, right in ((0, 1), (1, 0)):
            merged, reference = LatencyHistogram(), _DenseHistogram()
            for index in (left, right):
                merged.merge(compact[index])
                reference.merge(dense[index])
            _assert_matches_dense(merged, reference)

    def test_stores_only_the_occupied_range_narrowly(self):
        histogram = LatencyHistogram()
        histogram.add_batch(np.array([0.0101, 0.0102, 0.0109, 0.0131]))
        assert histogram._bins.dtype == np.uint8
        assert 1 < histogram._bins.size < 10
        assert histogram.counts.sum() == 4

    def test_counts_above_two_to_the_32_widen_instead_of_wrapping(self):
        """Doubling a one-request histogram by self-merges carries a bin past
        2**32; the store widens to 64 bits and the count stays exact."""
        histogram, dense = LatencyHistogram(), _DenseHistogram()
        histogram.add_batch(np.array([0.004]))
        dense.add_batch(np.array([0.004]))
        dtypes = set()
        for _ in range(33):
            histogram.merge(histogram)
            dense.merge(dense)
            dtypes.add(histogram._bins.dtype)
        assert histogram.counts.max() == 2**33 == histogram.total
        assert histogram._bins.dtype == np.uint64
        assert {np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32)} <= dtypes
        _assert_matches_dense(histogram, dense)


# -------------------------------------------------------------- autoscaling


class TestAutoscaling:
    """Cooldowns, dead bands, bounds, and the N+k floor interaction."""

    def _observed(self, qps=100.0, latency=0.01, utilization=0.9):
        return EpochObservation(
            offered_qps=qps, completed_requests=1000,
            mean_latency_s=latency, utilization=utilization,
        )

    def test_static_policy_never_moves(self):
        scaler = Autoscaler(StaticPolicy(), (_datacenter(),), cooldown_epochs=0)
        for epoch in range(5):
            assert scaler.plan(epoch, 0, 3, self._observed()) == 3

    def test_cooldown_freezes_after_change(self):
        """After one scaling action the count is pinned for the cooldown
        window, even though the policy still wants to move."""
        dc = _datacenter(servers=2, max_servers=50)
        scaler = Autoscaler(
            TargetUtilizationPolicy(target=0.5, band=0.05), (dc,), cooldown_epochs=3
        )
        hot = self._observed(qps=2_000.0, utilization=0.95)
        first = scaler.plan(1, 0, 2, hot)
        assert first > 2
        assert scaler.plan(2, 0, first, hot) == first
        assert scaler.plan(3, 0, first, hot) == first
        cold = self._observed(qps=100.0, utilization=0.05)
        assert scaler.plan(4, 0, first, cold) < first

    def test_dead_band_prevents_flapping(self):
        """Utilization oscillating inside the band never triggers scaling."""
        dc = _datacenter(servers=4, max_servers=50)
        scaler = Autoscaler(
            TargetUtilizationPolicy(target=0.65, band=0.1), (dc,), cooldown_epochs=0
        )
        for epoch, utilization in enumerate([0.6, 0.7, 0.58, 0.72, 0.66] * 4):
            observed = self._observed(qps=500.0, utilization=utilization)
            assert scaler.plan(epoch, 0, 4, observed) == 4

    def test_scale_to_zero_guard(self):
        """Zero demand proposes zero servers; the clamp keeps one."""
        dc = _datacenter(servers=2)
        scaler = Autoscaler(
            TargetUtilizationPolicy(target=0.6, band=0.05), (dc,), cooldown_epochs=0
        )
        idle = self._observed(qps=0.0, utilization=0.0)
        assert scaler.plan(1, 0, 2, idle) == 1

    def test_nk_floor_from_sizing(self):
        """size_n_plus_k's redundant server count acts as a hard floor."""
        from repro.experiments.service import build_service_chip
        from repro.service.sizing import ClusterSizer
        from repro.tco.datacenter import DatacenterDesign
        from repro.workloads.suite import default_suite

        suite = default_suite()
        chip = build_service_chip("Scale-Out (OoO)", suite)
        sizer = ClusterSizer(DatacenterDesign(suite=suite), memory_gb=64)
        sized = sizer.size_n_plus_k(
            chip, suite["Web Search"], target_qps=5e5, sla_p99_s=0.025, k=2
        )
        assert sized.servers == sized.base_servers + 2
        dc = _datacenter(servers=sized.servers, max_servers=4 * sized.servers)
        scaler = Autoscaler(
            TargetUtilizationPolicy(target=0.6, band=0.05), (dc,),
            cooldown_epochs=0, floors=(sized.servers,),
        )
        idle = self._observed(qps=1.0, utilization=0.01)
        assert scaler.plan(1, 0, sized.servers, idle) == sized.servers

    def test_queue_depth_policy_reacts_to_latency(self):
        policy = make_policy("queue_depth", target_depth=0.5, trigger_ratio=1.2)
        dc = _datacenter(servers=2)
        slow = EpochObservation(
            offered_qps=300.0, completed_requests=500,
            mean_latency_s=0.05, utilization=0.9,
        )
        assert policy.desired_servers(dc, 2, slow) > 2
        idle = EpochObservation(
            offered_qps=0.0, completed_requests=0,
            mean_latency_s=float("nan"), utilization=0.0,
        )
        assert policy.desired_servers(dc, 2, idle) == 2

    def test_make_policy_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_policy("ml_oracle")


# ------------------------------------------------------------ fleet engine


class TestFleetEngine:
    """Day-level wiring: autoscaler integration, telemetry, and results."""

    def _config(self, **kwargs):
        defaults = dict(
            datacenters=(_datacenter(servers=2, max_servers=8),),
            offered_qps=300.0,
            load_shape=LoadShape((1.6, 0.4, 1.0), epoch_s=2.0),
        )
        defaults.update(kwargs)
        return FleetConfig(**defaults)

    def test_autoscaling_day_records_scale_events(self):
        result = FleetSimulation(
            self._config(
                autoscale="target_utilization",
                autoscale_kwargs={"target": 0.5, "band": 0.05},
                cooldown_epochs=0,
            ),
            seed=3,
        ).run()
        assert sum(result.scale_events.values()) > 0
        servers_by_epoch = [stats.servers for stats in result.epoch_stats]
        assert len(set(servers_by_epoch)) > 1

    def test_static_day_never_scales(self):
        result = FleetSimulation(self._config(), seed=3).run()
        assert sum(result.scale_events.values()) == 0
        assert all(stats.servers == 2 for stats in result.epoch_stats)

    def test_fleet_counters_and_span(self):
        from repro.obs.tracer import Tracer, set_tracer

        tracer = Tracer()
        set_tracer(tracer)
        try:
            result = FleetSimulation(self._config(), seed=1).run()
        finally:
            set_tracer(None)
        counters = tracer.counters()
        assert counters["fleet.requests"] == result.total_requests
        assert counters["fleet.epochs"] == 3
        assert counters["fleet.engine.fast"] == 1
        assert any(span.name == "fleet.day" for span in tracer.roots)

    def test_monthly_cost_scales_with_server_hours(self):
        config = self._config()
        result = FleetSimulation(config, seed=1).run()
        day_hours = 3 * 2.0 / 3600.0
        cost = result.monthly_cost_usd(config.datacenters, day_hours)
        # Two servers deployed all day at the default monthly price.
        assert cost == pytest.approx(2 * 280.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(datacenters=(), offered_qps=10.0)
        with pytest.raises(ValueError):
            self._config(routing="teleport")
        with pytest.raises(ValueError):
            self._config(
                classes=(RequestClass("only", fraction=0.5),)
            )
        with pytest.raises(ValueError):
            self._config(origin_weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            FleetSimulation(self._config(), engine="warp")


# ------------------------------------------------------------------ studies


class TestFleetStudies:
    """Row contracts of the chapter-10 catalog studies (tiny overrides)."""

    def test_diurnal_day_rows(self):
        from repro.experiments.fleet import fleet_diurnal_day

        rows = fleet_diurnal_day(offered_qps=500.0, epoch_s=0.25)
        datacenters = {row["datacenter"] for row in rows}
        assert "fleet" in datacenters and len(datacenters) == 4
        assert len(rows) == 24 * 4
        fleet_rows = [row for row in rows if row["datacenter"] == "fleet"]
        assert fleet_rows[14]["multiplier"] == pytest.approx(1.75, rel=1e-3)

    def test_autoscale_policy_rows(self):
        from repro.experiments.fleet import fleet_autoscale_policies

        rows = fleet_autoscale_policies(
            offered_qps=500.0, epoch_s=0.25, policies=("static", "target_utilization")
        )
        by_policy = {row["autoscale"]: row for row in rows}
        assert by_policy["static"]["scale_events"] == 0
        assert by_policy["target_utilization"]["server_hours"] <= (
            by_policy["static"]["server_hours"]
        )

    def test_class_priority_rows(self):
        from repro.experiments.fleet import fleet_class_priorities

        rows = fleet_class_priorities(offered_qps=500.0, epoch_s=0.25)
        by_class = {row["request_class"]: row for row in rows}
        assert set(by_class) == {"interactive", "batch"}
        assert by_class["interactive"]["requests"] > by_class["batch"]["requests"]
