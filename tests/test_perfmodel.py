"""Tests for the analytic performance model and performance density."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.registry import run_experiment
from repro.interconnect import INTERCONNECTS, Floorplan, MeshInterconnect, interconnect_model
from repro.obs.tracer import Tracer, use_tracer

from repro.perfmodel import (
    AnalyticPerformanceModel,
    AreaBudget,
    PerformanceEstimate,
    SystemConfig,
    performance_density,
)
from repro.perfmodel.amat import CpiBreakdown, LlcAccessLatency
from repro.perfmodel.analytic import design_cache
from repro.runtime.bench import perfmodel_sweep_configs
from repro.technology import components
from repro.technology.components import ComponentCatalog
from repro.technology.family import DEFAULT_FAMILY, FAMILY_NODE_NAMES
from repro.technology.node import NODE_20NM, NODE_40NM
from repro.workloads import default_suite, get_workload


@pytest.fixture(scope="module")
def model():
    return AnalyticPerformanceModel()


class TestCpiBreakdown:
    def test_total_and_ipc(self):
        cpi = CpiBreakdown(base=0.5, instruction_fetch=0.2, data_llc=0.2, memory=0.1)
        assert cpi.total == pytest.approx(1.0)
        assert cpi.ipc == pytest.approx(1.0)
        assert set(cpi.as_dict()) == {"base", "instruction_fetch", "data_llc", "memory", "total", "ipc"}

    def test_llc_latency_total(self):
        latency = LlcAccessLatency(bank_cycles=4, network_cycles=5, contention_cycles=1)
        assert latency.total_cycles == 10


class TestSystemConfig:
    def test_default_banking_rules(self):
        assert SystemConfig(cores=16, interconnect="crossbar").resolved_banks() == 4
        assert SystemConfig(cores=16, interconnect="mesh").resolved_banks() == 16
        assert SystemConfig(cores=16, llc_banks=2).resolved_banks() == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(cores=0)
        with pytest.raises(ValueError):
            SystemConfig(cores=1, llc_capacity_mb=0)
        with pytest.raises(ValueError):
            SystemConfig(cores=1, effective_capacity_factor=0)

    def test_bad_llc_banks_fail_at_construction(self):
        for banks in (0, -4):
            with pytest.raises(ValueError, match="llc_banks must be >= 1"):
                SystemConfig(cores=4, llc_banks=banks)

    def test_effective_capacity(self):
        config = SystemConfig(cores=4, llc_capacity_mb=8, effective_capacity_factor=0.5)
        assert config.effective_llc_capacity_mb == pytest.approx(4.0)


class TestEstimates:
    def test_estimate_fields(self, model):
        workload = get_workload("Web Search")
        config = SystemConfig(cores=16, core_type="ooo", llc_capacity_mb=4)
        estimate = model.estimate(workload, config)
        assert isinstance(estimate, PerformanceEstimate)
        assert estimate.per_core_ipc > 0
        assert estimate.aggregate_ipc == pytest.approx(16 * estimate.per_core_ipc)
        assert estimate.offchip_bandwidth_gbps > 0
        assert estimate.llc_mpki > 0

    @pytest.mark.parametrize("workload_name", [w.name for w in default_suite()])
    def test_figure_2_1_ipc_ranges(self, model, workload_name):
        # Figure 2.1: only Media Streaming commits below 1 IPC on the aggressive
        # core; every workload commits at most ~2 IPC.
        workload = get_workload(workload_name)
        config = SystemConfig(cores=4, core_type="conventional", llc_capacity_mb=4, interconnect="ideal")
        ipc = model.estimate(workload, config).per_core_ipc
        assert 0.5 < ipc < 2.0
        if workload_name == "Media Streaming":
            assert ipc < 1.0

    def test_figure_2_2_llc_sweep_shape(self, model):
        # Performance improves towards 4-16 MB and does not improve at 32 MB.
        suite = default_suite()
        def perf(llc):
            cfg = SystemConfig(cores=4, core_type="ooo", llc_capacity_mb=llc, interconnect="crossbar")
            return model.average_aggregate_ipc(cfg, suite)
        p1, p8, p32 = perf(1), perf(8), perf(32)
        assert p8 > p1
        assert p32 <= p8 * 1.02

    def test_figure_2_3_interconnect_gap_grows(self, model):
        suite = default_suite()
        def per_core(cores, interconnect):
            cfg = SystemConfig(cores=cores, core_type="ooo", llc_capacity_mb=4, interconnect=interconnect)
            return model.average_per_core_ipc(cfg, suite)
        gap_small = per_core(16, "ideal") / per_core(16, "mesh")
        gap_large = per_core(256, "ideal") / per_core(256, "mesh")
        assert gap_large > gap_small
        assert gap_large > 1.1
        # Ideal-interconnect sharing degradation stays mild (Figure 2.3a).
        assert per_core(256, "ideal") > 0.7 * per_core(2, "ideal")

    def test_smaller_cache_means_more_offchip_traffic(self, model):
        workload = get_workload("MapReduce-C")
        small = model.estimate(workload, SystemConfig(cores=16, llc_capacity_mb=1))
        large = model.estimate(workload, SystemConfig(cores=16, llc_capacity_mb=16))
        assert small.offchip_bandwidth_gbps > large.offchip_bandwidth_gbps

    def test_instruction_replication_helps_mesh_designs(self, model):
        workload = get_workload("Web Frontend")
        base = SystemConfig(cores=64, core_type="ooo", llc_capacity_mb=8, interconnect="mesh")
        with_ir = SystemConfig(
            cores=64, core_type="ooo", llc_capacity_mb=8, interconnect="mesh",
            instruction_replication=True, effective_capacity_factor=0.85, offchip_traffic_factor=1.2,
        )
        assert model.estimate(workload, with_ir).per_core_ipc > model.estimate(workload, base).per_core_ipc

    def test_inorder_slower_than_ooo_slower_than_conventional(self, model):
        workload = get_workload("Data Serving")
        def ipc(core):
            return model.estimate(workload, SystemConfig(cores=8, core_type=core, llc_capacity_mb=4)).per_core_ipc
        assert ipc("conventional") > ipc("ooo") > ipc("inorder")

    def test_suite_helpers(self, model):
        config = SystemConfig(cores=8, core_type="ooo", llc_capacity_mb=4)
        estimates = model.suite_estimates(config)
        assert len(estimates) == 7
        assert model.worst_case_bandwidth_gbps(config) == pytest.approx(
            max(e.offchip_bandwidth_gbps for e in estimates.values())
        )

    @settings(max_examples=25, deadline=None)
    @given(
        cores=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
        llc=st.sampled_from([1.0, 2.0, 4.0, 8.0, 16.0]),
        core_type=st.sampled_from(["conventional", "ooo", "inorder"]),
        interconnect=st.sampled_from(["ideal", "crossbar", "mesh"]),
    )
    def test_estimates_always_physical(self, cores, llc, core_type, interconnect):
        model = AnalyticPerformanceModel()
        workload = get_workload("Web Search")
        config = SystemConfig(cores=cores, core_type=core_type, llc_capacity_mb=llc, interconnect=interconnect)
        estimate = model.estimate(workload, config)
        assert 0 < estimate.per_core_ipc <= 4.0
        assert estimate.cpi.total > 0
        assert estimate.llc_latency.total_cycles >= 4.0

    def test_memory_latency_uses_node_standard(self):
        workload = get_workload("Web Search")
        model = AnalyticPerformanceModel()
        cfg40 = SystemConfig(cores=8, llc_capacity_mb=4, node=NODE_40NM)
        cfg20 = SystemConfig(cores=8, llc_capacity_mb=4, node=NODE_20NM)
        # Both should produce sensible estimates; 20nm uses DDR4 timing.
        assert model.estimate(workload, cfg40).per_core_ipc > 0
        assert model.estimate(workload, cfg20).per_core_ipc > 0


class TestPerformanceDensity:
    def test_basic(self):
        assert performance_density(25.0, 250.0) == pytest.approx(0.1)
        assert performance_density(25.0, 250.0, num_dies=2) == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            performance_density(1.0, 0.0)
        with pytest.raises(ValueError):
            performance_density(-1.0, 10.0)
        with pytest.raises(ValueError):
            performance_density(1.0, 10.0, num_dies=0)

    def test_area_budget_arithmetic(self):
        a = AreaBudget(cores_mm2=10, llc_mm2=5)
        b = AreaBudget(interconnect_mm2=1, soc_misc_mm2=42)
        total = a + b
        assert total.total_mm2 == pytest.approx(58.0)
        assert a.scaled(2).cores_mm2 == pytest.approx(20.0)
        with pytest.raises(ValueError):
            AreaBudget(cores_mm2=-1)
        with pytest.raises(ValueError):
            a.scaled(-1)


FAMILY_NODES = [DEFAULT_FAMILY.node(name) for name in FAMILY_NODE_NAMES]

#: 40nm component specs of each core type, scaled afresh by the oracles below.
CORE_SPECS_40NM = {
    "conventional": components.CONVENTIONAL_CORE_40NM,
    "ooo": components.OOO_CORE_40NM,
    "inorder": components.INORDER_CORE_40NM,
}

#: SHA-256 of every ``suite_estimates`` over the ``perfmodel_sweep`` grid,
#: pinned from the model as it was before designs were cached.
PERFMODEL_SWEEP_DIGEST = "fd03a922eac8401de8b9d4c485ef26fb0f5a563e2801b9d0d0df9360024a7761"


class TestDesignCache:
    """The per-design LLC/network terms and per-node specs are computed once."""

    @settings(max_examples=150, deadline=None)
    @given(
        node=st.sampled_from(FAMILY_NODES),
        core_type=st.sampled_from(sorted(CORE_SPECS_40NM)),
        interconnect=st.sampled_from(sorted(INTERCONNECTS)),
        cores=st.sampled_from((1, 2, 4, 8, 16, 32, 64)),
        llc_mb=st.sampled_from((1.0, 2.0, 4.0, 8.0)),
        llc_banks=st.none() | st.integers(1, 32),
        instruction_replication=st.booleans(),
        accesses_per_cycle=st.sampled_from((0.0, 0.05, 0.5, 3.0)),
    )
    def test_llc_access_latency_matches_a_fresh_recomputation(
        self, node, core_type, interconnect, cores, llc_mb, llc_banks,
        instruction_replication, accesses_per_cycle,
    ):
        # The small grid repeats designs across examples, so most calls are
        # cache hits; each must equal the terms recomputed from scratch.
        config = SystemConfig(
            cores=cores, core_type=core_type, llc_capacity_mb=llc_mb,
            interconnect=interconnect, node=node, llc_banks=llc_banks,
            instruction_replication=instruction_replication,
        )
        latency = AnalyticPerformanceModel().llc_access_latency(config, accesses_per_cycle)

        llc = config.llc()
        floorplan = Floorplan(
            cores=cores,
            core_area_mm2=CORE_SPECS_40NM[core_type].scaled(node).area_mm2,
            llc_area_mm2=components.LLC_PER_MB_40NM.scaled(node).area_mm2 * llc_mb,
        )
        network = interconnect_model(interconnect).latency_cycles(floorplan, node)
        contention = llc.queueing_delay_cycles(accesses_per_cycle) if accesses_per_cycle > 0 else 0.0
        assert latency == LlcAccessLatency(
            bank_cycles=float(llc.bank_access_latency_cycles),
            network_cycles=float(network),
            contention_cycles=float(contention),
        )

    def test_suite_estimates_over_the_perfmodel_sweep_grid_are_pinned(self):
        design_cache.cache_clear()
        model = AnalyticPerformanceModel()
        digest = hashlib.sha256()
        estimates = 0
        for config in perfmodel_sweep_configs():
            for e in model.suite_estimates(config).values():
                estimates += 1
                digest.update(repr((
                    e.workload, e.cpi, e.llc_latency, e.llc_mpki, e.per_core_ipc,
                    e.aggregate_ipc, e.offchip_bandwidth_gbps,
                )).encode())
        assert estimates == 1512
        assert design_cache.cache_info().misses == 216
        assert digest.hexdigest() == PERFMODEL_SWEEP_DIGEST

    @pytest.mark.parametrize("name", FAMILY_NODE_NAMES)
    def test_catalog_specs_equal_freshly_scaled_specs(self, name):
        node = DEFAULT_FAMILY.node(name)
        catalog = ComponentCatalog(node)
        interface = (
            components.DDR4_INTERFACE_40NM
            if node.memory_standard.upper() == "DDR4"
            else components.DDR3_INTERFACE_40NM
        )
        assert catalog.conventional_core == components.CONVENTIONAL_CORE_40NM.scaled(node)
        assert catalog.ooo_core == components.OOO_CORE_40NM.scaled(node)
        assert catalog.inorder_core == components.INORDER_CORE_40NM.scaled(node)
        assert catalog.llc_per_mb == components.LLC_PER_MB_40NM.scaled(node)
        assert catalog.soc_misc == components.SOC_MISC_40NM.scaled(node)
        assert catalog.memory_interface == interface.scaled(node)

    def test_instance_interconnect_bypasses_the_cache(self):
        # Interconnect instances are mutable and hash by identity, so a
        # cached design would keep the old hop latency.
        mesh = MeshInterconnect()
        config = SystemConfig(cores=16, interconnect=mesh)
        model = AnalyticPerformanceModel()
        workload = get_workload("Web Search")
        before = model.estimate(workload, config)
        mesh.cycles_per_hop = 6.0
        after = model.estimate(workload, config)
        assert after.llc_latency.network_cycles == 2 * before.llc_latency.network_cycles
        assert after.per_core_ipc < before.per_core_ipc

    def test_traced_run_counts_estimates_and_designs(self):
        design_cache.cache_clear()
        with use_tracer(Tracer()) as tracer:
            run_experiment("figure_2_1", use_cache=False)
        counters = tracer.counters()
        assert counters["perfmodel.estimates"] > counters["perfmodel.designs"] > 0
