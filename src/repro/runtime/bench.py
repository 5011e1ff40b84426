"""Benchmark baseline recording: the repo's perf trajectory (``BENCH_*.json``).

``python -m repro bench --json`` times the registered benchmark targets twice
-- once on the default fast path and once on the pre-PR reference path (the
``use_fastpath=False`` / ``engine="event"`` escape hatches, the pure-Python
Pareto reference and exhaustive exploration for the DSE targets, the
per-line LLC warm-up and the Python cores for the sim targets, the Python
route search for the ``noc_routes`` target, or the
analytic model with its design caches cleared for the perfmodel target) --
and writes one JSON file
per domain (``BENCH_noc.json``, ``BENCH_service.json``, ``BENCH_dse.json``,
``BENCH_sim.json``, ``BENCH_perfmodel.json``).  Committing those files gives every future change a
recorded baseline to regress against.

Schema (``schema: 1``)::

    {
      "schema": 1,
      "created_utc": "2026-07-29T12:00:00Z",
      "command": "python -m repro bench --json ...",
      "entries": [
        {
          "experiment": "figure_4_6",          # catalog id
          "domain": "noc",                     # selects the BENCH file
          "unit": "packets",                   # what "units" counts
          "units": 80764,                      # exact work per variant run
          "parameters": {"duration_cycles": 4000},
          "fastpath":  {"wall_s": 0.35, "units_per_s": 230754.0,
                        "cache_status": "disabled"},
          "reference": {"wall_s": 1.21, "units_per_s": 66747.0,
                        "cache_status": "disabled"},
          "speedup": 3.46,                     # reference wall / fastpath wall
          "tracer": {                          # telemetry overhead guard
            "parameters": {"duration_cycles": 48000, "executor": "serial"},
            "pairs": 7, "disabled_wall_s": 0.52, "enabled_wall_s": 0.53,
            "overhead_pct": 0.4, "limit_pct": 5.0
          }
        }, ...
      ]
    }

The ``tracer`` block (``figure_4_6`` and ``service_latency_sweep``) re-times
the fast path at its own fixed size with the telemetry tracer disabled and
enabled, and asserts that the median per-pair overhead stays under
``_TRACER_OVERHEAD_LIMIT_PCT`` -- the guarantee that instrumentation never
costs simulation throughput.

The fast variant runs first (cold caches); the reference variant then runs
with any process-level memoization already warm, which can only understate the
recorded speedup.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

    from repro.noc.topology import NocTopology
    from repro.perfmodel.analytic import SystemConfig
    from repro.workloads.profile import WorkloadProfile

#: Schema version stamped into every BENCH file.
BENCH_SCHEMA = 1


def _noc_packet_count(kwargs: "Mapping[str, object]") -> int:
    """Exact packets simulated by one ``figure_4_6`` run (all sweep points)."""
    from repro.noc.simulation import PodNocStudy, _cached_traffic_batch
    from repro.noc.traffic import bilateral_injection_rate

    study = PodNocStudy(
        duration_cycles=int(kwargs.get("duration_cycles", 4_000)),
        seed=int(kwargs.get("seed", 1)),
    )
    total = 0
    # The topology list mirrors PodNocStudy.evaluate()'s default sweep.
    for name in ("mesh", "fbfly", "nocout"):
        topology = study.build_topology(name)
        for workload in study.suite:
            injection_rate = bilateral_injection_rate(workload, per_core_ipc=0.5)
            batch = _cached_traffic_batch(
                tuple(topology.core_nodes),
                tuple(topology.llc_nodes),
                injection_rate,
                workload.snoop_fraction,
                study.seed,
                study.duration_cycles,
                study.active_cores_for(workload),
            )
            total += len(batch)
    return total


def _service_request_count(kwargs: "Mapping[str, object]") -> int:
    """Exact requests simulated by one ``service_latency_sweep`` run."""
    default_utilizations = (0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95, 0.98, 1.02, 1.1)
    utilizations = kwargs.get("utilizations", default_utilizations)
    num_requests = int(kwargs.get("num_requests", 16_000))
    return len(tuple(utilizations)) * num_requests


def _bench_fleet_day(overrides: "Mapping[str, object]") -> "dict[str, object]":
    """Time a high-load fleet day on the fast engine against the event reference.

    Simulates one diurnal day for a three-datacenter fleet (JSQ servers,
    latency-weighted geo-routing, skewed origin weights) at
    ``--set fleet_requests=N`` total requests (default 120M) on the fast SoA
    engine, then replays a scaled-down day (``fleet_reference_requests``,
    default 2M) on the discrete-event reference engine.  The two variants run
    different request counts -- a full day through the event engine would take
    hours -- so ``speedup`` is the ratio of per-request throughputs, not wall
    times.  The tests/test_fleet_equivalence.py suite separately holds the two
    engines bit-identical on equal inputs.
    """
    from repro.fleet import (
        DIURNAL_24,
        Datacenter,
        FleetConfig,
        FleetSimulation,
        LoadShape,
        Region,
    )

    requests_target = int(float(overrides.get("fleet_requests", 120_000_000)))
    reference_target = int(float(overrides.get("fleet_reference_requests", 2_000_000)))
    seed = int(overrides.get("seed", 1))
    offered_qps = 50_000.0

    def day_config(total_requests: int) -> FleetConfig:
        """The benchmark fleet, with the day length derived from the request
        target at fixed offered QPS — both variants exercise identical
        per-epoch utilization trajectories and differ only in how many
        requests each epoch holds."""
        epoch_s = total_requests / (offered_qps * DIURNAL_24.num_epochs)
        layout = (
            ("us-east", 0.0, 0.0, 27),
            ("eu-west", 1.5, 0.4, 24),
            ("ap-south", 3.0, -0.5, 17),
        )
        datacenters = tuple(
            Datacenter(
                name, Region(name, x, y), num_servers=servers, parallelism=4,
                service_mean_s=0.002, policy="jsq",
            )
            for name, x, y, servers in layout
        )
        return FleetConfig(
            datacenters=datacenters,
            offered_qps=offered_qps,
            routing="latency_weighted",
            load_shape=LoadShape(DIURNAL_24.multipliers, epoch_s=epoch_s),
            origin_weights=(0.40, 0.35, 0.25),
        )

    start = time.perf_counter()
    fast = FleetSimulation(day_config(requests_target), seed=seed, engine="fast").run()
    fast_wall = time.perf_counter() - start
    start = time.perf_counter()
    event = FleetSimulation(
        day_config(reference_target), seed=seed, engine="event"
    ).run()
    event_wall = time.perf_counter() - start

    fast_rate = fast.total_requests / max(fast_wall, 1e-9)
    event_rate = event.total_requests / max(event_wall, 1e-9)
    return {
        "unit": "requests",
        "units": fast.total_requests,
        "parameters": {
            "fleet_requests": requests_target,
            "fleet_reference_requests": reference_target,
            "seed": seed,
        },
        "fastpath": {
            "wall_s": round(fast_wall, 6),
            "units_per_s": round(fast_rate, 1),
            "requests": fast.total_requests,
        },
        "reference": {
            "wall_s": round(event_wall, 6),
            "units_per_s": round(event_rate, 1),
            "requests": event.total_requests,
        },
        "speedup": round(fast_rate / max(event_rate, 1e-9), 2),
    }


def _bench_pareto_kernel(overrides: "Mapping[str, object]") -> "dict[str, object]":
    """Time the vectorized dominance kernel against the pure-Python reference.

    Builds a seeded synthetic dataset (three objectives, two frontier groups,
    deliberate duplicate rows so ties are exercised), extracts the frontier
    through both ``method="numpy"`` and ``method="reference"``, checks the two
    agree row-for-row, and reports the wall times.  ``--set rows=N`` shrinks
    the dataset (the committed baseline uses the default 100k rows; CI smokes
    use a few thousand so the quadratic reference stays cheap).
    """
    import random

    from repro.dse.pareto import Objective, pareto_frontier

    rows_n = int(overrides.get("rows", 100_000))
    seed = int(overrides.get("seed", 0))
    rng = random.Random(seed)
    objectives = (
        Objective.maximize("throughput"),
        Objective.maximize("efficiency"),
        Objective.minimize("cost"),
    )
    rows: "list[dict[str, object]]" = []
    for index in range(rows_n):
        if index % 10 == 9 and rows:
            # Duplicate an earlier row's metrics so the kernel sees exact ties.
            donor = rows[rng.randrange(len(rows))]
            row = {**donor, "group": rng.choice(("x", "y"))}
        else:
            row = {
                "group": rng.choice(("x", "y")),
                "throughput": rng.random(),
                "efficiency": rng.random(),
                "cost": rng.random(),
            }
        rows.append(row)

    start = time.perf_counter()
    fast = pareto_frontier(rows, objectives, group_by="group", method="numpy")
    fast_wall = time.perf_counter() - start
    start = time.perf_counter()
    reference = pareto_frontier(rows, objectives, group_by="group", method="reference")
    reference_wall = time.perf_counter() - start
    if [id(row) for row in fast] != [id(row) for row in reference]:
        raise AssertionError("numpy and reference frontiers disagree")

    return {
        "unit": "rows",
        "units": rows_n,
        "parameters": {"rows": rows_n, "seed": seed},
        "frontier_size": len(fast),
        "fastpath": {
            "wall_s": round(fast_wall, 6),
            "units_per_s": round(rows_n / max(fast_wall, 1e-9), 1),
        },
        "reference": {
            "wall_s": round(reference_wall, 6),
            "units_per_s": round(rows_n / max(reference_wall, 1e-9), 1),
        },
        "speedup": round(reference_wall / max(fast_wall, 1e-9), 2),
    }


def _bench_search(strategy: str) -> "Callable[[Mapping[str, object]], dict[str, object]]":
    """Runner timing one search strategy against exhaustive exploration.

    Both variants solve the same ``explore_pod_40nm`` problem with the
    evaluation cache off; the entry records wall times, model evaluations
    spent and saved, and whether the search recovered the exhaustive study's
    knee designs exactly.
    """

    def runner(overrides: "Mapping[str, object]") -> "dict[str, object]":
        """Time ``strategy`` and exhaustive on pod_40nm; compare their knees."""
        from repro.dse.studies import explore_pod_40nm

        budget = int(overrides.get("budget", 48))
        seed = int(overrides.get("seed", 0))
        start = time.perf_counter()
        searched = explore_pod_40nm(
            strategy=strategy, budget=budget, seed=seed, use_evaluation_cache=False
        )
        search_wall = time.perf_counter() - start
        start = time.perf_counter()
        exhaustive = explore_pod_40nm(use_evaluation_cache=False)
        exhaustive_wall = time.perf_counter() - start

        space_size = int(exhaustive["stats"]["space_size"])  # type: ignore[index,call-overload]
        knees = {
            label: knee["candidate"]
            for label, knee in sorted(searched["knees"].items())  # type: ignore[attr-defined]
        }
        exhaustive_knees = {
            label: knee["candidate"]
            for label, knee in sorted(exhaustive["knees"].items())  # type: ignore[attr-defined]
        }
        evaluations = int(searched["stats"]["evaluated"])  # type: ignore[index,call-overload]
        return {
            "unit": "candidates",
            "units": space_size,
            "parameters": {"budget": budget, "seed": seed, "strategy": strategy},
            "fastpath": {
                "wall_s": round(search_wall, 6),
                "units_per_s": round(space_size / max(search_wall, 1e-9), 1),
                "evaluations": evaluations,
            },
            "reference": {
                "wall_s": round(exhaustive_wall, 6),
                "units_per_s": round(space_size / max(exhaustive_wall, 1e-9), 1),
                "evaluations": space_size,
            },
            "speedup": round(exhaustive_wall / max(search_wall, 1e-9), 2),
            "evaluations_saved": space_size - evaluations,
            "space_fraction_evaluated": round(evaluations / space_size, 4),
            "knees": knees,
            "knees_match_exhaustive": knees == exhaustive_knees,
        }

    return runner


def noc_catalog_routes() -> "list[tuple[str, NocTopology, np.ndarray, np.ndarray]]":
    """The catalog's 11,980 searched NoC routes, at the experiments' defaults.

    The topologies that route by shortest-path search rather than by a
    builder's routing function: ``figure_4_6``/``figure_4_8``'s 64-core
    NOC-Out (the seven workloads' traffic, 4,000 cycles, seed 1), then
    ``fault_noc_links``'s four faulted 64-core meshes (1, 2, 4 and 8 links
    down, fault seed 7; Web Search traffic, 6,000 cycles, seed 1).  Each
    entry is ``(label, topology, sources, destinations)`` with one row per
    distinct (source, destination) pair the traffic sends, in ascending
    ``source * nodes + destination`` order.
    """
    import numpy as np

    from repro.experiments.faults import DEFAULT_FAULT_SEED
    from repro.faults.generator import FaultLoadConfig, FaultLoadGenerator
    from repro.faults.noc import apply_link_faults, undirected_links
    from repro.noc.simulation import PodNocStudy, _cached_topology, _cached_traffic_batch
    from repro.noc.traffic import bilateral_injection_rate
    from repro.workloads import default_suite

    suite = default_suite()

    def pairs(topology: "NocTopology", workloads: "Sequence[WorkloadProfile]", duration: int):
        """Distinct (source, destination) pairs of the workloads' traffic."""
        study = PodNocStudy(duration_cycles=duration, seed=1)
        nodes = topology.graph.number_of_nodes()
        keys = [
            batch.source * nodes + batch.destination
            for batch in (
                _cached_traffic_batch(
                    tuple(topology.core_nodes),
                    tuple(topology.llc_nodes),
                    bilateral_injection_rate(workload, per_core_ipc=0.5),
                    workload.snoop_fraction,
                    study.seed,
                    study.duration_cycles,
                    study.active_cores_for(workload),
                )
                for workload in workloads
            )
        ]
        unique = np.unique(np.concatenate(keys))
        return unique // nodes, unique % nodes

    nocout = _cached_topology("nocout", 64)
    routes = [("nocout", nocout, *pairs(nocout, list(suite), 4_000))]
    mesh = _cached_topology("mesh", 64)
    mesh_pairs = pairs(mesh, [suite["Web Search"]], 6_000)
    for failed in (1, 2, 4, 8):
        schedule = FaultLoadGenerator(
            FaultLoadConfig(num_failed_links=failed, num_degraded_links=0,
                            link_degradation_factor=4.0),
            seed=DEFAULT_FAULT_SEED,
        ).schedule(1, 1.0, links=undirected_links(mesh))
        faulted = apply_link_faults(mesh, schedule.link_faults)
        routes.append((f"mesh-{failed}-down", faulted, *mesh_pairs))
    return routes


#: Interleaved repeats of each ``noc_routes`` variant (medians recorded).
_NOC_ROUTES_REPEATS = 3


def _bench_noc_routes(overrides: "Mapping[str, object]") -> "dict[str, object]":
    """Time the compiled route search against its Python port on the catalog's routes.

    Every one of the 11,980 :func:`noc_catalog_routes` is searched by
    :func:`~repro.noc.fastpath.search_routes` (one ``noc_routes`` call per
    topology into the compiled library) and by
    :func:`~repro.noc.graph.bidirectional_dijkstra` one pair at a time, the
    search it transcribes and its oracle.  Each variant is timed
    ``_NOC_ROUTES_REPEATS`` times, interleaved, and the medians are recorded,
    with whether both found the same paths.  Without a compiled library both
    variants run the Python search.  The target takes no ``--set``
    overrides.
    """
    from repro.noc.fastpath import search_routes
    from repro.noc.graph import bidirectional_dijkstra
    from repro.service import native

    library = native.load()
    routes = noc_catalog_routes()

    def compiled() -> "list[list[list[int]]]":
        """Every topology's paths from one batched search."""
        return [
            search_routes(topology.graph, sources, destinations)
            for _, topology, sources, destinations in routes
        ]

    def python() -> "list[list[list[int]]]":
        """Every path from the Python port, one search per pair."""
        return [
            [
                bidirectional_dijkstra(topology.graph, s, d)[1]
                for s, d in zip(sources.tolist(), destinations.tolist())
            ]
            for _, topology, sources, destinations in routes
        ]

    fast_walls: "list[float]" = []
    reference_walls: "list[float]" = []
    identical = True
    for _ in range(_NOC_ROUTES_REPEATS):
        start = time.perf_counter()
        fast_paths = compiled()
        fast_walls.append(time.perf_counter() - start)
        start = time.perf_counter()
        reference_paths = python()
        reference_walls.append(time.perf_counter() - start)
        identical = identical and fast_paths == reference_paths
    fast_wall = statistics.median(fast_walls)
    reference_wall = statistics.median(reference_walls)
    count = sum(len(sources) for _, _, sources, _ in routes)
    return {
        "unit": "routes",
        "units": count,
        "parameters": {"topologies": len(routes), "repeats": _NOC_ROUTES_REPEATS},
        "fastpath": {
            "wall_s": round(fast_wall, 6),
            "units_per_s": round(count / max(fast_wall, 1e-9), 1),
            "kernel": "python" if library is None else "c",
        },
        "reference": {
            "wall_s": round(reference_wall, 6),
            "units_per_s": round(count / max(reference_wall, 1e-9), 1),
        },
        "speedup": round(reference_wall / max(fast_wall, 1e-9), 2),
        "routes": count,
        "routes_identical": identical,
    }


def sim_catalog_points()-> "list[tuple[WorkloadProfile, SystemConfig, int, int]]":
    """The catalog's 112 cycle-level simulation points, at the experiments' defaults.

    ``figure_3_3``'s 105 (seven workloads, then three interconnects, then
    1-16 cores; 4 MB LLC, seed 7), then ``figure_4_3``'s seven (16 cores, 8 MB
    crossbar LLC, seed 11), in the order the experiments run them, each as
    ``(workload, config, instructions_per_core, seed)`` with 6,000
    instructions per core.
    """
    from repro.perfmodel.analytic import SystemConfig
    from repro.workloads import default_suite

    suite = default_suite()
    figure_3_3 = [
        (
            workload,
            SystemConfig(cores=cores, core_type="ooo", llc_capacity_mb=4.0, interconnect=net),
            6_000,
            7,
        )
        for workload in suite
        for net in ("ideal", "crossbar", "mesh")
        for cores in (1, 2, 4, 8, 16)
    ]
    figure_4_3 = [
        (
            workload,
            SystemConfig(cores=16, core_type="ooo", llc_capacity_mb=8.0, interconnect="crossbar"),
            6_000,
            11,
        )
        for workload in suite
    ]
    return figure_3_3 + figure_4_3


def _bench_sim_warm(overrides: "Mapping[str, object]") -> "dict[str, object]":
    """Time the bulk LLC warm-up against the per-line reference on figure_3_3's points.

    For each of ``figure_3_3``'s 105 design points (seven workloads, five core
    counts, three interconnects, its 4 MB LLC and seed 7) two fresh systems
    are warmed from the same trace generator: one through
    :meth:`~repro.sim.system.SimulatedSystem.warm_caches` (one bulk install per
    bank), one through the one-``fill``-per-line oracle.  Only the warm-up calls
    are timed.  The entry records the lines filled and whether every bank ended
    in the same state (resident tags, per-set LRU order, dirty bits, stats).
    The target takes no ``--set`` overrides.
    """
    from repro.sim.system import SimulatedSystem, _reference_warm_caches
    from repro.workloads.traces import SyntheticTraceGenerator

    llc_mb, seed = 4.0, 7

    def state(system: SimulatedSystem) -> "list[object]":
        """Per bank: resident tags in per-set LRU order with dirty bits, and stats."""
        return [bank.state() for bank in system.banks]

    fast_wall = reference_wall = 0.0
    lines = points = 0
    identical = True
    for workload, config, _, point_seed in sim_catalog_points()[:105]:
        bulk = SimulatedSystem(workload, config, seed=point_seed)
        reference = SimulatedSystem(workload, config, seed=point_seed)
        generator = SyntheticTraceGenerator(
            workload, cores=config.cores, seed=point_seed, core_type=bulk.core.name
        )
        start = time.perf_counter()
        bulk.warm_caches(generator)
        fast_wall += time.perf_counter() - start
        start = time.perf_counter()
        _reference_warm_caches(reference, generator)
        reference_wall += time.perf_counter() - start
        lines += sum(bank.resident_lines for bank in bulk.banks)
        identical = identical and state(bulk) == state(reference)
        points += 1

    return {
        "unit": "lines",
        "units": lines,
        "parameters": {"llc_mb": llc_mb, "seed": seed, "points": points},
        "fastpath": {
            "wall_s": round(fast_wall, 6),
            "units_per_s": round(lines / max(fast_wall, 1e-9), 1),
        },
        "reference": {
            "wall_s": round(reference_wall, 6),
            "units_per_s": round(lines / max(reference_wall, 1e-9), 1),
        },
        "speedup": round(reference_wall / max(fast_wall, 1e-9), 2),
        "state_identical": identical,
    }


#: Interleaved repeats of each ``sim_run`` variant (medians recorded).
_SIM_RUN_REPEATS = 3


def _bench_sim_run(overrides: "Mapping[str, object]") -> "dict[str, object]":
    """Time the compiled measured window against the Python model on the catalog's points.

    For each of the 112 :func:`sim_catalog_points`, each variant gets a
    freshly built and warmed system and the point's traces, and only the
    measured window is timed: the compiled kernel
    (:func:`repro.sim.kernel.run_window`) against the Python cores and
    :meth:`~repro.sim.system.SimulatedSystem.llc_request`, the model it
    replaced and its oracle.  Each variant is timed ``_SIM_RUN_REPEATS``
    times, interleaved, and the medians are recorded, with the LLC accesses
    simulated and whether both variants left equal statistics and banks.
    Without a compiled library both variants run the Python model.  The
    target takes no ``--set`` overrides.
    """
    from repro.service import native
    from repro.sim.system import SimulatedSystem
    from repro.workloads.traces import SyntheticTraceGenerator

    library = native.load()
    points = []
    for workload, config, instructions, seed in sim_catalog_points():
        generator = SyntheticTraceGenerator(
            workload, cores=config.cores, seed=seed, core_type=config.core_type
        )
        points.append((workload, config, seed, generator, generator.traces(instructions)))

    def window(kernel: "object | None") -> "tuple[float, list[object]]":
        """Seconds in the measured windows and every point's end state."""
        wall, states = 0.0, []
        for workload, config, seed, generator, traces in points:
            system = SimulatedSystem(workload, config, seed=seed)
            system.warm_caches(generator)
            start = time.perf_counter()
            stats = system._measure(traces, kernel)
            wall += time.perf_counter() - start
            states.append((stats, [bank.state() for bank in system.banks]))
        return wall, states

    fast_walls: "list[float]" = []
    reference_walls: "list[float]" = []
    identical = True
    for _ in range(_SIM_RUN_REPEATS):
        fast_wall, fast_states = window(library)
        reference_wall, reference_states = window(None)
        fast_walls.append(fast_wall)
        reference_walls.append(reference_wall)
        identical = identical and fast_states == reference_states
    fast_wall = statistics.median(fast_walls)
    reference_wall = statistics.median(reference_walls)
    accesses = sum(stats.llc_accesses for stats, _ in fast_states)
    return {
        "unit": "llc_accesses",
        "units": accesses,
        "parameters": {"points": len(points), "repeats": _SIM_RUN_REPEATS},
        "fastpath": {
            "wall_s": round(fast_wall, 6),
            "units_per_s": round(accesses / max(fast_wall, 1e-9), 1),
            "kernel": "python" if library is None else "c",
        },
        "reference": {
            "wall_s": round(reference_wall, 6),
            "units_per_s": round(accesses / max(reference_wall, 1e-9), 1),
        },
        "speedup": round(reference_wall / max(fast_wall, 1e-9), 2),
        "points": len(points),
        "llc_accesses": accesses,
        "stats_identical": identical,
    }


def perfmodel_sweep_configs() -> "list[SystemConfig]":
    """The ``perfmodel_sweep`` grid: ``sweep_pods``'s pod grid at 40nm and 20nm.

    Every core type over the methodology's default core counts and LLC sizes
    on the crossbar pod, in ``sweep_pods`` order: 216 distinct designs.
    """
    from repro.core.methodology import DEFAULT_CORE_COUNTS, DEFAULT_LLC_SIZES_MB
    from repro.core.pod import Pod
    from repro.technology.node import NODE_20NM, NODE_40NM

    return [
        Pod(cores=cores, core_type=core_type, llc_capacity_mb=llc_mb, node=node).config()
        for node in (NODE_40NM, NODE_20NM)
        for core_type in ("conventional", "ooo", "inorder")
        for llc_mb in DEFAULT_LLC_SIZES_MB
        for cores in DEFAULT_CORE_COUNTS
    ]


#: Interleaved repeats of each ``perfmodel_sweep`` variant (medians recorded).
_PERFMODEL_REPEATS = 5


def _bench_perfmodel_sweep(overrides: "Mapping[str, object]") -> "dict[str, object]":
    """Time the analytic model's design cache on the ``perfmodel_sweep`` grid.

    The fast path runs ``suite_estimates`` for every design from cold
    caches; the reference makes the same ``estimate`` calls with the
    design cache and the per-node component specs cleared before each one,
    so every call evaluates its design afresh, as the model did before it
    kept them.  Each variant is timed ``_PERFMODEL_REPEATS`` times,
    interleaved, and the medians are recorded, with the estimates made, the
    designs evaluated and whether both variants' estimates are equal.  The target takes no
    ``--set`` overrides.
    """
    from repro.perfmodel.analytic import AnalyticPerformanceModel, design_cache
    from repro.technology.components import _scaled_specs
    from repro.workloads import default_suite

    configs = perfmodel_sweep_configs()
    suite = default_suite()
    model = AnalyticPerformanceModel()

    def fast() -> "list[object]":
        """Every design's suite estimates, from cold caches."""
        design_cache.cache_clear()
        _scaled_specs.cache_clear()
        return [model.suite_estimates(config, suite) for config in configs]

    def reference() -> "list[object]":
        """The same estimates, each with both caches cleared first."""
        rows = []
        for config in configs:
            row = {}
            for workload in suite:
                design_cache.cache_clear()
                _scaled_specs.cache_clear()
                row[workload.name] = model.estimate(workload, config)
            rows.append(row)
        return rows

    fast_walls: "list[float]" = []
    reference_walls: "list[float]" = []
    for _ in range(_PERFMODEL_REPEATS):
        start = time.perf_counter()
        fast_rows = fast()
        fast_walls.append(time.perf_counter() - start)
        designs = design_cache.cache_info().misses
        start = time.perf_counter()
        reference_rows = reference()
        reference_walls.append(time.perf_counter() - start)
    fast_wall = statistics.median(fast_walls)
    reference_wall = statistics.median(reference_walls)
    estimates = sum(len(row) for row in fast_rows)  # type: ignore[arg-type]
    return {
        "unit": "estimates",
        "units": estimates,
        "parameters": {"designs": len(configs), "repeats": _PERFMODEL_REPEATS},
        "fastpath": {
            "wall_s": round(fast_wall, 6),
            "units_per_s": round(estimates / max(fast_wall, 1e-9), 1),
        },
        "reference": {
            "wall_s": round(reference_wall, 6),
            "units_per_s": round(estimates / max(reference_wall, 1e-9), 1),
        },
        "speedup": round(reference_wall / max(fast_wall, 1e-9), 2),
        "estimates": estimates,
        "designs": designs,
        "estimates_identical": fast_rows == reference_rows,
    }


@dataclass(frozen=True)
class BenchTarget:
    """One experiment tracked in the perf trajectory.

    Attributes:
        experiment_id: catalog id to run (or the target's own name for
            runner-based targets, which need not be catalog ids).
        domain: BENCH file the entry lands in (``BENCH_<domain>.json``).
        unit: what :attr:`count_units` counts ("packets", "requests").
        reference_overrides: kwargs selecting the pre-PR reference path.
        count_units: exact work units for a given kwargs dict.
        runner: self-contained benchmark producing the whole entry body
            (fastpath/reference/speedup) from the CLI overrides; targets with
            a runner never touch the experiment catalog.
    """

    experiment_id: str
    domain: str
    unit: str
    reference_overrides: "Mapping[str, object]" = field(default_factory=dict)
    count_units: "Callable[[Mapping[str, object]], int] | None" = None
    runner: "Callable[[Mapping[str, object]], dict[str, object]] | None" = None


#: The recorded perf trajectory: NoC packets and route search, service, the
#: three DSE benchmarks, the cycle-level simulator's LLC warm-up and measured
#: window, and the analytic model's design cache.
BENCH_TARGETS: "dict[str, BenchTarget]" = {
    "figure_4_6": BenchTarget(
        experiment_id="figure_4_6",
        domain="noc",
        unit="packets",
        reference_overrides={"use_fastpath": False},
        count_units=_noc_packet_count,
    ),
    "noc_routes": BenchTarget(
        experiment_id="noc_routes",
        domain="noc",
        unit="routes",
        runner=_bench_noc_routes,
    ),
    "service_latency_sweep": BenchTarget(
        experiment_id="service_latency_sweep",
        domain="service",
        unit="requests",
        reference_overrides={"engine": "event"},
        count_units=_service_request_count,
    ),
    "fleet_scale_day": BenchTarget(
        experiment_id="fleet_scale_day",
        domain="service",
        unit="requests",
        runner=_bench_fleet_day,
    ),
    "pareto_kernel": BenchTarget(
        experiment_id="pareto_kernel",
        domain="dse",
        unit="rows",
        runner=_bench_pareto_kernel,
    ),
    "dse_search_ga": BenchTarget(
        experiment_id="dse_search_ga",
        domain="dse",
        unit="candidates",
        runner=_bench_search("ga"),
    ),
    "dse_search_halving": BenchTarget(
        experiment_id="dse_search_halving",
        domain="dse",
        unit="candidates",
        runner=_bench_search("halving"),
    ),
    "sim_warm": BenchTarget(
        experiment_id="sim_warm",
        domain="sim",
        unit="lines",
        runner=_bench_sim_warm,
    ),
    "sim_run": BenchTarget(
        experiment_id="sim_run",
        domain="sim",
        unit="llc_accesses",
        runner=_bench_sim_run,
    ),
    "perfmodel_sweep": BenchTarget(
        experiment_id="perfmodel_sweep",
        domain="perfmodel",
        unit="estimates",
        runner=_bench_perfmodel_sweep,
    ),
}


def _accepted_overrides(
    experiment_id: str, overrides: "dict[str, object]"
) -> "dict[str, object]":
    """Drop override keys the experiment function does not accept.

    ``bench --json`` applies one ``--set`` list to every selected target;
    each target only takes the parameters it understands.
    """
    from repro.experiments.registry import CATALOG

    parameters = inspect.signature(CATALOG.get(experiment_id).function).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return overrides
    return {name: value for name, value in overrides.items() if name in parameters}


def _timed_variant(experiment_id: str, kwargs: "dict[str, object]") -> "dict[str, object]":
    """Run one uncached variant and report its wall time.

    Cache-aware experiments (the explore studies) also get their internal
    per-candidate evaluation cache disabled, so the reported wall time is a
    genuine cold-run figure even when caches are warm in this process.
    """
    from repro.experiments.registry import CATALOG, run_experiment
    from repro.runtime.cache import evaluation_overrides

    function = CATALOG.get(experiment_id).function
    kwargs = {**evaluation_overrides(function, use_cache=False, cache=None), **kwargs}
    result = run_experiment(experiment_id, use_cache=False, **kwargs)
    return {
        "wall_s": round(result.wall_time_s, 6),
        "cache_status": result.cache_status,
    }


#: Catalog targets whose tracer overhead is measured and guarded by ``bench``,
#: each at the guard's own fixed size, whatever ``--set`` overrides the timed
#: variants take: about 0.5 s per run on a quiet 2-vCPU x86-64 VM, long
#: enough that the 5% budget sits well above timer noise.
_TRACER_OVERHEAD_TARGETS: "dict[str, dict[str, object]]" = {
    "figure_4_6": {"duration_cycles": 48_000},
    "service_latency_sweep": {"num_requests": 64_000},
}

#: Maximum tolerated tracer-enabled slowdown, percent of the disabled wall.
_TRACER_OVERHEAD_LIMIT_PCT = 5.0

#: Interleaved disabled/enabled pairs whose median overhead the guard checks.
_TRACER_OVERHEAD_PAIRS = 7


def _tracer_overhead(
    experiment_id: str,
    limit_pct: float = _TRACER_OVERHEAD_LIMIT_PCT,
    pairs: int = _TRACER_OVERHEAD_PAIRS,
) -> "dict[str, object]":
    """Measure the tracer-enabled vs disabled wall time of one experiment.

    After one untimed warm-up run, runs ``pairs`` interleaved pairs of the
    uncached fast path at the guard's fixed size -- tracer disabled, and
    enabled under a throwaway :class:`~repro.obs.Tracer`, alternating which
    goes first -- and checks the median of the per-pair overheads.  Each
    pair's two runs are back to back, so a host that slows down for a while
    moves both, and the median ignores the pairs a load spike splits.  The
    sweep runs serially, so pool start-up adds no noise.

    Raises:
        AssertionError: when the median overhead is >= ``limit_pct``.
    """
    from repro.obs.tracer import Tracer, use_tracer
    from repro.runtime.executor import SweepExecutor

    parameters = _TRACER_OVERHEAD_TARGETS[experiment_id]

    def wall(traced: bool) -> float:
        """Wall time of one serial run, under a fresh tracer if ``traced``."""
        kwargs = {**parameters, "executor": SweepExecutor(mode="serial")}
        if not traced:
            return float(_timed_variant(experiment_id, kwargs)["wall_s"])  # type: ignore[arg-type]
        with use_tracer(Tracer()):
            return float(_timed_variant(experiment_id, kwargs)["wall_s"])  # type: ignore[arg-type]

    wall(False)
    disabled: "list[float]" = []
    enabled: "list[float]" = []
    for pair in range(pairs):
        for traced in (False, True) if pair % 2 == 0 else (True, False):
            (enabled if traced else disabled).append(wall(traced))
    overhead_pct = round(
        statistics.median((e - d) / max(d, 1e-9) * 100.0 for d, e in zip(disabled, enabled)), 2
    )
    if overhead_pct >= limit_pct:
        raise AssertionError(
            f"{experiment_id}: median tracer overhead {overhead_pct}% over {pairs} pairs "
            f"exceeds the {limit_pct}% budget (disabled={disabled}s enabled={enabled}s)"
        )
    return {
        "parameters": {**parameters, "executor": "serial"},
        "pairs": pairs,
        "disabled_wall_s": statistics.median(disabled),
        "enabled_wall_s": statistics.median(enabled),
        "overhead_pct": overhead_pct,
        "limit_pct": limit_pct,
    }


def run_bench_target(
    experiment_id: str, overrides: "Mapping[str, object] | None" = None
) -> "dict[str, object]":
    """Time one experiment (fast path, then reference path if registered).

    Unregistered ids still produce an entry -- wall time only, no domain --
    so ``bench --json`` can time anything in the catalog.  Runner-based
    targets (the DSE benchmarks) produce their entry directly, outside the
    experiment catalog.
    """
    target = BENCH_TARGETS.get(experiment_id)
    if target is not None and target.runner is not None:
        entry = target.runner(dict(overrides or {}))
        return {"experiment": experiment_id, "domain": target.domain, **entry}
    overrides = _accepted_overrides(experiment_id, dict(overrides or {}))
    entry: "dict[str, object]" = {
        "experiment": experiment_id,
        "parameters": {
            name: value if isinstance(value, (bool, int, float, str, type(None))) else repr(value)
            for name, value in sorted(overrides.items())
        },
    }
    entry["fastpath"] = _timed_variant(experiment_id, dict(overrides))
    if target is None:
        return entry

    entry["domain"] = target.domain
    entry["unit"] = target.unit
    if target.count_units is not None:
        units = target.count_units(overrides)
        entry["units"] = units
        entry["fastpath"]["units_per_s"] = round(
            units / max(entry["fastpath"]["wall_s"], 1e-9), 1
        )
    reference = _timed_variant(
        experiment_id, {**overrides, **target.reference_overrides}
    )
    if "units" in entry:
        reference["units_per_s"] = round(
            entry["units"] / max(reference["wall_s"], 1e-9), 1
        )
    entry["reference"] = reference
    entry["speedup"] = round(
        reference["wall_s"] / max(entry["fastpath"]["wall_s"], 1e-9), 2
    )
    if experiment_id in _TRACER_OVERHEAD_TARGETS:
        entry["tracer"] = _tracer_overhead(experiment_id)
    return entry


def write_bench_files(
    entries: "Sequence[Mapping[str, object]]",
    directory: "str | Path" = ".",
    command: str = "python -m repro bench --json",
) -> "list[Path]":
    """Group entries by domain and write one ``BENCH_<domain>.json`` each."""
    directory = Path(directory)
    by_domain: "dict[str, list[Mapping[str, object]]]" = {}
    for entry in entries:
        domain = entry.get("domain")
        if domain:
            by_domain.setdefault(str(domain), []).append(entry)
    paths = []
    for domain, domain_entries in sorted(by_domain.items()):
        payload = {
            "schema": BENCH_SCHEMA,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "command": command,
            "entries": list(domain_entries),
        }
        path = directory / f"BENCH_{domain}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        paths.append(path)
    return paths
