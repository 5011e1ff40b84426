"""Per-layer tracing for the benchmark's traced run.

:func:`install` wraps the public functions of each layer with spans opened on
``repro.obs.tracer.get_tracer()``.  The wrappers live here, not in the
package: they observe the calls and return what the wrapped function returns.
Each function is patched under the name its caller looks up (the fleet engine
imports its kernels and helpers by name).  Install before any process pool
starts, so forked workers inherit the wrappers; their spans come back through
the executor's existing ``adopt()``.

:func:`layer_metrics` turns one traced pass into the per-layer metrics named
in ``BENCHMARK.json``; :func:`breakdown` prints self time per span name.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

#: Experiment jobs ``repro report`` runs, one per distinct computation.
#: ``figure_5_2`` has claims but shares ``figure_5_1``'s job, so it has no
#: time of its own.
EXPERIMENTS = (
    "figure_2_1", "figure_2_2", "figure_2_3", "table_2_3", "figure_3_3",
    "figure_3_5", "table_3_2", "figure_4_3", "figure_4_6", "figure_4_7",
    "figure_4_8", "figure_5_1", "figure_5_3", "figure_5_5", "table_6_2",
    "figure_6_5", "service_latency_sweep", "service_policy_comparison",
    "service_cluster_sizing", "explore_pod_40nm", "explore_scaling_20nm",
    "explore_sla_sizing", "fault_service_sweep", "fault_mttr_sensitivity",
    "fault_nk_sizing", "fault_noc_links", "fleet_diurnal_day",
    "fleet_autoscale_policies", "fleet_geo_routing", "fleet_class_priorities",
    "node_family_table", "node_design_scaling", "node_pod_selection",
    "node_sram_scaling", "explore_node_family",
)

#: The span every traced pass runs under; its self time is unattributed time.
PASS_SPAN = "bench.pass"

#: Attribute stamped on worker chunk spans: the chunk's start on the host's
#: monotonic clock, which ``perf_counter`` shares across processes on Linux.
HOST_START = "bench_host_start_s"


def _wrap(function, span_name: str, annotate=None):
    """``function`` with a span around each call while a tracer is enabled."""
    from repro.obs.tracer import get_tracer

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        tracer = get_tracer()
        if not tracer.enabled:
            return function(*args, **kwargs)
        with tracer.span(span_name, category="bench") as span:
            result = function(*args, **kwargs)
            if annotate is not None:
                span.annotate(**annotate(args, result))
        return result

    wrapper.bench_wrapped = function
    return wrapper


def _stamp_chunk(function):
    """Wrap the executor's chunk runner to record each chunk's host start.

    Adopted worker spans are shifted to the parent's hand-off time, so chunks
    queued behind each other on one worker appear to overlap; the stamp lets
    :func:`realign` put them back where they ran.  ``functools.wraps`` keeps
    the module-level name, so the pool still pickles the runner by reference.
    """

    @functools.wraps(function)
    def wrapper(fn, chunk, trace=False, *args, **kwargs):
        start = perf_counter()
        result = function(fn, chunk, trace, *args, **kwargs)
        if trace:
            for span in result[1]:
                span.attributes[HOST_START] = start
        return result

    wrapper.bench_wrapped = function
    return wrapper


def _requests(args, result):
    return {"requests": len(args[0])}


def _lines_filled(args, result):
    return {"lines_filled": sum(bank.resident_lines for bank in args[0].banks)}


def _sim_stats(args, result):
    return {
        "instructions": result.instructions,
        "llc_accesses": result.llc_accesses,
        "llc_misses": result.llc_misses,
    }


def _experiment(args, result):
    return {"experiment": args[0].experiment_id}


def _targets():
    """``(owner, attribute, make_wrapper)`` for every patched function."""
    import repro.fleet.engine as engine
    import repro.report.validate as validate
    import repro.runtime.executor as executor
    import repro.service.cluster as cluster
    from repro.fleet.autoscale import Autoscaler
    from repro.fleet.metrics import LatencyHistogram
    from repro.sim.system import SimulatedSystem
    from repro.workloads.traces import SyntheticTraceGenerator

    def span(name, annotate=None):
        return lambda function: _wrap(function, name, annotate)

    kernels = [
        ("balanced_completion_times", span("service.kernel.balanced", _requests)),
        ("fcfs_completion_times", span("service.kernel.fcfs", _requests)),
    ]
    return [
        *[(module, name, wrap) for module in (cluster, engine) for name, wrap in kernels],
        (engine, "generate_chunk", span("fleet.traffic", lambda a, r: {"requests": r.count})),
        (engine, "route_demand", span("fleet.routing")),
        (Autoscaler, "plan", span("fleet.autoscale")),
        (LatencyHistogram, "add_batch", span("fleet.metrics")),
        (SimulatedSystem, "warm_caches", span("sim.warm", _lines_filled)),
        (SimulatedSystem, "run", span("sim.run", _sim_stats)),
        (SyntheticTraceGenerator, "events_for_core", span("workloads.traces")),
        (validate, "_evaluate_job", span("experiment", _experiment)),
        (executor, "_run_chunk", _stamp_chunk),
    ]


def install() -> None:
    """Patch every layer's public functions with span wrappers (idempotent)."""
    for owner, name, make in _targets():
        current = owner.__dict__[name]
        if not hasattr(current, "bench_wrapped"):
            setattr(owner, name, make(current))


def uninstall() -> None:
    """Restore the original functions."""
    for owner, name, _ in _targets():
        current = owner.__dict__[name]
        if hasattr(current, "bench_wrapped"):
            setattr(owner, name, current.bench_wrapped)


# --------------------------------------------------------------------- spans
def realign(tracer) -> None:
    """Move adopted worker chunks to the host time they actually started."""
    epoch = perf_counter() - tracer.now()

    def visit(span):
        start = span.attributes.get(HOST_START)
        if start is not None:
            span.shift(start - epoch - span.start_s)
        for child in span.children:
            visit(child)

    for root in tracer.roots:
        visit(root)


def _covered(span, children) -> float:
    """Length of ``span``'s interval covered by the union of ``children``."""
    low, high = span.start_s, span.start_s + span.duration_s
    intervals = sorted(
        (max(low, c.start_s), min(high, c.start_s + c.duration_s)) for c in children
    )
    covered, reach = 0.0, low
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_time(span, child_name: "str | None" = None) -> float:
    """The span's duration minus what its (optionally named) children cover."""
    children = [c for c in span.children if child_name is None or c.name == child_name]
    return span.duration_s - _covered(span, children)


def _by_name(tracer) -> "dict[str, list]":
    spans: "dict[str, list]" = {}
    for span in tracer.iter_spans():
        spans.setdefault(span.name, []).append(span)
    return spans


def layer_metrics(tracer, run=None) -> "dict[str, float]":
    """Every per-layer metric of one traced pass (0 where a layer did no work).

    Args:
        tracer: the pass's realigned tracer.
        run: the pass's ``ValidationRun`` on ``paper``, else ``None``.
    """
    from repro.report.claims import Grade

    spans = _by_name(tracer)
    counters = tracer.counters()

    def host(name):
        return sum(s.duration_s for s in spans.get(name, ()))

    def own(name, child_name=None):
        return sum(self_time(s, child_name) for s in spans.get(name, ()))

    def calls(name):
        return len(spans.get(name, ()))

    def total(name, attribute):
        return sum(s.attributes.get(attribute, 0) for s in spans.get(name, ()))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    lines = total("sim.warm", "lines_filled")
    instructions = total("sim.run", "instructions")
    accesses = total("sim.run", "llc_accesses")
    metrics = {
        "sim.warm.host_s": host("sim.warm"),
        "sim.warm.calls": calls("sim.warm"),
        "sim.warm.lines_filled": lines,
        "sim.run.self_s": own("sim.run"),
        "sim.instructions": instructions,
        "sim.llc_accesses": accesses,
        "sim.llc_misses": total("sim.run", "llc_misses"),
        "sim.instructions_per_host_s": rate(instructions, host("sim.run")),
        "sim.fills_per_llc_access": rate(lines, accesses),
        "workloads.traces.host_s": host("workloads.traces"),
        "noc.host_s": host("noc.measure"),
        "noc.packets": counters.get("noc.packets", 0),
        "noc.packets_per_host_s": rate(counters.get("noc.packets", 0), host("noc.measure")),
    }
    for kernel in ("balanced", "fcfs"):
        name = f"service.kernel.{kernel}"
        metrics[f"{name}.host_s"] = host(name)
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.requests_per_host_s"] = rate(total(name, "requests"), host(name))
    metrics.update(
        {
            "fleet.traffic.host_s": host("fleet.traffic"),
            "fleet.traffic.requests": total("fleet.traffic", "requests"),
            "fleet.metrics.host_s": host("fleet.metrics"),
            "fleet.engine.self_s": own("fleet.day"),
            "fleet.routing.host_s": host("fleet.routing"),
            "fleet.autoscale.host_s": host("fleet.autoscale"),
            "fleet.autoscale.scale_events": counters.get("fleet.scale_up", 0)
            + counters.get("fleet.scale_down", 0),
            "service.cluster.host_s": host("service.cluster"),
            "service.requests": counters.get("service.requests", 0),
            "service.events": counters.get("service.events", 0),
            "faults.inject.host_s": host("faults.inject"),
            "faults.requests_lost": counters.get("faults.requests_lost", 0),
            "dse.search.host_s": host("search.explore"),
            "dse.evaluations": total("search.evaluate", "evaluated"),
            "runtime.executor.map.self_s": own("executor.map"),
            "runtime.executor.points": total("executor.map", "points"),
            "runtime.executor.chunk_retries": counters.get("executor.chunk_retries", 0),
            "report.grade.self_s": own("report.validate", "executor.map"),
            "report.claims_failed": 0 if run is None else run.count(Grade.FAIL),
        }
    )
    walls = {} if run is None else {c.experiment_id: c.wall_time_s for c in run.experiments}
    for experiment in EXPERIMENTS:
        metrics[f"experiment.{experiment}.host_s"] = walls.get(experiment, 0.0)
    return metrics


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("per_host_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("per_llc_access"):
        return "ratio"
    return "count"


def median_metrics(passes: "list[dict[str, float]]") -> "dict[str, float]":
    """Per-metric median over the traced passes of one run.

    Counts repeat exactly from pass to pass; ``median_low`` keeps them ints.
    """

    def middle(values):
        if all(isinstance(value, int) for value in values):
            return statistics.median_low(values)
        return statistics.median(values)

    return {name: middle([p[name] for p in passes]) for name in passes[0]}


def breakdown(tracer, wall_s: float) -> "list[str]":
    """Self time per span name, its share of the pass's wall time, and counts.

    The ``bench.pass`` row is time no layer span covers; the self times sum to
    the wall time in a serial pass and exceed it by the pool's parallelism.
    """
    rows = []
    for name, spans in _by_name(tracer).items():
        rows.append((sum(self_time(s) for s in spans), name, len(spans)))
    rows.sort(reverse=True)
    lines = [f"{'span (layer.op)':<28} {'calls':>8} {'self_s':>10} {'share':>7}"]
    for own, name, count in rows:
        share = own / wall_s if wall_s > 0 else 0.0
        label = f"{name} (unattributed)" if name == PASS_SPAN else name
        lines.append(f"{label:<28} {count:>8} {own:>10.4f} {share:>7.1%}")
    summed = sum(own for own, _, _ in rows)
    lines.append(f"{'sum of self times':<28} {'':>8} {summed:>10.4f} {summed / wall_s:>7.1%}")
    lines.append(f"{'pass wall time':<28} {'':>8} {wall_s:>10.4f} {1:>7.1%}")
    for name, value in sorted(tracer.counters().items()):
        lines.append(f"counter {name} = {value}")
    return lines
