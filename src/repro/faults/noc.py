"""NoC link-fault injection as a pure topology transform.

:func:`apply_link_faults` takes a :class:`~repro.noc.topology.NocTopology`
and a set of :class:`~repro.faults.events.LinkFault` events and returns a
*new* topology with the faults applied -- the input (which may be a shared,
cached instance) is never mutated, and an empty fault set returns the input
object itself so zero-fault NoC runs stay byte-identical.

Fault semantics:

* ``"degraded"`` -- both directed edges of the link keep existing but their
  latency is multiplied by ``latency_factor`` (rounded up) and their routing
  weight grows by the same factor, so shortest-path routing steers traffic
  around the slow link when an alternative exists;
* ``"down"`` -- both directed edges are removed, *unless* removal would cut
  some core off from some LLC bank (checked by a strongly connected
  test over the core+LLC node set), in which case the link is degraded
  by ``latency_factor`` instead -- a partitioned network has no defined
  latency, so the transform refuses to create one.

The faulted topology drops the builder's oblivious routing function (XY or
row/column routing would happily route straight through a missing link) and
falls back to weighted shortest paths.  The reference engine finds them
with ``topology.route()`` and the fastpath with one compiled search per
topology instance that transcribes it, so fastpath and reference stay
bit-identical under faults.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.faults.events import LinkFault
from repro.noc.graph import DiGraph, strongly_connected
from repro.noc.topology import LinkAttributes, NocTopology


def undirected_links(topology: NocTopology) -> "tuple[tuple[int, int], ...]":
    """The topology's links as canonical (min, max) pairs, sorted.

    This is the link pool a :class:`~repro.faults.generator.FaultLoadGenerator`
    samples link faults from.
    """
    return tuple(
        sorted({(min(a, b), max(a, b)) for a, b in topology.graph.edges})
    )


def _degrade(graph: DiGraph, a: int, b: int, factor: float) -> None:
    """Multiply one directed edge's latency and routing weight by ``factor``."""
    edge = graph.edges[a, b]
    attrs: LinkAttributes = edge["attrs"]
    edge["attrs"] = LinkAttributes(
        latency_cycles=int(math.ceil(attrs.latency_cycles * factor)),
        length_mm=attrs.length_mm,
    )
    edge["weight"] = edge["weight"] * factor


def apply_link_faults(
    topology: NocTopology, link_faults: "Sequence[LinkFault] | Iterable[LinkFault]"
) -> NocTopology:
    """Return ``topology`` with the link faults applied (input untouched).

    Args:
        topology: the healthy topology (possibly a shared cached instance;
            it is never mutated).
        link_faults: the faults to apply; links absent from the graph are
            ignored.

    Returns:
        The same object when ``link_faults`` is empty; otherwise a new
        :class:`NocTopology` named ``"<name>+faults"`` with weighted
        shortest-path routing and a fresh route cache.
    """
    faults = tuple(link_faults)
    if not faults:
        return topology

    from repro.obs.tracer import get_tracer

    tracer = get_tracer()
    graph = topology.graph.copy()
    for fault in faults:
        a, b = fault.link
        directed = [(x, y) for x, y in ((a, b), (b, a)) if graph.has_edge(x, y)]
        if not directed:
            continue
        if fault.severity == "down":
            removed = [(x, y, dict(graph.edges[x, y])) for x, y in directed]
            graph.remove_edges_from(directed)
            if strongly_connected(graph, [*topology.core_nodes, *topology.llc_nodes]):
                if tracer.enabled:
                    tracer.counter("faults.link_down").add()
                continue
            # Removal would partition cores from LLC banks; degrade instead.
            for x, y, data in removed:
                graph.add_edge(x, y, **data)
        for x, y in directed:
            _degrade(graph, x, y, fault.latency_factor)
        if tracer.enabled:
            tracer.counter("faults.link_degraded").add()

    return NocTopology(
        name=f"{topology.name}+faults",
        graph=graph,
        core_nodes=list(topology.core_nodes),
        llc_nodes=list(topology.llc_nodes),
        router_pipeline_cycles=dict(topology.router_pipeline_cycles),
        positions=dict(topology.positions),
        routing=None,
    )
