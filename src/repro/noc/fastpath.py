"""Structure-of-arrays fast path for the packet-level NoC simulator.

The reference implementation (:class:`~repro.noc.network.NocNetwork` with
``use_fastpath=False``) routes one ``Packet`` object at a time: every hop costs
a graph edge lookup, a dict probe for the router pipeline depth, and a
``LinkState`` attribute update.  Under sweep traffic those per-object costs
dominate the wall clock.  This module keeps the *model* identical but changes
the *representation*:

* :class:`CompiledTopology` flattens a :class:`~repro.noc.topology.NocTopology`
  into dense tables indexed by ``source * num_nodes + destination`` -- where
  each route's ``(pipeline, link, latency)`` hops start, how many there are,
  and the destination pipeline depth -- filled in bulk, once per pair, the
  searched routes by one ``noc_routes`` call into the compiled library.
* :class:`PacketBatch` carries a whole traffic batch as parallel numpy arrays
  (injection time, source, destination, message class, flits, packet id)
  instead of a list of ``Packet`` objects, with a lazy adapter back to objects
  for callers that want them.
* :func:`process_batch` replays the batch in injection-time order over the
  network's link-state arrays in one ``noc_replay`` call (or, with no
  compiler, in :func:`replay_python`, its oracle) and returns per-packet
  arrival times.

Bit-exactness contract: both replays perform *the same floating-point
operations in the same order* as the reference ``NocNetwork.send`` --
per-hop pipeline add, ``max`` against the link's next-free time,
link-latency add, then destination pipeline and serialization adds as two
separate additions.  Statistics that sum
floats use ``np.cumsum(...)[-1]``, whose strictly sequential accumulation
matches a left-to-right Python ``sum`` bit for bit (``np.sum`` does not: it
sums pairwise).  The equivalence suite in ``tests/test_noc_fastpath.py`` holds
both paths to exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.noc.graph import DiGraph, bidirectional_dijkstra
from repro.noc.packet import MessageClass, Packet
from repro.noc.topology import NocTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.noc.network import NocConfig

#: Stable integer codes for the message classes (array representation).
CLASS_ORDER: "tuple[MessageClass, ...]" = (
    MessageClass.DATA_REQUEST,
    MessageClass.SNOOP_REQUEST,
    MessageClass.RESPONSE,
)
CLASS_CODES: "dict[MessageClass, int]" = {cls: i for i, cls in enumerate(CLASS_ORDER)}


@dataclass(frozen=True)
class PacketBatch:
    """A traffic batch as a structure of arrays (one row per packet).

    Attributes:
        injection_time: injection cycle per packet (float64).
        source: source node id per packet (int64).
        destination: destination node id per packet (int64).
        class_code: message-class code per packet (see ``CLASS_CODES``).
        flits: packet length in flits; 0 means "sized by the network config",
            exactly like ``Packet.flits``.
        packet_id: unique id per packet (the run order tie-breaker).
    """

    injection_time: np.ndarray
    source: np.ndarray
    destination: np.ndarray
    class_code: np.ndarray
    flits: np.ndarray
    packet_id: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.injection_time)
        for name in ("source", "destination", "class_code", "flits", "packet_id"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"PacketBatch column {name!r} has mismatched length")

    def __len__(self) -> int:
        return len(self.injection_time)

    @classmethod
    def from_packets(cls, packets: "Sequence[Packet]") -> "PacketBatch":
        """Column-ify a list of ``Packet`` objects (the reverse adapter)."""
        return cls(
            injection_time=np.array([p.injection_time for p in packets], dtype=np.float64),
            source=np.array([p.source for p in packets], dtype=np.int64),
            destination=np.array([p.destination for p in packets], dtype=np.int64),
            class_code=np.array([CLASS_CODES[p.message_class] for p in packets], dtype=np.int64),
            flits=np.array([p.flits for p in packets], dtype=np.int64),
            packet_id=np.array([p.packet_id for p in packets], dtype=np.int64),
        )

    def to_packets(self) -> "list[Packet]":
        """Materialize ``Packet`` objects, in batch (emission) order."""
        return [
            Packet(
                source=src,
                destination=dst,
                message_class=CLASS_ORDER[code],
                injection_time=t,
                flits=flits,
                packet_id=pid,
            )
            for src, dst, code, t, flits, pid in zip(
                self.source.tolist(),
                self.destination.tolist(),
                self.class_code.tolist(),
                self.injection_time.tolist(),
                self.flits.tolist(),
                self.packet_id.tolist(),
            )
        ]

    @classmethod
    def concatenate(cls, batches: "Iterable[PacketBatch]") -> "PacketBatch":
        """Stack several batches into one (emission order preserved)."""
        parts = list(batches)
        if not parts:
            return cls(*(np.empty(0, dtype=d) for d in (np.float64,) + (np.int64,) * 5))
        return cls(
            injection_time=np.concatenate([b.injection_time for b in parts]),
            source=np.concatenate([b.source for b in parts]),
            destination=np.concatenate([b.destination for b in parts]),
            class_code=np.concatenate([b.class_code for b in parts]),
            flits=np.concatenate([b.flits for b in parts]),
            packet_id=np.concatenate([b.packet_id for b in parts]),
        )


class CompiledTopology:
    """A :class:`NocTopology` flattened into dense route tables for the kernel.

    Links are numbered in the graph's edge iteration order (the order the
    reference path builds its ``LinkState`` dict in).  Routes live in tables
    indexed by ``source * num_nodes + destination``: ``route_start`` (-1
    until the pair is compiled) and ``hop_count`` locate the route's hops in
    :attr:`hops`, whose three rows hold each hop's upstream router pipeline,
    link index and link latency; ``tail_pipeline`` is the destination
    router's pipeline depth.  :meth:`compile_routes` fills the tables in
    bulk, once per pair -- by one :func:`search_routes` call for topologies
    without a routing function (faulted meshes and NOC-Out), else through
    the builder's routing function.
    """

    def __init__(self, topology: NocTopology):
        self.topology = topology
        graph = topology.graph
        nodes = self.num_nodes = graph.number_of_nodes()
        edges = list(graph.edges)
        self.num_links = len(edges)
        self._link_id = np.full(nodes * nodes, -1, dtype=np.int64)
        self._link_id[[a * nodes + b for a, b in edges]] = np.arange(len(edges))
        self._link_latency = np.array(
            [graph.edges[edge]["attrs"].latency_cycles for edge in edges], dtype=np.int64
        )
        pipelines = topology.router_pipeline_cycles
        self._pipeline = np.array([pipelines.get(v, 1) for v in range(nodes)], dtype=np.int64)
        self.route_start = np.full(nodes * nodes, -1, dtype=np.int64)
        self.hop_count = np.zeros(nodes * nodes, dtype=np.int64)
        self.tail_pipeline = np.tile(self._pipeline, nodes)
        self.hops = np.empty((3, 0), dtype=np.int64)

    def compile_routes(self, keys: np.ndarray) -> None:
        """Add the routes of every ``source * num_nodes + destination`` key
        in ``keys`` that the tables do not hold yet."""
        # A mask over the dense table yields the keys sorted and distinct
        # (np.unique would import numpy.ma, ~40 ms, in every fresh process).
        wanted = np.zeros(len(self.route_start), dtype=bool)
        wanted[keys] = True
        missing = np.flatnonzero(wanted & (self.route_start < 0))
        if not len(missing):
            return
        nodes = self.num_nodes
        sources, destinations = missing // nodes, missing % nodes
        routing = self.topology.routing
        if routing is None:
            paths = search_routes(self.topology.graph, sources, destinations)
        else:
            paths = [routing(s, d) for s, d in zip(sources.tolist(), destinations.tolist())]
        lengths = np.array([len(path) for path in paths], dtype=np.int64)
        flat = np.fromiter(
            (node for path in paths for node in path), dtype=np.int64, count=int(lengths.sum())
        )
        # Every node but a path's last starts a hop, and every node but its
        # first ends one.
        ends = np.cumsum(lengths)
        first = np.zeros(len(flat), dtype=bool)
        first[ends - lengths] = True
        last = np.zeros(len(flat), dtype=bool)
        last[ends - 1] = True
        upstream, downstream = flat[~last], flat[~first]
        links = self._link_id[upstream * nodes + downstream]
        if len(links) and links.min() < 0:
            raise ValueError(f"{self.topology.name}: a route uses a link the graph lacks")
        counts = lengths - 1
        self.route_start[missing] = self.hops.shape[1] + np.cumsum(counts) - counts
        self.hop_count[missing] = counts
        added = np.stack([self._pipeline[upstream], links, self._link_latency[links]])
        self.hops = np.concatenate([self.hops, added], axis=1)


def _csr(adjacency: "dict[int, dict[int, dict]]", nodes: int):
    """CSR arrays of ``adjacency`` (neighbours in insertion order) and weights."""
    offsets = np.zeros(nodes + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(adjacency[v]) for v in range(nodes)])
    neighbours = np.fromiter(
        (w for v in range(nodes) for w in adjacency[v]), dtype=np.int64, count=int(offsets[-1])
    )
    weights = np.fromiter(
        (data.get("weight", 1) for v in range(nodes) for data in adjacency[v].values()),
        dtype=np.float64,
        count=int(offsets[-1]),
    )
    return offsets, neighbours, weights


def search_routes(
    graph: DiGraph, sources: np.ndarray, destinations: np.ndarray
) -> "list[list[int]]":
    """Shortest paths for each (source, destination) pair, by weight.

    Runs ``noc_routes`` in the compiled library when one is available, else
    :func:`~repro.noc.graph.bidirectional_dijkstra` per pair -- the search
    the compiled one transcribes, so both return the same paths.

    Raises:
        ValueError: when some pair has no path.
    """
    from repro.service import native

    library = native.load()
    if library is None:
        return [
            bidirectional_dijkstra(graph, s, d)[1]
            for s, d in zip(sources.tolist(), destinations.tolist())
        ]
    nodes = graph.number_of_nodes()
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    destinations = np.ascontiguousarray(destinations, dtype=np.int64)
    paths = np.empty((len(sources), nodes), dtype=np.int64)
    lengths = np.empty(len(sources), dtype=np.int64)
    status = library.noc_routes(
        nodes, *_csr(graph.succ, nodes), *_csr(graph.pred, nodes),
        len(sources), sources, destinations, paths, lengths,
    )
    if status < 0:
        raise MemoryError("noc_routes could not allocate its workspace")
    if status > 0:
        raise ValueError(
            f"No path between {sources[status - 1]} and {destinations[status - 1]}."
        )
    return [row[:length].tolist() for row, length in zip(paths, lengths.tolist())]


def compile_topology(topology: NocTopology) -> CompiledTopology:
    """The shared :class:`CompiledTopology` for ``topology`` (one per instance).

    Cached on the topology object itself so every network over the same
    topology -- and every sweep point in the same process -- reuses the
    compiled routes instead of re-flattening them.
    """
    compiled = topology.__dict__.get("_fastpath_compiled")
    if compiled is None:
        compiled = CompiledTopology(topology)
        topology.__dict__["_fastpath_compiled"] = compiled
    return compiled


@dataclass
class BatchResult:
    """Per-packet outcome of one :func:`process_batch` call (batch order)."""

    arrival_time: np.ndarray
    latency: np.ndarray
    hops: np.ndarray
    flits: np.ndarray
    class_code: np.ndarray
    #: indices that sort the batch by (injection_time, packet_id) -- the
    #: delivery order, which sequential-sum statistics must follow.
    order: np.ndarray

    def __len__(self) -> int:
        return len(self.arrival_time)


def flit_table(config: "NocConfig") -> np.ndarray:
    """Flits per message-class code at ``config``'s link width."""
    return np.array([config.flits_for(cls) for cls in CLASS_ORDER], dtype=np.int64)


def process_batch(
    compiled: CompiledTopology,
    batch: PacketBatch,
    config: "NocConfig",
    next_free: np.ndarray,
    flits_carried: np.ndarray,
) -> BatchResult:
    """Deliver ``batch`` over ``compiled``, mutating the link-state arrays.

    ``next_free`` (float64) and ``flits_carried`` (int64) are the network's
    persistent per-link occupancy state (one slot per link, in link index
    order); they are updated in place so repeated batches see earlier
    traffic, exactly like repeated ``send`` calls on the reference path.
    The replay runs as ``noc_replay`` in the compiled library when one is
    available, else as :func:`replay_python`; each call counts
    ``noc.kernel.c`` or ``noc.kernel.python``.

    Raises:
        ValueError: when a packet names a node outside ``0 .. num_nodes-1``.
    """
    from repro.obs.tracer import get_tracer
    from repro.service import native

    nodes = compiled.num_nodes
    for column in (batch.source, batch.destination):
        if len(column) and (column.min() < 0 or column.max() >= nodes):
            raise ValueError(f"packet node ids must lie in 0..{nodes - 1}")
    resolved = np.where(
        batch.flits > 0, batch.flits, flit_table(config)[batch.class_code]
    )
    # Delivery order: injection time, ties broken by packet id (lexsort keys
    # are significance-last, and both sorts are stable) -- identical to the
    # reference path's sorted(key=(injection_time, packet_id)).
    order = np.lexsort((batch.packet_id, batch.injection_time))
    keys = (batch.source * nodes + batch.destination).astype(np.int64, copy=False)
    compiled.compile_routes(keys)

    library = native.load()
    tracer = get_tracer()
    if tracer.enabled:
        tracer.counter(f"noc.kernel.{'python' if library is None else 'c'}").add()
    if library is None:
        arrival_time = replay_python(
            compiled, order, batch.injection_time, resolved, keys, next_free, flits_carried
        )
    else:
        arrival_time = np.empty(len(batch), dtype=np.float64)
        library.noc_replay(
            len(batch), order, np.ascontiguousarray(batch.injection_time, dtype=np.float64),
            np.ascontiguousarray(resolved, dtype=np.int64), keys,
            compiled.route_start, compiled.hop_count, compiled.tail_pipeline,
            *compiled.hops, next_free, flits_carried, arrival_time,
        )
    return BatchResult(
        arrival_time=arrival_time,
        latency=arrival_time - batch.injection_time,
        hops=compiled.hop_count[keys],
        flits=resolved,
        class_code=batch.class_code,
        order=order,
    )


def replay_python(
    compiled: CompiledTopology,
    order: np.ndarray,
    injection_time: np.ndarray,
    flits: np.ndarray,
    keys: np.ndarray,
    next_free: np.ndarray,
    flits_carried: np.ndarray,
) -> np.ndarray:
    """Arrival time per packet, replaying them in ``order`` hop by hop.

    The oracle of ``noc_replay`` in ``kernel.c``, and its fallback when no
    compiler is found: per hop a pipeline add, ``max`` against the link's
    next-free time, the link's occupancy update and a latency add, then the
    destination pipeline and serialization as two separate additions.
    """
    routes = {}
    for key in set(keys.tolist()):
        start = int(compiled.route_start[key])
        end = start + int(compiled.hop_count[key])
        hops = list(zip(*(row[start:end].tolist() for row in compiled.hops)))
        routes[key] = (hops, int(compiled.tail_pipeline[key]))
    free_at = next_free.tolist()
    carried = flits_carried.tolist()
    injections = injection_time.tolist()
    flits_list = flits.tolist()
    keys_list = keys.tolist()
    arrivals = [0.0] * len(keys_list)
    for index in order.tolist():
        time = injections[index]
        size = flits_list[index]
        hops, tail = routes[keys_list[index]]
        for pipeline, link, latency in hops:
            time += pipeline
            free = free_at[link]
            start = time if time >= free else free
            free_at[link] = start + size
            carried[link] += size
            time = start + latency
        # Same two separate additions as the reference path (float addition is
        # not associative; the order is part of the bit-exactness contract).
        time += tail
        time += size - 1
        arrivals[index] = time
    next_free[:] = free_at
    flits_carried[:] = carried
    return np.array(arrivals, dtype=np.float64)


def sequential_sum(values: np.ndarray, initial: float = 0.0) -> float:
    """Left-to-right float sum from ``initial``, bit-identical to a Python
    running sum over the same values.

    ``np.cumsum`` accumulates strictly sequentially, unlike ``np.sum``'s
    pairwise reduction, so seeding the scan with the current running total
    reproduces ``(((initial + v0) + v1) + ...)`` exactly -- the accumulation
    order the reference path's per-packet statistics use.
    """
    if len(values) == 0:
        return initial
    return float(np.cumsum(np.concatenate(([initial], values)))[-1])
