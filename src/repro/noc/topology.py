"""NoC topology builders.

A :class:`NocTopology` is a directed graph of router nodes plus a routing
function.  Three builders cover the organizations of Chapter 4:

* :func:`build_mesh` -- an ``R x C`` grid of core+LLC tiles, dimension-ordered
  (XY) routing, 3-cycle hops;
* :func:`build_flattened_butterfly` -- the same grid with full row/column
  connectivity, at most two network hops, link delay proportional to span;
* :func:`build_nocout` -- cores on either side of a central row of LLC tiles,
  reached through routing-free reduction/dispersion trees; LLC tiles are linked
  by a one-dimensional flattened butterfly.

Every node is identified by an integer id; core nodes and LLC nodes are listed
separately so the traffic generator can produce the bilateral core-to-cache
pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.noc.graph import DiGraph, bidirectional_dijkstra


@dataclass(frozen=True)
class LinkAttributes:
    """Physical attributes of one directed link."""

    latency_cycles: int
    length_mm: float


@dataclass
class NocTopology:
    """A routed NoC topology.

    Node ids are ``0 .. N-1`` for an ``N``-node graph, and every core and LLC
    node is in the graph (checked at construction), so route tables can be
    indexed densely by node id.

    Attributes:
        name: topology name ("mesh", "fbfly", "nocout").
        graph: directed graph; edges carry :class:`LinkAttributes` under
            ``attrs`` and a routing weight under ``weight``.
        core_nodes: node ids that host cores (traffic sources/sinks).
        llc_nodes: node ids that host LLC banks (traffic destinations).
        router_pipeline_cycles: per-router pipeline depth, by node id.
        positions: (x, y) grid coordinates of each node (for link lengths).
    """

    name: str
    graph: DiGraph
    core_nodes: "list[int]"
    llc_nodes: "list[int]"
    router_pipeline_cycles: "dict[int, int]"
    positions: "dict[int, tuple[float, float]]"
    #: optional deterministic routing function (e.g. XY dimension-order routing);
    #: falls back to a shortest path when None.
    routing: "Callable[[int, int], list[int]] | None" = None

    #: cached shortest paths (filled lazily)
    _paths: "dict[tuple[int, int], list[int]]" = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        nodes = self.graph.nodes
        if set(nodes) != set(range(len(nodes))):
            raise ValueError(f"{self.name}: node ids must be 0..{len(nodes) - 1}")
        missing = sorted(set(self.core_nodes).union(self.llc_nodes).difference(nodes))
        if missing:
            raise ValueError(f"{self.name}: core/LLC nodes {missing} are not in the graph")

    def route(self, source: int, destination: int) -> "list[int]":
        """Nodes along the route from ``source`` to ``destination`` (inclusive)."""
        key = (source, destination)
        path = self._paths.get(key)
        if path is None:
            if self.routing is not None:
                path = self.routing(source, destination)
            else:
                _, path = bidirectional_dijkstra(self.graph, source, destination)
            self._paths[key] = path
        return path

    def link(self, a: int, b: int) -> LinkAttributes:
        """Attributes of the directed link from ``a`` to ``b``."""
        return self.graph.edges[a, b]["attrs"]

    def zero_load_latency(self, source: int, destination: int, flits: int = 1) -> float:
        """Zero-load latency of a packet: routers + links + serialization."""
        path = self.route(source, destination)
        latency = 0.0
        for a, b in zip(path[:-1], path[1:]):
            latency += self.router_pipeline_cycles.get(a, 1)
            latency += self.link(a, b).latency_cycles
        latency += self.router_pipeline_cycles.get(path[-1], 1)
        latency += max(0, flits - 1)  # serialization of the packet body
        return latency

    @property
    def num_links(self) -> int:
        """Number of directed links."""
        return self.graph.number_of_edges()

    def average_hop_count(self) -> float:
        """Average hop count over all core -> LLC pairs."""
        total, pairs = 0, 0
        for core in self.core_nodes:
            for llc in self.llc_nodes:
                total += len(self.route(core, llc)) - 1
                pairs += 1
        return total / max(1, pairs)


def _grid_dims(tiles: int) -> "tuple[int, int]":
    cols = int(math.ceil(math.sqrt(tiles)))
    rows = int(math.ceil(tiles / cols))
    return rows, cols


def build_mesh(
    cores: int = 64,
    tile_pitch_mm: float = 1.4,
    hop_latency_cycles: int = 3,
    router_pipeline_cycles: int = 2,
) -> NocTopology:
    """2D mesh of core+LLC tiles with XY (shortest-path) routing.

    Each hop costs ``hop_latency_cycles`` total (a 2-stage router plus a 1-cycle
    link, Table 4.1); the link latency carried by the edges is the hop latency
    minus the router pipeline so that zero-load latency matches the paper's
    3 cycles/hop.
    """
    rows, cols = _grid_dims(cores)
    graph = DiGraph()
    positions: "dict[int, tuple[float, float]]" = {}
    link_cycles = max(1, hop_latency_cycles - router_pipeline_cycles)
    for node in range(rows * cols):
        r, c = divmod(node, cols)
        positions[node] = (c, r)
        graph.add_node(node)
    for node in range(rows * cols):
        r, c = divmod(node, cols)
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < rows and 0 <= nc < cols:
                neighbour = nr * cols + nc
                attrs = LinkAttributes(latency_cycles=link_cycles, length_mm=tile_pitch_mm)
                graph.add_edge(node, neighbour, attrs=attrs, weight=1.0)
    nodes = list(range(rows * cols))[:cores]

    def xy_route(source: int, destination: int) -> "list[int]":
        """Dimension-ordered (X then Y) routing -- balanced and deadlock-free."""
        sr, sc = divmod(source, cols)
        dr, dc = divmod(destination, cols)
        path = [source]
        r, c = sr, sc
        while c != dc:
            c += 1 if dc > c else -1
            path.append(r * cols + c)
        while r != dr:
            r += 1 if dr > r else -1
            path.append(r * cols + c)
        return path

    return NocTopology(
        name="mesh",
        graph=graph,
        core_nodes=nodes,
        llc_nodes=nodes,  # every tile holds an LLC slice
        router_pipeline_cycles={n: router_pipeline_cycles for n in graph.nodes},
        positions=positions,
        routing=xy_route,
    )


def build_flattened_butterfly(
    cores: int = 64,
    tile_pitch_mm: float = 1.4,
    router_pipeline_cycles: int = 3,
    tiles_per_cycle: float = 2.0,
) -> NocTopology:
    """Flattened butterfly: full connectivity along every row and column.

    Link latency grows with the span of the link (a flit covers up to
    ``tiles_per_cycle`` tiles per cycle, Table 4.1); routing needs at most two
    hops.
    """
    rows, cols = _grid_dims(cores)
    graph = DiGraph()
    positions: "dict[int, tuple[float, float]]" = {}
    for node in range(rows * cols):
        r, c = divmod(node, cols)
        positions[node] = (c, r)
        graph.add_node(node)
    for node in range(rows * cols):
        r, c = divmod(node, cols)
        for other_c in range(cols):
            if other_c != c:
                span = abs(other_c - c)
                latency = max(1, int(math.ceil(span / tiles_per_cycle)))
                attrs = LinkAttributes(latency_cycles=latency, length_mm=span * tile_pitch_mm)
                graph.add_edge(node, r * cols + other_c, attrs=attrs, weight=1.0)
        for other_r in range(rows):
            if other_r != r:
                span = abs(other_r - r)
                latency = max(1, int(math.ceil(span / tiles_per_cycle)))
                attrs = LinkAttributes(latency_cycles=latency, length_mm=span * tile_pitch_mm)
                graph.add_edge(node, other_r * cols + c, attrs=attrs, weight=1.0)
    nodes = list(range(rows * cols))[:cores]

    def row_column_route(source: int, destination: int) -> "list[int]":
        """At most two hops: one along the row, then one along the column."""
        sr, sc = divmod(source, cols)
        dr, dc = divmod(destination, cols)
        path = [source]
        if sc != dc:
            path.append(sr * cols + dc)
        if sr != dr:
            path.append(dr * cols + dc)
        return path

    return NocTopology(
        name="fbfly",
        graph=graph,
        core_nodes=nodes,
        llc_nodes=nodes,
        router_pipeline_cycles={n: router_pipeline_cycles for n in graph.nodes},
        positions=positions,
        routing=row_column_route,
    )


def build_nocout(
    cores: int = 64,
    llc_tiles: int = 8,
    tile_pitch_mm: float = 1.4,
    tree_hop_cycles: int = 1,
    llc_router_pipeline_cycles: int = 3,
    tiles_per_cycle: float = 2.0,
) -> NocTopology:
    """NOC-Out: reduction/dispersion trees into a central flattened-butterfly LLC row.

    Core nodes are numbered ``0 .. cores-1``; LLC nodes are ``cores .. cores +
    llc_tiles - 1``.  Each LLC tile's ``cores // llc_tiles`` cores form a column
    split across the LLC row: the tree above it takes the larger half (the
    ceiling), the tree below the rest.  Each tree is chained into the LLC tile
    at its foot (a reduction tree in one direction, a dispersion tree in the
    other -- modelled as symmetric 1-cycle links).  LLC tiles are fully
    connected to each other.
    """
    if cores % llc_tiles != 0:
        raise ValueError("cores must be a multiple of llc_tiles")
    column = cores // llc_tiles
    upper = -(-column // 2)  # trees above and below the LLC row
    graph = DiGraph()
    positions: "dict[int, tuple[float, float]]" = {}
    router_pipeline: "dict[int, int]" = {}

    llc_nodes = [cores + i for i in range(llc_tiles)]
    llc_row_y = upper
    for i, llc in enumerate(llc_nodes):
        graph.add_node(llc)
        positions[llc] = (i, llc_row_y)
        router_pipeline[llc] = llc_router_pipeline_cycles

    # Reduction/dispersion trees: chains of cores feeding each LLC tile from
    # above and below (Figure 4.4).
    core_id = 0
    for i, llc in enumerate(llc_nodes):
        for side, tree_cores in ((-1, upper), (+1, column - upper)):
            previous = llc
            for depth in range(1, tree_cores + 1):
                node = core_id
                core_id += 1
                graph.add_node(node)
                positions[node] = (i, llc_row_y + side * depth)
                router_pipeline[node] = tree_hop_cycles
                attrs = LinkAttributes(latency_cycles=tree_hop_cycles, length_mm=tile_pitch_mm)
                graph.add_edge(node, previous, attrs=attrs, weight=1.0)
                graph.add_edge(previous, node, attrs=attrs, weight=1.0)
                previous = node

    # One-dimensional flattened butterfly among the LLC tiles.
    for a_idx, a in enumerate(llc_nodes):
        for b_idx, b in enumerate(llc_nodes):
            if a == b:
                continue
            span = abs(a_idx - b_idx)
            latency = max(1, int(math.ceil(span / tiles_per_cycle)))
            attrs = LinkAttributes(latency_cycles=latency, length_mm=span * tile_pitch_mm)
            graph.add_edge(a, b, attrs=attrs, weight=1.0)

    core_nodes = list(range(cores))
    return NocTopology(
        name="nocout",
        graph=graph,
        core_nodes=core_nodes,
        llc_nodes=llc_nodes,
        router_pipeline_cycles=router_pipeline,
        positions=positions,
    )


TOPOLOGY_BUILDERS: "dict[str, Callable[..., NocTopology]]" = {
    "mesh": build_mesh,
    "fbfly": build_flattened_butterfly,
    "flattened_butterfly": build_flattened_butterfly,
    "nocout": build_nocout,
}
