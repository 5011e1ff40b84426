"""A small directed graph for NoC topologies, and its route search.

:class:`DiGraph` keeps the adjacency the NoC models need and nothing more:
ordered ``succ``/``pred`` dicts of ``{neighbour: edge data}``, where the
edge-data dict of ``a -> b`` is one object shared by ``succ[a][b]`` and
``pred[b][a]``.  Insertion order is part of the model: it fixes the link
index order (:attr:`DiGraph.edges` iterates ``succ``) and the order in which
the route search scans neighbours, so it follows the conventions of the
NetworkX ``DiGraph`` this replaces -- an edge removed and added again moves
to the end of both dicts, and :meth:`DiGraph.copy` rebuilds ``pred`` in
``succ`` order.

:func:`bidirectional_dijkstra` is a line-for-line port of NetworkX's
bidirectional Dijkstra, tie-breaks included; it is the oracle of the
compiled search in ``kernel.c`` and its fallback when no compiler is found.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Iterable, Iterator, KeysView


class EdgeView:
    """The edges of a :class:`DiGraph`: iterable as ``(a, b)`` pairs, in
    ``succ`` order, and indexable as ``edges[a, b]`` for the edge data."""

    def __init__(self, succ: "dict[int, dict[int, dict]]"):
        self._succ = succ

    def __iter__(self) -> "Iterator[tuple[int, int]]":
        for a, neighbours in self._succ.items():
            for b in neighbours:
                yield a, b

    def __len__(self) -> int:
        return sum(len(neighbours) for neighbours in self._succ.values())

    def __getitem__(self, edge: "tuple[int, int]") -> dict:
        a, b = edge
        return self._succ[a][b]


class DiGraph:
    """Directed graph with insertion-ordered adjacency and per-edge data dicts."""

    def __init__(self) -> None:
        self.succ: "dict[int, dict[int, dict]]" = {}
        self.pred: "dict[int, dict[int, dict]]" = {}

    def add_node(self, node: int) -> None:
        """Add ``node`` (no-op when present)."""
        if node not in self.succ:
            self.succ[node] = {}
            self.pred[node] = {}

    def add_edge(self, a: int, b: int, **data: object) -> None:
        """Add ``a -> b`` (adding missing nodes), or update its data when present."""
        self.add_node(a)
        self.add_node(b)
        edge = self.succ[a].get(b, {})
        edge.update(data)
        self.succ[a][b] = edge
        self.pred[b][a] = edge

    def remove_edges_from(self, edges: "Iterable[tuple[int, int]]") -> None:
        """Remove each listed edge; absent edges are ignored."""
        for a, b in edges:
            if b in self.succ.get(a, ()):
                del self.succ[a][b]
                del self.pred[b][a]

    def has_edge(self, a: int, b: int) -> bool:
        """Whether the edge ``a -> b`` exists."""
        return b in self.succ.get(a, ())

    def copy(self) -> "DiGraph":
        """An independent copy: same nodes, edges added in ``succ`` order,
        each edge-data dict copied (so the copy's ``pred`` follows ``succ``
        order, as a NetworkX copy's does)."""
        graph = DiGraph()
        for node in self.succ:
            graph.add_node(node)
        for a, b in self.edges:
            graph.add_edge(a, b, **self.succ[a][b])
        return graph

    @property
    def nodes(self) -> "KeysView[int]":
        """Nodes in insertion order."""
        return self.succ.keys()

    @property
    def edges(self) -> EdgeView:
        """Edges in ``succ`` order; ``edges[a, b]`` is the edge-data dict."""
        return EdgeView(self.succ)

    def number_of_nodes(self) -> int:
        """Number of nodes."""
        return len(self.succ)

    def number_of_edges(self) -> int:
        """Number of directed edges."""
        return len(self.edges)

    def in_degree(self, node: int) -> int:
        """Number of edges into ``node``."""
        return len(self.pred[node])

    def out_degree(self, node: int) -> int:
        """Number of edges out of ``node``."""
        return len(self.succ[node])


def _reach(adjacency: "dict[int, dict[int, dict]]", start: int) -> "set[int]":
    """Nodes reachable from ``start`` along ``adjacency`` (iterative search)."""
    seen = {start}
    stack = [start]
    while stack:
        for neighbour in adjacency[stack.pop()]:
            if neighbour not in seen:
                seen.add(neighbour)
                stack.append(neighbour)
    return seen


def strongly_connected(graph: DiGraph, nodes: "Iterable[int]") -> bool:
    """Whether every one of ``nodes`` reaches every other (one strongly
    connected component holds them all).

    All of them reach one of them and it reaches all of them exactly when
    they are mutually reachable, so one forward and one backward search
    decide it.
    """
    required = set(nodes)
    if not required or not required <= graph.succ.keys():
        return False
    root = next(iter(required))
    return required <= _reach(graph.succ, root) and required <= _reach(graph.pred, root)


def bidirectional_dijkstra(
    graph: DiGraph, source: int, target: int, weight: str = "weight"
) -> "tuple[float, list[int]]":
    """Shortest ``source -> target`` path by bidirectional Dijkstra.

    A port of NetworkX's ``bidirectional_dijkstra``, statement for
    statement: the two searches alternate, each heap is keyed on
    ``(distance, push counter)``, neighbours are scanned in ``succ``/``pred``
    order, and a missing ``weight`` attribute counts as 1.  It returns
    ``(distance, path)`` and raises ``KeyError`` for an unknown node and
    ``ValueError`` when no path exists.
    """
    if source not in graph.succ:
        raise KeyError(f"Source {source} is not in G")

    if target not in graph.succ:
        raise KeyError(f"Target {target} is not in G")

    if source == target:
        return (0, [source])

    # Init:  [Forward, Backward]
    dists = [{}, {}]  # dictionary of final distances
    preds = [{source: None}, {target: None}]  # dictionary of preds

    def path(curr, direction):
        """The search tree's branch through ``curr``, toward its root."""
        ret = []
        while curr is not None:
            ret.append(curr)
            curr = preds[direction][curr]
        return list(reversed(ret)) if direction == 0 else ret

    fringe = [[], []]  # heap of (distance, node) for choosing node to expand
    seen = [{source: 0}, {target: 0}]  # dict of distances to seen nodes
    c = count()
    # initialize fringe heap
    heappush(fringe[0], (0, next(c), source))
    heappush(fringe[1], (0, next(c), target))
    # neighbors for extracting correct neighbor information
    neighbors = [graph.succ, graph.pred]
    # variables to hold shortest discovered path
    finaldist = None
    meetnode = None
    direction = 1
    while fringe[0] and fringe[1]:
        # choose direction
        # direction == 0 is forward direction and direction == 1 is back
        direction = 1 - direction
        # extract closest to expand
        (dist, _, v) = heappop(fringe[direction])
        if v in dists[direction]:
            # Shortest path to v has already been found
            continue
        # update distance
        dists[direction][v] = dist  # equal to seen[direction][v]
        if v in dists[1 - direction]:
            # if we have scanned v in both directions we are done
            # we have now discovered the shortest path
            return (finaldist, path(meetnode, 0) + path(preds[1][meetnode], 1))

        for w, d in neighbors[direction][v].items():
            # the edge's data is the same dict in both directions
            cost = d.get(weight, 1)
            vwLength = dist + cost
            if w in dists[direction]:
                if vwLength < dists[direction][w]:
                    raise ValueError("Contradictory paths found: negative weights?")
            elif w not in seen[direction] or vwLength < seen[direction][w]:
                # relaxing
                seen[direction][w] = vwLength
                heappush(fringe[direction], (vwLength, next(c), w))
                preds[direction][w] = v
                if w in seen[1 - direction]:
                    # see if this path is better than the already
                    # discovered shortest path
                    finaldist_w = vwLength + seen[1 - direction][w]
                    if finaldist is None or finaldist > finaldist_w:
                        finaldist, meetnode = finaldist_w, w
    raise ValueError(f"No path between {source} and {target}.")
