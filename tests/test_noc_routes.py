"""Route identity: every route the catalog searches is pinned by a digest.

``noc_catalog_routes`` lists the 11,980 (topology, source, destination)
routes the paper's NoC experiments find by shortest-path search (NOC-Out and
the faulted meshes).  The digest below was captured from the original
NetworkX-based search; any route search must reproduce it exactly, including
how it breaks ties between equally short paths.
"""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.events import LinkFault
from repro.faults.noc import apply_link_faults, undirected_links
from repro.noc.fastpath import search_routes
from repro.noc.graph import DiGraph, bidirectional_dijkstra, strongly_connected
from repro.noc.topology import NocTopology, build_flattened_butterfly, build_mesh, build_nocout
from repro.runtime.bench import noc_catalog_routes
from repro.service import native

ROOT = Path(__file__).resolve().parent.parent

#: SHA-256 of every catalog route, captured from NetworkX's bidirectional Dijkstra.
CATALOG_ROUTE_DIGEST = "9c151a81cea562bc518cc1c66d7c13383b94c120c7bb8cc71a76c6c5ebec4a42"


def _route_digest(routes_for):
    """Digest of ``routes_for(label, topology, sources, destinations)`` paths."""
    digest = hashlib.sha256()
    count = 0
    for label, topology, sources, destinations in noc_catalog_routes():
        paths = routes_for(topology, sources.tolist(), destinations.tolist())
        for source, destination, path in zip(sources.tolist(), destinations.tolist(), paths):
            digest.update(f"{label}:{source}:{destination}:{path}\n".encode())
            count += 1
    return count, digest.hexdigest()


def test_catalog_routes_match_the_pinned_digest():
    count, digest = _route_digest(
        lambda topology, sources, destinations: [
            topology.route(s, d) for s, d in zip(sources, destinations)
        ]
    )
    assert count == 11_980
    assert digest == CATALOG_ROUTE_DIGEST


def test_compiled_search_matches_the_pinned_digest():
    count, digest = _route_digest(
        lambda topology, sources, destinations: search_routes(
            topology.graph, np.array(sources), np.array(destinations)
        )
    )
    assert count == 11_980
    assert digest == CATALOG_ROUTE_DIGEST


# ------------------------------------------------------------------- the graph
def _graph(edges):
    graph = DiGraph()
    for a, b in edges:
        graph.add_edge(a, b, weight=1.0)
    return graph


class TestDiGraph:
    def test_edges_iterate_in_succ_insertion_order(self):
        graph = _graph([(2, 0), (0, 1), (2, 1), (1, 2)])
        assert list(graph.nodes) == [2, 0, 1]
        assert list(graph.edges) == [(2, 0), (2, 1), (0, 1), (1, 2)]
        assert graph.number_of_nodes() == 3 and graph.number_of_edges() == 4
        assert graph.in_degree(1) == 2 and graph.out_degree(2) == 2

    def test_edge_data_is_shared_by_succ_and_pred(self):
        graph = _graph([(0, 1)])
        graph.edges[0, 1]["weight"] = 5.0
        assert graph.pred[1][0]["weight"] == 5.0

    def test_readded_edge_moves_to_the_end(self):
        graph = _graph([(0, 1), (0, 2), (3, 1)])
        graph.remove_edges_from([(0, 1), (7, 8)])  # absent edges are ignored
        assert not graph.has_edge(0, 1)
        graph.add_edge(0, 1, weight=2.0)
        assert list(graph.succ[0]) == [2, 1]
        assert list(graph.pred[1]) == [3, 0]

    def test_add_edge_updates_existing_data_in_place(self):
        graph = _graph([(0, 1), (0, 2)])
        graph.add_edge(0, 1, weight=3.0)
        assert list(graph.succ[0]) == [1, 2]
        assert graph.edges[0, 1] == {"weight": 3.0}

    def test_copy_rebuilds_pred_in_succ_order_with_fresh_data(self):
        # pred[0] was filled 2 then 1; the copy adds edges in succ order
        # (node 1's before node 2's), as the graph library it replaces did.
        graph = DiGraph()
        for node in (0, 1, 2):
            graph.add_node(node)
        graph.add_edge(2, 0, weight=1.0)
        graph.add_edge(1, 0, weight=1.0)
        copy = graph.copy()
        assert list(copy.nodes) == list(graph.nodes)
        assert list(copy.edges) == list(graph.edges)
        assert list(graph.pred[0]) == [2, 1]
        assert list(copy.pred[0]) == [1, 2]
        copy.edges[2, 0]["weight"] = 9.0
        assert graph.edges[2, 0]["weight"] == 1.0


def _closure(graph):
    """Reachability by repeated squaring of the adjacency (brute force)."""
    nodes = list(graph.nodes)
    reach = {a: {a} | set(graph.succ[a]) for a in nodes}
    for _ in nodes:
        reach = {a: set().union(*(reach[b] for b in reach[a])) for a in nodes}
    return reach


@settings(max_examples=80, deadline=None)
@given(
    edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=24),
    required=st.sets(st.integers(0, 7), min_size=1, max_size=5),
)
def test_strongly_connected_matches_brute_force(edges, required):
    graph = DiGraph()
    for node in range(8):
        graph.add_node(node)
    for a, b in edges:
        if a != b:
            graph.add_edge(a, b)
    reach = _closure(graph)
    expected = all(b in reach[a] for a in required for b in required)
    assert strongly_connected(graph, required) == expected


def test_strongly_connected_needs_both_directions():
    chain = _graph([(0, 1), (1, 2)])
    assert not strongly_connected(chain, [0, 2])  # 0 reaches 2, not back
    assert not strongly_connected(chain, [2, 0])
    chain.add_edge(2, 0)
    assert strongly_connected(chain, [0, 2])


def test_strongly_connected_rejects_unknown_nodes():
    graph = _graph([(0, 1), (1, 0)])
    assert strongly_connected(graph, [0, 1])
    assert not strongly_connected(graph, [0, 1, 5])
    assert not strongly_connected(graph, [])


# --------------------------------------------------------------- route search
@st.composite
def _search_cases(draw):
    """A faulted mesh, flattened butterfly or NOC-Out graph, with some edges
    removed and added back (which moves them to the end of the insertion
    order), plus core/LLC pairs to route."""
    kind = draw(st.sampled_from(["mesh", "fbfly", "nocout"]))
    if kind == "nocout":
        llc_tiles = draw(st.sampled_from([2, 4, 8]))
        topology = build_nocout(cores=llc_tiles * draw(st.integers(1, 5)), llc_tiles=llc_tiles)
    else:
        builder = build_mesh if kind == "mesh" else build_flattened_butterfly
        topology = builder(draw(st.integers(2, 36)))
    links = undirected_links(topology)
    faults = draw(
        st.lists(
            st.builds(
                LinkFault,
                link=st.sampled_from(links),
                severity=st.sampled_from(["down", "degraded"]),
                latency_factor=st.sampled_from([1.0, 1.5, 2.0, 4.0]),
            ),
            max_size=8,
        )
    )
    graph = apply_link_faults(topology, faults).graph.copy()
    for a, b in draw(st.lists(st.sampled_from(list(graph.edges)), max_size=6, unique=True)):
        data = dict(graph.edges[a, b])
        graph.remove_edges_from([(a, b)])
        graph.add_edge(a, b, **data)
    endpoints = sorted(set(topology.core_nodes) | set(topology.llc_nodes))
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(endpoints), st.sampled_from(endpoints)),
                 min_size=1, max_size=40)
    )
    return graph, pairs


def _library():
    library = native.load()
    if library is None:  # pragma: no cover - every CI runner has gcc
        pytest.skip("no C compiler: the compiled search is unavailable")
    return library


@settings(max_examples=120, deadline=None)
@given(case=_search_cases())
def test_compiled_search_equals_the_python_port(case):
    _library()
    graph, pairs = case
    sources = np.array([s for s, _ in pairs], dtype=np.int64)
    destinations = np.array([d for _, d in pairs], dtype=np.int64)
    expected = [bidirectional_dijkstra(graph, s, d)[1] for s, d in pairs]
    assert search_routes(graph, sources, destinations) == expected


def test_compiled_search_reports_a_missing_path():
    _library()
    graph = _graph([(0, 1), (1, 2), (2, 0)])
    graph.add_node(3)
    with pytest.raises(ValueError, match="No path between 0 and 3"):
        bidirectional_dijkstra(graph, 0, 3)
    with pytest.raises(ValueError, match="No path between 0 and 3"):
        search_routes(graph, np.array([1, 0]), np.array([2, 3]))


def test_search_without_library_runs_the_python_port(monkeypatch):
    routes = noc_catalog_routes()[:2]
    compiled = [search_routes(t.graph, s, d) for _, t, s, d in routes]
    monkeypatch.setattr(native, "_library", None)
    assert [search_routes(t.graph, s, d) for _, t, s, d in routes] == compiled


# ----------------------------------------------------------------- topologies
class TestTopologyValidation:
    def test_nocout_places_every_core_when_the_column_is_odd(self):
        nocout = build_nocout(cores=24, llc_tiles=8)
        assert set(nocout.graph.nodes) == set(range(32))
        assert nocout.route(20, 24) == [20, 30, 24]
        # Three cores per column: two in the tree above the LLC row, one below.
        column = [node for node in range(24) if nocout.positions[node][0] == 0]
        assert sorted(nocout.positions[node][1] for node in column) == [0, 1, 3]
        assert nocout.positions[24] == (0, 2)

    def test_catalog_nocout_keeps_four_cores_per_tree(self):
        nocout = build_nocout(cores=64, llc_tiles=8)
        ys = sorted(nocout.positions[node][1] for node in range(64) if nocout.positions[node][0] == 0)
        assert ys == [0, 1, 2, 3, 5, 6, 7, 8]
        assert nocout.graph.number_of_edges() == 64 * 2 + 8 * 7

    def test_node_ids_must_be_dense(self):
        graph = _graph([(0, 2), (2, 0)])
        with pytest.raises(ValueError, match="node ids must be 0..1"):
            NocTopology("gap", graph, [0], [2], {}, {})

    def test_core_and_llc_nodes_must_be_in_the_graph(self):
        graph = _graph([(0, 1), (1, 0)])
        with pytest.raises(ValueError, match=r"core/LLC nodes \[2, 5\] are not in the graph"):
            NocTopology("missing", graph, [0, 5], [1, 2], {}, {})


# --------------------------------------------------------- without NetworkX
def test_repro_runs_with_only_numpy_installed(tmp_path):
    """Importing ``repro`` and running the NoC experiments needs no
    third-party package but numpy: every other non-stdlib import fails."""
    script = textwrap.dedent(
        """
        import sys

        allowed = set(sys.stdlib_module_names) | {"numpy", "repro"}

        class Blocker:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] not in allowed:
                    raise ImportError(f"blocked: {name}")
                return None

        sys.meta_path.insert(0, Blocker())
        import repro
        from repro.experiments.registry import run_experiment
        from repro.runtime.executor import SweepExecutor

        serial = SweepExecutor(mode="serial")
        figure = run_experiment(
            "figure_4_6", use_cache=False, duration_cycles=400, executor=serial
        )
        faults = run_experiment(
            "fault_noc_links", use_cache=False, duration_cycles=400,
            failed_links=(0, 2), executor=serial,
        )
        assert len(figure.data) == 3, figure.data
        assert len(faults.data["sweep"]) == 2, faults.data
        print("ok")
        """
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "HOME": str(tmp_path)}
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
