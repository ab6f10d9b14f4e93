"""Oracle equivalence: CSR, implicit JD, and dict Graph answer alike.

The ``NeighborOracle`` protocol only earns its keep if every backend
gives byte-identical answers to every structural question.  These tests
pin the three backends to each other over the small-(n, k) census:
neighbourhoods and degrees through the label bijection, BFS layerings,
diameters, edge counts, and the synchronous-round flood against the
event-driven simulator.
"""

from array import array

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.existence import build_lhg, exists
from repro.core.jenkins_demers import jd_feasibility, jenkins_demers_graph
from repro.core.kdiamond import kdiamond_exists, kdiamond_graph
from repro.core.ktree import ktree_exists, ktree_graph
from repro.errors import GraphError, NodeNotFoundError
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.rounds import round_flood
from repro.graphs import (
    CSRGraph,
    Graph,
    ImplicitJDOracle,
    NeighborOracle,
    materialize,
    oracle_has_edge,
    oracle_has_node,
    oracle_nodes,
    oracle_num_edges,
)
from repro.graphs.io import from_json, to_json
from repro.graphs.traversal import bfs_levels, diameter, eccentricity

# every JD-feasible pair with k in 2..5 and n within 3 growth rounds
CENSUS = [
    (n, k)
    for k in range(2, 6)
    for n in range(2 * k, 2 * k + 20)
    if jd_feasibility(n, k) is not None
]

SPOT = [(4, 2), (10, 3), (22, 3), (16, 4), (26, 5)]


class TestProtocol:
    def test_backends_satisfy_protocol(self):
        assert isinstance(Graph(edges=[(0, 1)]), NeighborOracle)
        assert isinstance(ImplicitJDOracle(10, 3), NeighborOracle)
        assert isinstance(CSRGraph.from_oracle(Graph(nodes=[0])), NeighborOracle)

    def test_helpers_on_minimal_oracle(self):
        class Bare:
            def num_nodes(self):
                return 2

            def degree(self, v):
                if v not in (0, 1):
                    raise NodeNotFoundError(v)
                return 1

            def neighbors(self, v):
                return [1 - v]

            def iter_nodes(self):
                return iter((0, 1))

        bare = Bare()
        assert oracle_has_node(bare, 0)
        assert not oracle_has_node(bare, 9)
        assert oracle_has_edge(bare, 0, 1)
        assert not oracle_has_edge(bare, 0, 0)
        assert oracle_nodes(bare) == [0, 1]
        assert oracle_num_edges(bare) == 1
        assert materialize(bare) == Graph(edges=[(0, 1)])


class TestImplicitEquivalence:
    @pytest.mark.parametrize("n,k", CENSUS)
    def test_matches_materialised_construction(self, n, k):
        graph, _ = jenkins_demers_graph(n, k)
        oracle = ImplicitJDOracle(n, k)
        assert oracle.num_nodes() == graph.number_of_nodes() == n
        assert oracle.number_of_edges() == graph.number_of_edges()
        for node_id in oracle.iter_nodes():
            label = oracle.label_of(node_id)
            assert oracle.id_of(label) == node_id
            expected = {oracle.id_of(v) for v in graph.neighbors(label)}
            assert set(oracle.neighbors(node_id)) == expected
            assert oracle.degree(node_id) == graph.degree(label)

    @pytest.mark.parametrize("n,k", SPOT)
    def test_bfs_and_diameter_agree(self, n, k):
        graph, _ = jenkins_demers_graph(n, k)
        oracle = ImplicitJDOracle(n, k)
        root = oracle.id_of(("T", 0, 0))
        levels = bfs_levels(oracle, root)
        expected = bfs_levels(graph, ("T", 0, 0))
        assert levels == {
            oracle.id_of(label): d for label, d in expected.items()
        }
        assert diameter(oracle) == diameter(graph)

    def test_unknown_nodes_rejected(self):
        oracle = ImplicitJDOracle(10, 3)
        with pytest.raises(NodeNotFoundError):
            oracle.neighbors(10)
        with pytest.raises(NodeNotFoundError):
            oracle.degree(-1)
        with pytest.raises(NodeNotFoundError):
            oracle.id_of(("T", 3, 0))
        assert not oracle.has_node(True)  # bools are not node ids


class _RowOracle:
    """A hand-written oracle: fixed rows, degrees from the rows unless given."""

    def __init__(self, nodes, rows, degrees=None):
        self._nodes, self._rows = nodes, rows
        self._degrees = degrees or {v: len(row) for v, row in rows.items()}

    def num_nodes(self):
        return len(self._nodes)

    def iter_nodes(self):
        return iter(self._nodes)

    def neighbors(self, v):
        return list(self._rows[v])

    def degree(self, v):
        return self._degrees[v]


def _two_pass_compile(oracle):
    """The earlier two-pass compiler, kept as the byte-for-byte reference.

    Returns ``(indptr, indices, labels, ids)``: a degree pass sizes
    ``indptr``, then a second pass fills each row sorted.
    """
    order = list(oracle.iter_nodes())
    n = len(order)
    dense = all(
        isinstance(v, int) and not isinstance(v, bool) and v == i
        for i, v in enumerate(order)
    )
    labels = None if dense else order
    ids = None if dense else {v: i for i, v in enumerate(order)}
    indptr = array("q", bytes(8 * (n + 1)))
    for i, node in enumerate(order):
        indptr[i + 1] = indptr[i] + oracle.degree(node)
    indices = array("q", bytes(8 * indptr[n]))
    for i, node in enumerate(order):
        if ids is None:
            row = [int(v) for v in oracle.neighbors(node)]
        else:
            row = [ids[v] for v in oracle.neighbors(node)]
        row.sort()
        indices[indptr[i] : indptr[i + 1]] = array("q", row)
    return indptr, indices, labels, ids


def _assert_compiles_like_two_pass(oracle):
    csr = CSRGraph.from_oracle(oracle)
    indptr, indices, labels, ids = _two_pass_compile(oracle)
    assert csr._indptr.tobytes() == indptr.tobytes()
    assert csr._indices.tobytes() == indices.tobytes()
    assert csr._labels == labels
    assert csr._ids == ids


@st.composite
def _jd_pair(draw):
    k = draw(st.integers(min_value=2, max_value=8), label="k")
    n = draw(st.integers(min_value=2 * k, max_value=5000), label="n")
    assume(jd_feasibility(n, k) is not None)
    return n, k


@st.composite
def _small_pair(draw, exists):
    k = draw(st.integers(min_value=2, max_value=6), label="k")
    n = draw(st.integers(min_value=2 * k, max_value=300), label="n")
    assume(exists(n, k))
    return n, k


_SEARCH = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestOnePassCompile:
    """The one-pass compile equals the two-pass reference byte for byte."""

    @_SEARCH
    @given(pair=_jd_pair())
    def test_implicit_jd(self, pair):
        _assert_compiles_like_two_pass(ImplicitJDOracle(*pair))

    @_SEARCH
    @given(pair=_small_pair(exists))
    def test_labelled_build_lhg(self, pair):
        graph, _ = build_lhg(*pair)
        assert all(isinstance(v, tuple) for v in graph.nodes())
        _assert_compiles_like_two_pass(graph)

    @_SEARCH
    @given(pair=_small_pair(ktree_exists))
    def test_ktree(self, pair):
        _assert_compiles_like_two_pass(ktree_graph(*pair)[0])

    @_SEARCH
    @given(pair=_small_pair(kdiamond_exists))
    def test_kdiamond(self, pair):
        _assert_compiles_like_two_pass(kdiamond_graph(*pair)[0])

    def test_int_labels_out_of_order_keep_a_table(self):
        graph = Graph(edges=[(2, 0), (0, 1)])
        _assert_compiles_like_two_pass(graph)
        assert not CSRGraph.from_oracle(graph).dense_labels


class TestCSR:
    @pytest.mark.parametrize("n,k", SPOT)
    def test_csr_matches_source_oracle(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        csr = CSRGraph.from_oracle(oracle)
        assert csr.dense_labels
        assert csr.num_nodes() == n
        assert csr.number_of_edges() == oracle.number_of_edges()
        for v in oracle.iter_nodes():
            assert list(csr.neighbors(v)) == sorted(oracle.neighbors(v))
            assert csr.degree(v) == oracle.degree(v)
        assert eccentricity(csr, 0) == eccentricity(oracle, 0)

    def test_csr_preserves_arbitrary_labels(self):
        g = Graph(edges=[("a", "b"), ("b", ("T", 0, 1))], name="labels")
        csr = CSRGraph.from_oracle(g)
        assert not csr.dense_labels
        assert set(csr.nodes()) == set(g.nodes())
        assert sorted(csr.neighbors("b"), key=repr) == sorted(
            g.neighbors("b"), key=repr
        )
        assert csr.to_graph() == g

    def test_csr_round_trip_keeps_int_ids(self):
        """Dense int ids survive CSR → Graph → JSON → Graph → CSR."""
        original = CSRGraph.from_oracle(ImplicitJDOracle(22, 3))
        revived = from_json(to_json(original.to_graph()))
        assert all(isinstance(v, int) for v in revived.nodes())
        recompiled = CSRGraph.from_oracle(revived)
        assert recompiled.dense_labels
        assert recompiled.number_of_edges() == original.number_of_edges()
        for v in range(22):
            assert list(recompiled.neighbors(v)) == list(original.neighbors(v))

    def test_csr_serialises_directly(self):
        """to_json accepts the CSR backend itself, ints intact."""
        csr = CSRGraph.from_oracle(ImplicitJDOracle(10, 3), name="jd")
        revived = from_json(to_json(csr))
        assert revived.name == "jd"
        assert all(isinstance(v, int) for v in revived.nodes())
        assert revived == csr.to_graph()

    def test_subgraph_keeps_int_ids(self):
        g = CSRGraph.from_oracle(ImplicitJDOracle(10, 3)).to_graph()
        sub = g.subgraph(range(5))
        assert all(isinstance(v, int) for v in sub.nodes())

    def test_duplicate_nodes_rejected(self):
        class Dup:
            def num_nodes(self):
                return 2

            def degree(self, v):
                return 0

            def neighbors(self, v):
                return []

            def iter_nodes(self):
                return iter((0, 0))

        with pytest.raises(GraphError):
            CSRGraph.from_oracle(Dup())

    @pytest.mark.parametrize(
        "oracle",
        [
            _RowOracle([0, 1, 2], {0: [1], 1: [0, 5], 2: []}),  # neighbour ≥ n
            _RowOracle([0, 1, 2], {0: [1, -1], 1: [0], 2: []}),  # negative
            _RowOracle(["a", "b"], {"a": ["b"], "b": ["a", "c"]}),  # unknown label
            _RowOracle([0, 1], {0: [1], 1: [0]}, degrees={0: 2, 1: 1}),
            _RowOracle(["a", "b"], {"a": ["b"], "b": ["a"]}, degrees={"a": 1, "b": 0}),
        ],
        ids=[
            "dense-neighbour-past-n",
            "dense-negative-neighbour",
            "labelled-unknown-neighbour",
            "dense-degree-disagrees",
            "labelled-degree-disagrees",
        ],
    )
    def test_broken_oracle_rejected_at_compile(self, oracle):
        with pytest.raises(GraphError):
            CSRGraph.from_oracle(oracle)

    @pytest.mark.parametrize("bad", [True, False, -1, 10, 1.0, "a", (0,)])
    def test_row_reads_reject_non_nodes(self, bad):
        csr = CSRGraph.from_oracle(ImplicitJDOracle(10, 3))
        with pytest.raises(NodeNotFoundError):
            csr.neighbors(bad)
        with pytest.raises(NodeNotFoundError):
            csr.degree(bad)

    def test_row_reads_on_labelled_graph_reject_ids(self):
        csr = CSRGraph.from_oracle(Graph(edges=[("a", "b")]))
        assert csr.neighbors("a") == ["b"] and csr.degree("b") == 1
        for bad in (0, 1, "c"):
            with pytest.raises(NodeNotFoundError):
                csr.neighbors(bad)
            with pytest.raises(NodeNotFoundError):
                csr.degree(bad)

    def test_has_edge_and_iter_edges(self):
        oracle = ImplicitJDOracle(10, 3)
        csr = CSRGraph.from_oracle(oracle)
        edges = set(csr.iter_edges())
        assert len(edges) == csr.number_of_edges()
        for u, v in sorted(edges):
            assert u < v
            assert csr.has_edge(u, v) and csr.has_edge(v, u)
        assert not csr.has_edge(0, 0)

    def test_has_edge_bisect_row_boundaries(self):
        # a star: the hub's row spans the whole index array, every leaf
        # row holds a single entry — first/last-neighbour bisect probes
        star = Graph(edges=[(0, i) for i in range(1, 6)])
        csr = CSRGraph.from_oracle(star)
        row = list(csr.neighbors(0))
        assert csr.has_edge(0, row[0])  # first slot of the row
        assert csr.has_edge(0, row[-1])  # last slot of the row
        assert csr.has_edge(row[0], 0) and csr.has_edge(row[-1], 0)
        # absent id falling between present neighbours, and past the end
        assert not csr.has_edge(1, 2)
        assert not csr.has_edge(0, 6)

    def test_has_edge_empty_row(self):
        # an isolated node has an empty CSR row: start == end, so the
        # bisect window is empty and must not read a neighbouring row
        g = Graph(edges=[(0, 1)], nodes=[2])
        csr = CSRGraph.from_oracle(g)
        assert csr.degree(2) == 0
        assert not csr.has_edge(2, 0)
        assert not csr.has_edge(0, 2)
        assert not csr.has_edge(2, 2)

    def test_has_edge_absent_ids_are_false_not_errors(self):
        csr = CSRGraph.from_oracle(ImplicitJDOracle(10, 3))
        assert not csr.has_edge(0, 999)
        assert not csr.has_edge(999, 0)
        assert not csr.has_edge(-1, 0)
        assert not csr.has_edge(0, "label")
        assert not csr.has_edge(True, 0)  # bools are not dense ids

    def test_has_edge_labelled_backend(self):
        g = Graph(edges=[("a", "b"), ("b", "c")])
        csr = CSRGraph.from_oracle(g)
        assert csr.has_edge("a", "b") and csr.has_edge("b", "a")
        assert not csr.has_edge("a", "c")
        assert not csr.has_edge("a", "missing")


class TestRoundFlood:
    @pytest.mark.parametrize("n,k", SPOT)
    def test_parity_with_event_driven_flood(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        graph = materialize(oracle)
        event = run_experiment(ExperimentSpec("flood", graph, 0)).result
        for backend in (oracle, CSRGraph.from_oracle(oracle), graph):
            rounds = round_flood(backend, 0)
            assert rounds.covered == event.covered == n
            assert rounds.messages == event.messages
            assert rounds.completion_time == event.completion_time
            assert rounds.rounds == eccentricity(oracle, 0)

    def test_unknown_source_rejected(self):
        with pytest.raises(NodeNotFoundError):
            round_flood(ImplicitJDOracle(10, 3), 99)
