"""The paper's claims as executable assertions.

Each test cites the claim it reproduces.  The target is Jenkins & Demers
(ICDCS 2001); the K-TREE/K-DIAMOND theorems come from the follow-on
analysis and exercise the extension modules.
"""

import math

import pytest

from repro.core.existence import build_lhg, regular_exists
from repro.core.jenkins_demers import (
    is_jd_constructible,
    jd_gap_sizes,
    jenkins_demers_graph,
)
from repro.core.kdiamond import (
    kdiamond_graph,
    kdiamond_only_regular_sizes,
    kdiamond_regular_exists,
)
from repro.core.ktree import ktree_exists, ktree_graph, ktree_regular_exists
from repro.core.properties import check_lhg
from repro.graphs.generators.classic import complete_bipartite_graph
from repro.graphs.generators.harary import harary_graph, harary_minimum_edges
from repro.graphs.properties import is_k_regular
from repro.graphs.traversal import diameter


class TestLHGDefinition:
    """Properties 1-4 hold for every construction (the core claim)."""

    @pytest.mark.parametrize("n,k", [(6, 3), (10, 3), (16, 3), (20, 4), (18, 5)])
    def test_jd_graphs_are_lhgs(self, n, k):
        graph, _ = jenkins_demers_graph(n, k)
        report = check_lhg(graph, k)
        assert report.is_lhg, report.summary()

    def test_base_case_is_complete_bipartite(self):
        """The smallest LHG for (2k, k) is K_{k,k}."""
        graph, _ = jenkins_demers_graph(8, 4)
        expected = complete_bipartite_graph(4, 4)
        assert graph.number_of_edges() == expected.number_of_edges()
        assert sorted(graph.degrees().values()) == sorted(
            expected.degrees().values()
        )
        assert diameter(graph) == 2


class TestHeadlineDiameterClaim:
    """LHG diameter is O(log n); Harary diameter is Theta(n/k)."""

    def test_lhg_diameter_logarithmic(self):
        k = 3
        points = []
        for n in (6, 22, 86, 342):
            graph, _ = build_lhg(n, k)
            points.append((n, diameter(graph)))
        for n, diam in points:
            assert diam <= 4 * math.log2(n) + 4

    def test_harary_diameter_linear(self):
        k = 4
        diams = {n: diameter(harary_graph(k, n)) for n in (32, 64, 128)}
        assert diams[64] >= 1.8 * diams[32]
        assert diams[128] >= 1.8 * diams[64]

    def test_crossover_lhg_wins_beyond_small_n(self):
        k = 4
        for n in (32, 64, 128, 256):
            lhg, _ = build_lhg(n, k)
            assert diameter(lhg) < diameter(harary_graph(k, n))


class TestEdgeMinimalityClaim:
    """Both families sit at (or within a hair of) Harary's kn/2 bound."""

    def test_regular_lhgs_match_harary_bound_exactly(self):
        for k in (3, 4):
            for alpha in range(4):
                n = 2 * k + 2 * alpha * (k - 1)
                graph, _ = jenkins_demers_graph(n, k)
                assert graph.number_of_edges() == harary_minimum_edges(k, n)

    def test_irregular_points_small_excess(self):
        # each of the <= 2k-3 added leaves costs ~k/2 edges over the bound
        for n, k in [(7, 3), (9, 3), (11, 4), (15, 4)]:
            graph, _ = ktree_graph(n, k)
            excess = graph.number_of_edges() - harary_minimum_edges(k, n)
            assert 0 <= excess <= (2 * k - 3) * k / 2 + 1


class TestFaultToleranceClaim:
    """Resilient to exactly k-1 failures: k-1 never disconnects, k can."""

    @pytest.mark.parametrize("n,k", [(10, 3), (14, 4)])
    def test_all_k_minus_1_subsets_leave_connected(self, n, k):
        from itertools import combinations

        from repro.graphs.traversal import is_connected

        graph, _ = build_lhg(n, k)
        for victims in combinations(graph.nodes(), k - 1):
            assert is_connected(graph.without_nodes(victims))

    @pytest.mark.parametrize("n,k", [(10, 3), (14, 4)])
    def test_some_k_subset_disconnects(self, n, k):
        from repro.graphs.connectivity import minimum_node_cut
        from repro.graphs.traversal import is_connected

        graph, _ = build_lhg(n, k)
        cut = minimum_node_cut(graph)
        assert len(cut) == k
        assert not is_connected(graph.without_nodes(cut))


class TestJDCoverageGaps:
    """The JD rule misses infinitely many pairs (follow-on observation)."""

    def test_gaps_exist_for_every_k(self):
        for k in (3, 4, 5, 6):
            assert jd_gap_sizes(k, 6 * k)

    def test_odd_offset_family_always_gapped(self):
        # n = 2k + 2a(k-1) + 3 is unconstructible for every a
        k = 3
        for alpha in range(6):
            n = 2 * k + 2 * alpha * (k - 1) + 3
            assert not is_jd_constructible(n, k)

    def test_ktree_closes_every_gap(self):
        # Theorem 2 (extension): EX_K-TREE(n,k) = true iff n >= 2k
        for k in (3, 4, 5):
            for n in range(2 * k, 2 * k + 40):
                assert ktree_exists(n, k)
                graph, _ = ktree_graph(n, k)
                assert graph.number_of_nodes() == n


class TestRegularityTheorems:
    """Theorems 3, 6 and 7 of the follow-on analysis (extension)."""

    def test_theorem3_ktree_regular_points(self):
        k = 3
        for n in range(2 * k, 40):
            expected = (n - 2 * k) % (2 * (k - 1)) == 0
            assert ktree_regular_exists(n, k) == expected

    def test_theorem6_kdiamond_regular_points(self):
        k = 4
        for n in range(2 * k, 50):
            expected = (n - 2 * k) % (k - 1) == 0
            assert kdiamond_regular_exists(n, k) == expected

    def test_theorem7_infinitely_many_kdiamond_only_points(self):
        # odd-alpha sizes: regular via K-DIAMOND, impossible via K-TREE
        for k in (3, 4, 5):
            only = kdiamond_only_regular_sizes(k, 10 * k)
            assert len(only) >= 3
            for n in only:
                graph, _ = kdiamond_graph(n, k)
                assert is_k_regular(graph, k)
                assert not regular_exists(n, k, "k-tree")

    def test_regular_graphs_have_exactly_kn_over_2_edges(self):
        for k in (3, 4):
            for n in kdiamond_only_regular_sizes(k, 8 * k)[:3]:
                graph, _ = kdiamond_graph(n, k)
                assert graph.number_of_edges() == k * n // 2


class TestFloodingClaims:
    """Flooding latency tracks the diameter; message cost tracks edges."""

    def test_flood_time_equals_source_eccentricity(self):
        from repro.flooding.experiments import ExperimentSpec, run_experiment
        from repro.graphs.traversal import eccentricity

        graph, _ = build_lhg(46, 3)
        for source in graph.nodes()[:5]:
            result = run_experiment(ExperimentSpec("flood", graph, source)).result
            assert result.completion_time == float(eccentricity(graph, source))

    def test_flood_messages_near_2m(self):
        from repro.flooding.experiments import ExperimentSpec, run_experiment

        graph, _ = build_lhg(30, 3)
        result = run_experiment(ExperimentSpec("flood", graph, graph.nodes()[0])).result
        m = graph.number_of_edges()
        # every node forwards to deg-1 neighbours (source: deg):
        # total = 2m - (n - 1)
        assert result.messages == 2 * m - (graph.number_of_nodes() - 1)
