"""The fault layer: FaultView, failure-aware rounds, attacks, recertification.

Three equivalences are pinned here:

* a :class:`FaultView` over any backend answers every structural
  question exactly like the *materialised* survivor graph (census
  parity: neighbourhoods, degrees, BFS layerings, diameters, floods);
* :func:`round_flood` under a failure schedule matches the
  event-driven simulator's ``FloodResult`` field for field on the same
  schedule;
* every targeted k−1 attack derived from the JD arithmetic leaves a
  survivor component the recertification battery certifies clean.

Plus the laziness regression: ``survivors()`` on an oracle input must
never materialise a dict Graph.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.jenkins_demers import jd_feasibility
from repro.errors import GraphError, NodeNotFoundError, SimulationError
from repro.flooding.experiments import run_flood
from repro.flooding.failures import FailureSchedule, survivors
from repro.flooding.rounds import round_flood
from repro.graphs import (
    CSRGraph,
    FaultView,
    Graph,
    ImplicitJDOracle,
    component_size,
    id_bound,
    materialize,
)
from repro.graphs.traversal import bfs_levels, diameter, is_connected
from repro.robustness.attacks import AttackPlan, targeted_cut_attacks
from repro.robustness.invariants import recertify_survivors

CENSUS = [
    (n, k)
    for k in range(2, 6)
    for n in range(2 * k, 2 * k + 20)
    if jd_feasibility(n, k) is not None
]

SPOT = [(4, 2), (10, 3), (22, 3), (16, 4), (26, 5)]

#: Feasible (n, k) for the randomised differential suite.
DIFFERENTIAL_PAIRS = [
    (n, k)
    for k in range(2, 6)
    for n in range(2 * k, 81)
    if jd_feasibility(n, k) is not None
]


def _pinned_schedules(n, k):
    """Deterministic failure schedules exercising every engine branch."""
    mid, last = n // 2, n - 1
    return [
        FailureSchedule().crash(last, time=0.0),
        FailureSchedule().crash(mid, time=2.0),
        FailureSchedule().fail_link(0, 1, time=0.0),
        FailureSchedule().fail_link(mid, (mid + 1) % n, time=1.0),
        FailureSchedule().crash(mid, time=1.0).recover(mid, time=3.0),
        FailureSchedule()
        .crash(last, time=0.0)
        .fail_link(0, 2, time=2.0)
        .restore_link(0, 2, time=4.0),
        FailureSchedule().crash(mid, time=1.5).fail_link(1, 2, time=2.5),
    ]


class TestFaultViewBasics:
    def setup_method(self):
        self.oracle = ImplicitJDOracle(22, 3)

    def test_down_node_is_not_a_node(self):
        view = FaultView(self.oracle, down_nodes=[5])
        assert not view.has_node(5)
        assert 5 not in view
        assert view.num_nodes() == 21
        assert len(view) == 21
        assert 5 not in view.nodes()
        with pytest.raises(NodeNotFoundError):
            view.neighbors(5)
        with pytest.raises(NodeNotFoundError):
            view.degree(5)

    def test_down_node_vanishes_from_neighbourhoods(self):
        victim = self.oracle.neighbors(0)[0]
        view = FaultView(self.oracle, down_nodes=[victim])
        assert victim not in view.neighbors(0)
        assert view.degree(0) == self.oracle.degree(0) - 1

    def test_killed_link_gone_from_both_ends(self):
        u = 0
        v = self.oracle.neighbors(0)[0]
        view = FaultView(self.oracle, killed_links=[(u, v)])
        assert v not in view.neighbors(u)
        assert u not in view.neighbors(v)
        assert not view.has_edge(u, v)
        assert view.num_nodes() == 22
        assert view.number_of_edges() == self.oracle.number_of_edges() - 1

    def test_unknown_failures_are_noops(self):
        view = FaultView(
            self.oracle, down_nodes=[999], killed_links=[(0, 999), (1, 1)]
        )
        assert view.damage == 0
        assert view.num_nodes() == 22
        assert view.number_of_edges() == self.oracle.number_of_edges()

    def test_kill_incident_to_down_node_not_double_counted(self):
        v = self.oracle.neighbors(0)[0]
        view = FaultView(self.oracle, down_nodes=[v], killed_links=[(0, v)])
        # the link died with its endpoint; edge accounting stays exact
        assert view.killed_links == frozenset()
        assert view.number_of_edges() == materialize(view).number_of_edges()

    def test_edge_count_exact_under_mixed_damage(self):
        down = [3, 7]
        alive_u = 0
        alive_v = next(
            w for w in self.oracle.neighbors(0) if w not in down
        )
        view = FaultView(
            self.oracle, down_nodes=down, killed_links=[(alive_u, alive_v)]
        )
        assert view.number_of_edges() == materialize(view).number_of_edges()

    def test_id_bound_propagates_through_nesting(self):
        view = FaultView(self.oracle, down_nodes=[4])
        assert id_bound(view) == 22
        nested = FaultView(view, down_nodes=[6])
        assert id_bound(nested) == 22
        assert nested.num_nodes() == 20
        assert not nested.has_node(4) and not nested.has_node(6)

    def test_dict_graph_base_has_no_id_bound(self):
        graph = Graph(edges=[("a", "b"), ("b", "c")])
        view = FaultView(graph, down_nodes=["c"])
        assert id_bound(view) is None
        assert view.nodes() == ["a", "b"]

    def test_damage_frontier(self):
        victim = 5
        around = set(self.oracle.neighbors(victim))
        u, v = 0, self.oracle.neighbors(0)[0]
        view = FaultView(
            self.oracle, down_nodes=[victim], killed_links=[(u, v)]
        )
        frontier = set(view.damage_frontier())
        assert around - {victim} <= frontier | {victim}
        assert u in frontier and v in frontier
        assert victim not in frontier

    def test_no_structural_proofs_forwarding(self):
        view = FaultView(self.oracle, down_nodes=[1])
        assert not hasattr(view, "structural_proofs")


class TestComponentSize:
    def test_counts_the_component(self):
        graph = Graph(edges=[(0, 1), (1, 2), (3, 4)])
        assert component_size(graph, 0) == 3
        assert component_size(graph, 3) == 2

    def test_unknown_source_raises(self):
        with pytest.raises(NodeNotFoundError):
            component_size(Graph(nodes=[0]), 9)

    @pytest.mark.parametrize("n,k", SPOT)
    def test_matches_bfs_on_views(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        view = FaultView(oracle, down_nodes=[n - 1])
        source = next(iter(view.iter_nodes()))
        assert component_size(view, source) == len(bfs_levels(view, source))


class TestSurvivorsLaziness:
    """Satellite: survivors() must stay O(#failures) for oracle inputs."""

    def test_oracle_input_returns_fault_view(self):
        oracle = ImplicitJDOracle(22, 3)
        schedule = FailureSchedule().crash(3).fail_link(0, 1)
        view = survivors(oracle, schedule)
        assert isinstance(view, FaultView)
        assert view.base is oracle
        assert not view.has_node(3)
        assert not view.has_edge(0, 1)

    def test_csr_input_returns_fault_view(self):
        csr = CSRGraph.from_oracle(ImplicitJDOracle(22, 3))
        assert isinstance(survivors(csr, FailureSchedule().crash(0)), FaultView)

    def test_graph_input_still_returns_graph(self):
        graph = materialize(ImplicitJDOracle(10, 3))
        result = survivors(graph, FailureSchedule().crash(3))
        assert isinstance(result, Graph)
        assert not result.has_node(3)

    def test_no_graph_materialised_for_oracle_input(self, monkeypatch):
        # regression: the old path built a dict Graph of all n nodes;
        # poison every Graph-construction entry point and prove the
        # oracle path never touches one
        oracle = ImplicitJDOracle(100, 3)
        schedule = FailureSchedule().crash(7).fail_link(0, 3)

        def boom(*args, **kwargs):
            raise AssertionError(
                "survivors() materialised a Graph for an oracle input"
            )

        monkeypatch.setattr(Graph, "__init__", boom)
        monkeypatch.setattr(
            "repro.graphs.oracle.materialize", boom, raising=True
        )
        view = survivors(oracle, schedule)
        assert isinstance(view, FaultView)
        assert view.num_nodes() == 99


class TestCensusParityWithMaterialisedSurvivors:
    """FaultView must be indistinguishable from the materialised cut."""

    @pytest.mark.parametrize("n,k", CENSUS)
    def test_structure_matches(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        schedule = (
            FailureSchedule()
            .crash(n - 1)
            .fail_link(0, oracle.neighbors(0)[0])
        )
        view = survivors(oracle, schedule)
        expected = survivors(materialize(oracle), schedule)
        assert isinstance(view, FaultView)
        assert isinstance(expected, Graph)
        assert sorted(view.nodes()) == sorted(expected.nodes())
        assert view.number_of_edges() == expected.number_of_edges()
        for node in expected.nodes():
            assert sorted(view.neighbors(node)) == sorted(
                expected.neighbors(node)
            )
            assert view.degree(node) == expected.degree(node)

    @pytest.mark.parametrize("n,k", SPOT)
    def test_algorithms_match(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        schedule = FailureSchedule().crash(n // 2)
        view = survivors(oracle, schedule)
        expected = survivors(materialize(oracle), schedule)
        source = next(iter(view.iter_nodes()))
        assert bfs_levels(view, source) == bfs_levels(expected, source)
        if is_connected(expected):
            assert diameter(view) == diameter(expected)
        flood_view = round_flood(view, source)
        flood_graph = round_flood(expected, source)
        assert flood_view.covered == flood_graph.covered
        assert flood_view.messages == flood_graph.messages
        assert flood_view.rounds == flood_graph.rounds


class TestRoundFloodUnderFailures:
    """The rounds engine vs the event simulator: same schedule, same result."""

    @pytest.mark.parametrize("n,k", CENSUS)
    def test_parity_with_event_simulator(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        graph = materialize(oracle)
        for schedule in _pinned_schedules(n, k):
            rounds = round_flood(oracle, 0, schedule=schedule)
            event = run_flood(graph, 0, failures=schedule)
            label = (n, k, schedule)
            assert rounds.covered == event.covered, label
            assert rounds.messages == event.messages, label
            assert rounds.completion_time == event.completion_time, label
            assert rounds.alive == event.alive, label
            assert rounds.reachable == event.reachable, label
            assert rounds.delivery_ratio == event.delivery_ratio, label

    @pytest.mark.parametrize("backend", ["implicit", "csr", "dict"])
    def test_parity_across_backends(self, backend):
        n, k = 22, 3
        oracle = ImplicitJDOracle(n, k)
        if backend == "csr":
            oracle = CSRGraph.from_oracle(oracle)
        elif backend == "dict":
            oracle = materialize(oracle)
        graph = materialize(ImplicitJDOracle(n, k))
        schedule = FailureSchedule().crash(5, time=1.0).fail_link(0, 1)
        rounds = round_flood(oracle, 0, schedule=schedule)
        event = run_flood(graph, 0, failures=schedule)
        assert (rounds.covered, rounds.messages, rounds.completion_time) == (
            event.covered,
            event.messages,
            event.completion_time,
        )

    def test_source_crashed_at_start_raises(self):
        oracle = ImplicitJDOracle(10, 3)
        with pytest.raises(SimulationError, match="crashed at start"):
            round_flood(oracle, 0, schedule=FailureSchedule().crash(0))

    def test_invalid_loss_rate_raises(self):
        oracle = ImplicitJDOracle(10, 3)
        with pytest.raises(SimulationError, match="loss_rate"):
            round_flood(oracle, 0, loss_rate=1.5)

    def test_loss_is_seed_stable(self):
        oracle = ImplicitJDOracle(50, 3)
        first = round_flood(oracle, 0, loss_rate=0.3, loss_seed=7)
        again = round_flood(oracle, 0, loss_rate=0.3, loss_seed=7)
        other = round_flood(oracle, 0, loss_rate=0.3, loss_seed=8)
        assert (first.covered, first.messages) == (again.covered, again.messages)
        assert first.covered <= first.reachable == 50
        # a different seed draws a different loss pattern (overwhelmingly)
        assert (first.covered, first.messages, first.round_sizes) != (
            other.covered,
            other.messages,
            other.round_sizes,
        ) or first.covered == 50

    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def test_random_schedules_match_event_simulator(self, data):
        n, k = data.draw(st.sampled_from(DIFFERENTIAL_PAIRS), label="n,k")
        schedule, source = data.draw(_random_schedule(n, k), label="schedule,source")
        _assert_backends_match_event_simulator(n, k, schedule, source)

    def test_no_failure_schedule_same_as_no_schedule(self):
        oracle = ImplicitJDOracle(22, 3)
        plain = round_flood(oracle, 0)
        empty = round_flood(oracle, 0, schedule=FailureSchedule())
        assert plain.covered == empty.covered == 22
        assert plain.messages == empty.messages


#: Event times: whole and half rounds, so events land both on delivery
#: instants and between them.
_TIMES = st.integers(min_value=0, max_value=16).map(lambda half: half / 2)


@st.composite
def _random_schedule(draw, n, k):
    """A random crash/recover/link-fail/restore schedule and a source."""
    oracle = ImplicitJDOracle(n, k)
    edges = sorted(
        (u, v) for u in range(n) for v in oracle.neighbors(u) if u < v
    )
    node = st.integers(min_value=0, max_value=n - 1)
    source = draw(node, label="source")
    schedule = FailureSchedule()
    for kind, v, time in draw(
        st.lists(st.tuples(st.booleans(), node, _TIMES), max_size=6),
        label="node events",
    ):
        if kind:
            if v != source or time > 0:  # a source dead at start is rejected
                schedule.crash(v, time=time)
        else:
            schedule.recover(v, time=time)
    for kind, (u, v), time in draw(
        st.lists(st.tuples(st.booleans(), st.sampled_from(edges), _TIMES), max_size=6),
        label="link events",
    ):
        if kind:
            schedule.fail_link(u, v, time=time)
        else:
            schedule.restore_link(u, v, time=time)
    return schedule, source


def _backends(n, k):
    """LHG(n, k) behind every oracle backend round_flood runs on."""
    oracle = ImplicitJDOracle(n, k)
    csr = CSRGraph.from_oracle(oracle)
    return {
        "implicit": oracle,
        "csr": csr,
        "dict": materialize(oracle),
        "faultview": FaultView(csr),
    }


def _assert_backends_match_event_simulator(n, k, schedule, source):
    """round_flood on every backend equals run_flood field for field."""
    backends = _backends(n, k)
    event = run_flood(backends["dict"], source, failures=schedule)
    expected = (
        event.covered,
        event.messages,
        event.completion_time,
        event.alive,
        event.reachable,
        event.delivery_ratio,
    )
    for name, backend in backends.items():
        rounds = round_flood(backend, source, schedule=schedule)
        got = (
            rounds.covered,
            rounds.messages,
            rounds.completion_time,
            rounds.alive,
            rounds.reachable,
            rounds.delivery_ratio,
        )
        assert got == expected, (name, n, k, source, schedule)


def _golden_schedule(n):
    """Crashes, a recovery, a late doomed crash and two link flaps."""
    mid = n // 2
    return (
        FailureSchedule()
        .crash(mid, time=1.0)
        .recover(mid, time=3.0)
        .crash(n - 1, time=2.5)
        .fail_link(0, 1, time=0.0)
        .restore_link(0, 1, time=2.0)
        .fail_link(mid, 24, time=1.5)
        .crash(5, time=0.0)
    )


# (covered, messages, rounds, round_sizes, alive, reachable) on LHG(40, 3)
# from source 0, recorded before the round-flood kernels were merged.
# The dict backend lists neighbours in another order, so its per-round
# loss draws land on other messages.
_LOSS_GOLDEN = {
    "implicit": {
        1: (40, 87, 10, [1, 2, 3, 4, 4, 4, 6, 6, 6, 3, 1], 40, 40),
        2: (31, 69, 10, [1, 2, 4, 3, 4, 3, 2, 3, 4, 3, 2], 40, 40),
        3: (25, 51, 16, [1, 1, 2, 4, 4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], 40, 40),
    },
    "dict": {
        1: (40, 87, 10, [1, 2, 3, 4, 4, 4, 6, 6, 6, 3, 1], 40, 40),
        2: (31, 69, 11, [1, 2, 4, 3, 4, 3, 2, 3, 4, 2, 2, 1], 40, 40),
        3: (21, 43, 12, [1, 1, 2, 4, 4, 2, 1, 1, 1, 1, 1, 1, 1], 40, 40),
    },
}
_LOSS_GOLDEN["csr"] = _LOSS_GOLDEN["faultview"] = _LOSS_GOLDEN["implicit"]
_MIXED_GOLDEN = (38, 82, 9, [1, 2, 5, 8, 8, 4, 4, 4, 1, 1], 38, 38)
_MIXED_LOSS_GOLDEN = {
    "implicit": (20, 46, 10, [1, 2, 1, 2, 3, 3, 3, 1, 1, 2, 1], 38, 38),
    "dict": (26, 57, 14, [1, 2, 1, 2, 2, 2, 4, 2, 1, 2, 2, 1, 1, 2, 1], 38, 38),
}
_MIXED_LOSS_GOLDEN["csr"] = _MIXED_LOSS_GOLDEN["faultview"] = _MIXED_LOSS_GOLDEN["implicit"]


def _fields(result):
    return (
        result.covered,
        result.messages,
        result.rounds,
        result.round_sizes,
        result.alive,
        result.reachable,
    )


class TestRoundFloodGolden:
    """Recorded outputs: loss draw order and schedule replay stay fixed."""

    @pytest.mark.parametrize("backend", ["implicit", "csr", "dict", "faultview"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_loss_run_matches_record(self, backend, seed):
        oracle = _backends(40, 3)[backend]
        result = round_flood(oracle, 0, loss_rate=0.3, loss_seed=seed)
        assert _fields(result) == _LOSS_GOLDEN[backend][seed]

    @pytest.mark.parametrize("backend", ["implicit", "csr", "dict", "faultview"])
    def test_mixed_schedule_matches_record(self, backend):
        oracle = _backends(40, 3)[backend]
        result = round_flood(oracle, 0, schedule=_golden_schedule(40))
        assert _fields(result) == _MIXED_GOLDEN

    @pytest.mark.parametrize("backend", ["implicit", "csr", "dict", "faultview"])
    def test_mixed_schedule_under_loss_matches_record(self, backend):
        oracle = _backends(40, 3)[backend]
        result = round_flood(
            oracle, 0, schedule=_golden_schedule(40), loss_rate=0.2, loss_seed=5
        )
        assert _fields(result) == _MIXED_LOSS_GOLDEN[backend]


class TestTargetedAttacks:
    @pytest.mark.parametrize("n,k", SPOT)
    def test_plans_stay_within_budget(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        plans = targeted_cut_attacks(oracle)
        assert plans
        for plan in plans:
            assert 1 <= plan.damage <= k - 1

    def test_rejects_non_implicit_backends(self):
        with pytest.raises(GraphError, match="implicit"):
            targeted_cut_attacks(Graph(edges=[(0, 1)]))

    def test_validation_rejects_bad_plans(self):
        oracle = ImplicitJDOracle(10, 3)
        from repro.robustness.attacks import _validate

        with pytest.raises(GraphError, match="damage"):
            _validate(AttackPlan(name="x"), oracle, 2)
        with pytest.raises(GraphError, match="unknown node"):
            _validate(AttackPlan(name="x", crashes=(999,)), oracle, 2)
        with pytest.raises(GraphError, match="non-edge"):
            _validate(
                AttackPlan(name="x", link_kills=((0, 999),)), oracle, 2
            )

    @pytest.mark.parametrize("n,k", SPOT)
    def test_survivors_stay_connected_and_floodable(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        for plan in targeted_cut_attacks(oracle):
            schedule = plan.schedule()
            view = survivors(oracle, schedule)
            source = plan.surviving_source(oracle)
            assert component_size(view, source) == view.num_nodes(), plan.name
            flood = round_flood(oracle, source, schedule=schedule)
            assert flood.fully_covered, plan.name
            assert flood.covered == view.num_nodes(), plan.name


class TestRecertification:
    @pytest.mark.parametrize("n,k", SPOT)
    def test_attacked_survivors_certify_clean(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        for plan in targeted_cut_attacks(oracle):
            view = survivors(oracle, plan.schedule())
            assert recertify_survivors(view, k) == [], plan.name

    def test_large_n_uses_local_witnesses(self):
        oracle = ImplicitJDOracle(3000, 3)
        plan = targeted_cut_attacks(oracle)[0]
        view = survivors(oracle, plan.schedule())
        # exact_limit below n forces the sampled local-cut battery
        assert recertify_survivors(view, 3, exact_limit=64) == []

    def test_detects_underbudget_disconnection(self):
        path = Graph(edges=[(0, 1), (1, 2)])
        view = FaultView(path, down_nodes=[1])
        violations = recertify_survivors(view, 2)
        assert any(v.invariant == "survivor-connectivity" for v in violations)

    def test_tolerates_at_budget_disconnection(self):
        cycle = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        view = FaultView(cycle, down_nodes=[1], killed_links=[(3, 0)])
        # damage == k: a partition is a legitimate outcome, not a bug
        assert recertify_survivors(view, 2) == []

    def test_undamaged_view_delegates_to_base(self):
        oracle = ImplicitJDOracle(22, 3)
        view = FaultView(oracle)
        from repro.robustness.invariants import check_topology_invariants

        assert recertify_survivors(view, 3) == []
        assert check_topology_invariants(view, 3) == []

    def test_degree_floor_violation_detected(self):
        # a star minus its hub's links: leaves keep degree 0 < k−1
        star = Graph(edges=[("hub", i) for i in range(4)])
        view = FaultView(star, killed_links=[("hub", 0)])
        violations = recertify_survivors(view, 2)
        assert any(v.invariant == "survivor-degree" for v in violations)
