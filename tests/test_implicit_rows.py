"""Randomised differential test of the implicit JD neighbour rows.

``ImplicitJDOracle.neighbors`` computes each row by closed-form
arithmetic.  ``tests/test_oracle.py`` pins it to the materialised
construction over a small census (k ≤ 5, three growth rounds); this
suite draws feasible (n, k) far beyond it — k ≤ 8, n ≤ 5,000 — and
checks every row of the drawn graph against ``jenkins_demers_graph``
through the label bijection.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.jenkins_demers import jd_feasibility, jenkins_demers_graph
from repro.errors import NodeNotFoundError
from repro.graphs import ImplicitJDOracle


@st.composite
def _feasible_pair(draw):
    k = draw(st.integers(min_value=2, max_value=8), label="k")
    n = draw(st.integers(min_value=2 * k, max_value=5000), label="n")
    assume(jd_feasibility(n, k) is not None)
    return n, k


class TestImplicitRows:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(pair=_feasible_pair())
    def test_every_row_matches_the_materialised_construction(self, pair):
        n, k = pair
        graph, _ = jenkins_demers_graph(n, k)
        oracle = ImplicitJDOracle(n, k)
        label_of = oracle.label_of
        for v in range(n):
            row = oracle.neighbors(v)
            expected = sorted(graph.neighbors(label_of(v)))
            assert sorted(map(label_of, row)) == expected, (n, k, v)
            assert oracle.degree(v) == len(row), (n, k, v)

    @pytest.mark.parametrize("n,k", [(10, 3), (16, 4), (5000, 8)])
    @pytest.mark.parametrize("bad", [True, False, -1, "n", 1.0])
    def test_non_node_ids_rejected(self, n, k, bad):
        oracle = ImplicitJDOracle(n, k)
        node = n if bad == "n" else bad
        assert not oracle.has_node(node)
        with pytest.raises(NodeNotFoundError):
            oracle._check(node)
        with pytest.raises(NodeNotFoundError):
            oracle.neighbors(node)
        with pytest.raises(NodeNotFoundError):
            oracle.degree(node)
