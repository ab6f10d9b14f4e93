"""Public-API contract: exports resolve and the README quickstart works."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.graphs",
    "repro.graphs.generators",
    "repro.core",
    "repro.exec",
    "repro.flooding",
    "repro.flooding.protocols",
    "repro.overlay",
    "repro.analysis",
    "repro.robustness",
    "repro.obs",
]


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), package_name
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_is_sorted_unique(self, package_name):
        package = importlib.import_module(package_name)
        exported = list(package.__all__)
        assert exported == sorted(set(exported), key=str.lower) or exported == sorted(
            set(exported)
        ), f"{package_name}.__all__ is not sorted/unique"

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_execution_surface_is_public(self):
        # the engine + campaign facade promoted to the top level
        for name in (
            "ChaosCampaign",
            "ExperimentSpec",
            "ResilienceMatrix",
            "RunSummary",
            "TopologySpec",
            "WorkerPool",
            "build_lhg_cached",
            "run_experiment",
            "standard_protocols",
            "standard_scenarios",
        ):
            assert name in repro.__all__, name
            assert hasattr(repro, name), name

    def test_run_experiment_quickstart(self):
        # the parallel-usage snippet in the README quickstart
        from repro import ExperimentSpec, WorkerPool, build_lhg, run_experiment

        graph, _ = build_lhg(n=24, k=3)
        specs = [
            ExperimentSpec(
                protocol="flood", graph=graph, source=graph.nodes()[0], seed=s
            )
            for s in range(4)
        ]
        results = WorkerPool(workers=2).map(run_experiment, specs)
        assert results == [run_experiment(spec) for spec in specs]
        assert all(summary.result.fully_covered for summary in results)


class TestReadmeQuickstart:
    def test_quickstart_snippet_verbatim(self):
        from repro import ExperimentSpec, build_lhg, check_lhg, run_experiment

        graph, certificate = build_lhg(n=100, k=4)
        report = check_lhg(graph, k=4)
        assert report.is_lhg

        from repro.flooding import random_crashes

        source = graph.nodes()[0]
        crashes = random_crashes(graph, 3, seed=1, protect={source})
        spec = ExperimentSpec("flood", graph, source, failures=crashes)
        result = run_experiment(spec).result
        assert result.fully_covered
        assert result.completion_time is not None
        assert result.messages > 0

    def test_tutorial_headline_numbers(self):
        # the numbers quoted in docs/tutorial.md §1
        from repro import build_lhg, harary_graph
        from repro.graphs.traversal import diameter

        lhg, _ = build_lhg(n=100, k=4)
        assert lhg.number_of_edges() == 204  # Harary minimum 200 + 4 added-leaf edges
        assert diameter(lhg) == 6
        assert diameter(harary_graph(4, 100)) == 25
