"""Tests for coverage curves and ASCII rendering."""

import pytest

from repro.analysis.curves import (
    ascii_curve,
    ascii_curves,
    coverage_curve,
    time_to_fraction,
)
from repro.core.existence import build_lhg
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.metrics import FloodResult
from repro.graphs.generators.classic import path_graph


def make_result(times, n=None):
    n = n if n is not None else len(times)
    return FloodResult(
        protocol="flood",
        n=n,
        alive=n,
        reachable=n,
        covered=len(times),
        messages=0,
        completion_time=max(times.values()) if times else None,
        delivery_times=times,
    )


class TestCoverageCurve:
    def test_monotone_and_normalised(self):
        result = make_result({i: float(i) for i in range(10)})
        curve = coverage_curve(result, buckets=5)
        fractions = [f for _, f in curve]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        assert curve[0][0] == 0.0

    def test_partial_coverage_normalised_to_n(self):
        result = make_result({i: float(i) for i in range(5)}, n=10)
        curve = coverage_curve(result, buckets=4)
        assert curve[-1][1] == 0.5

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            coverage_curve(make_result({}, n=5))

    def test_bucket_domain(self):
        with pytest.raises(ValueError):
            coverage_curve(make_result({0: 1.0}), buckets=0)

    def test_matches_real_flood(self):
        g = path_graph(6)
        result = run_experiment(ExperimentSpec("flood", g, 0)).result
        curve = coverage_curve(result, buckets=5)
        # on a path, coverage grows linearly: at t=T the fraction is 1
        assert curve[-1][1] == 1.0


class TestTimeToFraction:
    def test_median_time(self):
        result = make_result({i: float(i) for i in range(1, 11)}, n=10)
        assert time_to_fraction(result, 0.5) == 5.0
        assert time_to_fraction(result, 1.0) == 10.0

    def test_unreached_fraction_rejected(self):
        result = make_result({0: 1.0}, n=10)
        with pytest.raises(ValueError):
            time_to_fraction(result, 0.5)

    def test_domain(self):
        result = make_result({0: 1.0})
        with pytest.raises(ValueError):
            time_to_fraction(result, 0.0)

    def test_lhg_beats_harary_to_half_coverage(self):
        from repro.graphs.generators.harary import harary_graph

        n, k = 126, 4
        lhg, _ = build_lhg(n, k)
        lhg_flood = run_experiment(ExperimentSpec("flood", lhg, lhg.nodes()[0]))
        harary_flood = run_experiment(ExperimentSpec("flood", harary_graph(k, n), 0))
        lhg_half = time_to_fraction(lhg_flood.result, 0.5)
        harary_half = time_to_fraction(harary_flood.result, 0.5)
        assert lhg_half < harary_half


class TestAsciiRendering:
    def test_single_curve_dimensions(self):
        samples = [(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)]
        text = ascii_curve(samples, width=30, height=8, label="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert len(lines) == 8 + 1  # label + height-2 middle + top + bottom
        assert "*" in text

    def test_multi_curve_legend(self):
        a = [(0.0, 0.0), (1.0, 1.0)]
        b = [(0.0, 0.0), (2.0, 0.5)]
        text = ascii_curves([("fast", a), ("slow", b)])
        assert "*=fast" in text and "+=slow" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_curve([])
        with pytest.raises(ValueError):
            ascii_curves([])
