"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.graphs.graph import Graph

#: Wall budget, in seconds, of one test's call phase.  Every test runs in
#: well under it; one that does not is waiting out a sleep or a timeout,
#: which should be shortened instead.
CALL_BUDGET_S = 20.0


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    """Fail a passing test whose call phase ran past ``CALL_BUDGET_S``."""
    report = yield
    if call.when == "call" and report.passed and call.duration > CALL_BUDGET_S:
        report.outcome = "failed"
        report.longrepr = (
            f"{item.nodeid} ran {call.duration:.1f} s, over the "
            f"{CALL_BUDGET_S:g} s call-phase budget"
        )
    return report


# (n, k) pairs small enough for exhaustive connectivity checks but
# covering every construction regime: base size, added leaves, unshared
# slots, multi-level trees, and both k parities.
SMALL_PAIRS = [
    (4, 2),
    (5, 2),
    (9, 2),
    (6, 3),
    (7, 3),
    (9, 3),
    (10, 3),
    (11, 3),
    (14, 3),
    (17, 3),
    (8, 4),
    (11, 4),
    (14, 4),
    (15, 4),
    (20, 4),
    (10, 5),
    (13, 5),
    (18, 5),
    (21, 5),
    (12, 6),
    (22, 6),
    (14, 7),
    (16, 8),
    (23, 8),
]

# JD-constructible subset (even offsets with eligible hosts).
JD_PAIRS = [
    (4, 2),
    (6, 2),
    (8, 2),
    (6, 3),
    (10, 3),
    (12, 3),
    (14, 3),
    (8, 4),
    (14, 4),
    (16, 4),
    (20, 4),
    (10, 5),
    (18, 5),
]


@pytest.fixture
def triangle() -> Graph:
    """K_3 — the smallest 2-connected graph."""
    return Graph(edges=[(0, 1), (1, 2), (0, 2)], name="triangle")


@pytest.fixture
def square_with_tail() -> Graph:
    """A 4-cycle with a pendant node: articulation structure for cut tests."""
    return Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)], name="tailed")


@pytest.fixture
def two_triangles_bridge() -> Graph:
    """Two triangles joined by one bridge edge — λ = 1, κ = 1."""
    return Graph(
        edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)],
        name="bridge",
    )
