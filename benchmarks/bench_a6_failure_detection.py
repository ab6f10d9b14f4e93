"""Experiment A6 — failure detection: completing the self-healing loop.

The repair experiments (F8) assume crashes are known; this one measures
the heartbeat detector that discovers them over the LHG's own links:

* detection latency as a function of the suspicion timeout,
* the accuracy/completeness trade-off: a tight timeout under heavy-tail
  latency produces false suspicions, a generous one stays clean,
* robustness of detection to heartbeat loss (each crashed node has ≥ k
  independent observers).
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.core.existence import build_lhg
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.network import ExponentialLatency

N, K = 30, 3
CRASH_TIME = 10.0
TIMEOUTS = (1.5, 2.5, 3.5, 6.0)


def test_a6_failure_detection(benchmark, report):
    graph, _ = build_lhg(N, K)
    victim = graph.nodes()[4]

    rows = []
    for timeout in TIMEOUTS:
        clean = run_experiment(ExperimentSpec(
            "failure-detection", graph,
            params={
                "crashed": (victim,), "crash_time": CRASH_TIME, "period": 1.0,
                "timeout": timeout,
            },
        )).metric("report")
        noisy = run_experiment(ExperimentSpec(
            "failure-detection", graph, latency=ExponentialLatency(0.1, 1.2, seed=3),
            params={
                "crashed": (victim,), "crash_time": CRASH_TIME, "period": 1.0,
                "timeout": timeout, "horizon": 40.0,
            },
        )).metric("report")
        lossy = run_experiment(ExperimentSpec(
            "failure-detection", graph, loss_rate=0.15,
            params={
                "crashed": (victim,), "crash_time": CRASH_TIME, "period": 1.0,
                "timeout": timeout,
            },
        )).metric("report")
        rows.append(
            (
                timeout,
                clean.worst_detection_delay,
                clean.complete,
                noisy.false_suspicions,
                lossy.complete and lossy.accurate,
            )
        )
        # detection is always complete under constant latency
        assert clean.complete and clean.accurate
        # detection latency tracks the timeout
        assert timeout - 1.5 <= clean.worst_detection_delay <= timeout + 3.0

    # accuracy trade-off: the tightest timeout false-suspects under the
    # heavy-tail latency, the loosest does not
    assert rows[0][3] > 0
    assert rows[-1][3] == 0
    # 15% heartbeat loss is harmless once the timeout covers ~3 periods
    assert rows[-1][4]

    benchmark(
        lambda: run_experiment(ExperimentSpec(
            "failure-detection", graph,
            params={
                "crashed": (victim,), "crash_time": CRASH_TIME, "period": 1.0,
                "timeout": 3.5, "horizon": 20.0,
            },
        )).metric("report")
    )

    report(
        "a6_failure_detection",
        render_table(
            [
                "timeout",
                "worst detection delay",
                "complete (clean)",
                "false suspicions (heavy tail)",
                "ok under 15% loss",
            ],
            rows,
            title=f"A6: heartbeat detector quality — LHG(n={N}, k={K}), period 1.0",
        ),
    )
