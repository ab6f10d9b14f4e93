"""Experiment T6 — broadcast throughput under finite link bandwidth.

One-shot latency (F2) ignores contention.  Here links are
store-and-forward (one message per service time, FIFO queueing) and the
source floods a burst of M messages.  Shape result — honestly reported:

* the **latency term** of the makespan keeps the LHG's full O(log n)
  vs Θ(n/k) advantage;
* the **pipelining term** is ~1 service time per extra message on
  *both* topologies (each link serialises the stream), so sustained
  throughput converges to the link bandwidth — the LHG wins bursts and
  time-to-last-delivery, not asymptotic messages/second.
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.core.existence import build_lhg
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.network import BandwidthLatency
from repro.graphs.generators.harary import harary_graph

K = 4
SIZES = (64, 256)
BURSTS = (1, 8, 32)


def test_t6_throughput(benchmark, report):
    rows = []
    for n in SIZES:
        lhg, _ = build_lhg(n, K)
        harary = harary_graph(K, n)
        for burst in BURSTS:
            lhg_run, harary_run = (
                run_experiment(ExperimentSpec(
                    "broadcast-stream", graph, source,
                    latency=BandwidthLatency(1.0, 0.1), params={"count": burst},
                ))
                for graph, source in ((lhg, lhg.nodes()[0]), (harary, 0))
            )
            assert lhg_run.metric("fully_covered")
            assert harary_run.metric("fully_covered")
            lhg_makespan = lhg_run.metric("makespan")
            harary_makespan = harary_run.metric("makespan")
            rows.append(
                (
                    n,
                    burst,
                    round(lhg_makespan, 1),
                    round(harary_makespan, 1),
                    round(harary_makespan / lhg_makespan, 2),
                )
            )

    # shape: the advantage is the latency term; the per-message
    # pipelining increment is ~= 1 service on both topologies
    by_key = {(r[0], r[1]): r for r in rows}
    for n in SIZES:
        lhg_increment = (by_key[(n, 32)][2] - by_key[(n, 1)][2]) / 31
        harary_increment = (by_key[(n, 32)][3] - by_key[(n, 1)][3]) / 31
        assert 0.8 <= lhg_increment <= 1.3
        assert 0.8 <= harary_increment <= 1.3
        # and the one-shot advantage persists at every burst size
        for burst in BURSTS:
            assert by_key[(n, burst)][4] > 1.25

    lhg, _ = build_lhg(SIZES[0], K)
    spec = ExperimentSpec(
        "broadcast-stream", lhg, lhg.nodes()[0],
        latency=BandwidthLatency(1.0, 0.1), params={"count": 8},
    )
    benchmark(lambda: run_experiment(spec))

    report(
        "t6_throughput",
        render_table(
            ["n", "burst", "lhg makespan", "harary makespan", "ratio"],
            rows,
            title=f"T6: M-message broadcast makespan under unit link bandwidth (k={K})",
        ),
    )
