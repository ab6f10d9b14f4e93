"""Experiment F11 — membership convergence: crash → everyone knows.

The in-band view-change pipeline (heartbeat detection → flooded
suspicion reports → coordinator decision → flooded NEW-VIEW) measures
the end-to-end membership convergence latency a view-oriented system
would see.  Its budget decomposes as

    timeout (+ check granularity)     detection at the victims' neighbours
  + O(log n)                          SUSPECT flood to the coordinator
  + decision_delay                    burst batching
  + O(log n)                          NEW-VIEW flood to every survivor

so on an LHG the topology contributes only ~2 log n — the sweep shows
convergence latency nearly flat in n, while the same pipeline on the
linear-diameter Harary circulant pays Θ(n/k) **three times**: suspicion
reports crawl to the coordinator (and may have to detour the long way
around the ring when the crashed block severs the short route — found
the hard way in this experiment's development), the quiet period must
be provisioned to that propagation bound or the view misses late
suspicions, and the NEW-VIEW flood crawls back out.  The quiet period
is therefore set per-topology to diameter + 2 — itself part of the
measured cost.
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.core.existence import build_lhg
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.graphs.generators.harary import harary_graph

K = 4
SIZES = (32, 64, 128, 256)
CRASH_TIME = 10.0


def _converge(graph, crash_count):
    from repro.graphs.traversal import diameter

    coordinator = graph.nodes()[0]
    victims = [
        v for v in graph.nodes()[3 : 3 + crash_count]
    ]
    # the quiet period must cover the report-propagation bound of the
    # DAMAGED topology (reports detour around the crashed block) — a
    # real provisioning cost the linear-diameter baseline pays in full
    damaged_diameter = diameter(graph.without_nodes(victims))
    quiet = damaged_diameter + 2.0
    horizon = CRASH_TIME + 3.5 + quiet + 3 * damaged_diameter + 20
    report = run_experiment(ExperimentSpec(
        "view-change", graph, coordinator,
        params={
            "crashed": tuple(victims), "crash_time": CRASH_TIME,
            "decision_delay": quiet, "horizon": horizon,
        },
    )).metric("report")
    assert report.converged, (graph.name, crash_count)
    return report.last_adoption - CRASH_TIME


def test_f11_view_change(benchmark, report):
    rows = []
    for n in SIZES:
        lhg, _ = build_lhg(n, K)
        harary = harary_graph(K, n)
        lhg_latency = _converge(lhg, K - 1)
        harary_latency = _converge(harary, K - 1)
        rows.append(
            (n, lhg_latency, harary_latency, round(harary_latency / lhg_latency, 2))
        )

    lhg_series = [r[1] for r in rows]
    harary_series = [r[2] for r in rows]
    # LHG convergence is ~flat in n (detection dominates); Harary grows
    assert lhg_series[-1] <= lhg_series[0] + 12
    assert harary_series[-1] > harary_series[0] * 2
    assert rows[-1][3] > 3

    lhg, _ = build_lhg(SIZES[0], K)
    coordinator = lhg.nodes()[0]
    victims = lhg.nodes()[3:6]
    benchmark(
        lambda: run_experiment(ExperimentSpec(
            "view-change", lhg, coordinator,
            params={"crashed": tuple(victims), "crash_time": CRASH_TIME},
        )).metric("report")
    )

    report(
        "f11_view_change",
        render_table(
            ["n", "lhg convergence", "harary convergence", "ratio"],
            rows,
            title=(
                f"F11: crash→all-adopted latency, burst of {K - 1} (k={K}, "
                f"timeout 3.5, quiet period = damaged diameter + 2)"
            ),
        ),
    )
