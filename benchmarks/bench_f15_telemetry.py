"""Experiment F15 — telemetry overhead: observability that costs nothing.

Runs the full chaos-campaign grid on LHG(n=64, k=4) three ways and
measures what the ``repro.obs`` layer costs:

* **Off** (no collector installed): the span/metric call sites reduce
  to a single ``is None`` check — the inert path is micro-benchmarked
  directly (ns per ``span()`` call).
* **On** (collector installed): every campaign/cell/build/run span,
  network counter and metrics snapshot is recorded in memory.
* **Passivity**: the traced matrix must be *byte-identical* to the
  plain one — telemetry may observe the science but never touch it.
  Asserted unconditionally.

The overhead is the median, over interleaved plain/traced pairs, of
each pair's traced/plain wall-time ratio minus one.  A pair runs its
two arms back to back (alternating which goes first), so both see the
same clock and cache state; the median then drops the odd pair a
scheduler hiccup spoiled.  ``results/BENCH_telemetry.json`` gates that
median as a single value, so the ledger's band stays at its ±0.05
floor; the per-pair samples, the median's standard error (1.2533 · σ /
√pairs with σ = 1.4826 · MAD, the outlier-proof scale estimate that
goes with a median) and the median traced − plain seconds per pair go
in the payload, which the gate does not read.  Target: <3% overhead;
the hard assert is a loud 10% regression tripwire so hardware noise
cannot flake the harness while a real regression still fails it.
"""

from __future__ import annotations

import math
import os
import pathlib
import statistics
import time

from repro import obs
from repro.exec import GRAPH_CACHE, TopologySpec
from repro.perf import emit_bench
from repro.robustness import ChaosCampaign

N, K = 64, 4
SEEDS = (0,)
PAIRS = 15  # interleaved plain/traced pairs; the overhead is their median
TARGET_OVERHEAD = 0.03  # the design budget (DESIGN.md §10)
TRIPWIRE_OVERHEAD = 0.10  # the asserted regression bound

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _campaign() -> ChaosCampaign:
    spec = TopologySpec(N, K)
    return ChaosCampaign([(spec.label, spec)], seeds=SEEDS)


def _inert_span_nanos(calls: int = 200_000) -> float:
    """Nanoseconds per ``obs.span()`` call with no collector installed."""
    assert obs.active() is None
    start = time.perf_counter()
    for _ in range(calls):
        with obs.span("probe"):
            pass
    return (time.perf_counter() - start) / calls * 1e9


def test_f15_telemetry_overhead(benchmark, report):
    GRAPH_CACHE.clear()
    obs.uninstall()

    # warm the graph cache so both arms time the simulation, not the build
    baseline = _campaign().run()
    assert baseline.all_green, baseline.violations
    rendered = baseline.render()
    cells = len(baseline.cells)

    plain_walls, traced_walls = [], []
    events, snapshot = [], {}

    def plain() -> None:
        campaign = _campaign()
        assert campaign.run().render() == rendered
        plain_walls.append(campaign.last_report.wall_seconds)

    def traced() -> None:
        nonlocal events, snapshot
        collector = obs.install()
        campaign = _campaign()
        matrix = campaign.run()
        obs.uninstall()
        # passivity: telemetry never changes the science
        assert matrix.render() == rendered
        traced_walls.append(campaign.last_report.wall_seconds)
        events = collector.events
        snapshot = collector.metrics.snapshot()

    # each pair runs both arms back to back, alternating which goes
    # first so neither arm always inherits the other's warm state
    for pair in range(PAIRS):
        for arm in (plain, traced) if pair % 2 == 0 else (traced, plain):
            arm()

    assert obs.validate_events(events) == []
    spans = list(obs.iter_spans(events))
    opened = {e["name"] for e in events if e["kind"] == "span-open"}
    assert {"campaign", "graph-build", "cell", "protocol-run"} <= opened
    assert snapshot["counters"]["net.send"] > 0

    pair_overheads = [t / p - 1.0 for p, t in zip(plain_walls, traced_walls)]
    overhead = statistics.median(pair_overheads)
    mad = statistics.median(abs(x - overhead) for x in pair_overheads)
    median_error = 1.2533 * 1.4826 * mad / math.sqrt(PAIRS)
    pair_extra_seconds = [t - p for p, t in zip(plain_walls, traced_walls)]
    assert overhead < TRIPWIRE_OVERHEAD, (
        f"telemetry overhead {overhead:.1%} blew the regression tripwire"
    )

    inert_nanos = _inert_span_nanos()

    payload = {
        "topology": {"n": N, "k": K},
        "grid": {"seeds": len(SEEDS), "cells": cells},
        "cpu_count": os.cpu_count(),
        "repeats": PAIRS,
        "target_overhead_fraction": TARGET_OVERHEAD,
        "within_target": overhead < TARGET_OVERHEAD,
        "inert_span_nanos": round(inert_nanos, 1),
        "events_recorded": len(events),
        "spans_recorded": len(spans),
        "net_send_counted": snapshot["counters"]["net.send"],
        "byte_identical": True,
        "pair_overhead_fractions": pair_overheads,
        "overhead_median_stderr": median_error,
        "median_traced_minus_plain_seconds": statistics.median(
            pair_extra_seconds
        ),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    emit_bench(
        RESULTS_DIR / "BENCH_telemetry.json",
        "f15_telemetry",
        {
            "plain_wall_seconds": plain_walls,
            "traced_wall_seconds": traced_walls,
            "overhead_fraction": [overhead],
        },
        payload=payload,
        units={"overhead_fraction": "fraction"},
    )

    report(
        "f15_telemetry",
        "\n".join(
            [
                f"F15: telemetry overhead — LHG(n={N}, k={K}), {cells} cells,"
                f" {len(events)} events / {len(spans)} spans recorded",
                f"  plain:  {statistics.median(plain_walls):.3f}s   traced: "
                f"{statistics.median(traced_walls):.3f}s (medians)   overhead"
                f" {overhead:+.2%}, median of {PAIRS} pairs"
                f" (target <{TARGET_OVERHEAD:.0%})",
                f"  inert span() call: {inert_nanos:.0f} ns "
                f"(no collector installed)",
                "  traced matrix byte-identical to plain: True",
            ]
        ),
    )

    # time one traced serial grid pass as the benchmark sample
    def traced_run():
        obs.install()
        try:
            return _campaign().run()
        finally:
            obs.uninstall()

    benchmark(traced_run)
