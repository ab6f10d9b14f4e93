"""Experiment F18 — sampling-profiler overhead and the flood-path profile.

Runs repeated floods on LHG(n=1024, k=4) two ways, in back-to-back
plain/profiled pairs (alternating which arm goes first) so both arms
of a pair see the same thermal/frequency envelope:

* **plain** — the event simulator unprofiled;
* **profiled** — the same floods under the 100 Hz signal-backed
  sampling profiler (:class:`repro.obs.prof.SamplingProfiler`), each
  flood wrapped in an obs span so samples carry span attribution.

Measured and asserted:

* **overhead** — the median over the pairs of each pair's profiled
  wall over plain wall, minus one, must stay under 5% (the design
  budget for an always-on profiler);
* **usefulness** — the profile must contain samples, non-empty
  collapsed stacks, and span attribution for the ``flood`` span.

The collapsed-stack profile of the flooding hot path is committed as
``results/PROFILE_flood.collapsed`` (loads in speedscope or
flamegraph.pl) and the top hot frames land in ``results/
f18_profiler.txt``.  The overhead fraction is written to
``results/BENCH_profiler.json`` as a single value — a unitless metric,
so the perf ledger gates it on every host at its ±0.05 floor; the
per-pair samples go in the payload, which the gate does not read.
"""

from __future__ import annotations

import gc
import os
import pathlib
import statistics
import time

from repro import obs
from repro.core.existence import build_lhg
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.obs.prof import SamplingProfiler
from repro.perf import emit_bench

N, K = 1024, 4
HZ = 100.0
PAIRS = 15  # interleaved plain/profiled pairs; the overhead is their median
FLOODS_PER_ARM = 3
OVERHEAD_BUDGET = 0.05

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _flood_arm(graph, source) -> float:
    start = time.perf_counter()
    for _ in range(FLOODS_PER_ARM):
        with obs.span("flood", n=N, k=K):
            run_experiment(ExperimentSpec("flood", graph, source)).result
    return time.perf_counter() - start


def test_f18_profiler_overhead(benchmark, report):
    graph, _ = build_lhg(N, K)
    source = graph.nodes()[0]

    obs.install()
    try:
        # warm-up: JIT-free Python, but page caches and branch history
        _flood_arm(graph, source)

        plain_walls, profiled_walls = [], []
        profile = None

        def plain() -> None:
            plain_walls.append(_flood_arm(graph, source))

        def profiled() -> None:
            nonlocal profile
            profiler = SamplingProfiler(hz=HZ)
            with profiler:
                profiled_walls.append(_flood_arm(graph, source))
            # pool every arm's samples into one profile of the flood path
            if profile is None:
                profile = profiler.profile
                return
            for key, count in profiler.profile.samples.items():
                profile.samples[key] = profile.samples.get(key, 0) + count
            profile.duration += profiler.profile.duration

        for pair in range(PAIRS):
            for arm in (plain, profiled) if pair % 2 == 0 else (profiled, plain):
                # empty the GC generations first, so a collection the
                # previous arm's garbage set off is not timed in this one
                gc.collect()
                arm()
    finally:
        obs.uninstall()

    pair_overheads = [
        t / p - 1.0 for p, t in zip(plain_walls, profiled_walls)
    ]
    overhead = statistics.median(pair_overheads)
    assert overhead < OVERHEAD_BUDGET, (
        f"profiler overhead {overhead:.1%} blew the {OVERHEAD_BUDGET:.0%} "
        f"budget at {HZ:g} Hz"
    )

    # the profile is useful: samples landed, stacks collapsed, spans
    # attributed to the flood span
    assert profile.sample_count > 0
    collapsed = profile.collapsed()
    assert collapsed and all(" " in line for line in collapsed)
    assert any(line.startswith("span:flood;") for line in collapsed)
    top = profile.top_functions(3)
    assert top, "no hot frames resolved"

    RESULTS_DIR.mkdir(exist_ok=True)
    stacks = profile.write_collapsed(RESULTS_DIR / "PROFILE_flood.collapsed")
    assert stacks > 0

    emit_bench(
        RESULTS_DIR / "BENCH_profiler.json",
        "f18_profiler",
        {
            "plain_wall_seconds": plain_walls,
            "profiled_wall_seconds": profiled_walls,
            "overhead_fraction": [overhead],
        },
        payload={
            "topology": {"n": N, "k": K},
            "hz": HZ,
            "backend": profile.backend,
            "repeats": PAIRS,
            "pair_overhead_fractions": pair_overheads,
            "floods_per_arm": FLOODS_PER_ARM,
            "cpu_count": os.cpu_count(),
            "overhead_budget_fraction": OVERHEAD_BUDGET,
            "samples": profile.sample_count,
            "collapsed_stacks": stacks,
            "top_frames": [
                {"frame": frame, "self_samples": count}
                for frame, count in top
            ],
        },
        units={"overhead_fraction": "fraction"},
    )

    lines = [
        f"F18: sampling profiler — LHG(n={N}, k={K}), {HZ:g} Hz "
        f"({profile.backend} backend), {FLOODS_PER_ARM} floods/arm",
        f"  plain:    {statistics.median(plain_walls):.3f}s   profiled: "
        f"{statistics.median(profiled_walls):.3f}s (medians)   overhead "
        f"{overhead:+.2%}, median of {PAIRS} pairs "
        f"(budget <{OVERHEAD_BUDGET:.0%})",
        f"  profile:  {profile.sample_count} samples over {PAIRS} profiled "
        f"arms, {stacks} collapsed stacks -> results/PROFILE_flood.collapsed",
        "  top-3 hot frames (self samples):",
    ]
    for frame, count in top:
        lines.append(
            f"    {count:6d} ({count / profile.sample_count:5.1%})  {frame}"
        )
    report("f18_profiler", "\n".join(lines))

    # time one profiled flood pass as the pytest-benchmark sample
    def profiled_flood():
        with SamplingProfiler(hz=HZ):
            return run_experiment(ExperimentSpec("flood", graph, source)).result

    benchmark(profiled_flood)
