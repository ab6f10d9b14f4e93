"""Run one workload in this (fresh) interpreter and print its record.

Started by ``run.py``, once per measured run and once per extra set-up
probe, so that peak RSS and set-up time belong to one workload alone.
The last line of stdout is a JSON record that ``run.py`` reads; lines
before it are for people.

Modes:

* ``--setup-only``: import the program, build the workload's inputs,
  report ``setup_s`` and exit.
* ``--trace 0``: run batches (full checked passes) back to back until
  ``--seconds`` have passed, always finishing the batch in hand.
* ``--trace 1``: run the batch once untraced and once under an installed
  ``repro.obs`` collector; repeat, alternating which goes first, while
  time remains.  Repeats refine ``trace.overhead_frac`` only: the
  per-layer metrics come from the first traced batch, which is written
  with the set-up spans as JSONL and a Chrome trace under
  ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
from array import array
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from repro import obs  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"
#: A tail percentile needs at least this many samples beyond it, and is
#: reported only when that puts it at p90 or above.
TAIL_BEYOND = 10


def run_batch(workload):
    """Run one batch; a raising batch fails all of its ops."""
    try:
        return workload.batch()
    except Exception as exc:  # noqa: BLE001 - count it, keep measuring
        return workloads.Batch([], 0.0, workload.batch_ops, [f"raised {exc!r}"])


def tail(walls):
    """(percentile, value, samples beyond) of the highest percentile with
    at least TAIL_BEYOND samples beyond it, or None below p90."""
    if len(walls) < 10 * TAIL_BEYOND:
        return None
    ordered = sorted(walls)
    index = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (index + 1) / len(ordered), ordered[index], TAIL_BEYOND


def peak_rss_mb() -> float:
    """Peak RSS of this process or any worker it reaped, in MB (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


class Tally:
    """Ops attempted and failed, their walls, and the first problems seen."""

    def __init__(self) -> None:
        self.walls = array("d")  # compact: its size must not move peak RSS
        self.rates = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.modes = set()

    def add(self, result) -> None:
        self.walls.extend(result.op_walls)
        if result.wall > 0:
            self.rates.append(len(result.op_walls) / result.wall)
        self.attempted += max(len(result.op_walls), result.failed)
        self.failed += result.failed
        self.problems.extend(result.problems[: 5 - len(self.problems)])
        self.modes.add(result.exec_mode)


def measure(workload, seconds: float, start: float):
    tally = Tally()
    while True:
        tally.add(run_batch(workload))
        if time.perf_counter() - start >= seconds:
            break
    record = {"peak_rss_mb": peak_rss_mb()}  # before the statistics allocate
    # the median batch: a burst of load from outside moves it less than a mean
    record["ops_per_s"] = statistics.median(tally.rates) if tally.rates else 0.0
    record["op_p50_s"] = statistics.median(tally.walls) if tally.walls else 0.0
    found = tail(tally.walls)
    extra = {"ops": len(tally.walls), "op_tail": None}
    if found:
        pct, value, beyond = found
        extra["op_tail"] = {"percentile": pct, "op_tail_s": value, "beyond": beyond}
    return tally, record, extra


def measure_traced(workload, seconds: float, start: float, collector, label: str):
    tally = Tally()
    plain = traced = 0.0
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        target = collector if passes == 0 else obs.Collector()
        for is_traced in (passes % 2 == 1, passes % 2 == 0):
            if is_traced:
                obs.install(target)
            result = run_batch(workload)
            if is_traced:
                obs.uninstall()
                traced += result.wall
            else:
                plain += result.wall
            tally.add(result)
        passes += 1
    overhead = traced / plain - 1.0 if plain > 0 else 0.0
    stats = layers.layer_stats(collector.events)
    OUT_DIR.mkdir(exist_ok=True)
    obs.write_jsonl(collector.events, str(OUT_DIR / f"{label}.jsonl"))
    obs.write_chrome_trace(collector.events, str(OUT_DIR / f"{label}.trace.json"))
    print(layers.render_table(stats))
    print(
        f"trace overhead: traced op wall {traced:.4f} s vs untraced {plain:.4f} s "
        f"over {passes} pass(es); artifacts in perfbench/out/{label}.*"
    )
    return tally, layers.per_layer_metrics(stats, overhead), {"passes": passes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    collector = obs.Collector() if args.trace else None
    if collector is not None:
        obs.install(collector)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if collector is not None:
        obs.uninstall()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    start = time.perf_counter()
    if args.trace:
        label = f"{args.workload}-seed{args.seed}"
        tally, metrics, extra = measure_traced(workload, args.seconds, start, collector, label)
    else:
        tally, metrics, extra = measure(workload, args.seconds, start)
        metrics["setup_s"] = setup_s
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "exec_mode": "+".join(sorted(tally.modes)),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / tally.attempted,
        "problems": tally.problems,
        "metrics": metrics,
        **extra,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
