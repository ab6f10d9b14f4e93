"""Repository benchmark: one workload, one seed, one fresh interpreter.

Usage, from the repository root::

    python3 perfbench/run.py --workload scale-pipeline --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones (see perfbench/README.md).  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

This process never imports the program.  It starts ``child.py`` in a
fresh interpreter for the measured run, and for the untraced run also
SETUP_PROBES more times with ``--setup-only``, so ``setup_s`` is the
median of several process starts.  Every child runs in its own process
group, which is killed and reaped if the run overstays its deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scale-pipeline", "attack-battery", "coverage-sweep", "chaos-campaign")
SETUP_PROBES = 4
#: The whole run, probes included, must end well inside 180 s.
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    """A child interpreter exited non-zero, overstayed, or printed no record."""


def run_child(args, extra, deadline: float) -> dict:
    """Run child.py to completion; echo its report lines; return its record."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("deadline passed before the child started")
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *extra, "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"child overstayed the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:  # interrupted: leave no process behind
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    # a terminated run still reaches run_child's cleanup
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_child(args, ["--setup-only"], deadline)["setup_s"])
        record = run_child(args, [], deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not args.trace:
        setups.append(record["metrics"]["setup_s"])
        record["metrics"]["setup_s"] = statistics.median(setups)
        record["setup_samples_s"] = setups
    units = declared_units(args.trace)
    if set(units) != set(record["metrics"]):
        print(
            f"error: metrics {sorted(record['metrics'])} do not match "
            f"BENCHMARK.json {sorted(units)}",
            file=sys.stderr,
        )
        return 1
    summary = {key: value for key, value in record.items() if key != "metrics"}
    print("record: " + json.dumps(summary))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


def declared_units(trace: int) -> dict:
    """{metric: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
