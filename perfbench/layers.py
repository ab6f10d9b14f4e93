"""Per-layer numbers from a traced run's span events.

The workloads wrap each call into the program in a ``layer:<layer>``
span and each timed op in an ``op`` span (see ``workloads.py``).  From
the events of one traced pass this module derives, per layer:

* busy time — summed span durations;
* self time — busy time minus the part covered by child spans (the
  program's own spans, such as the campaign's ``map`` and ``cell``);
* share — busy time over the traced op wall of the pass (the base,
  reported as ``trace.op_wall_s``);
* counts — the numeric attributes the workload set on the span.

Layers a workload does not call report zero.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List

from repro.obs import iter_spans

#: Layers timed through ``layer:<name>`` spans, in scale-path order.
SPAN_LAYERS = (
    "jenkins_demers",
    "implicit",
    "certificates",
    "csr",
    "rounds",
    "failures",
    "faultview",
    "attacks",
    "invariants",
    "campaign",
)


def layer_stats(events: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Calls, busy, self and summed attributes per layer, plus the op wall."""
    spans = list(iter_spans(events))
    names = {span["id"]: span["name"] for span in spans}
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["seconds"]
    stats = {
        layer: {"calls": 0, "busy": 0.0, "self": 0.0, "attrs": defaultdict(int)}
        for layer in SPAN_LAYERS
    }
    op_wall = 0.0
    in_op_busy = 0.0
    for span in spans:
        name = span["name"]
        if name == "op":
            op_wall += span["seconds"]
            continue
        layer = name[len("layer:"):] if name.startswith("layer:") else None
        if layer not in stats:
            continue
        entry = stats[layer]
        entry["calls"] += 1
        entry["busy"] += span["seconds"]
        entry["self"] += span["seconds"] - covered[span["id"]]
        if names.get(span["parent"]) == "op":
            in_op_busy += span["seconds"]
        for key, value in span["attrs"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry["attrs"][key] += value
    stats["_op"] = {"wall": op_wall, "layer_busy": in_op_busy}
    return stats


def per_layer_metrics(stats: Dict[str, Dict[str, Any]], overhead: float) -> Dict[str, float]:
    """The per-layer metric values named in BENCHMARK.json."""
    op = stats["_op"]
    wall = op["wall"]

    def busy(layer):
        return stats[layer]["busy"]

    def attr(layer, key):
        return stats[layer]["attrs"].get(key, 0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    jd_calls = stats["jenkins_demers"]["calls"]
    rounds_messages = attr("rounds", "messages")
    csr_entries = attr("csr", "entries")
    cell_s = attr("campaign", "exec_cell_s")
    metrics = {
        "jenkins_demers.calls": jd_calls,
        "jenkins_demers.busy_s": busy("jenkins_demers"),
        "jenkins_demers.call_us": ratio(busy("jenkins_demers"), jd_calls) * 1e6,
        "jenkins_demers.feasible": attr("jenkins_demers", "feasible"),
        "implicit.build_s": busy("implicit"),
        "certificates.busy_s": busy("certificates"),
        "certificates.conclusive": attr("certificates", "conclusive"),
        "csr.compile_s": busy("csr"),
        "csr.entries_per_s": ratio(csr_entries, busy("csr")),
        "csr.entries": csr_entries,
        "csr.bytes": attr("csr", "bytes"),
        "rounds.calls": stats["rounds"]["calls"],
        "rounds.busy_s": busy("rounds"),
        "rounds.msgs_per_s": ratio(rounds_messages, busy("rounds")),
        "rounds.messages": rounds_messages,
        "rounds.rounds": attr("rounds", "rounds"),
        "rounds.covered": attr("rounds", "covered"),
        "failures.survivors_s": busy("failures"),
        "faultview.bfs_s": busy("faultview"),
        "faultview.bfs_nodes": attr("faultview", "bfs_nodes"),
        "attacks.derive_s": busy("attacks"),
        "attacks.plans": attr("attacks", "plans"),
        "invariants.calls": stats["invariants"]["calls"],
        "invariants.recertify_s": busy("invariants"),
        "invariants.violations": attr("invariants", "violations"),
        "campaign.run_s": busy("campaign"),
        "campaign.cells": attr("campaign", "cells"),
        "campaign.green": attr("campaign", "green"),
        "exec.cell_busy_s": cell_s,
        "exec.parallel_eff": ratio(
            cell_s, attr("campaign", "exec_wall_s") * attr("campaign", "exec_workers")
        ),
        "exec.retries": attr("campaign", "exec_retries"),
        "exec.worker_deaths": attr("campaign", "exec_worker_deaths"),
        "simulator.messages": attr("campaign", "sim_messages"),
        "simulator.retransmissions": attr("campaign", "sim_retransmissions"),
        "trace.op_wall_s": wall,
        "trace.layer_cover": ratio(op["layer_busy"], wall),
        "trace.overhead_frac": overhead,
    }
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.share"] = ratio(busy(layer), wall)
    return metrics


def render_table(stats: Dict[str, Dict[str, Any]]) -> str:
    """Per-layer busy/self/share/counts table of one traced pass."""
    wall = stats["_op"]["wall"]
    lines = [
        f"{'layer':<15}{'calls':>8}{'busy_s':>11}{'self_s':>11}{'share':>8}  counts",
    ]
    for layer in SPAN_LAYERS:
        entry = stats[layer]
        if not entry["calls"]:
            continue
        counts = " ".join(
            f"{key}={_count(value)}" for key, value in sorted(entry["attrs"].items())
        )
        share = entry["busy"] / wall if wall > 0 else 0.0
        lines.append(
            f"{layer:<15}{entry['calls']:>8}{entry['busy']:>11.4f}"
            f"{entry['self']:>11.4f}{share:>8.1%}  {counts}"
        )
    lines.append(
        f"share base: traced op wall {wall:.4f} s per pass; layers called "
        f"inside ops cover {stats['_op']['layer_busy'] / wall if wall else 0:.1%} of it"
    )
    return "\n".join(lines)


def _count(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"
