"""The four benchmark workloads: inputs from a seed, timed ops, output checks.

Each workload is built from one seed (its constructor is the set-up the
``setup_s`` metric times) and runs in *batches*: one full, checked pass
over its inputs, so every run measures whole passes and the same mix of
ops.  A batch returns a :class:`Batch` with one wall time per op, the
timed wall of the batch and the ops that failed a check.

Every call the benchmark makes into the program sits inside an
``obs.span("layer:<layer>")`` named after the module it calls, and
every timed op inside an ``obs.span("op")``.  With no collector
installed those spans are the shared no-op singleton (~0.3 µs each), so
the untraced run pays nothing measurable; a traced run installs a
collector and reads per-layer busy and self time from the spans (see
``layers.py``).  The check functions are pure, so ``plant.py`` can feed
them planted wrong outputs.
"""

from __future__ import annotations

import hashlib
import os
from array import array
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro import obs
from repro.core.existence import build_lhg
from repro.core.jenkins_demers import is_jd_constructible
from repro.flooding.failures import survivors
from repro.flooding.rounds import round_flood
from repro.graphs.csr import CSRGraph
from repro.graphs.faultview import component_size
from repro.graphs.implicit import ImplicitJDOracle
from repro.graphs.properties import logarithmic_diameter_bound
from repro.robustness import ChaosCampaign
from repro.robustness.attacks import targeted_cut_attacks
from repro.robustness.invariants import recertify_survivors

perf = time.perf_counter

#: The campaign uses at most this many workers (and no more than the cores).
MAX_WORKERS = 2


@dataclass
class Batch:
    """One checked unit of work."""

    op_walls: Sequence[float]
    wall: float
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    exec_mode: str = "in-process"


# ----------------------------------------------------------------------
# scale-pipeline: the `repro scale` / T8 path at n = 10^6
# ----------------------------------------------------------------------


def check_scale(n, k, proofs, oracle_edges, csr_edges, flood) -> List[str]:
    """Problems with one build → certify → compile → flood pass."""
    problems = []
    if len(proofs.witnesses) != 4 or not proofs.all_hold:
        problems.append(f"certificates not all conclusive and holding: {proofs.summary()}")
    if csr_edges != oracle_edges:
        problems.append(f"CSR has {csr_edges} edges, oracle {oracle_edges}")
    if flood.covered != n:
        problems.append(f"flood covered {flood.covered} of {n}")
    if flood.messages != 2 * oracle_edges - (n - 1):
        problems.append(
            f"flood sent {flood.messages} messages, expected 2|E|-(n-1) = "
            f"{2 * oracle_edges - (n - 1)}"
        )
    bound = logarithmic_diameter_bound(n, k)
    if flood.rounds > bound:
        problems.append(f"flood took {flood.rounds} rounds > bound {bound}")
    return problems


class ScalePipeline:
    """One op: ImplicitJDOracle → structural_proofs → CSR compile → flood."""

    name = "scale-pipeline"
    n, k = 1_000_000, 3
    batch_ops = 1

    def __init__(self, seed: int) -> None:
        self.source = random.Random(seed).randrange(self.n)

    def batch(self) -> Batch:
        n, k = self.n, self.k
        t0 = perf()
        with obs.span("op", workload=self.name, n=n, k=k, source=self.source):
            with obs.span("layer:implicit"):
                oracle = ImplicitJDOracle(n, k)
            with obs.span("layer:certificates") as sp:
                proofs = oracle.structural_proofs()
                sp.set(conclusive=sum(w.conclusive for w in proofs.witnesses))
            with obs.span("layer:csr") as sp:
                csr = CSRGraph.from_oracle(oracle, name=oracle.name)
                # CSR stores each undirected edge in both rows
                sp.set(entries=2 * csr.number_of_edges(), bytes=csr.nbytes())
            with obs.span("layer:rounds") as sp:
                flood = round_flood(csr, self.source)
                sp.set(messages=flood.messages, rounds=flood.rounds, covered=flood.covered)
        wall = perf() - t0
        csr_edges = csr.number_of_edges()
        del csr  # keep one pass's CSR alive at a time, not two
        problems = check_scale(n, k, proofs, oracle.number_of_edges(), csr_edges, flood)
        return Batch([wall], wall, int(bool(problems)), problems)


# ----------------------------------------------------------------------
# attack-battery: F17 at one fifth of its scale
# ----------------------------------------------------------------------


def check_attack(n, plan, flood, view_alive, component, violations) -> List[str]:
    """Problems with one attack plan's flood, survivor view and recertification."""
    problems = []
    counts = {
        "covered": flood.covered,
        "alive": flood.alive,
        "reachable": flood.reachable,
        "component_size": component,
    }
    if len(set(counts.values())) != 1:
        problems.append(f"{plan.name}: survivor counts disagree {counts}")
    if flood.alive != n - len(plan.crashes) or view_alive != flood.alive:
        problems.append(
            f"{plan.name}: alive {flood.alive} (view {view_alive}) != "
            f"n - crashes = {n - len(plan.crashes)}"
        )
    if violations:
        problems.append(f"{plan.name}: recertification found {[str(v) for v in violations]}")
    return problems


def surviving_source(rng: random.Random, n: int, crashes: Sequence[int]) -> int:
    """A uniformly drawn node the plan does not crash."""
    down = set(crashes)
    while True:
        node = rng.randrange(n)
        if node not in down:
            return node


class AttackBattery:
    """One op: one targeted k−1 plan — flood → survivors → recertify;
    one batch is all 13 plans."""

    name = "attack-battery"
    n, k = 200_000, 3

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        with obs.span("layer:implicit"):
            self.oracle = ImplicitJDOracle(self.n, self.k)
        with obs.span("layer:attacks") as sp:
            plans = targeted_cut_attacks(self.oracle)
            sp.set(plans=len(plans))
        self.inputs = [
            (plan, plan.schedule(), surviving_source(rng, self.n, plan.crashes))
            for plan in plans
        ]
        self.batch_ops = len(self.inputs)

    def batch(self) -> Batch:
        """Every plan once, each checked on its own."""
        walls, problems = [], []
        failed = 0
        for plan, schedule, source in self.inputs:
            wall, plan_problems = self.op(plan, schedule, source)
            walls.append(wall)
            failed += bool(plan_problems)
            problems.extend(plan_problems)
        return Batch(walls, sum(walls), failed, problems)

    def op(self, plan, schedule, source) -> Tuple[float, List[str]]:
        t0 = perf()
        with obs.span("op", workload=self.name, plan=plan.name, source=source):
            with obs.span("layer:rounds") as sp:
                flood = round_flood(self.oracle, source, schedule=schedule)
                sp.set(messages=flood.messages, rounds=flood.rounds, covered=flood.covered)
            with obs.span("layer:failures"):
                view = survivors(self.oracle, schedule)
            with obs.span("layer:invariants") as sp:
                violations = recertify_survivors(view, self.k)
                sp.set(violations=len(violations))
        wall = perf() - t0
        # the benchmark's own witness, outside the timed op
        with obs.span("layer:faultview") as sp:
            component = component_size(view, source)
            sp.set(bfs_nodes=component)
        return wall, check_attack(self.n, plan, flood, view.num_nodes(), component, violations)


# ----------------------------------------------------------------------
# coverage-sweep: the T4/F9 inner loop
# ----------------------------------------------------------------------

SWEEP_N_MAX = 3000
SWEEP_KS = range(2, 9)
#: is_jd_constructible over every (n, k), k = 2..8, 2k <= n <= 3000, as
#: recorded at the commit that defined this benchmark.  Any rewrite of the
#: JD plan must reproduce these exactly.
EXPECTED_FEASIBLE = {2: 1499, 3: 1497, 4: 1494, 5: 1490, 6: 1485, 7: 1479, 8: 1472}
EXPECTED_DIGEST = "a6c012218a3377d4726d806e8fc0ef56073e92dd4b69d61efc4637997f66077d"


def sweep_pairs() -> List[Tuple[int, int]]:
    """Every (n, k) of the sweep, sorted by (k, n)."""
    return [(n, k) for k in SWEEP_KS for n in range(2 * k, SWEEP_N_MAX + 1)]


def decision_digest(decisions: Dict[Tuple[int, int], bool]) -> str:
    """SHA-256 of the decision bitmap over the pairs sorted by (k, n)."""
    pairs = sweep_pairs()
    bits = bytearray((len(pairs) + 7) // 8)
    for i, pair in enumerate(pairs):
        if decisions.get(pair):
            bits[i // 8] |= 1 << (i % 8)
    return hashlib.sha256(bytes(bits)).hexdigest()


def check_sweep(decisions: Dict[Tuple[int, int], bool]) -> List[str]:
    """Problems with one full sweep's decisions."""
    problems = []
    if len(decisions) != len(sweep_pairs()):
        problems.append(f"sweep decided {len(decisions)} of {len(sweep_pairs())} pairs")
    counts = {k: 0 for k in SWEEP_KS}
    for (_, k), feasible in decisions.items():
        counts[k] += bool(feasible)
    if counts != EXPECTED_FEASIBLE:
        problems.append(f"feasible counts per k {counts} != recorded {EXPECTED_FEASIBLE}")
    digest = decision_digest(decisions)
    if digest != EXPECTED_DIGEST:
        problems.append(f"decision digest {digest[:16]}… != recorded {EXPECTED_DIGEST[:16]}…")
    return problems


class CoverageSweep:
    """One op: one ``is_jd_constructible(n, k)``; one batch is a full sweep."""

    name = "coverage-sweep"

    def __init__(self, seed: int) -> None:
        self.order = sweep_pairs()
        random.Random(seed).shuffle(self.order)
        self.batch_ops = len(self.order)

    def batch(self) -> Batch:
        walls = array("d")
        decisions = {}
        with obs.span("op", workload=self.name, pairs=len(self.order)):
            for n, k in self.order:
                t0 = perf()
                with obs.span("layer:jenkins_demers") as sp:
                    feasible = is_jd_constructible(n, k)
                    sp.set(feasible=int(feasible))
                walls.append(perf() - t0)
                decisions[(n, k)] = feasible
        problems = check_sweep(decisions)
        # a digest cannot say which pair is wrong, so the whole sweep fails
        failed = len(walls) if problems else 0
        return Batch(walls, sum(walls), failed, problems)


# ----------------------------------------------------------------------
# chaos-campaign: the only workload through exec and the event simulator
# ----------------------------------------------------------------------

ARQ = "arq-reliable-flood"


def check_campaign(matrix, expected_cells: int) -> Tuple[int, List[str]]:
    """(failed cells, problems) of one campaign run."""
    problems = []
    failed = 0
    for cell in matrix.cells:
        if not cell.ok:
            failed += 1
            problems.append(f"{cell.scenario}/{cell.protocol}/s{cell.seed}: {list(cell.violations)}")
        elif cell.protocol == ARQ and not cell.fully_covered:
            failed += 1
            problems.append(
                f"{cell.scenario}/{ARQ}/s{cell.seed}: covered {cell.covered} of {cell.reachable}"
            )
    failed += len(matrix.failures)
    problems.extend(f"quarantined: {f}" for f in matrix.failures)
    missing = expected_cells - len(matrix.cells) - len(matrix.failures)
    if missing:
        failed += max(missing, 1)
        problems.append(f"campaign returned {len(matrix.cells)} cells, expected {expected_cells}")
    if not matrix.all_green and not problems:
        failed += 1
        problems.append("matrix not all green")
    return failed, problems


class ChaosCampaignWorkload:
    """One op: one campaign cell; one batch is a full ``ChaosCampaign.run``."""

    name = "chaos-campaign"
    n, k = 64, 4
    seeds_per_run = 4

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.seeds = tuple(rng.randrange(2**31) for _ in range(self.seeds_per_run))
        graph, _ = build_lhg(self.n, self.k)
        self.campaign = ChaosCampaign([(graph.name, graph)], seeds=self.seeds)
        self.batch_ops = (
            len(self.campaign.scenarios) * len(self.campaign.protocols) * len(self.seeds)
        )
        self.workers = min(MAX_WORKERS, os.cpu_count() or 1)

    def batch(self) -> Batch:
        t0 = perf()
        with obs.span("op", workload=self.name, cells=self.batch_ops, workers=self.workers):
            with obs.span("layer:campaign") as sp:
                matrix = self.campaign.run(workers=self.workers)
                report = self.campaign.last_report
                sp.set(
                    cells=len(matrix.cells),
                    green=sum(cell.ok for cell in matrix.cells),
                    exec_cell_s=report.total_cell_seconds(),
                    exec_wall_s=report.wall_seconds,
                    exec_workers=report.workers,
                    exec_retries=report.retries,
                    exec_worker_deaths=report.worker_deaths,
                    sim_messages=sum(cell.messages for cell in matrix.cells),
                    sim_retransmissions=sum(cell.retransmissions for cell in matrix.cells),
                )
        wall = perf() - t0
        failed, problems = check_campaign(matrix, self.batch_ops)
        walls = [timing.seconds for timing in report.timings]
        return Batch(walls, wall, failed, problems, exec_mode=report.mode)


WORKLOADS = {
    cls.name: cls
    for cls in (ScalePipeline, AttackBattery, CoverageSweep, ChaosCampaignWorkload)
}
