"""Show that every output check of the benchmark trips on a wrong output.

For each workload this builds real outputs on a small instance, confirms
the check passes them, then plants one wrong field at a time and
requires the check to report it.  Exits 0 when every planted output is
caught, 1 otherwise.

    PYTHONPATH=src python3 perfbench/plant.py
"""

from __future__ import annotations

import sys
from dataclasses import replace

import workloads
from repro.core.existence import build_lhg
from repro.flooding.failures import survivors
from repro.flooding.rounds import round_flood
from repro.graphs.csr import CSRGraph
from repro.graphs.faultview import component_size
from repro.graphs.implicit import ImplicitJDOracle
from repro.graphs.properties import logarithmic_diameter_bound
from repro.exec.supervisor import ItemFailure
from repro.robustness import ChaosCampaign, ResilienceMatrix
from repro.robustness.attacks import targeted_cut_attacks
from repro.robustness.invariants import InvariantViolation, recertify_survivors

N, K = 5000, 3


def expect(label: str, problems, planted: bool, misses: list) -> None:
    caught = bool(problems)
    ok = caught == planted
    print(f"{'ok  ' if ok else 'MISS'} {label}: {problems[:1] if problems else 'no problem'}")
    if not ok:
        misses.append(label)


def plant_scale(misses: list) -> None:
    oracle = ImplicitJDOracle(N, K)
    proofs = oracle.structural_proofs()
    csr = CSRGraph.from_oracle(oracle)
    flood = round_flood(csr, 17)
    edges = oracle.number_of_edges()

    def check(proofs=proofs, csr_edges=csr.number_of_edges(), flood=flood):
        return workloads.check_scale(N, K, proofs, edges, csr_edges, flood)

    expect("scale: real outputs", check(), False, misses)
    first, *rest = proofs.witnesses
    expect("scale: certificate inconclusive",
           check(proofs=replace(proofs, witnesses=(replace(first, conclusive=False), *rest))),
           True, misses)
    expect("scale: certificate fails",
           check(proofs=replace(proofs, witnesses=(replace(first, holds=False), *rest))),
           True, misses)
    expect("scale: certificate missing",
           check(proofs=replace(proofs, witnesses=tuple(rest))), True, misses)
    expect("scale: CSR lost an edge", check(csr_edges=edges - 1), True, misses)
    expect("scale: covered n-1", check(flood=replace(flood, covered=N - 1)), True, misses)
    expect("scale: one extra message",
           check(flood=replace(flood, messages=flood.messages + 1)), True, misses)
    expect("scale: rounds over the log bound",
           check(flood=replace(flood, rounds=logarithmic_diameter_bound(N, K) + 1)),
           True, misses)


def plant_attack(misses: list) -> None:
    oracle = ImplicitJDOracle(N, K)
    plans = targeted_cut_attacks(oracle)
    by_kind = [
        next(p for p in plans if p.crashes and not p.link_kills),
        next(p for p in plans if p.link_kills and not p.crashes),
    ]
    for plan in by_kind:
        schedule = plan.schedule()
        source = plan.surviving_source(oracle)
        flood = round_flood(oracle, source, schedule=schedule)
        view = survivors(oracle, schedule)
        violations = recertify_survivors(view, K)
        component = component_size(view, source)
        alive = view.num_nodes()

        def check(flood=flood, alive=alive, component=component, violations=violations):
            return workloads.check_attack(N, plan, flood, alive, component, violations)

        tag = f"attack {plan.name}"
        expect(f"{tag}: real outputs", check(), False, misses)
        expect(f"{tag}: covered one short",
               check(flood=replace(flood, covered=flood.covered - 1)), True, misses)
        expect(f"{tag}: reachable one short",
               check(flood=replace(flood, reachable=flood.reachable - 1)), True, misses)
        expect(f"{tag}: component one short", check(component=component - 1), True, misses)
        expect(f"{tag}: flood and view agree on a wrong alive count",
               check(flood=replace(flood, alive=flood.alive + 1, covered=flood.covered + 1,
                                   reachable=flood.reachable + 1),
                     alive=alive + 1, component=component + 1),
               True, misses)
        expect(f"{tag}: view disagrees on alive", check(alive=alive - 1), True, misses)
        expect(f"{tag}: a violation",
               check(violations=[InvariantViolation("survivor-degree", "planted")]),
               True, misses)


def plant_sweep(misses: list) -> None:
    decisions = {
        (n, k): workloads.is_jd_constructible(n, k) for n, k in workloads.sweep_pairs()
    }
    expect("sweep: real decisions", workloads.check_sweep(decisions), False, misses)
    flipped = dict(decisions)
    flipped[(1001, 3)] = not flipped[(1001, 3)]
    expect("sweep: one decision flipped", workloads.check_sweep(flipped), True, misses)
    # a swap inside one k keeps every per-k count: only the digest can see it
    yes = next(p for p, v in decisions.items() if p[1] == 5 and v)
    no = next(p for p, v in decisions.items() if p[1] == 5 and not v)
    swapped = dict(decisions)
    swapped[yes], swapped[no] = False, True
    expect("sweep: two decisions swapped within k=5", workloads.check_sweep(swapped), True, misses)
    dropped = dict(decisions)
    del dropped[(2000, 8)]
    expect("sweep: one pair missing", workloads.check_sweep(dropped), True, misses)


def plant_campaign(misses: list) -> None:
    graph, _ = build_lhg(64, 4)
    campaign = ChaosCampaign([(graph.name, graph)], seeds=(7,))
    matrix = campaign.run()
    expected = len(matrix.cells)

    def check(cells, failures=()):
        planted = ResilienceMatrix(cells=list(cells), failures=list(failures))
        return workloads.check_campaign(planted, expected)[1]

    cells = matrix.cells
    expect("campaign: real matrix", check(cells), False, misses)
    arq = next(i for i, c in enumerate(cells) if c.protocol == workloads.ARQ)
    short = list(cells)
    short[arq] = replace(cells[arq], covered=cells[arq].reachable - 1)
    expect("campaign: ARQ cell one node short", check(short), True, misses)
    violated = list(cells)
    violated[0] = replace(cells[0], violations=("quiescence: planted",))
    expect("campaign: a cell with a violation", check(violated), True, misses)
    failure = ItemFailure(index=0, label="planted", attempts=3, error="timeout", message="planted")
    expect("campaign: a quarantined cell", check(cells[1:], [failure]), True, misses)
    expect("campaign: a cell missing", check(cells[1:]), True, misses)


def main() -> int:
    misses: list = []
    for plant in (plant_scale, plant_attack, plant_sweep, plant_campaign):
        plant(misses)
    print(f"{len(misses)} planted outputs missed" if misses else "every planted output caught")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
