"""Experiment F10 — confirmed broadcast: wave + echo round trip.

Flooding delivers; the echo (PIF) pattern additionally *confirms*
global delivery at the source and folds an aggregate on the way back.
The round trip costs ~2× the eccentricity, so the LHG's logarithmic
depth pays twice: at n = 510, confirmation completes in 22 time units
on the LHG vs hundreds on the Harary circulant.  The table also checks
the aggregate (a full node count) and the message bill: between 2 and 4
messages per link (a link crossed by one wave carries wave + echo or
wave + decline; concurrent waves in both directions add their declines).
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.core.existence import build_lhg
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.graphs.generators.harary import harary_graph
from repro.graphs.traversal import eccentricity

K = 4
SIZES = (62, 254, 510)


def _measure(graph, source):
    from repro.flooding.network import Network
    from repro.flooding.protocols.echo import EchoProtocol
    from repro.flooding.simulator import Simulator

    simulator = Simulator()
    network = Network(graph, simulator)
    protocol = EchoProtocol(network, source)
    network.attach(protocol, start_nodes=[source])
    simulator.run()
    return protocol, network.stats.messages_sent


def test_f10_confirmed_broadcast(benchmark, report):
    rows = []
    for n in SIZES:
        lhg, _ = build_lhg(n, K)
        harary = harary_graph(K, n)
        lhg_src = lhg.nodes()[0]
        lhg_protocol, lhg_msgs = _measure(lhg, lhg_src)
        harary_protocol, harary_msgs = _measure(harary, 0)
        assert lhg_protocol.completed and harary_protocol.completed
        assert lhg_protocol.aggregate == n == harary_protocol.aggregate
        rows.append(
            (
                n,
                lhg_protocol.completed_at,
                harary_protocol.completed_at,
                round(harary_protocol.completed_at / lhg_protocol.completed_at, 1),
                lhg_msgs,
            )
        )
        # round trip ~ 2 x eccentricity (+ a couple of decline bounces)
        ecc = eccentricity(lhg, lhg_src)
        assert 2 * ecc <= lhg_protocol.completed_at <= 2 * ecc + 4
        # message bill: 2..4 messages per link
        assert 2 * lhg.number_of_edges() <= lhg_msgs <= 4 * lhg.number_of_edges()

    # the advantage compounds with n
    ratios = [r[3] for r in rows]
    assert ratios == sorted(ratios)
    assert ratios[-1] > 8

    lhg, _ = build_lhg(SIZES[0], K)
    source = lhg.nodes()[0]
    spec = ExperimentSpec("echo", lhg, source)
    benchmark(lambda: run_experiment(spec))

    report(
        "f10_confirmed_broadcast",
        render_table(
            ["n", "lhg round trip", "harary round trip", "ratio", "lhg msgs"],
            rows,
            title=f"F10: confirmed broadcast (wave+echo) completion time (k={K})",
        ),
    )
