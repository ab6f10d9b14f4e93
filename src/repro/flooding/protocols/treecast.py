"""Spanning-tree broadcast — the cheap-but-fragile baseline.

Dissemination over a precomputed spanning tree sends exactly n − 1
messages (the theoretical minimum) but any single crash on an interior
tree node partitions the broadcast — the fragility that motivates the
paper's k-connected topologies.  The reliability experiment (F3) shows
tree-cast losing coverage at f = 1 while flooding on an LHG holds full
coverage up to f = k − 1.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Hashable, List, Optional, Set

from repro.errors import ProtocolError
from repro.flooding.network import Network, NodeApi, Protocol
from repro.graphs.graph import Graph

NodeId = Hashable


class TreeCastProtocol(Protocol):
    """Broadcast along a BFS spanning tree rooted at the source.

    The tree is computed from the *full* topology at setup time —
    deliberately failure-oblivious, modelling a tree built before the
    failures strike (rebuilding trees under churn is exactly the cost
    the paper's approach avoids).

    Raises
    ------
    ProtocolError
        If the source is not in the graph.
    """

    def __init__(self, network: Network, graph: Graph, source: NodeId) -> None:
        if not graph.has_node(source):
            raise ProtocolError(f"source {source!r} not in the topology")
        self.network = network
        self.source = source
        self.children: Dict[NodeId, List[NodeId]] = {}
        reached = {source}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            row = graph.neighbors(node)
            # other labels hash by PYTHONHASHSEED, so their rows are
            # visited in repr order; int rows (whose set order the hash
            # seed does not move) keep set order only so that the pinned
            # int-LHG tree-cast results in tests/test_experiment_spec.py
            # (TestShimParity, TestRepeatRunsPinned) stay as recorded
            if not all(type(v) is int for v in row):
                row = sorted(row, key=repr)
            for child in row:
                if child not in reached:
                    reached.add(child)
                    self.children.setdefault(node, []).append(child)
                    queue.append(child)
        for child_list in self.children.values():
            child_list.sort(key=repr)
        self.seen: Set[NodeId] = set()

    def _deliver_and_forward(self, node: NodeId, api: NodeApi) -> None:
        if node in self.seen:
            return
        self.seen.add(node)
        self.network.mark_delivered(node)
        for child in self.children.get(node, []):
            api.send(child, "tree-data")

    def on_start(self, node: NodeId, api: NodeApi) -> None:
        if node == self.source:
            self._deliver_and_forward(node, api)

    def on_message(
        self, node: NodeId, payload: Any, sender: NodeId, api: NodeApi
    ) -> None:
        self._deliver_and_forward(node, api)
