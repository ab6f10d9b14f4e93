"""Node and edge connectivity via Menger's theorem and max-flow.

This module answers the questions Properties 1 and 2 of the LHG
definition ask:

* :func:`local_node_connectivity` / :func:`local_edge_connectivity` —
  κ(s, t) and λ(s, t) for a node pair;
* :func:`node_connectivity` / :func:`edge_connectivity` — global κ(G)
  and λ(G), using the classic reduction of Even & Tarjan (fix one node,
  probe its non-neighbours, then probe pairs of its neighbours) to avoid
  the all-pairs sweep;
* :func:`is_k_node_connected` / :func:`is_k_edge_connected` — early-exit
  predicates that stop each max-flow at the ``k`` cutoff;
* :func:`minimum_node_cut` / :func:`minimum_edge_cut` — cut certificates;
* :func:`node_disjoint_paths` / :func:`edge_disjoint_paths` — Menger
  witnesses extracted from the flow decomposition.

Conventions (standard, and the ones the paper uses implicitly): for the
complete graph K_n, κ = n − 1; disconnected graphs have κ = λ = 0;
single-node graphs have κ = λ = 0.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import GraphError, NodeNotFoundError
from repro.graphs.graph import Graph, Node
from repro.graphs.maxflow import (
    FlowNetwork,
    edge_disjoint_flow_network,
    node_disjoint_flow_network,
)
from repro.graphs.traversal import is_connected


def _require_distinct_nodes(graph: Graph, s: Node, t: Node) -> None:
    if s not in graph:
        raise NodeNotFoundError(s)
    if t not in graph:
        raise NodeNotFoundError(t)
    if s == t:
        raise GraphError("connectivity between a node and itself is undefined")


def local_edge_connectivity(
    graph: Graph, s: Node, t: Node, cutoff: Optional[int] = None
) -> int:
    """Return λ(s, t): the max number of edge-disjoint s–t paths.

    Parameters
    ----------
    cutoff:
        Stop early once the value is known to be ≥ ``cutoff``.
    """
    _require_distinct_nodes(graph, s, t)
    net = edge_disjoint_flow_network(graph.edges())
    net.add_node(s)
    net.add_node(t)
    return int(net.max_flow(s, t, cutoff=cutoff))


def local_node_connectivity(
    graph: Graph, s: Node, t: Node, cutoff: Optional[int] = None
) -> int:
    """Return κ(s, t): the max number of internally node-disjoint paths.

    For adjacent ``s`` and ``t`` the direct edge counts as one path; the
    vertex-split construction handles that automatically because the
    ``out(s) → in(t)`` arc bypasses every split node.
    """
    _require_distinct_nodes(graph, s, t)
    net = node_disjoint_flow_network(graph.nodes(), graph.edges(), s, t)
    return int(net.max_flow(("src", s), ("dst", t), cutoff=cutoff))


def edge_connectivity(graph: Graph) -> int:
    """Return the global edge connectivity λ(G).

    Uses the standard fact that λ(G) = min over t ≠ s of λ(s, t) for any
    fixed s, so n − 1 max-flow runs suffice.
    """
    n = graph.number_of_nodes()
    if n < 2 or not is_connected(graph):
        return 0
    nodes = graph.nodes()
    source = nodes[0]
    best = graph.min_degree()
    for target in nodes[1:]:
        if best == 0:
            break
        best = min(
            best, local_edge_connectivity(graph, source, target, cutoff=best)
        )
    return best


def node_connectivity(graph: Graph) -> int:
    """Return the global node connectivity κ(G).

    Implements the Even–Tarjan reduction: κ(G) is the minimum of
    κ(v, w) over a fixed vertex v and all its non-neighbours w, and
    κ(x, y) over pairs of v's neighbours that are themselves
    non-adjacent.  Complete graphs, where no non-adjacent pair exists,
    return the conventional n − 1.
    """
    n = graph.number_of_nodes()
    if n < 2 or not is_connected(graph):
        return 0
    # Pick a minimum-degree vertex: its degree upper-bounds kappa and
    # keeps the neighbour-pair probe set small.
    pivot = min(graph.nodes(), key=graph.degree)
    best = n - 1
    neighbors = graph.neighbors(pivot)
    non_neighbors = [
        w for w in graph if w != pivot and w not in neighbors
    ]
    for w in non_neighbors:
        best = min(best, local_node_connectivity(graph, pivot, w, cutoff=best))
        if best == 0:
            return 0
    neighbor_list = sorted(neighbors, key=repr)
    for i, x in enumerate(neighbor_list):
        x_neighbors = graph.neighbors(x)
        for y in neighbor_list[i + 1 :]:
            if y in x_neighbors:
                continue
            best = min(best, local_node_connectivity(graph, x, y, cutoff=best))
            if best == 0:
                return 0
    return best


def is_k_edge_connected(graph: Graph, k: int) -> bool:
    """Return ``True`` if λ(G) ≥ k (every k−1 link removals leave G connected)."""
    if k <= 0:
        return True
    n = graph.number_of_nodes()
    if n < 2:
        return False
    if graph.min_degree() < k:
        return False
    if not is_connected(graph):
        return False
    nodes = graph.nodes()
    source = nodes[0]
    return all(
        local_edge_connectivity(graph, source, target, cutoff=k) >= k
        for target in nodes[1:]
    )


def is_k_node_connected(graph: Graph, k: int) -> bool:
    """Return ``True`` if κ(G) ≥ k (every k−1 node removals leave G connected).

    Matches the paper's Property 1.  Requires n > k (removing k − 1
    nodes from a graph with n ≤ k could leave a single node, which is
    connected by convention, but κ(G) ≤ n − 1 regardless).
    """
    if k <= 0:
        return True
    n = graph.number_of_nodes()
    if n <= k:
        return False
    if graph.min_degree() < k:
        return False
    if not is_connected(graph):
        return False
    pivot = min(graph.nodes(), key=graph.degree)
    neighbors = graph.neighbors(pivot)
    for w in graph:
        if w != pivot and w not in neighbors:
            if local_node_connectivity(graph, pivot, w, cutoff=k) < k:
                return False
    neighbor_list = sorted(neighbors, key=repr)
    for i, x in enumerate(neighbor_list):
        x_neighbors = graph.neighbors(x)
        for y in neighbor_list[i + 1 :]:
            if y in x_neighbors:
                continue
            if local_node_connectivity(graph, x, y, cutoff=k) < k:
                return False
    return True


def minimum_edge_cut(graph: Graph) -> Set[Tuple[Node, Node]]:
    """Return a minimum set of edges whose removal disconnects the graph.

    Raises
    ------
    GraphError
        If the graph has fewer than two nodes or is already disconnected.
    """
    n = graph.number_of_nodes()
    if n < 2:
        raise GraphError("minimum edge cut needs at least two nodes")
    if not is_connected(graph):
        raise GraphError("graph is already disconnected")
    lam = edge_connectivity(graph)
    nodes = graph.nodes()
    source = nodes[0]
    for target in nodes[1:]:
        net = edge_disjoint_flow_network(graph.edges())
        flow = net.max_flow(source, target)
        if int(flow) == lam:
            reachable = net.min_cut_reachable(source)
            return {
                (u, v)
                for u, v in graph.iter_edges()
                if (u in reachable) != (v in reachable)
            }
    raise GraphError("internal error: no pair realised the edge connectivity")


def minimum_node_cut(graph: Graph) -> Set[Node]:
    """Return a minimum node separator (empty for complete graphs).

    Raises
    ------
    GraphError
        If the graph has fewer than two nodes or is already disconnected.
    """
    n = graph.number_of_nodes()
    if n < 2:
        raise GraphError("minimum node cut needs at least two nodes")
    if not is_connected(graph):
        raise GraphError("graph is already disconnected")
    kappa = node_connectivity(graph)
    if kappa == n - 1:
        return set()  # complete graph: no separator exists
    for s in graph:
        s_closed = graph.neighbors(s) | {s}
        for t in graph:
            if t in s_closed:
                continue
            net = node_disjoint_flow_network(graph.nodes(), graph.edges(), s, t)
            flow = net.max_flow(("src", s), ("dst", t))
            if int(flow) == kappa:
                reachable = net.min_cut_reachable(("src", s))
                cut = {
                    x
                    for x in graph
                    if x not in (s, t)
                    and ("in", x) in reachable
                    and ("out", x) not in reachable
                }
                if len(cut) == kappa:
                    return cut
    raise GraphError("internal error: no pair realised the node connectivity")


def _decompose_unit_flow(
    arcs_used: Dict[Node, List[Node]], s: Node, t: Node
) -> List[List[Node]]:
    """Greedy path extraction over a used-arc adjacency map.

    Flow conservation guarantees every walk started at ``s`` reaches
    ``t``; each step consumes one arc, so the loop terminates.  A walk
    that wandered through a residual flow cycle is compressed back to a
    simple path by cutting the loop at the first repeated node.
    """
    paths: List[List[Node]] = []
    while arcs_used.get(s):
        walk = [s]
        node = s
        while node != t:
            nxt = arcs_used[node].pop()
            walk.append(nxt)
            node = nxt
        path: List[Node] = []
        position: Dict[Node, int] = {}
        for step in walk:
            if step in position:
                del_from = position[step]
                for dropped in path[del_from + 1 :]:
                    del position[dropped]
                del path[del_from + 1 :]
            else:
                position[step] = len(path)
                path.append(step)
        paths.append(path)
    return paths


def edge_disjoint_paths(graph: Graph, s: Node, t: Node) -> List[List[Node]]:
    """Return a maximum family of pairwise edge-disjoint s–t paths.

    The family size equals :func:`local_edge_connectivity`.
    """
    _require_distinct_nodes(graph, s, t)
    net = edge_disjoint_flow_network(graph.edges())
    net.add_node(s)
    net.add_node(t)
    flow = int(net.max_flow(s, t))
    if flow == 0:
        return []
    used = _saturated_arcs(net)
    return _decompose_unit_flow(used, s, t)


def node_disjoint_paths(graph: Graph, s: Node, t: Node) -> List[List[Node]]:
    """Return a maximum family of internally node-disjoint s–t paths.

    The family size equals :func:`local_node_connectivity`; this is the
    constructive Menger witness the LHG proofs reason about.  The flow
    search follows the order of its input, so edges go in by ``repr``:
    a ``Graph`` lists them in set order, which ``PYTHONHASHSEED`` moves
    for string-bearing labels (its nodes keep insertion order).
    """
    _require_distinct_nodes(graph, s, t)
    net = node_disjoint_flow_network(
        graph.nodes(), sorted(graph.edges(), key=repr), s, t
    )
    flow = int(net.max_flow(("src", s), ("dst", t)))
    if flow == 0:
        return []
    used = _saturated_arcs(net)
    raw = _decompose_unit_flow(used, ("src", s), ("dst", t))
    paths: List[List[Node]] = []
    for split_path in raw:
        path: List[Node] = []
        for kind, label in split_path:
            # Keep one copy of each split node: "src"/"dst"/"out" halves.
            if kind in ("src", "dst", "out"):
                path.append(label)
        paths.append(path)
    return paths


def _saturated_arcs(net: FlowNetwork) -> Dict[Node, List[Node]]:
    """Return, per node label, the labels its flow-carrying arcs point to.

    Opposite unit-arc pairs between the same nodes that both carried
    flow cancel out, which prunes the 2-cycles the undirected reduction
    can create, leaving an acyclic unit flow that decomposes into paths.
    """
    counts: Dict[Tuple[Node, Node], int] = {}
    for tail, head, carried in net.iter_flows():
        counts[(tail, head)] = counts.get((tail, head), 0) + int(carried)
    used: Dict[Node, List[Node]] = {}
    for (tail, head), count in list(counts.items()):
        opposite = counts.get((head, tail), 0)
        net_flow = count - opposite
        if net_flow > 0:
            used.setdefault(tail, []).extend([head] * net_flow)
            counts[(head, tail)] = 0
            counts[(tail, head)] = 0
    return used
