"""Fault views: a failure overlay on any ``NeighborOracle``.

:func:`repro.flooding.failures.survivors` used to answer "what is left
after the schedule strikes?" by *materialising* the survivor topology
into a dict-of-sets :class:`~repro.graphs.graph.Graph` — O(n + m)
memory even when only two nodes died.  At n = 10⁶ that silently threw
away everything the scale substrate (:mod:`repro.graphs.implicit`,
:mod:`repro.graphs.csr`) had bought.

:class:`FaultView` is the O(#failures) answer: it wraps any backend —
CSR, implicit JD oracle, dict graph, even another FaultView — with one
damage representation built at construction: a node *down-set*
(mirrored as a ``bytearray`` mask when the base has dense int ids) and
a killed-link *endpoint map* (each surviving endpoint → the partners it
lost).  It re-exposes the :class:`~repro.graphs.oracle.NeighborOracle`
surface with the damage subtracted on the fly:

* ``neighbors(v)`` filters down neighbours from the base answer, and
  killed links only when ``v`` is one of their endpoints (O(deg) with
  O(1) membership probes);
* ``num_nodes`` / ``number_of_edges`` are exact, computed from the
  damage;
* down nodes are *not* nodes of the view: ``neighbors``/``degree``
  raise :class:`~repro.errors.NodeNotFoundError` for them, exactly as
  for ids the base never had.

:func:`component_size` reads the same map inline: on a view it walks
the *base* rows directly, with a visited state that starts with the
down nodes already marked (a copy of the mask, or a label set), and
consults the endpoint map only at killed-link endpoints — no wrapper
call per hop.  :meth:`FaultView.damage_frontier` reads it too.

Because the view satisfies the oracle protocol, every generic
algorithm (BFS, diameter, synchronous-round flooding) runs on it
unchanged.  What does **not** carry over is structural certification:
a certificate for the pristine construction says nothing about the
damaged graph, so the view deliberately does *not* forward
``structural_proofs`` — recertification goes through
:func:`repro.robustness.invariants.recertify_survivors`.

Node ids of a dense base stay the *base's* ids (alive ids are no
longer contiguous), so the view advertises :attr:`FaultView.id_bound`
— the exclusive upper bound of the base id space — letting
:func:`visited_state` hand flat-array consumers
(:func:`repro.flooding.rounds.round_flood`, :func:`component_size`) a
``bytearray`` over it.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
)

import repro.obs as obs
from repro.errors import NodeNotFoundError
from repro.graphs.graph import edge_key
from repro.graphs.oracle import (
    NeighborOracle,
    oracle_has_edge,
    oracle_has_node,
    oracle_num_edges,
)

Node = Hashable


def id_bound(oracle: NeighborOracle) -> Optional[int]:
    """Exclusive upper bound of the oracle's int id space, or ``None``.

    Returns B such that every node id lies in ``range(B)`` when the
    backend guarantees dense int ids (``dense_labels``, or an
    ``id_bound`` attribute — e.g. a :class:`FaultView` over a dense
    base, whose *alive* ids are a subset of ``range(B)``).  ``None``
    means ids are arbitrary labels and flat-array fast paths must not
    be used.
    """
    bound = getattr(oracle, "id_bound", None)
    if bound is not None:
        return int(bound)
    if getattr(oracle, "dense_labels", False):
        return oracle.num_nodes()
    return None


class _SeenSet(set):
    """A visited set that answers a ``bytearray``'s ``seen[v]`` subscripts."""

    __slots__ = ()
    __getitem__ = set.__contains__

    def __setitem__(self, node: Node, flag: int) -> None:
        if flag:
            self.add(node)
        else:
            self.discard(node)


def visited_state(oracle: NeighborOracle) -> Any:
    """Fresh, empty visited state for one traversal of ``oracle``.

    A flat ``bytearray`` over :func:`id_bound` when ids are dense ints
    (~1 byte per node), else a set of labels.  Both take ``seen[v]``
    reads and ``seen[v] = 1`` / ``seen[v] = 0`` writes, so traversals
    run one loop over either.
    """
    bound = id_bound(oracle)
    if bound is not None:
        return bytearray(bound)
    return _SeenSet()


class FaultView:
    """A ``NeighborOracle`` minus a set of nodes and links.

    Parameters
    ----------
    base:
        Any neighbour oracle.  Never mutated.
    down_nodes:
        Nodes to subtract.  Entries the base does not have are ignored
        (crashing a node that never existed is a no-op, matching the
        event simulator).
    killed_links:
        Undirected links to subtract, as (u, v) pairs or
        :func:`~repro.graphs.graph.edge_key` sets.  Links that do not
        exist in the base, or whose endpoint is already down, are
        dropped from the kill-set so the edge accounting stays exact.
    """

    __slots__ = ("base", "name", "down_nodes", "id_bound", "_mask", "_cut")

    def __init__(
        self,
        base: NeighborOracle,
        down_nodes: Iterable[Node] = (),
        killed_links: Iterable = (),
        name: str = "",
    ) -> None:
        self.base = base
        self.name = name or f"{getattr(base, 'name', '') or 'oracle'}-survivors"
        down = frozenset(
            v for v in down_nodes if oracle_has_node(base, v)
        )
        self.down_nodes: FrozenSet[Node] = down
        # killed links as an endpoint map: each live endpoint → the
        # partners it lost, so a link is checked only at its two ends
        cut: Dict[Node, Set[Node]] = {}
        for link in killed_links:
            endpoints = tuple(link)
            if len(endpoints) != 2:
                continue
            u, v = endpoints
            if u in down or v in down:
                continue
            if oracle_has_edge(base, u, v):
                cut.setdefault(u, set()).add(v)
                cut.setdefault(v, set()).add(u)
        self._cut = cut
        self.id_bound = id_bound(base)
        if self.id_bound is not None:
            mask = bytearray(self.id_bound)
            for v in sorted(down):
                mask[v] = 1
            self._mask: Optional[bytearray] = mask
        else:
            self._mask = None

    @property
    def killed_links(self) -> FrozenSet[frozenset]:
        """The surviving kill-set as :func:`~repro.graphs.graph.edge_key` sets."""
        return frozenset(
            edge_key(u, w) for u, partners in self._cut.items() for w in partners
        )

    # ------------------------------------------------------------------
    # NeighborOracle surface
    # ------------------------------------------------------------------

    def num_nodes(self) -> int:
        """Surviving node count."""
        return self.base.num_nodes() - len(self.down_nodes)

    def degree(self, node: Node) -> int:
        """Surviving degree of ``node``."""
        return len(self.neighbors(node))

    def neighbors(self, node: Node) -> List[Node]:
        """Base neighbours minus down nodes and killed links.

        Raises
        ------
        NodeNotFoundError
            If ``node`` is down or unknown to the base.
        """
        if not self.has_node(node):
            raise NodeNotFoundError(node)
        mask = self._mask
        if mask is not None:
            out = [w for w in self.base.neighbors(node) if not mask[w]]
        elif self.down_nodes:
            down = self.down_nodes
            out = [w for w in self.base.neighbors(node) if w not in down]
        else:
            out = list(self.base.neighbors(node))
        partners = self._cut.get(node)
        if partners:
            out = [w for w in out if w not in partners]
        return out

    def iter_nodes(self) -> Iterator[Node]:
        """Base node order with the down nodes skipped."""
        if not self.down_nodes:
            return iter(self.base.iter_nodes())
        down = self.down_nodes
        return (v for v in self.base.iter_nodes() if v not in down)

    # ------------------------------------------------------------------
    # Graph-compatible conveniences
    # ------------------------------------------------------------------

    def has_node(self, node: Node) -> bool:
        """True when ``node`` is alive and exists in the base."""
        if node in self.down_nodes:
            return False
        return oracle_has_node(self.base, node)

    def has_edge(self, u: Node, v: Node) -> bool:
        """True when the surviving edge (u, v) exists."""
        if not (self.has_node(u) and self.has_node(v)):
            return False
        if v in self._cut.get(u, ()):
            return False
        return oracle_has_edge(self.base, u, v)

    def nodes(self) -> List[Node]:
        """All surviving nodes as a list (O(n) — prefer iter_nodes)."""
        return list(self.iter_nodes())

    def number_of_nodes(self) -> int:
        """Surviving node count (Graph spelling)."""
        return self.num_nodes()

    def number_of_edges(self) -> int:
        """Surviving edge count — exact, O(#failures · max-degree)."""
        down = self.down_nodes
        incident = sum(self.base.degree(v) for v in down)
        internal = sum(
            1 for v in down for w in self.base.neighbors(v) if w in down
        )
        removed = incident - internal // 2
        return oracle_num_edges(self.base) - removed - self._killed_count()

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __len__(self) -> int:
        return self.num_nodes()

    def __iter__(self) -> Iterator[Node]:
        return self.iter_nodes()

    def __repr__(self) -> str:
        return (
            f"<FaultView base={self.name!r} n={self.num_nodes()} "
            f"down={len(self.down_nodes)} killed={self._killed_count()}>"
        )

    # ------------------------------------------------------------------
    # Damage introspection (what recertification needs)
    # ------------------------------------------------------------------

    def _killed_count(self) -> int:
        return sum(map(len, self._cut.values())) // 2

    @property
    def damage(self) -> int:
        """Total failure count: down nodes plus killed links."""
        return len(self.down_nodes) + self._killed_count()

    def damage_frontier(self) -> List[Node]:
        """Surviving nodes adjacent to the damage, sorted by ``repr``.

        These are the nodes whose degrees and local cuts a
        recertification pass must recheck: everything farther away
        still sees exactly the pristine construction.
        """
        down = self.down_nodes
        frontier = set(self._cut)  # killed-link endpoints are all alive
        for v in down:
            frontier.update(w for w in self.base.neighbors(v) if w not in down)
        return sorted(frontier, key=repr)


def component_size(oracle: NeighborOracle, source: Node) -> int:
    """Size of ``source``'s connected component — the BFS witness.

    Runs on any oracle; with dense int ids the visited state (see
    :func:`visited_state`) is a flat ``bytearray``, so a million-node
    sweep costs ~1 byte per node of working state.  On a
    :class:`FaultView` the sweep reads the base rows directly: the
    visited state starts with the down nodes marked, and killed links
    are filtered only at their endpoints.

    Each call adds one ``bfs.sweeps`` and the component size to
    ``bfs.nodes`` in the active :mod:`repro.obs` collector.

    Raises
    ------
    NodeNotFoundError
        If ``source`` is not a node of the oracle.
    """
    if not oracle_has_node(oracle, source):
        raise NodeNotFoundError(source)
    cut: Dict[Node, Set[Node]] = {}
    if isinstance(oracle, FaultView):
        neighbors = oracle.base.neighbors
        cut = oracle._cut
        if oracle._mask is not None:
            seen: Any = bytearray(oracle._mask)
        else:
            seen = _SeenSet(oracle.down_nodes)
    else:
        neighbors = oracle.neighbors
        seen = visited_state(oracle)
    seen[source] = 1
    frontier = [source]
    count = 1
    while frontier:
        next_frontier = []
        append = next_frontier.append
        for node in frontier:
            if node in cut:
                partners = cut[node]
                for w in neighbors(node):
                    if not seen[w] and w not in partners:
                        seen[w] = 1
                        append(w)
                continue
            for w in neighbors(node):
                if not seen[w]:
                    seen[w] = 1
                    append(w)
        count += len(next_frontier)
        frontier = next_frontier
    obs.counter("bfs.sweeps")
    obs.counter("bfs.nodes", count)
    return count
