"""Implicit Jenkins–Demers oracle: ``neighbors(v)`` by arithmetic.

The JD construction is completely determined by its
:class:`~repro.core.jenkins_demers.JDPlan` — the conversion count α and
the added-leaf pair count p.  Because growth converts leaves in FIFO
order, every structural question about the abstract tree has a closed
form, so the pasted graph never needs to be materialised:

* the tree has ``m = α + 1`` interiors; conversion ``j`` converts leaf
  ``j`` into interior ``j + 1``;
* leaf slot ids run ``0 … T − 1`` with ``T = k + α(k − 1)``; slots
  ``0 … α − 1`` are converted, slots ``α … T − 1`` are live;
* the parent of leaf slot ``j`` is interior ``0`` when ``j < k`` and
  ``(j − k) // (k − 1) + 1`` otherwise; interior ``i ≥ 1``'s parent is
  the parent of the leaf it replaced, ``leaf_parent(i − 1)``;
* interior ``i``'s leaf slots are ``0 … k − 1`` for the root and
  ``k + (i − 1)(k − 1) … k + i(k − 1) − 1`` otherwise;
* the p host interiors for added-leaf pairs are the first p non-root
  interiors with a live leaf child — the *consecutive* ids
  ``i_min … i_min + p − 1`` with ``i_min = max(1, leaf_parent(α))``,
  matching :func:`repro.core.jenkins_demers.jd_schema` exactly.

Graph nodes get **dense int ids** in a fixed layout — interior
``(copy c, id i)`` is ``c·m + i``; live structural leaf ``j`` is
``k·m + (j − α)``; added leaf ``e`` is ``k·m + live + e`` — so CSR
compilation keeps no label table and flooding runs on flat int arrays.
:meth:`label_of` / :meth:`id_of` give the exact bijection to the
``("T", copy, i)`` / ``("L", leaf_id)`` labels
:func:`~repro.core.tree_schema.paste_copies` would have used, which is
how the equivalence tests pin this oracle to the materialised graph.

Memory: O(1) per instance, O(k) per ``neighbors`` call; the graph
itself never exists.
"""

from __future__ import annotations

from typing import Hashable, Iterator, List, Tuple

from repro.errors import NodeNotFoundError
from repro.core.jenkins_demers import RULE_NAME, JDPlan, jd_feasibility

Node = Hashable


def _leaf_parent(j: int, k: int) -> int:
    """Interior id the structural leaf slot ``j`` hangs off."""
    if j < k:
        return 0
    return (j - k) // (k - 1) + 1


def _leaf_slot_range(i: int, k: int) -> Tuple[int, int]:
    """Half-open range of structural leaf-slot ids under interior ``i``."""
    if i == 0:
        return 0, k
    return k + (i - 1) * (k - 1), k + i * (k - 1)


class ImplicitJDOracle:
    """The Jenkins–Demers LHG for (n, k) as an arithmetic neighbour oracle.

    Satisfies the :class:`~repro.graphs.oracle.NeighborOracle` protocol
    with dense int node ids ``0 … n − 1``.

    Raises
    ------
    InfeasiblePairError
        If the JD rule has no graph for (n, k) — exactly when
        :func:`~repro.core.jenkins_demers.jd_schema` would refuse.
    """

    __slots__ = (
        "n",
        "k",
        "name",
        "_alpha",
        "_pairs",
        "_m",
        "_slots",
        "_live",
        "_i_min",
    )

    def __init__(self, n: int, k: int) -> None:
        plan = jd_feasibility(n, k)
        if plan is None:
            from repro.core.jenkins_demers import jd_schema

            jd_schema(n, k)  # raises InfeasiblePairError with the real reason
            raise AssertionError("unreachable")  # pragma: no cover
        self.n = n
        self.k = k
        self.name = f"jenkins_demers({n},{k})"
        self._alpha = plan.conversions
        self._pairs = plan.extra_pairs
        self._m = plan.conversions + 1
        self._slots = k + plan.conversions * (k - 1)
        self._live = self._slots - plan.conversions
        self._i_min = max(1, _leaf_parent(plan.conversions, k))

    # ------------------------------------------------------------------
    # Shape accounting
    # ------------------------------------------------------------------

    @property
    def plan(self) -> JDPlan:
        """The feasible build plan this oracle realises."""
        return JDPlan(
            n=self.n, k=self.k, conversions=self._alpha, extra_pairs=self._pairs
        )

    @property
    def rule(self) -> str:
        """Name of the construction rule."""
        return RULE_NAME

    @property
    def dense_labels(self) -> bool:
        """Always True: node ids are the dense ints ``range(n)``."""
        return True

    def _leaf_base(self) -> int:
        return self.k * self._m

    def _is_host(self, interior_id: int) -> bool:
        return (
            self._pairs > 0
            and self._i_min <= interior_id < self._i_min + self._pairs
        )

    def height(self) -> int:
        """Height of the abstract tree (O(log n) parent walk)."""
        if self._alpha == 0:
            return 1
        depth = 0
        interior = self._alpha  # parent of the deepest leaf slot
        while interior != 0:
            interior = _leaf_parent(interior - 1, self.k)
            depth += 1
        return depth + 1

    # ------------------------------------------------------------------
    # NeighborOracle surface
    # ------------------------------------------------------------------

    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.n

    def degree(self, node: Node) -> int:
        """Degree of ``node`` — every node has degree k except added-leaf
        hosts, which have k + 2."""
        v = self._check(node)
        leaf_base = self._leaf_base()
        if v < leaf_base:
            interior = v % self._m
            return self.k + 2 if self._is_host(interior) else self.k
        return self.k

    def neighbors(self, node: Node) -> List[int]:
        """Neighbours of ``node``, computed arithmetically (O(k))."""
        v = self._check(node)
        k, m, alpha = self.k, self._m, self._alpha
        leaf_base = self._leaf_base()
        if v < leaf_base:
            copy, interior = divmod(v, m)
            base = copy * m
            out = []
            if interior > 0:
                out.append(base + _leaf_parent(interior - 1, k))
            lo, hi = _leaf_slot_range(interior, k)
            for slot in range(lo, hi):
                if slot < alpha:
                    out.append(base + slot + 1)
                else:
                    out.append(leaf_base + slot - alpha)
            if self._is_host(interior):
                first = leaf_base + self._live + 2 * (interior - self._i_min)
                out.append(first)
                out.append(first + 1)
            return out
        offset = v - leaf_base
        if offset < self._live:
            parent = _leaf_parent(offset + alpha, k)
        else:
            parent = self._i_min + (offset - self._live) // 2
        return [copy * m + parent for copy in range(k)]

    def iter_nodes(self) -> Iterator[int]:
        """Nodes are the dense ints 0 … n − 1, in order."""
        return iter(range(self.n))

    # ------------------------------------------------------------------
    # Graph-compatible conveniences
    # ------------------------------------------------------------------

    def _check(self, node: Node) -> int:
        if (
            isinstance(node, int)
            and node is not True
            and node is not False
            and 0 <= node < self.n
        ):
            return node
        raise NodeNotFoundError(node)

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return self.iter_nodes()

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __repr__(self) -> str:
        return (
            f"<ImplicitJDOracle n={self.n} k={self.k} "
            f"conversions={self._alpha} extra_pairs={self._pairs}>"
        )

    def has_node(self, node: Node) -> bool:
        """True for the ints 0 … n − 1."""
        try:
            self._check(node)
        except NodeNotFoundError:
            return False
        return True

    def has_edge(self, u: Node, v: Node) -> bool:
        """True when the undirected edge (u, v) exists — O(k) scan."""
        if not (self.has_node(u) and self.has_node(v)):
            return False
        return v in self.neighbors(u)

    def nodes(self) -> List[int]:
        """All nodes as a list (prefer :meth:`iter_nodes` at scale)."""
        return list(range(self.n))

    def number_of_nodes(self) -> int:
        """Number of nodes (Graph spelling)."""
        return self.n

    def number_of_edges(self) -> int:
        """Edge count from the plan: k·(m − 1) tree edges plus k per leaf."""
        leaves = self._live + 2 * self._pairs
        return self.k * (self._m - 1) + self.k * leaves

    # ------------------------------------------------------------------
    # Label bijection to the materialised construction
    # ------------------------------------------------------------------

    def label_of(self, node_id: int) -> Tuple:
        """The ``paste_copies`` label of dense id ``node_id``.

        Interiors map to ``("T", copy, interior_id)``; live structural
        leaf slots and added leaves map to ``("L", leaf_slot_id)``.
        """
        v = self._check(node_id)
        leaf_base = self._leaf_base()
        if v < leaf_base:
            copy, interior = divmod(v, self._m)
            return ("T", copy, interior)
        offset = v - leaf_base
        if offset < self._live:
            return ("L", offset + self._alpha)
        return ("L", self._slots + (offset - self._live))

    def id_of(self, label: Node) -> int:
        """Inverse of :meth:`label_of`.

        Raises
        ------
        NodeNotFoundError
            If the label does not name a node of this construction.
        """
        if isinstance(label, tuple) and len(label) == 3 and label[0] == "T":
            _, copy, interior = label
            if 0 <= copy < self.k and 0 <= interior < self._m:
                return copy * self._m + interior
        elif isinstance(label, tuple) and len(label) == 2 and label[0] == "L":
            _, slot = label
            if self._alpha <= slot < self._slots:
                return self._leaf_base() + (slot - self._alpha)
            extra = slot - self._slots
            if 0 <= extra < 2 * self._pairs:
                return self._leaf_base() + self._live + extra
        raise NodeNotFoundError(label)

    # ------------------------------------------------------------------
    # Structural certification
    # ------------------------------------------------------------------

    def structural_proofs(self):
        """Certify LHG Properties 1–4 from the construction arithmetic.

        Returns a :class:`repro.core.certificates.StructuralProofs`.
        The premises are *checked*, not assumed: the host window must
        keep every added-leaf host degree-isolated from its tree parent
        and children (the P3 degree witness), and the tree-height bound
        must fit inside the logarithmic diameter budget (P4).
        """
        from repro.core.certificates import assemble_structural_proofs

        # P3 degree witness: every edge needs an endpoint of degree
        # exactly k.  Leaf edges always have one (leaves have degree k);
        # an interior-interior edge fails only if both endpoints are
        # hosts, so check each host's tree parent and interior children.
        witness_ok = True
        detail = ""
        for host in range(self._i_min, self._i_min + self._pairs):
            parent = _leaf_parent(host - 1, self.k)
            if self._is_host(parent):
                witness_ok = False
                detail = f"hosts {parent} and {host} are tree-adjacent"
                break
            lo, hi = _leaf_slot_range(host, self.k)
            for slot in range(lo, min(hi, self._alpha)):
                if self._is_host(slot + 1):
                    witness_ok = False
                    detail = f"hosts {host} and {slot + 1} are tree-adjacent"
                    break
            if not witness_ok:
                break

        return assemble_structural_proofs(
            n=self.n,
            k=self.k,
            rule=RULE_NAME,
            height=self.height(),
            tree_ok=True,
            tree_detail=(
                f"JD plan α={self._alpha}, p={self._pairs}: FIFO-grown tree "
                f"with m={self._m} interiors, all leaves shared"
            ),
            degree_witness_ok=witness_ok,
            degree_witness_detail=detail
            or (
                f"all leaves have degree k={self.k}; every interior-interior "
                f"edge touches a non-host interior of degree exactly k"
            ),
            num_edges=self.number_of_edges(),
        )
