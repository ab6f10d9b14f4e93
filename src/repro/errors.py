"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  Sub-hierarchies
mirror the package layout:

* :class:`GraphError` — the graph substrate (:mod:`repro.graphs`).
* :class:`ConstructionError` — LHG builders (:mod:`repro.core`).
* :class:`SimulationError` — the flooding simulator (:mod:`repro.flooding`).
* :class:`ExecutionError` — the execution engine (:mod:`repro.exec`).

Errors carry the offending parameters as attributes where that helps a
caller recover (for example :class:`InfeasiblePairError` exposes ``n`` and
``k`` so a caller can pick the nearest feasible pair).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Base class for errors raised by the graph substrate."""


class NodeNotFoundError(GraphError, KeyError):
    """A referenced node is not present in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """A referenced edge is not present in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class DisconnectedGraphError(GraphError):
    """An operation that requires a connected graph got a disconnected one."""


class GeneratorParameterError(GraphError, ValueError):
    """A graph generator was called with parameters outside its domain."""


class ConstructionError(ReproError):
    """Base class for errors raised by the LHG construction modules."""


class InfeasiblePairError(ConstructionError, ValueError):
    """No graph exists for the requested ``(n, k)`` under the given rule.

    Attributes
    ----------
    n, k:
        The infeasible pair.
    rule:
        Name of the construction rule that rejected the pair
        (``"jenkins-demers"``, ``"k-tree"``, ``"k-diamond"``).
    reason:
        Human-readable explanation of why the pair is infeasible.
    """

    def __init__(self, n: int, k: int, rule: str, reason: str) -> None:
        super().__init__(f"no {rule} graph exists for (n={n}, k={k}): {reason}")
        self.n = n
        self.k = k
        self.rule = rule
        self.reason = reason


class CertificateError(ConstructionError):
    """A construction certificate is inconsistent with its graph."""


class ExecutionError(ReproError):
    """The execution engine could not complete a map.

    Raised by the executor when an item exhausts its retries under
    ``failure_mode="raise"`` and no Python exception of the cell's own
    stands behind the failure: a timeout, a worker death, or a result
    or exception that would not pickle.  The structured
    :class:`~repro.exec.supervisor.ItemFailure` record is attached as
    :attr:`failure` (``None`` for engine-level failures without a
    single offending item).
    """

    def __init__(self, message: str, failure: object = None) -> None:
        super().__init__(message)
        self.failure = failure


class SimulationError(ReproError):
    """Base class for errors raised by the flooding simulator."""


class SchedulingError(SimulationError):
    """An event was scheduled into the past or after simulation shutdown."""


class ProtocolError(SimulationError):
    """A protocol implementation violated the simulator's contract."""
