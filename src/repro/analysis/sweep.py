"""Parameter sweeps: the engine behind every table and figure.

A sweep maps a function over a grid of parameter points, collecting
rows.  :class:`SweepResult` keeps the rows tagged with their parameters
so benchmarks can both print them (via :mod:`repro.analysis.tables`) and
assert shapes (via :mod:`repro.analysis.stats`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: the parameter dict and the measured record."""

    params: Dict[str, Any]
    record: Dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        """Look a key up in the record first, then in the parameters."""
        if key in self.record:
            return self.record[key]
        return self.params[key]


@dataclass
class SweepResult:
    """All measured points of one sweep."""

    points: List[SweepPoint] = field(default_factory=list)

    def add(self, params: Dict[str, Any], record: Dict[str, Any]) -> None:
        """Record one measurement."""
        self.points.append(SweepPoint(params=params, record=record))

    def column(self, key: str) -> List[Any]:
        """Extract one column across all points."""
        return [point[key] for point in self.points]

    def where(self, **filters: Any) -> "SweepResult":
        """Sub-sweep with parameter equality filters applied."""
        selected = [
            p
            for p in self.points
            if all(p.params.get(k) == v for k, v in filters.items())
        ]
        return SweepResult(points=selected)

    def rows(self, keys: Sequence[str]) -> List[List[Any]]:
        """Rows of the given keys, in sweep order (table-ready)."""
        return [[point[key] for key in keys] for point in self.points]


def run_sweep(
    grid: Dict[str, Iterable[Any]],
    measure: Callable[..., Dict[str, Any]],
    skip: Callable[..., bool] = None,
    workers: int = None,
    checkpoint: Any = None,
    resume: bool = False,
    timeout: float = None,
    retries: int = None,
) -> SweepResult:
    """Run ``measure(**params)`` over the cartesian product of ``grid``.

    Parameters
    ----------
    grid:
        Mapping of parameter name → values; order of keys defines the
        nesting order (last key varies fastest).
    measure:
        Returns the record dict for one point.
    skip:
        Optional predicate; truthy means the point is skipped (e.g.
        infeasible (n, k) combinations).
    workers:
        Fan the grid points out across this many worker processes via
        the execution engine (:mod:`repro.exec`).  ``None``/``1`` run
        serially; for any count the sweep is collected in grid order,
        so as long as ``measure`` is deterministic in its parameters
        the :class:`SweepResult` is identical to a serial run.
    checkpoint / resume:
        Journal completed points to an append-only JSONL file
        (:class:`~repro.exec.checkpoint.CheckpointJournal`) keyed by the
        point's parameters; with ``resume=True`` journaled points are
        skipped and merged back in grid order, byte-identical to an
        uninterrupted sweep.
    timeout / retries:
        Per-point wall-clock budget (the worker is SIGKILLed when
        exceeded) and bounded retries with deterministic backoff.
        Analysis grids must be complete to be meaningful, so a point
        that fails for good is never quarantined: when ``measure``
        raised, its own exception is re-raised with the remote
        traceback attached; a timeout or a dead worker raises
        :class:`~repro.errors.ExecutionError`.

    Examples
    --------
    >>> result = run_sweep({"x": [1, 2]}, lambda x: {"y": x * x})
    >>> result.column("y")
    [1, 4]
    """
    names = list(grid.keys())
    points: List[Dict[str, Any]] = []
    for values in product(*(list(grid[name]) for name in names)):
        params = dict(zip(names, values))
        if skip is not None and skip(**params):
            continue
        points.append(params)

    from repro import obs
    from repro.exec.checkpoint import checkpoint_key, resume_map

    with obs.span("sweep", points=len(points)) as sweep_span:
        records, _, resumed = resume_map(
            lambda params: measure(**params),
            points,
            [repr(params) for params in points],
            lambda i: checkpoint_key("sweep-point", *sorted(points[i].items())),
            workers=workers,
            checkpoint=checkpoint,
            resume=resume,
            timeout=timeout,
            retries=retries,
        )
        sweep_span.set(resumed=resumed)
    result = SweepResult()
    for params, record in zip(points, records):
        result.add(params, record)
    return result


def geometric_sizes(start: int, stop: int, factor: float = 2.0) -> List[int]:
    """Geometric size ladder for n-sweeps: start, start·f, … ≤ stop.

    Raises
    ------
    ValueError
        If ``factor <= 1`` or ``start < 1``.
    """
    if factor <= 1:
        raise ValueError(f"factor must exceed 1, got {factor}")
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    sizes: List[int] = []
    current = float(start)
    while round(current) <= stop:
        size = round(current)
        if not sizes or size != sizes[-1]:
            sizes.append(size)
        current *= factor
    return sizes
