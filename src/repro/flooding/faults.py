"""Pluggable per-link message-fault models for the transmit path.

The base :class:`~repro.flooding.network.Network` already models the
paper's adversary (crash-stop nodes, fail-stop links) plus i.i.d.
message loss.  A :class:`FaultModel` generalises the message-level part:
for every message crossing a link it decides the fate of the *delivered
copies* — drop the message, deliver it once, deliver it several times
(duplication), or deliver copies with extra latency (which reorders
them against later traffic).

The contract is a single method, :meth:`FaultModel.copies`, returning
one extra-delay value per copy that should be delivered:

* ``[]``     — the message is dropped on this link;
* ``[0.0]``  — normal delivery (the latency model alone decides timing);
* ``[0, 0]`` — the receiver gets two copies (duplication);
* ``[2.5]``  — one copy, delayed 2.5 time units beyond the sampled
  latency — later messages on the link can overtake it (reordering).

All randomness is owned by the model behind an explicit seed, so a run
with a fault model remains a pure function of its seeds (the repo-wide
determinism contract).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.errors import SimulationError
from repro.graphs.graph import edge_key

NodeId = Hashable


class FaultModel:
    """Base class: decide the fate of one message on link (u, v).

    The default is a perfect link; subclasses override :meth:`copies`.
    """

    def copies(self, u: NodeId, v: NodeId) -> List[float]:
        """Extra delays, one per delivered copy (empty list = drop)."""
        return [0.0]

    def identity(self) -> Optional[Tuple[Any, ...]]:
        """Class name plus constructor parameters, or ``None``.

        The same contract as
        :meth:`~repro.flooding.network.LatencyModel.identity`: a stable
        rendering for checkpoint keys, ``None`` when there is none.
        """
        return None


@dataclass(frozen=True)
class LinkFaultProfile:
    """Per-message fault probabilities for one (class of) link.

    Attributes
    ----------
    drop:
        Probability the message is lost outright.
    duplicate:
        Probability a surviving message is delivered twice.
    reorder:
        Probability a surviving copy is held back by ``reorder_delay``
        extra time units (letting later traffic overtake it).
    reorder_delay:
        The extra latency applied to held-back copies.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_delay: float = 2.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise SimulationError(
                    f"{name} probability must be in [0, 1), got {p}"
                )
        if self.reorder_delay < 0:
            raise SimulationError(
                f"reorder_delay must be non-negative, got {self.reorder_delay}"
            )


PERFECT_LINK = LinkFaultProfile()


class RandomFaultModel(FaultModel):
    """Seeded i.i.d. drop / duplicate / reorder faults, per link.

    Parameters
    ----------
    profile:
        Default :class:`LinkFaultProfile` applied to every link.
    per_link:
        Optional ``{(u, v): LinkFaultProfile}`` overrides (undirected —
        ``(u, v)`` and ``(v, u)`` name the same link).
    seed:
        Seed for the model's private RNG; identical seeds reproduce
        identical fault sequences for identical transmit sequences.
    """

    def __init__(
        self,
        profile: LinkFaultProfile = PERFECT_LINK,
        per_link: Optional[Mapping[Tuple[NodeId, NodeId], LinkFaultProfile]] = None,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self._per_link: Dict[frozenset, LinkFaultProfile] = {
            edge_key(u, v): link_profile
            for (u, v), link_profile in (per_link or {}).items()
        }
        self.seed = seed
        self._rng = random.Random(seed)

    def profile_for(self, u: NodeId, v: NodeId) -> LinkFaultProfile:
        """The profile governing link (u, v)."""
        return self._per_link.get(edge_key(u, v), self.profile)

    def _copy_delay(self, profile: LinkFaultProfile) -> float:
        if profile.reorder and self._rng.random() < profile.reorder:
            return profile.reorder_delay
        return 0.0

    def copies(self, u: NodeId, v: NodeId) -> List[float]:
        profile = self.profile_for(u, v)
        if profile.drop and self._rng.random() < profile.drop:
            return []
        delays = [self._copy_delay(profile)]
        if profile.duplicate and self._rng.random() < profile.duplicate:
            delays.append(self._copy_delay(profile))
        return delays

    def identity(self) -> Optional[Tuple[Any, ...]]:
        per_link = sorted(
            (
                (tuple(sorted(link, key=repr)), profile)
                for link, profile in self._per_link.items()
            ),
            key=repr,
        )
        return (type(self).__name__, self.profile, tuple(per_link), self.seed)


def lossy_links(rate: float, seed: int = 0) -> RandomFaultModel:
    """A fault model dropping each message i.i.d. with ``rate``."""
    return RandomFaultModel(LinkFaultProfile(drop=rate), seed=seed)


def noisy_links(
    drop: float = 0.0,
    duplicate: float = 0.0,
    reorder: float = 0.0,
    reorder_delay: float = 2.0,
    seed: int = 0,
) -> RandomFaultModel:
    """Convenience builder for a uniform drop/duplicate/reorder model."""
    return RandomFaultModel(
        LinkFaultProfile(
            drop=drop,
            duplicate=duplicate,
            reorder=reorder,
            reorder_delay=reorder_delay,
        ),
        seed=seed,
    )
