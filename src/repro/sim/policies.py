"""Swarm scoping policies: who is allowed to share with whom.

The paper restricts swarms three ways (Section IV.B.1):

* per **content item** -- only viewers of the same programme share;
* per **bitrate class** -- "the swarm ... is further split based on
  average bitrates" (a 72-inch TV cannot stream from a phone's rendition);
* per **ISP** -- "we consider ISP-friendly P2P swarming and always match
  users with other peers within the same ISP", a deliberate lower bound
  on savings.

:class:`SwarmPolicy` turns those switches into a hashable swarm key per
session.  The ablation benchmarks flip the switches to quantify what each
restriction costs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.trace.events import Session

__all__ = ["SwarmKey", "SwarmPolicy", "EpochPolicy", "PAPER_POLICY"]


@dataclass(frozen=True)
class SwarmKey:
    """Identity of one swarm under a scoping policy.

    Attributes:
        content_id: the programme being shared (always scoped).
        isp: ISP name, or None when cross-ISP sharing is allowed.
        bitrate_class: bitrate label, or None when bitrates mix freely.
        epoch: simulation epoch index under a time-scoped policy
            (:class:`EpochPolicy`), or None for the batch policies.
    """

    content_id: str
    isp: Optional[str] = None
    bitrate_class: Optional[str] = None
    epoch: Optional[int] = None

    def sort_key(self) -> Tuple[int, str, str, str]:
        """A total order over swarm keys (``None`` scope fields first).

        The parallel runtime shards and reduces swarms in this canonical
        order, which is what makes results independent of trace
        ordering, backend and completion order.  The epoch leads the
        order, so under a time-scoped policy the canonical task order
        over a whole trace is the concatenation of the per-epoch
        canonical orders -- the invariant the always-on service's
        incremental fold relies on (see :mod:`repro.sim.service`).
        """
        return (
            self.epoch if self.epoch is not None else -1,
            self.content_id,
            self.isp or "",
            self.bitrate_class or "",
        )


@dataclass(frozen=True)
class SwarmPolicy:
    """Switches controlling swarm membership.

    Attributes:
        split_by_isp: keep swarms ISP-friendly (paper default True).
        split_by_bitrate: split swarms by bitrate class (paper default
            True).
    """

    split_by_isp: bool = True
    split_by_bitrate: bool = True

    def bitrate_class(self, bitrate: float) -> str:
        """Coarse label for a bitrate (exact Mbps value).

        Sessions share a swarm only when their labels match; with the
        synthetic device mix there are four classes (0.8/1.5/3.0/5.0
        Mbps), mirroring the paper's per-bitrate split.
        """
        if bitrate <= 0:
            raise ValueError(f"bitrate must be > 0, got {bitrate!r}")
        return f"{bitrate / 1e6:.2f}Mbps"

    def key_for(self, session: Session) -> SwarmKey:
        """The swarm a session belongs to under this policy."""
        return SwarmKey(
            content_id=session.content_id,
            isp=session.isp if self.split_by_isp else None,
            bitrate_class=(
                self.bitrate_class(session.bitrate) if self.split_by_bitrate else None
            ),
        )


@dataclass(frozen=True)
class EpochPolicy:
    """A base policy additionally scoped to fixed-length time epochs.

    Sessions only share a swarm when they belong to the same epoch --
    the bounded simulation windows the always-on service closes one by
    one (:mod:`repro.sim.service`).  A session's epoch is determined by
    its **start** time (``floor(start / epoch_seconds)``); a session
    that runs past its epoch boundary stays in the swarm it joined, so
    epoch membership is a pure function of the session and never
    depends on how the stream was chunked.

    Because :meth:`SwarmKey.sort_key` leads with the epoch, the
    canonical task order of a batch run under this policy is
    epoch-major: exactly the order in which the service folds epochs as
    it closes them, which is what makes the service's cumulative result
    bit-for-bit equal to the batch run over the same trace.

    Attributes:
        base: the underlying scoping policy (content/ISP/bitrate).
        epoch_seconds: epoch length in simulated seconds.
    """

    base: SwarmPolicy
    epoch_seconds: float

    #: Marks keys as time-dependent: grouping strategies must compute
    #: the key per session instead of memoizing it on the raw content/
    #: ISP/bitrate fields (see ``ExternalGrouping.plan``).
    time_scoped = True

    def __post_init__(self) -> None:
        if self.epoch_seconds <= 0:
            raise ValueError(
                f"epoch_seconds must be > 0, got {self.epoch_seconds!r}"
            )

    def epoch_of(self, start: float) -> int:
        """The epoch index owning a session that starts at ``start``."""
        return int(start // self.epoch_seconds)

    def epoch_bounds(self, epoch: int) -> Tuple[float, float]:
        """The ``[start, end)`` time interval of one epoch."""
        return (epoch * self.epoch_seconds, (epoch + 1) * self.epoch_seconds)

    def key_for(self, session: Session) -> SwarmKey:
        """The base policy's key, stamped with the session's epoch."""
        return replace(
            self.base.key_for(session), epoch=self.epoch_of(session.start)
        )


#: The paper's configuration: ISP-friendly, bitrate-split swarms.
PAPER_POLICY = SwarmPolicy()
