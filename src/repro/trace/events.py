"""Session records: the atoms of a viewing trace.

The paper's trace has per-session granularity: "timestamps of events
(i.e., start times and durations), and bitrates of user sessions, are
taken from the trace" (Section IV.A).  A :class:`Session` carries exactly
those fields plus the viewer's network position, which the synthetic
generator assigns and a real trace would join from subscriber data.

Times are float seconds from the trace epoch (t = 0 is midnight starting
day 0); bitrates are bits/second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, List, Tuple

from repro.topology.nodes import AttachmentPoint

__all__ = ["Session", "Trace"]

SECONDS_PER_DAY = 86_400.0

_INF = float("inf")


@dataclass(frozen=True, slots=True)
class Session:
    """One viewing session.

    Attributes:
        session_id: unique id within the trace.
        user_id: id of the viewer (stable across the trace).
        content_id: id of the content item being watched.
        start: session start time, seconds from the trace epoch.
        duration: seconds of content actually streamed (> 0).
        bitrate: streaming bitrate in bits/second.
        attachment: the viewer's position in the ISP hierarchy.
        device: coarse device class ("tv", "desktop", "mobile", ...);
            informational -- the energy models deliberately exclude
            end-user devices (paper Section III.D).
    """

    session_id: int
    user_id: int
    content_id: str
    start: float
    duration: float
    bitrate: float
    attachment: AttachmentPoint
    device: str = "unknown"

    def __post_init__(self) -> None:
        # Negated comparisons, so that NaN fails them too.
        if not self.start >= 0:
            raise ValueError(f"start must be >= 0, got {self.start!r}")
        if not self.duration > 0:
            raise ValueError(f"duration must be > 0, got {self.duration!r}")
        if not 0 < self.bitrate < _INF:
            raise ValueError(f"bitrate must be finite and > 0, got {self.bitrate!r}")
        if not self.content_id:
            raise ValueError("content_id must be non-empty")

    @property
    def end(self) -> float:
        """Session end time, seconds from the trace epoch."""
        return self.start + self.duration

    @property
    def bits_watched(self) -> float:
        """Total useful traffic of the session, ``beta * duration`` bits."""
        return self.bitrate * self.duration

    @property
    def isp(self) -> str:
        """The viewer's ISP (shorthand for ``attachment.isp``)."""
        return self.attachment.isp

    @property
    def day(self) -> int:
        """Zero-based day-of-trace the session *starts* on."""
        return int(self.start // SECONDS_PER_DAY)

    def overlaps(self, t_from: float, t_to: float) -> bool:
        """True when the session is live during any part of [t_from, t_to)."""
        return self.start < t_to and self.end > t_from


@dataclass(frozen=True)
class Trace:
    """An immutable, start-time-ordered collection of sessions.

    Attributes:
        sessions: sessions sorted by ``start`` (enforced at creation).
        horizon: trace length in seconds; defaults to the latest session
            end, rounded up to a whole day.
    """

    sessions: Tuple[Session, ...]
    horizon: float = field(default=0.0)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.sessions, key=lambda s: (s.start, s.session_id)))
        object.__setattr__(self, "sessions", ordered)
        if self.horizon <= 0.0:
            end = max((s.end for s in ordered), default=0.0)
            days = max(1, -(-int(end) // int(SECONDS_PER_DAY)))
            object.__setattr__(self, "horizon", days * SECONDS_PER_DAY)
        elif ordered and ordered[-1].end > self.horizon:
            raise ValueError(
                f"horizon {self.horizon} shorter than last session end "
                f"{ordered[-1].end}"
            )

    @classmethod
    def from_sessions(
        cls, sessions: Iterable[Session], horizon: float = 0.0
    ) -> "Trace":
        return cls(sessions=tuple(sessions), horizon=horizon)

    def __len__(self) -> int:
        return len(self.sessions)

    def __iter__(self) -> Iterator[Session]:
        return iter(self.sessions)

    @property
    def num_days(self) -> int:
        """Trace length in whole days."""
        return int(self.horizon // SECONDS_PER_DAY)

    @cached_property
    def user_ids(self) -> List[int]:
        """Distinct user ids, ascending (computed once, then cached)."""
        return sorted({s.user_id for s in self.sessions})

    @cached_property
    def content_ids(self) -> List[str]:
        """Distinct content ids, ascending (computed once, then cached)."""
        return sorted({s.content_id for s in self.sessions})

    @cached_property
    def isps(self) -> List[str]:
        """Distinct ISP names, ascending (computed once, then cached)."""
        return sorted({s.isp for s in self.sessions})

    def for_content(self, content_id: str) -> "Trace":
        """Sub-trace of one content item (same horizon)."""
        return Trace.from_sessions(
            (s for s in self.sessions if s.content_id == content_id), self.horizon
        )

    def for_isp(self, isp: str) -> "Trace":
        """Sub-trace of one ISP's subscribers (same horizon)."""
        return Trace.from_sessions(
            (s for s in self.sessions if s.isp == isp), self.horizon
        )

    def between(self, t_from: float, t_to: float) -> "Trace":
        """Sub-trace of sessions overlapping [t_from, t_to) (same horizon)."""
        if t_to <= t_from:
            raise ValueError(f"empty interval [{t_from}, {t_to})")
        return Trace.from_sessions(
            (s for s in self.sessions if s.overlaps(t_from, t_to)), self.horizon
        )

    @cached_property
    def _total_bits(self) -> float:
        return sum(s.bits_watched for s in self.sessions)

    def total_bits(self) -> float:
        """Total useful traffic across all sessions (cached after the
        first call -- repeated access never rescans the trace)."""
        return self._total_bits

    def total_watch_seconds(self) -> float:
        """Total user-seconds of viewing."""
        return sum(s.duration for s in self.sessions)

    def mean_concurrency(self) -> float:
        """Average concurrent viewers over the horizon (the trace-wide
        analogue of a swarm's capacity)."""
        if self.horizon == 0:
            return 0.0
        return self.total_watch_seconds() / self.horizon
