"""Result structures produced by a simulation run.

A :class:`SimulationResult` holds byte ledgers at every aggregation level
the paper reports on:

* whole-system (headline savings, Fig. 4's numerator),
* per (ISP, day) -- Fig. 4's daily series,
* per swarm and per content item -- Fig. 2's dots and Fig. 3's CCDFs,
* per user -- Fig. 6's carbon-credit CDF.

Energy models are applied lazily so one run serves both parameter sets.

:class:`ByteLedger`, :class:`UserTraffic` and :class:`SwarmResult`
fold pairwise.  Runs do not merge finished results: every backend
folds packed swarm outputs into one
:class:`~repro.sim.reduce.StreamingReducer` in canonical task order,
which builds the result's dicts once, at the end.
:meth:`SimulationResult.identical_to` is the bit-for-bit equality
behind the runtime's determinism guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Tuple

from repro.core.carbon import UserFootprint
from repro.core.energy import EnergyModel
from repro.sim.accounting import ByteLedger, savings
from repro.sim.policies import SwarmKey

__all__ = ["SwarmResult", "UserTraffic", "SimulationResult"]


@dataclass
class SwarmResult:
    """Outcome of one swarm over the simulated horizon.

    Attributes:
        key: the swarm's identity under the scoping policy.
        ledger: bytes moved for this swarm.
        capacity: measured average concurrent viewers (watch-seconds over
            the horizon -- the empirical analogue of Little's-law ``c``).
        arrival_rate: measured session arrivals per second.
        mean_duration: measured mean session duration in seconds.
    """

    key: SwarmKey
    ledger: ByteLedger
    capacity: float
    arrival_rate: float
    mean_duration: float

    def savings(self, model: EnergyModel) -> float:
        """This swarm's simulated savings under ``model``."""
        return savings(self.ledger, model)

    @classmethod
    def combine(cls, key: SwarmKey, results: Iterable["SwarmResult"]) -> "SwarmResult":
        """Merge sub-results into one result under ``key``.

        Ledgers and capacities add (concurrent viewers across the
        sub-swarms), arrival rates add, mean duration is
        session-weighted.  Associative up to float rounding -- the merge
        primitive behind both content-level roll-ups and the reducer's
        fold of a duplicate swarm key.
        """
        results = list(results)
        ledger = ByteLedger.merged(r.ledger for r in results)
        sessions = sum(r.ledger.sessions for r in results)
        mean_duration = (
            sum(r.mean_duration * r.ledger.sessions for r in results) / sessions
            if sessions
            else 0.0
        )
        return cls(
            key=key,
            ledger=ledger,
            capacity=sum(r.capacity for r in results),
            arrival_rate=sum(r.arrival_rate for r in results),
            mean_duration=mean_duration,
        )


@dataclass(slots=True)
class UserTraffic:
    """Per-user byte totals over the run.

    A hot accounting type -- one instance per user per shard output --
    so ``slots=True`` keeps it dict-free.

    Attributes:
        watched_bits: bits the user streamed (server + peers).
        uploaded_bits: bits the user uploaded to peers.
    """

    watched_bits: float = 0.0
    uploaded_bits: float = 0.0

    def footprint(self) -> UserFootprint:
        """As a :class:`~repro.core.carbon.UserFootprint` for Eq. 13."""
        return UserFootprint(
            watched_bits=self.watched_bits, uploaded_bits=self.uploaded_bits
        )

    def merge(self, other: "UserTraffic") -> None:
        """Fold another user's-worth of traffic into this one in place."""
        self.watched_bits += other.watched_bits
        self.uploaded_bits += other.uploaded_bits

    def copy(self) -> "UserTraffic":
        return UserTraffic(
            watched_bits=self.watched_bits, uploaded_bits=self.uploaded_bits
        )


@dataclass
class SimulationResult:
    """Everything a run produced, aggregated at the paper's levels.

    Attributes:
        total: whole-system ledger.
        per_swarm: ledgers and measured dynamics per swarm key.
        per_isp_day: ledgers keyed by (ISP name, zero-based day).
        per_user: byte totals per user id.
        delta_tau: window size the run used (seconds).
        horizon: trace horizon (seconds).
        upload_ratio: the ``q / beta`` the run was configured with.
    """

    total: ByteLedger
    per_swarm: Dict[SwarmKey, SwarmResult]
    per_isp_day: Dict[Tuple[str, int], ByteLedger]
    per_user: Dict[int, UserTraffic]
    delta_tau: float
    horizon: float
    upload_ratio: float

    def identical_to(self, other: "SimulationResult") -> bool:
        """Exact (bit-for-bit, not approximate) equality at every level.

        The canonical check behind the runtime's determinism guarantee
        -- backends, worker counts and session orderings must all
        satisfy it.  Compares every accounting field (via
        ``_ledger_fingerprint``), so new ledger fields are automatically
        covered.
        """
        return _fingerprint(self) == _fingerprint(other) and (
            self.delta_tau,
            self.upload_ratio,
        ) == (other.delta_tau, other.upload_ratio)

    # ------------------------------------------------------------------
    # Headline numbers
    # ------------------------------------------------------------------

    def savings(self, model: EnergyModel) -> float:
        """System-wide simulated savings ``S_sim`` under ``model``."""
        return savings(self.total, model)

    def offload_fraction(self) -> float:
        """System-wide measured ``G`` (model-independent)."""
        return self.total.offload_fraction

    # ------------------------------------------------------------------
    # Figure-level views
    # ------------------------------------------------------------------

    def isp_names(self) -> List[str]:
        return sorted({isp for isp, _ in self.per_isp_day})

    def days(self) -> List[int]:
        return sorted({day for _, day in self.per_isp_day})

    def daily_savings(self, isp: str, model: EnergyModel) -> List[Tuple[int, float]]:
        """Fig. 4 series: (day, savings) for one ISP, day-ordered."""
        rows = []
        for (name, day), ledger in self.per_isp_day.items():
            if name == isp:
                rows.append((day, savings(ledger, model)))
        return sorted(rows)

    def isp_ledger(self, isp: str) -> ByteLedger:
        """All of one ISP's traffic, merged across days."""
        return ByteLedger.merged(
            ledger for (name, _), ledger in self.per_isp_day.items() if name == isp
        )

    def per_content_results(self) -> Dict[str, SwarmResult]:
        """Swarms merged up to content-item level (Fig. 3's unit).

        Capacity adds across sub-swarms (concurrent viewers of the item
        across ISPs and bitrate classes); arrival rates add; mean
        duration is session-weighted.
        """
        merged: Dict[str, List[SwarmResult]] = {}
        for result in self.per_swarm.values():
            merged.setdefault(result.key.content_id, []).append(result)
        return {
            content_id: SwarmResult.combine(SwarmKey(content_id=content_id), results)
            for content_id, results in merged.items()
        }

    def user_footprints(self) -> Dict[int, UserFootprint]:
        """Per-user footprints for the Fig. 6 carbon-credit CDF."""
        return {uid: traffic.footprint() for uid, traffic in self.per_user.items()}

    def carbon_positive_share(self, model: EnergyModel) -> float:
        """Fraction of users whose credit covers their footprint."""
        footprints = self.user_footprints()
        if not footprints:
            return 0.0
        positive = sum(
            1 for fp in footprints.values() if fp.is_carbon_positive(model)
        )
        return positive / len(footprints)


def _ledger_fingerprint(ledger: ByteLedger) -> Tuple:
    """Every field of a ledger as a sortable tuple.

    Derived from ``dataclasses.fields`` so fields added to
    :class:`ByteLedger` later are covered automatically -- this feeds
    :meth:`SimulationResult.identical_to`, which must never silently
    skip a field.
    """
    values = []
    for spec in fields(ByteLedger):
        value = getattr(ledger, spec.name)
        if isinstance(value, dict):
            value = tuple(sorted((key.value, bits) for key, bits in value.items()))
        values.append(value)
    return tuple(values)


def _fingerprint(result: SimulationResult) -> Tuple:
    """Every value of a result but its run parameters, as a tuple."""
    return (
        tuple(
            sorted(
                (key.sort_key(), _ledger_fingerprint(r.ledger), r.capacity,
                 r.arrival_rate, r.mean_duration)
                for key, r in result.per_swarm.items()
            )
        ),
        _ledger_fingerprint(result.total),
        tuple(
            sorted(
                (isp_day, _ledger_fingerprint(ledger))
                for isp_day, ledger in result.per_isp_day.items()
            )
        ),
        tuple(
            sorted(
                (uid, t.watched_bits, t.uploaded_bits)
                for uid, t in result.per_user.items()
            )
        ),
        result.horizon,
    )
