"""A city served by several ISPs with known market shares.

The paper's empirical analysis splits London's viewers across the top 5
ISPs and keeps swarms ISP-friendly (peers are only matched within one
ISP).  :class:`CityNetwork` owns the ISP trees and the market-share
distribution users are drawn from.

The per-ISP subscriber shares of the UK market around the trace period
are not disclosed in the paper; the defaults below follow the publicly
reported ordering of the large UK fixed-line providers (a dominant
incumbent plus a long tail) and are configurable.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from repro.topology.isp import ISPNetwork
from repro.topology.nodes import AttachmentPoint

__all__ = ["CityNetwork", "default_london", "DEFAULT_ISP_SHARES"]

#: Market shares for the city's top-5 ISPs (largest first); they need not
#: sum to 1 -- the remainder is simply not simulated, like the paper's
#: focus on the top 5.
DEFAULT_ISP_SHARES: Tuple[float, ...] = (0.32, 0.26, 0.18, 0.14, 0.10)


@dataclass(frozen=True)
class CityNetwork:
    """The ISPs serving one metropolitan area, with market shares.

    Attributes:
        name: city label for reports.
        isps: the ISP trees, largest market share first.
        shares: relative subscriber shares, aligned with ``isps``.
    """

    name: str
    isps: Tuple[ISPNetwork, ...]
    shares: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.isps:
            raise ValueError("a city needs at least one ISP")
        if len(self.isps) != len(self.shares):
            raise ValueError(
                f"{len(self.isps)} ISPs but {len(self.shares)} shares provided"
            )
        if any(share <= 0 for share in self.shares):
            raise ValueError(f"shares must be > 0, got {self.shares}")
        names = [isp.name for isp in self.isps]
        if len(set(names)) != len(names):
            raise ValueError(f"ISP names must be unique, got {names}")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def isp(self, name: str) -> ISPNetwork:
        """The ISP tree with the given name."""
        for isp in self.isps:
            if isp.name == name:
                return isp
        raise KeyError(f"no ISP named {name!r} in {self.name}")

    @property
    def isp_names(self) -> List[str]:
        return [isp.name for isp in self.isps]

    def normalised_shares(self) -> Dict[str, float]:
        """Shares rescaled to sum to 1 over the modelled ISPs."""
        total = sum(self.shares)
        return {isp.name: share / total for isp, share in zip(self.isps, self.shares)}

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    @cached_property
    def _cumulative_shares(self) -> List[float]:
        """Running sums of ``shares``, the inverse-CDF table of :meth:`sample_isp`."""
        return list(itertools.accumulate(self.shares))

    def sample_isp(self, rng: random.Random) -> ISPNetwork:
        """Draw an ISP according to market share."""
        cumulative = self._cumulative_shares
        point = rng.random() * cumulative[-1]
        return self.isps[bisect.bisect_right(cumulative, point)]

    def sample_attachment(self, rng: random.Random) -> AttachmentPoint:
        """Draw a user position: ISP by share, exchange uniformly."""
        return self.sample_isp(rng).sample_attachment(rng)


def default_london(
    num_isps: int = 5,
    shares: Sequence[float] = DEFAULT_ISP_SHARES,
    *,
    num_exchanges: int = 345,
    num_pops: int = 9,
) -> CityNetwork:
    """The paper's London setting: top-5 ISPs, 345/9/1 trees each.

    The paper reports the 345/9/1 hierarchy for one major ISP; absent
    disclosed numbers for the rest we give every ISP the same regular
    structure (their localisation probabilities are what matter, and
    those follow from the counts).

    Args:
        num_isps: how many ISPs to model (the paper uses the top 5).
        shares: market shares, largest first; truncated/validated against
            ``num_isps``.
        num_exchanges: exchange points per ISP.
        num_pops: PoPs per ISP.
    """
    if num_isps < 1:
        raise ValueError(f"num_isps must be >= 1, got {num_isps}")
    if len(shares) < num_isps:
        raise ValueError(
            f"need at least {num_isps} shares, got {len(shares)}"
        )
    isps = tuple(
        ISPNetwork(f"ISP-{i + 1}", num_exchanges=num_exchanges, num_pops=num_pops)
        for i in range(num_isps)
    )
    return CityNetwork(name="London", isps=isps, shares=tuple(shares[:num_isps]))
