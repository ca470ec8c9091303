"""One ISP's metropolitan access network (paper Fig. 1 / Table III).

The tree is regular: ``num_pops`` points of presence under one core
router, with ``num_exchanges`` exchange points distributed over the PoPs
in contiguous blocks (the first ``ceil(E/P)`` exchanges under PoP 0 and
so on).  Users attach uniformly at random to exchange points, which is
exactly the assumption behind the paper's localisation probabilities
``p_layer = 1 / n_layer``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List

from repro.core.localisation import LayerProbabilities
from repro.topology.layers import NetworkLayer
from repro.topology.nodes import (
    AttachmentPoint,
    intern_attachment,
    lowest_common_layer,
)

__all__ = ["ISPNetwork", "LONDON_EXCHANGES", "LONDON_POPS"]

#: Node counts of the large national ISP the paper reports (Table III).
LONDON_EXCHANGES = 345
LONDON_POPS = 9


@dataclass(frozen=True)
class ISPNetwork:
    """A three-layer metropolitan ISP tree.

    Attributes:
        name: ISP identifier used in attachment points and reports.
        num_exchanges: number of exchange points (leaves of the shared
            infrastructure), default the paper's 345.
        num_pops: number of points of presence, default the paper's 9.
    """

    name: str
    num_exchanges: int = LONDON_EXCHANGES
    num_pops: int = LONDON_POPS

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("ISP name must be non-empty")
        if self.num_pops < 1:
            raise ValueError(f"num_pops must be >= 1, got {self.num_pops}")
        if self.num_exchanges < self.num_pops:
            raise ValueError(
                f"num_exchanges ({self.num_exchanges}) must be >= num_pops ({self.num_pops})"
            )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @cached_property
    def exchanges_per_pop(self) -> int:
        """Block size of the contiguous exchange -> PoP assignment."""
        return math.ceil(self.num_exchanges / self.num_pops)

    def pop_of_exchange(self, exchange: int) -> int:
        """The PoP aggregating a given exchange point."""
        if not 0 <= exchange < self.num_exchanges:
            raise ValueError(
                f"exchange must be in [0, {self.num_exchanges}), got {exchange}"
            )
        return exchange // self.exchanges_per_pop

    def attachment(self, exchange: int) -> AttachmentPoint:
        """The attachment point for a user behind ``exchange``.

        Interned: every user behind the same exchange shares one
        flyweight instance (see
        :func:`repro.topology.nodes.intern_attachment`), so bulk
        generation stops duplicating identical attachment objects.
        """
        return intern_attachment(
            self.name, self.pop_of_exchange(exchange), exchange
        )

    def sample_attachment(self, rng: random.Random) -> AttachmentPoint:
        """Uniformly sample a user attachment point (paper's assumption)."""
        return self.attachment(rng.randrange(self.num_exchanges))

    def common_layer(self, a: AttachmentPoint, b: AttachmentPoint) -> NetworkLayer:
        """Lowest common layer of two of *this* ISP's subscribers."""
        for point in (a, b):
            if point.isp != self.name:
                raise ValueError(
                    f"attachment point {point!r} does not belong to ISP {self.name!r}"
                )
        return lowest_common_layer(a, b)

    # ------------------------------------------------------------------
    # Localisation probabilities (Table III)
    # ------------------------------------------------------------------

    def layer_probabilities(self) -> LayerProbabilities:
        """The ``p_layer = 1/n_layer`` probabilities for this tree."""
        return LayerProbabilities.from_counts(
            exchanges=self.num_exchanges, pops=self.num_pops, cores=1
        )

    def localisation_table(self) -> List[Dict[str, object]]:
        """Rows of the paper's Table III for this ISP."""
        probs = self.layer_probabilities()
        return [
            {
                "layer": NetworkLayer.EXCHANGE.paper_name,
                "count": self.num_exchanges,
                "probability": probs.exchange,
            },
            {
                "layer": NetworkLayer.POP.paper_name,
                "count": self.num_pops,
                "probability": probs.pop,
            },
            {
                "layer": NetworkLayer.CORE.paper_name,
                "count": 1,
                "probability": probs.core,
            },
        ]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_networkx(self):
        """Export the tree as a ``networkx.Graph`` (optional dependency).

        Nodes carry a ``layer`` attribute; edges connect core -> PoPs ->
        exchange points.  Useful for visual inspection, not used by the
        simulator (the regular structure makes explicit graphs
        unnecessary).
        """
        import networkx as nx

        graph = nx.Graph()
        core = f"{self.name}/core"
        graph.add_node(core, layer=str(NetworkLayer.CORE))
        for pop in range(self.num_pops):
            pop_node = f"{self.name}/pop{pop}"
            graph.add_node(pop_node, layer=str(NetworkLayer.POP))
            graph.add_edge(core, pop_node)
        for exchange in range(self.num_exchanges):
            exp_node = f"{self.name}/exp{exchange}"
            graph.add_node(exp_node, layer=str(NetworkLayer.EXCHANGE))
            graph.add_edge(f"{self.name}/pop{self.pop_of_exchange(exchange)}", exp_node)
        return graph
