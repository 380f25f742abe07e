"""The Fibbing controller: install lies, verify the realized forwarding.

This is the reproduction of the paper's prototype controller (built on
Vissicchio et al.'s Fibbing controller [9] plus the splitting
approximation of [18]):

1. apportion the target splitting ratios into bounded multiplicities;
2. synthesize one fake LSA per (router, next hop, virtual copy);
3. inject them into an :class:`repro.ospf.domain.OspfDomain` and flood;
4. extract every router's FIB and check that the realized forwarding
   DAGs and splitting fractions match the target.

The verification step is the point: nothing in the OSPF simulator knows
about COYOTE, so a passing report demonstrates that plain SPF over the
falsified database reproduces the optimized configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.fibbing.lies import lies_for_routing
from repro.graph.network import Edge, Network, Node
from repro.ospf.domain import OspfDomain
from repro.routing.splitting import Routing


@dataclass
class FibbingReport:
    """Result of compiling + installing + verifying one routing.

    Attributes:
        lies_injected: number of fake LSAs flooded.
        realized: the routing extracted from the converged FIBs.
        intended: the apportioned routing the lies were compiled from.
        dag_mismatches: (destination, router) pairs whose realized
            next-hop set differs from the intended one.
        max_ratio_error: worst |realized - intended| splitting fraction.
        target_ratio_error: worst |realized - original target| fraction
            (includes the apportionment error, i.e. Fig. 10's quantity).
    """

    lies_injected: int
    realized: Routing
    intended: Routing
    dag_mismatches: list[tuple[Node, Node]] = field(default_factory=list)
    max_ratio_error: float = 0.0
    target_ratio_error: float = 0.0

    @property
    def faithful(self) -> bool:
        """True when OSPF realized the intended configuration exactly."""
        return not self.dag_mismatches and self.max_ratio_error < 1e-9


class FibbingController:
    """Compiles routings to lies against a concrete OSPF domain."""

    def __init__(self, network: Network, weights: Mapping[Edge, float]):
        self.network = network
        self.weights = dict(weights)

    def build_domain(self) -> OspfDomain:
        """A fresh OSPF domain with per-router loopback prefixes."""
        domain = OspfDomain(self.network, self.weights)
        domain.advertise_loopbacks()
        domain.flood()
        return domain

    def install(
        self,
        routing: Routing,
        budget: int = 16,
        domain: OspfDomain | None = None,
    ) -> FibbingReport:
        """Compile ``routing`` into lies, flood them, verify the FIBs.

        Args:
            routing: target configuration (DAGs + splitting ratios).
            budget: virtual links per interface for apportionment.
            domain: reuse an existing domain (lies are cleared first).
        """
        if domain is None:
            domain = self.build_domain()
        else:
            domain.clear_lies()
        lies, intended = lies_for_routing(self.network, self.weights, routing, budget)
        domain.inject_lies(lies)
        domain.flood()

        dag_mismatches: list[tuple[Node, Node]] = []
        max_ratio_error = 0.0
        target_ratio_error = 0.0
        realized_dags = {}
        realized_ratios: dict[Node, dict[Edge, float]] = {}
        for t, dag in routing.dags.items():
            prefix = str(t)
            realized_dag = domain.forwarding_dag(prefix)
            realized = domain.splitting_ratios(prefix)
            realized_dags[t] = realized_dag
            realized_ratios[t] = realized
            intended_t = intended.ratios.get(t, {})
            for node in dag.nodes():
                if node == t:
                    continue
                want = {
                    head
                    for head in dag.out_neighbors(node)
                    if intended_t.get((node, head), 0.0) > 0
                }
                have = {
                    head
                    for head in realized_dag.out_neighbors(node)
                    if realized.get((node, head), 0.0) > 0
                }
                if want != have:
                    dag_mismatches.append((t, node))
            for edge, fraction in intended_t.items():
                delta = abs(realized.get(edge, 0.0) - fraction)
                max_ratio_error = max(max_ratio_error, delta)
                target = routing.ratios.get(t, {}).get(edge, 0.0)
                target_ratio_error = max(
                    target_ratio_error, abs(realized.get(edge, 0.0) - target)
                )

        realized_routing = Routing(
            realized_dags, realized_ratios, name=f"{routing.name}-realized"
        )
        return FibbingReport(
            lies_injected=len(lies),
            realized=realized_routing,
            intended=intended,
            dag_mismatches=dag_mismatches,
            max_ratio_error=max_ratio_error,
            target_ratio_error=target_ratio_error,
        )
