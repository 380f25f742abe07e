"""Failure-scenario precomputation (Section VI).

"Routing configurations for failure scenarios (e.g., every single
link/node failure) can be precomputed" — COYOTE's routing is static, so
an operator prepares one configuration per anticipated failure and
switches when OSPF reconverges.  This module enumerates single-link
failure scenarios, re-runs the pipeline's DAG construction and robust
splitting on each degraded topology, and reports the certified ratios,
giving the data an operator needs to judge failure headroom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.config import DEFAULT_CONFIG, SolverConfig
from repro.core.dag_builder import build_dags
from repro.core.evaluate import project_ecmp_into_dags
from repro.core.robust import optimize_robust_splitting
from repro.demands.uncertainty import UncertaintySet
from repro.ecmp.routing import ecmp_routing
from repro.ecmp.weights import inverse_capacity_weights
from repro.graph.network import Network
from repro.routing.splitting import Routing


@dataclass
class FailureScenario:
    """One precomputed configuration for a degraded topology.

    Attributes:
        failed_link: the undirected link taken down (canonical order).
        routing: COYOTE's routing for the degraded network.
        ratio: certified worst-case ratio on the degraded network.
        ecmp_ratio: plain ECMP's ratio there (the do-nothing baseline).
    """

    failed_link: tuple
    routing: Routing
    ratio: float
    ecmp_ratio: float


@dataclass
class FailurePlan:
    """The full single-link-failure sweep."""

    baseline_ratio: float
    scenarios: list[FailureScenario] = field(default_factory=list)
    skipped: list[tuple] = field(default_factory=list)

    def worst_scenario(self) -> FailureScenario | None:
        return max(self.scenarios, key=lambda s: s.ratio, default=None)

    def max_degradation(self) -> float:
        """Worst ratio across scenarios relative to the intact network."""
        worst = self.worst_scenario()
        if worst is None or self.baseline_ratio <= 0:
            return 1.0
        return worst.ratio / self.baseline_ratio


def _undirected_links(network: Network) -> Iterator[tuple]:
    seen: set[frozenset] = set()
    for (u, v) in network.edges():
        link = frozenset((u, v))
        if link not in seen:
            seen.add(link)
            yield (u, v)


def degraded_network(network: Network, link: tuple) -> Network:
    """A copy of the network with both directions of ``link`` removed."""
    u, v = link
    removed = {(u, v), (v, u)}
    survivor = Network(f"{network.name}-minus-{u}-{v}")
    for node in network.nodes():
        survivor.add_node(node)
    for edge in network.edges():
        if edge not in removed:
            survivor.add_edge(*edge, network.capacity(*edge))
    return survivor


def precompute_failure_plan(
    network: Network,
    uncertainty: UncertaintySet,
    config: SolverConfig = DEFAULT_CONFIG,
    max_scenarios: int | None = None,
) -> FailurePlan:
    """COYOTE configurations for every single-link failure.

    Links whose removal disconnects the network are recorded in
    ``skipped`` (no all-pairs TE configuration exists for them).

    Args:
        network: the intact topology.
        uncertainty: the demand cone (restricted per scenario to pairs
            both of whose endpoints remain connected — here: all pairs,
            since we skip disconnecting links).
        config: solver knobs; failure sweeps typically use
            ``config.scaled_down()``.
        max_scenarios: optionally cap the number of scenarios (testing).
    """
    baseline = _coyote_ratio(network, uncertainty, config)
    plan = FailurePlan(baseline_ratio=baseline.ratio)
    for index, link in enumerate(_undirected_links(network)):
        if max_scenarios is not None and index >= max_scenarios:
            break
        survivor = degraded_network(network, link)
        if not survivor.is_strongly_connected():
            plan.skipped.append(link)
            continue
        scenario = _coyote_ratio(survivor, uncertainty, config)
        plan.scenarios.append(
            FailureScenario(
                failed_link=link,
                routing=scenario.routing,
                ratio=scenario.ratio,
                ecmp_ratio=scenario.ecmp_ratio,
            )
        )
    return plan


@dataclass
class _ScenarioResult:
    routing: Routing
    ratio: float
    ecmp_ratio: float


def _coyote_ratio(
    network: Network, uncertainty: UncertaintySet, config: SolverConfig
) -> _ScenarioResult:
    weights = inverse_capacity_weights(network)
    dags = build_dags(network, weights, augment=True)
    ecmp = ecmp_routing(network, weights)
    projection = project_ecmp_into_dags(ecmp, dags)
    result = optimize_robust_splitting(
        network,
        dags,
        uncertainty,
        config=config,
        extra_starts=[projection.ratios],
        fallbacks=[projection],
    )
    # The solve's oracle: the ECMP score reuses the solve's memo (the
    # projection fallback has ECMP's objectives) and its bounds.
    ecmp_ratio = result.evaluator.ratio(ecmp)
    return _ScenarioResult(result.routing, result.oracle.ratio, ecmp_ratio)
