"""The COYOTE pipeline (Fig. 5): uncertainty bounds + topology in,
optimized routing (and OSPF lies) out.

Stages, mirroring Section V:

1. **DAG construction** — link weights from the chosen heuristic
   (*reverse capacities* or *local search*), shortest-path DAGs, then
   augmentation (Step II).
2. **In-DAG splitting optimization** — robust (cutting-plane) splitting
   optimization against the uncertainty cone, warm-started from the
   ECMP projection and the base-matrix LP optimum, with ECMP as an
   oracle-evaluated fallback.
3. **OSPF translation** — optional: compile the routing into fake-LSA
   "lies" via :mod:`repro.fibbing` (done separately so that algorithmic
   experiments don't pay for it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.config import DEFAULT_CONFIG, SolverConfig
from repro.core.dag_builder import build_dags
from repro.core.evaluate import project_ecmp_into_dags
from repro.core.local_search import local_search_weights
from repro.core.robust import RobustResult, optimize_robust_splitting
from repro.demands.uncertainty import UncertaintySet, oblivious_set, representative_matrix
from repro.ecmp.routing import ecmp_routing
from repro.ecmp.weights import inverse_capacity_weights
from repro.exceptions import SolverError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.lp.dag_flow import dag_optimal_congestion, induced_splitting_ratios
from repro.lp.worst_case import OracleResult
from repro.routing.splitting import Routing

DAG_HEURISTICS = ("inverse_capacity", "local_search")


@dataclass
class CoyoteResult:
    """Everything the pipeline produced.

    Attributes:
        routing: the optimized COYOTE routing configuration.
        dags: the augmented per-destination DAGs.
        weights: the link weights behind the shortest-path DAGs.
        ecmp: the plain ECMP routing for the same weights (baseline).
        oracle: certified worst-case evaluation of ``routing``.
        robust: full trace of the robust optimization.
    """

    routing: Routing
    dags: dict[Node, Dag]
    weights: dict[Edge, float]
    ecmp: Routing
    oracle: OracleResult
    robust: RobustResult = field(repr=False)


class Coyote:
    """COYOTE pipeline driver.

    Example:
        >>> from repro import gravity_matrix, load_topology, margin_box
        >>> net = load_topology("abilene")
        >>> bounds = margin_box(gravity_matrix(net), margin=2.0)
        >>> result = Coyote(net, bounds).run()       # doctest: +SKIP
        >>> result.oracle.ratio                       # doctest: +SKIP
    """

    def __init__(
        self,
        network: Network,
        uncertainty: UncertaintySet | None = None,
        dag_heuristic: str = "inverse_capacity",
        config: SolverConfig = DEFAULT_CONFIG,
    ):
        if dag_heuristic not in DAG_HEURISTICS:
            raise SolverError(
                f"unknown DAG heuristic {dag_heuristic!r}; pick one of {DAG_HEURISTICS}"
            )
        self.network = network
        self.uncertainty = uncertainty or oblivious_set(network.nodes())
        self.dag_heuristic = dag_heuristic
        self.config = config

    # -- stages -----------------------------------------------------------

    def compute_weights(self) -> dict[Edge, float]:
        """Step I weights: reverse capacities or local search (Algorithm 1)."""
        if self.dag_heuristic == "inverse_capacity":
            return inverse_capacity_weights(self.network)
        result = local_search_weights(
            self.network, self.uncertainty, config=self.config.scaled_down()
        )
        return dict(result.weights)

    def compute_dags(self, weights: Mapping[Edge, float]) -> dict[Node, Dag]:
        """Steps I+II: shortest-path DAGs, then augmentation."""
        return build_dags(self.network, weights, augment=True)

    def run(self) -> CoyoteResult:
        """Execute the full pipeline and return the optimized routing."""
        weights = self.compute_weights()
        dags = self.compute_dags(weights)
        ecmp = ecmp_routing(self.network, weights)
        ecmp_projection = project_ecmp_into_dags(ecmp, dags)

        # Warm starts: the ECMP point and the LP optimum for the cone's
        # representative matrix (the "Base" ratios).
        starts = [ecmp_projection.ratios]
        base = representative_matrix(self.uncertainty)
        if base:
            flows = dag_optimal_congestion(self.network, dags, base)
            starts.append(induced_splitting_ratios(dags, flows))

        robust = optimize_robust_splitting(
            self.network,
            dags,
            self.uncertainty,
            config=self.config,
            extra_starts=starts,
            fallbacks=[ecmp_projection],
            name="COYOTE",
        )
        return CoyoteResult(
            routing=robust.routing,
            dags=dags,
            weights=dict(weights),
            ecmp=ecmp,
            oracle=robust.oracle,
            robust=robust,
        )
