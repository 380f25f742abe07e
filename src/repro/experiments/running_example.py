"""The running example (Fig. 1, Section II, Appendix B).

Three routings on the 4-node unit-capacity network, evaluated obliviously
over the two users' demands:

* the ECMP configuration of Fig. 1b — oblivious performance ratio 3/2;
* the hand-tuned configuration of Fig. 1c — ratio 4/3;
* COYOTE's optimized splitting — ratio ``sqrt(5) - 1 ~= 1.236`` (the
  inverse golden ratio appears as the optimal split, Appendix B).

The driver recomputes each number with the slave-LP oracle and solves
the splitting optimization with both the GP and the smoothed-minimax
optimizers, so this one experiment exercises most of the stack.
"""

from __future__ import annotations

import math

from repro.config import ExperimentConfig
from repro.core.gp import optimize_splitting_gp
from repro.core.softmax_opt import optimize_splitting_softmax
from repro.demands.matrix import DemandMatrix
from repro.demands.uncertainty import oblivious_pairs
from repro.graph.dag import Dag
from repro.lp.worst_case import WorstCaseOracle, normalize_to_unit_optimum
from repro.routing.splitting import Routing
from repro.topologies.generators import running_example_network
from repro.utils.tables import Table

GOLDEN_RATIO_UTILIZATION = math.sqrt(5.0) - 1.0  # ~1.2360679...


def example_dag(network) -> Dag:
    """The forwarding DAG of Fig. 1b-1d: s1 -> {s2, v}, s2 -> {t, v}, v -> t."""
    return Dag(
        "t",
        [("s1", "s2"), ("s1", "v"), ("s2", "t"), ("s2", "v"), ("v", "t")],
        network,
    )


def fig1b_routing(network) -> Routing:
    """Traditional ECMP (Fig. 1b): equal splits at s1 and s2."""
    dag = example_dag(network)
    ratios = {
        ("s1", "s2"): 0.5,
        ("s1", "v"): 0.5,
        ("s2", "t"): 0.5,
        ("s2", "v"): 0.5,
        ("v", "t"): 1.0,
    }
    return Routing({"t": dag}, {"t": ratios}, name="ECMP (Fig. 1b)")


def fig1c_routing(network) -> Routing:
    """The improved static configuration of Fig. 1c (2/3 - 1/3 at s2)."""
    dag = example_dag(network)
    ratios = {
        ("s1", "s2"): 0.5,
        ("s1", "v"): 0.5,
        ("s2", "t"): 2.0 / 3.0,
        ("s2", "v"): 1.0 / 3.0,
        ("v", "t"): 1.0,
    }
    return Routing({"t": dag}, {"t": ratios}, name="COYOTE (Fig. 1c)")


def running_example_table(config: ExperimentConfig | None = None) -> Table:
    """Oblivious ratios for Fig. 1's configurations plus the optimum."""
    config = config or ExperimentConfig.from_environment()
    network = running_example_network()
    dag = example_dag(network)
    dags = {"t": dag}
    users = [("s1", "t"), ("s2", "t")]
    uncertainty = oblivious_pairs(users, label="two-user oblivious")
    oracle = WorstCaseOracle(network, uncertainty, dags=dags, config=config.solver)

    # The extreme demands (Appendix B): all capacity to one user.
    d1 = normalize_to_unit_optimum(network, DemandMatrix({("s1", "t"): 2.0}), dags=dags)
    d2 = normalize_to_unit_optimum(network, DemandMatrix({("s2", "t"): 2.0}), dags=dags)

    gp = optimize_splitting_gp(network, dags, [d1, d2], config.solver)
    softmax = optimize_splitting_softmax(network, dags, [d1, d2], config.solver)
    best = gp if gp.objective <= softmax.objective else softmax
    optimal = best.routing
    optimal.name = "COYOTE (optimized)"

    table = Table(
        "Fig. 1 / Appendix B — running example oblivious ratios",
        ["scheme", "measured", "paper"],
    )
    table.add_row("ECMP (Fig. 1b)", oracle.ratio(fig1b_routing(network)), 1.5)
    table.add_row("COYOTE (Fig. 1c)", oracle.ratio(fig1c_routing(network)), 4.0 / 3.0)
    table.add_row(
        "COYOTE (optimized)",
        oracle.ratio(optimal),
        GOLDEN_RATIO_UTILIZATION,
    )
    phi12 = optimal.ratios["t"].get(("s1", "s2"), 0.0)
    phi2t = optimal.ratios["t"].get(("s2", "t"), 0.0)
    table.add_note(
        f"optimized splits phi(s1,s2)={phi12:.4f}, phi(s2,t)={phi2t:.4f}; "
        f"Appendix B's closed form is (sqrt(5)-1)/2 ~= 0.6180"
    )
    table.add_note(
        f"GP objective {gp.objective:.6f} vs smoothed-minimax {softmax.objective:.6f} "
        f"(both should approach sqrt(5)-1 = {GOLDEN_RATIO_UTILIZATION:.6f})"
    )
    return table
