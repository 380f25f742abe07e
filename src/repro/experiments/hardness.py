"""The negative results: Theorem 1 (Figs. 2-3) and Theorem 4 (Fig. 4).

Theorem 1 reduces BIPARTITION to OBLIVIOUS IP ROUTING: a positive
instance admits a routing with oblivious ratio exactly 4/3 (Lemma 2),
a negative one does not (Lemma 3).  The driver constructs the reduction
network, builds Lemma 2's explicit routing for a given partition, and
oracle-verifies its ratio; a deliberately unbalanced partition shows the
degradation.

Theorem 4 exhibits an instance where *any* oblivious per-destination
routing is Omega(|V|) from the demands-aware optimum: an n-path with
unit links to a sink.  The driver verifies both sides: the demands-aware
optimum routes each spike at congestion 1, while the oblivious oracle
pins every candidate routing at ratio >= n (some node must send all its
traffic on its direct link, or a forwarding loop would exist).
"""

from __future__ import annotations

from typing import Sequence

from repro.config import ExperimentConfig
from repro.demands.matrix import DemandMatrix
from repro.demands.uncertainty import oblivious_pairs
from repro.exceptions import ExperimentError
from repro.graph.dag import Dag
from repro.lp.mcf import min_congestion
from repro.lp.worst_case import WorstCaseOracle
from repro.routing.splitting import Routing
from repro.topologies.generators import integer_gadget_network, path_sink_network
from repro.utils.tables import Table


def lemma2_routing(weights: Sequence[int], partition: set[int]) -> Routing:
    """The explicit oblivious routing of Lemma 2 for a given partition.

    Args:
        weights: the BIPARTITION instance (w_i > 0).
        partition: indices assigned to P1 (the rest form P2).

    The construction (quoting the proof): at s1, the split toward gadget
    ``i`` is ``4 w_i / 3 SUM`` if ``i in P1`` else ``2 w_i / 3 SUM``; at
    ``x1_i`` the split toward ``x2_i`` is ``1/2`` if ``i in P1`` else 0
    (mirrored for s2 / P2); all remaining flow goes through ``m_i``.
    """
    network = integer_gadget_network(weights)
    total = float(sum(weights))
    edges: list[tuple] = []
    ratios: dict[tuple, float] = {}
    for i, w in enumerate(weights):
        x1, x2, mid = f"x1_{i}", f"x2_{i}", f"m_{i}"
        in_p1 = i in partition
        edges.extend([("s1", x1), ("s2", x2), (mid, "t"), (x1, mid), (x2, mid)])
        ratios[("s1", x1)] = (4.0 if in_p1 else 2.0) * w / (3.0 * total)
        ratios[("s2", x2)] = (2.0 if in_p1 else 4.0) * w / (3.0 * total)
        ratios[(mid, "t")] = 1.0
        if in_p1:
            edges.append((x1, x2))
            ratios[(x1, x2)] = 0.5
            ratios[(x1, mid)] = 0.5
            ratios[(x2, mid)] = 1.0
        else:
            edges.append((x2, x1))
            ratios[(x2, x1)] = 0.5
            ratios[(x2, mid)] = 0.5
            ratios[(x1, mid)] = 1.0
    # Lemma 2's source splits sum to exactly 1 only for balanced
    # partitions; renormalize so unbalanced demos stay valid routings
    # (relative proportions, which drive the bound, are unchanged).
    for source in ("s1", "s2"):
        row = [e for e in ratios if e[0] == source]
        row_sum = sum(ratios[e] for e in row)
        for e in row:
            ratios[e] /= row_sum
    dag = Dag("t", edges, network)
    return Routing({"t": dag}, {"t": ratios}, name=f"Lemma2(P1={sorted(partition)})")


def theorem1_table(
    config: ExperimentConfig | None = None,
    weights: Sequence[int] = (3, 1, 2),
) -> Table:
    """Verify Lemma 2/3 numerically on a BIPARTITION instance.

    The default instance (3, 1, 2) is positive: P1={0} vs P2={1, 2} both
    sum to 3, so the balanced routing achieves ratio 4/3 while a fully
    unbalanced partition does not.
    """
    config = config or ExperimentConfig.from_environment()
    total = sum(weights)
    if total % 2 != 0:
        raise ExperimentError(
            f"weights {weights} have odd sum {total}: not a positive instance"
        )
    network = integer_gadget_network(weights)
    uncertainty = oblivious_pairs([("s1", "t"), ("s2", "t")])
    oracle = WorstCaseOracle(network, uncertainty, dags=None, config=config.solver)

    half = total // 2
    balanced: set[int] | None = None
    for mask in range(1 << len(weights)):
        chosen = {i for i in range(len(weights)) if mask & (1 << i)}
        if sum(weights[i] for i in chosen) == half:
            balanced = chosen
            break
    if balanced is None:
        raise ExperimentError(f"no balanced bipartition exists for {weights}")
    unbalanced: set[int] = set(range(len(weights)))  # everything in P1

    table = Table(
        "Theorem 1 — BIPARTITION gadget oblivious ratios",
        ["partition", "ratio", "paper bound"],
    )
    for label, part in (("balanced", balanced), ("unbalanced", unbalanced)):
        routing = lemma2_routing(weights, part)
        ratio = oracle.ratio(routing)
        bound = 4.0 / 3.0 if label == "balanced" else float("nan")
        table.add_row(f"{label} P1={sorted(part)}", ratio, bound)
    table.add_note(f"instance weights={list(weights)}, SUM={total}")
    table.add_note(
        "Lemma 2: a balanced partition yields oblivious ratio exactly 4/3; "
        "Lemma 3: without one, no routing achieves it."
    )
    return table


def direct_link_routing(length: int) -> Routing:
    """The canonical oblivious routing on Theorem 4's instance.

    Every path node forwards straight to the sink.  Any per-destination
    DAG must contain at least one node doing this (acyclicity), which is
    the crux of the lower bound; the all-direct configuration makes the
    Omega(n) blow-up visible on every node simultaneously.
    """
    network = path_sink_network(length)
    edges = [(f"x{i}", "t") for i in range(1, length + 1)]
    dag = Dag("t", edges, network)
    ratios = {edge: 1.0 for edge in edges}
    return Routing({"t": dag}, {"t": ratios}, name="direct-links")


def theorem4_table(
    config: ExperimentConfig | None = None,
    lengths: Sequence[int] = (4, 6, 8),
) -> Table:
    """The Omega(|V|) separation of Theorem 4, per instance size.

    For each length ``n``: the spike demand ``x_i -> t`` of volume ``n``
    has demands-aware optimum 1 (spread over the path), yet the
    oblivious routing's ratio is ``n``.
    """
    config = config or ExperimentConfig.from_environment()
    table = Table(
        "Theorem 4 — oblivious vs demands-aware separation",
        ["n", "OPT(spike)", "oblivious ratio", "paper bound"],
    )
    for n in lengths:
        network = path_sink_network(n)
        routing = direct_link_routing(n)
        spike = DemandMatrix({("x1", "t"): float(n)})
        optimum = min_congestion(network, spike).alpha
        pairs = [(f"x{i}", "t") for i in range(1, n + 1)]
        oracle = WorstCaseOracle(
            network, oblivious_pairs(pairs), dags=None, config=config.solver
        )
        ratio = oracle.ratio(routing)
        table.add_row(n, optimum, ratio, float(n))
    table.add_note(
        "OPT(spike) is the demands-aware optimum of routing n units from x1; "
        "the oblivious ratio of any PD routing is at least n (Theorem 4)."
    )
    return table
