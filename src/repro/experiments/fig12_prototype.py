"""Fig. 12: the prototype experiment (mininet stand-in).

Topology 12a: sources s1, s2 and a target t advertising two prefixes
(t1, t2), every link 1 Mbps.  Three 15-second UDP phases:
``(s1->t1, s2->t2) = (0, 2), (1, 1), (2, 0)`` Mbps.

Schemes:

* **TE1** — both sources use only their direct link (one shared DAG);
* **TE2** — s1 splits between t and s2, s2 goes direct (the other
  legal shared DAG; TE3 is its mirror image and omitted as in the
  paper);
* **COYOTE** — *per-prefix* DAGs realized through actual OSPF lies:
  traffic to t1 is split at s1, traffic to t2 is split at s2.  The
  forwarding state is extracted from a converged
  :class:`repro.ospf.domain.OspfDomain` with the fake LSAs installed, so this
  experiment exercises the whole pipeline down to the FIBs.

The emulator reports per-phase drop rates; the paper's reading is that
every ECMP-compatible single-DAG scheme drops 25-50% of packets in some
phase while COYOTE's per-prefix lies eliminate the loss.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ExperimentConfig
from repro.ecmp.weights import unit_weights
from repro.exceptions import ExperimentError
from repro.fibbing.lies import lies_for_destination
from repro.flowsim.packet import (
    CbrFlow,
    PacketSimulator,
    PrefixForwarding,
    forwarding_from_ospf,
)
from repro.ospf.domain import OspfDomain
from repro.topologies.generators import prototype_network
from repro.utils.tables import Table

#: (s1 -> t1, s2 -> t2) offered load per phase, in Mbps.
PHASES: tuple[tuple[float, float], ...] = ((0.0, 2.0), (1.0, 1.0), (2.0, 0.0))
PHASE_SECONDS = 15.0
PPS_PER_MBPS = 100.0  # 1250-byte packets


@dataclass
class SchemeForwarding:
    """Named per-prefix forwarding state for one TE scheme."""

    name: str
    tables: dict[str, PrefixForwarding]


def te1_forwarding() -> SchemeForwarding:
    """Both sources direct (same DAG for both prefixes)."""
    tables = {}
    for prefix in ("t1", "t2"):
        tables[prefix] = PrefixForwarding(
            prefix, "t", {"s1": {"t": 1.0}, "s2": {"t": 1.0}}
        )
    return SchemeForwarding("TE1", tables)


def te2_forwarding() -> SchemeForwarding:
    """s1 splits toward t and s2; s2 direct (same DAG for both prefixes)."""
    tables = {}
    for prefix in ("t1", "t2"):
        tables[prefix] = PrefixForwarding(
            prefix, "t", {"s1": {"t": 0.5, "s2": 0.5}, "s2": {"t": 1.0}}
        )
    return SchemeForwarding("TE2", tables)


def coyote_forwarding() -> SchemeForwarding:
    """Per-prefix DAGs realized through OSPF lies (the full pipeline).

    A lie at s1 splits t1-traffic between its direct link and s2; a lie
    at s2 mirrors this for t2.  The forwarding tables are extracted from
    the converged OSPF domain, not hand-built.
    """
    network = prototype_network()
    weights = unit_weights(network)
    domain = OspfDomain(network, weights)
    domain.advertise_prefix("t", "t1")
    domain.advertise_prefix("t", "t2")
    domain.flood()
    lies = lies_for_destination(
        network, weights, "t1", "t", {"s1": {"t": 1, "s2": 1}, "s2": {"t": 1}}
    )
    lies += lies_for_destination(
        network, weights, "t2", "t", {"s2": {"t": 1, "s1": 1}, "s1": {"t": 1}}
    )
    domain.inject_lies(lies)
    domain.flood()
    tables = {
        "t1": forwarding_from_ospf(domain, "t1"),
        "t2": forwarding_from_ospf(domain, "t2"),
    }
    return SchemeForwarding("COYOTE", tables)


def _phase_flows() -> list[CbrFlow]:
    flows: list[CbrFlow] = []
    for index, (rate1, rate2) in enumerate(PHASES):
        start = index * PHASE_SECONDS
        end = start + PHASE_SECONDS
        if rate1 > 0:
            flows.append(CbrFlow("s1", "t1", rate1 * PPS_PER_MBPS, start, end))
        if rate2 > 0:
            flows.append(CbrFlow("s2", "t2", rate2 * PPS_PER_MBPS, start, end))
    return flows


def run_scheme(scheme: SchemeForwarding) -> list[float]:
    """Per-phase drop rates (fractions) for one scheme."""
    network = prototype_network()
    simulator = PacketSimulator(network, scheme.tables, pps_per_capacity_unit=PPS_PER_MBPS)
    stats = simulator.run(_phase_flows(), PHASE_SECONDS * len(PHASES))
    rates: list[float] = []
    for index in range(len(PHASES)):
        start = int(index * PHASE_SECONDS)
        end = int((index + 1) * PHASE_SECONDS)
        sent = dropped = 0
        for flow_stats in stats.values():
            for second in range(start, end):
                sent += flow_stats.sent_per_window.get(second, 0)
                dropped += flow_stats.dropped_per_window.get(second, 0)
        if sent == 0:
            raise ExperimentError(f"phase {index} generated no traffic")
        rates.append(dropped / sent)
    return rates


def fig12(config: ExperimentConfig | None = None) -> Table:
    """Regenerate Fig. 12b (per-phase packet drop rates)."""
    del config  # the prototype experiment has no tunable grid
    table = Table(
        "Fig. 12 — prototype packet drop rates (drop fraction per phase)",
        ["scheme", "phase1 (0,2)", "phase2 (1,1)", "phase3 (2,0)", "worst"],
    )
    for scheme in (te1_forwarding(), te2_forwarding(), coyote_forwarding()):
        rates = run_scheme(scheme)
        table.add_row(scheme.name, *rates, max(rates))
    table.add_note(
        "phases are 15 s of UDP CBR at (s1->t1, s2->t2) Mbps over 1 Mbps links; "
        "paper: every shared-DAG scheme drops 25-50% in some phase, COYOTE ~0%"
    )
    return table
