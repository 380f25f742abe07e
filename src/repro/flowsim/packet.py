"""Discrete-time packet-level emulator (the mininet + iperf3 stand-in).

Model, chosen to mirror the prototype experiment of Section VII:

* links carry ``rate`` packets per second and hold a FIFO queue of
  ``buffer`` packets; the per-tick service budget accumulates
  fractionally so any rate/tick combination is exact in the long run;
* constant-bit-rate UDP flows emit packets toward a destination prefix
  over [start, end) — iperf3's UDP mode;
* each router forwards per-packet over its prefix's next-hop set using
  smooth weighted round-robin (deterministic, so experiments reproduce
  bit-for-bit; real ECMP hashes five-tuples, whose long-run split over
  many flows is the same weighted fraction);
* packets dropped on queue overflow are counted per flow and per
  one-second window — the quantity Fig. 12b plots.

Forwarding state is a :class:`PrefixForwarding` per destination prefix
— either hand-built (the TE1/TE2 baselines) or extracted from a
converged :class:`repro.ospf.domain.OspfDomain` (the COYOTE configuration with
its lies installed), which is exactly how the paper's prototype drives
real routers.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from repro.exceptions import RoutingError
from repro.graph.network import Edge, Network, Node


@dataclass(frozen=True)
class CbrFlow:
    """A constant-bit-rate UDP flow.

    Attributes:
        source: originating router.
        prefix: destination prefix name.
        rate_pps: packets per second.
        start / end: active interval in seconds.
    """

    source: Node
    prefix: str
    rate_pps: float
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.rate_pps < 0:
            raise RoutingError(f"flow rate must be >= 0, got {self.rate_pps}")
        if self.end < self.start:
            raise RoutingError("flow end precedes start")


class PrefixForwarding:
    """Per-prefix forwarding: node -> weighted next hops."""

    def __init__(self, prefix: str, owner: Node, hops: Mapping[Node, Mapping[Node, float]]):
        self.prefix = prefix
        self.owner = owner
        self.hops: dict[Node, list[tuple[Node, float]]] = {}
        for node, table in hops.items():
            entries = [(head, weight) for head, weight in table.items() if weight > 0]
            if not entries and node != owner:
                raise RoutingError(
                    f"node {node!r} has no next hop for prefix {prefix!r}"
                )
            self.hops[node] = entries

    def next_hop_weights(self, node: Node) -> list[tuple[Node, float]]:
        return self.hops.get(node, [])


class _SmoothWrr:
    """Smooth weighted round-robin over (choice, weight) pairs."""

    def __init__(self, entries: list[tuple[Node, float]]):
        self._entries = entries
        self._current = [0.0] * len(entries)
        self._total = sum(weight for _c, weight in entries)

    def pick(self) -> Node:
        best_index = 0
        for i, (_choice, weight) in enumerate(self._entries):
            self._current[i] += weight
            if self._current[i] > self._current[best_index]:
                best_index = i
        self._current[best_index] -= self._total
        return self._entries[best_index][0]


@dataclass
class _LinkState:
    rate_pps: float
    buffer: int
    queue: deque = field(default_factory=deque)
    service_credit: float = 0.0
    delivered: int = 0
    dropped: int = 0


@dataclass
class FlowStats:
    """Per-flow counters, also bucketed per one-second window."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    sent_per_window: dict[int, int] = field(default_factory=dict)
    delivered_per_window: dict[int, int] = field(default_factory=dict)
    dropped_per_window: dict[int, int] = field(default_factory=dict)

    def drop_rate(self) -> float:
        return self.dropped / self.sent if self.sent else 0.0


class PacketSimulator:
    """Slot-based simulator over a capacitated network.

    Args:
        network: topology; link capacities are interpreted via
            ``pps_per_capacity_unit`` (e.g. capacity 1.0 = 1 Mbps = 100
            packets/s with the default 1250-byte packets).
        forwardings: one :class:`PrefixForwarding` per destination prefix.
        tick: slot length in seconds.
        buffer_packets: FIFO queue depth per link.
        pps_per_capacity_unit: packets/s carried per unit of capacity.
    """

    def __init__(
        self,
        network: Network,
        forwardings: Mapping[str, PrefixForwarding],
        tick: float = 0.001,
        buffer_packets: int = 20,
        pps_per_capacity_unit: float = 100.0,
    ):
        if tick <= 0:
            raise RoutingError(f"tick must be > 0, got {tick}")
        self.network = network
        self.forwardings = dict(forwardings)
        self.tick = tick
        self.links: dict[Edge, _LinkState] = {}
        for edge in network.edges():
            capacity = network.capacity(*edge)
            rate = capacity * pps_per_capacity_unit if math.isfinite(capacity) else 1e12
            self.links[edge] = _LinkState(rate_pps=rate, buffer=buffer_packets)
        self._wrr: dict[tuple[str, Node], _SmoothWrr] = {}

    def _pick_next_hop(self, prefix: str, node: Node) -> Node | None:
        forwarding = self.forwardings.get(prefix)
        if forwarding is None:
            raise RoutingError(f"no forwarding state for prefix {prefix!r}")
        if node == forwarding.owner:
            return None
        key = (prefix, node)
        if key not in self._wrr:
            entries = forwarding.next_hop_weights(node)
            if not entries:
                raise RoutingError(f"{node!r} cannot forward prefix {prefix!r}")
            self._wrr[key] = _SmoothWrr(entries)
        return self._wrr[key].pick()

    def run(self, flows: list[CbrFlow], duration: float) -> dict[CbrFlow, FlowStats]:
        """Simulate ``duration`` seconds; returns per-flow statistics."""
        stats = {flow: FlowStats() for flow in flows}
        emit_credit = {flow: 0.0 for flow in flows}
        ticks = int(round(duration / self.tick))
        for step in range(ticks):
            now = step * self.tick
            window = int(now)
            # 1. Sources emit packets (fractional token accumulation).
            for flow in flows:
                if flow.start <= now < flow.end and flow.rate_pps > 0:
                    emit_credit[flow] += flow.rate_pps * self.tick
                    while emit_credit[flow] >= 1.0:
                        emit_credit[flow] -= 1.0
                        self._enqueue(flow, flow.source, stats[flow], window, is_new=True)
            # 2. Links serve their queues; served packets hop onward.
            for edge, link in self.links.items():
                link.service_credit += link.rate_pps * self.tick
                while link.service_credit >= 1.0 and link.queue:
                    link.service_credit -= 1.0
                    flow = link.queue.popleft()
                    link.delivered += 1
                    self._enqueue(flow, edge[1], stats[flow], window, is_new=False)
                if not link.queue:
                    # Idle links don't bank unbounded credit.
                    link.service_credit = min(link.service_credit, 1.0)
        return stats

    def _enqueue(
        self, flow: CbrFlow, node: Node, stat: FlowStats, window: int, is_new: bool
    ) -> None:
        if is_new:
            stat.sent += 1
            stat.sent_per_window[window] = stat.sent_per_window.get(window, 0) + 1
        next_hop = self._pick_next_hop(flow.prefix, node)
        if next_hop is None:
            stat.delivered += 1
            stat.delivered_per_window[window] = (
                stat.delivered_per_window.get(window, 0) + 1
            )
            return
        link = self.links[(node, next_hop)]
        if len(link.queue) >= link.buffer:
            link.dropped += 1
            stat.dropped += 1
            stat.dropped_per_window[window] = stat.dropped_per_window.get(window, 0) + 1
            return
        link.queue.append(flow)


def forwarding_from_ospf(domain, prefix: str) -> PrefixForwarding:
    """Extract a :class:`PrefixForwarding` from a converged OSPF domain."""
    domain.converge()
    owner_id = domain.prefix_owner(prefix)
    hops: dict[Node, dict[Node, float]] = {}
    for rid, router in domain.routers.items():
        if rid == owner_id:
            continue
        fractions = router.splitting_fractions(prefix)
        if fractions:
            hops[domain.node_of(rid)] = {
                domain.node_of(n): f for n, f in fractions.items()
            }
    return PrefixForwarding(prefix, domain.node_of(owner_id), hops)
