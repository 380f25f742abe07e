"""An OSPF link-state simulator: LSAs, flooding, per-router SPF, ECMP FIBs.

This package stands in for the real OSPF routers (mininet + Quagga) of
the paper's prototype: routers flood link-state advertisements, each
router runs Dijkstra over its link-state database and installs
equal-cost next hops in its FIB.  Fake-node LSAs (the "lies" of
Fibbing [8, 9]) participate in SPF exactly like real routers, which is
what lets :mod:`repro.fibbing` reshape forwarding without touching any
router logic.
"""
