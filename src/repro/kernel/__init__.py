"""Array-based routing kernel: CSR graph view, batched SPF, vectorized flows.

Every experiment in the paper reduces to the same inner loop — per-destination
shortest-path DAGs, splitting ratios, and flow propagation to link
utilizations — and the pure-Python implementations (:mod:`repro.graph.paths`,
:mod:`repro.routing.propagation`) pay dict-and-heapq prices for every
candidate the local search or the oracle evaluates.  This package is the
vectorized re-implementation of exactly that kernel:

* :mod:`repro.kernel.csr` — an indexed CSR view of a :class:`Network`
  (node/edge index maps, weight/capacity vectors), cached per network;
* :mod:`repro.kernel.spf` — batched all-destination shortest paths via
  ``scipy.sparse.csgraph.dijkstra`` plus vectorized ECMP DAG extraction from
  the relaxation condition ``dist[u] ~= w(u,v) + dist[v]`` on edge arrays;
* :mod:`repro.kernel.propagate` — the one level schedule: (destination,
  edge) instances grouped by the Kahn depth of their tails, and the only
  forward sweep, which every module below propagates demand through;
* :mod:`repro.kernel.coefficients` — vectorized assembly of the worst-case
  oracle's per-edge objective coefficients (``f_st(u) * phi_t(e)``);
* :mod:`repro.kernel.delta` — delta re-evaluation for the local search's
  weight step: a single-link weight change recomputes only the destinations
  whose shortest-path DAG actually changed;
* :mod:`repro.kernel.flowgrad` — the splitting optimizers' engine: loads,
  adjoint gradients and the forward-mode load Jacobian for a compiled
  (DAGs, demand batch) pair; the gradient walks the same schedule in
  reverse.

Every routing caller runs on this package; there is no switch back.  The
pure-Python implementations stay in the tree as test-only oracles, one per
fast path, called by name from the differential suite
(``tests/test_kernel_differential.py``: identical DAG edge sets, ratios and
loads within 1e-9): :func:`~repro.graph.paths.shortest_path_dag` and
:func:`~repro.graph.paths.dijkstra_to_target` for SPF,
``Routing.link_loads_reference`` for loads,
:func:`~repro.routing.propagation.load_coefficients_reference` for the
oracle's coefficients, and ``core.local_search._weight_search_reference``
(from-scratch evaluation per candidate) for the delta evaluator.
:mod:`repro.kernel.flowgrad` has :mod:`repro.routing.propagation` as its
load oracle and finite differences as its gradient oracle
(``tests/test_flowgrad.py``).
"""
