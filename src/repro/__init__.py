"""COYOTE: readily deployable robust traffic engineering via OSPF "lies".

A from-scratch reproduction of *Lying Your Way to Better Traffic
Engineering* (Chiesa, Rétvári, Schapira — CoNEXT 2016): destination-based
demands-oblivious routing compiled down to unmodified OSPF/ECMP through
Fibbing-style fake LSAs.

Public API highlights:

* :class:`repro.Network`, :class:`repro.Dag` — the network model;
* :func:`repro.load_topology` — the 16 evaluation backbones;
* :func:`repro.gravity_matrix` / :func:`repro.bimodal_matrix` /
  :func:`repro.margin_box` — demand models and uncertainty sets;
* :class:`repro.Coyote` — the end-to-end pipeline (DAGs + robust
  splitting);
* :func:`repro.ecmp_routing` — the traditional TE baseline;
* :mod:`repro.fibbing` — translation to OSPF fake-LSA configuration;
* :mod:`repro.experiments` — drivers regenerating every paper table and
  figure.
"""

from importlib import import_module

__version__ = "1.0.0"

#: Public name -> the module defining it, imported on first access
#: (PEP 562), so importing any submodule loads only what it uses.
_EXPORTS = {
    "DEFAULT_CONFIG": "repro.config",
    "ExperimentConfig": "repro.config",
    "SolverConfig": "repro.config",
    "Coyote": "repro.core.coyote",
    "CoyoteResult": "repro.core.coyote",
    "DemandMatrix": "repro.demands.matrix",
    "gravity_matrix": "repro.demands.gravity",
    "bimodal_matrix": "repro.demands.bimodal",
    "margin_box": "repro.demands.uncertainty",
    "oblivious_set": "repro.demands.uncertainty",
    "ecmp_routing": "repro.ecmp.routing",
    "Dag": "repro.graph.dag",
    "Network": "repro.graph.network",
    "Routing": "repro.routing.splitting",
    "available_topologies": "repro.topologies.zoo",
    "load_topology": "repro.topologies.zoo",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value
