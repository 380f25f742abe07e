"""Parallel sweep runner: cell decomposition, pull-based execution, one
content-addressed store, fault tolerance, and JSON artifacts.

The experiment drivers declare their grids as ``SweepSpec`` objects
holding ``SweepCell`` objects, each solved by a registered ``CellKind``
(:mod:`repro.runner.spec`); :func:`~repro.runner.executor.run_sweep`
executes them serially or across a process pool, pulling work through a
store-aware frontier, and reassembles tables in deterministic cell
order.  Results persist in one ``DirStore`` directory
(:mod:`repro.runner.store`), which is also what a killed sweep resumes
from; :mod:`repro.runner.faults` holds the retry, timeout and
quarantine policy.  See the submodules for the store layout and key
derivation.
"""
