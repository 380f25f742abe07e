"""Parallel sweep runner: cell decomposition, pull-based execution,
pluggable content-addressed stores, campaign coordination, and JSON
artifacts.

The experiment drivers declare their grids as ``SweepSpec`` objects
holding ``SweepCell`` objects, each solved by a registered ``CellKind``
(:mod:`repro.runner.spec`); :func:`~repro.runner.executor.run_sweep`
executes them serially or across a process pool, pulling work through a
store-aware frontier, and reassembles tables in deterministic cell
order.  Results persist through the ``CellStore`` layer
(:mod:`repro.runner.store`: ``DirStore`` single directory,
``OverlayStore`` read-through layering); :mod:`repro.runner.campaign`
adds the shard math, claim files, and manifests that turn a shared
store into a distributed, resumable campaign.  See DESIGN notes in the
submodules for the store layout and key derivation.
"""
