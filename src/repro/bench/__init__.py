"""Benchmark harness and perf regression gates riding the sweep runner.

``repro bench <name|all>`` times declared benchmark workloads through
the same :func:`~repro.runner.executor.run_sweep` path the experiments
use, emits machine-readable ``BENCH_<name>.json`` results, and — given a
baseline — fails past a wall-clock regression threshold, giving CI a
real performance gate.
"""
