"""Experiment drivers: one per table/figure of the paper's evaluation.

Every driver returns a :class:`repro.utils.tables.Table` whose rows are
the series the paper plots.  The registry maps experiment ids
("fig6", "table1", ...) to drivers; the CLI and the benchmark harness
both go through it.
"""
