"""Metric declarations: ``BENCHMARK.json`` plus the suite-only metrics.

``BENCHMARK.json`` declares the metrics every workload reports, with the
bound by which each may worsen across a sweep of seeds.  The metrics
below are raw (unscaled) seconds, apply to some workloads only, or can
read 0, so they live in the ``--repeat`` summaries and :mod:`compare`
alone.  Their bounds apply to repeated runs at one seed, where the
solver metrics are deterministic.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: name -> unit, direction, bound, whether the bound is absolute, workloads.
SUITE_ONLY = {
    "raw_wall_s": {"unit": "s", "better": "lower", "bound": 0.25, "absolute": False,
                   "workloads": ("oblivious", "margin", "audit")},
    "raw_setup_s": {"unit": "s", "better": "lower", "bound": 0.25, "absolute": False,
                    "workloads": ("oblivious", "margin", "audit")},
    "failed_frac": {"unit": "fraction", "better": "lower", "bound": 0.0, "absolute": True,
                    "workloads": ("oblivious", "margin", "audit")},
    "converged_frac": {"unit": "fraction", "better": "higher", "bound": 0.0, "absolute": True,
                       "workloads": ("oblivious", "margin")},
    "ratio_obl": {"unit": "ratio", "better": "lower", "bound": 0.01, "absolute": False,
                  "workloads": ("oblivious", "margin")},
    "ratio_pk": {"unit": "ratio", "better": "lower", "bound": 0.01, "absolute": False,
                 "workloads": ("oblivious", "margin")},
    "stretch": {"unit": "ratio", "better": "lower", "bound": 0.02, "absolute": False,
                "workloads": ("oblivious",)},
}


def benchmark(root: Path = ROOT) -> dict:
    """The parsed ``BENCHMARK.json`` at ``root``."""
    return json.loads((root / "BENCHMARK.json").read_text())


def end_to_end(root: Path = ROOT) -> dict[str, dict]:
    """Every end-to-end metric: the benchmark's, then the suite-only ones."""
    declared = {
        entry["name"]: {**entry, "absolute": False} for entry in benchmark(root)["end_to_end"]
    }
    return {**declared, **SUITE_ONLY}
