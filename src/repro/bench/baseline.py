"""Baseline comparison: the perf regression gate behind ``--baseline``.

A baseline is simply a previously emitted ``BENCH_<name>.json`` (or a
directory of them, as CI stores).  Comparison is deliberately coarse and
robust: per-benchmark *wall-clock* against a percentage threshold.
Per-phase timings are carried in the payloads for humans diagnosing a
regression, but don't gate — phase attribution shifts when code moves
between phases, and gating on it would punish refactors.

Two payloads are comparable only when their config fingerprints match
(same cells, solver config, columns, cache version).  A mismatch is a
*failure*, not a silent skip: a gate that quietly compares different
workloads is worse than no gate, so the fix is to re-record the
baseline alongside the change that altered the grid.  For the same
reason a baseline recorded with cache hits is rejected outright — its
near-zero wall-clock would flag every honest cold run as a regression.
A baseline file marked ``"profiled": true`` is refused too: ``repro
bench`` never writes one, but a baseline is outside input, and profiler
overhead would let real regressions slide under the threshold.
A *current* run with cache hits still gates (CI's warm self-compare
leg relies on it) but its verdict carries a note that cached cells
were not re-timed.

A comparison of a payload against itself reports a 0.0% delta and
passes at any threshold — the CI self-compare smoke relies on this.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ReproError


class BaselineError(ReproError):
    """The baseline path is missing or not a readable bench payload."""


@dataclass(frozen=True)
class Comparison:
    """One benchmark's verdict against its baseline entry."""

    benchmark: str
    status: str  # "ok" | "regression" | "incomparable" | "missing-baseline"
    message: str

    @property
    def failed(self) -> bool:
        return self.status in ("regression", "incomparable")


def _load_payload(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise BaselineError(f"cannot read baseline {path}: {error}") from None
    if not isinstance(payload, dict) or "benchmark" not in payload:
        raise BaselineError(f"{path} is not a bench payload (missing 'benchmark')")
    return payload


def load_baselines(path: str | Path) -> dict[str, dict]:
    """Load baseline payloads keyed by benchmark name.

    ``path`` may be one ``BENCH_*.json`` file or a directory containing
    any number of them (the layout ``repro bench --out`` produces).
    """
    path = Path(path).expanduser()
    if path.is_dir():
        files = sorted(path.glob("BENCH_*.json"))
        if not files:
            raise BaselineError(f"no BENCH_*.json files in baseline directory {path}")
    elif path.is_file():
        files = [path]
    else:
        raise BaselineError(f"baseline path {path} does not exist")
    return {payload["benchmark"]: payload for payload in map(_load_payload, files)}


def compare_to_baseline(
    payload: dict, baselines: dict[str, dict], fail_on_regress_pct: float
) -> Comparison:
    """Gate one benchmark's payload against its baseline entry.

    Regression means current wall-clock exceeds the baseline's by more
    than ``fail_on_regress_pct`` percent.  Faster-than-baseline always
    passes; a benchmark absent from the baseline is reported but does
    not fail (record a fresh baseline to start gating it).
    """
    name = payload["benchmark"]
    baseline = baselines.get(name)
    if baseline is None:
        return Comparison(
            name,
            "missing-baseline",
            f"{name}: no baseline entry; record one to gate this benchmark",
        )
    if baseline.get("config_fingerprint") != payload.get("config_fingerprint"):
        return Comparison(
            name,
            "incomparable",
            f"{name}: config fingerprint mismatch "
            f"(current {payload.get('config_fingerprint')}, "
            f"baseline {baseline.get('config_fingerprint')}); the grids differ — "
            f"re-record the baseline",
        )
    baseline_hits = int(baseline.get("cache", {}).get("hits", 0))
    if baseline_hits > 0:
        return Comparison(
            name,
            "incomparable",
            f"{name}: baseline was recorded with {baseline_hits} cache hit(s), so "
            f"its wall-clock does not measure solve cost; re-record it uncached",
        )
    if baseline.get("profiled"):
        return Comparison(
            name,
            "incomparable",
            f"{name}: baseline is marked profiled, so its wall-clock includes "
            f"profiler overhead; re-record it unprofiled",
        )
    current = float(payload["wall_clock_seconds"])
    reference = float(baseline["wall_clock_seconds"])
    delta_pct = 100.0 * (current - reference) / reference if reference > 0 else 0.0
    detail = (
        f"{name}: wall {current:.2f}s vs baseline {reference:.2f}s "
        f"({delta_pct:+.1f}%, threshold +{fail_on_regress_pct:g}%)"
    )
    current_hits = int(payload.get("cache", {}).get("hits", 0))
    if current_hits > 0:
        detail += f" [note: {current_hits} cell(s) cache-served, not re-timed]"
    if current > reference * (1.0 + fail_on_regress_pct / 100.0):
        return Comparison(name, "regression", f"{detail} REGRESSION")
    return Comparison(name, "ok", f"{detail} ok")
