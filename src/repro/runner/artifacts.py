"""JSON artifact output for completed sweeps.

``repro sweep EXP --out DIR`` (and the CI smoke jobs) persist up to
three files per experiment:

* ``<experiment>.table.json`` — the assembled table (title, columns,
  rows, notes) plus run counters; enough to re-render or diff a sweep
  without re-solving anything.  An aborted run cannot assemble a
  faithful table, so this file is skipped for it.  ``--keep-going``
  runs with quarantined cells do emit the table, with the failed rows
  omitted under an explicit note.
* ``<experiment>.cells.json`` — one record per resolved cell with its
  full cache fingerprint, content key, result values, and lifecycle
  status (cache-hit / solved); the raw material for cross-run
  regression comparisons.
* ``<experiment>.events.json`` — the run's structured lifecycle event
  log (see :mod:`repro.runner.timing`) plus the skipped-cell list, so a
  run's hits, solves, retries and quarantines are reconstructable
  after the fact.

All files are written atomically (temp file + ``os.replace``, the same
pattern as :meth:`~repro.runner.store.DirStore.put`), so a crash
mid-write can never leave a truncated artifact for diff tooling to
choke on.
"""

from __future__ import annotations

from pathlib import Path

from repro.runner.executor import SweepReport
from repro.utils.jsonio import write_json_atomic


def write_artifacts(report: SweepReport, out_dir: str | Path) -> list[Path]:
    """Write the sweep's JSON artifacts; returns the paths written.

    Table-ready runs produce ``[table, cells, events]``; an aborted run
    omits the table (a partial table would silently diff as "rows
    vanished").  A ``--keep-going`` run with quarantined cells is
    table-ready: its table carries an explicit omission note instead of
    silently-missing rows.
    """
    out = Path(out_dir).expanduser()
    out.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []

    if not report.aborted:
        table = report.table()
        table_payload = {
            "experiment": report.spec.experiment,
            "title": table.title,
            "columns": list(table.columns),
            "rows": [list(row) for row in table.rows],
            "notes": list(table.notes),
            "solved": report.solved,
            "cached": report.cached,
            "jobs": report.jobs,
            "quarantined": report.quarantined,
            "elapsed_seconds": round(report.elapsed, 3),
        }
        paths.append(
            write_json_atomic(out / f"{report.spec.experiment}.table.json", table_payload)
        )

    cells_payload = [
        {
            "key": result.key,
            "fingerprint": result.cell.fingerprint(),
            "result": result.ratios,
            "cached": result.cached,
            "status": result.status,
            "timings": {name: round(seconds, 6) for name, seconds in result.timings.items()},
        }
        for result in report.results
    ]
    paths.append(
        write_json_atomic(out / f"{report.spec.experiment}.cells.json", cells_payload)
    )

    events_payload = {
        "experiment": report.spec.experiment,
        "complete": report.complete,
        "aborted": report.aborted,
        "lifecycle": report.lifecycle_counts(),
        "skipped": [
            {"key": skip.key, "reason": skip.reason, "detail": skip.detail}
            for skip in report.skipped
        ],
        "events": [event.as_payload() for event in report.events],
    }
    paths.append(
        write_json_atomic(out / f"{report.spec.experiment}.events.json", events_payload)
    )

    return paths
