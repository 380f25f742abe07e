"""Atomic JSON file writes shared by the result cache and artifacts.

A crash (or a full disk) halfway through ``json.dump`` must never leave
a truncated file behind where later tooling expects valid JSON: the
payload is serialized to a temp file in the destination directory and
``os.replace``d into place, which is atomic on POSIX within one
filesystem.  Concurrent writers of the same path simply race to publish
complete documents; readers only ever observe one of them.

The emitted documents are *strict* JSON: non-finite floats (fig9's
undefined ECMP/COYOTE gap is NaN when COYOTE's ratio is 0) are written
as ``null`` rather than Python's spec-violating bare ``NaN`` token,
which jq / ``JSON.parse`` / strict parsers reject wholesale.  Readers
that need the float back map ``null`` to NaN (see
:meth:`~repro.runner.store.DirStore.get`).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any


def _null_non_finite(value: Any) -> Any:
    """Recursively replace NaN/inf floats with None (JSON ``null``)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _null_non_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_non_finite(item) for item in value]
    return value


def write_json_atomic(
    path: str | Path, payload: Any, *, indent: int = 2, sort_keys: bool = False
) -> Path:
    """Serialize ``payload`` to ``path`` atomically; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(
                _null_non_finite(payload),
                handle,
                indent=indent,
                sort_keys=sort_keys,
                allow_nan=False,
            )
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path
