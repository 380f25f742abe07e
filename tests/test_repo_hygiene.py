"""Repo hygiene: ignore rules and lint coverage track the tree's litter,
and importing a module loads only what it uses.

``benchmarks/`` and ``examples/`` historically grew ``__pycache__``
directories that nothing ignored, and runtime artifacts (bench results,
sweep caches) would otherwise show up as untracked noise.  These tests
pin the ``.gitignore`` and ruff coverage so the fix can't silently rot.

Every process pays for the modules it imports, so package ``__init__``
files import nothing and ``repro``'s public names resolve on first
access; the import tests below run in fresh interpreters to pin that.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every pattern the repo's runtime is known to produce.
REQUIRED_IGNORES = {
    "__pycache__/",
    "*.pyc",
    ".pytest_cache/",
    "*.egg-info/",
    ".benchmarks/",       # pytest-benchmark's storage
    ".hypothesis/",       # hypothesis' example database
    ".sweep-cache/",      # CI sweep smoke cache
    ".faults/",           # CI fault-injection smoke stores
    ".faults-state/",     # fault-injection trigger counters (docs/campaigns.md)
    "BENCH_*.json",       # repro bench results (committed only as CI artifacts)
    "sweep-artifacts/",   # repro sweep --out (CI smoke)
    "bench-artifacts/",   # repro bench --out (CI smoke)
}

#: Every environment variable the package reads; README.md documents each.
ENV_VARS = {"REPRO_CACHE_DIR", "REPRO_FAULTS", "REPRO_FULL"}

_ENV_VAR = re.compile(r"REPRO_[A-Z_]+")

#: Directories containing first-party Python that ruff must target.
PYTHON_DIRS = ("src", "tests", "benchmarks", "examples")


def _gitignore_patterns() -> set[str]:
    text = (REPO_ROOT / ".gitignore").read_text()
    return {
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    }


def test_gitignore_covers_runtime_litter():
    missing = REQUIRED_IGNORES - _gitignore_patterns()
    assert not missing, f".gitignore lacks patterns for runtime litter: {sorted(missing)}"


def test_environment_variables_are_pinned_and_documented():
    # A new switch must be a deliberate, documented decision: the set of
    # REPRO_* names in src/ is pinned here, and README.md lists each.
    found = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        found |= set(_ENV_VAR.findall(path.read_text()))
    assert found == ENV_VARS
    documented = set(_ENV_VAR.findall((REPO_ROOT / "README.md").read_text()))
    assert not ENV_VARS - documented, f"undocumented: {sorted(ENV_VARS - documented)}"


def test_ruff_lints_the_whole_tree_in_ci():
    # Lint coverage comes from the CI invocation, not [tool.ruff] src
    # (which only sets import-resolution roots): `ruff check .` must
    # stay whole-tree so benchmarks/ and examples/ never silently lose
    # coverage, and the format check must name every python directory.
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "ruff check ." in workflow
    format_line = next(
        line for line in workflow.splitlines()
        if line.strip().startswith("run: ruff format --check")
    )
    for directory in PYTHON_DIRS:
        assert directory in format_line, (
            f"CI's ruff format check must include {directory!r}"
        )


def test_ruff_resolves_first_party_imports_everywhere():
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    src_line = next(
        line for line in pyproject.splitlines() if line.startswith("src = [")
    )
    for directory in PYTHON_DIRS:
        assert f'"{directory}"' in src_line, (
            f"pyproject.toml [tool.ruff] src should include {directory!r} so "
            f"first-party imports resolve there"
        )


def test_lp_docstring_lint_scoped_to_lp_package():
    # D100/D104 back the LP layer's numerical contract (docstrings state
    # tolerances and status mapping — docs/lp_backends.md): they must
    # stay selected, and stay scoped via the negated per-file-ignore so
    # the rest of the tree doesn't silently start requiring docstrings.
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    select_line = next(
        line for line in pyproject.splitlines() if line.startswith("select = [")
    )
    for rule in ("D100", "D104"):
        assert f'"{rule}"' in select_line, f"ruff select must keep {rule}"
    assert '"!src/repro/lp/**" = ["D100", "D104"]' in pyproject, (
        "D100/D104 must stay scoped to src/repro/lp/ via the negated "
        "per-file-ignore"
    )


def test_readme_doc_links_resolve():
    # Both orientation pages must exist and be reachable from README.
    import re

    readme = (REPO_ROOT / "README.md").read_text()
    linked = set(re.findall(r"\((docs/[^)#]+\.md)\)", readme))
    assert {"docs/ARCHITECTURE.md", "docs/lp_backends.md"} <= linked, (
        f"README must link both docs pages; found {sorted(linked)}"
    )
    for relative in sorted(linked):
        assert (REPO_ROOT / relative).is_file(), f"README links missing page {relative}"


def test_python_dirs_exist_and_hold_python():
    for directory in PYTHON_DIRS:
        assert list((REPO_ROOT / directory).rglob("*.py")), directory


def test_no_bytecode_or_artifacts_tracked_by_git():
    git = shutil.which("git")
    if git is None or not (REPO_ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    tracked = subprocess.run(
        [git, "-C", str(REPO_ROOT), "ls-files"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    offenders = [
        path for path in tracked
        if "__pycache__" in path
        or path.endswith(".pyc")
        or path.startswith("BENCH_")
    ]
    assert not offenders, f"bytecode/artifacts committed to git: {offenders}"


def test_benchmark_and_example_pycache_ignored_by_git():
    git = shutil.which("git")
    if git is None or not (REPO_ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    # check-ignore exits 0 only when every path is covered by an ignore rule.
    result = subprocess.run(
        [
            git, "-C", str(REPO_ROOT), "check-ignore",
            "benchmarks/__pycache__", "examples/__pycache__",
            "benchmarks/bench_fig6.pyc", "BENCH_table1.json",
        ],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, f"paths not ignored:\n{result.stdout}"


#: Modules that solving a ``margin`` or ``fig11-stretch`` cell never runs:
#: the other experiment drivers and their registry, the
#: OSPF/Fibbing/flow-simulation stack, the pipeline, GP and local-search
#: cores, and the artifact writer.
UNUSED_BY_SWEEPS = (
    "repro.core.coyote",
    "repro.core.gp",
    "repro.core.local_search",
    "repro.experiments.fig10_approximation",
    "repro.experiments.fig12_prototype",
    "repro.experiments.fig9_local_search",
    "repro.experiments.hardness",
    "repro.experiments.margin_sweep",
    "repro.experiments.registry",
    "repro.experiments.running_example",
    "repro.experiments.table1",
    "repro.fibbing",
    "repro.fibbing.apportionment",
    "repro.fibbing.controller",
    "repro.fibbing.lies",
    "repro.flowsim",
    "repro.flowsim.fluid",
    "repro.flowsim.packet",
    "repro.kernel.delta",
    "repro.ospf",
    "repro.ospf.domain",
    "repro.ospf.lsa",
    "repro.ospf.lsdb",
    "repro.ospf.router",
    "repro.ospf.spf",
    "repro.runner.artifacts",
)


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; the JSON object it prints last."""
    paths = [str(REPO_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_the_sweep_path_imports_no_unused_module():
    loaded = _fresh("""
        import json, sys
        import repro.experiments.common, repro.experiments.fig11_stretch
        import repro.runner.executor, repro.lp.worst_case
        print(json.dumps(sorted(sys.modules)))
    """)
    extra = sorted(set(UNUSED_BY_SWEEPS) & set(loaded))
    assert not extra, f"the sweep path imports modules it never runs: {extra}"


def test_every_public_name_resolves_on_first_access():
    result = _fresh("""
        import json, sys
        import repro
        before = sorted(name for name in sys.modules if name.startswith("repro."))
        from repro import Coyote, gravity_matrix, load_topology, margin_box
        quickstart = [Coyote.__name__, gravity_matrix.__name__,
                      load_topology.__name__, margin_box.__name__]
        missing = [name for name in repro.__all__ if not hasattr(repro, name)]
        try:
            repro.no_such_name
        except AttributeError:
            unknown = "AttributeError"
        print(json.dumps({"before": before, "quickstart": quickstart,
                          "missing": missing, "unknown": unknown}))
    """)
    assert result["before"] == []
    assert result["quickstart"] == ["Coyote", "gravity_matrix", "load_topology", "margin_box"]
    assert result["missing"] == []
    assert result["unknown"] == "AttributeError"


def test_a_worker_resolves_any_kind_through_the_registry():
    # A worker unpickles cells before any driver module has run: the
    # first lookup of a kind it has not seen imports the registry.
    result = _fresh("""
        import json, sys
        from repro.runner.spec import cell_kind
        before = "repro.experiments.registry" in sys.modules
        kind = cell_kind("fig9-local-search")
        print(json.dumps({"before": before, "name": kind.name,
                          "after": "repro.experiments.registry" in sys.modules}))
    """)
    assert result == {"before": False, "name": "fig9-local-search", "after": True}
