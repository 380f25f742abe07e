"""Tests for the sweep failure domain: classification, retries, timeouts,
quarantine, failure records, fault injection, and resume after a killed run."""

import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.config import SolverConfig
from repro.exceptions import ExperimentError, InfeasibleError
from repro.experiments.common import SCHEME_COLUMNS
from repro.runner import executor, faults
from repro.runner.artifacts import write_artifacts
from repro.runner.executor import run_sweep
from repro.runner.faults import (
    FAULTS_ENV,
    CellTimeoutError,
    FailurePolicy,
    FaultError,
    WorkerCrashError,
    backoff_delay,
    error_class,
    failure_record,
    is_transient,
    parse_fault,
    parse_faults,
)
from repro.runner.spec import SweepCell, SweepSpec, cell_key
from repro.runner.store import DirStore
from repro.runner.timing import LIFECYCLE_EVENTS, EventLog

TINY_SOLVER = SolverConfig(
    max_adversarial_rounds=2,
    max_inner_iterations=10,
    smoothing_temperatures=(8.0, 64.0),
)

#: A near-instant retry policy so failure-path tests don't sleep.
FAST_RETRIES = FailurePolicy(backoff_base=0.001, backoff_cap=0.01)


def make_cell(margin=1.0, topology="abilene", **overrides):
    return SweepCell(
        experiment=overrides.pop("experiment", "test"),
        topology=topology,
        demand_model=overrides.pop("demand_model", "gravity"),
        margin=margin,
        seed=overrides.pop("seed", 7),
        solver=TINY_SOLVER,
        **overrides,
    )


def make_spec(margins=(1.0, 2.0, 3.0), **cell_kwargs):
    cells = tuple(make_cell(margin=m, **cell_kwargs) for m in margins)
    return SweepSpec(experiment="test", title="test sweep", cells=cells)


def _stub_solve(cell):
    return {scheme: cell.margin + i for i, scheme in enumerate(SCHEME_COLUMNS)}


def _poison_margin2_solve(cell):
    """Deterministic failure on one cell: the quarantine-path workhorse."""
    if cell.margin == 2.0:
        raise ValueError("margin 2 is poison")
    return _stub_solve(cell)


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    """Isolate every test from injected-fault env and trigger counters."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    monkeypatch.setattr(faults, "_plan", ("", ()))
    monkeypatch.setattr(faults, "_local_counts", {})


@pytest.fixture(autouse=True)
def _declared_events_only(monkeypatch):
    """Every event a sweep here emits must be one of ``LIFECYCLE_EVENTS``."""
    emitted: set[str] = set()
    emit = EventLog.emit

    def recorded(self, key, event, detail=""):
        emitted.add(event)
        return emit(self, key, event, detail)

    monkeypatch.setattr(EventLog, "emit", recorded)
    yield
    assert emitted <= set(LIFECYCLE_EVENTS), emitted - set(LIFECYCLE_EVENTS)


class TestClassification:
    @pytest.mark.parametrize(
        "error",
        [
            OSError("disk glitch"),
            TimeoutError("slow"),
            EOFError(),
            MemoryError(),
            WorkerCrashError("worker died"),
            CellTimeoutError("over budget"),
            RuntimeError("unknown errors default to transient"),
        ],
    )
    def test_transient(self, error):
        assert is_transient(error)
        assert error_class(error) == "transient"

    @pytest.mark.parametrize(
        "error",
        [
            ValueError("bad input"),
            TypeError("bad type"),
            KeyError("missing"),
            ZeroDivisionError(),
            AssertionError(),
            InfeasibleError("LP infeasible"),
            ExperimentError("bad config"),
        ],
    )
    def test_deterministic(self, error):
        assert not is_transient(error)
        assert error_class(error) == "deterministic"

    def test_crash_sentinels_outrank_reproerror(self):
        # WorkerCrashError/CellTimeoutError subclass ReproError (which is
        # deterministic); the transient check must win for them.
        assert is_transient(WorkerCrashError("x"))
        assert is_transient(CellTimeoutError("x"))


class TestBackoff:
    def test_deterministic_and_growing(self):
        policy = FailurePolicy()
        key = cell_key(make_cell())
        first = backoff_delay(policy, key, 1)
        assert first == backoff_delay(policy, key, 1)  # replayable
        assert backoff_delay(policy, key, 2) > first
        assert first >= policy.backoff_base

    def test_capped(self):
        policy = FailurePolicy(backoff_cap=0.5)
        assert backoff_delay(policy, cell_key(make_cell()), 30) == 0.5

    def test_jitter_decorrelates_keys(self):
        policy = FailurePolicy()
        delays = {
            backoff_delay(policy, cell_key(make_cell(margin=m)), 1)
            for m in (1.0, 2.0, 3.0, 4.0)
        }
        assert len(delays) > 1


class TestFaultSpecParsing:
    def test_full_spec(self):
        spec = parse_fault(
            "site=solve,action=raise,exc=ValueError,key=3fa9,times=2,state=/tmp/s"
        )
        assert spec.site == "solve" and spec.action == "raise"
        assert spec.exc == "ValueError" and spec.key == "3fa9"
        assert spec.times == 2 and spec.state == "/tmp/s"

    def test_hash_selector(self):
        spec = parse_fault("site=solve,action=kill,hash=1/3")
        assert spec.slot == (1, 3)
        matching = [k for k in ("0", "1", "2", "3", "4") if spec.matches("solve", k)]
        assert matching == ["1", "4"]

    def test_key_prefix_match(self):
        spec = parse_fault("site=store.put,action=hang,seconds=1,key=abc")
        assert spec.matches("store.put", "abcdef0123")
        assert not spec.matches("store.put", "def0123")
        assert not spec.matches("store.get", "abcdef0123")

    @pytest.mark.parametrize(
        "bad",
        [
            "action=raise",  # no site
            "site=nowhere,action=raise",
            "site=claim,action=raise,exc=OSError",  # the runner has no claim boundary
            "site=solve",  # no action
            "site=solve,action=explode",
            "site=solve,action=raise,exc=SystemExit",  # not injectable
            "site=solve,action=raise,key=xyz",  # non-hex key
            "site=solve,action=kill,hash=3",  # not r/m
            "site=solve,action=kill,hash=1/0",
            "site=solve,action=raise,times=0",
            "site=solve,action=raise,times=-1",
            "site=solve,action=raise,seconds=soon",
            "site=solve,action=raise,surprise=1",  # unknown field
            "site solve",  # not name=value
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(FaultError):
            parse_faults(bad)

    def test_parse_faults_splits_and_skips_blanks(self):
        specs = parse_faults("site=solve,action=raise; ;site=store.get,action=raise,exc=OSError")
        assert [s.site for s in specs] == ["solve", "store.get"]

    def test_trigger_noop_when_env_unset(self):
        faults.trigger("solve", "deadbeef")  # must not raise

    def test_trigger_raises_matching_exception(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "site=solve,action=raise,exc=OSError,key=dead")
        with pytest.raises(OSError, match="injected OSError at solve"):
            faults.trigger("solve", "deadbeef")
        faults.trigger("solve", "beefdead")  # prefix mismatch: no fire

    def test_times_budget_counts_per_cell(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "site=solve,action=raise,exc=OSError,times=1")
        with pytest.raises(OSError):
            faults.trigger("solve", "aa00")
        faults.trigger("solve", "aa00")  # budget spent for this cell
        with pytest.raises(OSError):
            faults.trigger("solve", "bb00")  # other cells budget separately

    def test_state_dir_counter_survives_reparse(self, monkeypatch, tmp_path):
        monkeypatch.setenv(
            FAULTS_ENV, f"site=solve,action=raise,exc=OSError,times=1,state={tmp_path}"
        )
        with pytest.raises(OSError):
            faults.trigger("solve", "aa00")
        # A fresh process would re-parse the plan; the file-backed count
        # still marks the budget as spent.
        monkeypatch.setattr(faults, "_plan", ("", ()))
        faults.trigger("solve", "aa00")


class TestFailureRecords:
    def test_roundtrip_and_clear(self, tmp_path):
        store = DirStore(tmp_path)
        cell = make_cell()
        key = cell_key(cell)
        record = failure_record(
            cell, key, attempts=2, label="transient", error=OSError("glitch")
        )
        store.put_failure(cell, record)
        loaded = store.get_failure(cell)
        assert loaded["schema"] == faults.FAILURE_SCHEMA
        assert loaded["key"] == key and loaded["attempts"] == 2
        assert loaded["error_class"] == "transient"
        assert loaded["error_type"] == "OSError" and "glitch" in loaded["message"]
        store.clear_failure(cell)
        assert store.get_failure(cell) is None
        store.clear_failure(cell)  # idempotent

    def test_records_do_not_count_as_entries(self, tmp_path):
        store = DirStore(tmp_path)
        cell = make_cell()
        store.put_failure(
            cell, failure_record(cell, cell_key(cell), attempts=1, label="deterministic",
                                 error=ValueError("x")),
        )
        assert len(store) == 0
        assert list(store.entry_keys()) == []
        assert [key for key, _ in store.failure_records()] == [cell_key(cell)]


class RetryContract:
    """Retry and quarantine cases whose solver is module-level.

    They run once per job count: each ``Test*`` subclass sets ``jobs``.
    """

    jobs = 1

    def test_deterministic_failure_aborts_with_partial_report(self, tmp_path):
        store = DirStore(tmp_path)
        with pytest.raises(ValueError, match="margin 2 is poison") as excinfo:
            run_sweep(make_spec(), jobs=self.jobs, cache=store, solve=_poison_margin2_solve,
                      failures=FAST_RETRIES)
        partial = excinfo.value.partial_report
        assert partial.aborted and not partial.complete
        assert partial.quarantined == 1
        counts = partial.lifecycle_counts()
        assert counts["quarantined"] == 1 and "retried" not in counts
        # The record persisted with the real class, for resume and triage.
        record = store.get_failure(make_cell(margin=2.0))
        assert record["error_class"] == "deterministic"
        assert record["attempts"] == 1  # no retries for deterministic errors
        # Sibling results solved before/after the failure are preserved.
        assert store.get(make_cell(margin=1.0)) is not None

    def test_keep_going_completes_with_row_omitted(self, tmp_path):
        report = run_sweep(
            make_spec(), jobs=self.jobs, cache=DirStore(tmp_path),
            solve=_poison_margin2_solve,
            failures=FailurePolicy(keep_going=True, backoff_base=0.001),
        )
        assert not report.complete and not report.aborted
        assert report.quarantined == 1
        [skip] = report.skipped
        assert skip.reason == "failed" and skip.key == cell_key(make_cell(margin=2.0))
        table = report.table()
        assert len(table.rows) == 2  # margin-2 row omitted
        assert any("omitted" in note for note in table.notes)
        assert "1 failed" in report.summary()

    def test_transient_record_does_not_block_resume(self, tmp_path):
        store = DirStore(tmp_path)
        cell = make_cell(margin=2.0)
        store.put_failure(
            cell, failure_record(cell, cell_key(cell), attempts=3,
                                 label="worker-death", error=WorkerCrashError("died")),
        )
        report = run_sweep(make_spec(), jobs=self.jobs, cache=store, solve=_stub_solve,
                           failures=FAST_RETRIES)
        assert report.complete and report.solved == 3
        assert store.get_failure(cell) is None  # success cleared the record

    def test_default_policy_matches_historical_abort(self):
        # No cache, no policy: the first deterministic failure still
        # raises the original error (the seed contract).
        with pytest.raises(ValueError, match="margin 2 is poison"):
            run_sweep(make_spec(), jobs=self.jobs, solve=_poison_margin2_solve)

    def test_partial_artifacts_flush_on_abort(self, tmp_path):
        with pytest.raises(ValueError) as excinfo:
            run_sweep(make_spec(), jobs=self.jobs, cache=DirStore(tmp_path / "store"),
                      solve=_poison_margin2_solve, failures=FAST_RETRIES)
        paths = write_artifacts(excinfo.value.partial_report, tmp_path / "out")
        names = {path.name for path in paths}
        assert names == {"test.cells.json", "test.events.json"}  # no table
        events = json.loads((tmp_path / "out" / "test.events.json").read_text())
        assert events["aborted"] is True
        assert events["lifecycle"]["quarantined"] == 1
        assert events["skipped"][0]["detail"] == "deterministic"

    def test_elapsed_uses_monotonic_clock(self, monkeypatch):
        # A wall-clock step (NTP, DST) must not corrupt elapsed.
        monkeypatch.setattr(time, "time", lambda: 0.0)
        report = run_sweep(make_spec(margins=(1.0,)), jobs=self.jobs, solve=_stub_solve)
        assert 0.0 <= report.elapsed < 60.0


class TestSerialRetries(RetryContract):
    def test_transient_failures_retry_then_succeed(self, tmp_path):
        calls = {}

        def flaky(cell):
            calls[cell.margin] = calls.get(cell.margin, 0) + 1
            if cell.margin == 2.0 and calls[cell.margin] < 3:
                raise OSError("transient glitch")
            return _stub_solve(cell)

        report = run_sweep(
            make_spec(), cache=DirStore(tmp_path), solve=flaky, failures=FAST_RETRIES
        )
        assert report.complete and report.solved == 3
        counts = report.lifecycle_counts()
        assert counts["retried"] == 2 and counts["failed"] == 2
        assert "quarantined" not in counts
        assert calls[2.0] == 3

    def test_max_failures_budget_tolerates_then_aborts(self, tmp_path):
        def all_poison(cell):
            raise ValueError(f"poison margin {cell.margin:g}")

        tolerant = FailurePolicy(max_failures=2, backoff_base=0.001)
        report = run_sweep(
            make_spec(margins=(1.0, 2.0)), cache=DirStore(tmp_path / "a"),
            solve=all_poison, failures=tolerant,
        )
        assert not report.aborted and report.quarantined == 2
        with pytest.raises(ValueError):
            run_sweep(
                make_spec(margins=(1.0, 2.0, 3.0)), cache=DirStore(tmp_path / "b"),
                solve=all_poison, failures=tolerant,
            )

    def test_resume_honors_deterministic_record(self, tmp_path):
        store = DirStore(tmp_path)
        keep_going = FailurePolicy(keep_going=True, backoff_base=0.001)
        run_sweep(make_spec(), cache=store, solve=_poison_margin2_solve,
                  failures=keep_going)
        # Resume with a now-working solver: the stored cells probe as
        # hits and the quarantined cell is NOT re-attempted.
        calls = []

        def counting(cell):
            calls.append(cell.margin)
            return _stub_solve(cell)

        report = run_sweep(make_spec(), cache=store, solve=counting, failures=keep_going)
        assert calls == [] and report.cached == 2
        assert report.quarantined == 1
        [skip] = report.skipped
        assert skip.detail == "persisted-record"
        # The original record survives the up-front quarantine untouched.
        assert store.get_failure(make_cell(margin=2.0))["error_type"] == "ValueError"
        # Clearing re-arms the cell.
        assert store.clear_failures() == 1
        report = run_sweep(make_spec(), cache=store, solve=counting, failures=keep_going)
        assert report.complete and calls == [2.0]

    def test_backoff_does_not_block_later_cells(self):
        calls = []

        def flaky_first(cell):
            calls.append(cell.margin)
            if calls == [1.0]:
                raise OSError("transient glitch")
            return _stub_solve(cell)

        long_backoff = FailurePolicy(backoff_base=0.5, backoff_cap=0.5)
        report = run_sweep(make_spec(), solve=flaky_first, failures=long_backoff)
        assert report.complete and calls == [1.0, 2.0, 3.0, 1.0]
        solved = [event.key for event in report.events if event.event == "solved"]
        assert solved == [cell_key(make_cell(margin=m)) for m in (2.0, 3.0, 1.0)]


class TestParallelRetries(RetryContract):
    jobs = 2


def _injected_solve(cell):
    """Worker-side stub; injected faults fire via the executor's trigger."""
    return {scheme: cell.margin + i for i, scheme in enumerate(SCHEME_COLUMNS)}


class TestParallelFaults:
    def test_injected_worker_kill_loses_no_results(self, tmp_path, monkeypatch):
        spec = make_spec(margins=(1.0, 2.0, 3.0, 4.0))
        poison = cell_key(spec.cells[1])
        monkeypatch.setenv(
            FAULTS_ENV,
            f"site=solve,action=kill,key={poison[:12]},times=1,state={tmp_path / 'st'}",
        )
        store = DirStore(tmp_path / "store")
        report = run_sweep(spec, jobs=2, cache=store, solve=_injected_solve,
                           failures=FAST_RETRIES)
        assert report.complete and len(report.results) == 4
        assert report.lifecycle_counts().get("retried", 0) >= 1
        for cell in spec.cells:
            assert store.get(cell) is not None

    def test_worker_death_between_submits_requeues_the_refused_chunk(
        self, tmp_path, monkeypatch
    ):
        """The first chunk's worker dies before the coordinator submits the
        second chunk (a busy host can deschedule the coordinator that
        long): the broken pool refuses the submit.  That chunk never ran,
        so the sweep requeues it and still loses no result."""

        class DeathBeforeSecondSubmit(ProcessPoolExecutor):
            submits = 0

            def submit(self, *args, **kwargs):
                type(self).submits += 1
                if type(self).submits == 2:
                    deadline = time.monotonic() + 60.0
                    while not self._broken and time.monotonic() < deadline:
                        time.sleep(0.01)
                    assert self._broken, "the poison cell's worker never died"
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(executor, "ProcessPoolExecutor", DeathBeforeSecondSubmit)
        self.test_injected_worker_kill_loses_no_results(tmp_path, monkeypatch)

    def test_persistent_kill_quarantines_as_worker_death(self, tmp_path, monkeypatch):
        spec = make_spec(margins=(1.0, 2.0, 3.0))
        poison = cell_key(spec.cells[2])
        monkeypatch.setenv(FAULTS_ENV, f"site=solve,action=kill,key={poison[:12]}")
        store = DirStore(tmp_path)
        report = run_sweep(
            spec, jobs=2, cache=store, solve=_injected_solve,
            failures=FailurePolicy(max_attempts=2, keep_going=True, backoff_base=0.001),
        )
        assert not report.aborted and report.quarantined == 1
        [skip] = report.skipped
        assert skip.key == poison and skip.detail == "worker-death"
        record = store.get_failure(spec.cells[2])
        assert record["error_type"] == "WorkerCrashError"
        # Sibling cells survived every pool replacement.
        assert store.get(spec.cells[0]) is not None
        assert store.get(spec.cells[1]) is not None

    def test_watchdog_kills_hung_worker_and_quarantines(self, tmp_path, monkeypatch):
        spec = make_spec(margins=(1.0, 2.0, 3.0))
        hung = cell_key(spec.cells[0])
        monkeypatch.setenv(
            FAULTS_ENV, f"site=solve,action=hang,seconds=30,key={hung[:12]}"
        )
        store = DirStore(tmp_path)
        started = time.monotonic()
        report = run_sweep(
            spec, jobs=2, cache=store, solve=_injected_solve,
            failures=FailurePolicy(
                max_attempts=2, keep_going=True, cell_timeout=0.75, backoff_base=0.001
            ),
        )
        assert time.monotonic() - started < 25.0  # never waited out a hang
        assert not report.aborted and report.quarantined == 1
        [skip] = report.skipped
        assert skip.key == hung and skip.detail == "timeout"
        counts = report.lifecycle_counts()
        assert counts.get("timed-out", 0) >= 1
        assert store.get_failure(spec.cells[0])["error_type"] == "CellTimeoutError"
        assert store.get(spec.cells[1]) is not None
        assert store.get(spec.cells[2]) is not None

    def test_store_put_fault_fires_at_boundary(self, tmp_path, monkeypatch):
        store = DirStore(tmp_path)
        cell = make_cell()
        monkeypatch.setenv(FAULTS_ENV, "site=store.put,action=raise,exc=OSError,times=1")
        with pytest.raises(OSError, match="injected"):
            store.put(cell, _stub_solve(cell))
        store.put(cell, _stub_solve(cell))  # budget spent
        assert store.get(cell) is not None

    def test_store_get_fault_fires_at_boundary(self, tmp_path, monkeypatch):
        store = DirStore(tmp_path)
        cell = make_cell()
        store.put(cell, _stub_solve(cell))
        monkeypatch.setenv(FAULTS_ENV, "site=store.get,action=raise,exc=OSError,times=1")
        with pytest.raises(OSError, match="injected OSError at store.get"):
            store.get(cell)
        assert store.get(cell) == _stub_solve(cell)  # budget spent


def _hang_solve(cell):
    time.sleep(120)
    return _stub_solve(cell)


def _hanging_child(root):
    """Child process: a sweep that stores margin 1 and hangs on margin 2."""

    def solve(cell):
        return _hang_solve(cell) if cell.margin == 2.0 else _stub_solve(cell)

    run_sweep(make_spec(), cache=DirStore(root), solve=solve)


class TestInterruptedRuns:
    def test_keyboard_interrupt_keeps_solved_cells(self, tmp_path):
        def interrupted(cell):
            if cell.margin == 2.0:
                raise KeyboardInterrupt
            return _stub_solve(cell)

        store = DirStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(make_spec(), cache=store, solve=interrupted)
        # Work done before the interrupt is preserved.
        assert store.get(make_cell(margin=1.0)) is not None
        assert store.get(make_cell(margin=2.0)) is None

    def test_sigterm_killed_run_resumes_from_store(self, tmp_path):
        stored = DirStore(tmp_path).path_for(make_cell(margin=1.0))
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_hanging_child, args=(tmp_path,))
        child.start()
        try:
            deadline = time.monotonic() + 20.0
            while not stored.exists():
                assert time.monotonic() < deadline, "child never stored margin 1"
                assert child.is_alive()
                time.sleep(0.05)
            child.terminate()  # SIGTERM mid-solve of margin 2
            child.join(timeout=10.0)
            assert not child.is_alive()
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        # Resume solves only what the killed run did not store.
        report = run_sweep(make_spec(), cache=DirStore(tmp_path), solve=_stub_solve)
        assert report.complete
        assert [result.status for result in report.results] == [
            "cache-hit", "solved", "solved",
        ]


def test_lifecycle_events_are_the_events_sweeps_emit(tmp_path, monkeypatch):
    """Sweeps that solve, serve from the store, fail, retry, time out and
    quarantine emit exactly the names ``LIFECYCLE_EVENTS`` declares."""
    calls = []

    def flaky(cell):
        calls.append(cell.margin)
        if cell.margin == 1.0 and calls.count(1.0) == 1:
            raise OSError("transient glitch")
        return _poison_margin2_solve(cell)

    keep_going = FailurePolicy(keep_going=True, backoff_base=0.001, backoff_cap=0.01)
    store = DirStore(tmp_path / "serial")
    reports = [
        run_sweep(make_spec(), cache=store, solve=flaky, failures=keep_going),
        run_sweep(make_spec(), cache=store, solve=_stub_solve, failures=keep_going),
    ]
    spec = make_spec(margins=(1.0, 2.0))
    hung = cell_key(spec.cells[0])
    monkeypatch.setenv(FAULTS_ENV, f"site=solve,action=hang,seconds=30,key={hung[:12]}")
    reports.append(run_sweep(
        spec, jobs=2, cache=DirStore(tmp_path / "parallel"), solve=_injected_solve,
        failures=FailurePolicy(
            max_attempts=1, keep_going=True, cell_timeout=0.75, backoff_base=0.001
        ),
    ))
    emitted = {event.event for report in reports for event in report.events}
    assert emitted == set(LIFECYCLE_EVENTS)
