"""Tests for the fault-tolerant sweep service.

The crash/hang points below MUST only run on the supervised path (two or
more workers): on the serial in-process path an ``os._exit`` would kill
the test process itself.  Each such test therefore submits at least two
pending points with ``processes=2``.
"""

import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.experiments.sweeprunner import (
    CORRUPT_MARKER,
    FaultPlan,
    RunLedger,
    SweepCache,
    SweepOptions,
    SweepPointsFailed,
    collect_garbage,
    lease_counts,
    make_task,
    run_sweep,
    run_sweep_outcome,
)
from repro.experiments.sweeprunner.__main__ import main as sweeprunner_main
from repro.experiments.sweeprunner.__main__ import sweep_status
from repro.experiments.sweeprunner.claims import (
    ConcurrentDriverError,
    claimed_epochs,
)
from repro.experiments.sweeprunner.ledger import (
    TaskRecord,
    read_events,
    replay,
)
from repro.experiments.sweeprunner.tasks import describe_key_derivation
from sweep_proofs import proofs


def _ok(value: int) -> dict:
    return {"value": value, "result": value * 2}


def _crash_once(value: int, marker: str) -> dict:
    """First execution dies without reporting; the retry succeeds."""
    path = Path(marker)
    if not path.exists():
        path.write_text("crashed")
        os._exit(1)
    return {"value": value, "recovered": True}


def _hang_once(value: int, marker: str) -> dict:
    """First execution hangs past any timeout; the retry succeeds."""
    path = Path(marker)
    if not path.exists():
        path.write_text("hung")
        time.sleep(600)
    return {"value": value, "recovered": True}


def _corrupt_once(value: int, marker: str) -> dict:
    """First execution returns a row that fails integrity validation."""
    path = Path(marker)
    if not path.exists():
        path.write_text("corrupt")
        return {CORRUPT_MARKER: True}
    return {"value": value, "recovered": True}


def _always_fails(value: int) -> dict:
    raise ValueError(f"point {value} is broken")


def _fails_on_three(value: int) -> dict:
    if value == 3:
        raise ValueError("point 3 is broken")
    return {"value": value}


def _tally(value: int, tally: str) -> dict:
    with open(tally, "a") as handle:
        handle.write(f"{value}\n")
    return {"value": value}


def _interrupt_on(value: int) -> dict:
    if value == 1:
        raise KeyboardInterrupt
    return {"value": value}


def _mint_next_epoch(value: int, root: str) -> dict:
    """Claims the epoch after its own running lease, as a second driver
    working on the same directory would."""
    key = make_task(_mint_next_epoch, {"value": value, "root": root}
                    ).cache_key()
    claims = Path(root) / "claims"
    epoch = len(list(claims.glob(f"{key}.epoch-*")))
    (claims / f"{key}.epoch-{epoch + 1}").write_text("{}")
    return {"value": value}


def _error_once(value: int, marker: str) -> dict:
    """First execution raises; the retry succeeds."""
    path = Path(marker)
    if not path.exists():
        path.write_text("failed")
        raise ValueError("first attempt fails")
    return {"value": value}


_RELEASE_POINT = threading.Event()


def _wait_for_release(value: int) -> dict:
    _RELEASE_POINT.wait(timeout=10.0)
    return {"value": value}


class TestStoreValidation:
    """Satellite: validation precedes the hit counter; corrupt files are
    quarantined instead of poisoning every future load."""

    def _seed(self, tmp_path, payload: str):
        cache = SweepCache(tmp_path)
        task = make_task(_ok, {"value": 1})
        (tmp_path / f"{task.cache_key()}.json").write_text(payload)
        return cache, task

    def test_null_row_is_miss_and_quarantined(self, tmp_path):
        cache, task = self._seed(tmp_path, json.dumps({"row": None}))
        assert cache.load(task) is None
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 1)
        assert not list(tmp_path.glob("*.json"))
        assert len(list(tmp_path.glob("*.corrupt"))) == 1

    def test_non_dict_entry_quarantined(self, tmp_path):
        cache, task = self._seed(tmp_path, json.dumps([1, 2, 3]))
        assert cache.load(task) is None
        assert cache.quarantined == 1

    def test_non_dict_row_quarantined(self, tmp_path):
        cache, task = self._seed(tmp_path, json.dumps({"row": [1]}))
        assert cache.load(task) is None
        assert cache.quarantined == 1

    def test_quarantined_key_recomputes_once(self, tmp_path):
        cache, task = self._seed(tmp_path, "{torn")
        assert cache.load(task) is None
        # The poisoned file is out of the namespace: storing works again.
        assert cache.store(task, {"value": 1}) is True
        assert cache.load(task) == {"value": 1}
        assert cache.hits == 1


class TestLedger:
    def test_replay_counts_leases_and_done(self, tmp_path):
        path = tmp_path / "sweep-abc.jsonl"
        journal = RunLedger(path)
        journal.append_queued(["k1", "k2"], {"points": 2})
        journal.append_leased("k1", 1)
        journal.append_done("k1", 1)
        journal.append_leased("k2", 1)
        journal.append_failed("k2", 1, "crash", "", "boom")
        journal.append_leased("k2", 2)
        journal.close()

        replayed = RunLedger(path)
        assert replayed.resumed
        assert replayed.record("k1").done
        assert replayed.record("k2").leases == 2
        assert replayed.record("k2").failures[0]["kind"] == "crash"
        replayed.close()
        assert lease_counts(path) == {"k1": 1, "k2": 2}

    def test_replay_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "sweep-torn.jsonl"
        journal = RunLedger(path)
        journal.append_leased("k1", 1)
        journal.close()
        with path.open("a") as handle:
            handle.write('{"event": "done", "key": "k1"')  # no newline, torn
        replayed = RunLedger(path)
        assert replayed.torn_lines == 1
        assert replayed.record("k1").leases == 1
        assert not replayed.record("k1").done
        replayed.close()


    def test_replay_is_the_ledgers_own_reader(self, tmp_path):
        path = tmp_path / "sweep-x.jsonl"
        journal = RunLedger(path)
        journal.append_queued(["a", "b"], {"max_retries": 1})
        journal.append_leased("a", 1)
        journal.append_failed("a", 1, "crash")
        journal.append_leased("a", 2, checkpoint="resume")
        journal.append_done("a", 2)
        journal.append_leased("b", 1)
        journal.close()
        records = replay(read_events(path)[0])
        assert records["a"] == TaskRecord(
            leases=2, done=True, resumed=1,
            failures=[{"attempt": 1, "kind": "crash", "error_type": "",
                       "message": ""}])
        assert records["b"] == TaskRecord(leases=1)
        reopened = RunLedger(path)
        assert {key: reopened.record(key) for key in records} == records
        assert reopened.compact()
        reopened.close()
        assert replay(read_events(path)[0]) == records

    def test_one_journal_per_sweep_across_driver_runs(self, tmp_path):
        options = SweepOptions(processes=1, cache_dir=tmp_path,
                               max_retries=0, strict=False)
        params = [{"value": v} for v in (2, 3)]
        first = run_sweep_outcome(_fails_on_three, params, options=options)
        second = run_sweep_outcome(_fails_on_three, params, options=options)
        assert first.ledger_path == second.ledger_path
        assert re.fullmatch(r"sweep-[0-9a-f]{16}\.jsonl",
                            first.ledger_path.name)
        assert [p.name for p in (tmp_path / "ledger").iterdir()] == [
            first.ledger_path.name]
        assert second.stats.resumed and second.stats.executed == 0
        assert sorted(lease_counts(first.ledger_path).values()) == [1, 1]


class TestSupervisedRecovery:
    def test_worker_crash_respawned_and_retried(self, tmp_path):
        marker = tmp_path / "crash.marker"
        params = [{"value": 0, "marker": str(marker)},
                  {"value": 1, "marker": str(marker)}]
        outcome = run_sweep_outcome(
            _crash_once, params,
            options=SweepOptions(processes=2, cache_dir="",
                                 max_retries=2, retry_backoff=0.01))
        assert outcome.ok, outcome.failure_report()
        assert len(outcome.rows) == 2
        assert outcome.stats.crashes >= 1
        assert outcome.stats.worker_respawns >= 1
        assert outcome.stats.retries >= 1

    def test_hung_worker_killed_on_timeout(self, tmp_path):
        marker = tmp_path / "hang.marker"
        params = [{"value": 0, "marker": str(marker)},
                  {"value": 1, "marker": str(marker)}]
        outcome = run_sweep_outcome(
            _hang_once, params,
            options=SweepOptions(processes=2, cache_dir="",
                                 max_retries=2, task_timeout=1.0,
                                 retry_backoff=0.01))
        assert outcome.ok, outcome.failure_report()
        assert outcome.stats.timeouts >= 1
        assert outcome.stats.worker_respawns >= 1

    def test_corrupt_row_rejected_and_retried(self, tmp_path):
        marker = tmp_path / "corrupt.marker"
        outcome = run_sweep_outcome(
            _corrupt_once, [{"value": 0, "marker": str(marker)}],
            options=SweepOptions(processes=1, cache_dir="",
                                 max_retries=2, retry_backoff=0.01))
        assert outcome.ok, outcome.failure_report()
        assert outcome.stats.corrupt_rows >= 1
        assert outcome.rows[0]["recovered"] is True


THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _thread_env(value: int) -> dict:
    return {"value": value,
            **{name: os.environ.get(name) for name in THREAD_ENV}}


class TestWorkerThreadShare:
    """Workers default their BLAS pools to cpu_count // workers, so that a
    point function importing numpy in the worker does not oversubscribe."""

    OPTIONS = dict(processes=2, cache_dir="")

    def test_unset_variables_default_to_the_share(self, monkeypatch):
        for name in THREAD_ENV:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)  # forked workers inherit it
        rows = run_sweep(_thread_env, [{"value": 0}, {"value": 1}],
                         options=SweepOptions(**self.OPTIONS))
        assert [row["value"] for row in rows] == [0, 1]
        for row in rows:
            assert [row[name] for name in THREAD_ENV] == ["4", "4", "4"]
        assert not any(name in os.environ for name in THREAD_ENV)

    def test_share_is_at_least_one_thread(self, monkeypatch):
        for name in THREAD_ENV:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        rows = run_sweep(_thread_env, [{"value": 0}, {"value": 1}],
                         options=SweepOptions(**self.OPTIONS))
        assert all(row[name] == "1" for row in rows for name in THREAD_ENV)

    def test_caller_set_value_wins(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        rows = run_sweep(_thread_env, [{"value": 0}, {"value": 1}],
                         options=SweepOptions(**self.OPTIONS))
        for row in rows:
            assert row["OPENBLAS_NUM_THREADS"] == "2"
            assert row["OMP_NUM_THREADS"] == row["MKL_NUM_THREADS"] == "4"


class TestGracefulDegradation:
    def test_exhausted_retries_reported_not_raised(self, tmp_path, capsys):
        params = [{"value": 0}, {"value": 1}]
        rows = run_sweep(
            _always_fails, params,
            options=SweepOptions(processes=1, cache_dir="",
                                 max_retries=1, retry_backoff=0.0,
                                 strict=False))
        assert rows == []
        err = capsys.readouterr().err
        assert "failed" in err and "ValueError" in err

    def test_strict_mode_raises_with_outcome(self):
        with pytest.raises(SweepPointsFailed) as excinfo:
            run_sweep(_always_fails, [{"value": 3}],
                      options=SweepOptions(processes=1, cache_dir="",
                                           max_retries=1,
                                           retry_backoff=0.0, strict=True))
        outcome = excinfo.value.outcome
        assert not outcome.ok
        failure = outcome.failures[0]
        assert failure.error_type == "ValueError"
        assert failure.attempts == 2  # 1 + max_retries executions, no more

    def test_non_strict_prints_degraded_report(self, capsys):
        rows = run_sweep(_always_fails, [{"value": 4}],
                         options=SweepOptions(processes=1, cache_dir="",
                                              max_retries=0, strict=False))
        assert rows == []
        assert "sweep degraded" in capsys.readouterr().err

    def test_partial_rows_survive_failures(self, tmp_path, capsys):
        tally = tmp_path / "tally.txt"
        params = [{"value": 0, "tally": str(tally)}]
        rows = run_sweep(_tally, params,
                         options=SweepOptions(processes=1, cache_dir="",
                                              strict=False))
        assert rows == [{"value": 0}]


class TestFaultPlansAreArguments:
    """Faults and strict mode come from ``SweepOptions`` only: variables
    left exported in a shell change nothing about an ordinary sweep."""

    def test_exported_fault_and_strict_variables_are_ignored(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_FAULT_RATE", "1")
        monkeypatch.setenv("REPRO_SWEEP_STRICT", "0")
        params = [{"value": v} for v in range(6)]
        with pytest.raises(SweepPointsFailed) as excinfo:
            run_sweep(_fails_on_three, params,
                      options=SweepOptions(processes=1, cache_dir=tmp_path,
                                           max_retries=1, retry_backoff=0.0))
        outcome = excinfo.value.outcome
        assert [f.params for f in outcome.failures] == [{"value": 3}]
        leases = lease_counts(outcome.ledger_path)
        for point in params:
            key = make_task(_fails_on_three, point).cache_key()
            assert leases[key] == (2 if point["value"] == 3 else 1), point

    def test_decide_schedule_is_pinned(self):
        # The CI proofs' plans on fixed keys: decisions computed before the
        # proofs left src/, so the same seed still injects the same faults
        # at the same (key, attempt) pairs.
        plan = FaultPlan(rate=0.05, seed=7)
        assert [plan.decide(key, attempt) for key, attempt in (
            ("point-0", 1), ("point-5", 1), ("point-5", 2), ("point-19", 1),
            ("point-61", 1), ("point-64", 1), ("point-64", 3))] == [
            None, None, "hang", "die", "corrupt", None, "crash"]


class TestDedupe:
    def test_identical_params_execute_once(self, tmp_path):
        tally = tmp_path / "tally.txt"
        params = [{"value": 7, "tally": str(tally)}] * 3
        rows = run_sweep(_tally, params,
                         options=SweepOptions(processes=1, cache_dir=""))
        assert rows == [{"value": 7}] * 3
        assert tally.read_text().splitlines() == ["7"]


class TestDurability:
    def test_interrupted_lease_counts_against_budget(self, tmp_path):
        # Simulate a driver that died right after claiming two attempts:
        # its epoch claims count toward 1 + max_retries.
        task = make_task(_always_fails, {"value": 9})
        claims = tmp_path / "claims"
        claims.mkdir()
        for epoch in (1, 2):
            (claims / f"{task.cache_key()}.epoch-{epoch}").write_text("{}")
        options = SweepOptions(processes=1, cache_dir=tmp_path,
                               max_retries=2, retry_backoff=0.0,
                               strict=False)

        outcome = run_sweep_outcome(_always_fails, [{"value": 9}],
                                    options=options)
        assert not outcome.ok
        # Two interrupted claims + one live execution == 3 == budget.
        assert outcome.failures[0].attempts == 3
        assert outcome.stats.executed == 1
        assert lease_counts(outcome.ledger_path)[task.cache_key()] == 1

    def test_unwritable_cache_degrades_to_memory_only(self, tmp_path,
                                                      capsys):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        outcome = run_sweep_outcome(
            _ok, [{"value": 1}, {"value": 2}],
            options=SweepOptions(processes=1, cache_dir=blocker / "cache"))
        assert outcome.ok
        assert outcome.rows == [_ok(1), _ok(2)]
        assert outcome.ledger_path is None
        assert outcome.stats.executed == 2
        err = capsys.readouterr().err
        assert f"sweep cache disabled ({blocker / 'cache'}: " in err

    def test_serial_and_supervised_faults_journal_alike(self, tmp_path):
        # One fault table drives both executors: the same faulty sweep run
        # inline and on two workers fails the same (attempt, kind) pairs
        # per key and lands the same rows.
        params = [{"value": v} for v in range(8)]
        keys = [make_task(_ok, p).cache_key() for p in params]
        # Keys carry the source fingerprint, so a fixed seed's schedule
        # moves with every edit under src/: take the first seed whose
        # schedule crashes and corrupts some first attempt and leaves every
        # key a clean attempt within its budget of five.
        plan = next(plan for plan in (
            FaultPlan(rate=0.3, seed=seed, kinds=("crash", "corrupt", "die"))
            for seed in range(1000))
            if {"crash", "corrupt"} <= {plan.decide(key, 1) for key in keys}
            and all(None in {plan.decide(key, attempt)
                             for attempt in range(1, 6)} for key in keys))
        runs = {}
        for processes in (1, 2):
            outcome = run_sweep_outcome(
                _ok, params, options=SweepOptions(
                    processes=processes, cache_dir=tmp_path / str(processes),
                    max_retries=4, retry_backoff=0.01, fault_plan=plan,
                    strict=False))
            journal = RunLedger(outcome.ledger_path)
            failed = {key: [(f["attempt"], f["kind"])
                            for f in journal.record(key).failures]
                      for key in keys}
            journal.close()
            runs[processes] = (outcome.rows, failed)
        assert runs[1] == runs[2]
        rows, failed = runs[1]
        assert rows == [_ok(p["value"]) for p in params]
        kinds = {kind for pairs in failed.values() for _, kind in pairs}
        assert kinds == {"crash", "corrupt-row"}


class TestClaims:
    """Epoch files count attempts across driver runs; a second live driver
    on the same directory is an error, not a silent race."""

    def test_dead_predecessors_claim_resumes_its_checkpoint(self, tmp_path):
        # A driver killed mid-point left its claim and a checkpoint: the
        # next run re-claims the key under epoch 2 as a resume.
        params = {"value": 5}
        key = make_task(_ok, params).cache_key()
        (tmp_path / "claims").mkdir()
        (tmp_path / "claims" / f"{key}.epoch-1").write_text("{}")
        (tmp_path / "checkpoints").mkdir()
        (tmp_path / "checkpoints" / f"{key}.ckpt").write_bytes(b"state")
        outcome = run_sweep_outcome(
            _ok, [params], options=SweepOptions(processes=1,
                                                cache_dir=tmp_path))
        assert outcome.rows == [_ok(5)]
        assert outcome.stats.retries == 1
        assert lease_counts(outcome.ledger_path, "resume") == {key: 1}
        assert not (tmp_path / "checkpoints" / f"{key}.ckpt").exists()

    def test_second_driver_fails_the_sweep_loudly(self, tmp_path):
        # The point claims the epoch after its own lease, so the fencing
        # check before the row lands finds a newer attempt than ours.
        params = [{"value": 1, "root": str(tmp_path)}]
        with pytest.raises(ConcurrentDriverError) as excinfo:
            run_sweep_outcome(_mint_next_epoch, params, options=SweepOptions(
                processes=1, cache_dir=tmp_path))
        assert str(tmp_path) in str(excinfo.value)
        assert not list(tmp_path.glob("*.json"))  # no row landed
    def test_dead_predecessors_claim_without_checkpoint_reruns_fresh(
            self, tmp_path):
        params = {"value": 6}
        key = make_task(_ok, params).cache_key()
        (tmp_path / "claims").mkdir()
        (tmp_path / "claims" / f"{key}.epoch-1").write_text("{}")
        outcome = run_sweep_outcome(
            _ok, [params], options=SweepOptions(processes=1,
                                                cache_dir=tmp_path))
        assert outcome.rows == [_ok(6)]
        assert (outcome.stats.executed, outcome.stats.retries) == (1, 1)
        assert lease_counts(outcome.ledger_path) == {key: 1}
        assert lease_counts(outcome.ledger_path, "resume") == {}

    def test_supervised_second_driver_fails_the_sweep_loudly(self, tmp_path):
        # The same fencing check, on rows that arrive from worker processes.
        params = [{"value": v, "root": str(tmp_path)} for v in (1, 2)]
        with pytest.raises(ConcurrentDriverError) as excinfo:
            run_sweep_outcome(_mint_next_epoch, params, options=SweepOptions(
                processes=2, cache_dir=tmp_path))
        assert str(tmp_path) in str(excinfo.value)
        assert not list(tmp_path.glob("*.json"))

    def test_memory_only_sweep_counts_attempts_in_memory(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        outcome = run_sweep_outcome(
            _always_fails, [{"value": 1}], options=SweepOptions(
                processes=1, cache_dir="", max_retries=1, retry_backoff=0.0,
                strict=False))
        assert outcome.stats.executed == 2
        assert outcome.failures[0].attempts == 2
        assert outcome.ledger_path is None
        assert not list(tmp_path.iterdir())

    def test_claimed_epochs_reads_the_highest_epoch_per_key(self, tmp_path):
        for name in ("k1.epoch-1", "k1.epoch-3", "k2.epoch-1",
                     "k3.epoch-x", "notes.txt"):
            (tmp_path / name).write_text("{}")
        assert claimed_epochs(tmp_path) == {"k1": 3, "k2": 1}
        assert claimed_epochs(tmp_path / "missing") == {}

    def test_clean_completion_removes_its_claims(self, tmp_path):
        marker = str(tmp_path / "failed-once")
        store = tmp_path / "store"
        outcome = run_sweep_outcome(
            _error_once, [{"value": v, "marker": marker} for v in (1, 2)],
            options=SweepOptions(processes=1, cache_dir=store,
                                 retry_backoff=0.0))
        assert outcome.ok and outcome.stats.retries == 1
        # The journal keeps the attempt counts; the landed rows' claims go.
        assert sorted(lease_counts(outcome.ledger_path).values()) == [1, 2]
        assert not list((store / "claims").iterdir())


class TestGarbageCollection:
    def test_checkpoints_and_claims_of_landed_rows_removed(self, tmp_path):
        for kind, names in (("checkpoints", ("k1.ckpt", "k2.ckpt")),
                            ("claims", ("k1.epoch-1", "k1.epoch-2",
                                        "k2.epoch-1"))):
            (tmp_path / kind).mkdir()
            for name in names:
                (tmp_path / kind / name).write_bytes(b"x")
        (tmp_path / "k1.json").write_text("{}")
        removed = collect_garbage(tmp_path)
        assert (removed["checkpoints"], removed["claims"]) == (1, 2)
        # k2's row has not landed: its resume file and attempt count are
        # live recovery state.
        assert sorted(p.name for p in tmp_path.glob("*/*")) == [
            "k2.ckpt", "k2.epoch-1"]


    def test_claims_of_a_quarantined_row_kept(self, tmp_path):
        # A quarantined row left the key namespace: the key runs again,
        # and its spent attempts still count.
        (tmp_path / "claims").mkdir()
        claim = tmp_path / "claims" / "k1.epoch-1"
        claim.write_text("{}")
        (tmp_path / "k1.corrupt").write_text("{}")
        assert collect_garbage(tmp_path)["claims"] == 0
        assert claim.exists()


class TestStatus:
    """``python -m repro.experiments.sweeprunner status <dir>`` reads the
    journal and claims of a live or dead sweep, and writes nothing."""

    def test_finished_and_compacted_sweep(self, tmp_path):
        params = [{"value": v} for v in range(3)]
        run_sweep(_ok, params, options=SweepOptions(processes=1,
                                                    cache_dir=tmp_path))
        [report] = sweep_status(tmp_path)
        assert report["totals"] == {"queued": 0, "leased": 0, "done": 3,
                                    "failed": 0, "exhausted": 0}
        assert report["done_per_s"] is None  # compaction drops the stamps
        assert report["eta_s"] == 0.0
        assert {entry["attempts"] for entry in report["keys"].values()} == {1}

    def test_killed_driver_leaves_a_leased_key(self, tmp_path):
        # The journal of a driver SIGKILLed while point b ran.
        journal = RunLedger(tmp_path / "ledger" / "sweep-dead.jsonl")
        journal.append_queued(["a", "b", "c"], {"max_retries": 2})
        journal.append_leased("a", 1)
        journal.append_done("a", 1)
        journal.append_leased("b", 1)
        journal.append_failed("b", 1, "crash")
        journal.append_leased("b", 2)
        journal.close()
        (tmp_path / "claims").mkdir()
        for epoch in (1, 2):
            (tmp_path / "claims" / f"b.epoch-{epoch}").write_text("{}")
        [report] = sweep_status(tmp_path)
        keys = report["keys"]
        assert keys["a"] == {"state": "done", "attempts": 1, "failures": []}
        assert keys["b"] == {"state": "leased", "attempts": 2,
                             "failures": ["crash"]}
        assert keys["c"] == {"state": "queued", "attempts": 0,
                             "failures": []}
        assert report["totals"]["done"] == 1
        assert report["done_per_s"] > 0
        assert report["eta_s"] == pytest.approx(2 / report["done_per_s"])

    def test_key_exhausted_without_strict(self, tmp_path):
        run_sweep(_fails_on_three, [{"value": v} for v in (2, 3)],
                  options=SweepOptions(processes=1, cache_dir=tmp_path,
                                       max_retries=1, retry_backoff=0.0,
                                       strict=False))
        [report] = sweep_status(tmp_path)
        key = make_task(_fails_on_three, {"value": 3}).cache_key()
        assert report["keys"][key] == {"state": "exhausted", "attempts": 2,
                                       "failures": ["error", "error"]}
        assert report["totals"]["exhausted"] == 1
        assert report["totals"]["done"] == 1
        assert report["eta_s"] == 0.0

    def test_status_writes_nothing(self, tmp_path, capsys):
        run_sweep(_fails_on_three, [{"value": v} for v in (2, 3)],
                  options=SweepOptions(processes=1, cache_dir=tmp_path,
                                       max_retries=0, strict=False))
        capsys.readouterr()

        def tree():
            return {path: (path.stat().st_mtime_ns, path.stat().st_size)
                    for path in tmp_path.rglob("*")}

        before = tree()
        assert sweeprunner_main(["status", str(tmp_path)]) == 0
        assert tree() == before
        [line] = capsys.readouterr().out.splitlines()
        assert json.loads(line)["totals"]["exhausted"] == 1


    def test_no_journal_exits_nonzero(self, tmp_path, capsys):
        assert sweeprunner_main(["status", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no sweep journal" in captured.err
        assert not list(tmp_path.iterdir())

    def test_module_entry_point(self, tmp_path):
        run_sweep(_fails_on_three, [{"value": v} for v in (2, 3)],
                  options=SweepOptions(processes=1, cache_dir=tmp_path,
                                       max_retries=0, strict=False))
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "repro.experiments.sweeprunner",
             "status", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), text=True,
            capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        [line] = done.stdout.splitlines()
        report = json.loads(line)
        assert report["fn"].endswith("._fails_on_three")
        assert (report["totals"]["done"], report["totals"]["exhausted"]) \
            == (1, 1)

    def _journal(self, tmp_path, keys, meta):
        journal = RunLedger(tmp_path / "ledger" / "sweep-x.jsonl")
        journal.append_queued(keys, meta)
        return journal

    def test_failed_key_with_attempts_left(self, tmp_path):
        journal = self._journal(tmp_path, ["a"], {"max_retries": 2})
        journal.append_leased("a", 1)
        journal.append_failed("a", 1, "timeout")
        journal.close()
        [report] = sweep_status(tmp_path)
        assert report["keys"]["a"] == {"state": "failed", "attempts": 1,
                                       "failures": ["timeout"]}
        assert report["done_per_s"] is None and report["eta_s"] is None

    def test_journal_without_budget_is_never_exhausted(self, tmp_path):
        journal = self._journal(tmp_path, ["a"], {})
        for attempt in range(1, 5):
            journal.append_leased("a", attempt)
            journal.append_failed("a", attempt, "error")
        journal.close()
        [report] = sweep_status(tmp_path)
        assert report["keys"]["a"]["state"] == "failed"
        assert report["keys"]["a"]["attempts"] == 4

    def test_claims_count_attempts_the_journal_missed(self, tmp_path):
        # A driver killed between minting a claim and journaling its lease:
        # the claim is a spent attempt all the same.
        self._journal(tmp_path, ["a", "b"], {"max_retries": 1}).close()
        (tmp_path / "claims").mkdir()
        for name in ("a.epoch-1", "a.epoch-2", "b.epoch-1"):
            (tmp_path / "claims" / name).write_text("{}")
        [report] = sweep_status(tmp_path)
        assert report["keys"]["a"] == {"state": "exhausted", "attempts": 2,
                                       "failures": []}
        assert report["keys"]["b"] == {"state": "queued", "attempts": 1,
                                       "failures": []}

    def test_rate_and_eta_from_record_stamps(self, tmp_path):
        self._journal(tmp_path, ["a", "b", "c"], {"max_retries": 0}).close()
        path = tmp_path / "ledger" / "sweep-x.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            for event, key, stamp in (("leased", "a", 100.0),
                                      ("done", "a", 102.0),
                                      ("leased", "b", 102.0),
                                      ("done", "b", 104.0)):
                handle.write(json.dumps({"event": event, "key": key,
                                         "attempt": 1, "t": stamp}) + "\n")
            handle.write('{"event": "leased", "key": "c", "att')  # torn
        [report] = sweep_status(tmp_path)
        assert report["done_per_s"] == pytest.approx(0.5)
        assert report["eta_s"] == pytest.approx(2.0)
        assert report["keys"]["c"]["state"] == "queued"

    def test_one_report_per_sweep_journal(self, tmp_path):
        options = SweepOptions(processes=1, cache_dir=tmp_path,
                               max_retries=0, strict=False)
        run_sweep(_ok, [{"value": 1}], options=options)
        run_sweep(_fails_on_three, [{"value": 3}], options=options)
        reports = sweep_status(tmp_path)
        assert [r["ledger"] for r in reports] == sorted(
            p.name for p in (tmp_path / "ledger").iterdir())
        # The finished sweep's journal is compacted: its point function
        # went with the queued records.
        totals = {r["fn"]: r["totals"] for r in reports}
        assert totals[None]["done"] == 1
        [named] = [fn for fn in totals if fn]
        assert named.endswith("._fails_on_three")
        assert totals[named]["exhausted"] == 1

    def test_live_sweep_shows_its_running_key(self, tmp_path):
        _RELEASE_POINT.clear()
        params = [{"value": v} for v in (1, 2)]
        driver = threading.Thread(target=run_sweep, args=(
            _wait_for_release, params), kwargs={"options": SweepOptions(
                processes=1, cache_dir=tmp_path)})
        driver.start()
        try:
            deadline = time.monotonic() + 10.0
            totals = {}
            while time.monotonic() < deadline:
                reports = sweep_status(tmp_path)
                totals = reports[0]["totals"] if reports else {}
                if totals.get("leased"):
                    break
                time.sleep(0.01)
            assert (totals["leased"], totals["queued"]) == (1, 1)
        finally:
            _RELEASE_POINT.set()
            driver.join(timeout=10)
        assert not driver.is_alive()
        [report] = sweep_status(tmp_path)
        assert report["totals"]["done"] == 2


class TestKeyboardInterrupt:
    def test_serial_interrupt_prints_resume_hint(self, tmp_path, capsys):
        params = [{"value": 0}, {"value": 1}]
        with pytest.raises(KeyboardInterrupt):
            run_sweep(_interrupt_on, params,
                      options=SweepOptions(processes=1,
                                           cache_dir=tmp_path / "cache"))
        err = capsys.readouterr().err
        assert "sweep interrupted" in err
        assert "1/2 rows journaled" in err
        assert "resume" in err
        # The completed row is durable: a re-run replays it from the store.
        assert len(list((tmp_path / "cache").glob("*.json"))) == 1

    def test_interrupt_without_journal_names_the_knob(self, capsys):
        with pytest.raises(KeyboardInterrupt):
            run_sweep(_interrupt_on, [{"value": 1}],
                      options=SweepOptions(processes=1, cache_dir=""))
        err = capsys.readouterr().err
        assert "REPRO_SWEEP_CACHE" in err


class TestSpawnKeyDerivation:
    """Satellite: cache-key environment invalidation holds under spawn.

    A spawn-context worker re-imports the world from scratch; its derived
    environment axes and code fingerprint must match the driver's, or
    cached rows would never replay (or worse, replay stale)."""

    def test_spawn_worker_derives_identical_keys(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLATFORM", "hbm2")
        local = describe_key_derivation({"value": 11})
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            remote = pool.apply(describe_key_derivation, ({"value": 11},))
        assert remote == local

    def test_spawn_worker_sees_env_change(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLATFORM", raising=False)
        baseline = describe_key_derivation({"value": 11})
        monkeypatch.setenv("REPRO_PLATFORM", "hbm2")
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            retargeted = pool.apply(describe_key_derivation, ({"value": 11},))
        assert retargeted["environment"] != baseline["environment"]
        assert retargeted["key"] != baseline["key"]


class TestModuleIdentity:
    """``python -m repro.experiments.figXX`` runs the figure module as
    ``__main__``; its rows must key under the module's import name, or the
    CLI and library callers would never replay each other's rows."""

    def test_cli_rows_replay_in_library_callers(self, tmp_path):
        from repro.experiments import fig15_svrg

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, REPRO_SWEEP_CACHE=str(tmp_path))
        done = subprocess.run(
            [sys.executable, "-m", "repro.experiments.fig15_svrg"],
            env=env, text=True, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr
        params = [{"num_ndas": num_ndas, "outer_iterations": 10,
                   "measure": False, "dataset_kwargs": None, "platform": None}
                  for num_ndas in (4, 8, 16)]
        outcome = run_sweep_outcome(fig15_svrg._point, params, processes=1,
                                    cache_dir=tmp_path)
        assert (outcome.stats.cache_hits, outcome.stats.cache_misses) == (3, 0)


class TestRecoveryProof:
    """The ISSUE's acceptance bar: >=200 points, ~5% injected faults, one
    hard driver kill, bit-identical resume, lease bound held."""

    def test_crash_fault_resume_proof(self, tmp_path):
        report = proofs.run_proof(
            points=200, fault_rate=0.05, seed=7, kill_after=15, workers=4,
            max_retries=3, task_timeout=1.5, spin=500, sleep=0.004,
            store_dir=tmp_path, verbose=False)
        assert report["ok"], report
        assert report["rows_match"]
        assert report["failures"] == 0
        assert report["lease_bound_held"]
        assert report["max_leases_observed"] <= 1 + 3
        if not report["child_finished_before_kill"]:
            assert report["status_done_at_kill"] \
                == report["ledger_done_records_at_kill"]

    def test_checkpoint_kill_resume_proof(self, tmp_path):
        """The checkpoint proof, scaled down: a driver SIGKILLed mid-point
        leaves its claim and checkpoint, and the next driver re-claims the
        key as a resume and lands the uninterrupted run's row."""
        report = proofs.run_ckpt_proof(cycles=4000, elements=1 << 10,
                                       every=200, store_dir=tmp_path,
                                       verbose=False)
        assert report["ok"], report
        if report["killed_mid_point"]:
            assert report["resumed_leases"] == 1
            assert not list((tmp_path / "claims").iterdir())
