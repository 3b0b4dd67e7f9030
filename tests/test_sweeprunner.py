"""Tests for the fault-tolerant sweep service.

The crash/hang points below MUST only run on the supervised path (two or
more workers): on the serial in-process path an ``os._exit`` would kill
the test process itself.  Each such test therefore submits at least two
pending points with ``processes=2``.
"""

import json
import multiprocessing
import os
import subprocess
import sys
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
    lease_counts,
    make_task,
    resolve_host,
    run_sweep,
    run_sweep_outcome,
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
        cluster = FaultPlan(rate=0.1, seed=7, kinds=("netsplit", "steal-race"))
        assert [cluster.decide(key, 1)
                for key in ("point-0", "point-12", "point-61")] == [
            None, "steal-race", "netsplit"]


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
            (claims / f"{task.cache_key()}.epoch-{epoch}").write_text(
                json.dumps({"host": resolve_host()}))
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
