"""Tests for the claims of a shared sweep directory
(repro.experiments.sweeprunner.claims).

A sweep directory may sit on a filesystem that several machines mount, and
any of them may resume it, but only one driver works on it at a time.  The
epoch files under ``claims/`` count attempts across those driver runs and
fence a second live driver out loudly.  Most tests drive :class:`Claims`
directly against a tmp directory; the end-to-end ones run real in-process
drivers (threads) over one directory.
"""

import json
import os
import re
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.sweeprunner import (
    SweepOptions,
    collect_garbage,
    make_task,
    run_sweep_outcome,
)
from repro.experiments.sweeprunner.claims import (
    Claims,
    ConcurrentDriverError,
    claimed_epochs,
)
from repro.experiments.sweeprunner.ledger import read_events, replay


def _age_file(path: Path, seconds: float) -> None:
    old = time.time() - seconds
    os.utime(path, (old, old))


def _names_directory(directory: Path):
    return pytest.raises(ConcurrentDriverError,
                         match=re.escape(str(directory)))


class TestClaims:
    def test_o_excl_claim_single_winner(self, tmp_path):
        a = Claims(tmp_path, max_leases=3)
        b = Claims(tmp_path, max_leases=3)
        assert a.acquire("k1") == 1
        a.check_holds("k1", 1)
        # b finds a's claim.  One driver per directory: the claim was left
        # by a dead predecessor, so b spends it and mints the next epoch.
        assert b.acquire("k1") == 2
        b.check_holds("k1", 2)
        # a is fenced out: it may not land an outcome under epoch 1.
        with _names_directory(tmp_path):
            a.check_holds("k1", 1)

    def test_concurrent_o_excl_race_one_winner(self, tmp_path):
        """Eight drivers rush the only epoch of a key: exactly one wins,
        and a loser of the O_EXCL race names the directory."""
        racers = [Claims(tmp_path, max_leases=1) for _ in range(8)]
        barrier = threading.Barrier(len(racers))
        outcomes = []

        def rush(claims):
            barrier.wait()
            try:
                won = claims.acquire("contested")
                outcomes.append("exhausted" if won is None else won)
            except ConcurrentDriverError as exc:
                assert str(tmp_path) in str(exc)
                outcomes.append("lost")

        threads = [threading.Thread(target=rush, args=(c,)) for c in racers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == len(racers)
        assert outcomes.count(1) == 1
        assert set(outcomes) <= {1, "lost", "exhausted"}

    def test_exhausted_after_budget_spent(self, tmp_path):
        first = Claims(tmp_path, max_leases=2)
        assert [first.acquire("k1"), first.acquire("k1")] == [1, 2]
        # A later driver run finds both epochs spent.
        assert Claims(tmp_path, max_leases=2).acquire("k1") is None
        assert claimed_epochs(tmp_path) == {"k1": 2}
        # A sweep without a directory counts in memory, per driver.
        memory = Claims(None, max_leases=1)
        assert [memory.acquire("k1"), memory.acquire("k1")] == [1, None]

    def test_torn_claim_treated_dead_after_staleness(self, tmp_path):
        """A claim file with no identity (its winner died mid-create) is a
        dead predecessor's spent attempt.  Every claim a driver finds is
        one, so there is no staleness to wait out: it is re-claimed at
        once."""
        torn = tmp_path / "k1.epoch-1"
        torn.touch()
        claims = Claims(tmp_path, max_leases=3)
        assert claims.acquire("k1") == 2
        assert json.loads((tmp_path / "k1.epoch-2").read_text())["pid"] \
            == os.getpid()
        assert torn.exists() and torn.stat().st_size == 0


_FIRST_DRIVER_SETTLED = threading.Event()


def _wait_for_rival(value, root):
    """The first driver's run waits until a rival driver claims epoch 2 of
    its key; the rival's run returns only once the first driver settled,
    so the rival's clean completion cannot remove that claim early."""
    started = Path(root) / "first-driver.started"
    if not started.exists():
        started.write_text("x")
        key = make_task(_wait_for_rival, {"value": value, "root": root}
                        ).cache_key()
        rival = Path(root) / "claims" / f"{key}.epoch-2"
        deadline = time.monotonic() + 10.0
        while not rival.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
    else:
        _FIRST_DRIVER_SETTLED.wait(timeout=10.0)
    with open(Path(root) / "tally.txt", "a") as handle:
        handle.write(f"{value}\n")
    return {"value": value}


_RIVAL_LANDED = threading.Event()


def _outlive_rival(value, root):
    """The first driver's run returns only once a rival driver's sweep
    landed the row and collected the key's claims."""
    started = Path(root) / "first-driver.started"
    if not started.exists():
        started.write_text("x")
        _RIVAL_LANDED.wait(timeout=10.0)
    return {"value": value}


def _rival_then_raise(value, root):
    """Mints the epoch after its own running lease, as a second driver
    would, then fails."""
    key = make_task(_rival_then_raise, {"value": value, "root": root}
                    ).cache_key()
    claims = Path(root) / "claims"
    epoch = len(list(claims.glob(f"{key}.epoch-*")))
    (claims / f"{key}.epoch-{epoch + 1}").write_text("{}")
    raise ValueError("late failure")


class TestClusterService:
    def _options(self, store, **overrides):
        merged = dict(processes=1, cache_dir=store, max_retries=2,
                      retry_backoff=0.01)
        merged.update(overrides)
        return SweepOptions(**merged)

    def test_two_drivers_racing_one_key(self, tmp_path):
        """The earlier driver is fenced out and raises naming the
        directory; the later one lands the row.  Neither loses silently."""
        store = tmp_path / "store"
        params = [{"value": 7, "root": str(store)}]
        raised = []
        _FIRST_DRIVER_SETTLED.clear()

        def first_driver():
            try:
                run_sweep_outcome(_wait_for_rival, params,
                                  options=self._options(store))
            except ConcurrentDriverError as exc:
                raised.append(str(exc))
            finally:
                _FIRST_DRIVER_SETTLED.set()

        thread = threading.Thread(target=first_driver)
        thread.start()
        started = store / "first-driver.started"
        deadline = time.monotonic() + 10.0
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        second = run_sweep_outcome(_wait_for_rival, params,
                                   options=self._options(store))
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert second.rows == [{"value": 7}]
        assert (second.stats.executed, second.stats.retries) == (1, 1)
        assert len(raised) == 1 and str(store) in raised[0]
        # Both ran the point; only the later driver's row landed.
        assert (store / "tally.txt").read_text().splitlines() == ["7", "7"]
        assert len(list(store.glob("*.json"))) == 1

    def test_fence_survives_rivals_garbage_collection(self, tmp_path):
        """The rival's clean completion deletes every claim of the key, the
        earlier driver's epoch file included, before that driver's point
        returns: the earlier driver still raises naming the directory."""
        store = tmp_path / "store"
        params = [{"value": 5, "root": str(store)}]
        raised = []
        _RIVAL_LANDED.clear()

        def first_driver():
            try:
                run_sweep_outcome(_outlive_rival, params,
                                  options=self._options(store))
            except ConcurrentDriverError as exc:
                raised.append(str(exc))

        thread = threading.Thread(target=first_driver)
        thread.start()
        started = store / "first-driver.started"
        deadline = time.monotonic() + 10.0
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        try:
            second = run_sweep_outcome(_outlive_rival, params,
                                       options=self._options(store))
            assert not list((store / "claims").glob("*.epoch-*"))
        finally:
            _RIVAL_LANDED.set()
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert second.rows == [{"value": 5}]
        assert len(raised) == 1 and str(store) in raised[0]

    def test_failed_lease_info_crosses_hosts(self, tmp_path):
        """A later driver run (from any machine that mounts the directory)
        reports the error of a key whose budget an earlier run spent, from
        the sweep's journal."""
        def broken(value):
            raise ValueError(f"point {value} is broken")

        store = tmp_path / "store"
        options = self._options(store, max_retries=0, strict=False)
        first = run_sweep_outcome(broken, [{"value": 3}], options=options)
        assert first.failures[0].kind == "error"
        second = run_sweep_outcome(broken, [{"value": 3}], options=options)
        assert second.stats.executed == 0  # budget spent by the first run
        failure = second.failures[0]
        assert (failure.kind, failure.error_type) == ("error", "ValueError")
        assert "broken" in failure.message
        # An attempt that never reported (its driver died) is a crash.
        key = make_task(broken, {"value": 4}).cache_key()
        (store / "claims" / f"{key}.epoch-1").write_text("{}")
        third = run_sweep_outcome(broken, [{"value": 4}], options=options)
        assert (third.stats.executed, third.failures[0].kind) == (0, "crash")

    def test_fenced_completion_discarded(self, tmp_path):
        """An outcome that arrives after a newer epoch was claimed is not
        journaled: the fencing check before the write raises instead."""
        store = tmp_path / "store"
        params = [{"value": 1, "root": str(store)}]
        with _names_directory(store):
            run_sweep_outcome(_rival_then_raise, params,
                              options=self._options(store, strict=False))
        key = make_task(_rival_then_raise, params[0]).cache_key()
        [journal] = (store / "ledger").glob("sweep-*.jsonl")
        record = replay(read_events(journal)[0])[key]
        assert (record.leases, record.failures) == (1, [])
        assert not list(store.glob("*.json"))


class TestGarbageCollection:
    def test_expired_corrupt_files_removed(self, tmp_path):
        stale = tmp_path / "old.corrupt"
        fresh = tmp_path / "new.corrupt"
        stale.write_text("x")
        fresh.write_text("x")
        _age_file(stale, 100.0)
        removed = collect_garbage(tmp_path, corrupt_retention=50.0)
        assert removed["corrupt"] == 1
        assert not stale.exists() and fresh.exists()

    def test_orphan_checkpoints_with_landed_rows_removed(self, tmp_path):
        ckpts = tmp_path / "checkpoints"
        ckpts.mkdir(parents=True)
        landed = ckpts / "k1.ckpt"
        live = ckpts / "k2.ckpt"
        landed.write_bytes(b"x")
        live.write_bytes(b"x")
        (tmp_path / "k1.json").write_text("{}")
        removed = collect_garbage(tmp_path)
        assert removed["checkpoints"] == 1
        assert not landed.exists()
        assert live.exists()  # no row landed: live recovery state
