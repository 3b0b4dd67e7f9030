"""Tests for multi-host sweep sharding (repro.experiments.sweeprunner.cluster).

Most tests drive ShardCoordinator directly against a tmp directory; the end-to-end ones race real in-process drivers (threads with
distinct host identities) over one shared sweep directory, which is exactly
the deployment model — the coordination medium is the filesystem, not the
process.
"""

import os
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.sweeprunner import (
    ClusterOptions,
    FaultPlan,
    RunLedger,
    SweepOptions,
    collect_garbage,
    lease_counts,
    merged_counts,
    run_sweep_outcome,
)
from repro.experiments.sweeprunner import ledger as ledger_module
from repro.experiments.sweeprunner.checkpoint import (
    checkpoint_file,
    peek_fraction,
)
from repro.experiments.sweeprunner.cluster import (
    BUSY,
    EXHAUSTED,
    HOST_ENV,
    Lease,
    ShardCoordinator,
    resolve_host,
)
from repro.experiments.sweeprunner.faults import (
    ALL_FAULT_KINDS,
    CLUSTER_FAULT_KINDS,
    FAULT_KINDS,
)
from repro.experiments.sweeprunner.progress import ProgressReporter
from repro.experiments.sweeprunner.tasks import make_task
from repro.snapshot import write_snapshot


def _coord(root, host, max_leases=3, staleness=30.0, stagger=0.0,
           fault_plan=None):
    """A coordinator with a fresh synchronous heartbeat (no beat thread)."""
    coord = ShardCoordinator(
        Path(root), host, max_leases,
        ClusterOptions(host=host, heartbeat_interval=0.05,
                       staleness=staleness, steal_stagger=stagger,
                       poll_interval=0.01),
        fault_plan=fault_plan)
    coord._beat()
    return coord


def _age_file(path: Path, seconds: float) -> None:
    old = time.time() - seconds
    os.utime(path, (old, old))


class TestClaims:
    def test_o_excl_claim_single_winner(self, tmp_path):
        a = _coord(tmp_path, "a")
        b = _coord(tmp_path, "b")
        lease = a.acquire("k1")
        assert isinstance(lease, Lease)
        assert (lease.epoch, lease.provenance) == (1, "fresh")
        assert b.acquire("k1") is BUSY  # holder alive: wait, don't race
        assert a.still_holds("k1", 1)

    def test_concurrent_o_excl_race_one_winner(self, tmp_path):
        """N threads rush one epoch file; O_CREAT|O_EXCL admits exactly one."""
        coords = [_coord(tmp_path, f"h{i}") for i in range(8)]
        barrier = threading.Barrier(len(coords))
        wins = []

        def rush(coord):
            barrier.wait()
            if coord._try_claim("contested", 1):
                wins.append(coord.host)

        threads = [threading.Thread(target=rush, args=(c,)) for c in coords]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_failed_marker_releases_lease(self, tmp_path):
        a = _coord(tmp_path, "a")
        b = _coord(tmp_path, "b")
        a.acquire("k1")
        a.mark_failed("k1", 1, "error", "ValueError", "boom")
        # b may mint epoch 2 immediately — no staleness wait for failures.
        lease = b.acquire("k1")
        assert isinstance(lease, Lease) and lease.epoch == 2
        assert not a.still_holds("k1", 1)
        assert b.steals == 0  # a release is re-claimed, not stolen

    def test_exhausted_after_budget_spent(self, tmp_path):
        a = _coord(tmp_path, "a", max_leases=1)
        b = _coord(tmp_path, "b", max_leases=1)
        a.acquire("k1")
        a.mark_failed("k1", 1, "error", "ValueError", "boom")
        assert b.acquire("k1") is EXHAUSTED
        info = b.failure_info("k1", 1)
        assert info["error_type"] == "ValueError"
        assert info["kind"] == "error"

    def test_live_holder_at_budget_is_busy_not_exhausted(self, tmp_path):
        a = _coord(tmp_path, "a", max_leases=1)
        b = _coord(tmp_path, "b", max_leases=1)
        a.acquire("k1")
        # The final lease is held by a live host: its outcome is pending.
        assert b.acquire("k1") is BUSY

    def test_torn_claim_treated_dead_after_staleness(self, tmp_path):
        a = _coord(tmp_path, "a", staleness=0.5)
        b = _coord(tmp_path, "b", staleness=0.5)
        # A claim file with no identity: the winner died mid-create.
        path = a._claim_path("k1", 1)
        path.touch()
        a._epoch_cache.pop("k1", None)
        assert b.acquire("k1") is BUSY  # fresh: winner may still be writing
        _age_file(path, 5.0)
        lease = b.acquire("k1")
        assert isinstance(lease, Lease) and lease.epoch == 2


class TestLiveness:
    def test_heartbeat_staleness(self, tmp_path):
        a = _coord(tmp_path, "a", staleness=0.5)
        b = _coord(tmp_path, "b", staleness=0.5)
        assert b.host_alive("a")
        _age_file(tmp_path / "hosts" / "a.hb", 5.0)
        assert not b.host_alive("a")
        assert b.host_alive("b")
        assert not b.host_alive("never-started")

    def test_netsplit_suppression_is_refcounted(self, tmp_path):
        a = _coord(tmp_path, "a", staleness=30.0)
        _age_file(tmp_path / "hosts" / "a.hb", 60.0)
        a.suppress_heartbeats()
        a.suppress_heartbeats()
        a._beat()
        assert not a.host_alive("a")  # still split: no beat landed
        a.resume_heartbeats()
        a._beat()
        assert not a.host_alive("a")  # one suppression still active
        a.resume_heartbeats()         # final resume beats immediately
        assert a.host_alive("a")

    def test_heartbeat_thread_beats(self, tmp_path):
        from sweep_proofs.proofs import wait_until

        a = _coord(tmp_path, "a", staleness=10.0)
        hb = tmp_path / "hosts" / "a.hb"
        _age_file(hb, 60.0)
        before = hb.stat().st_mtime
        a.start()
        try:
            assert wait_until(lambda: hb.stat().st_mtime > before,
                              timeout=5.0)
        finally:
            a.stop()


class TestStealing:
    def test_steal_from_dead_host(self, tmp_path):
        a = _coord(tmp_path, "a", staleness=0.5)
        b = _coord(tmp_path, "b", staleness=0.5)
        a.acquire("k1")
        _age_file(tmp_path / "hosts" / "a.hb", 5.0)
        lease = b.acquire("k1")
        assert isinstance(lease, Lease)
        assert (lease.epoch, lease.provenance) == (2, "fresh")
        assert b.steals == 1
        assert not a.still_holds("k1", 1)  # the dead host is fenced out

    def test_steal_migrates_checkpoint(self, tmp_path):
        a = _coord(tmp_path, "a", staleness=0.5)
        b = _coord(tmp_path, "b", staleness=0.5)
        a.acquire("k1")
        ckpt = checkpoint_file(tmp_path / "checkpoints", "k1")
        ckpt.parent.mkdir(parents=True, exist_ok=True)
        ckpt.write_bytes(b"snapshot-bytes")
        _age_file(tmp_path / "hosts" / "a.hb", 5.0)
        lease = b.acquire("k1")
        assert lease.provenance == "migrated"
        assert b.migrations == 1
        # One shared layout: the thief resumes the dead host's file in place.
        assert ckpt.read_bytes() == b"snapshot-bytes"

    def test_own_prior_incarnation_resumes_without_staleness(self, tmp_path):
        old = _coord(tmp_path, "a")
        old.acquire("k1")
        ckpt = checkpoint_file(tmp_path / "checkpoints", "k1")
        ckpt.parent.mkdir(parents=True, exist_ok=True)
        ckpt.write_bytes(b"own-snapshot")
        # A restarted driver with the same host identity: its heartbeat is
        # fresh (it is its own), yet it must not deadlock on itself.
        restarted = _coord(tmp_path, "a")
        lease = restarted.acquire("k1")
        assert (lease.epoch, lease.provenance) == (2, "resume")
        assert restarted.steals == 0  # not a cross-host steal

    def test_steal_race_fault_removes_stagger(self, tmp_path):
        plan = FaultPlan(rate=1.0, seed=1, kinds=("steal-race",))
        raced = _coord(tmp_path, "a", stagger=10.0, fault_plan=plan)
        plain = _coord(tmp_path, "b", stagger=10.0)
        assert raced._steal_delay("k1", 1) == 0.0
        assert 0.0 <= plain._steal_delay("k1", 1) < 10.0

    def test_staggered_steal_waits_first(self, tmp_path):
        a = _coord(tmp_path, "a", staleness=0.5)
        b = _coord(tmp_path, "b", staleness=0.5, stagger=30.0)
        a.acquire("k1")
        _age_file(tmp_path / "hosts" / "a.hb", 5.0)
        first = b.acquire("k1")
        # Either BUSY (stagger pending) or an immediate win when this
        # (host, key) hashes near zero — never an error, never a double.
        assert first is BUSY or isinstance(first, Lease)


class TestMergedAudits:
    def test_merged_lease_and_migrate_counts(self, tmp_path):
        path_a = ledger_module.ledger_path(tmp_path, "deadbeef", host="a")
        path_b = ledger_module.ledger_path(tmp_path, "deadbeef", host="b")
        assert path_a != path_b
        la = RunLedger(path_a)
        la.append_leased("k1", 1)
        la.close()
        lb = RunLedger(path_b)
        lb.append_leased("k1", 2, checkpoint="migrated")
        lb.append_leased("k2", 1, checkpoint="resume")
        lb.close()
        assert merged_counts(tmp_path, lease_counts) == {"k1": 2, "k2": 1}
        assert merged_counts(
            tmp_path, lambda path: lease_counts(path, "migrated")) == {"k1": 1}
        assert merged_counts(
            tmp_path, lambda path: lease_counts(path, "resume")) == {
                "k1": 1, "k2": 1}

    def test_migrate_counts_survive_compaction(self, tmp_path):
        path = ledger_module.ledger_path(tmp_path, "deadbeef", host="a")
        journal = RunLedger(path)
        journal.append_leased("k1", 1, checkpoint="migrated")
        journal.append_done("k1", 1)
        assert journal.compact()
        journal.close()
        assert lease_counts(path, "migrated") == {"k1": 1}


class TestClusterFaultKinds:
    def test_child_driver_argv_rebuilds_cluster_plan(self):
        # The shard proof hands its cluster-kind plan to each host on argv.
        from sweep_proofs import proofs

        plan = FaultPlan(rate=0.1, seed=7, kinds=CLUSTER_FAULT_KINDS)
        args = proofs.build_parser().parse_args(
            ["drive-shard", "--store", "s", "--host", "h",
             *proofs.plan_argv(plan, "--fault-seed")])
        assert proofs.make_plan(args.fault_rate, args.fault_seed,
                                args.fault_kinds) == plan
        args = proofs.build_parser().parse_args(["drive-shard", "--store",
                                                 "s", "--host", "h"])
        assert proofs.make_plan(args.fault_rate, args.fault_seed,
                                args.fault_kinds) is None

    def test_default_schedule_excludes_cluster_kinds(self):
        assert FaultPlan().kinds == FAULT_KINDS
        assert not set(FaultPlan().kinds) & set(CLUSTER_FAULT_KINDS)
        assert set(FAULT_KINDS) < set(ALL_FAULT_KINDS)


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


class TestProgressCredit:
    def test_peek_fraction_reads_snapshot_progress(self, tmp_path):
        path = tmp_path / "k1.ckpt"
        write_snapshot(path, {"now": 700, "run_end": 1000,
                              "run_cycles": 1000})
        assert peek_fraction(path) == pytest.approx(0.7)

    def test_peek_fraction_zero_on_garbage(self, tmp_path):
        path = tmp_path / "k1.ckpt"
        assert peek_fraction(path) == 0.0  # missing
        path.write_bytes(b"not a snapshot")
        assert peek_fraction(path) == 0.0  # unreadable
        write_snapshot(path, {"now": "soon"})
        assert peek_fraction(path) == 0.0  # wrong schema

    def test_reporter_uses_work_units(self, tmp_path):
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(total=10, interval=0.001, stream=stream)
        reporter.started -= 1.0  # pretend 1s elapsed
        reporter.maybe_report(done=4, leased=1, failed=0, cache_hits=0,
                              force=True, computed_work=2.0,
                              in_flight_credit=0.5)
        line = stream.getvalue()
        assert "2.0 rows/s" in line  # work units, not raw done count
        assert "eta" in line


def _slow_tally(value, tally):
    time.sleep(0.2)
    with open(tally, "a") as handle:
        handle.write(f"{value}\n")
    return {"value": value}


class TestClusterService:
    def _options(self, store, host, **overrides):
        cluster = ClusterOptions(host=host, heartbeat_interval=0.05,
                                 staleness=30.0, steal_stagger=0.0,
                                 poll_interval=0.02)
        merged = dict(processes=1, cache_dir=store, max_retries=2,
                      retry_backoff=0.01, cluster=cluster)
        merged.update(overrides)
        return SweepOptions(**merged)

    def test_cluster_requires_cache_dir(self):
        with pytest.raises(ValueError):
            run_sweep_outcome(
                _slow_tally, [{"value": 1, "tally": "x"}],
                options=SweepOptions(cache_dir="",
                                     cluster=ClusterOptions(host="a")))

    def test_two_drivers_racing_one_key(self, tmp_path):
        """Exactly one execution; the loser waits and adopts the row."""
        store = tmp_path / "store"
        tally = tmp_path / "tally.txt"
        params = [{"value": 7, "tally": str(tally)}]
        outcomes = {}

        def drive(host):
            outcomes[host] = run_sweep_outcome(
                _slow_tally, params, options=self._options(store, host))

        threads = [threading.Thread(target=drive, args=(h,))
                   for h in ("ra", "rb")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tally.read_text().splitlines() == ["7"]
        executed = sorted(o.stats.executed for o in outcomes.values())
        assert executed == [0, 1]
        assert all(o.rows == [{"value": 7}] for o in outcomes.values())
        loser = next(o for o in outcomes.values() if o.stats.executed == 0)
        assert loser.stats.peer_rows + loser.stats.cache_hits >= 1

    def test_per_host_ledgers_single_writer(self, tmp_path):
        store = tmp_path / "store"
        tally = tmp_path / "tally.txt"
        params = [{"value": v, "tally": str(tally)} for v in range(2)]
        for host in ("a", "b"):
            run_sweep_outcome(_slow_tally, params,
                              options=self._options(store, host))
        files = ledger_module.sweep_ledger_paths(store / "ledger")
        assert {p.name.split(".")[-2] for p in files} == {"a", "b"}
        merged = merged_counts(store / "ledger", lease_counts)
        assert all(count == 1 for count in merged.values())

    def test_failed_lease_info_crosses_hosts(self, tmp_path):
        def broken(value):
            raise ValueError(f"point {value} is broken")

        store = tmp_path / "store"
        first = run_sweep_outcome(
            broken, [{"value": 3}],
            options=self._options(store, "a", max_retries=0))
        assert len(first.failures) == 1
        second = run_sweep_outcome(
            broken, [{"value": 3}],
            options=self._options(store, "b", max_retries=0))
        assert len(second.failures) == 1
        failure = second.failures[0]
        assert second.stats.executed == 0  # budget spent by host a
        assert failure.kind == "error"
        assert "broken" in failure.message

    def test_peer_probe_counts_no_cache_miss(self, tmp_path):
        """Each executed point is one cache miss: the store probe before
        every lease looks for a peer's row and leaves the counters alone."""
        outcome = run_sweep_outcome(
            _slow_tally,
            [{"value": v, "tally": str(tmp_path / "t.txt")}
             for v in range(3)],
            options=SweepOptions(processes=1, cache_dir=tmp_path / "store",
                                 cluster=ClusterOptions(host="h1")))
        assert outcome.stats.executed == 3
        assert (outcome.stats.cache_hits, outcome.stats.cache_misses) == (0, 3)
        assert outcome.stats.peer_rows == 0

    def test_netsplit_harmless_single_host(self, tmp_path):
        plan = FaultPlan(rate=1.0, seed=3, kinds=("netsplit",))
        outcome = run_sweep_outcome(
            _slow_tally,
            [{"value": v, "tally": str(tmp_path / "t.txt")}
             for v in range(2)],
            options=self._options(tmp_path / "store", "solo",
                                  fault_plan=plan))
        assert outcome.ok and len(outcome.rows) == 2

    def test_fenced_completion_discarded(self, tmp_path):
        """A stolen lease fences the original holder's late completion."""
        store = tmp_path / "store"

        def stolen_mid_run(value, root):
            # Simulate the steal while the point is executing: a peer
            # (which never heartbeats, so it immediately reads as dead)
            # mints the next epoch for our key.  Only once — when the
            # victim steals the lease back, the rerun completes cleanly.
            root_path = Path(root)
            marker = root_path / "stolen.marker"
            if not marker.exists():
                marker.write_text("x")
                thief = ShardCoordinator(root_path, "thief", 3,
                                         ClusterOptions(host="thief"))
                key = make_task(stolen_mid_run,
                                {"value": value, "root": root}).cache_key()
                assert thief._try_claim(key, 2)
            return {"value": value}

        outcome = run_sweep_outcome(
            stolen_mid_run, [{"value": 1, "root": str(store)}],
            options=self._options(store, "victim", max_retries=2))
        assert outcome.ok
        assert outcome.stats.fenced_writes >= 1
        key = make_task(stolen_mid_run,
                        {"value": 1, "root": str(store)}).cache_key()
        leases = merged_counts(store / "ledger", lease_counts)
        assert leases[key] <= 3  # bound: 1 + max_retries


class TestHostIdentity:
    def test_resolve_host_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(HOST_ENV, "from-env")
        assert resolve_host("explicit") == "explicit"
        assert resolve_host() == "from-env"
        monkeypatch.delenv(HOST_ENV)
        assert resolve_host()  # falls back to the machine hostname


class TestShardProofSmoke:
    def test_small_shard_proof(self, tmp_path):
        """The full multi-host proof, scaled down for the test suite."""
        from sweep_proofs import proofs

        report = proofs.run_shard_proof(
            points=2, cycles=4000, elements=1 << 10, every=200, hosts=2,
            staleness=0.6, fault_rate=0.0, verbose=False)
        assert report["ok"], report
