"""Checkpointing suite: codec round-trips, envelope integrity, and the
snapshot/restore bit-exactness contract.

The heart of the suite is :class:`TestSnapshotRestoreEquivalence`: over a
seeded random sample of full system configurations (platform, geometry,
mode, throttle, workload), both engines and the event engine with bursting
off, a run that checkpoints mid-flight must end in the state — every
member a snapshot carries, compared by ``repro.snapshot.diff`` — of an
uninterrupted run, and a fresh system restored from any of those
checkpoints must finish in it too.  A checkpoint cuts live burst plans
short, so the burst-plan diagnostics are not compared
(``BURST_OFF_IGNORE``).  This extends the repo's cycle == event == burst
equivalence contract with "== checkpoint/restore".
"""

import dataclasses
import json
import random
from collections import deque

import pytest

from repro.config import default_config
from repro.core.modes import AccessMode
from repro.core.system import ChopimSystem
from repro.experiments.common import resolve_config
from repro.memctrl.request import set_request_id_watermark
from repro.nda.isa import NdaOpcode, set_instruction_id_watermark
from repro.nda.launch import set_operation_id_watermark
from repro.snapshot import (
    SCHEMA_VERSION,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotVersionError,
    decode,
    diff,
    dumps,
    encode,
    loads,
    read_snapshot,
    restore_system,
    snapshot_system,
    write_snapshot,
)
from bisector.divergence import BURST_OFF_IGNORE


def _reset_watermarks():
    set_request_id_watermark(0)
    set_instruction_id_watermark(0)
    set_operation_id_watermark(0)


# --------------------------------------------------------------------- #
# Codec: tagged encoding round-trips


class TestCodecRoundTrip:
    CASES = [
        None,
        True,
        False,
        0,
        -1,
        2 ** 80,                      # beyond float precision: must stay exact
        0.1,
        -2.5e300,
        "",
        "snapshot",
        [],
        [1, [2, [3, None]]],
        (),
        (1, (2, "x"), [3]),
        deque([1, 2, 3]),
        deque([4, 5], maxlen=8),      # maxlen must survive the round trip
        deque(maxlen=2),
        {"a": 1, "b": [2, (3,)]},
        {1: "one", (2, 3): "pair"},   # non-str keys take the tagged path
        {"__t": "sneaky"},            # a payload key colliding with the tag
        {"nested": {"__t": 1, "deq": deque([(1, 2)], maxlen=4)}},
    ]

    @pytest.mark.parametrize("value", CASES, ids=range(len(CASES)))
    def test_round_trip(self, value):
        restored = decode(encode(value))
        assert restored == value
        assert type(restored) is type(value)

    def test_deque_maxlen_preserved(self):
        restored = decode(encode(deque([1, 2], maxlen=5)))
        assert restored.maxlen == 5

    def test_encoded_form_is_pure_json(self):
        value = {"k": (1, deque([2], maxlen=3), {4: "x"})}
        assert json.loads(json.dumps(encode(value))) == encode(value)

    def test_rejects_unencodable_types(self):
        for bad in ({1, 2}, object(), b"bytes", complex(1, 2)):
            with pytest.raises(SnapshotError):
                encode(bad)

    def test_rejects_unknown_tag(self):
        with pytest.raises(SnapshotCorruptError):
            decode({"__t": "hologram", "items": []})

    def test_hypothesis_round_trip(self):
        """Property form of the round trip, when hypothesis is installed."""
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        scalars = st.one_of(
            st.none(), st.booleans(), st.integers(),
            st.floats(allow_nan=False, allow_infinity=False), st.text())
        trees = st.recursive(
            scalars,
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.lists(children, max_size=4).map(tuple),
                st.lists(children, max_size=4).map(deque),
                st.dictionaries(st.text(), children, max_size=4),
            ),
            max_leaves=20)

        @hyp.given(trees)
        @hyp.settings(max_examples=150, deadline=None)
        def check(value):
            restored = decode(encode(value))
            assert restored == value
            assert loads(dumps(value)) == value

        check()


# --------------------------------------------------------------------- #
# Envelope: versioning, integrity, atomic files


class TestEnvelope:
    PAYLOAD = {"now": 123, "ranks": [(0, 1), (1, 0)],
               "window": deque([1.5, 2.5], maxlen=4)}

    def test_dumps_loads_round_trip(self):
        assert loads(dumps(self.PAYLOAD)) == self.PAYLOAD

    def test_rejects_non_json(self):
        with pytest.raises(SnapshotCorruptError):
            loads("not json at all {")

    def test_rejects_bad_magic(self):
        envelope = json.loads(dumps(self.PAYLOAD))
        envelope["magic"] = "someone-elses-format"
        with pytest.raises(SnapshotCorruptError):
            loads(json.dumps(envelope))

    def test_rejects_unknown_version(self):
        # 4 is the last format that listed the NDA write buffer's entries,
        # and the previous version's configs name fields that no longer
        # exist; both are refused like any other foreign version, and the
        # error names both the file's version and the expected one.
        for version in (4, SCHEMA_VERSION - 1, SCHEMA_VERSION + 1):
            envelope = json.loads(dumps(self.PAYLOAD))
            envelope["version"] = version
            with pytest.raises(SnapshotVersionError,
                               match=rf"version {version}\b.*expected "
                                     rf"{SCHEMA_VERSION}\b"):
                loads(json.dumps(envelope))

    def test_rejects_flipped_bit(self):
        envelope = json.loads(dumps(self.PAYLOAD))
        envelope["payload"] = envelope["payload"].replace("123", "124", 1)
        with pytest.raises(SnapshotCorruptError):
            loads(json.dumps(envelope))

    def test_rejects_truncation(self):
        text = dumps(self.PAYLOAD)
        with pytest.raises(SnapshotCorruptError):
            loads(text[:len(text) // 2])

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "deep" / "state.ckpt"
        write_snapshot(path, self.PAYLOAD)
        assert read_snapshot(path) == self.PAYLOAD
        assert not list(path.parent.glob("*.tmp"))  # no temp litter

    def test_missing_file_is_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            read_snapshot(tmp_path / "never-written.ckpt")

    def test_corrupt_file_error_names_the_path(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_snapshot(path, self.PAYLOAD)
        path.write_text(path.read_text()[:40], encoding="utf-8")
        with pytest.raises(SnapshotCorruptError, match="state.ckpt"):
            read_snapshot(path)

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_snapshot(path, {"generation": 1})
        write_snapshot(path, {"generation": 2})
        assert read_snapshot(path) == {"generation": 2}


# --------------------------------------------------------------------- #
# Snapshot/restore bit-exactness on fuzzed full-system configurations


def _sample_specs(count, seed=0x5AFE):
    """Seeded configuration sample, same axes as the engine-equivalence
    fuzz (platform presets, geometry, modes, throttles, workloads)."""
    rng = random.Random(seed)
    modes = [AccessMode.HOST_ONLY, AccessMode.SHARED,
             AccessMode.BANK_PARTITIONED, AccessMode.RANK_PARTITIONED,
             AccessMode.NDA_ONLY]
    opcodes = [NdaOpcode.DOT, NdaOpcode.AXPY, NdaOpcode.COPY,
               NdaOpcode.SCAL, NdaOpcode.NRM2, NdaOpcode.GEMV]
    specs = []
    while len(specs) < count:
        ranks = rng.choice([1, 2, 4])
        mode = rng.choice(modes)
        if mode is AccessMode.RANK_PARTITIONED and ranks < 2:
            continue
        specs.append({
            "channels": rng.choice([1, 2]),
            "ranks": ranks,
            "mode": mode,
            "platform": rng.choice([None, None, "ddr4-3200",
                                    "lpddr4-3200", "ddr5-4800", "hbm2"]),
            "throttle": rng.choice(["issue_if_idle", "next_rank",
                                    "stochastic"]),
            "probability": rng.choice([0.25, 1.0 / 16.0]),
            "mix": rng.choice(["mix1", "mix5", "mix8"]),
            "opcode": rng.choice(opcodes),
            "elements": rng.choice([1 << 10, 1 << 11]),
            "warmup": rng.choice([0, 100]),
        })
    return specs


_SPECS = _sample_specs(5)
_CYCLES = 700
_EVERY = 250  # three chunks: two mid-run checkpoints per leg


def _build_spec(spec, engine, burst=True):
    mode = spec["mode"]
    system = ChopimSystem(
        config=resolve_config(spec.get("platform"), spec["channels"],
                              spec["ranks"]),
        mode=mode,
        mix=spec["mix"] if mode.has_host_traffic else None,
        throttle=spec["throttle"],
        stochastic_probability=spec["probability"],
        engine=engine, burst=burst)
    if mode.has_nda_traffic:
        kwargs = {}
        if spec["opcode"] is NdaOpcode.GEMV:
            kwargs["matrix_columns"] = 64
        system.set_nda_workload(spec["opcode"],
                                elements_per_rank=spec["elements"], **kwargs)
    return system


def _checkpointed(build, cycles, warmup, every, hook=None):
    """An uninterrupted run's end state, a checkpointed run's, and each
    checkpoint serialized through the codec, like a real file."""
    baseline = build()
    baseline.run(cycles=cycles, warmup=warmup)
    texts = []

    def checkpoint(system):
        if hook is not None:
            hook(system)
        texts.append(dumps(snapshot_system(system)))

    chunked = build()
    chunked.run(cycles=cycles, warmup=warmup, checkpoint_hook=checkpoint,
                checkpoint_every=every)
    return snapshot_system(baseline), snapshot_system(chunked), texts


def _assert_resumes(baseline, chunked, texts):
    """The checkpointed run, and a restore of every checkpoint finished,
    end in the uninterrupted run's state."""
    assert texts, "no mid-run checkpoint was taken"
    mismatched = diff(baseline, chunked, BURST_OFF_IGNORE)
    assert not mismatched, f"checkpointing perturbed the run: {mismatched}"
    for text in texts:
        restored = restore_system(loads(text))
        restored.finish_run()
        mismatched = diff(baseline, snapshot_system(restored),
                          BURST_OFF_IGNORE)
        assert not mismatched, f"restored run diverged on {mismatched[:10]}"


class TestSnapshotRestoreEquivalence:
    """checkpointed run == uninterrupted run == restored-and-finished run."""

    @pytest.mark.parametrize("leg", ["cycle", "event", "event-noburst"])
    @pytest.mark.parametrize("index", range(len(_SPECS)))
    def test_fuzzed_config(self, index, leg):
        # ``event-noburst`` is the fast path built with ``burst=False``,
        # which the snapshot records and every restore rebuilds with.
        engine = leg.split("-")[0]
        spec = _SPECS[index]
        _assert_resumes(*_checkpointed(
            lambda: _build_spec(spec, engine, burst=leg != "event-noburst"),
            _CYCLES, spec["warmup"], _EVERY))

    #: (platform, channels, ranks, mode, mix): the perf ledger's two write
    #: shapes — native hbm2 without host traffic, and DDR4 2x4 colocated
    #: with one NDA bank per rank (operand and output share it).
    _DRAIN_RUN_SHAPES = {
        "nda_only_hbm2": ("hbm2", None, None, AccessMode.NDA_ONLY, None),
        "colo_write": ("ddr4-2400", 2, 4, AccessMode.BANK_PARTITIONED,
                       "mix1"),
    }

    @pytest.mark.parametrize("shape", list(_DRAIN_RUN_SHAPES))
    def test_checkpoint_inside_live_drain_run_plan(self, shape):
        """A checkpoint that lands between two planned WRs of a
        mid-instruction drain-run plan: the plan is settled-and-cancelled
        at the safe point and the resumed run re-plans the rest."""
        platform, channels, ranks, mode, mix = self._DRAIN_RUN_SHAPES[shape]

        def build():
            system = ChopimSystem(
                config=resolve_config(platform, channels, ranks),
                mode=mode, mix=mix, throttle="next_rank", engine="event")
            system.set_nda_workload(NdaOpcode.COPY,
                                    elements_per_rank=1 << 13)
            return system

        interrupted = []

        def note_plans(system):
            interrupted.extend(
                (plan.cls.name, plan.count - plan.idx)
                for plan in (rc._plan
                             for rc in system.rank_controllers.values())
                if plan is not None)

        baseline, chunked, texts = _checkpointed(build, 1500, 100, 230,
                                                 note_plans)
        assert any(cls == "drain_run" and unsettled > 0
                   for cls, unsettled in interrupted), interrupted
        _assert_resumes(baseline, chunked, texts)
        for text in texts:
            for rc in restore_system(loads(text)).rank_controllers.values():
                stats = rc.burst_stats()
                assert (sum(stats["planned_by_class"].values())
                        == stats["commands_planned"])

    def test_composite_kernel_sequence(self):
        from repro.core.system import NdaKernelSpec

        def build():
            system = ChopimSystem(mode=AccessMode.BANK_PARTITIONED,
                                  mix="mix5", engine="event")
            system.set_nda_workload_sequence([
                NdaKernelSpec(NdaOpcode.GEMV, 512, matrix_columns=64),
                NdaKernelSpec(NdaOpcode.AXPY, 512),
                NdaKernelSpec(NdaOpcode.DOT, 512),
            ])
            return system

        _assert_resumes(*_checkpointed(build, 1200, 100, 400))

    def test_async_fine_grain_launches(self):
        """Launch packets in flight across the checkpoint boundary."""
        def build():
            system = ChopimSystem(mode=AccessMode.BANK_PARTITIONED,
                                  mix="mix1", engine="event")
            system.set_nda_workload(NdaOpcode.NRM2,
                                    elements_per_rank=1 << 11,
                                    cache_blocks=16, async_launch=True)
            return system

        _assert_resumes(*_checkpointed(build, 900, 0, 300))


# --------------------------------------------------------------------- #
# Restore guard rails


class TestRestoreGuards:
    def _snapshot(self, burst=True):
        _reset_watermarks()
        system = ChopimSystem(config=default_config(),
                              mode=AccessMode.NDA_ONLY, engine="event",
                              burst=burst)
        system.set_nda_workload(NdaOpcode.DOT, elements_per_rank=1 << 10)
        system.run(cycles=300, warmup=0,
                   checkpoint_hook=lambda s: None, checkpoint_every=0)
        # Take the snapshot at the (safe) end-of-run boundary.
        return snapshot_system(system)

    def test_rejects_wrong_kind(self):
        payload = self._snapshot()
        payload["kind"] = "some-other-simulator"
        with pytest.raises(SnapshotError):
            restore_system(payload)

    def test_restore_uses_the_payloads_burst_flag(self):
        for burst in (True, False):
            payload = self._snapshot(burst)
            assert payload["build"]["burst"] is burst
            assert restore_system(payload).burst_enabled is burst

    def test_payload_holds_no_issue_versions(self):
        # Issue versions only tag probe caches, which a restore starts
        # cold (tag -1): they are derived, and no payload carries them.
        dram = self._snapshot()["system"]["dram"]
        assert "channel_issue_version" not in dram
        assert not {"_issue_versions", "_row_versions"} & set(dram["timing"])
        assert {"_banks", "_channel_refresh_due"} <= set(dram["timing"])

    def test_finish_run_requires_in_progress_run(self):
        system = ChopimSystem(mode=AccessMode.HOST_ONLY, mix="mix8")
        with pytest.raises(RuntimeError):
            system.finish_run()

    def test_snapshot_is_detached_from_the_live_system(self):
        """Continuing the checkpointed system must not mutate the payload."""
        _reset_watermarks()
        system = ChopimSystem(config=default_config(),
                              mode=AccessMode.SHARED, mix="mix5",
                              engine="event")
        system.set_nda_workload(NdaOpcode.AXPY, elements_per_rank=1 << 10)
        captured = []
        system.run(cycles=600, warmup=0,
                   checkpoint_hook=lambda s: captured.append(
                       (dumps(snapshot_system(s)), snapshot_system(s))),
                   checkpoint_every=200)
        for text, payload in captured:
            assert dumps(payload) == text, (
                "payload aliases live state: it changed after the run "
                "continued")


# --------------------------------------------------------------------- #
# Sweep-side checkpoint plumbing


class TestCheckpointSlot:
    def test_load_missing_is_none(self, tmp_path):
        from repro.experiments.sweeprunner.checkpoint import CheckpointSlot
        assert CheckpointSlot(tmp_path, "k", 1).load() is None

    def test_corrupt_checkpoint_means_fresh_start(self, tmp_path):
        from repro.experiments.sweeprunner.checkpoint import CheckpointSlot
        slot = CheckpointSlot(tmp_path, "k", 1)
        slot.path().write_text("garbage", encoding="utf-8")
        assert slot.load() is None  # never an exception, never a fail

    def test_save_and_load_round_trip(self, tmp_path):
        from repro.experiments.sweeprunner.checkpoint import CheckpointSlot
        slot = CheckpointSlot(tmp_path, "k", 1)
        slot.save({"cursor": 41})
        assert slot.saves == 1
        # A retry's slot (different attempt) resumes the same file.
        assert CheckpointSlot(tmp_path, "k", 2).load() == {"cursor": 41}

    def test_run_with_checkpoint_resumes_bit_exactly(self, tmp_path,
                                                     monkeypatch):
        from repro.experiments.sweeprunner import checkpoint as cp

        def build():
            _reset_watermarks()
            system = ChopimSystem(config=default_config(),
                                  mode=AccessMode.BANK_PARTITIONED,
                                  mix="mix1", engine="event")
            system.set_nda_workload(NdaOpcode.COPY,
                                    elements_per_rank=1 << 10)
            return system

        baseline = dataclasses.asdict(build().run(cycles=800, warmup=50))

        monkeypatch.setenv(cp.CHECKPOINT_EVERY_ENV, "200")
        slot = cp.CheckpointSlot(tmp_path, "point", 1)
        cp.activate(slot)
        try:
            first = dataclasses.asdict(
                cp.run_with_checkpoint(build, 800, warmup=50))
            assert first == baseline
            assert slot.saves >= 1
            # Leave the last checkpoint in place, as a killed worker would,
            # and run the "retry": it must resume (not restart) and match.
            retry = cp.CheckpointSlot(tmp_path, "point", 2)
            cp.activate(retry)
            resumed = dataclasses.asdict(
                cp.run_with_checkpoint(build, 800, warmup=50))
            assert resumed == baseline
        finally:
            cp.deactivate()

    def test_no_slot_is_a_plain_run(self, monkeypatch):
        from repro.experiments.sweeprunner import checkpoint as cp
        monkeypatch.setenv(cp.CHECKPOINT_EVERY_ENV, "200")
        cp.deactivate()

        def build():
            _reset_watermarks()
            return ChopimSystem(mode=AccessMode.HOST_ONLY, mix="mix8")

        result = cp.run_with_checkpoint(build, 300, warmup=0)
        assert result.cycles == 300


# --------------------------------------------------------------------- #
# Ledger compaction


class TestLedgerCompaction:
    def test_compaction_preserves_replay_state(self, tmp_path):
        from repro.experiments.sweeprunner import ledger as lm

        path = tmp_path / "sweep-x.jsonl"
        ledger = lm.RunLedger(path)
        ledger.append_queued(["a", "b"], {"points": 2})
        ledger.append_leased("a", 1)
        ledger.append_failed("a", 1, "crash")
        ledger.append_leased("a", 2, checkpoint="resume")
        ledger.append_done("a", 2)
        ledger.append_leased("b", 1)
        ledger.append_done("b", 1)

        before_leases = lm.lease_counts(path)
        before_resumes = lm.lease_counts(path, "resume")
        assert ledger.compact()
        ledger.close()

        # One snapshot line, no backup litter, counts intact.
        assert lm.count_events(path, "snapshot") == 1
        assert lm.count_events(path, "leased") == 0
        assert not path.with_name(path.name + ".bak").exists()
        assert lm.lease_counts(path) == before_leases
        assert lm.lease_counts(path, "resume") == before_resumes

        reopened = lm.RunLedger(path)
        assert reopened.record("a").done
        assert reopened.record("a").leases == 2
        assert reopened.record("a").resumed == 1
        assert len(reopened.record("a").failures) == 1
        assert reopened.record("b").done
        # The compacted ledger is still an appendable journal.
        reopened.append_leased("c", 1)
        reopened.close()
        assert lm.lease_counts(path)["c"] == 1

    def test_resumed_lease_counted_on_replay(self, tmp_path):
        from repro.experiments.sweeprunner import ledger as lm

        path = tmp_path / "sweep-y.jsonl"
        ledger = lm.RunLedger(path)
        ledger.append_leased("k", 1, checkpoint="fresh")
        ledger.append_leased("k", 2, checkpoint="resume")
        ledger.close()
        assert lm.RunLedger(path).record("k").resumed == 1
        assert lm.lease_counts(path, "resume") == {"k": 1}
