"""Burst-issue fast-path oracle: bursts must be invisible in final state.

``ChopimSystem(burst=False)`` turns the event engine's burst-issue fast
path off (every command then goes through the per-cycle path).  The oracle
here replays each burst-heavy scenario with bursting off and diffs the
complete end-of-run state — every member a snapshot carries, through
``repro.snapshot.diff`` — against the bursting run, minus the burst-plan
diagnostics (``BURST_OFF_IGNORE``).  Each scenario is
also replayed on the cycle engine, the per-cycle oracle, minus what counts
attempts or wake cadence as well (``CYCLE_IGNORE``).  Every replay also
compares the command streams the ``DramSystem`` observer sees, rank by
rank in cycle order, and names the first divergent record — planned
commands are reported as they settle, so every cycle a plan claims is
checked directly, not only through the final state.  Unit tests for the
closed-form pieces (bulk FSM transitions, bulk write-buffer drains) ride
along.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import scaled_config
from repro.core.modes import AccessMode
from repro.core.system import ChopimSystem
from repro.dram.commands import CommandRecord
from repro.experiments.common import resolve_config
from repro.nda.burst import PLAN_CLASSES
from repro.nda.fsm import ReplicatedFsm
from repro.nda.isa import NdaOpcode
from repro.nda.write_buffer import NdaWriteBuffer
from repro.platform import platform_config
from repro.snapshot import diff, snapshot_system
from bisector.divergence import (
    BURST_OFF_IGNORE,
    CYCLE_IGNORE,
    first_divergent_command,
)


def _build_and_run(mode, opcode, *, mix=None, throttle="issue_if_idle",
                   channels=2, ranks=2, elements=1 << 13, cycles=1500,
                   warmup=150, config=None, engine="event", burst=True,
                   write_buffer=None, seed=None, prepare=None):
    """Run one scenario: (system, result, every command it issued)."""
    cfg = config or scaled_config(channels, ranks)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    system = ChopimSystem(config=cfg, mode=mode, mix=mix, throttle=throttle,
                          engine=engine, burst=burst)
    if write_buffer is not None:
        # (capacity, drain-high watermark, drain-low watermark): the
        # geometry is not a configuration option, so swap the buffers in.
        for rc in system.rank_controllers.values():
            rc.write_buffer = NdaWriteBuffer(*write_buffer)
    if prepare is not None:
        prepare(system)
    log = []
    system.dram.observer = log.append
    system.set_nda_workload(opcode, elements_per_rank=elements)
    result = system.run(cycles=cycles, warmup=warmup)
    return system, result, log


def _planned_by_class(system):
    totals = dict.fromkeys(PLAN_CLASSES, 0)
    for rc in system.rank_controllers.values():
        for cls, count in rc.burst_stats()["planned_by_class"].items():
            totals[cls] += count
    return totals


#: The per-cycle oracles a bursting run is diffed against: what each
#: changes in the build, and the paths it may differ in.
_ORACLES = {"burst_off": (dict(burst=False), BURST_OFF_IGNORE),
            "cycle": (dict(engine="cycle"), CYCLE_IGNORE)}


def _replay_mismatches(config=None, oracle="burst_off", prepare=None,
                       **spec):
    """Run ``spec`` with bursting on and on the per-cycle ``oracle``;
    returns (burst system, the state paths that differ at the end, plus
    the first divergent command record if the command streams differ)."""
    variant, ignore = _ORACLES[oracle]
    runs = [_build_and_run(config=config() if config else None,
                           prepare=prepare, **spec, **extra)
            for extra in ({}, variant)]
    (system, _, log), (plain, _, plain_log) = runs
    assert system.burst_enabled and not plain.burst_enabled
    mismatched = diff(snapshot_system(system), snapshot_system(plain),
                      ignore)
    command = first_divergent_command(log, plain_log)
    if command is not None:
        mismatched.append("commands: burst {} != per-cycle {}".format(
            *command))
    return system, mismatched


_SCENARIOS = [
    ("nda_only_dot", dict(mode=AccessMode.NDA_ONLY, opcode=NdaOpcode.DOT,
                          ranks=4, elements=1 << 14)),
    ("nda_only_copy", dict(mode=AccessMode.NDA_ONLY, opcode=NdaOpcode.COPY)),
    ("partitioned_mix1", dict(mode=AccessMode.BANK_PARTITIONED, mix="mix1",
                              throttle="next_rank", opcode=NdaOpcode.DOT,
                              ranks=4, elements=1 << 14)),
    ("shared_axpy", dict(mode=AccessMode.SHARED, mix="mix5",
                         throttle="next_rank", opcode=NdaOpcode.AXPY)),
]


class TestBurstOracle:
    """Burst-on vs each per-cycle oracle must match state-for-state."""

    @pytest.mark.parametrize("oracle", list(_ORACLES))
    @pytest.mark.parametrize("name,spec", _SCENARIOS)
    def test_replay_matches(self, name, spec, oracle):
        _, mismatched = _replay_mismatches(oracle=oracle, **spec)
        assert not mismatched, (
            f"burst path diverged from the {oracle} replay on {mismatched}"
        )

    def test_bursts_actually_planned(self):
        system, _, _ = _build_and_run(mode=AccessMode.NDA_ONLY,
                                   opcode=NdaOpcode.DOT, ranks=4,
                                   elements=1 << 14)
        settled = sum(rc.burst_commands_settled
                      for rc in system.rank_controllers.values())
        commands = sum(rc.commands_issued
                       for rc in system.rank_controllers.values())
        # The steady-state streams should flow overwhelmingly through the
        # fast path (only row transitions and streak heads go per-cycle).
        assert settled > commands * 0.8

    def test_escape_hatch_disables_planning(self):
        system, _, _ = _build_and_run(mode=AccessMode.NDA_ONLY,
                                      opcode=NdaOpcode.DOT, burst=False)
        assert all(rc.bursts_planned == 0
                   for rc in system.rank_controllers.values())


def _refresh_heavy_config(platform=None, tREFI=700, tRFC=200):
    """A configuration whose refresh period is tiny (vs. the 9360-cycle
    default), so several REF commands land inside every burst-length
    window."""
    cfg = platform_config(platform) if platform else scaled_config(2, 2)
    cfg.timing = dataclasses.replace(cfg.timing, tREFI=tREFI, tRFC=tRFC)
    cfg.validate()
    return cfg


class TestBurstRefreshPressure:
    """Refresh x burst interaction: REF must truncate / order around plans.

    A refresh-heavy timing config (small tREFI) forces refresh precharges
    and REF commands into the middle of the NDA's steady-state streaks.
    Each scenario's burst run is diffed (full state) against each oracle:
    the ``burst=False`` per-cycle replay and the cycle engine — if a REF
    fails to truncate a live ``BurstPlan``, the settled stream runs through
    the refresh window and both diffs light up.
    """

    _SCENARIOS = [
        ("nda_only_stream", dict(mode=AccessMode.NDA_ONLY,
                                 opcode=NdaOpcode.DOT, ranks=2,
                                 elements=1 << 13)),
        ("drain_heavy_copy", dict(mode=AccessMode.NDA_ONLY,
                                  opcode=NdaOpcode.COPY, elements=1 << 12)),
        ("concurrent_mix1", dict(mode=AccessMode.BANK_PARTITIONED,
                                 mix="mix1", throttle="next_rank",
                                 opcode=NdaOpcode.COPY)),
    ]

    #: Platforms the refresh x burst interaction is replay-checked on: the
    #: refresh-cap arithmetic divides by the burst cadence, so it must be
    #: exercised at cadences other than DDR4's 4 (hbm2: 2, ddr5-4800: 8).
    _PLATFORMS = [None, "hbm2", "ddr5-4800"]

    @pytest.mark.parametrize("oracle", list(_ORACLES))
    @pytest.mark.parametrize("platform", _PLATFORMS)
    @pytest.mark.parametrize("name,spec", _SCENARIOS)
    def test_burst_replay_matches_under_refresh_pressure(self, name, spec,
                                                         platform, oracle):
        burst_system, mismatched = _replay_mismatches(
            config=lambda: _refresh_heavy_config(platform), oracle=oracle,
            **spec)
        assert burst_system.dram.counts.refreshes > 0, (
            "scenario exerts no refresh pressure")
        assert not mismatched, (
            f"burst path diverged under refresh pressure on {mismatched}")

    def test_bursts_still_planned_between_refreshes(self):
        system, _, _ = _build_and_run(mode=AccessMode.NDA_ONLY,
                                      opcode=NdaOpcode.DOT, ranks=2,
                                      elements=1 << 13,
                                      config=_refresh_heavy_config())
        planned = sum(rc.bursts_planned
                      for rc in system.rank_controllers.values())
        assert planned > 0, "refresh pressure must not disable bursting"


class TestBurstPlatforms:
    """The burst oracle on non-default platform presets: the plan cadence
    (max(tCCD_S, tBL)) and geometry are derived per platform."""

    _SCENARIOS = [
        ("hbm2_dot", "hbm2", dict(mode=AccessMode.NDA_ONLY,
                                  opcode=NdaOpcode.DOT, elements=1 << 13)),
        ("lpddr4_copy", "lpddr4-3200",
         dict(mode=AccessMode.BANK_PARTITIONED, mix="mix1",
              throttle="next_rank", opcode=NdaOpcode.COPY)),
        ("ddr5_scal", "ddr5-4800", dict(mode=AccessMode.NDA_ONLY,
                                        opcode=NdaOpcode.SCAL,
                                        elements=1 << 13)),
    ]

    @pytest.mark.parametrize("oracle", list(_ORACLES))
    @pytest.mark.parametrize("name,platform,spec", _SCENARIOS)
    def test_replay_matches(self, name, platform, spec, oracle):
        _, mismatched = _replay_mismatches(
            config=lambda: platform_config(platform), oracle=oracle, **spec)
        assert not mismatched, (
            f"burst path diverged on platform {platform}: {mismatched}")

    def test_burst_step_follows_platform_cadence(self):
        for platform, expected in (("hbm2", 2), ("ddr5-4800", 8),
                                   ("lpddr4-3200", 8)):
            system = ChopimSystem(config=platform_config(platform),
                                  mode=AccessMode.NDA_ONLY, mix=None,
                                  engine="event")
            steps = {rc._planner.step
                     for rc in system.rank_controllers.values()}
            assert steps == {expected}, (platform, steps)


def _two_nda_banks(platform=None):
    """Bank partitioning with two NDA banks per rank, so operands and the
    output live in different banks (the default single reserved bank puts
    them in the same one)."""
    cfg = platform_config(platform) if platform else scaled_config(2, 2)
    return dataclasses.replace(cfg, shared_banks_per_rank=2)


#: The drain phase of write-producing kernels: buffer draining with reads
#: remaining, where WR runs and RD runs alternate — the phase the two
#: mid-instruction plan classes cover.
_DRAIN_PHASE_SCENARIOS = [
    # The ledger's nda_only_hbm2 shape: native 8ch x 1rk, no host traffic.
    ("nda_only_hbm2", dict(
        mode=AccessMode.NDA_ONLY, opcode=NdaOpcode.COPY,
        throttle="next_rank", config=lambda: platform_config("hbm2"),
        elements=1 << 14, cycles=3000, warmup=500)),
    # The ledger's colo_write shape; one NDA bank per rank, so operand and
    # output share it and every row switch is a same-bank precharge.
    ("colo_write", dict(
        mode=AccessMode.BANK_PARTITIONED, mix="mix1", throttle="next_rank",
        opcode=NdaOpcode.COPY, channels=2, ranks=4, elements=1 << 14,
        cycles=3000, warmup=500)),
    ("colocated_two_banks", dict(
        mode=AccessMode.BANK_PARTITIONED, mix="mix1", throttle="next_rank",
        opcode=NdaOpcode.AXPY, config=_two_nda_banks, cycles=2500)),
    # Full-buffer staging stalls and low-watermark drain-phase exits.
    ("tiny_buffer", dict(
        mode=AccessMode.NDA_ONLY, opcode=NdaOpcode.COPY,
        write_buffer=(8, 0.5, 0.25), cycles=2500)),
    ("tiny_buffer_colocated", dict(
        mode=AccessMode.BANK_PARTITIONED, mix="mix1", throttle="next_rank",
        opcode=NdaOpcode.XMY, config=_two_nda_banks,
        write_buffer=(8, 0.5, 0.25), cycles=2500)),
    ("refresh_pressure", dict(
        mode=AccessMode.NDA_ONLY, opcode=NdaOpcode.COPY,
        throttle="next_rank",
        config=lambda: _refresh_heavy_config("hbm2"), elements=1 << 12)),
    ("shared_next_rank", dict(
        mode=AccessMode.SHARED, mix="mix5", throttle="next_rank",
        opcode=NdaOpcode.COPY, cycles=2500)),
    # The other bank's row commands often land on a planned cycle here
    # (the collision rule: they are left to the per-cycle path).
    ("slot_collisions", dict(
        mode=AccessMode.BANK_PARTITIONED, mix="mix1",
        throttle="issue_if_idle", opcode=NdaOpcode.COPY,
        config=lambda: _two_nda_banks("ddr4-3200"), elements=1 << 13,
        cycles=2500)),
]


class TestDrainPhasePlans:
    """The two mid-instruction plan classes (drain_run, read_under_drain)."""

    @pytest.mark.parametrize("oracle", list(_ORACLES))
    @pytest.mark.parametrize("name,spec", _DRAIN_PHASE_SCENARIOS)
    def test_replay_matches(self, name, spec, oracle):
        system, mismatched = _replay_mismatches(oracle=oracle, **spec)
        assert not mismatched, (
            f"drain-phase plans diverged from the {oracle} replay on "
            f"{mismatched}")
        planned = _planned_by_class(system)
        assert planned["drain_run"] > 0, planned
        assert planned["read_under_drain"] > 0, planned

    def test_stochastic_throttle_plans_nothing_new(self):
        """Every drain attempt draws RNG: no plan may span one."""
        system, mismatched = _replay_mismatches(
            mode=AccessMode.SHARED, mix="mix1", throttle="stochastic",
            opcode=NdaOpcode.AXPY)
        assert not mismatched
        planned = _planned_by_class(system)
        assert planned["read_streak"] > 0
        assert (planned["drain_tail"] == planned["drain_run"]
                == planned["read_under_drain"] == 0), planned

    def test_same_bank_without_precharge_push_falls_back(self):
        """Operand bank == output bank: the pending access needs a PRE of
        the streaming bank itself.  Planning through it rests on a static
        platform property (every planned command pushes that PRE past the
        next one); where it does not hold, the per-cycle path must run."""
        def no_push(system):
            for rc in system.rank_controllers.values():
                rc._planner = rc._planner._replace(wr_pushes_pre=False,
                                                   rd_pushes_pre=False)

        spec = dict(mode=AccessMode.BANK_PARTITIONED, mix="mix1",
                    throttle="issue_if_idle", opcode=NdaOpcode.COPY,
                    cycles=2500)
        system, mismatched = _replay_mismatches(prepare=no_push, **spec)
        assert not mismatched
        fallback = _planned_by_class(system)
        system, mismatched = _replay_mismatches(**spec)
        assert not mismatched
        planned = _planned_by_class(system)
        # With an always-permissive throttle, every mid-instruction plan on
        # a single NDA bank goes through the same-bank proof.
        assert fallback["drain_run"] == fallback["read_under_drain"] == 0
        assert planned["drain_run"] > 0 and planned["read_under_drain"] > 0

    def test_row_gap_and_new_causes_are_reported(self):
        """Operand rows stream from one bank while results drain into
        another, so the other bank's PRE/ACT falls inside each column run:
        plans absorb it and report it as ``row_commands`` — NDA commands
        issued, but not column commands settled in closed form."""
        system, _, log = _build_and_run(
            mode=AccessMode.NDA_ONLY, opcode=NdaOpcode.COPY,
            config=platform_config("hbm2"), cycles=2000)
        rows = [record for record in log if record.kind in ("ACT", "PRE")]
        absorbed = 0
        for rc in system.rank_controllers.values():
            stats = rc.burst_stats()
            assert set(stats["planned_by_class"]) == set(PLAN_CLASSES)
            assert (sum(stats["planned_by_class"].values())
                    == stats["commands_planned"])
            absorbed += stats["row_commands"]
        # The observer names the plan of each absorbed row command, once.
        assert absorbed == sum(record.plan is not None for record in rows)
        # Most row transitions of the COPY stream ride inside plans.
        assert 0.5 * len(rows) < absorbed <= len(rows), (absorbed, len(rows))

    def test_row_command_diff_names_the_first_divergent_record(self):
        plain = [CommandRecord(10, 0, 0, 0, 1, 5, 0, "PRE", "nda"),
                 CommandRecord(24, 0, 0, 0, 1, 6, 0, "ACT", "nda"),
                 CommandRecord(12, 0, 1, 0, 3, 5, 9, "RD", "nda")]
        # Ranks may interleave differently; per rank, order is by cycle,
        # and the plan class that carried a command is no part of it.
        planned = [plain[2]._replace(plan="read_streak")] + plain[1::-1]
        assert first_divergent_command(planned, plain) is None
        late = [plain[0]._replace(cycle=11)] + plain[1:]
        assert first_divergent_command(late, plain) == (late[0], plain[0])
        assert first_divergent_command(plain[:2], plain) == (None, plain[2])

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(opcode=st.sampled_from([NdaOpcode.COPY, NdaOpcode.AXPY,
                                   NdaOpcode.AXPBY, NdaOpcode.SCAL,
                                   NdaOpcode.XMY]),
           capacity=st.sampled_from([4, 8, 32, 128]),
           watermarks=st.sampled_from([(0.5, 0.0), (0.5, 0.25),
                                       (0.75, 0.5), (1.0, 0.0)]),
           platform=st.sampled_from([None, "hbm2", "ddr5-4800",
                                     "lpddr4-3200"]),
           throttle=st.sampled_from(["issue_if_idle", "next_rank",
                                     "stochastic"]),
           colocation=st.sampled_from([None, 1, 2]),
           seed=st.integers(0, 999))
    def test_fuzz(self, opcode, capacity, watermarks, platform, throttle,
                  colocation, seed):
        """(opcode, buffer geometry, platform, throttle, NDA banks) fuzz:
        burst-on == burst-off on the full state, attempts included."""
        if colocation is None:
            spec = dict(mode=AccessMode.NDA_ONLY)
        else:
            spec = dict(mode=AccessMode.BANK_PARTITIONED, mix="mix1")

        def config():
            cfg = platform_config(platform) if platform else scaled_config(2, 2)
            return dataclasses.replace(
                cfg, shared_banks_per_rank=colocation or 1)

        _, mismatched = _replay_mismatches(
            opcode=opcode, throttle=throttle, config=config, seed=seed,
            write_buffer=(capacity,) + watermarks, elements=1 << 12,
            cycles=1500, **spec)
        assert not mismatched, mismatched


_BP = AccessMode.BANK_PARTITIONED

#: Work-counter table: shape -> (platform, channels, ranks, mode, mix, NDA
#: opcode) and the exact counters of a seed-1 run of 500 warm-up + 2000
#: measured cycles on the default path.  The first four rows are the perf
#: ledger's simulation workloads at smoke length; the ``colo_read@<preset>``
#: rows carry the per-platform axis (``colo_read`` itself is the ddr4-2400
#: leg).  ``dram`` is (ACT, PRE, REF, host RD, host WR, NDA RD, NDA WR) over
#: the measured window, ``nda`` is (commands settled from burst plans,
#: commands issued), and ``sha256`` digests the whole SimulationResult.
_WORK_TABLE = {
    "colo_read": (
        ("ddr4-2400", 2, 4, _BP, "mix1", NdaOpcode.DOT),
        dict(processed=1727, skipped=773,
             dram=(367, 321, 0, 372, 149, 2751, 0), nda=(3103, 2797),
             sha256="bfce497204dbbb5627e1c8e65dc4038c"
                    "a7006a31906f17797d2d1fc4a9c94a90")),
    "colo_write": (
        ("ddr4-2400", 2, 4, _BP, "mix1", NdaOpcode.COPY),
        dict(processed=1712, skipped=788,
             dram=(404, 361, 0, 349, 139, 1123, 1200), nda=(2641, 2496),
             sha256="223b7d8655937daf0e2f69d8399e7851"
                    "57335c23bfd60b8600a19744d923ebca")),
    "host_only": (
        ("ddr4-2400", 2, 2, AccessMode.HOST_ONLY, "mix1", None),
        dict(processed=1708, skipped=792,
             dram=(410, 395, 0, 438, 170, 0, 0), nda=(0, 0),
             sha256="58ee0c73c551b405d122d23c3f1a0fa8"
                    "8864dd88d9a89ea4d732bdbed229e2cd")),
    "nda_only_hbm2": (
        ("hbm2", None, None, AccessMode.NDA_ONLY, None, NdaOpcode.COPY),
        dict(processed=40, skipped=2460,
             dram=(200, 200, 0, 0, 0, 3232, 3328), nda=(7688, 6960),
             sha256="22766dbea5f5df2113ef9a3793a17932"
                    "9fbd5b2275058c298da41ab46e335d6e")),
    "colo_read@ddr4-3200": (
        ("ddr4-3200", 2, 4, _BP, "mix1", NdaOpcode.DOT),
        dict(processed=1395, skipped=1105,
             dram=(213, 175, 0, 224, 95, 2960, 0), nda=(3318, 3006),
             sha256="99d946a034578909edf9b5f6ba08b6f0"
                    "a53c80ef577a38221074057c82b2a6f2")),
    "colo_read@lpddr4-3200": (
        ("lpddr4-3200", 2, 4, _BP, "mix1", NdaOpcode.DOT),
        dict(processed=1154, skipped=1346,
             dram=(252, 224, 0, 178, 94, 1380, 0), nda=(1472, 1424),
             sha256="38c6e6eb66b54d2ea3df736a0adab7fe"
                    "a44a69e09240c833711b548ceb8d1bc5")),
    "colo_read@ddr5-4800": (
        ("ddr5-4800", 2, 4, _BP, "mix1", NdaOpcode.DOT),
        dict(processed=1058, skipped=1442,
             dram=(166, 84, 0, 198, 91, 1208, 0), nda=(1249, 1242),
             sha256="559865cb5d6f9a004a6fa3d47b6548e6"
                    "61f5ffb83dd74d7bfc0a40cb463c6c7c")),
    "colo_read@hbm2": (
        ("hbm2", 2, 4, _BP, "mix1", NdaOpcode.DOT),
        dict(processed=2023, skipped=477,
             dram=(670, 629, 0, 450, 186, 4484, 0), nda=(4808, 4762),
             sha256="396d158dbe24816ee7497266fe2328de"
                    "ee5bf637104afdf2465b60bfee9be7e4")),
}


def _work_counters(shape, variant="default"):
    """The table's counters for ``shape`` on one execution variant: the
    default path, the event engine with bursting off, or the cycle
    engine."""
    platform, channels, ranks, mode, mix, opcode = shape
    config = dataclasses.replace(resolve_config(platform, channels, ranks),
                                 seed=1)
    system = ChopimSystem(config=config, mode=mode, mix=mix,
                          throttle="next_rank",
                          engine="cycle" if variant == "cycle" else "event",
                          burst=variant != "burst_off")
    if opcode is not None:
        system.set_nda_workload(opcode, elements_per_rank=1 << 14)
    result = system.run(cycles=2000, warmup=500)
    counts = system.dram.counts
    controllers = system.rank_controllers.values()
    text = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return dict(
        processed=system.engine.cycles_processed,
        skipped=system.engine.cycles_skipped,
        dram=(counts.activates, counts.precharges, counts.refreshes,
              counts.host_reads, counts.host_writes, counts.nda_reads,
              counts.nda_writes),
        nda=(sum(rc.burst_commands_settled for rc in controllers),
             sum(rc.commands_issued for rc in controllers)),
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest())


class TestBurstWorkCounters:
    """Noise-free work counters, gated tightly (wall-clock is gated loosely
    by the perf ledger): how much of the command stream the plans carry,
    and how much work the default path does per shape."""

    @pytest.mark.parametrize("name", list(_WORK_TABLE))
    def test_work_table(self, name):
        """Exact counters and result digest per shape: any change to the
        work the default path does — cycles processed, commands issued or
        settled — or to a single result bit shows up here as a literal
        diff, with no wall-clock noise involved."""
        shape, expected = _WORK_TABLE[name]
        assert _work_counters(shape) == expected

    @pytest.mark.parametrize("variant", ["burst_off", "cycle"])
    @pytest.mark.parametrize("name", list(_WORK_TABLE))
    def test_variants_do_the_same_commands(self, name, variant):
        """The other execution variants issue the table's DRAM and NDA
        commands and reach its result bits; only the work differs: nothing
        is settled from a plan, and the processed cycles are a superset of
        the default path's (every cycle, on the cycle engine)."""
        shape, expected = _WORK_TABLE[name]
        got = _work_counters(shape, variant)
        assert got["sha256"] == expected["sha256"]
        assert got["dram"] == expected["dram"]
        assert got["nda"] == (0, expected["nda"][1])
        cycles = expected["processed"] + expected["skipped"]
        assert got["processed"] + got["skipped"] == cycles
        assert got["processed"] >= expected["processed"]
        if variant == "cycle":
            assert got["skipped"] == 0

    @staticmethod
    def _run(**spec):
        """(NDA commands issued, settled from plans, observed, observed as
        planned column commands)."""
        system, _, log = _build_and_run(warmup=0, cycles=3000, **spec)
        controllers = system.rank_controllers.values()
        nda = [record for record in log if record.source == "nda"]
        planned = sum(record.plan is not None and record.kind in ("RD", "WR")
                      for record in nda)
        return (sum(rc.commands_issued for rc in controllers),
                sum(rc.burst_commands_settled for rc in controllers),
                len(nda), planned)

    def test_nda_only_hbm2_copy(self):
        commands, settled, observed, planned = self._run(
            mode=AccessMode.NDA_ONLY, opcode=NdaOpcode.COPY,
            throttle="next_rank", config=platform_config("hbm2"),
            elements=1 << 14)
        # The observer sees every command once, a plan's as they settle.
        assert commands == observed and settled == planned
        assert settled >= 0.85 * commands, (settled, commands)
        assert commands - settled <= 0.20 * commands, (settled, commands)

    def test_colocated_copy(self):
        commands, settled, _, _ = self._run(
            mode=AccessMode.BANK_PARTITIONED, mix="mix1",
            throttle="next_rank", opcode=NdaOpcode.COPY, channels=2,
            ranks=4, elements=1 << 14)
        # 0.27 before drain-phase plans existed.
        assert settled > 0.5 * commands, (settled, commands)


class TestBulkPrimitives:
    """The closed-form settlement helpers equal their per-event loops."""

    def test_fsm_apply_bulk_matches_loop(self):
        bulk = ReplicatedFsm(0, 0)
        loop = ReplicatedFsm(0, 0)
        for fsm in (bulk, loop):
            fsm.apply("launch", instruction_id=7, reads=100, writes=40)
        for _ in range(12):
            loop.apply("write_buffered")
        bulk.apply_bulk("write_buffered", 12)
        for _ in range(30):
            loop.apply("read_issued")
        bulk.apply_bulk("read_issued", 30)
        loop.apply("drain_start")
        bulk.apply("drain_start")
        for _ in range(5):
            loop.apply("write_drained")
        bulk.apply_bulk("write_drained", 5)
        assert bulk.state == loop.state
        assert bulk.in_sync and loop.in_sync

    def test_fsm_apply_bulk_rejects_non_streaming_events(self):
        fsm = ReplicatedFsm(0, 0)
        with pytest.raises(ValueError):
            fsm.apply_bulk("launch", 3)

    def test_write_buffer_pop_bulk_matches_loop(self):
        """One bulk push/pop == that many single ones, including the
        drain-phase entry and exit (or not, short of the low watermark)."""
        for low, pops in ((0.125, 6), (0.5, 1), (0.5, 3)):
            bulk = NdaWriteBuffer(16, drain_high_watermark=0.5,
                                  drain_low_watermark=low)
            loop = NdaWriteBuffer(16, drain_high_watermark=0.5,
                                  drain_low_watermark=low)
            bulk.push(10)
            for _ in range(10):
                loop.push()
            assert bulk.draining and loop.draining
            for _ in range(pops):
                loop.pop()
            bulk.pop(pops)
            assert (len(bulk), bulk.draining) == (len(loop), loop.draining)
            assert len(bulk) == 10 - pops

    def test_write_buffer_pop_bulk_bounds(self):
        buffer = NdaWriteBuffer(4)
        buffer.push()
        with pytest.raises(IndexError):
            buffer.pop(2)
        with pytest.raises(IndexError):
            buffer.push(4)
        assert (len(buffer), buffer.draining) == (1, False)
