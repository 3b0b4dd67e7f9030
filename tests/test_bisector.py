"""The oracle machinery: the command observer, the state diff and the
first-divergence bisector (``tests/bisector/``).

The bisector is checked against three planted faults, each injected into
one burst-on side only and each of a kind the state diff alone cannot
name: a plan that reports its column commands one cadence late (no state
changes at all), an absorbed ACT one cycle early, and a settled run that
leaves the PRE-probe cache stale (the cache is derived state, which no
snapshot carries).
"""

import collections
import fnmatch
import json

import pytest

from repro.core.modes import AccessMode
from repro.core.system import ChopimSystem, NdaKernelSpec
from repro.dram.commands import CommandType
from repro.nda.burst import StreakPlanner
from repro.nda.isa import NdaOpcode
from repro.snapshot import decode, diff, dumps, encode, snapshot_system
from bisector.divergence import (
    BURST_OFF_IGNORE,
    CYCLE_IGNORE,
    CYCLES,
    EVERY,
    Side,
    bisect,
    build_shape,
)


def _async_launches():
    system = ChopimSystem(mode=AccessMode.BANK_PARTITIONED, mix="mix1")
    system.set_nda_workload(NdaOpcode.NRM2, elements_per_rank=1 << 11,
                            cache_blocks=16, async_launch=True)
    return system


def _kernel_sequence():
    system = ChopimSystem(mode=AccessMode.SHARED, mix="mix5")
    system.set_nda_workload_sequence([
        NdaKernelSpec(NdaOpcode.GEMV, 512, matrix_columns=64),
        NdaKernelSpec(NdaOpcode.AXPY, 512)])
    return system


_BUILDS = {"colo_write": lambda: build_shape("colo_write"),
           "async_launches": _async_launches,
           "kernel_sequence": _kernel_sequence}


def _mid_run_snapshot(build):
    """A snapshot at cycle 400 of a 900-cycle run: requests, instructions
    and operations (launch packets included) in flight."""
    taken = []
    build().run(cycles=900, checkpoint_hook=lambda system: taken.append(
        snapshot_system(system)), checkpoint_every=400)
    return taken[0]


class TestDiff:
    @pytest.mark.parametrize("name", list(_BUILDS))
    def test_identical_systems_built_back_to_back_diff_empty(self, name):
        first = _mid_run_snapshot(_BUILDS[name])
        second = _mid_run_snapshot(_BUILDS[name])
        # The second system's ids continue the process-global counters.
        for kind in ("requests", "instructions"):
            assert first["tables"][kind]
            assert not first["tables"][kind].keys() & second["tables"][kind]
        assert diff(first, second) == []
        # A payload that went through the codec compares the same.
        assert diff(first, decode(encode(second))) == []

    def test_a_perturbed_field_is_reported_by_its_path(self):
        payload = _mid_run_snapshot(_BUILDS["colo_write"])
        other = decode(encode(payload))
        other["system"]["dram"]["timing"]["_ranks"][3][
            "last_write_cycle"] += 1
        assert diff(payload, other) == [
            "system.dram.timing._ranks.3.last_write_cycle"]
        assert diff(payload, other, ["system.dram.timing"]) == []
        # Table entries pair by rank, not by id.
        other = decode(encode(payload))
        requests = other["tables"]["requests"]
        requests[sorted(requests)[2]]["arrival_cycle"] += 1
        assert diff(payload, other) == ["tables.requests.2.arrival_cycle"]

    def test_a_swapped_id_is_reported(self):
        payload = _mid_run_snapshot(_BUILDS["colo_write"])
        other = decode(encode(payload))
        queue = other["system"]["channel_controllers"][0]["read_queue"][
            "_entries"]
        queue[0], queue[1] = queue[1], queue[0]
        assert diff(payload, other) == [
            "system.channel_controllers.0.read_queue._entries.0",
            "system.channel_controllers.0.read_queue._entries.1"]


class TestObserver:
    @pytest.mark.parametrize("shape", ["colo_write", "nda_only_hbm2"])
    def test_sees_every_command_once(self, shape):
        system = build_shape(shape)
        log = []
        system.dram.observer = log.append
        system.run(cycles=1500)
        seen = collections.Counter((record.kind, record.source)
                                   for record in log)
        counts = system.dram.counts
        assert counts.nda_reads + counts.nda_writes > 0
        expected = {
            ("RD", "host"): counts.host_reads,
            ("WR", "host"): counts.host_writes,
            ("RD", "nda"): counts.nda_reads,
            ("WR", "nda"): counts.nda_writes,
            ("REF", "host"): counts.refreshes}
        assert {key: seen[key] for key in expected} == expected
        assert seen["ACT", "host"] + seen["ACT", "nda"] == counts.activates
        assert seen["PRE", "host"] + seen["PRE", "nda"] == counts.precharges
        assert sum(seen.values()) == (sum(expected.values())
                                      + counts.activates + counts.precharges)
        assert sum(count for (_, source), count in seen.items()
                   if source == "nda") == sum(
            rc.commands_issued for rc in system.rank_controllers.values())
        planned = sum(record.plan is not None for record in log)
        assert planned == sum(rc.burst_commands_settled + rc.burst_row_commands
                              for rc in system.rank_controllers.values())

    def test_never_reaches_a_payload(self):
        watched = build_shape("colo_write")
        watched.dram.observer = [].append
        plain = build_shape("colo_write")
        for system in (watched, plain):
            system.run(cycles=500)
        payload = snapshot_system(watched)
        assert "observer" not in json.dumps(encode(payload))
        dumps(payload)  # a callable would not encode
        assert diff(payload, snapshot_system(plain)) == []


def _mutant_planner(cls):
    def prepare(system):
        for rc in system.rank_controllers.values():
            rc._planner = cls(*rc._planner)
    return prepare


class _LateColumns(StreakPlanner):
    """Every plan reports its column commands one cadence late."""

    def plan(self, *args):
        plan = super().plan(*args)
        if plan is not None:
            plan.command_at = lambda j, p=plan: p.start + (j + 1) * p.step
        return plan


class _EarlyAct(StreakPlanner):
    """Every absorbed ACT issues one cycle early."""

    def _absorb(self, *args):
        rows, gap = super()._absorb(*args)
        return [(cycle - (cmd.kind is CommandType.ACT), cmd)
                for cycle, cmd in rows], gap


def _stale_pre_cache(system):
    """Settled runs keep their bank's PRE-probe cache entry."""
    timing = system.dram.timing

    def issue_nda_run(kind, addr, last):
        timing._issue_versions[addr.rank_index] += 1
        timing._issue_column(True, kind, addr, timing._banks[addr.bank_index],
                             timing._ranks[addr.rank_index], last)

    timing.issue_nda_run = issue_nda_run


def _bisect_mutant(shape, prepare):
    """The report for ``prepare`` planted in one side, and every command
    of the clean side's checkpointed run."""
    clean = Side(lambda: build_shape(shape))
    found = bisect(Side(lambda: build_shape(shape), prepare), clean)
    assert found is not None
    log = [record for _, _, records in clean.checkpoints(CYCLES, EVERY)
           for record in records]
    return found, log


class TestPlantedFaults:
    def test_late_column_report(self):
        found, clean = _bisect_mutant("colo_read",
                                      _mutant_planner(_LateColumns))
        late, right = found.command
        # The first planned command, one DDR4 cadence (4 cycles) late; the
        # state never differs, only what the plan says it did.
        assert right.cycle == min(record.cycle for record in clean
                                  if record.plan is not None)
        assert right in clean and right.kind == "RD"
        assert late == right._replace(cycle=right.cycle + 4)
        assert found.cycle == right.cycle and found.paths == []
        assert found.restorable

    def test_early_absorbed_act(self):
        found, clean = _bisect_mutant("nda_only_hbm2",
                                      _mutant_planner(_EarlyAct))
        early, _ = found.command
        assert (early.kind, early.source, early.plan) == (
            "ACT", "nda", "drain_run")
        assert early._replace(cycle=early.cycle + 1) in clean
        assert found.cycle == early.cycle and found.restorable
        rank = early.channel  # hbm2: one rank per channel
        assert f"system.dram.timing._ranks.{rank}.act_allowed" in found.paths

    def test_stale_pre_cache(self):
        found, clean = _bisect_mutant("colo_write", _stale_pre_cache)
        early, right = found.command
        assert (early.kind, early.source, right) == ("PRE", "nda", None)
        assert found.cycle == early.cycle
        # The premature PRE closes its bank.
        system = build_shape("colo_write")
        org = system.config.org
        bank = (((early.channel * org.ranks_per_channel + early.rank)
                 * org.bank_groups + early.bank_group) * org.banks_per_group
                + early.bank)
        assert f"system.dram._banks.{bank}.open_row" in found.paths
        # The stale entry is derived state, dropped at every checkpoint on
        # both sides: a restore from the last one before the divergence
        # reproduces it.
        assert found.restorable


def _paths(value, path=""):
    """Every dotted path of a payload, interior nodes included."""
    if isinstance(value, (list, tuple, collections.deque)):
        value = dict(enumerate(value))
    if isinstance(value, dict):
        for key, item in value.items():
            child = f"{path}.{key}" if path else str(key)
            yield child
            yield from _paths(item, child)


def test_every_ignore_glob_names_a_payload_path():
    # An exclusion that outlives its field would hide nothing and read as
    # a tolerance the oracles still need.
    paths = list(_paths(_mid_run_snapshot(_BUILDS["colo_write"])))
    for glob in CYCLE_IGNORE:  # BURST_OFF_IGNORE is its prefix
        assert any(fnmatch.fnmatchcase(path, glob) for path in paths), glob
    assert CYCLE_IGNORE[:len(BURST_OFF_IGNORE)] == BURST_OFF_IGNORE


def test_burst_off_run_never_diverges():
    assert bisect(Side(lambda: build_shape("colo_write")),
                  Side(lambda: build_shape("colo_write", burst=False)),
                  ignore=BURST_OFF_IGNORE) is None
