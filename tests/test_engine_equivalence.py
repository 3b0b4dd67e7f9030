"""Equivalence suite: the event engine must be cycle-state-exact.

For every access mode, every throttle policy, a composite kernel sequence
and a seeded random sample of full configurations, ``engine="event"`` must
end a run in the state ``engine="cycle"`` does: ``repro.snapshot.diff``
over the two end-of-run snapshots — every member a checkpoint carries, so
every field a :class:`SimulationResult` is computed from, floating-point
metrics, per-rank idle breakdowns and the energy table included — must
come back empty, bar what counts attempts or wake cadence
(``CYCLE_IGNORE``).  This is the regression contract of the selective-wake
engine and its dirty-notification routing (see ARCHITECTURE.md).
"""

import dataclasses
import random

import pytest

from repro.core.modes import AccessMode
from repro.core.system import ChopimSystem, NdaKernelSpec
from repro.config import scaled_config
from repro.experiments.common import resolve_config
from repro.nda.isa import NdaOpcode
from repro.nda.write_buffer import NdaWriteBuffer
from repro.snapshot import diff, snapshot_system
from bisector.divergence import CYCLE_IGNORE

CYCLES = 1500
WARMUP = 150

#: Engines every equivalence assertion runs; index 0 is the per-cycle
#: oracle the fast path is compared against.
_ENGINES = ("cycle", "event")


def _build(engine, mode, mix=None, throttle="next_rank", config=None,
           stochastic_probability=0.25):
    return ChopimSystem(config=config, mode=mode, mix=mix, throttle=throttle,
                        stochastic_probability=stochastic_probability,
                        engine=engine)


def _assert_same_state(systems):
    """The cycle and event runs in ``systems`` end in the same state."""
    mismatched = diff(snapshot_system(systems["cycle"]),
                      snapshot_system(systems["event"]), CYCLE_IGNORE)
    assert not mismatched, f"event diverged from cycle on {mismatched[:10]}"


def _assert_equivalent(configure, mode, mix=None, throttle="next_rank",
                       config=None, cycles=CYCLES, warmup=WARMUP,
                       stochastic_probability=0.25):
    systems = {}
    for engine in _ENGINES:
        system = systems[engine] = _build(
            engine, mode, mix=mix, throttle=throttle, config=config,
            stochastic_probability=stochastic_probability)
        if configure is not None:
            configure(system)
        system.run(cycles=cycles, warmup=warmup)
    _assert_same_state(systems)


class TestEngineEquivalenceModes:
    """Every access mode, with its natural workload."""

    def test_host_only(self):
        _assert_equivalent(None, AccessMode.HOST_ONLY, mix="mix8")

    def test_host_only_memory_intensive(self):
        _assert_equivalent(None, AccessMode.HOST_ONLY, mix="mix1")

    def test_nda_only(self):
        def configure(system):
            system.set_nda_workload(NdaOpcode.DOT, elements_per_rank=1 << 12)
        _assert_equivalent(configure, AccessMode.NDA_ONLY)

    def test_shared(self):
        def configure(system):
            system.set_nda_workload(NdaOpcode.AXPY, elements_per_rank=1 << 12)
        _assert_equivalent(configure, AccessMode.SHARED, mix="mix5")

    def test_bank_partitioned(self):
        def configure(system):
            system.set_nda_workload(NdaOpcode.COPY, elements_per_rank=1 << 12)
        _assert_equivalent(configure, AccessMode.BANK_PARTITIONED, mix="mix1")

    def test_rank_partitioned(self):
        def configure(system):
            system.set_nda_workload(NdaOpcode.DOT, elements_per_rank=1 << 12)
        _assert_equivalent(configure, AccessMode.RANK_PARTITIONED, mix="mix8")

    def test_bank_partitioned_read_stream(self):
        """The paper baseline's colocated read kernel (read-streak plans
        only, no write phase)."""
        def configure(system):
            system.set_nda_workload(NdaOpcode.DOT, elements_per_rank=1 << 12)
        _assert_equivalent(configure, AccessMode.BANK_PARTITIONED, mix="mix1")

    def test_shared_on_platform_preset(self):
        def configure(system):
            system.set_nda_workload(NdaOpcode.AXPY, elements_per_rank=1 << 12)
        _assert_equivalent(configure, AccessMode.SHARED, mix="mix5",
                           config=resolve_config("ddr5-4800"), cycles=1000,
                           warmup=100)

    def test_host_only_refresh_horizon(self):
        """Long enough to cross tREFI: pins the refresh wake."""
        _assert_equivalent(None, AccessMode.HOST_ONLY, mix="mix1",
                           cycles=12000, warmup=0)


class TestEngineEquivalenceThrottles:
    """Every write-throttle policy, under the write-heavy COPY workload."""

    @pytest.mark.parametrize("throttle", ["issue_if_idle", "next_rank",
                                          "stochastic"])
    def test_policy(self, throttle):
        def configure(system):
            system.set_nda_workload(NdaOpcode.COPY, elements_per_rank=1 << 12)
        _assert_equivalent(configure, AccessMode.BANK_PARTITIONED, mix="mix5",
                           throttle=throttle)

    def test_stochastic_low_probability(self):
        def configure(system):
            system.set_nda_workload(NdaOpcode.COPY, elements_per_rank=1 << 12)
        _assert_equivalent(configure, AccessMode.BANK_PARTITIONED, mix="mix8",
                           throttle="stochastic",
                           stochastic_probability=1.0 / 16.0)


class TestEngineEquivalenceComposite:
    def test_composite_kernel_sequence(self):
        """A mixed read/write application-like kernel sequence."""
        def configure(system):
            system.set_nda_workload_sequence([
                NdaKernelSpec(NdaOpcode.GEMV, 512, matrix_columns=64),
                NdaKernelSpec(NdaOpcode.AXPY, 512),
                NdaKernelSpec(NdaOpcode.DOT, 512),
                NdaKernelSpec(NdaOpcode.COPY, 256),
            ])
        _assert_equivalent(configure, AccessMode.BANK_PARTITIONED, mix="mix5")

    def test_scaled_configuration(self):
        """The fig14 largest point: 2 channels x 4 ranks."""
        def configure(system):
            system.set_nda_workload(NdaOpcode.DOT, elements_per_rank=1 << 13)
        _assert_equivalent(configure, AccessMode.BANK_PARTITIONED, mix="mix1",
                           config=scaled_config(2, 4), cycles=1200,
                           warmup=120)

    def test_async_fine_grain_launches(self):
        """Fine-grain async launches stress the launch-packet path."""
        def configure(system):
            system.set_nda_workload(NdaOpcode.NRM2, elements_per_rank=1 << 12,
                                    cache_blocks=16, async_launch=True)
        _assert_equivalent(configure, AccessMode.BANK_PARTITIONED, mix="mix1")

    def test_no_warmup(self):
        def configure(system):
            system.set_nda_workload(NdaOpcode.SCAL, elements_per_rank=1 << 11)
        _assert_equivalent(configure, AccessMode.BANK_PARTITIONED, mix="mix8",
                           warmup=0)


def _fuzz_configs(count: int, seed: int = 0xC0F1):
    """Sample ``count`` full system configurations from a seeded RNG.

    The hand-picked classes above pin known-tricky interactions; this sweep
    pins the dirty-notification contract across the cartesian space of
    (platform, channels, ranks, mode, throttle, workload, mix)
    combinations, so a missing WakeHub route that only bites in an unusual
    combination cannot slip through.  The seed is fixed: failures are
    reproducible by index.  The platform axis weights the paper baseline
    (None) but keeps every non-default preset in rotation, so the
    cycle==event==burst contract is pinned on presets whose cadence, bank
    count and turnarounds all differ from DDR4-2400's.
    """
    rng = random.Random(seed)
    modes = [AccessMode.HOST_ONLY, AccessMode.SHARED,
             AccessMode.BANK_PARTITIONED, AccessMode.RANK_PARTITIONED,
             AccessMode.NDA_ONLY]
    opcodes = [NdaOpcode.DOT, NdaOpcode.AXPY, NdaOpcode.COPY,
               NdaOpcode.SCAL, NdaOpcode.NRM2, NdaOpcode.GEMV]
    platforms = [None, None, "ddr4-3200", "lpddr4-3200", "ddr5-4800", "hbm2"]
    configs = []
    while len(configs) < count:
        channels = rng.choice([1, 2])
        ranks = rng.choice([1, 2, 4])
        mode = rng.choice(modes)
        if mode is AccessMode.RANK_PARTITIONED and ranks < 2:
            continue  # needs host and NDA rank subsets
        configs.append({
            "channels": channels,
            "ranks": ranks,
            "mode": mode,
            "platform": rng.choice(platforms),
            "throttle": rng.choice(["issue_if_idle", "next_rank",
                                    "stochastic"]),
            "probability": rng.choice([0.25, 1.0 / 16.0]),
            "mix": rng.choice(["mix1", "mix5", "mix8"]),
            "opcode": rng.choice(opcodes),
            "elements": rng.choice([1 << 10, 1 << 11, 1 << 12]),
            "warmup": rng.choice([0, 100]),
        })
    return configs


_FUZZ_CONFIGS = _fuzz_configs(12)

#: Burst-heavy configurations: long NDA streams (the steady-state phases the
#: burst-issue fast path batches), zero host mix (uninterrupted streaks) and
#: write-heavy kernels (drain-tail bursts under every throttle).  The fuzz
#: class asserts cycle == event bit-exactly with bursting at its default
#: (enabled), so these pin the burst path's truncation contract.
_BURST_CONFIGS = [
    {"channels": 2, "ranks": 4, "mode": AccessMode.NDA_ONLY, "mix": None,
     "throttle": "issue_if_idle", "probability": 0.25,
     "opcode": NdaOpcode.DOT, "elements": 1 << 14, "warmup": 100},
    {"channels": 1, "ranks": 2, "mode": AccessMode.NDA_ONLY, "mix": None,
     "throttle": "issue_if_idle", "probability": 0.25,
     "opcode": NdaOpcode.COPY, "elements": 1 << 13, "warmup": 0},
    {"channels": 2, "ranks": 2, "mode": AccessMode.BANK_PARTITIONED,
     "mix": "mix1", "throttle": "next_rank", "probability": 0.25,
     "opcode": NdaOpcode.SCAL, "elements": 1 << 13, "warmup": 50},
    {"channels": 1, "ranks": 4, "mode": AccessMode.RANK_PARTITIONED,
     "mix": "mix8", "throttle": "issue_if_idle", "probability": 0.25,
     "opcode": NdaOpcode.AXPY, "elements": 1 << 13, "warmup": 0},
    {"channels": 2, "ranks": 2, "mode": AccessMode.SHARED, "mix": "mix5",
     "throttle": "stochastic", "probability": 1.0 / 16.0,
     "opcode": NdaOpcode.COPY, "elements": 1 << 12, "warmup": 100},
    # Non-default platforms: the burst cadence (max(tCCD_S, tBL)), bank
    # geometry and turnarounds all differ from the DDR4-2400 values the
    # fast path was first built against.
    {"channels": 2, "ranks": 2, "mode": AccessMode.NDA_ONLY, "mix": None,
     "platform": "hbm2", "throttle": "issue_if_idle", "probability": 0.25,
     "opcode": NdaOpcode.DOT, "elements": 1 << 13, "warmup": 100},
    {"channels": 2, "ranks": 2, "mode": AccessMode.BANK_PARTITIONED,
     "mix": "mix1", "platform": "lpddr4-3200", "throttle": "next_rank",
     "probability": 0.25, "opcode": NdaOpcode.COPY, "elements": 1 << 13,
     "warmup": 50},
    {"channels": 2, "ranks": 4, "mode": AccessMode.NDA_ONLY, "mix": None,
     "platform": "ddr5-4800", "throttle": "issue_if_idle",
     "probability": 0.25, "opcode": NdaOpcode.SCAL, "elements": 1 << 13,
     "warmup": 0},
]


def _write_fuzz_configs(count: int, seed: int = 0xD2A3):
    """Seeded write-phase configurations: write-producing kernels crossed
    with the write-buffer geometry (capacity, drain-high and drain-low
    watermarks) that decides where drain phases start, stall on a full
    buffer and end — the phases the mid-instruction burst plans
    (drain_run / read_under_drain) cover.  NDA-only and colocated with one
    (operand bank == output bank) or two NDA banks per rank."""
    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        colocated = rng.random() < 0.6
        configs.append({
            "channels": rng.choice([1, 2]),
            "ranks": rng.choice([1, 2, 4]),
            "mode": (AccessMode.BANK_PARTITIONED if colocated
                     else AccessMode.NDA_ONLY),
            "platform": rng.choice([None, None, "hbm2", "lpddr4-3200",
                                    "ddr5-4800"]),
            "throttle": rng.choice(["issue_if_idle", "next_rank",
                                    "next_rank", "stochastic"]),
            "probability": 0.25,
            "mix": rng.choice(["mix1", "mix5"]),
            "opcode": rng.choice([NdaOpcode.COPY, NdaOpcode.AXPY]),
            "elements": rng.choice([1 << 12, 1 << 13]),
            "warmup": rng.choice([0, 100]),
            "nda_banks": rng.choice([1, 2]),
            "write_buffer": rng.choice([(128, 0.5, 0.0), (8, 0.5, 0.25),
                                        (16, 0.75, 0.5), (4, 1.0, 0.0),
                                        (32, 0.25, 0.0)]),
        })
    return configs


_WRITE_FUZZ_CONFIGS = _write_fuzz_configs(8)


def _run_fuzz_spec(spec, cycles=700):
    mode = spec["mode"]

    def configure(system):
        if not mode.has_nda_traffic:
            return
        if "write_buffer" in spec:
            # Buffer geometry is not a configuration option: swap it in.
            for controller in system.rank_controllers.values():
                controller.write_buffer = NdaWriteBuffer(
                    *spec["write_buffer"])
        kwargs = {}
        if spec["opcode"] is NdaOpcode.GEMV:
            kwargs["matrix_columns"] = 64
        system.set_nda_workload(spec["opcode"],
                                elements_per_rank=spec["elements"],
                                **kwargs)

    _assert_equivalent(
        configure, mode,
        mix=spec["mix"] if mode.has_host_traffic else None,
        throttle=spec["throttle"],
        stochastic_probability=spec["probability"],
        config=dataclasses.replace(
            resolve_config(spec.get("platform"),
                           spec["channels"], spec["ranks"]),
            shared_banks_per_rank=spec.get("nda_banks", 1)),
        cycles=cycles, warmup=spec["warmup"],
    )


class TestEngineEquivalenceFuzz:
    """Seeded random configurations: event == cycle, bit-exactly.

    The event engine runs with its default burst-issue fast path, so every
    case here is also a cycle == event == burst equivalence check.
    """

    @pytest.mark.parametrize("index", range(len(_FUZZ_CONFIGS)))
    def test_random_config(self, index):
        _run_fuzz_spec(_FUZZ_CONFIGS[index])

    @pytest.mark.parametrize("index", range(len(_BURST_CONFIGS)))
    def test_burst_heavy_config(self, index):
        _run_fuzz_spec(_BURST_CONFIGS[index], cycles=1200)

    @pytest.mark.parametrize("index", range(len(_WRITE_FUZZ_CONFIGS)))
    def test_write_phase_config(self, index):
        _run_fuzz_spec(_WRITE_FUZZ_CONFIGS[index], cycles=1200)


class TestEngineBehaviour:
    def test_event_engine_skips_cycles_when_idle(self):
        system = ChopimSystem(mode=AccessMode.HOST_ONLY, mix="mix8",
                              engine="event")
        system.run(cycles=1500, warmup=0)
        assert system.engine.cycles_skipped > 0
        assert (system.engine.cycles_processed
                + system.engine.cycles_skipped) == 1500

    def test_cycle_engine_processes_every_cycle(self):
        system = ChopimSystem(mode=AccessMode.HOST_ONLY, mix="mix8",
                              engine="cycle")
        system.run(cycles=500, warmup=0)
        assert system.engine.cycles_processed == 500

    def test_step_interoperates_with_run(self):
        """Manual step() driving (runtime API style) must stay coherent."""
        results = {}
        for engine in ("cycle", "event"):
            system = ChopimSystem(mode=AccessMode.NDA_ONLY, engine=engine)
            system.set_nda_workload(NdaOpcode.DOT, elements_per_rank=1 << 10)
            for _ in range(200):
                system.step()
            results[engine] = dataclasses.asdict(system.run(cycles=800))
        assert results["cycle"] == results["event"]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            ChopimSystem(mode=AccessMode.HOST_ONLY, mix="mix8",
                         engine="warp")
