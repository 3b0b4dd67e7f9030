"""Platform layer: preset derivation, validation, and engine equivalence.

Three contracts are pinned here:

* **Baseline bit-exactness** — the ``ddr4-2400`` preset derives *exactly*
  the legacy hand-entered Table II defaults (every sub-config compared
  field-for-field), so the platform layer cannot drift the paper numbers.
* **Derivation sanity** — every registered preset validates, quantization
  follows the ceil(ns * clock) rule, and parameter sets the timing model
  cannot represent fail at construction with actionable messages.
* **Engine equivalence per platform** — cycle == event (with the burst
  fast path at its default) bit-exactly on the non-default presets, the
  acceptance contract of the platform refactor.  ``REPRO_PLATFORM``
  focuses the equivalence sweep on one preset (the CI platform matrix
  uses this).
"""

import dataclasses
import os

import pytest

from repro.config import (
    DramTimingConfig,
    HostConfig,
    SystemConfig,
    default_config,
    scaled_config,
)
from repro.core.energy import EnergyModel
from repro.core.modes import AccessMode
from repro.core.system import ChopimSystem
from repro.experiments.common import resolve_config
from repro.nda.isa import NdaOpcode
from repro.platform import (
    DEFAULT_PLATFORM,
    PLATFORM_REGISTRY,
    PlatformSpec,
    get_platform,
    ns_to_cycles,
    platform_config,
    platform_names,
)

NON_DEFAULT = [name for name in platform_names() if name != DEFAULT_PLATFORM]

#: Presets exercised by the (comparatively expensive) equivalence sweep.
#: The CI platform matrix pins one preset via REPRO_PLATFORM; locally the
#: acceptance trio of non-default presets runs.
_ENV_PLATFORM = os.environ.get("REPRO_PLATFORM")
EQUIV_PLATFORMS = ([_ENV_PLATFORM] if _ENV_PLATFORM
                   else ["ddr4-3200", "lpddr4-3200", "ddr5-4800", "hbm2"])


class TestBaselineBitExactness:
    """ddr4-2400 must reproduce the legacy defaults exactly."""

    def test_every_subconfig_matches_legacy_defaults(self):
        legacy = default_config()
        derived = platform_config("ddr4-2400")
        assert derived.timing == legacy.timing
        assert derived.org == legacy.org
        assert derived.host == legacy.host
        assert derived.nda == legacy.nda
        assert derived.energy == legacy.energy

    def test_host_tick_ratio_is_bit_identical(self):
        legacy = default_config().host.cycles_per_dram_cycle
        derived = platform_config("ddr4-2400").host.cycles_per_dram_cycle
        assert derived == legacy  # exact float equality, not approx

    def test_scaled_shapes_match_scaled_config(self):
        for channels, ranks in ((1, 1), (2, 4), (2, 8)):
            legacy = scaled_config(channels, ranks)
            derived = platform_config("ddr4-2400", channels=channels,
                                      ranks_per_channel=ranks)
            assert derived.timing == legacy.timing
            assert derived.org == legacy.org

    def test_resolve_config_default_goes_through_legacy_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLATFORM", raising=False)
        assert resolve_config(None, 2, 4).org == scaled_config(2, 4).org
        assert resolve_config(DEFAULT_PLATFORM).org == default_config().org

    def test_resolve_config_honors_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLATFORM", "lpddr4-3200")
        assert resolve_config().platform == "lpddr4-3200"
        # An explicit argument wins over the environment.
        assert resolve_config("hbm2").platform == "hbm2"

    def test_resolve_config_treats_empty_environment_as_unset(self, monkeypatch):
        # `REPRO_PLATFORM= cmd` is the common shell idiom for "unset".
        monkeypatch.setenv("REPRO_PLATFORM", "")
        assert resolve_config().platform == DEFAULT_PLATFORM
        assert resolve_config().org == default_config().org

    def test_resolve_config_keeps_native_geometry_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLATFORM", raising=False)
        hbm = resolve_config("hbm2")
        assert (hbm.org.channels, hbm.org.ranks_per_channel) == (8, 1)
        rescaled = resolve_config("hbm2", channels=2, ranks_per_channel=2)
        assert (rescaled.org.channels, rescaled.org.ranks_per_channel) == (2, 2)


class TestDerivation:
    def test_ns_to_cycles_rounds_up(self):
        assert ns_to_cycles(13.32, 1.2) == 16   # 15.984 -> 16
        assert ns_to_cycles(10.0, 1.2) == 12    # exact product stays put
        assert ns_to_cycles(7800.0, 1.2) == 9360  # float error absorbed
        assert ns_to_cycles(0.1, 1.2) == 1      # clamped at one cycle

    def test_command_clock_is_half_the_data_rate(self):
        for spec in PLATFORM_REGISTRY.values():
            assert spec.dram_clock_ghz == spec.data_rate_mtps / 2000.0
            assert spec.org_config().dram_clock_ghz == spec.dram_clock_ghz

    @pytest.mark.parametrize("name", platform_names())
    def test_every_preset_validates(self, name):
        cfg = platform_config(name)
        cfg.validate()
        assert cfg.platform == name
        assert cfg.timing.read_to_write > 0
        assert cfg.timing.write_to_read_diff_rank > 0
        # The host tick ratio is derived from the platform's command
        # clock, never hand-entered.
        assert cfg.host.cycles_per_dram_cycle == pytest.approx(
            cfg.host.cpu_clock_ghz / cfg.org.dram_clock_ghz)

    @pytest.mark.parametrize("name", platform_names())
    def test_scaling_overrides_only_touch_shape(self, name):
        base = platform_config(name)
        scaled = platform_config(name, channels=1, ranks_per_channel=4)
        assert scaled.timing == base.timing
        assert scaled.org.channels == 1
        assert scaled.org.ranks_per_channel == 4
        assert scaled.org.dram_clock_ghz == base.org.dram_clock_ghz

    def test_burst_length_drives_tbl_and_cadence(self):
        assert get_platform("ddr5-4800").timing_config().tBL == 8   # BL16
        assert get_platform("hbm2").timing_config().tBL == 2        # BL4

    @pytest.mark.parametrize("name", platform_names())
    def test_one_column_command_moves_one_cache_line(self, name):
        # The simulator models one cache line per column command, so every
        # preset's interface width x burst length must equal the cache line
        # — otherwise the advertised peak bandwidth is unreachable by
        # construction (this caught ddr5-4800's original 64-bit geometry).
        spec = get_platform(name)
        assert spec.chips_per_rank * spec.burst_transfers == \
            spec.cacheline_bytes

    @pytest.mark.parametrize("name", platform_names())
    def test_peak_bandwidth_is_cadence_achievable(self, name):
        cfg = platform_config(name)
        cadence = max(cfg.timing.tCCDS, cfg.timing.tBL)
        per_channel = (cfg.org.cacheline_bytes
                       * cfg.org.dram_clock_ghz / cadence)
        assert cfg.org.peak_channel_bandwidth_gbs == pytest.approx(
            per_channel)

    def test_rescaled_retimes_analog_parameters(self):
        slow = get_platform("ddr4-2400")
        fast = dataclasses.replace(slow, data_rate_mtps=3200)
        assert fast.dram_clock_ghz == pytest.approx(1.6)
        # Same nanoseconds, more cycles.
        assert fast.timing_config().tRCD > slow.timing_config().tRCD

    def test_unknown_platform_names_the_valid_ones(self):
        with pytest.raises(KeyError, match="ddr4-2400"):
            get_platform("ddr3-1600")


class TestTurnaroundValidation:
    """Derived turnaround spacings: reject at validate, clamp in properties."""

    def test_validate_rejects_non_positive_read_to_write(self):
        bad = dataclasses.replace(DramTimingConfig(), tCWL=30)
        with pytest.raises(ValueError, match=r"read_to_write.*tCL \+ tBL"):
            bad.validate()

    def test_validate_rejects_non_positive_write_to_read_diff_rank(self):
        # An LPDDR-like read/write latency gap with a DDR4-sized tRTRS.
        bad = dataclasses.replace(DramTimingConfig(), tCL=28, tCWL=14,
                                  tRCD=28, tRP=28, tRAS=50, tRC=80)
        with pytest.raises(ValueError, match="write_to_read_diff_rank"):
            bad.validate()
        # A preset's derived configuration is validated the same way.
        spec = dataclasses.replace(get_platform("lpddr4-3200"), tRTRS_ck=1)
        with pytest.raises(ValueError, match="write_to_read_diff_rank"):
            spec.system_config()

    def test_properties_clamp_unvalidated_configs_at_zero(self):
        unvalidated = dataclasses.replace(DramTimingConfig(), tCL=40)
        assert unvalidated.tCWL + unvalidated.tBL + unvalidated.tRTRS - 40 < 0
        assert unvalidated.write_to_read_diff_rank == 0
        unvalidated = dataclasses.replace(DramTimingConfig(), tCWL=40)
        assert unvalidated.read_to_write == 0

    def test_host_clock_divergence_is_rejected(self):
        cfg = default_config()
        cfg.host = dataclasses.replace(cfg.host, dram_clock_ghz=0.8)
        with pytest.raises(ValueError, match="dram_clock_ghz"):
            cfg.validate()

    def test_system_config_resyncs_host_clock_on_construction(self):
        lp = get_platform("lpddr4-3200")
        cfg = SystemConfig(org=lp.org_config(), timing=lp.timing_config())
        # The default HostConfig carries the DDR4 clock; construction must
        # re-derive it from the organization.
        assert cfg.host.dram_clock_ghz == lp.dram_clock_ghz
        assert HostConfig().dram_clock_ghz == 1.2  # untouched default


class TestPlatformModels:
    def test_energy_model_uses_platform_column_cadence(self):
        ddr4 = platform_config("ddr4-2400")
        hbm = platform_config("hbm2")
        ddr4_model = EnergyModel(ddr4.org, ddr4.energy, timing=ddr4.timing)
        hbm_model = EnergyModel(hbm.org, hbm.energy, timing=hbm.timing)
        # DDR4's cadence is max(tCCDS=4, tBL=4) = 4; HBM2's is max(2, 2).
        assert ddr4_model._column_cadence == 4
        assert hbm_model._column_cadence == 2
        assert hbm_model.theoretical_max_host_power_w() > 0

    def test_svrg_analytic_model_scales_with_platform_bandwidth(self):
        from repro.apps.svrg import SvrgTimingModel
        base = SvrgTimingModel.analytic(4)
        hbm = SvrgTimingModel.analytic(4, config=platform_config("hbm2"))
        assert base.host_stream_gbs == pytest.approx(2 * 19.2 * 0.66)
        per_rank = platform_config("hbm2").org.peak_rank_internal_bandwidth_gbs
        assert hbm.host_stream_gbs == pytest.approx(8 * per_rank * 0.66)
        assert hbm.nda_stream_gbs > base.nda_stream_gbs


def _run_both_engines(platform, mode, mix, opcode, *, throttle="next_rank",
                      elements=1 << 12, cycles=900, warmup=100):
    results = {}
    for engine in ("cycle", "event"):
        system = ChopimSystem(config=platform_config(platform), mode=mode,
                              mix=mix, throttle=throttle, engine=engine)
        if mode.has_nda_traffic:
            system.set_nda_workload(opcode, elements_per_rank=elements)
        results[engine] = dataclasses.asdict(
            system.run(cycles=cycles, warmup=warmup))
    return results


class TestPlatformEngineEquivalence:
    """cycle == event == burst, bit-exactly, on the non-default presets."""

    @pytest.mark.parametrize("platform", EQUIV_PLATFORMS)
    def test_concurrent_copy(self, platform):
        results = _run_both_engines(platform, AccessMode.BANK_PARTITIONED,
                                    "mix1", NdaOpcode.COPY)
        assert results["cycle"] == results["event"]

    @pytest.mark.parametrize("platform", EQUIV_PLATFORMS)
    def test_nda_only_dot_stream(self, platform):
        results = _run_both_engines(platform, AccessMode.NDA_ONLY, None,
                                    NdaOpcode.DOT, throttle="issue_if_idle",
                                    elements=1 << 13, cycles=1200)
        assert results["cycle"] == results["event"]

    @pytest.mark.parametrize("platform", EQUIV_PLATFORMS)
    def test_shared_axpy_with_stochastic_throttle(self, platform):
        results = _run_both_engines(platform, AccessMode.SHARED, "mix5",
                                    NdaOpcode.AXPY, throttle="stochastic")
        assert results["cycle"] == results["event"]


class TestPlatformExperimentPlumbing:
    def test_build_system_platform_axis(self):
        from repro.experiments.common import build_system
        system = build_system(AccessMode.HOST_ONLY, "mix8",
                              platform="ddr5-4800")
        assert system.config.platform == "ddr5-4800"
        assert system.config.org.bank_groups == 8

    def test_cross_platform_sweep_params_cover_all_presets(self):
        from repro.experiments.fig14_platforms import sweep_params
        params = sweep_params(cycles=100, warmup=10)
        assert {p["platform"] for p in params} == set(platform_names())
        # Every point is constructible (rank partitioning needs >= 2 ranks).
        assert all(p["ranks"] >= 2 or p["mode"] != "rank_partitioned"
                   for p in params)

    def test_cross_platform_point_runs(self):
        from repro.experiments.fig14_platforms import _point
        row = _point(platform="hbm2", channels=2, ranks=2, scheme="chopim",
                     mode=AccessMode.BANK_PARTITIONED.value, workload="dot",
                     mix="mix1", cycles=400, warmup=50,
                     elements_per_rank=1 << 11)
        assert row["platform"] == "hbm2"
        assert row["nda_bandwidth_gbs"] > 0
        assert 0 <= row["nda_bw_of_peak"] <= 1.0


def test_spec_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        get_platform("ddr4-2400").data_rate_mtps = 3200


def test_platform_names_lists_baseline_first():
    names = platform_names()
    assert names[0] == DEFAULT_PLATFORM
    assert len(names) >= 5


def test_platform_spec_equality_and_replace():
    spec = get_platform("ddr4-2400")
    assert dataclasses.replace(spec) == spec
    assert isinstance(spec, PlatformSpec)
