"""Tests for the Table II configuration objects."""

import dataclasses

import pytest

from repro.config import (
    DramOrgConfig,
    DramTimingConfig,
    EnergyConfig,
    HostConfig,
    NdaConfig,
    SystemConfig,
    default_config,
    scaled_config,
)


class TestDramTimingConfig:
    def test_table_ii_values(self):
        t = DramTimingConfig()
        assert t.tBL == 4
        assert t.tCCDS == 4
        assert t.tCCDL == 6
        assert t.tRTRS == 2
        assert t.tCL == 16
        assert t.tRCD == 16
        assert t.tRP == 16
        assert t.tCWL == 12
        assert t.tRAS == 39
        assert t.tRC == 55
        assert t.tRTP == 9
        assert t.tWTRS == 3
        assert t.tWTRL == 9
        assert t.tWR == 18
        assert t.tRRDS == 4
        assert t.tRRDL == 6
        assert t.tFAW == 26

    def test_derived_write_to_read_turnaround(self):
        t = DramTimingConfig()
        assert t.write_to_read_same_rank_same_bg == t.tCWL + t.tBL + t.tWTRL
        assert t.write_to_read_same_rank_diff_bg == t.tCWL + t.tBL + t.tWTRS
        # The write-to-read penalty is larger than the read-to-write penalty
        # (the asymmetry motivating NDA write throttling in Section III-B).
        assert t.write_to_read_same_rank_same_bg > t.read_to_write

    def test_validate_accepts_defaults(self):
        DramTimingConfig().validate()

    def test_validate_rejects_negative(self):
        with pytest.raises(ValueError):
            dataclasses.replace(DramTimingConfig(), tCL=0).validate()

    def test_validate_rejects_inconsistent_trc(self):
        with pytest.raises(ValueError):
            dataclasses.replace(DramTimingConfig(), tRC=10).validate()

    def test_validate_rejects_ccd_ordering(self):
        with pytest.raises(ValueError):
            dataclasses.replace(DramTimingConfig(), tCCDL=2).validate()


class TestDramOrgConfig:
    def test_default_geometry(self):
        org = DramOrgConfig()
        assert org.channels == 2
        assert org.ranks_per_channel == 2
        assert org.banks_per_rank == 16
        assert org.row_bytes == 8 * 1024
        assert org.cachelines_per_row == 128
        assert org.total_ranks == 4

    def test_capacity_is_product_of_geometry(self):
        org = DramOrgConfig()
        expected = (org.channels * org.ranks_per_channel * org.banks_per_rank
                    * org.rows_per_bank * org.row_bytes)
        assert org.total_bytes == expected

    def test_system_row_is_2mib_for_default_geometry(self):
        org = DramOrgConfig()
        # One row from every bank in the system: 8 KiB * 16 banks * 4 ranks.
        assert org.system_row_bytes == 8 * 1024 * 16 * 4

    def test_peak_bandwidths(self):
        org = DramOrgConfig()
        assert org.peak_channel_bandwidth_gbs == pytest.approx(19.2)
        assert org.peak_host_bandwidth_gbs == pytest.approx(38.4)

    def test_validate_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            dataclasses.replace(DramOrgConfig(), rows_per_bank=100).validate()

    def test_validate_rejects_zero_channels(self):
        with pytest.raises(ValueError):
            dataclasses.replace(DramOrgConfig(), channels=0).validate()


class TestHostAndNdaConfig:
    def test_host_defaults_match_table_ii(self):
        host = HostConfig()
        assert host.cpu_clock_ghz == 4.0
        assert host.rob_entries == 224
        assert host.fetch_width == 8

    def test_clock_ratio(self):
        assert HostConfig().cycles_per_dram_cycle == pytest.approx(4.0 / 1.2)

    def test_clock_ratio_derives_from_dram_clock(self):
        faster = dataclasses.replace(HostConfig(), dram_clock_ghz=2.4)
        assert faster.cycles_per_dram_cycle == pytest.approx(4.0 / 2.4)

    def test_system_config_syncs_host_clock_to_organization(self):
        org = dataclasses.replace(DramOrgConfig(), dram_clock_ghz=1.6)
        cfg = SystemConfig(org=org)
        assert cfg.host.dram_clock_ghz == 1.6
        assert cfg.host.cycles_per_dram_cycle == pytest.approx(4.0 / 1.6)

    def test_nda_defaults_match_table_ii(self):
        nda = NdaConfig()
        assert nda.write_buffer_entries == 128

    def test_energy_defaults_match_table_ii(self):
        e = EnergyConfig()
        assert e.activate_nj == 1.0
        assert e.pe_access_pj_per_bit == 11.3
        assert e.host_access_pj_per_bit == 25.7
        assert e.pe_fma_pj_per_op == 20.0
        assert e.pe_buffer_leakage_mw == 11.0

    def test_energy_per_cacheline(self):
        e = EnergyConfig()
        assert e.host_access_nj(64) == pytest.approx(25.7 * 64 * 8 / 1000.0)
        assert e.pe_access_nj(64) < e.host_access_nj(64)


class TestSystemConfig:
    def test_default_config_validates(self):
        default_config().validate()

    def test_with_ranks_returns_new_config(self):
        cfg = default_config()
        scaled = cfg.with_ranks(2, 8)
        assert scaled.org.ranks_per_channel == 8
        assert cfg.org.ranks_per_channel == 2  # original untouched

    def test_scaled_config(self):
        cfg = scaled_config(2, 4)
        assert cfg.org.ranks_per_channel == 4

    def test_core_count_is_not_a_config_field(self):
        # The host model takes its core count from the benchmark mix.
        assert "cores" not in {f.name for f in dataclasses.fields(HostConfig)}
        with pytest.raises(TypeError):
            scaled_config(2, 4, cores=8)

    def test_invalid_shared_banks_rejected(self):
        cfg = default_config()
        cfg.shared_banks_per_rank = 99
        with pytest.raises(ValueError):
            cfg.validate()

    def test_shared_banks_must_leave_a_host_bank(self):
        # Bank partitioning needs at least one bank for host traffic, so
        # validation rejects the value BankPartitionMapping would reject.
        cfg = default_config()
        for bad in (0, cfg.org.banks_per_rank):
            with pytest.raises(ValueError):
                dataclasses.replace(cfg, shared_banks_per_rank=bad).validate()
        dataclasses.replace(
            cfg, shared_banks_per_rank=cfg.org.banks_per_rank - 1).validate()
