"""Tests for the host model: profiles, traffic, caches, prefetcher, cores, mixes."""

import pytest

from repro.config import HostConfig
from repro.host.core import CoreModel
from repro.host.mixes import mix_names, mix_profiles
from repro.host.profiles import SPEC_PROFILES, make_synthetic_profile, profile_by_name
from repro.host.traffic import AddressStreamGenerator
from repro.utils.rng import DeterministicRng


class TestProfiles:
    def test_all_table_ii_benchmarks_present(self):
        for name in ("mcf_r", "lbm_r", "omnetpp_r", "gemsFDTD", "soplex", "milc",
                     "bwaves_r", "leslie3d", "astar", "cactusBSSN_r", "leela_r",
                     "deepsjeng_r", "xchange2_r"):
            assert name in SPEC_PROFILES

    def test_intensity_classes_ordered(self):
        assert all(SPEC_PROFILES[n].mpki >= 15 for n in SPEC_PROFILES
                   if SPEC_PROFILES[n].intensity == "H")
        assert all(SPEC_PROFILES[n].mpki < 3 for n in SPEC_PROFILES
                   if SPEC_PROFILES[n].intensity == "L")

    def test_profile_lookup_with_suffix(self):
        assert profile_by_name("mcf").name == "mcf_r"
        assert profile_by_name("mcf_r").name == "mcf_r"
        with pytest.raises(KeyError):
            profile_by_name("not_a_benchmark")

    def test_instructions_per_miss(self):
        p = make_synthetic_profile("x", mpki=10)
        assert p.instructions_per_miss() == 100.0
        zero = make_synthetic_profile("z", mpki=0)
        assert zero.instructions_per_miss() == float("inf")

    def test_synthetic_profile_validation(self):
        with pytest.raises(ValueError):
            make_synthetic_profile("bad", mpki=-1)
        with pytest.raises(ValueError):
            make_synthetic_profile("bad", mpki=1, read_fraction=2.0)


class TestMixes:
    def test_nine_mixes(self):
        assert mix_names() == [f"mix{i}" for i in range(9)]

    def test_mix0_has_eight_benchmarks_others_four(self):
        assert len(mix_profiles("mix0")) == 8
        for mix in mix_names()[1:]:
            assert len(mix_profiles(mix)) == 4

    def test_mix_intensity_ordering(self):
        """mix1 is the most and mix8 the least memory-intensive 4-core mix."""
        intensities = [sum(p.mpki for p in mix_profiles(m))
                       for m in mix_names()[1:]]
        assert intensities[0] == max(intensities)
        assert intensities[-1] == min(intensities)

    def test_unknown_mix_raises(self):
        with pytest.raises(KeyError):
            mix_profiles("mix99")


class TestTraffic:
    def make(self, sequential=0.5, read_fraction=0.7):
        profile = make_synthetic_profile("t", mpki=20, read_fraction=read_fraction,
                                         sequential_fraction=sequential,
                                         footprint_bytes=1 << 20)
        rng = DeterministicRng(1, "traffic-test")
        return AddressStreamGenerator(profile, region_base=1 << 24,
                                      region_bytes=1 << 22, rng=rng)

    def test_addresses_stay_in_region(self):
        gen = self.make()
        for _ in range(500):
            phys, _ = gen.next_access()
            assert (1 << 24) <= phys < (1 << 24) + (1 << 22)

    def test_addresses_cacheline_aligned(self):
        gen = self.make()
        for _ in range(100):
            phys, _ = gen.next_access()
            assert phys % 64 == 0

    def test_write_fraction_roughly_respected(self):
        gen = self.make(read_fraction=0.6)
        accesses = [gen.next_access()[1] for _ in range(4000)]
        write_ratio = sum(accesses) / len(accesses)
        assert abs(write_ratio - 0.4) < 0.08

    def test_sequential_stream_produces_consecutive_lines(self):
        gen = self.make(sequential=1.0, read_fraction=1.0)
        a = gen.next_read_address()
        b = gen.next_read_address()
        assert b == a + 64

    def test_region_too_small_rejected(self):
        profile = make_synthetic_profile("t", mpki=1)
        with pytest.raises(ValueError):
            AddressStreamGenerator(profile, 0, 32, DeterministicRng(1, "x"))


class TestCoreModel:
    def make_core(self, mpki=20.0, mlp=8):
        profile = make_synthetic_profile("c", mpki=mpki, mlp=mlp,
                                         footprint_bytes=1 << 20)
        rng = DeterministicRng(3, "core-test")
        traffic = AddressStreamGenerator(profile, 0, 1 << 22, rng.spawn("t"))
        return CoreModel(0, profile, traffic, HostConfig(), rng)

    def test_ipc_bounded_by_issue_width(self):
        core = self.make_core(mpki=0.0)
        core.tick_dram(300)
        assert 0 < core.ipc <= HostConfig().fetch_width

    def test_memory_free_core_hits_base_cpi(self):
        core = self.make_core(mpki=0.0)
        core.tick_dram(300)
        assert core.ipc == pytest.approx(1.0 / core.profile.base_cpi, rel=0.05)

    def test_generates_requests_at_mpki_rate(self):
        core = self.make_core(mpki=20.0)
        requests = []
        for _ in range(200):
            requests.extend(core.tick_dram(3))  # 10 CPU cycles
            # Complete misses immediately so the core never stalls.
            for phys, is_write in requests[-5:]:
                if not is_write:
                    core.notify_completion(phys)
        instructions = core.ipc * 2000
        observed_mpki = 1000.0 * len(requests) / instructions
        assert 10.0 < observed_mpki < 35.0

    def test_core_stalls_without_completions(self):
        core = self.make_core(mpki=50.0, mlp=2)
        for _ in range(600):
            core.tick_dram(1)
        assert len(core._outstanding) <= 2
        low_ipc = core.ipc
        # Completing requests unblocks retirement.
        core2 = self.make_core(mpki=50.0, mlp=2)
        for _ in range(600):
            for phys, is_write in core2.tick_dram(1):
                if not is_write:
                    core2.notify_completion(phys)
        assert core2.ipc > low_ipc
