"""Tests for the utility layer: RNG and histograms."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.histogram import BucketHistogram, IDLE_BUCKETS
from repro.utils.rng import DeterministicRng


class TestDeterministicRng:
    def test_same_seed_same_stream_reproduces(self):
        a = DeterministicRng(42, "traffic")
        b = DeterministicRng(42, "traffic")
        assert ([a.randrange(1 << 30) for _ in range(20)]
                == [b.randrange(1 << 30) for _ in range(20)])

    def test_different_streams_differ(self):
        a = DeterministicRng(42, "traffic")
        b = DeterministicRng(42, "other")
        assert ([a.randrange(1 << 30) for _ in range(10)]
                != [b.randrange(1 << 30) for _ in range(10)])

    def test_different_seeds_differ(self):
        a = DeterministicRng(1, "s")
        b = DeterministicRng(2, "s")
        assert [a.randrange(101) for _ in range(10)] != [b.randrange(101) for _ in range(10)]

    def test_spawn_is_deterministic(self):
        a = DeterministicRng(7, "sys").spawn("core0")
        b = DeterministicRng(7, "sys").spawn("core0")
        assert a.randrange(1 << 30) == b.randrange(1 << 30)

    def test_coin_extremes(self):
        rng = DeterministicRng(1, "coin")
        assert not rng.coin(0.0)
        assert rng.coin(1.0)

    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_coin_probability_roughly_respected(self, p):
        rng = DeterministicRng(3, f"coin{p}")
        hits = sum(rng.coin(p) for _ in range(2000))
        assert abs(hits / 2000 - p) < 0.12

    def test_randrange_bounds(self):
        rng = DeterministicRng(5, "rr")
        for _ in range(100):
            assert 0 <= rng.randrange(7) < 7


class TestBucketHistogram:
    def test_bucket_index_boundaries(self):
        h = BucketHistogram()
        assert h.bucket_index(1) == 0
        assert h.bucket_index(9) == 0
        assert h.bucket_index(10) == 1
        assert h.bucket_index(249) == 2
        assert h.bucket_index(250) == 3
        assert h.bucket_index(10_000) == len(IDLE_BUCKETS)

    def test_add_uses_value_as_weight_by_default(self):
        h = BucketHistogram()
        h.add(300)
        assert h.weights[h.bucket_index(300)] == 300
        assert h.counts == [0, 0, 0, 1, 0, 0]

    def test_fractions_sum_to_one_with_extra_total(self):
        h = BucketHistogram()
        h.add(5)
        h.add(500)
        fractions = h.fractions(extra_total=495)
        assert sum(fractions.values()) == pytest.approx((5 + 500) / 1000)

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            BucketHistogram(bounds=(1, 2), labels=("only", "two"))

    @given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=50))
    def test_total_weight_equals_sum_of_values(self, values):
        h = BucketHistogram()
        for v in values:
            h.add(v)
        assert h.total_weight == sum(values)

