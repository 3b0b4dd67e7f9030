"""Unit tests for the engine's wake calendar."""

import random

import pytest

from repro.engine.queue import INFINITY, IndexedCalendar


class TestIndexedCalendar:
    """The calendar must agree with a naive oracle."""

    def test_initially_unscheduled(self):
        cal = IndexedCalendar(4)
        assert cal.min_cycle() == INFINITY
        assert cal.values == [INFINITY] * 4

    def test_set_and_min(self):
        cal = IndexedCalendar(3)
        cal.set(0, 50)
        cal.set(1, 20)
        cal.set(2, 90)
        assert cal.min_cycle() == 20
        cal.set(1, 200)  # increase past the others
        assert cal.min_cycle() == 50
        cal.set(2, 5)    # decrease below everything
        assert cal.min_cycle() == 5

    def test_unschedule_via_infinity(self):
        cal = IndexedCalendar(2)
        cal.set(0, 7)
        cal.set(0, INFINITY)
        assert cal.min_cycle() == INFINITY

    @pytest.mark.parametrize("slots", [8, 100])
    def test_randomized_against_oracle(self, slots):
        rng = random.Random(42 + slots)
        cal = IndexedCalendar(slots)
        oracle = [INFINITY] * slots
        for _ in range(2000):
            slot = rng.randrange(slots)
            cycle = rng.choice([rng.randrange(1 << 20), INFINITY])
            cal.set(slot, cycle)
            oracle[slot] = cycle
            assert cal.min_cycle() == min(oracle)
            assert cal.values[slot] == oracle[slot]
