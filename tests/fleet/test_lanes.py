"""Int planes: lane extraction, the lane mask, select, lane counters."""

import random

import pytest

from repro.fleet import LaneCounter, select


class TestBackends:
    """The plane representation: bit ``i`` of a Python int is lane ``i``."""

    @pytest.mark.parametrize("n", [1, 7, 64, 65, 200])
    def test_int_round_trip(self, n):
        """One count per set lane reads back lane by lane and in total."""
        rng = random.Random(n)
        value = rng.getrandbits(n)
        counter = LaneCounter(n)
        counter.add(value)
        assert counter.total() == bin(value).count("1")
        assert counter.lanes() == [(value >> lane) & 1 for lane in range(n)]
        for lane in (0, n - 1, n // 2):
            assert counter.lane(lane) == (value >> lane) & 1

    @pytest.mark.parametrize("n", [3, 64, 130])
    def test_ones_is_all_lanes(self, n):
        """Complement is ``p ^ mask``: non-negative, no bits past lane n-1."""
        mask = (1 << n) - 1
        plane = random.Random(n).getrandbits(n)
        assert plane ^ mask == mask - plane
        assert (plane ^ mask) >> n == 0
        assert (0 ^ mask) == mask and (mask ^ mask) == 0
        assert select(mask, plane, 0) == plane
        assert select(0, plane, mask) == mask


class TestSelect:
    def test_select_muxes_per_lane(self):
        got = select(0b10101010, 0b11110000, 0b00111100)
        assert got == 0b10110100


class TestLaneCounter:
    def test_counts_per_lane_and_total(self):
        counter = LaneCounter(6)
        counter.add(0b111111)
        counter.add(0b101010)
        counter.add(0b100010)
        counter.add(0)
        assert [counter.lane(i) for i in range(6)] == [1, 3, 1, 2, 1, 3]
        assert counter.lanes() == [1, 3, 1, 2, 1, 3]
        assert counter.total() == 11
        # The raw planes are the digest material, LSB first.
        assert len(counter.planes) == 2
