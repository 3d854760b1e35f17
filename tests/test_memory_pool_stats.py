"""Device pools and swap statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, SimulationError
from repro.memory.allocator import DevicePool
from repro.memory.stats import Direction, SwapStats
from repro.tensors.tensor import TensorKind


class TestDevicePool:
    def test_reserve_release(self):
        pool = DevicePool("g", 100)
        pool.reserve(1, 60)
        assert pool.free == 40
        assert pool.release(1) == 60
        assert pool.free == 100

    def test_peak_tracking(self):
        pool = DevicePool("g", 100)
        pool.reserve(1, 70)
        pool.release(1)
        pool.reserve(2, 30)
        assert pool.peak_used == 70

    def test_over_capacity_rejected(self):
        pool = DevicePool("g", 100)
        with pytest.raises(CapacityError):
            pool.reserve(1, 101)

    def test_double_reserve_rejected(self):
        pool = DevicePool("g", 100)
        pool.reserve(1, 10)
        with pytest.raises(SimulationError):
            pool.reserve(1, 10)

    def test_release_unknown_rejected(self):
        pool = DevicePool("g", 100)
        with pytest.raises(SimulationError):
            pool.release(7)

    def test_holds_and_listing(self):
        pool = DevicePool("g", 100)
        pool.reserve(3, 10)
        assert pool.used == 10
        assert pool.resident_tensors() == [3]

    def test_demand_accounting(self):
        pool = DevicePool("g", 100)
        pool.assign_demand(500)  # demand may exceed capacity
        pool.assign_demand(200)
        pool.unassign_demand(100)
        assert pool.demand == 600
        assert pool.peak_demand == 700

    def test_negative_demand_rejected(self):
        pool = DevicePool("g", 100)
        with pytest.raises(SimulationError):
            pool.unassign_demand(1)

    def test_exact_fill_allowed(self):
        pool = DevicePool("g", 100)
        pool.reserve(1, 100)
        assert pool.free == 0


class TestSwapStats:
    def test_record_and_total(self):
        stats = SwapStats()
        stats.record("gpu0", TensorKind.WEIGHT, Direction.SWAP_OUT, 100)
        stats.record("gpu1", TensorKind.WEIGHT, Direction.SWAP_OUT, 50)
        assert stats.swap_out_volume() == 150
        assert stats.swap_out_volume("gpu0") == 100

    def test_kind_filter(self):
        stats = SwapStats()
        stats.record("g", TensorKind.WEIGHT, Direction.SWAP_IN, 10)
        stats.record("g", TensorKind.STASH, Direction.SWAP_IN, 20)
        assert stats.volume(kind=TensorKind.WEIGHT) == 10

    def test_kind_swap_volume_both_directions(self):
        stats = SwapStats()
        stats.record("g", TensorKind.WEIGHT, Direction.SWAP_IN, 10)
        stats.record("g", TensorKind.WEIGHT, Direction.SWAP_OUT, 5)
        stats.record("g", TensorKind.WEIGHT, Direction.P2P_IN, 99)  # not host
        assert stats.kind_swap_volume(TensorKind.WEIGHT) == 15

    def test_host_traffic_excludes_p2p_and_drops(self):
        stats = SwapStats()
        stats.record("g", TensorKind.STASH, Direction.SWAP_IN, 10)
        stats.record("g", TensorKind.STASH, Direction.SWAP_OUT, 20)
        stats.record("g", TensorKind.STASH, Direction.P2P_IN, 40)
        stats.record("g", TensorKind.STASH, Direction.DROP, 80)
        assert stats.host_traffic() == 30

    def test_p2p_counted_once(self):
        stats = SwapStats()
        stats.record("dst", TensorKind.ACTIVATION, Direction.P2P_IN, 10)
        stats.record("src", TensorKind.ACTIVATION, Direction.P2P_OUT, 10)
        assert stats.p2p_volume() == 10

    def test_event_counts(self):
        stats = SwapStats()
        stats.record("g", TensorKind.WEIGHT, Direction.SWAP_IN, 10)
        stats.record("g", TensorKind.WEIGHT, Direction.SWAP_IN, 10)
        assert stats.events(direction=Direction.SWAP_IN) == 2

    def test_devices_sorted(self):
        stats = SwapStats()
        stats.record("b", TensorKind.WEIGHT, Direction.SWAP_IN, 1)
        stats.record("a", TensorKind.WEIGHT, Direction.SWAP_IN, 1)
        assert stats.devices() == ["a", "b"]

    def test_summary_renders(self):
        stats = SwapStats()
        stats.record("g", TensorKind.WEIGHT, Direction.SWAP_IN, 2e9)
        assert "swap_in=2.00" in stats.summary()


_RECORDS = st.lists(
    st.tuples(
        st.sampled_from(["gpu0", "gpu1", "gpu2", "cpu0"]),
        st.sampled_from(list(TensorKind)),
        st.sampled_from(list(Direction)),
        st.floats(min_value=0.0, max_value=1e13, allow_subnormal=True),
        st.booleans(),
    ),
    max_size=60,
)


@given(records=_RECORDS)
@settings(max_examples=200, deadline=None)
def test_totals_are_bitwise_the_filtered_sums(records):
    """The one-pass per-(device, direction) totals equal the filtered
    ``volume`` / ``retried_volume`` sums bit for bit — same values,
    same type, for present and absent pairs alike."""
    stats = SwapStats()
    for device, kind, direction, nbytes, retry in records:
        record = stats.record_retry if retry else stats.record
        record(device, kind, direction, nbytes)
    volumes = stats.volume_totals()
    retried = stats.retried_totals()
    for device in ("gpu0", "gpu1", "gpu2", "cpu0", "absent"):
        for direction in Direction:
            key = (device, direction)
            for totals, filtered in (
                (volumes, stats.volume(device, None, direction)),
                (retried, stats.retried_volume(device, None, direction)),
            ):
                total = totals.get(key, 0)
                assert type(total) is type(filtered)
                assert repr(total) == repr(filtered)
