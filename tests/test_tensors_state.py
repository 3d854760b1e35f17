"""Tensor lifetime state machine."""

import pytest

from repro.errors import TensorStateError
from repro.tensors.state import TensorRuntime, TensorState
from repro.tensors.tensor import TensorKind, TensorMeta


@pytest.fixture
def rt():
    return TensorRuntime(TensorMeta(0, TensorKind.WEIGHT, 0, None, 0, 100))


class TestHappyPaths:
    def test_host_to_device_roundtrip(self, rt):
        rt.materialize_on_host()
        rt.begin_swap_in("gpu0")
        assert rt.state is TensorState.SWAPPING_IN
        rt.finish_swap_in()
        assert rt.resident_on == "gpu0"
        rt.begin_swap_out()
        rt.finish_swap_out()
        assert rt.state is TensorState.ON_HOST
        assert rt.device is None

    def test_materialize_on_device_is_dirty(self, rt):
        rt.materialize_on_device("gpu1")
        assert rt.dirty
        assert rt.resident_on == "gpu1"

    def test_swap_in_clears_nothing_dirty_flag_separate(self, rt):
        rt.materialize_on_host()
        rt.begin_swap_in("gpu0")
        rt.finish_swap_in()
        assert not rt.dirty

    def test_p2p_move(self, rt):
        rt.materialize_on_device("gpu0")
        rt.begin_move("gpu1")
        assert rt.in_flight
        rt.finish_swap_in()
        assert rt.resident_on == "gpu1"
        assert rt.dirty  # moving does not create a host copy

    def test_clean_drop(self, rt):
        rt.materialize_on_host()
        rt.begin_swap_in("gpu0")
        rt.finish_swap_in()
        rt.drop()
        assert rt.state is TensorState.ON_HOST

    def test_free_from_device(self, rt):
        rt.materialize_on_device("gpu0")
        rt.free()
        assert rt.state is TensorState.FREED

    def test_mark_written_sets_dirty(self, rt):
        rt.materialize_on_host()
        rt.begin_swap_in("gpu0")
        rt.finish_swap_in()
        rt.mark_written()
        assert rt.dirty


class TestIllegalTransitions:
    def test_double_materialize(self, rt):
        rt.materialize_on_host()
        with pytest.raises(TensorStateError):
            rt.materialize_on_host()

    def test_swap_in_from_unmaterialized(self, rt):
        with pytest.raises(TensorStateError):
            rt.begin_swap_in("gpu0")

    def test_drop_dirty_rejected(self, rt):
        rt.materialize_on_device("gpu0")
        with pytest.raises(TensorStateError):
            rt.drop()

    def test_drop_pinned_rejected(self, rt):
        rt.materialize_on_host()
        rt.begin_swap_in("g")
        rt.finish_swap_in()
        rt.pinned = 1
        with pytest.raises(TensorStateError):
            rt.drop()

    def test_evict_pinned_rejected(self, rt):
        rt.materialize_on_device("gpu0")
        rt.pinned = 1
        with pytest.raises(TensorStateError):
            rt.begin_swap_out()

    def test_forced_evict_bypasses_pin(self, rt):
        rt.materialize_on_device("gpu0")
        rt.pinned = 1
        rt.begin_swap_out(force=True)
        assert rt.state is TensorState.SWAPPING_OUT

    def test_free_pinned_rejected(self, rt):
        rt.materialize_on_device("gpu0")
        rt.pinned = 1
        with pytest.raises(TensorStateError):
            rt.free()

    def test_write_requires_residency(self, rt):
        rt.materialize_on_host()
        with pytest.raises(TensorStateError):
            rt.mark_written()

    def test_freed_is_terminal(self, rt):
        rt.materialize_on_device("gpu0")
        rt.free()
        with pytest.raises(TensorStateError):
            rt.materialize_on_host()

    def test_p2p_requires_residency(self, rt):
        rt.materialize_on_host()
        with pytest.raises(TensorStateError):
            rt.begin_move("gpu1")

    def test_swap_out_requires_residency(self, rt):
        rt.materialize_on_host()
        with pytest.raises(TensorStateError):
            rt.begin_swap_out()
