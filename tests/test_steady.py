"""Steady-state fast-forward (:mod:`repro.steady`).

The contract under test is *exact equivalence*: for every scheduler and
iteration count, a fast-forwarded run must report bit-for-bit the same
makespan, swap ledgers, per-link busy seconds, event counts, and
(expanded) trace as the full simulation — ``==`` on floats throughout,
never ``approx``.  Fault injection must veto the fast path wholesale.
"""

from __future__ import annotations

import pytest

from repro.core.config import HarmonyConfig
from repro.core.session import HarmonySession
from repro.errors import ConfigError, SimulationError, SteadyStateError
from repro.faults import DeviceLoss, FaultInjector, FaultPlan
from repro.models import zoo
from repro.schedulers import scheme_names
from repro.schedulers.base import BatchConfig
from repro.sim.engine import Engine, ResourceTimeline
from repro.sim.executor import ExecOptions
from repro.sim.trace import PeriodicSegment, Trace, TraceEvent
from repro.steady import SteadyMode, fold_repeat, resolve_mode
from repro.units import MB

from tests.conftest import tight_server

# The full scheduler registry: every registered scheme must satisfy the
# exact-equivalence contract, new registrations included.
SCHEMES = list(scheme_names())


@pytest.fixture(scope="module")
def model():
    return zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )


@pytest.fixture(scope="module")
def server():
    return tight_server(2, 550 * MB)


def run(model, server, scheme, iterations, mode):
    session = HarmonySession(
        model, server,
        HarmonyConfig(
            scheme, batch=BatchConfig(1, 2),
            iterations=iterations, steady_state=mode,
        ),
    )
    return session.run()


class TestFoldRepeat:
    def naive(self, value, increments, n):
        for _ in range(n):
            for inc in increments:
                value += inc
        return value

    def test_integer_path_exact(self):
        incs = (100.0, 25.0, 3.0)
        assert fold_repeat(7.0, incs, 10_000) == self.naive(7.0, incs, 10_000)

    def test_float_path_bitwise_equals_naive(self):
        incs = (0.1, 0.2, 0.30000000000000004)
        for n in (0, 1, 2, 17, 100):
            assert fold_repeat(1.5, incs, n) == self.naive(1.5, incs, n)

    def test_zero_repeats_is_identity(self):
        assert fold_repeat(3.25, (1.0, 2.0), 0) == 3.25

    def test_huge_integer_totals_take_float_path_and_still_match(self):
        incs = (float(2**40), float(2**41))
        assert fold_repeat(0.0, incs, 10_000) == self.naive(0.0, incs, 10_000)


class TestEngineAtTolerance:
    def test_past_event_tolerance_is_relative_at_large_now(self):
        # At now ~ 1e9 one ulp is ~1.2e-7: an event one ulp in the past
        # is a rounding artifact, not a causality bug.  The old absolute
        # 1e-12 guard rejected it.
        engine = Engine()
        engine.now = 1e9
        engine.at(1e9 - 1e-7, lambda: None)

    def test_genuinely_past_event_still_raises_at_large_now(self):
        engine = Engine()
        engine.now = 1e9
        with pytest.raises(SimulationError):
            engine.at(1e9 - 1.0, lambda: None)

    def test_small_now_keeps_tight_guard(self):
        engine = Engine()
        engine.now = 0.5
        with pytest.raises(SimulationError):
            engine.at(0.5 - 1e-9, lambda: None)
        engine.at(0.5 - 1e-13, lambda: None)


class TestAcquireAllEmpty:
    def test_empty_resource_list_raises(self):
        with pytest.raises(SimulationError, match="empty resource list"):
            ResourceTimeline.acquire_all([], 1.0, 2.0)


def assert_equivalent(off, auto):
    """Field-by-field bitwise equality between a full simulation and a
    fast-forwarded one (``==``, never approx)."""
    assert auto.makespan == off.makespan
    assert auto.samples == off.samples
    assert dict(auto.stats._volume) == dict(off.stats._volume)
    assert dict(auto.stats._events) == dict(off.stats._events)
    assert auto.link_busy == off.link_busy
    assert auto.events_processed == off.events_processed
    assert set(auto.devices) == set(off.devices)
    for name in off.devices:
        assert auto.devices[name] == off.devices[name]
    assert auto.trace.expanded().events == off.trace.events


class TestEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("iterations", [2, 3, 17])
    def test_auto_equals_off(self, model, server, scheme, iterations):
        off = run(model, server, scheme, iterations, "off")
        auto = run(model, server, scheme, iterations, "auto")
        assert_equivalent(off, auto)
        assert off.steady.skipped == 0
        if auto.steady.fast_forwarded:
            assert auto.steady.skipped == (
                iterations - auto.steady.live_iterations
            )

    def test_detection_fires_and_skips(self, model, server):
        auto = run(model, server, "harmony-pp", 17, "auto")
        steady = auto.steady
        assert steady.fast_forwarded
        assert steady.detected_at is not None
        assert steady.skipped == 17 - steady.live_iterations > 0
        assert steady.period is not None and steady.period > 0
        assert auto.trace.is_compressed
        assert "fast-forwarded" in steady.describe()

    def test_trace_expansion_matches_event_for_event(self, model, server):
        off = run(model, server, "harmony-pp", 9, "off")
        auto = run(model, server, "harmony-pp", 9, "auto")
        expanded = auto.trace.expanded()
        assert not expanded.is_compressed
        assert expanded.events == off.trace.events
        assert auto.trace.total_events() == len(off.trace.events)
        assert auto.trace.makespan() == off.trace.makespan()

    def test_single_iteration_does_no_steady_work(
        self, model, server, monkeypatch
    ):
        """A one-iteration run takes the same loop but reaches no
        iteration boundary: no fingerprint is taken, nothing is
        skipped, and the trace stays flat."""
        import repro.steady.cycle as cycle

        calls = []
        real = cycle.entry_fingerprint

        def counting(executor):
            calls.append(1)
            return real(executor)

        monkeypatch.setattr(cycle, "entry_fingerprint", counting)
        result = run(model, server, "harmony-pp", 1, "auto")
        assert result.steady.skipped == 0
        assert result.steady.live_iterations == 1
        assert not result.trace.is_compressed
        assert len(calls) == 0


class TestEntryFingerprint:
    """The fingerprint must see every part of the state an iteration
    carries that can steer the next one."""

    def entry_executor(self, model, server):
        from repro.sim.executor import Executor

        plan = HarmonySession(
            model, server, HarmonyConfig("harmony-pp", batch=BatchConfig(1, 2))
        ).plan()
        ex = Executor(server, plan)
        ex.manager.materialize_initial()
        return ex

    @pytest.mark.parametrize("part", ["host_ledger", "pressure", "host_device"])
    def test_perturbation_changes_fingerprint(self, model, server, part):
        from repro.steady.cycle import entry_fingerprint

        ex = self.entry_executor(model, server)
        before = entry_fingerprint(ex)
        manager = ex.manager
        if part == "host_ledger":
            manager._host_used["cpu"] = 1.0
        elif part == "pressure":
            next(iter(manager.pools.values())).pressure = 1.0
        else:
            next(iter(manager.runtimes.values())).host_device = "cpu"
        assert entry_fingerprint(ex) != before


class TestFaultVeto:
    def plan(self, model, server):
        # Lose a GPU mid-run: the resilient runner re-plans onto the
        # survivor, which would shatter any periodicity assumption.
        healthy = run(model, server, "harmony-dp", 1, "off")
        return FaultPlan(
            seed=5, faults=(DeviceLoss("gpu1", at=1.5 * healthy.makespan),)
        )

    def test_faulty_run_identical_under_auto_and_off(self, model, server):
        plan = self.plan(model, server)

        def faulty(mode):
            return HarmonySession(
                model, server,
                HarmonyConfig(
                    "harmony-dp", faults=plan, iterations=3, steady_state=mode
                ),
            ).run()

        off, auto = faulty("off"), faulty("auto")
        assert auto.makespan == off.makespan
        assert auto.samples == off.samples
        assert dict(auto.stats._volume) == dict(off.stats._volume)
        for a_seg, o_seg in zip(auto.faults.segments, off.faults.segments):
            assert a_seg.result.trace.events == o_seg.result.trace.events
        assert auto.steady.vetoes == ("fault-injection",)
        assert not auto.steady.fast_forwarded

    def test_force_with_faults_is_a_config_error(self, model, server):
        session = HarmonySession(
            model, server,
            HarmonyConfig(
                "harmony-dp", faults=self.plan(model, server),
                iterations=3, steady_state="force",
            ),
        )
        with pytest.raises(ConfigError, match="force"):
            session.run()

    def test_injector_needs_a_single_iteration(self):
        # Fault daemons are armed in absolute time: an injected executor
        # simulates one iteration, and run_resilient chains them.
        with pytest.raises(SimulationError, match="one iteration"):
            ExecOptions(injector=FaultInjector(FaultPlan(seed=1)), iterations=2)


class TestForceMode:
    def test_force_succeeds_when_cycle_detected(self, model, server):
        result = run(model, server, "harmony-pp", 17, "force")
        assert result.steady.fast_forwarded

    def test_force_raises_when_too_few_iterations(self, model, server):
        with pytest.raises(SteadyStateError):
            run(model, server, "harmony-pp", 2, "force")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="steady-state"):
            SteadyMode.parse("warp")
        with pytest.raises(ConfigError):
            HarmonyConfig("harmony-pp", steady_state="warp")

    def test_config_normalizes_mode_to_canonical_string(self):
        cfg = HarmonyConfig("harmony-pp", steady_state=SteadyMode.AUTO)
        assert cfg.steady_state == "auto"
        assert resolve_mode(None) in SteadyMode


class TestAuditOnCompressed:
    def test_audit_passes_on_compressed_trace(self, model, server):
        session = HarmonySession(
            model, server,
            HarmonyConfig(
                "harmony-pp", batch=BatchConfig(1, 2),
                iterations=6, steady_state="auto", audit=True,
            ),
        )
        result = session.run()
        assert result.trace.is_compressed
        assert result.audit is not None and result.audit.passed
        # The result the caller holds keeps its compressed trace; the
        # audit expanded a copy.
        assert result.trace.is_compressed
        report = session.audit_report()
        assert report.passed


class TestPeriodicSegment:
    def test_expand_replays_offsets_exactly(self):
        events = (
            TraceEvent("gpu0", 0.25, 1.0, "compute", "fwd", 0.0),
            TraceEvent("gpu0", 1.0, 1.5, "swap", "out", 100.0),
        )
        seg = PeriodicSegment(
            insert_at=0, start_offset=10.0, period=2.0, count=3,
            end_offset=16.0, events=events,
        )
        got = list(seg.expand())
        assert len(got) == seg.expanded_len == 6
        assert got[0].start == 10.25 and got[2].start == 12.25
        assert got[-1].end == 15.5
        assert all(e.device == "gpu0" for e in got)

    def test_trace_splices_segments_in_order(self):
        trace = Trace()
        trace.add("gpu0", 0.0, 1.0, "compute", "warmup")
        trace.add_segment(
            PeriodicSegment(
                insert_at=1, start_offset=1.0, period=1.0, count=2,
                end_offset=3.0,
                events=(TraceEvent("gpu0", 0.0, 1.0, "compute", "steady", 0.0),),
            )
        )
        trace.add("gpu0", 3.0, 4.0, "compute", "final")
        starts = [e.start for e in trace.iter_events()]
        assert starts == [0.0, 1.0, 2.0, 3.0]
        assert trace.total_events() == 4
        assert trace.makespan() == 4.0
        assert trace.busy_seconds("gpu0", "compute") == 4.0
        expanded = trace.expanded()
        assert [e.start for e in expanded.events] == starts

    def test_add_segment_validates(self):
        trace = Trace()
        with pytest.raises(SimulationError):
            trace.add_segment(
                PeriodicSegment(
                    insert_at=5, start_offset=0.0, period=1.0, count=1,
                    end_offset=1.0, events=(),
                )
            )
        with pytest.raises(SimulationError):
            trace.add_segment(
                PeriodicSegment(
                    insert_at=0, start_offset=0.0, period=1.0, count=0,
                    end_offset=0.0, events=(),
                )
            )
