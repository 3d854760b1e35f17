"""Schedule-shape and registry contracts for the scheduler zoo.

Three families of checks:

* **Schedule shape** — structural assertions on the plans themselves:
  the 1F1B stage order that ``pipedream-1f1b`` and ``dapple`` share
  (PipeDream's 1F1B is DAPPLE's early backward with one pipeline), its
  invariant (a stage never holds more in-flight microbatches than its
  pipeline depth), and — to prove the invariant has teeth — GPipe's
  violation of the same bound.
* **Hybrid layout** — DAPPLE with ``num_pipelines > 1`` carves GPUs
  into contiguous pipeline replicas with per-stage allreduce rings,
  whose shares the plan derives from placement alone; the whole thing
  must run and audit clean.  This is the only place ``dapple`` and
  ``pipedream-1f1b`` differ.
* **Registry contracts** — the unknown-scheme error enumerates every
  registered name, and every scheme plans under its own name.

Plus the per-device activation accounting that the schedule-zoo figure
reads: peaks are present, bounded by total peak residency, and order
the schedules the way the schedules' own theory says they should.
"""

from __future__ import annotations

import pytest

from repro import BatchConfig, HarmonyConfig, HarmonySession
from repro.errors import ConfigError
from repro.memory.policy import MemoryPolicy
from repro.models import zoo
from repro.models.phases import Phase
from repro.schedulers import build_scheduler, scheme_names
from repro.schedulers.dapple import DappleScheduler
from repro.schedulers.pp_baseline import PipelineBaseline
from repro.sim.executor import Executor
from repro.sim.plan import Plan
from repro.tasks.task import TaskKind
from repro.units import GB, MB
from repro.validate import audit_run

from tests.conftest import tight_server

SCHEMES = list(scheme_names())


def uniform_model(num_layers: int = 4):
    return zoo.synthetic_uniform(
        num_layers=num_layers, param_bytes_per_layer=100 * MB,
        activation_bytes=25 * MB,
    )


def compute_phases(plan: Plan, device: str) -> list[Phase]:
    """The device's compute order, updates excluded — the fwd/bwd
    skeleton the schedule-shape assertions inspect."""
    phases = []
    for tid in plan.device_order[device]:
        task = plan.graph.task(tid)
        if task.kind is TaskKind.COMPUTE and task.phase is not Phase.UPDATE:
            phases.append(task.phase)
    return phases


def max_in_flight(plan: Plan, device: str) -> int:
    """Running maximum of (forwards issued - backwards retired) over a
    stage's order — the number of microbatch stashes simultaneously
    alive on that stage."""
    in_flight = peak = 0
    for phase in compute_phases(plan, device):
        if phase is Phase.FORWARD:
            in_flight += 1
            peak = max(peak, in_flight)
        else:
            in_flight -= 1
    return peak


class Test1F1BShape:
    @pytest.mark.parametrize(
        "num_gpus,m", [(2, 2), (2, 4), (2, 6), (3, 4), (4, 8)]
    )
    def test_in_flight_bounded_by_stage_depth(self, num_gpus, m):
        model = uniform_model(num_layers=max(num_gpus, 4))
        topo = tight_server(num_gpus, 4 * GB)
        sched = build_scheduler("pipedream-1f1b", model, topo, BatchConfig(1, m))
        plan = sched.plan()
        plan.validate()
        for s in range(sched.num_stages):
            assert max_in_flight(plan, sched.gpus[s]) <= min(
                sched.num_stages - s, m
            )

    def test_steady_state_strictly_alternates(self):
        # Stage s of S warms up with S - s forwards, then runs
        # backward-first pairs (DAPPLE's early backward) and drains the
        # rest: each microbatch's stash is freed at the earliest
        # dependency-feasible point.
        for scheme in ("pipedream-1f1b", "dapple"):
            for m in (1, 2, 6):
                sched = build_scheduler(
                    scheme, uniform_model(), tight_server(3, 4 * GB),
                    BatchConfig(1, m),
                )
                plan = sched.plan()
                for s in range(sched.num_stages):
                    warmup = min(sched.num_stages - s, m)
                    assert compute_phases(plan, sched.gpus[s]) == (
                        [Phase.FORWARD] * warmup
                        + [Phase.BACKWARD, Phase.FORWARD] * (m - warmup)
                        + [Phase.BACKWARD] * warmup
                    ), (scheme, m, s)

    def test_gpipe_head_stage_violates_the_bound(self):
        # The invariant has teeth: GPipe's full forward wave stacks all
        # m stashes on the head stage, blowing past the 1F1B depth cap.
        m = 4
        gpipe = PipelineBaseline(
            uniform_model(), tight_server(2, 4 * GB), BatchConfig(1, m),
            schedule="gpipe",
        )
        plan = gpipe.plan()
        depth_bound = gpipe.num_stages  # what 1F1B would allow at stage 0
        assert max_in_flight(plan, gpipe.gpus[0]) == m > depth_bound

    def test_more_stages_than_gpus_rejected(self):
        with pytest.raises(ConfigError, match="stages"):
            DappleScheduler(
                uniform_model(), tight_server(2, 4 * GB), BatchConfig(1, 2),
                num_stages=3,
            )


class TestDappleShape:
    def test_early_backward_interleaving(self):
        m = 4
        sched = DappleScheduler(
            uniform_model(), tight_server(2, 4 * GB), BatchConfig(1, m)
        )
        plan = sched.plan()
        plan.validate()
        for s in range(sched.num_stages):
            phases = compute_phases(plan, sched.stage_device(0, s))
            warmup = min(sched.num_stages - s, m)
            assert phases[:warmup] == [Phase.FORWARD] * warmup
            if m > warmup:
                # Early backward: the first backward retires before the
                # last forward is injected (backward-first pairs).
                first_bwd = phases.index(Phase.BACKWARD)
                last_fwd = (
                    len(phases) - 1 - phases[::-1].index(Phase.FORWARD)
                )
                assert first_bwd < last_fwd
                steady = phases[warmup:warmup + 2 * (m - warmup)]
                assert steady == (
                    [Phase.BACKWARD, Phase.FORWARD] * (m - warmup)
                )

    def test_in_flight_bounded_by_warmup_depth(self):
        m = 6
        sched = DappleScheduler(
            uniform_model(), tight_server(2, 4 * GB), BatchConfig(1, m)
        )
        plan = sched.plan()
        for s in range(sched.num_stages):
            assert max_in_flight(plan, sched.stage_device(0, s)) <= min(
                sched.num_stages - s, m
            )


class TestDappleHybrid:
    def build(self, m: int = 2):
        model = uniform_model()
        topo = tight_server(4, 4 * GB)
        sched = DappleScheduler(model, topo, BatchConfig(1, m), num_pipelines=2)
        return model, topo, sched

    def test_layout_carves_contiguous_pipelines(self):
        _, _, sched = self.build()
        assert sched.num_stages == 2
        assert [
            sched.stage_device(r, s) for r in (0, 1) for s in (0, 1)
        ] == ["gpu0", "gpu1", "gpu2", "gpu3"]

    def test_stage_allreduce_spans_pipelines(self):
        _, _, sched = self.build()
        plan = sched.plan()
        plan.validate()
        rings = [t for t in plan.graph if t.kind is TaskKind.ALLREDUCE]
        assert rings, "hybrid layout must synchronize gradients"
        for ring in rings:
            # The participants are the share owners: one device per
            # pipeline, same stage offset in both.
            shares = plan.shares[ring.tid]
            assert len(shares) == sched.num_pipelines
            indices = sorted(sched.gpus.index(d) for d in shares)
            assert indices[1] - indices[0] == sched.num_stages
            # Each stage device contributes its own pipeline's gradient
            # shard: the plan's shares follow placement.
            assert all(share.touched for share in shares.values())

    def test_hybrid_runs_and_audits_clean(self):
        model, topo, sched = self.build(m=2)
        plan = sched.plan()
        result = Executor(topo, plan).run()
        assert result.samples == 2 * sched.num_pipelines
        report = audit_run(result, topo, plan)
        assert report.passed, report.render()

    def test_rejects_oversubscribed_layouts(self):
        model = uniform_model()
        topo = tight_server(2, 4 * GB)
        with pytest.raises(ConfigError, match="GPUs"):
            DappleScheduler(
                model, topo, BatchConfig(1, 2), num_stages=2, num_pipelines=2
            )
        with pytest.raises(ConfigError, match="no room"):
            DappleScheduler(model, topo, BatchConfig(1, 2), num_pipelines=3)
        with pytest.raises(ConfigError, match="num_pipelines"):
            DappleScheduler(model, topo, BatchConfig(1, 2), num_pipelines=0)


class TestRegistryContracts:
    def test_unknown_scheme_error_lists_every_registered_name(self):
        with pytest.raises(ConfigError) as err:
            build_scheduler(
                "warp-speed", uniform_model(), tight_server(2, 4 * GB),
                BatchConfig(1, 2),
            )
        message = str(err.value)
        for name in scheme_names():
            assert name in message

    def test_every_scheme_constructs_and_plans(self):
        # Schemes that share a class still plan under their own names.
        model = uniform_model()
        topo = tight_server(2, 4 * GB)
        for scheme in scheme_names():
            plan = build_scheduler(scheme, model, topo, BatchConfig(1, 2)).plan()
            plan.validate()
            assert plan.label == scheme


class TestActivationAccounting:
    def run(self, scheme: str):
        return HarmonySession(
            uniform_model(), tight_server(2, 550 * MB),
            HarmonyConfig(scheme, batch=BatchConfig(1, 2)),
        ).run()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_peaks_present_positive_and_bounded(self, scheme):
        result = self.run(scheme)
        peaks = result.activation_peaks()
        assert set(peaks) == set(result.devices)
        assert any(v > 0 for v in peaks.values())
        for name, peak in peaks.items():
            assert 0.0 <= peak <= result.devices[name].peak_used + 1e-9
            assert result.devices[name].peak_activation == peak

    @pytest.mark.parametrize(
        "scheme", ["pp-baseline", "pipedream-1f1b", "dapple", "harmony-pp"]
    )
    def test_pipeline_head_stage_is_the_activation_bottleneck(self, scheme):
        # Fig. 2(c): the head stage holds stashes for every in-flight
        # microbatch while the tail holds one.
        peaks = self.run(scheme).activation_peaks()
        assert peaks["gpu0"] >= peaks["gpu1"] > 0

    def test_1f1b_caps_what_gpipe_stacks(self):
        # Under a keep-resident policy on a roomy box the accounting
        # exposes the schedules' defining difference: GPipe's head
        # stage piles up all m stashes, 1F1B holds at most
        # pipeline-depth of them.
        model = uniform_model()
        roomy = tight_server(2, 4 * GB)
        batch = BatchConfig(1, 4)
        gpipe = PipelineBaseline(
            model, roomy, batch, schedule="gpipe", policy=MemoryPolicy()
        )
        f1b = DappleScheduler(model, roomy, batch, policy=MemoryPolicy())
        gpipe_peaks = Executor(roomy, gpipe.plan()).run().activation_peaks()
        f1b_peaks = Executor(roomy, f1b.plan()).run().activation_peaks()
        assert f1b_peaks["gpu0"] < gpipe_peaks["gpu0"]
        assert f1b_peaks["gpu1"] <= gpipe_peaks["gpu1"]
