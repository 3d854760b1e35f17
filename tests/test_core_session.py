"""HarmonySession and the public API surface."""

import pytest

from repro import (
    BatchConfig,
    HarmonyConfig,
    HarmonyOptions,
    HarmonySession,
    compare_runs,
)
from repro.errors import ConfigError
from repro.models import zoo
from repro.perf.fingerprint import base_fingerprint, fingerprint
from repro.schedulers import scheme_names
from repro.units import MB

from tests.conftest import tight_server


@pytest.fixture
def model():
    return zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )


@pytest.fixture
def topo():
    return tight_server(2, capacity=550 * MB)


class TestSchemeName:
    def test_default_is_the_named_scheme(self, model, topo):
        # One spec, one key: the default scheme and its name are the
        # same config, so they share run-cache and prefix-checkpoint
        # entries.
        default, named = HarmonyConfig(), HarmonyConfig("harmony-pp")
        assert default == named
        assert fingerprint(model, topo, default) == fingerprint(
            model, topo, named
        )
        assert base_fingerprint(model, topo, default) == base_fingerprint(
            model, topo, named
        )

    def test_unknown_scheme_lists_every_name(self):
        with pytest.raises(ConfigError) as err:
            HarmonyConfig("tensor-parallel")
        for name in scheme_names():
            assert name in str(err.value)


class TestSession:
    @pytest.mark.parametrize(
        "mode",
        ["single", "dp-baseline", "pp-baseline", "harmony-dp", "harmony-pp",
         "harmony-tp"],
    )
    def test_every_mode_runs(self, model, topo, mode):
        session = HarmonySession(
            model, topo, HarmonyConfig(mode, batch=BatchConfig(1, 2))
        )
        result = session.run()
        assert result.samples >= 2
        assert result.makespan > 0

    def test_run_is_cached(self, model, topo):
        session = HarmonySession(model, topo, HarmonyConfig("harmony-pp"))
        assert session.run() is session.run()

    def test_fresh_rerun_matches(self, model, topo):
        session = HarmonySession(model, topo, HarmonyConfig("harmony-pp"))
        first = session.run()
        second = session.run(fresh=True)
        assert first.makespan == second.makespan

    def test_plan_cached(self, model, topo):
        session = HarmonySession(model, topo, HarmonyConfig("harmony-pp"))
        assert session.plan() is session.plan()

    def test_timeline_renders(self, model, topo):
        session = HarmonySession(
            model, topo, HarmonyConfig("harmony-pp", batch=BatchConfig(1, 2))
        )
        assert "gpu0" in session.timeline()

    def test_summary_mentions_scheme(self, model, topo):
        session = HarmonySession(model, topo, HarmonyConfig("harmony-dp"))
        assert "harmony-dp" in session.summary()

    def test_options_forwarded(self, model, topo):
        session = HarmonySession(
            model,
            topo,
            HarmonyConfig("harmony-pp", options=HarmonyOptions(p2p=False)),
        )
        assert session.plan().policy.p2p_enabled is False

    def test_default_config(self, model, topo):
        session = HarmonySession(model, topo)
        assert session.config.parallelism == "harmony-pp"


class TestCompareRuns:
    def test_table_has_row_per_scheme(self, model, topo):
        results = [
            HarmonySession(
                model, topo, HarmonyConfig(mode, batch=BatchConfig(1, 2))
            ).run()
            for mode in ("dp-baseline", "harmony-dp")
        ]
        text = compare_runs(results).render()
        assert "dp-baseline" in text and "harmony-dp" in text


class TestExplain:
    def test_explain_without_running(self, model, topo):
        session = HarmonySession(
            model, topo, HarmonyConfig("harmony-pp", batch=BatchConfig(1, 2))
        )
        text = session.explain()
        assert "plan 'harmony-pp'" in text
        assert "gpu0" in text
        assert session._result is None  # explain never simulates

    def test_explain_flags_overflow(self, model):
        from tests.conftest import tight_server

        tiny = tight_server(2, 450 * MB)
        session = HarmonySession(
            model, tiny, HarmonyConfig("harmony-dp", batch=BatchConfig(1, 1))
        )
        assert "must swap" in session.explain()

    def test_plan_task_counts(self, model, topo):
        session = HarmonySession(
            model, topo, HarmonyConfig("harmony-dp", batch=BatchConfig(1, 2))
        )
        counts = session.plan().task_counts()
        assert counts["fwd"] == 2 * 4 * 2  # replicas x layers x microbatches
        assert counts["allreduce"] == 4

    def test_collective_bytes_positive_in_dp(self, model, topo):
        session = HarmonySession(
            model, topo, HarmonyConfig("harmony-dp", batch=BatchConfig(1, 1))
        )
        assert session.plan().total_collective_bytes() > 0
