"""Public API: the "single virtual accelerator" facade.

The paper's ideal: "users could write DNN training programs that target
a single virtual accelerator device with practically unbounded memory."
:class:`HarmonySession` is that facade — give it a model (sequential
chain, as if for one device), a server, and a parallelization choice,
and it decomposes, schedules, and simulates the training iteration.
"""

from repro.core.config import HarmonyConfig
from repro.core.session import HarmonySession
from repro.core.report import compare_runs

__all__ = ["HarmonyConfig", "HarmonySession", "compare_runs"]
