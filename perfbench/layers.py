"""Per-layer host time, measured from outside the program.

:class:`LayerTracer` replaces selected public methods of the simulator's
modules with timing wrappers (class attributes, so every call that goes
through normal attribute lookup is seen) and aggregates, per wrapped
function, the call count, the inclusive time and the *self* time: inclusive
time minus the time of timed calls nested inside it.  Aggregates live in
memory; the only spans kept whole are the coarse ones the harness opens per
session (session -> setup / drain), written out once at the end.

Install before any ``Session`` is built and uninstall when done: the
wrappers are transparent (same arguments, same return value, same
exceptions), so a traced run produces the same simulated results as an
untraced one, which the benchmark checks by signature.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.core.dispatcher import Dispatcher
from repro.core.queues import ResourceQueues
from repro.core.resource_monitor import ResourceMonitor
from repro.core.task_manager import TaskManager
from repro.obs.decision import DecisionTrace, Observability
from repro.simulate.engine import Simulator
from repro.simulate.resources import FluidResource
from repro.spark.default_scheduler import DefaultScheduler
from repro.spark.driver import Driver
from repro.spark.pools import AppOrder, SchedulingPools
from repro.spark.taskset import TaskSetManager


def _obs_on(args: tuple) -> bool:
    # A disabled bundle returns at once; that check is the caller's cost,
    # not observability work, so it is left untimed.
    return args[0].enabled


# (owner class, method, timer name, gate).  Timer names are "<layer>.<fn>".
TARGETS: tuple[tuple[type, str, str, Callable[[tuple], bool] | None], ...] = (
    (Simulator, "run", "engine.run", None),
    (FluidResource, "acquire", "resources.acquire", None),
    (FluidResource, "abort", "resources.abort", None),
    (Dispatcher, "dispatch", "dispatcher.dispatch", None),
    (Dispatcher, "schedule_task", "dispatcher.schedule_task", None),
    (TaskSetManager, "has_speculatable", "taskset.has_speculatable", None),
    (TaskSetManager, "select_task", "taskset.select_task", None),
    (ResourceQueues, "pop", "queues.pop", None),
    (ResourceQueues, "begin_round", "queues.begin_round", None),
    (ResourceQueues, "begin_round_incremental", "queues.begin_round_incremental", None),
    (TaskManager, "admit", "task_manager.admit", None),
    (TaskManager, "record_task_end", "task_manager.record_task_end", None),
    (ResourceMonitor, "collect_now", "resource_monitor.collect_now", None),
    (DefaultScheduler, "revive", "default_scheduler.revive", None),
    (SchedulingPools, "app_order", "pools.app_order", None),
    # The order is lazy: the heap walk runs while callers iterate it.
    (AppOrder, "_advance", "pools.advance", None),
    (Driver, "launch_task", "driver.launch_task", None),
    (Driver, "task_ended", "driver.task_ended", None),
    (Driver, "add_node", "driver.add_node", None),
    (Driver, "decommission_node", "driver.decommission_node", None),
    (Driver, "preempt_node", "driver.preempt_node", None),
    (Driver, "remove_node", "driver.remove_node", None),
    (Observability, "record_span", "obs.record_span", _obs_on),
    (Observability, "sample_queue_depths", "obs.sample_queue_depths", _obs_on),
    (DecisionTrace, "record_launch", "obs.record_launch", _obs_on),
    (DecisionTrace, "record_rejection", "obs.record_rejection", _obs_on),
)


class LayerTracer:
    """Call counts, inclusive and self time per wrapped function."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # name -> [calls, inclusive_s, self_s]
        self.stats: dict[str, list[float]] = {name: [0, 0.0, 0.0] for _, _, name, _ in TARGETS}
        self.spans: list[dict[str, Any]] = []
        self._stack: list[float] = []
        self._saved: list[tuple[type, str, Any]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, gate in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, self.stats[name], gate))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, rec: list[float], gate):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if gate is not None and not gate(args):
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - nested
                if stack:
                    stack[-1] += dt

        return timed

    def snapshot(self) -> dict[str, tuple[float, float, float]]:
        return {name: tuple(rec) for name, rec in self.stats.items()}

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs: Any) -> Iterator[int]:
        """A whole span for a coarse boundary; yields its id for children."""
        span_id = len(self.spans)
        record = {"run": self.run_id, "id": span_id, "parent": parent, "name": name, **attrs}
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield span_id
        finally:
            record["end"] = time.perf_counter()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}, indent=1))


def delta(
    after: dict[str, tuple[float, float, float]],
    before: dict[str, tuple[float, float, float]],
) -> dict[str, tuple[float, float, float]]:
    return {k: tuple(a - b for a, b in zip(after[k], before[k])) for k in after}
