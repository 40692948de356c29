"""The RUPAM scheduler facade — a drop-in TaskScheduler.

Wires the Resource Monitor, Task Manager, Dispatcher, dynamic executor
sizing, and straggler handling together behind the
:class:`repro.spark.scheduler.TaskScheduler` interface, so experiments can
swap it for the stock scheduler with one argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import RupamConfig
from repro.core.dispatcher import Dispatcher
from repro.core.nodeinfo import ResourceKind
from repro.core.resource_monitor import ResourceMonitor
from repro.core.straggler import MemoryStragglerHandler
from repro.core.task_manager import TaskManager
from repro.core.taskdb import TaskCharDB
from repro.spark.locality import Locality
from repro.spark.scheduler import SchedulerContext, TaskScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.executor import Executor
    from repro.spark.runner import TaskRun
    from repro.spark.task import TaskSpec
    from repro.spark.taskset import TaskSetManager


class RupamScheduler(TaskScheduler):
    """Heterogeneity-aware task scheduler (the paper's contribution).

    Args:
        cfg: RUPAM tunables (``res_factor`` etc.).
        db: an existing :class:`TaskCharDB` to reuse knowledge from earlier
            runs of the same application (data centers run the same jobs
            periodically); a fresh DB is created when omitted.
    """

    name = "rupam"

    def __init__(self, cfg: RupamConfig | None = None, db: TaskCharDB | None = None):
        super().__init__()
        self.cfg = cfg or RupamConfig()
        self._db = db
        self.executors: dict[str, "Executor"] = {}
        self.rm: ResourceMonitor | None = None
        self.tm: TaskManager | None = None
        self.dispatcher: Dispatcher | None = None
        self.mem_straggler: MemoryStragglerHandler | None = None
        self._tasksets: list["TaskSetManager"] = []
        # Per-executor running-task counts by assigned resource kind.
        self._kind_counts: dict[str, dict[ResourceKind, int]] = {}
        self._run_kind: dict[int, tuple[str, ResourceKind]] = {}
        self._dispatching = False

    # -- lifecycle ------------------------------------------------------------------

    def attach(self, ctx: SchedulerContext) -> None:
        super().attach(ctx)
        self.rm = ResourceMonitor(
            ctx,
            executors=lambda: list(self.executors.values()),
            on_beat=self._on_beat,
        )
        self.rm.low_memory_fraction = self.cfg.low_memory_fraction
        self.tm = TaskManager(ctx, self.cfg, db=self._db)
        self._db = self.tm.db
        self.mem_straggler = MemoryStragglerHandler(ctx, self.cfg)
        self.dispatcher = Dispatcher(
            ctx,
            self.cfg,
            self.rm,
            self.tm,
            executors=lambda: self.executors,
            available_for=self.available_for,
            launch=self._launch,
            active_tasksets=self._active_tasksets,
            load_hint=self._load_hint,
        )
        self.rm.start()

    def stop(self) -> None:
        # Quiesce point: fold the dispatcher's accumulated bookkeeping into
        # the metrics registry (delta-tracked, safe across idle/wake cycles).
        if self.dispatcher is not None:
            self.dispatcher.flush_metrics()
        if self.rm is not None:
            self.rm.stop()

    def resume(self) -> None:
        """Cluster waking from idle (a new app arrived after ``stop``)."""
        if self.rm is not None:
            self.rm.start()

    @property
    def db(self) -> TaskCharDB:
        assert self.tm is not None, "scheduler not attached"
        return self.tm.db

    # -- executor sizing (dynamic, Section III-C2) -----------------------------------

    def executor_memory_for(self, node_name: str) -> float:
        assert self.ctx is not None
        node = self.ctx.cluster.node(node_name)
        return max(
            1024.0, node.spec.memory_mb - self.cfg.executor_memory_headroom_mb
        )

    def executor_slots_for(self, node_name: str) -> int:
        assert self.ctx is not None
        node = self.ctx.cluster.node(node_name)
        return node.spec.cpu.cores + self.cfg.overlap_extra_slots

    # -- availability: "enough resources", not "a free core" ---------------------------

    def available_for(self, ex: "Executor", kind: ResourceKind) -> bool:
        if not ex.alive or ex.draining or ex.free_slots <= 0:
            return False
        counts = self._kind_counts.get(ex.executor_id, {})
        running = counts.get(kind, 0)
        spec = ex.node.spec
        if kind is ResourceKind.CPU:
            return running < spec.cpu.cores
        if kind is ResourceKind.GPU:
            gpus = spec.gpu.count if spec.gpu else 0
            return running < gpus
        return running < self.cfg.overlap_tasks_per_kind

    def _load_hint(self, node_name: str, kind: ResourceKind) -> float:
        """Fraction of this node's capacity for ``kind`` already claimed by
        running tasks (covers launches the utilization sample can't see yet)."""
        ex = self.executors.get(node_name)
        if ex is None:
            return 1.0
        counts = self._kind_counts.get(ex.executor_id, {})
        running = counts.get(kind, 0)
        spec = ex.node.spec
        if kind is ResourceKind.CPU:
            cap = spec.cpu.cores
        elif kind is ResourceKind.GPU:
            cap = spec.gpu.count if spec.gpu else 0
        else:
            cap = self.cfg.overlap_tasks_per_kind
        if cap <= 0:
            return 1.0
        return min(1.0, running / cap)

    # -- event feed ----------------------------------------------------------------------

    def submit_taskset(
        self, ts: "TaskSetManager", app_id: str | None = None
    ) -> None:
        assert self.tm is not None
        if ts not in self._tasksets:  # re-submitted after shuffle loss
            self._tasksets.append(ts)
        self.tm.admit_taskset(ts)
        self.revive()

    def taskset_finished(
        self, ts: "TaskSetManager", app_id: str | None = None
    ) -> None:
        if ts in self._tasksets:
            self._tasksets.remove(ts)
        if self.tm is not None:
            self.tm.queues.invalidate_taskset(ts)

    def on_executor_added(
        self, executor: "Executor", app_id: str | None = None
    ) -> None:
        self.executors[executor.node.name] = executor
        self._kind_counts[executor.executor_id] = {}
        assert self.rm is not None
        self.rm.collect_now()
        self.revive()

    def on_executor_removed(self, executor: "Executor") -> None:
        self.executors.pop(executor.node.name, None)
        self._kind_counts.pop(executor.executor_id, None)
        if self.rm is not None:
            self.rm.forget(executor.node.name)

    def on_node_removed(self, node_name: str) -> None:
        """Node departure: break every optExecutor lock pinned to it.

        The executor itself was already dropped via ``on_executor_removed``;
        what remains are queue entries (and the TM's lock cache) still
        targeting the departed node — those would otherwise sit out the full
        ``lock_break_wait_s`` before any other node could take them.
        """
        if self.tm is not None:
            self.tm.invalidate_node_locks(node_name)

    def on_task_end(self, run: "TaskRun", app_id: str | None = None) -> None:
        assert self.tm is not None
        entry = self._run_kind.pop(id(run), None)
        if entry is not None:
            ex_id, kind = entry
            counts = self._kind_counts.get(ex_id)
            if counts is not None and counts.get(kind, 0) > 0:
                counts[kind] -= 1
                # The load hint for this node just changed; memory/utilization
                # versions may not move (e.g. a pre-start kill), so dirty the
                # node explicitly.
                if self.rm is not None:
                    self.rm.mark_dirty(run.executor.node.name)
        self.tm.record_task_end(run)
        # A killed/failed attempt whose task went back to pending must be
        # re-queued for dispatch.
        ts = run.taskset
        if (
            ts.is_active()
            and run.task.index in ts.pending
            and not ts.states[run.task.index].running
        ):
            self.tm.admit(ts, run.task)
        self.revive()

    # -- dispatch ---------------------------------------------------------------------------

    def revive(self) -> None:
        if self.dispatcher is None or self._dispatching:
            return
        self._dispatching = True
        try:
            assert self.rm is not None
            self.rm.collect_now()
            self.dispatcher.dispatch()
        finally:
            self._dispatching = False

    def _on_beat(self) -> None:
        assert self.rm is not None and self.mem_straggler is not None
        self.mem_straggler.check(self.rm.low_memory_nodes, self.executors)
        self.revive()

    def on_app_removed(self, app_id: str) -> None:
        """App teardown: drop its tasksets and queue/lock-index entries."""
        self._tasksets = [ts for ts in self._tasksets if ts.app_id != app_id]
        if self.tm is not None:
            self.tm.release_app(app_id)

    def _active_tasksets(self) -> list["TaskSetManager"]:
        """Active tasksets, regrouped by the pool layer's app order when
        several apps share the cluster (single tenant: original order)."""
        active = [ts for ts in self._tasksets if ts.is_active()]
        order = self.ctx.pools.app_order() if self.ctx is not None else None
        if order is None:
            return active
        rank = {app_id: i for i, app_id in enumerate(order)}
        fallback = len(rank)
        active.sort(key=lambda ts: rank.get(ts.app_id, fallback))
        return active

    def _launch(
        self,
        ts: "TaskSetManager",
        spec: "TaskSpec",
        ex: "Executor",
        locality: Locality,
        kind: ResourceKind,
        speculative: bool = False,
    ) -> None:
        assert self.ctx is not None and self.ctx.driver is not None
        run = self.ctx.driver.launch_task(
            ts,
            spec,
            ex,
            locality,
            speculative=speculative,
            extra_dispatch_delay=self.cfg.extra_dispatch_delay_s,
        )
        self.ctx.obs.metrics.inc(f"rupam.launch.kind.{kind.value}")
        self._run_kind[id(run)] = (ex.executor_id, kind)
        counts = self._kind_counts.setdefault(ex.executor_id, {})
        counts[kind] = counts.get(kind, 0) + 1
        # Memory reservation happens when the run *starts* (after the dispatch
        # delay), so the version signature can't cover this increment yet.
        if self.rm is not None:
            self.rm.mark_dirty(ex.node.name)
        if not speculative:
            # The task left pending: tombstone its queue entries (O(1) per
            # entry) instead of leaving them for lazy pruning.
            assert self.tm is not None
            self.tm.queues.invalidate_task(ts, spec)
