"""RUPAM's Dispatcher — Algorithm 2 plus the racing/speculation fallbacks.

Each dispatch round: drain a batch of DB writes, snapshot the available
nodes into the per-resource priority queues, then cycle resource types
round-robin (so no task class starves).  For the best node of a type, scan
that type's task queue for the best launchable task:

* a task whose observed peak memory does not fit the node's free memory is
  skipped — unless the task is fully characterized and this node is its
  best-observed executor (the "locking" rule);
* a fitting task locked to this node, or offering PROCESS_LOCAL locality,
  is taken immediately; otherwise the best-locality fitting task wins.

When a type's queue has nothing launchable the Dispatcher falls back to
(1) stragglers from the speculative set and (2) the GPU/CPU racing policy:
GPU-capable work waiting too long runs on a strong idle CPU, and an idle GPU
node picks up a running CPU copy as a speculative race.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.config import RupamConfig
from repro.core.nodeinfo import ALL_KINDS, NodeMetrics, ResourceKind
from repro.core.queues import QueuedTask, ResourceQueues
from repro.core.resource_monitor import ResourceMonitor
from repro.core.task_manager import TaskManager
from repro.obs import decision as obs
from repro.obs.decision import DispatchDecision
from repro.spark.locality import Locality
from repro.spark.scheduler import SchedulerContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.executor import Executor
    from repro.spark.pools import AppOrder
    from repro.spark.task import TaskSpec
    from repro.spark.taskset import TaskSetManager

class Dispatcher:
    """Matches tasks to nodes using the Task/Resource queues."""

    def __init__(
        self,
        ctx: SchedulerContext,
        cfg: RupamConfig,
        rm: ResourceMonitor,
        tm: TaskManager,
        executors: Callable[[], dict[str, "Executor"]],
        available_for: Callable[["Executor", ResourceKind], bool],
        launch: Callable[..., None],
        active_tasksets: Callable[[], list["TaskSetManager"]],
        load_hint: Callable[[str, ResourceKind], float] | None = None,
    ):
        self.ctx = ctx
        self.cfg = cfg
        self.rm = rm
        self.tm = tm
        self._executors = executors
        self._available_for = available_for
        self._launch = launch
        self._active_tasksets = active_tasksets
        self._load_hint = load_hint
        self.resource_queues = ResourceQueues()
        self._rr = 0
        self.launches = 0
        self.gpu_cpu_races = 0
        self.obs = ctx.obs
        # Round-level memoization: memory estimates are stable for a whole
        # dispatch call (no record update can land mid-dispatch), locality is
        # stable until a launch evicts cached partitions.
        self._mem_memo: dict[str, float] = {}
        # node -> {id(spec) -> Locality}; nested so the hot scan hashes a
        # plain int per entry instead of allocating a (id, node) tuple.
        self._loc_memo: dict[str, dict[int, Locality]] = {}
        self._memo_hits = 0
        self._dirty_seen = 0
        # Dispatch bookkeeping accumulates in plain ints on the hot path
        # (dispatch runs thousands of rounds per app, most of them empty)
        # and folds into the metrics registry as deltas at quiesce points
        # via flush_metrics() — see RupamScheduler.stop().
        self._calls = 0
        self._rounds = 0
        self._empty_tally = 0
        self._busy_tally = 0
        self._flushed = (0, 0, 0, 0, 0, 0, 0)
        # Candidate-list cache, valid within one dispatch call (invalidated
        # at every dispatch() entry; see _dispatch_round).
        self._mets_cache: list[NodeMetrics] | None = None
        self._mets_pos: dict[str, int] | None = None
        self._mets_nexec = -1
        # (reason, enqueued_at) of schedule_task's last selection, consumed
        # by _try_node when it records the launch decision.
        self._last_selection: tuple[str, float | None] = (
            obs.LAUNCH_BEST_LOCALITY,
            None,
        )

    # -- main loop ----------------------------------------------------------------

    def dispatch(self) -> int:
        """Run rounds until no task can be placed.  Returns launches made."""
        # Sample the backlog before placing anything: depth-after-drain is
        # always near zero and hides the demand the scheduler actually saw.
        self.obs.sample_queue_depths(self.ctx.now, self.tm.queues.depths)
        self._mem_memo.clear()
        self._loc_memo.clear()
        self._mets_pos = None
        self._calls += 1
        total = 0
        while True:
            launched = self._dispatch_round()
            total += launched
            if launched == 0:
                break
        self.launches += total
        if total and self.obs.enabled:
            # Windowed launch rate: the steady-state throughput signal.
            self.obs.windows.add("dispatch.launches", self.ctx.now, float(total))
        return total

    def flush_metrics(self) -> None:
        """Fold accumulated dispatch bookkeeping into the metrics registry.

        Called at quiesce points (the scheduler's ``stop()``, i.e. whenever
        the last active application ends).  Deltas since the previous flush
        are added, so repeated idle/wake cycles never double count.
        """
        if not self.obs.enabled:
            return
        base = self._flushed
        now = (
            self._calls,
            self._rounds,
            self._memo_hits,
            self.resource_queues.requeue_ops,
            self._dirty_seen,
            self._empty_tally,
            self._busy_tally,
        )
        self.obs.metrics.inc_many((
            ("dispatch.calls", float(now[0] - base[0])),
            ("dispatch.rounds", float(now[1] - base[1])),
            ("dispatch.memo_hits", float(now[2] - base[2])),
            ("dispatch.requeue_ops", float(now[3] - base[3])),
            ("dispatch.dirty_nodes", float(now[4] - base[4])),
        ))
        self.obs.decisions.tally_rejections(obs.QUEUE_EMPTY, now[5] - base[5])
        self.obs.decisions.tally_rejections(obs.NODE_BUSY, now[6] - base[6])
        self._flushed = now

    # -- memoized hot-path lookups ------------------------------------------------

    def _mem_est(self, spec: "TaskSpec") -> float:
        est = self._mem_memo.get(spec.key)
        if est is None:
            est = self.tm.memory_estimate_mb(spec)
            self._mem_memo[spec.key] = est
        else:
            self._memo_hits += 1
        return est

    def _locality(self, spec: "TaskSpec", node: str) -> Locality:
        memo = self._loc_memo.get(node)
        if memo is None:
            memo = self._loc_memo[node] = {}
        sid = id(spec)
        loc = memo.get(sid)
        if loc is None:
            loc = self.ctx.blocks.locality_for(spec, node)
            memo[sid] = loc
        else:
            self._memo_hits += 1
        return loc

    def _do_launch(self, *args, speculative: bool = False) -> None:
        if speculative:
            self._launch(*args, speculative=True)
        else:
            self._launch(*args)
        # Launching can evict cached partitions (execution-memory reservation
        # displaces storage LRU-first), which changes locality for any task:
        # the locality memo only survives until the next launch.
        self._loc_memo.clear()

    def _dispatch_round(self) -> int:
        self.tm.db.drain(self.cfg.db_drain_batch)
        # Refresh heartbeat data each round: launches made in the previous
        # round change utilization and free memory.  The collection is
        # version-gated — nodes whose resources did not move are skipped.
        changed = self.rm.collect_now()
        executors = self._executors()
        # The candidate list is rebuilt on the first round of each dispatch
        # call and then patched in place: no executor can register or
        # deregister while dispatch runs (no simulation events fire
        # mid-call), so later rounds only swap in the re-collected metrics
        # objects.  A node that dies mid-call stays in the cached list but
        # is transparently skipped by _pop_available's liveness check —
        # the offer sequence to every other node is unchanged.
        pos = self._mets_pos
        if (
            pos is None
            or len(executors) != self._mets_nexec
            or any(name not in pos for name in changed)
        ):
            metrics: list[NodeMetrics] = []
            pos = {}
            for name, ex in executors.items():
                if not ex.alive:
                    continue
                m = self.rm.metrics_for(name)
                if m is not None:
                    pos[name] = len(metrics)
                    metrics.append(m)
            self._mets_cache = metrics
            self._mets_pos = pos
            self._mets_nexec = len(executors)
            if not metrics:
                return 0
            dirty = self.rm.consume_dirty()
            self._dirty_seen += len(dirty)
            self.resource_queues.begin_round(
                metrics, dirty=dirty, load_hint=self._load_hint
            )
        else:
            metrics = self._mets_cache
            for name in changed:
                metrics[pos[name]] = self.rm.metrics_for(name)
            if not metrics:
                return 0
            dirty = self.rm.consume_dirty()
            self._dirty_seen += len(dirty)
            self.resource_queues.begin_round_incremental(
                [metrics[pos[n]] for n in dirty if n in pos],
                load_hint=self._load_hint,
            )
        self._rounds += 1
        # Cross-app arbitration: None with fewer than two active apps (the
        # single-tenant fast path — schedule_task scans unfiltered, exactly
        # the pre-multi-tenant behavior), else the pool layer's policy order.
        app_order = self.ctx.pools.app_order()
        launched = 0
        live = self.tm.queues.live_counts() if self.obs.enabled else None
        for _ in range(len(ALL_KINDS)):
            kind = ALL_KINDS[self._rr % len(ALL_KINDS)]
            self._rr += 1
            if live is not None and live[kind] == 0:
                # Nothing pending of this kind this round (fallbacks below
                # may still find speculative/racing work).
                self._empty_tally += 1
            # Walk down this kind's queue until something launches: the
            # best node may lack the free memory the queued tasks need,
            # while a lesser node has room.
            while True:
                node_metrics = self._pop_available(kind, executors)
                if node_metrics is None:
                    break
                ex = executors[node_metrics.name]
                if self._try_node(kind, ex, app_order):
                    # One task per node per round keeps utilization honest.
                    self.resource_queues.remove_node(node_metrics.name)
                    launched += 1
                    break
        if app_order is not None:
            # The lazy snapshot may be only partially walked (offer loops
            # stop at the first app with work); closing it lets the next
            # round discard it in O(1) instead of materializing the rest.
            app_order.close()
        return launched

    def _pop_available(
        self, kind: ResourceKind, executors: dict[str, "Executor"]
    ) -> NodeMetrics | None:
        while True:
            m = self.resource_queues.pop(kind)
            if m is None:
                return None
            ex = executors.get(m.name)
            if ex is not None and ex.alive and self._available_for(ex, kind):
                return m
            self._busy_tally += 1

    # -- Algorithm 2 core -------------------------------------------------------------

    def _try_node(
        self,
        kind: ResourceKind,
        ex: "Executor",
        app_order: "AppOrder | None" = None,
    ) -> bool:
        # A task locked to this node takes priority regardless of which
        # queue its bottleneck put it in (served straight from the lock
        # index — no queue walk).  The lock rule is deliberately cross-app:
        # a task's best-observed node wins over pool order, because breaking
        # the lock costs more than a round of unfairness.
        locked = self.tm.queues.find_for_node(ex.node.name)
        if locked is not None:
            est_mb = self._mem_est(locked.spec)
            if est_mb <= ex.free_memory_mb:
                loc = self._locality(locked.spec, ex.node.name)
                self._record_launch(
                    locked.ts, locked.spec, ex, loc, kind,
                    reason=obs.LAUNCH_LOCKED,
                    enqueued_at=locked.enqueued_at,
                )
                self._do_launch(locked.ts, locked.spec, ex, loc, kind)
                return True
            self.obs.decisions.record_rejection(
                self.ctx.now, obs.NO_FIT_MEMORY,
                task_key=locked.spec.key, node=ex.node.name,
                est_mb=round(est_mb, 1),
                free_mb=round(ex.free_memory_mb, 1),
                locked=True,
            )
        if app_order is None:
            sel = self.schedule_task(kind, ex)
        else:
            # Offer this node to each app in pool order; heterogeneity-aware
            # placement (the scan below) still picks the task *within* the
            # chosen app — fair share composes with RUPAM, not replaces it.
            sel = None
            for order_app_id in app_order:
                sel = self.schedule_task(kind, ex, app_id=order_app_id)
                if sel is not None:
                    break
        if sel is not None:
            ts, spec, loc = sel
            reason, enqueued_at = self._last_selection
            self._record_launch(
                ts, spec, ex, loc, kind, reason=reason, enqueued_at=enqueued_at
            )
            self._do_launch(ts, spec, ex, loc, kind)
            return True
        # Nothing pending of this kind: consider stragglers (speculative set).
        if self._try_speculative(ex, kind):
            return True
        # GPU/CPU racing fallbacks.
        if self.cfg.gpu_race_enabled:
            if kind is ResourceKind.CPU and self._try_gpu_task_on_cpu(ex):
                return True
            if kind is ResourceKind.GPU and self._try_race_on_gpu(ex):
                return True
        return False

    def schedule_task(
        self, kind: ResourceKind, ex: "Executor", app_id: str | None = None
    ) -> tuple["TaskSetManager", "TaskSpec", Locality] | None:
        """Algorithm 2's schedule_task(): best launchable task of this kind.

        With ``app_id`` the scan is restricted to that application's entries
        (multi-tenant pool order); ``None`` scans everything (single-tenant
        fast path, byte-identical to the pre-pool behavior).  The scan walks
        live entries in FIFO order and, under tracing, emits each skipped
        entry's rejection record in visit order.
        """
        node = ex.node.name
        free_mb = ex.free_memory_mb
        # best = (entry, locality, memory_estimate); ties on locality go to
        # the most memory-demanding fitting task (decreasing first-fit), so
        # heavyweights claim still-empty nodes before small tasks fill them.
        best: tuple[QueuedTask, Locality, float] | None = None
        now = self.ctx.now
        reject = self.obs.decisions.record_rejection
        # Hot loop: the memo lookups are inlined (locals, no method calls) —
        # this scan visits every live entry of the kind once per launch.
        mem_memo = self._mem_memo
        node_memo = self._loc_memo.get(node)
        if node_memo is None:
            node_memo = self._loc_memo[node] = {}
        mem_estimate = self.tm.memory_estimate_mb
        locality_for = self.ctx.blocks.locality_for
        locked_map = self.tm._locked
        memo_hits = 0
        try:
            for entry in self.tm.queues.entries(kind):
                if app_id is not None and entry.ts.app_id != app_id:
                    continue
                if entry.ts.blocked:
                    reject(
                        now, obs.TASKSET_BLOCKED,
                        task_key=entry.spec.key, node=node,
                    )
                    continue
                spec = entry.spec
                skey = spec.key
                est_mb = mem_memo.get(skey)
                if est_mb is None:
                    est_mb = mem_estimate(spec)
                    mem_memo[skey] = est_mb
                else:
                    memo_hits += 1
                fits = est_mb <= free_mb
                locked_node = locked_map.get(skey)
                locked_here = locked_node == node
                if not fits:
                    # Only the fully-characterized best-on-this-node task may
                    # override the memory check (Algorithm 2 lines 12-16).
                    if locked_here:
                        self._last_selection = (
                            obs.LAUNCH_MEM_OVERRIDE,
                            entry.enqueued_at,
                        )
                        return entry.ts, spec, self._locality(spec, node)
                    reject(
                        now, obs.NO_FIT_MEMORY,
                        task_key=skey, node=node,
                        est_mb=round(est_mb, 1), free_mb=round(free_mb, 1),
                    )
                    continue
                # A task locked to a *different* node waits for it rather than
                # run here (bounded by lock_break_wait_s to avoid starvation).
                if (
                    locked_node is not None
                    and not locked_here
                    and now - entry.enqueued_at < self.cfg.lock_break_wait_s
                ):
                    reject(
                        now, obs.LOCK_WAIT,
                        task_key=skey, node=node,
                        locked_node=locked_node,
                    )
                    continue
                sid = id(spec)
                loc = node_memo.get(sid)
                if loc is None:
                    loc = locality_for(spec, node)
                    node_memo[sid] = loc
                else:
                    memo_hits += 1
                if locked_here or loc is Locality.PROCESS_LOCAL:
                    self._last_selection = (
                        obs.LAUNCH_LOCKED if locked_here else obs.LAUNCH_PROCESS_LOCAL,
                        entry.enqueued_at,
                    )
                    return entry.ts, spec, loc
                if best is None or loc < best[1] or (loc == best[1] and est_mb > best[2]):
                    best = (entry, loc, est_mb)
        finally:
            self._memo_hits += memo_hits
        if best is None:
            return None
        entry, loc, _ = best
        self._last_selection = (obs.LAUNCH_BEST_LOCALITY, entry.enqueued_at)
        return entry.ts, entry.spec, loc

    # -- decision recording -----------------------------------------------------------

    def _record_launch(
        self,
        ts: "TaskSetManager",
        spec: "TaskSpec",
        ex: "Executor",
        loc: Locality,
        kind: ResourceKind,
        reason: str,
        enqueued_at: float | None = None,
        speculative: bool = False,
    ) -> None:
        trace = self.obs.decisions
        if not trace.enabled:
            return
        now = self.ctx.now
        m = self.rm.metrics_for(ex.node.name)
        # Inlined NodeMetrics.utilization for each kind (same values, same
        # key order): one dict literal instead of 5 enum-dispatched calls on
        # every launch.
        util = (
            {
                "cpu": round(m.cpuutil, 4),
                "mem": round(
                    1.0
                    if m.memory_mb <= 0
                    else 1.0 - m.freememory_mb / m.memory_mb,
                    4,
                ),
                "disk": round(m.diskutil, 4),
                "net": round(m.netutil, 4),
                "gpu": round(
                    1.0 if m.gpus == 0 else 1.0 - m.gpus_idle / m.gpus, 4
                ),
            }
            if m is not None
            else {}
        )
        trace.record_launch(
            DispatchDecision(
                time=now,
                task_key=spec.key,
                attempt=ts.next_attempt_number(spec),
                node=ex.node.name,
                queue=kind.value,
                locality=loc.name,
                reason=reason,
                speculative=speculative,
                mem_estimate_mb=self._mem_est(spec),
                free_memory_mb=ex.free_memory_mb,
                locked_node=self.tm.locked_node_of(spec),
                wait_s=None if enqueued_at is None else now - enqueued_at,
                node_utilization=util,
                app=ts.app_id,
            )
        )

    # -- fallbacks ----------------------------------------------------------------------

    def _try_speculative(self, ex: "Executor", kind: ResourceKind) -> bool:
        """Race a straggler copy here — but only if this node actually
        remedies the task's bottleneck (Section III-C3's resource stragglers:
        relocating to an equivalent node buys nothing) and the task fits."""
        for ts in self._active_tasksets():
            if not ts.has_speculatable():
                continue
            for spec, loc, running_nodes in ts.speculative_candidates(ex):
                if self._mem_est(spec) > ex.free_memory_mb:
                    continue
                task_kind = self._task_kind(spec)
                if task_kind is not None and not self._node_improves(
                    ex, running_nodes, task_kind
                ):
                    continue
                self._record_launch(
                    ts, spec, ex, loc, kind,
                    reason=obs.LAUNCH_SPECULATIVE, speculative=True,
                )
                self._do_launch(ts, spec, ex, loc, kind, speculative=True)
                return True
        return False

    def _task_kind(self, spec: "TaskSpec") -> ResourceKind | None:
        from repro.core.characterize import classify_record

        rec = self.tm.record_for(spec)
        if rec is None or rec.runs == 0:
            return None
        return classify_record(rec, self.cfg, self.tm.reference_heap_mb)

    @staticmethod
    def _node_capability(ex: "Executor", kind: ResourceKind) -> float:
        spec = ex.node.spec
        if kind is ResourceKind.CPU:
            return spec.cpu.core_rate
        if kind is ResourceKind.GPU:
            return ex.node.gpu_task_rate
        if kind is ResourceKind.DISK:
            return spec.disk.read_mbps * (2.0 if spec.disk.is_ssd else 1.0)
        if kind is ResourceKind.NET:
            return spec.net_mbps
        if kind is ResourceKind.MEM:
            return ex.free_memory_mb
        raise ValueError(kind)

    def _node_improves(
        self, ex: "Executor", running_nodes: list[str], kind: ResourceKind
    ) -> bool:
        executors = self._executors()
        here = self._node_capability(ex, kind)
        for name in running_nodes:
            other = executors.get(name)
            if other is None:
                return True  # the original's executor is gone
            if here > 1.1 * self._node_capability(other, kind):
                return True
        return False

    def _try_gpu_task_on_cpu(self, ex: "Executor") -> bool:
        """A GPU-class task starving in queue runs on a strong idle CPU."""
        now = self.ctx.now
        for entry in self.tm.queues.entries(ResourceKind.GPU):
            if entry.ts.blocked:
                continue
            if now - entry.enqueued_at < self.cfg.gpu_wait_before_cpu_s:
                continue
            if self._mem_est(entry.spec) > ex.free_memory_mb:
                continue
            loc = self._locality(entry.spec, ex.node.name)
            self._record_launch(
                entry.ts, entry.spec, ex, loc, ResourceKind.CPU,
                reason=obs.LAUNCH_GPU_ON_CPU, enqueued_at=entry.enqueued_at,
            )
            self._do_launch(entry.ts, entry.spec, ex, loc, ResourceKind.CPU)
            self.gpu_cpu_races += 1
            return True
        return False

    def _try_race_on_gpu(self, ex: "Executor") -> bool:
        """An idle GPU node races a GPU-capable task currently on a CPU node."""
        if ex.node.gpus_idle() <= 0:
            return False
        for ts in self._active_tasksets():
            for st in ts.states:
                if st.finished or st.speculated or not st.running:
                    continue
                if not st.spec.gpu_capable:
                    continue
                run = st.running[0]
                if run.metrics.used_gpu or run.executor.node.name == ex.node.name:
                    continue
                if run.elapsed < self.cfg.gpu_race_min_remaining_s:
                    continue
                loc = self._locality(st.spec, ex.node.name)
                self._record_launch(
                    ts, st.spec, ex, loc, ResourceKind.GPU,
                    reason=obs.LAUNCH_GPU_RACE, speculative=True,
                )
                self._do_launch(ts, st.spec, ex, loc, ResourceKind.GPU, speculative=True)
                self.gpu_cpu_races += 1
                return True
        return False
