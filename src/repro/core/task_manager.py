"""RUPAM's Task Manager (TM).

TM admits submitted tasks into the per-resource task queues — using their
DB_task_char record when one exists (Algorithm 1), the paper's first-seen
rules otherwise (map tasks into *all* queues, reduce tasks into the NET
queue) — and folds finished attempts' metrics back into the database.  A
stage observed to use a GPU marks all its tasks GPU-bound, since tasks in a
stage perform the same computation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.characterize import classify_record, classify_task_end
from repro.core.config import RupamConfig
from repro.core.nodeinfo import ResourceKind
from repro.core.queues import TaskQueues
from repro.core.taskdb import TaskCharDB, TaskRecord, memory_observation
from repro.spark.scheduler import SchedulerContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.runner import TaskRun
    from repro.spark.task import TaskSpec
    from repro.spark.taskset import TaskSetManager


class TaskManager:
    """Task characterization, admission, and metric recording."""

    def __init__(
        self,
        ctx: SchedulerContext,
        cfg: RupamConfig,
        db: TaskCharDB | None = None,
    ):
        self.ctx = ctx
        self.cfg = cfg
        self.db = db if db is not None else TaskCharDB()
        self.queues = TaskQueues()
        # Stage templates observed to use a GPU (paper: mark the whole stage).
        self.gpu_stages: set[str] = set()
        # Per-template bottleneck votes from completed siblings, for
        # classifying still-unknown tasks of the same stage.
        self._stage_votes: dict[str, dict[ResourceKind, int]] = {}
        # Tasksets with pending unknown tasks, for re-classification when a
        # stage majority emerges.
        self._stage_tasksets: dict[str, list["TaskSetManager"]] = {}
        # The reference heap for Algorithm 1's memory rule is the stock
        # configuration's executor size.
        self.reference_heap_mb = ctx.conf.usable_heap_mb()
        self.admissions = 0
        # optExecutor lock cache: key → node, kept current by the DB's
        # update callback so the dispatcher's hot path never recomputes the
        # lock rule per entry.  Seeded from any pre-loaded records.
        self._locked: dict[str, str] = {}
        for key, rec in self.db.effective_records().items():
            node = self._compute_lock(rec)
            if node is not None:
                self._locked[key] = node
        self.db.on_update = self._on_record_update

    # -- admission -------------------------------------------------------------

    def admit(self, ts: "TaskSetManager", spec: "TaskSpec") -> ResourceKind | None:
        """Queue one pending task; returns its classified kind (None = all)."""
        kind = self._admit(ts, spec)
        obs = self.ctx.obs
        if obs.enabled:
            queue = kind.value if kind is not None else "all"
            obs.metrics.inc(f"tm.admit.{queue}")
            obs.decisions.record_enqueue(self.ctx.now, spec.key, queue)
            # Windowed admission rate: the steady-state demand signal.
            obs.windows.add("tm.admissions", self.ctx.now)
        return kind

    def _admit(self, ts: "TaskSetManager", spec: "TaskSpec") -> ResourceKind | None:
        self.admissions += 1
        now = self.ctx.now
        lock = self._locked.get(spec.key)
        rec = self.db.lookup(spec.key)
        if rec is not None and rec.runs > 0:
            kind = classify_record(rec, self.cfg, self.reference_heap_mb)
            if spec.stage is not None and spec.stage.template_id in self.gpu_stages:
                kind = ResourceKind.GPU
            self.queues.enqueue(kind, ts, spec, now, locked_node=lock)
            return kind
        if spec.stage is not None and spec.stage.template_id in self.gpu_stages:
            self.queues.enqueue(ResourceKind.GPU, ts, spec, now, locked_node=lock)
            return ResourceKind.GPU
        majority = (
            self.stage_majority(spec.stage.template_id)
            if spec.stage is not None
            else None
        )
        if majority is not None:
            self.queues.enqueue(majority, ts, spec, now, locked_node=lock)
            return majority
        if spec.stage is not None:
            lst = self._stage_tasksets.setdefault(spec.stage.template_id, [])
            if ts not in lst:
                lst.append(ts)
        if spec.stage is not None and spec.stage.is_result:
            # First-seen reduce tasks are assumed network-bound: they read
            # shuffle data and ship results to the driver.
            self.queues.enqueue(ResourceKind.NET, ts, spec, now, locked_node=lock)
            return ResourceKind.NET
        self.queues.enqueue_all_kinds(ts, spec, now, locked_node=lock)
        return None

    def admit_taskset(self, ts: "TaskSetManager") -> None:
        for spec in ts.pending_specs():
            self.admit(ts, spec)

    def release_app(self, app_id: str) -> None:
        """App teardown: tombstone its queue entries and drop its taskset
        references.  The characterization DB and lock cache are keyed by
        task identity, not app, and deliberately survive — cross-app reuse
        of task knowledge is the point of the shared DB."""
        self.queues.invalidate_app(app_id)
        for template_id in list(self._stage_tasksets):
            kept = [
                ts
                for ts in self._stage_tasksets[template_id]
                if ts.app_id != app_id
            ]
            if kept:
                self._stage_tasksets[template_id] = kept
            else:
                del self._stage_tasksets[template_id]

    def invalidate_node_locks(self, node_name: str) -> int:
        """Break every cached optExecutor lock targeting a departed node.

        Clears the lock cache entries and re-targets the queues' live entries
        to "unlocked" so any node may take them immediately — without this,
        tasks pinned to the departed node would wait out ``lock_break_wait_s``
        (or forever, were lock-breaking disabled).  Returns the number of
        locks broken.
        """
        keys = [k for k, n in self._locked.items() if n == node_name]
        for key in keys:
            del self._locked[key]
            self.queues.update_lock(key, None)
        return len(keys)

    def retained_app_state(self, app_id: str) -> dict[str, int]:
        """Count live structures still referencing this app — the teardown
        leak tests assert every value is zero after the app is released.
        (The char DB / lock cache are task-keyed by design and excluded.)"""
        return {
            "queue_tasksets": sum(
                1
                for ts, _entries in self.queues._ts_entries.values()
                if ts.app_id == app_id
            ),
            "stage_tasksets": sum(
                1
                for lst in self._stage_tasksets.values()
                for ts in lst
                if ts.app_id == app_id
            ),
        }

    # -- recording ---------------------------------------------------------------

    def record_task_end(self, run: "TaskRun") -> None:
        """Fold a finished attempt into DB_task_char (queued write)."""
        m = run.metrics
        if not m.succeeded:
            # Failed or killed attempts still teach us the task's memory
            # footprint (TM analyzes terminated memory stragglers before
            # requeueing them, Section III-C3).
            if run.peak_memory_mb > 0:
                self.db.enqueue_update(
                    memory_observation(
                        self.db.lookup(m.task_key), m.task_key, run.peak_memory_mb
                    )
                )
            return
        bottleneck = classify_task_end(m, self.cfg, self.reference_heap_mb)
        rec = self.db.lookup(m.task_key) or TaskRecord(key=m.task_key)
        self.db.enqueue_update(
            rec.updated_with(
                compute_time=m.compute_with_ser + m.gc_time,
                shuffle_read_time=m.fetch_wait_time,
                shuffle_write_time=m.shuffle_disk_time,
                peak_memory_mb=m.peak_memory_mb,
                gpu=m.used_gpu,
                node=m.node,
                runtime=m.run_time,
                bottleneck=bottleneck,
            )
        )
        if m.used_gpu and run.task.stage is not None:
            self.gpu_stages.add(run.task.stage.template_id)
        if run.task.stage is not None and self.cfg.stage_learning:
            self._stage_vote(run.task.stage.template_id, bottleneck)

    # -- within-stage learning -------------------------------------------------------

    def stage_majority(self, template_id: str) -> ResourceKind | None:
        """The stage's majority bottleneck once enough siblings finished."""
        if not self.cfg.stage_learning:
            return None
        votes = self._stage_votes.get(template_id)
        if votes is None or sum(votes.values()) < self.cfg.stage_learn_threshold:
            return None
        return max(votes.items(), key=lambda kv: kv[1])[0]

    def _stage_vote(self, template_id: str, bottleneck: ResourceKind) -> None:
        votes = self._stage_votes.setdefault(template_id, {})
        had_majority = (
            sum(votes.values()) >= self.cfg.stage_learn_threshold
        )
        votes[bottleneck] = votes.get(bottleneck, 0) + 1
        if had_majority:
            return
        majority = self.stage_majority(template_id)
        if majority is None:
            return
        # The majority just emerged: re-classify pending unknown siblings.
        for ts in self._stage_tasksets.pop(template_id, []):
            if not ts.is_active():
                continue
            for spec in ts.pending_specs():
                rec = self.db.lookup(spec.key)
                if rec is not None and rec.runs > 0:
                    continue  # has its own history
                self.queues.invalidate_task(ts, spec)
                self.queues.enqueue(
                    majority,
                    ts,
                    spec,
                    self.ctx.now,
                    locked_node=self._locked.get(spec.key),
                )
                self.ctx.obs.decisions.record_enqueue(
                    self.ctx.now, spec.key, majority.value
                )

    # -- queries used by the Dispatcher ----------------------------------------------

    def memory_estimate_mb(self, spec: "TaskSpec") -> float:
        """Peak memory to check against a node's free memory (Algorithm 2)."""
        rec = self.db.lookup(spec.key)
        if rec is not None and rec.peak_memory_mb > 0:
            return rec.peak_memory_mb
        return self.cfg.default_task_memory_mb

    def is_locked_to(self, spec: "TaskSpec", node_name: str) -> bool:
        """Whether the task is pinned to its best-observed executor."""
        return self.locked_node_of(spec) == node_name

    def locked_node_of(self, spec: "TaskSpec") -> str | None:
        """The node this task is pinned to, if it is locked at all (cached)."""
        return self._locked.get(spec.key)

    def _compute_lock(self, rec: TaskRecord) -> str | None:
        """The lock rule (evaluated once per record update, then cached).

        Locking requires both enough observations *and* evidence that the
        best node was meaningfully faster than the latest run — pinning a
        task to a node that never outperformed the alternatives would freeze
        an arbitrary placement, the opposite of the paper's intent (lock the
        placement that "achieved the best performance").
        """
        if rec.best_node is None:
            return None
        # Never pin to a node that has left the cluster (the record's
        # best_node can outlive the machine under churn); a static cluster
        # always passes this check, so dynamics-free runs are unchanged.
        if not self.ctx.cluster.has_node(rec.best_node):
            return None
        fully_characterized = len(rec.history_resources) == 5
        if not (fully_characterized or rec.runs >= self.cfg.lock_after_runs):
            return None
        if rec.best_runtime < self.cfg.lock_advantage * rec.last_runtime:
            return rec.best_node
        return None

    def _on_record_update(self, rec: TaskRecord) -> None:
        """DB update hook: refresh the lock cache and the queues' lock index."""
        node = self._compute_lock(rec)
        if node == self._locked.get(rec.key):
            return
        if node is None:
            del self._locked[rec.key]
        else:
            self._locked[rec.key] = node
        self.queues.update_lock(rec.key, node)

    def record_for(self, spec: "TaskSpec") -> TaskRecord | None:
        return self.db.lookup(spec.key)
