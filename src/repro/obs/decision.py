"""Dispatch-decision tracing: why every task landed where it did.

Each launch emits one :class:`DispatchDecision` carrying the full context of
Algorithm 2's choice — the resource queue the round-robin was servicing, the
node popped from the per-resource priority queue (with its utilization
vector), the task selected, its locality level and memory-fit numbers, the
``optExecutor`` lock status, and how long the task had waited in queue.
Every *rejection* along the way is tallied by reason code; per-task
rejection histories are kept in small ring buffers so a long run's memory
stays bounded while ``explain(task)`` can still show recent skip reasons.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Span, SpanRecorder
from repro.obs.windows import WindowedMetrics
from repro.simulate.engine import COMPACT_MIN_DEAD

# Per-task-key queue-admission histories are rings: task keys are shared
# across applications of the same workload (keys are not app-prefixed), so
# under an open-loop stream one key would otherwise accumulate every app's
# admissions forever.  64 covers any plausible explain() session.
MAX_ADMISSIONS_PER_KEY = 64

# Reason codes for rejections (why a candidate placement did NOT happen).
NO_FIT_MEMORY = "no-fit-memory"      # task's est. peak memory > node free heap
QUEUE_EMPTY = "queue-empty"          # a kind's task queue had no live entry
LOCALITY_WAIT = "locality-wait"      # delay scheduling withheld the task
NODE_BUSY = "node-busy"              # popped node had no free slot/unit
LOCK_WAIT = "lock-wait"              # task waits for its optExecutor node
TASKSET_BLOCKED = "taskset-blocked"  # parent shuffle re-run blocks the stage

REJECTION_REASONS = (
    NO_FIT_MEMORY,
    QUEUE_EMPTY,
    LOCALITY_WAIT,
    NODE_BUSY,
    LOCK_WAIT,
    TASKSET_BLOCKED,
)

# Reason codes for launches (why this placement DID happen).
LAUNCH_LOCKED = "locked-node"        # cross-queue optExecutor lock match
LAUNCH_MEM_OVERRIDE = "mem-override-lock"  # lock overrode the memory check
LAUNCH_PROCESS_LOCAL = "process-local"
LAUNCH_BEST_LOCALITY = "best-locality"
LAUNCH_DELAY_SCHED = "delay-scheduling"    # stock Spark's only policy
LAUNCH_SPECULATIVE = "speculative-straggler"
LAUNCH_GPU_ON_CPU = "gpu-task-on-cpu"      # starving GPU task ran on CPU
LAUNCH_GPU_RACE = "gpu-race"               # idle GPU raced a CPU copy


@dataclass(frozen=True)
class DispatchDecision:
    """One launch decision, with everything needed to explain it."""

    time: float
    task_key: str
    attempt: int
    node: str
    queue: str               # resource queue serviced by the round-robin
    locality: str
    reason: str              # one of the LAUNCH_* codes
    speculative: bool = False
    mem_estimate_mb: float = 0.0
    free_memory_mb: float = 0.0
    locked_node: str | None = None
    wait_s: float | None = None  # enqueue -> launch (dispatch latency)
    node_utilization: dict[str, float] = field(default_factory=dict)
    app: str = ""                # owning application ("" pre-multi-tenant)

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "decision",
            "t": self.time,
            "app": self.app,
            "task": self.task_key,
            "attempt": self.attempt,
            "node": self.node,
            "queue": self.queue,
            "locality": self.locality,
            "reason": self.reason,
            "speculative": self.speculative,
            "mem_estimate_mb": self.mem_estimate_mb,
            "free_memory_mb": self.free_memory_mb,
            "locked_node": self.locked_node,
            "wait_s": self.wait_s,
            "node_utilization": self.node_utilization,
        }


@dataclass(frozen=True)
class Rejection:
    """One skipped placement, with its reason code."""

    time: float
    reason: str              # one of the rejection reason codes
    task_key: str | None = None
    node: str | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "rejection",
            "t": self.time,
            "reason": self.reason,
            "task": self.task_key,
            "node": self.node,
            "detail": self.detail,
        }


@dataclass
class TaskExplanation:
    """Everything the trace knows about one task key."""

    task_key: str
    queues: list[tuple[float, str]]       # (time, kind) admission history
    decisions: list[DispatchDecision]
    rejections: list[Rejection]
    rejections_dropped: int = 0

    def render(self) -> str:
        lines = [f"task {self.task_key}"]
        if self.queues:
            lines.append("  admitted to queues:")
            for t, kind in self.queues:
                lines.append(f"    t={t:10.3f}s  -> {kind}")
        if self.rejections:
            dropped = (
                f" ({self.rejections_dropped} older dropped)"
                if self.rejections_dropped
                else ""
            )
            lines.append(f"  rejections{dropped}:")
            for r in self.rejections:
                where = f" on {r.node}" if r.node else ""
                extra = (
                    "  " + " ".join(f"{k}={v}" for k, v in r.detail.items())
                    if r.detail
                    else ""
                )
                lines.append(f"    t={r.time:10.3f}s  {r.reason}{where}{extra}")
        if self.decisions:
            lines.append("  launches:")
            for d in self.decisions:
                wait = f" wait={d.wait_s:.3f}s" if d.wait_s is not None else ""
                lock = f" lock={d.locked_node}" if d.locked_node else ""
                spec = " speculative" if d.speculative else ""
                lines.append(
                    f"    t={d.time:10.3f}s  attempt {d.attempt} -> {d.node}"
                    f"  queue={d.queue} locality={d.locality}"
                    f" reason={d.reason}{spec}"
                    f" mem={d.mem_estimate_mb:.0f}/{d.free_memory_mb:.0f}MB"
                    f"{lock}{wait}"
                )
        else:
            lines.append("  launches: (none)")
        return "\n".join(lines)


# Rejection tallies fire on every empty dispatch round (thousands per run), so
# the reason -> counter-name mapping is cached rather than rebuilt per call.
_REJECT_METRIC: dict[str, str] = {}
_LAUNCH_METRIC: dict[str, str] = {}


def _reject_metric(reason: str) -> str:
    name = _REJECT_METRIC.get(reason)
    if name is None:
        name = _REJECT_METRIC[reason] = f"dispatch.reject.{reason}"
    return name


def _launch_metric(reason: str) -> str:
    name = _LAUNCH_METRIC.get(reason)
    if name is None:
        name = _LAUNCH_METRIC[reason] = f"dispatch.launch.{reason}"
    return name


class DecisionTrace:
    """Collects dispatch decisions and rejections for one run."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        enabled: bool = True,
        max_rejections_per_task: int = 16,
        windows: "WindowedMetrics | None" = None,
    ):
        self.enabled = enabled
        self.metrics = metrics
        self.windows = windows
        self.max_rejections_per_task = max_rejections_per_task
        self.decisions: list[DispatchDecision] = []
        self.reason_counts: dict[str, int] = {}
        self._queues_of: dict[str, deque[tuple[float, str]]] = {}
        self._decisions_of: dict[str, list[DispatchDecision]] = {}
        self._rejections_of: dict[str, deque[Rejection]] = {}
        self._rejections_dropped: dict[str, int] = {}
        # App-state reclamation: decision counts per app (maintained on the
        # write path), released apps' ids, and how many retained decisions
        # they account for — swept on the shared half-dead schedule.
        self._app_decision_counts: dict[str, int] = {}
        self._released: set[str] = set()
        self._released_decisions = 0

    # -- write path --------------------------------------------------------------

    def record_enqueue(self, time: float, task_key: str, queue: str) -> None:
        if not self.enabled:
            return
        ring = self._queues_of.get(task_key)
        if ring is None:
            ring = self._queues_of[task_key] = deque(
                maxlen=MAX_ADMISSIONS_PER_KEY
            )
        ring.append((time, queue))

    def record_launch(self, decision: DispatchDecision) -> None:
        if not self.enabled:
            return
        self.decisions.append(decision)
        self._decisions_of.setdefault(decision.task_key, []).append(decision)
        if decision.app:
            self._app_decision_counts[decision.app] = (
                self._app_decision_counts.get(decision.app, 0) + 1
            )
        self.metrics.inc(_launch_metric(decision.reason))
        if decision.wait_s is not None:
            self.metrics.observe("dispatch.latency_s", decision.wait_s)
            if self.windows is not None:
                self.windows.observe(
                    "dispatch.wait_s", decision.time, decision.wait_s
                )

    def record_rejection(
        self,
        time: float,
        reason: str,
        task_key: str | None = None,
        node: str | None = None,
        **detail: Any,
    ) -> None:
        if not self.enabled:
            return
        self.reason_counts[reason] = self.reason_counts.get(reason, 0) + 1
        self.metrics.inc(_reject_metric(reason))
        if task_key is None:
            return
        ring = self._rejections_of.get(task_key)
        if ring is None:
            ring = self._rejections_of[task_key] = deque(
                maxlen=self.max_rejections_per_task
            )
        if len(ring) == ring.maxlen:
            self._rejections_dropped[task_key] = (
                self._rejections_dropped.get(task_key, 0) + 1
            )
        ring.append(Rejection(time, reason, task_key, node, detail))

    def tally_rejections(self, reason: str, count: int) -> None:
        """Bulk keyless rejection tally.

        Equivalent to ``count`` task-key-less :meth:`record_rejection` calls.
        Empty dispatch rounds fire thousands of these per run, so the
        dispatcher batches them per dispatch call and flushes one increment.
        """
        if not self.enabled or count <= 0:
            return
        self.reason_counts[reason] = self.reason_counts.get(reason, 0) + count
        self.metrics.inc(_reject_metric(reason), float(count))

    # -- app-state reclamation -----------------------------------------------------

    def release_app(self, app_id: str) -> None:
        """Drop this application's decisions (service mode) — amortized.

        The app is tombstoned with the decision count the write path already
        maintained; the decision list (and its per-task grouping) is rebuilt
        once released decisions are at least half the list (with the shared
        compaction floor).  Summary tallies (``reason_counts``, metrics) are
        aggregates and intentionally survive.
        """
        if not self.enabled:
            return
        count = self._app_decision_counts.pop(app_id, 0)
        self._released.add(app_id)
        self._released_decisions += count
        if (
            self._released_decisions >= COMPACT_MIN_DEAD
            and self._released_decisions * 2 >= len(self.decisions)
        ):
            self.flush_released()

    def flush_released(self) -> None:
        """Sweep tombstoned apps' decisions immediately."""
        if not self._released:
            return
        released = self._released
        self.decisions = [
            d for d in self.decisions if d.app not in released
        ]
        grouped: dict[str, list[DispatchDecision]] = {}
        for d in self.decisions:
            grouped.setdefault(d.task_key, []).append(d)
        self._decisions_of = grouped
        released.clear()
        self._released_decisions = 0

    # -- read path ---------------------------------------------------------------

    @staticmethod
    def _app_matches(app_id: str, query: str) -> bool:
        """``query`` names an app by exact id or by its pre-``@N`` name."""
        return app_id == query or app_id.split("@", 1)[0] == query

    def apps(self) -> list[str]:
        """Distinct app ids seen on launch decisions, sorted."""
        return sorted({d.app for d in self.decisions if d.app})

    def task_keys(self, app: str | None = None) -> list[str]:
        """All known task keys; ``app`` restricts to one application.

        Task keys are *not* app-prefixed (``lr:gradient#3``), so in
        multi-tenant runs two apps of the same workload share keys; the app
        filter disambiguates via the launch decisions' ``app`` field.
        """
        keys = set(self._decisions_of) | set(self._rejections_of)
        keys.update(self._queues_of)
        if app is not None:
            keys &= {
                k
                for k, ds in self._decisions_of.items()
                if any(self._app_matches(d.app, app) for d in ds)
            }
        return sorted(keys)

    def explain(self, task_key: str, app: str | None = None) -> TaskExplanation:
        decisions = list(self._decisions_of.get(task_key, []))
        if app is not None:
            decisions = [d for d in decisions if self._app_matches(d.app, app)]
        return TaskExplanation(
            task_key=task_key,
            queues=list(self._queues_of.get(task_key, [])),
            decisions=decisions,
            rejections=list(self._rejections_of.get(task_key, [])),
            rejections_dropped=self._rejections_dropped.get(task_key, 0),
        )

    def matching_keys(self, query: str, app: str | None = None) -> list[str]:
        """Exact match wins; otherwise substring matches, sorted.

        ``app`` filters to one application's tasks.  A query of the form
        ``app/key`` (e.g. ``lr@1/lr:gradient#3``) is normalized into the
        equivalent ``(app=..., query=key)`` form when the prefix names a
        known app.
        """
        if app is None and "/" in query:
            prefix, rest = query.split("/", 1)
            if any(self._app_matches(a, prefix) for a in self.apps()):
                app, query = prefix, rest
        keys = self.task_keys(app=app)
        if query in keys:
            return [query]
        return [k for k in keys if query in k]


class Observability:
    """The per-run observability bundle: metrics, decisions, spans, windows.

    Created once per simulated application and carried on the
    :class:`~repro.spark.scheduler.SchedulerContext`; disabled instances
    turn every recording call into a cheap no-op.
    """

    def __init__(self, enabled: bool = True, sample_interval_s: float = 1.0):
        self.enabled = enabled
        self.metrics = MetricsRegistry(enabled=enabled)
        self.spans = SpanRecorder(enabled=enabled)
        self.windows = WindowedMetrics(enabled=enabled)
        self.decisions = DecisionTrace(
            self.metrics, enabled=enabled, windows=self.windows
        )
        self.sample_interval_s = sample_interval_s
        self._last_queue_sample = -math.inf
        self._last_util_sample = -math.inf
        self._sim_counter_base: dict[str, int] = {}

    def merge_run(self, other: "Observability") -> None:
        """Fold a finished run's observability bundle into this one.

        The parallel experiment pool calls this once per completed run so the
        parent process keeps a fleet-level aggregate: counters, histograms,
        and time series merge exactly (see :meth:`MetricsRegistry.merge_from`
        — every run's simulated clock starts at t=0, so merged series read as
        per-instant fleet samples), sliding windows merge bucket-by-epoch
        (:meth:`WindowedMetrics.merge_from`), and the decision trace
        contributes its *summary* — per-reason launch and rejection tallies —
        rather than every individual decision, keeping the parent's memory
        independent of grid size.  Per-task explanation state (``explain``)
        and causal spans intentionally stay per-run.
        """
        if not self.enabled or other is None:
            return
        self.metrics.merge_from(other.metrics)
        other_windows = getattr(other, "windows", None)
        if other_windows is not None:
            self.windows.merge_from(other_windows)
        for reason, count in other.decisions.reason_counts.items():
            self.decisions.reason_counts[reason] = (
                self.decisions.reason_counts.get(reason, 0) + count
            )

    def release_app(self, app_id: str) -> None:
        """Release one reclaimed application's observability state.

        Pops the per-app task-outcome counters and tombstones the app in the
        decision trace and span ring (each sweeps on the shared half-dead
        compaction schedule).  Cluster-level aggregates — reason tallies,
        windows, series — are untouched: they are what service-mode
        monitoring still wants after the app itself is gone.
        """
        if not self.enabled:
            return
        counters = self.metrics.counters
        for outcome in ("succeeded", "oom", "killed", "failed", "launched"):
            counters.pop(f"app.{app_id}.tasks.{outcome}", None)
        self.decisions.release_app(app_id)
        self.spans.release_app(app_id)

    def flush_released(self) -> None:
        """Force deferred release-compaction through (quiesce points call
        this so idle-state memory and leak assertions are deterministic)."""
        if not self.enabled:
            return
        self.decisions.flush_released()
        self.spans.flush_released()

    def record_span(self, span: Span, trace: Any = None) -> None:
        """Record a finished causal span; mirror into the sim trace if given.

        ``trace`` is the run's :class:`~repro.simulate.trace.TraceRecorder`;
        when simulation tracing is enabled the span rides the trace's event
        stream too (kind ``"span"``), so span data reaches every trace
        export path.
        """
        if not self.enabled:
            return
        self.spans.record(span)
        if trace is not None:
            # Same payload as span.to_dict() minus "type", with "kind"
            # renamed to "span_kind" (TraceEvent has its own event kind) —
            # built directly to keep the per-span mirror allocation-light.
            trace.record(
                span.end,
                "span",
                span_id=span.span_id,
                span_kind=span.kind,
                name=span.name,
                parent_id=span.parent_id,
                t0=span.start,
                t1=span.end,
                phases=[[n, s] for n, s in span.phases],
                attrs=span.attrs,
            )

    def note_trace_state(self, trace: Any) -> None:
        """Snapshot trace/span ring-buffer health into gauges.

        Called at every quiesce point so ``repro metrics`` and the RunReport
        can surface silent drops (``trace.dropped``) and ring occupancy.
        """
        if not self.enabled:
            return
        g = self.metrics.set_gauge
        if trace is not None:
            g("trace.enabled", 1.0 if trace.enabled else 0.0)
            g("trace.events", float(len(trace)))
            g("trace.dropped", float(trace.dropped))
            if trace.max_events is not None:
                g("trace.capacity", float(trace.max_events))
                g("trace.occupancy", trace.occupancy)
        g("trace.spans", float(len(self.spans)))
        g("trace.spans_dropped", float(self.spans.dropped))

    def record_sim_counters(self, sim, resources: "Iterable[Any]" = ()) -> None:
        """Fold the simulation core's counters into the metrics registry.

        ``sim`` is the :class:`~repro.simulate.engine.Simulator`;
        ``resources`` is any iterable of
        :class:`~repro.simulate.resources.FluidResource`.  Deltas since the
        previous call are added, so the driver can flush at every quiesce
        point (e.g. whenever the cluster goes idle) without double-counting.
        """
        if not self.enabled:
            return
        values = {
            "sim.events_scheduled": sim.events_scheduled,
            "sim.events_cancelled": sim.events_cancelled,
            "sim.events_fired": sim.events_processed,
            "sim.heap_compactions": sim.heap_compactions,
        }
        refits = refits_coalesced = 0
        for r in resources:
            refits += r.refits
            refits_coalesced += r.refits_coalesced
        values["fluid.refits"] = refits
        values["fluid.refits_coalesced"] = refits_coalesced
        base = self._sim_counter_base
        for name, value in values.items():
            delta = value - base.get(name, 0)
            if delta or name not in self.metrics.counters:
                self.metrics.inc(name, delta)
            base[name] = value

    def sample_queue_depths(
        self, now: float, depths: "dict[str, int] | Callable[[], dict[str, int]]"
    ) -> None:
        """Record queue-depth series, rate-limited to the sample interval.

        ``depths`` may be a callable so the (possibly costly) depth count is
        only computed when a sample is actually due.
        """
        if not self.enabled or now - self._last_queue_sample < self.sample_interval_s:
            return
        self._last_queue_sample = now
        for name, depth in (depths() if callable(depths) else depths).items():
            self.metrics.sample(f"queue.depth.{name}", now, float(depth))

    def sample_utilization(
        self, now: float, utils: "dict[str, float] | Callable[[], dict[str, float]]"
    ) -> None:
        """Record per-resource-kind utilization series, rate-limited."""
        if not self.enabled or now - self._last_util_sample < self.sample_interval_s:
            return
        self._last_util_sample = now
        for name, value in (utils() if callable(utils) else utils).items():
            self.metrics.sample(f"util.{name}", now, value)
