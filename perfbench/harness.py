"""Run a workload's sessions and account for what each one did.

One *pass* runs every session of a workload under both schedulers, serially
in this process.  For each session the harness times set-up (``Session``
construction, then workload build + ``submit``) and drain
(``Simulator.run`` under the workload's event budget) on the host clock, and
derives everything else from the simulation itself:

* an **operation** is one application submission; it fails when its app
  aborts, is still unfinished when the session stops, or its session spent
  the whole event budget;
* a **signature** hashes every app's simulated outcome and every task
  attempt's metrics, so two runs of one seed can be compared bit for bit.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any

from repro.analysis.stats import improvement_pct
from repro.api import Session
from repro.experiments.calibration import PAPER_AVG_IMPROVEMENT_PCT
from repro.simulate.engine import SimulationError

from perfbench.layers import LayerTracer, delta
from perfbench.workloads import SCHEDULERS, SessionPlan, Workload

# Events run after an overrun to name the callback that keeps re-arming.
DIAGNOSE_EVENTS = 2_000

# The host time of identical work swings by up to 2x within minutes on a
# shared machine, and a fixed probe loop swings with it.  Timed work is
# therefore reported in *reference seconds*: host seconds scaled by
# REFERENCE_PROBE_S / (probe time measured around that work).
PROBE_ITERATIONS = 6_000
# A fixed scale: the probe's host time in a slow period of the 2-core machine
# this benchmark was tuned on.
REFERENCE_PROBE_S = 0.008
# Drains are probed about every CHUNK_S seconds; the first chunk is
# FIRST_CHUNK_EVENTS events and later ones are sized from the last one.
CHUNK_S = 0.2
FIRST_CHUNK_EVENTS = 100


@dataclass
class SessionOutcome:
    label: str
    scheduler: str
    cluster_s: float
    workload_s: float
    drain_s: float
    # Set-up and drain in reference seconds (see speed_probe); equal to the
    # host times in traced runs, which take no probes.
    setup_ref_s: float
    drain_ref_s: float
    apps: int
    apps_failed: int
    tasks_ok: int
    launches: int
    speculative_launches: int
    killed_attempts: int
    events: int
    events_scheduled: int
    sim_time_s: float
    makespan_s: float
    signature: str
    overran: bool = False
    unfinished: list[str] = field(default_factory=list)
    hot_callback: str | None = None
    # Simulated runtime of each submission, in submission order; None for an
    # app that did not finish.
    runtimes: list[float | None] = field(default_factory=list)
    # Traced runs only: per-timer (calls, inclusive_s, self_s) of the session.
    layers: dict[str, tuple[float, float, float]] | None = None
    # The program's own counters (obs on) and record counts, to reconcile
    # the tracer's call counts against.
    counters: dict[str, float] = field(default_factory=dict)
    span_records: int = 0
    decisions: int = 0

    @property
    def setup_s(self) -> float:
        return self.cluster_s + self.workload_s


def _plain(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, dict):
        return sorted(value.items())
    return value


def _attempt_row(m) -> list[Any]:
    return [_plain(getattr(m, f.name)) for f in fields(m)]


def signature_of(session: Session) -> str:
    """sha256 over every app's simulated outcome and task-attempt metrics."""
    apps = []
    for h in session.handles:
        state = "aborted" if h.aborted else "done" if h.done else "unfinished"
        apps.append(
            [
                h.app_id,
                state,
                h.submit_time,
                h.finish_time,
                [_attempt_row(r.metrics) for r in h.runs],
            ]
        )
    blob = json.dumps(
        [session.sim.now, session.sim.events_processed, apps],
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def build_session(plan: SessionPlan, scheduler: str) -> tuple[Session, float, float]:
    """Build and submit one session; returns it with its two set-up times."""
    t0 = time.perf_counter()
    session = Session(
        cluster=plan.cluster,
        scheduler=scheduler,
        seed=plan.seed,
        conf_overrides=dict(plan.conf_overrides),
        monitor_interval=plan.monitor_interval,
        observe=plan.observe,
        driver_node=plan.driver_node,
        events=plan.timeline() if plan.timeline is not None else None,
    )
    t1 = time.perf_counter()
    for sub in plan.submissions:
        session.submit(sub.workload, at=sub.at, weight=sub.weight, **sub.overrides)
    t2 = time.perf_counter()
    return session, t1 - t0, t2 - t1


def _hot_callback(session: Session) -> str:
    """The callback scheduled most often over a short window past the cap."""
    sim = session.sim
    seen: Counter[str] = Counter()
    schedule = sim.at

    def counting_at(when, fn, *args):
        seen[getattr(fn, "__qualname__", repr(fn))] += 1
        return schedule(when, fn, *args)

    sim.at = counting_at
    try:
        sim.run(max_events=DIAGNOSE_EVENTS)
    except SimulationError:
        pass
    finally:
        del sim.at
    return seen.most_common(1)[0][0] if seen else "<none>"


def speed_probe() -> float:
    """Host seconds of a fixed pure-Python loop (heap, dict and tuple churn,
    like the simulator's own hot paths): how fast this machine runs Python
    right now."""
    rng = random.Random(1)
    heap: list[tuple[float, int]] = []
    counts: dict[int, int] = {}
    t0 = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        heapq.heappush(heap, (rng.random(), i))
        counts[i % 997] = counts.get(i % 997, 0) + i
        if len(heap) > 500:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def to_reference_s(host_s: float, probe_before: float, probe_after: float) -> float:
    """Host seconds scaled to the reference speed, by the probes around them."""
    return host_s * 2.0 * REFERENCE_PROBE_S / (probe_before + probe_after)


def _run(sim, max_events: int) -> bool:
    """``sim.run`` under an event budget; True when the budget stopped it."""
    before = sim.events_processed
    try:
        sim.run(max_events=max_events)
    except SimulationError:
        if sim.events_processed - before < max_events:
            raise
        return True
    return False


@dataclass
class Drain:
    host_s: float
    reference_s: float
    overran: bool


def drain(sim, event_cap: int, probe_s: float | None = None) -> Drain:
    """Run to quiescence or until ``event_cap`` events have fired.

    Given ``probe_s`` (a :func:`speed_probe` taken just before), the run goes
    in chunks of about ``CHUNK_S`` with an untimed probe after each, and each
    chunk's host time is scaled to reference seconds by the probes around
    it.  Chunked and whole runs fire the same events in the same order.
    Without ``probe_s``: one uninterrupted run, reported in host seconds.
    """
    if probe_s is None:
        t0 = time.perf_counter()
        overran = _run(sim, event_cap)
        host_s = time.perf_counter() - t0
        return Drain(host_s, host_s, overran)
    host_s = reference_s = 0.0
    chunk = FIRST_CHUNK_EVENTS
    while True:
        t0 = time.perf_counter()
        stopped = _run(sim, min(chunk, event_cap - sim.events_processed))
        dt = time.perf_counter() - t0
        probe_after = speed_probe()
        host_s += dt
        reference_s += to_reference_s(dt, probe_s, probe_after)
        probe_s = probe_after
        if not stopped or sim.events_processed >= event_cap:
            return Drain(host_s, reference_s, stopped)
        # Size the next chunk to take about CHUNK_S of host time.
        chunk = max(10, min(10_000, int(chunk * CHUNK_S / max(dt, 1e-4))))


def build_probed(plan: SessionPlan, scheduler: str):
    """:func:`build_session` between two speed probes.  Returns the session,
    its set-up host times, set-up in reference seconds, and the last probe."""
    before = speed_probe()
    session, cluster_s, workload_s = build_session(plan, scheduler)
    after = speed_probe()
    setup_ref_s = to_reference_s(cluster_s + workload_s, before, after)
    return session, cluster_s, workload_s, setup_ref_s, after


def run_session(
    plan: SessionPlan,
    scheduler: str,
    event_cap: int,
    tracer: LayerTracer | None = None,
) -> SessionOutcome:
    """One session, timed in reference seconds; or, under ``tracer``, in
    plain host seconds with no probes, recording layer times and spans."""
    # Every session starts from a collected heap, so no session pays for the
    # cyclic garbage an earlier one left behind.
    gc.collect()
    if tracer is None:
        session, cluster_s, workload_s, setup_ref_s, probe = build_probed(plan, scheduler)
        ran = drain(session.sim, event_cap, probe)
        layers = None
    else:
        before = tracer.snapshot()
        with tracer.span("session", label=plan.label, scheduler=scheduler) as sid:
            with tracer.span("setup", parent=sid):
                session, cluster_s, workload_s = build_session(plan, scheduler)
            with tracer.span("drain", parent=sid):
                ran = drain(session.sim, event_cap)
        layers = delta(tracer.snapshot(), before)
        setup_ref_s = cluster_s + workload_s
    sim = session.sim

    handles = session.handles
    unfinished = [h.app_id for h in handles if h.is_active]
    failed = sum(1 for h in handles if h.aborted) + len(unfinished)
    runs = [r for h in handles for r in h.runs]
    started = [h for h in handles if h.submit_time is not None]
    ends = [sim.now if h.finish_time is None else h.finish_time for h in started]
    outcome = SessionOutcome(
        label=plan.label,
        scheduler=scheduler,
        cluster_s=cluster_s,
        workload_s=workload_s,
        drain_s=ran.host_s,
        drain_ref_s=ran.reference_s,
        setup_ref_s=setup_ref_s,
        apps=len(handles),
        apps_failed=failed,
        tasks_ok=sum(1 for r in runs if r.metrics.succeeded),
        launches=len(runs),
        speculative_launches=sum(1 for r in runs if r.metrics.speculative),
        killed_attempts=sum(1 for r in runs if r.metrics.killed),
        events=sim.events_processed,
        events_scheduled=sim.events_scheduled,
        sim_time_s=sim.now,
        makespan_s=max(ends, default=0.0) - min((h.submit_time for h in started), default=0.0),
        signature=signature_of(session),
        overran=ran.overran,
        unfinished=unfinished,
        runtimes=[h.finish_time - h.submit_time if h.done else None for h in handles],
        layers=layers,
        counters=dict(session.ctx.obs.metrics.counters) if plan.observe else {},
        span_records=len(session.ctx.obs.spans) + session.ctx.obs.spans.dropped,
        decisions=len(session.ctx.obs.decisions.decisions),
    )
    if ran.overran:
        # Diagnosed after the signature and the clock are taken: the extra
        # events are neither timed nor part of the session's result.
        outcome.hot_callback = _hot_callback(session)
    return outcome


@dataclass
class PassResult:
    sessions: list[SessionOutcome]

    def of(self, scheduler: str) -> list[SessionOutcome]:
        return [s for s in self.sessions if s.scheduler == scheduler]

    @property
    def setup_ref_s(self) -> float:
        return sum(s.setup_ref_s for s in self.sessions)

    def drain_s(self, scheduler: str) -> float:
        return sum(s.drain_s for s in self.of(scheduler))

    def tasks_per_s(self, scheduler: str, reference: bool = True) -> float:
        """Successful tasks per drain second (reference seconds by default)."""
        mine = self.of(scheduler)
        seconds = sum(s.drain_ref_s if reference else s.drain_s for s in mine)
        return sum(s.tasks_ok for s in mine) / seconds

    @property
    def attempted(self) -> int:
        return sum(s.apps for s in self.sessions)

    @property
    def failed(self) -> int:
        return sum(s.apps_failed for s in self.sessions)

    @property
    def signatures(self) -> dict[tuple[str, str], str]:
        return {(s.label, s.scheduler): s.signature for s in self.sessions}

    def paper_gap_pp(self) -> float | None:
        """|mean per-app RUPAM improvement over Spark - the paper's 37.7%|,
        over the apps (paired by session and submission index) that finished
        under both schedulers; None when there is no such app."""
        spark = {s.label: s for s in self.of("spark")}
        gains = [
            improvement_pct(s_rt, r_rt)
            for r in self.of("rupam")
            for s_rt, r_rt in zip(spark[r.label].runtimes, r.runtimes)
            if s_rt is not None and r_rt is not None
        ]
        if not gains:
            return None
        return abs(sum(gains) / len(gains) - PAPER_AVG_IMPROVEMENT_PCT)


def run_pass(
    workload: Workload,
    tracer: LayerTracer | None = None,
    schedulers: tuple[str, ...] = SCHEDULERS,
) -> PassResult:
    """Every session of the workload, once per scheduler."""
    sessions = []
    for plan in workload.plans:
        for scheduler in schedulers:
            sessions.append(
                run_session(plan, scheduler, workload.event_cap, tracer)
            )
    return PassResult(sessions)


def setup_only(workload: Workload) -> float:
    """Set-up of one pass without draining anything, in reference seconds."""
    total = 0.0
    for plan in workload.plans:
        for scheduler in SCHEDULERS:
            gc.collect()
            total += build_probed(plan, scheduler)[3]
    return total
