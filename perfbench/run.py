"""The repository benchmark: complete ``Session`` runs of the real model.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig5-hydra --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 20 --trace 1

Every run is serial, in this one process, and starts with one untimed
warm-up pass (every session under both schedulers) whose signatures are the
reference for the rest of the run.  ``--trace 0`` then repeats each
scheduler's sessions for half of ``--seconds`` and reports the end-to-end
metrics, with no tracing installed.  ``--trace 1`` runs one more untraced
pass, the reference for tracing overhead, then passes under
:class:`perfbench.layers.LayerTracer` for ``--seconds`` and reports the
per-layer metrics.  Human-readable tables go first; the last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up is sampled at least this many times per run (the timed repetitions,
# then set-up-only builds) and reported as the median.
SETUP_SAMPLES = 5


def _import_program() -> None:
    """Put this checkout's sources first on the path, or exit with an error."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}/repro")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS mark for this process (Linux)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def _peak_rss_mb() -> float:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def account(self, passes, reference: dict[tuple[str, str], str]) -> None:
        """Count operations; a signature differing from the reference pass
        fails that session's operations too."""
        for p in passes:
            self.attempted += p.attempted
            self.failed += p.failed
            for s in p.sessions:
                ref = reference[s.label, s.scheduler]
                if s.signature != ref:
                    self.failed += s.apps - s.apps_failed
                    self.problems.append(
                        f"{s.label}/{s.scheduler}: signature {s.signature[:12]} "
                        f"differs from the reference run's {ref[:12]}"
                    )


def _timed_passes(workload, seconds: float, tracer=None, schedulers=None):
    """Passes (of the given schedulers, default both) for at least ``seconds``."""
    from perfbench.harness import run_pass
    from perfbench.workloads import SCHEDULERS

    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(workload, tracer, schedulers or SCHEDULERS))
    return passes


def _report_failures(passes) -> None:
    seen = set()
    for s in (s for p in passes for s in p.sessions):
        if s.apps_failed and (s.label, s.scheduler) not in seen:
            seen.add((s.label, s.scheduler))
            where = (
                f"spent the {s.events}-event budget at t={s.sim_time_s:.2f}s, "
                f"busiest callback {s.hot_callback}"
                if s.overran
                else f"stopped at t={s.sim_time_s:.2f}s"
            )
            print(
                f"  failed ops: {s.label}/{s.scheduler}: {s.apps_failed} of "
                f"{s.apps} apps ({', '.join(s.unfinished) or 'aborted'}); {where}"
            )


def end_to_end(workload, seconds: float) -> Run:
    from perfbench.harness import run_pass, setup_only
    from perfbench.workloads import SCHEDULERS

    run = Run()
    reference = run_pass(workload)  # untimed warm-up
    # Each scheduler gets half the time, so the short Spark sessions are
    # repeated more often than the RUPAM ones and their median settles too.
    reps = {
        sched: _timed_passes(workload, seconds / len(SCHEDULERS), schedulers=(sched,))
        for sched in SCHEDULERS
    }
    everything = [p for sched in SCHEDULERS for p in reps[sched]]
    run.account(everything, reference.signatures)
    for sched in SCHEDULERS:
        run.metric(
            f"tasks_per_s.{sched}",
            statistics.median(p.tasks_per_s(sched) for p in reps[sched]),
            "tasks/s",
        )
    # A set-up sample is one full pass's worth: both schedulers' sessions.
    setups = [a.setup_ref_s + b.setup_ref_s for a, b in zip(*reps.values())]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_only(workload))
    run.metric("setup_s", statistics.median(setups), "s")
    run.metric("peak_rss_mb", _peak_rss_mb(), "MB")
    print(
        f"{workload.name}: seed {workload.seed}, timed repetitions "
        + ", ".join(f"{sched} {len(reps[sched])}" for sched in SCHEDULERS)
        + "; times in reference seconds. In plain host seconds: "
        + ", ".join(
            f"tasks_per_s.{sched} "
            f"{statistics.median(p.tasks_per_s(sched, reference=False) for p in reps[sched]):.6g}"
            for sched in SCHEDULERS
        )
    )
    _report_failures(everything)
    return run


# -- per-layer metrics ---------------------------------------------------------

# Layer metrics drawn from the tracer: (name, timers summed, field,
# schedulers it exists for, unit); field 0 = calls, 2 = self seconds.
_BOTH = ("spark", "rupam")
LAYER_METRICS: tuple[tuple[str, tuple[str, ...], int, tuple[str, ...], str], ...] = (
    ("engine.run.self_s", ("engine.run",), 2, _BOTH, "s"),
    ("resources.flow_ops", ("resources.acquire", "resources.abort"), 0, _BOTH, "count"),
    ("resources.flow.self_s", ("resources.acquire", "resources.abort"), 2, _BOTH, "s"),
    ("dispatcher.dispatch.calls", ("dispatcher.dispatch",), 0, ("rupam",), "count"),
    ("dispatcher.dispatch.self_s", ("dispatcher.dispatch",), 2, ("rupam",), "s"),
    ("dispatcher.schedule_task.calls", ("dispatcher.schedule_task",), 0, ("rupam",), "count"),
    ("taskset.has_speculatable.calls", ("taskset.has_speculatable",), 0, _BOTH, "count"),
    ("taskset.has_speculatable.self_s", ("taskset.has_speculatable",), 2, _BOTH, "s"),
    ("taskset.select_task.calls", ("taskset.select_task",), 0, ("spark",), "count"),
    ("queues.pop.calls", ("queues.pop",), 0, ("rupam",), "count"),
    (
        "queues.begin_round.self_s",
        ("queues.begin_round", "queues.begin_round_incremental"),
        2,
        ("rupam",),
        "s",
    ),
    ("task_manager.admit.calls", ("task_manager.admit",), 0, ("rupam",), "count"),
    ("task_manager.admit.self_s", ("task_manager.admit",), 2, ("rupam",), "s"),
    ("task_manager.record_task_end.self_s", ("task_manager.record_task_end",), 2, ("rupam",), "s"),
    ("resource_monitor.collect_now.calls", ("resource_monitor.collect_now",), 0, ("rupam",), "count"),
    ("resource_monitor.collect_now.self_s", ("resource_monitor.collect_now",), 2, ("rupam",), "s"),
    ("default_scheduler.revive.calls", ("default_scheduler.revive",), 0, ("spark",), "count"),
    ("default_scheduler.revive.self_s", ("default_scheduler.revive",), 2, ("spark",), "s"),
    ("pools.app_order.calls", ("pools.app_order",), 0, _BOTH, "count"),
    ("pools.app_order.self_s", ("pools.app_order", "pools.advance"), 2, _BOTH, "s"),
    ("driver.launch_task.calls", ("driver.launch_task",), 0, _BOTH, "count"),
    ("driver.task_ended.self_s", ("driver.task_ended",), 2, _BOTH, "s"),
    (
        "driver.node_events",
        ("driver.add_node", "driver.decommission_node", "driver.preempt_node", "driver.remove_node"),
        0,
        _BOTH,
        "count",
    ),
    ("obs.record_span.calls", ("obs.record_span",), 0, _BOTH, "count"),
    ("obs.decisions.self_s", ("obs.record_launch", "obs.record_rejection"), 2, _BOTH, "s"),
    ("obs.sample_queue_depths.self_s", ("obs.sample_queue_depths",), 2, _BOTH, "s"),
)
OBS_TIMERS = ("obs.record_span", "obs.sample_queue_depths", "obs.record_launch", "obs.record_rejection")


def _layer_sum(sessions, timers, field_index: int) -> float:
    return sum(s.layers[t][field_index] for s in sessions for t in timers)


def _reconcile(run: Run, passes) -> None:
    """Tracer call counts against the program's own counters, per session.

    Only sessions with observability on carry the counters; a timer whose
    count disagrees means some call path bypasses the wrapped function.
    """
    for s in passes[0].sessions:
        c = s.counters
        if not c:
            continue
        calls = {t: v[0] for t, v in s.layers.items()}
        where = f"{s.label}/{s.scheduler}"
        pairs = [
            ("driver.launch_task", calls["driver.launch_task"], c.get("tasks.launched", 0)),
            (
                "driver.task_ended",
                calls["driver.task_ended"],
                sum(c.get(f"tasks.{o}", 0) for o in ("succeeded", "oom", "killed", "failed")),
            ),
            ("obs.record_span", calls["obs.record_span"], s.span_records),
            ("obs.record_launch", calls["obs.record_launch"], s.decisions),
            ("driver.add_node", calls["driver.add_node"], c.get("cluster.node_joins", 0)),
            ("driver.remove_node", calls["driver.remove_node"], c.get("cluster.node_removals", 0)),
        ]
        if s.scheduler == "rupam":
            pairs.append(
                (
                    "task_manager.admit",
                    calls["task_manager.admit"],
                    sum(v for k, v in c.items() if k.startswith("tm.admit.")),
                )
            )
        if not s.overran:
            # Flushed only when the cluster goes idle, which a session
            # stopped by its event budget never reaches.
            pairs += [
                ("engine events", s.events, c.get("sim.events_fired", 0)),
                ("engine events_scheduled", s.events_scheduled, c.get("sim.events_scheduled", 0)),
            ]
            if s.scheduler == "rupam":
                pairs.append(
                    ("dispatcher.dispatch", calls["dispatcher.dispatch"], c.get("dispatch.calls", 0))
                )
        for name, traced, counted in pairs:
            run.check(
                traced == counted,
                f"{where}: {name} traced {traced:g} != program counter {counted:g}",
            )


def per_layer(workload, seconds: float) -> Run:
    from perfbench.harness import run_pass
    from perfbench.layers import LayerTracer
    from perfbench.workloads import SCHEDULERS

    run = Run()
    reference = run_pass(workload)  # untimed warm-up
    untraced = run_pass(workload)
    tracer = LayerTracer(run_id=f"{workload.name}-seed{workload.seed}-{time.time_ns()}")
    tracer.install()
    try:
        passes = _timed_passes(workload, seconds, tracer)
    finally:
        tracer.uninstall()
    run.account([untraced, *passes], reference.signatures)
    _reconcile(run, passes)
    first = passes[0]
    for p in passes[1:]:
        for a, b in zip(first.sessions, p.sessions):
            run.check(
                all(a.layers[t][0] == b.layers[t][0] for t in a.layers),
                f"{a.label}/{a.scheduler}: traced call counts differ between passes",
            )

    for sched in SCHEDULERS:

        def med(fn):
            return statistics.median(fn(p.of(sched)) for p in passes)

        mine = first.of(sched)
        launches = sum(s.launches for s in mine)
        for name, timers, field_index, scheds, unit in LAYER_METRICS:
            if sched in scheds:
                value = (
                    _layer_sum(mine, timers, field_index)
                    if field_index == 0
                    else med(lambda ss: _layer_sum(ss, timers, field_index))
                )
                run.metric(f"{name}.{sched}", value, unit)
        run.metric(f"engine.events.{sched}", sum(s.events for s in mine), "count")
        run.metric(
            f"engine.events_scheduled.{sched}", sum(s.events_scheduled for s in mine), "count"
        )
        if sched == "rupam":
            run.metric(
                "dispatcher.offers_per_launch.rupam",
                _layer_sum(mine, ("dispatcher.schedule_task",), 0) / launches,
                "offers/launch",
            )
        else:
            run.metric(
                "default_scheduler.revives_per_launch.spark",
                _layer_sum(mine, ("default_scheduler.revive",), 0) / launches,
                "revives/launch",
            )
        run.metric(
            f"obs.share.{sched}",
            med(lambda ss: _layer_sum(ss, OBS_TIMERS, 2) / sum(s.setup_s + s.drain_s for s in ss)),
            "ratio",
        )
        run.metric(f"setup.cluster_s.{sched}", med(lambda ss: sum(s.cluster_s for s in ss)), "s")
        run.metric(f"setup.workload_s.{sched}", med(lambda ss: sum(s.workload_s for s in ss)), "s")
        run.metric(
            f"trace.overhead.{sched}",
            statistics.median(p.drain_s(sched) for p in passes) / untraced.drain_s(sched),
            "ratio",
        )
        run.metric(f"model.makespan_s.{sched}", sum(s.makespan_s for s in mine), "sim-s")
        run.metric(f"model.launches.{sched}", launches, "count")
        run.metric(
            f"model.speculative_launches.{sched}",
            sum(s.speculative_launches for s in mine),
            "count",
        )
        run.metric(
            f"model.killed_attempts.{sched}", sum(s.killed_attempts for s in mine), "count"
        )
    gap = first.paper_gap_pp()
    if gap is not None:  # no app finished under both schedulers
        run.metric("model.paper_gap_pp", gap, "pct-points")

    if not any(plan.observe for plan in workload.plans):
        obs_calls = _layer_sum(first.sessions, OBS_TIMERS, 0)
        run.check(obs_calls == 0, f"obs is off but {obs_calls:g} obs calls were timed")

    spans_path = ROOT / ".perfbench" / f"spans-{workload.name}-seed{workload.seed}.json"
    tracer.write_spans(spans_path)
    print(f"{workload.name}: seed {workload.seed}, {len(passes)} traced passes")
    for s in first.sessions:
        print(f"  signature {s.label}/{s.scheduler}: {s.signature[:16]}")
    print(f"  spans: {spans_path.relative_to(ROOT)}")
    _report_failures(passes)
    return run


def _print_table(run: Run) -> None:
    width = max(len(n) for n in run.metrics)
    for name, (value, unit) in run.metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; known: all, {', '.join(WORKLOADS)}")

    measure = per_layer if args.trace else end_to_end
    total = Run()
    for name in names:
        if len(names) > 1 and not _reset_peak_rss():
            print("  note: peak RSS cannot be reset; it includes earlier workloads")
        run = measure(WORKLOADS[name](args.seed), args.seconds)
        _print_table(run)
        prefix = f"{name}:" if len(names) > 1 else ""
        total.attempted += run.attempted
        total.failed += run.failed
        total.problems += run.problems
        for metric, (value, unit) in run.metrics.items():
            total.metric(prefix + metric, value, unit)

    print(
        json.dumps(
            {
                "correct": not total.problems,
                "attempted": total.attempted,
                "failed": total.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in total.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
