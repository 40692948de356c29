"""Stable public facade: build a simulated cluster, submit apps, get results.

Everything an experiment, test, or script needs in one object::

    from repro import Session

    s = Session(cluster="hydra", scheduler="rupam", seed=7)
    s.submit("lr", size_gb=4.0)
    s.submit("terasort", at=30.0, weight=2.0)
    results = s.run_until_idle()

:class:`Session` owns the Simulator/cluster/conf/context/Driver wiring that
used to be copy-pasted across ``experiments/runner.py``, ``tests/conftest.py``
and the CLI.  Apps can be submitted by registry name (with workload
overrides) or as prebuilt :class:`~repro.spark.application.Application`
objects, immediately or at a future simulated time, each with fair-share
pool parameters.  ``run_until_idle`` drains the simulation and returns one
:class:`~repro.spark.driver.AppResult` per submission, in submission order.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.cluster import Cluster
from repro.cluster.dynamics import ClusterDynamics, ClusterEvent, ClusterTimeline
from repro.cluster.monitor import ClusterMonitor
from repro.cluster.presets import (
    hydra_cluster,
    motivational_cluster,
    multirack_cluster,
)
from repro.core.config import RupamConfig
from repro.core.rupam import RupamScheduler
from repro.core.taskdb import TaskCharDB
from repro.obs.decision import Observability
from repro.simulate.engine import Simulator
from repro.simulate.randomness import RandomSource
from repro.simulate.trace import TraceRecorder
from repro.spark.application import Application
from repro.spark.blocks import BlockManager
from repro.spark.conf import SparkConf
from repro.spark.default_scheduler import DefaultScheduler
from repro.spark.driver import AppHandle, AppResult, Driver
from repro.spark.scheduler import SchedulerContext, TaskScheduler
from repro.spark.shuffle import ShuffleManager
from repro.workloads.base import WorkloadEnv
from repro.workloads.registry import build_workload

CLUSTERS = {
    "hydra": hydra_cluster,
    "motivational": motivational_cluster,
    "multirack": multirack_cluster,
}

# The paper runs the Spark master (and driver) on stack1, which is also a
# worker; the motivational cluster drives from node-1.
DRIVER_NODES = {
    "hydra": "stack1",
    "motivational": "node-1",
    "multirack": "r0-stack1",
}


def reset_run_ids() -> None:
    """Restart every process-global id sequence (stages, jobs, executors).

    The absolute values of these ids leak into run artifacts
    (``TaskMetrics.stage_id``, job/executor names in traces), so without a
    reset a run's output would depend on how many runs this *process* had
    executed before it — and a serial loop would differ from forked pool
    workers.  Resetting per session makes every run a pure function of its
    spec, which the parallel harness and the run cache rely on.  Ids only
    need to be unique within one session (tasksets, shuffle registries, and
    executor maps are all per-driver).
    """
    from repro.spark.application import Job
    from repro.spark.executor import Executor
    from repro.spark.stage import Stage

    Stage.reset_ids()
    Job.reset_ids()
    Executor.reset_ids()


class Session:
    """One simulated cluster accepting any number of application submissions.

    Args:
        cluster: preset name (``hydra``/``motivational``/``multirack``) or a
            callable ``Simulator -> Cluster`` (a custom topology; the driver
            defaults to its first node unless ``driver_node`` says otherwise).
        scheduler: ``"spark"`` / ``"rupam"`` or a ready
            :class:`TaskScheduler` instance.
        seed: root seed for every named randomness stream.
        conf: a full :class:`SparkConf`, or ``None`` to build one from
            ``conf_overrides``.
        rupam_overrides: :class:`RupamConfig` overrides (rupam only).
        db: an existing :class:`TaskCharDB` to carry RUPAM task knowledge
            across sessions.
        monitor_interval: utilization sampling period; ``None`` disables it.
        trace / trace_max_events / observe: observability toggles, as on
            :class:`~repro.experiments.runner.RunSpec`.
        events: a :class:`~repro.cluster.dynamics.ClusterTimeline` of node
            churn / preemption / rack-failure events (and optional autoscale
            policy) to play against this session's cluster.  ``None`` (the
            default) builds no dynamics machinery at all, so the run is
            byte-identical to one from before this API existed.
    """

    def __init__(
        self,
        cluster: str | Any = "hydra",
        scheduler: str | TaskScheduler = "spark",
        seed: int = 0,
        conf: SparkConf | None = None,
        conf_overrides: dict[str, Any] | None = None,
        rupam_overrides: dict[str, Any] | None = None,
        db: TaskCharDB | None = None,
        monitor_interval: float | None = 1.0,
        trace: bool = False,
        trace_max_events: int | None = None,
        observe: bool = True,
        driver_node: str | None = None,
        events: ClusterTimeline | None = None,
    ):
        # Construction order mirrors the historical run_once() exactly so a
        # one-app Session replays the same event/RNG sequence byte-for-byte.
        reset_run_ids()
        self.sim = Simulator()
        if callable(cluster):
            built: Cluster = cluster(self.sim)
            if driver_node is None:
                driver_node = built.nodes[0].name
        else:
            if cluster not in CLUSTERS:
                raise ValueError(f"unknown cluster {cluster!r}")
            built = CLUSTERS[cluster](self.sim)
            if driver_node is None:
                driver_node = DRIVER_NODES[cluster]
        self.cluster = built
        if conf is None:
            conf = SparkConf().with_overrides(**(conf_overrides or {}))
        elif conf_overrides:
            conf = conf.with_overrides(**conf_overrides)
        self.conf = conf
        self.rng = RandomSource(seed)
        self.blocks = BlockManager(
            {
                rack: [n.name for n in nodes]
                for rack, nodes in self.cluster.racks.items()
            },
            # Rack-aware locality only matters once the network is not flat;
            # Spark itself only resolves racks when given a topology script.
            rack_aware=self.cluster.inter_rack_factor > 1.0,
        )
        self.env = WorkloadEnv(
            cluster=self.cluster, blocks=self.blocks, rng=self.rng
        )
        self.ctx = SchedulerContext(
            sim=self.sim,
            conf=self.conf,
            cluster=self.cluster,
            blocks=self.blocks,
            shuffle=ShuffleManager(),
            rng=self.rng,
            trace=TraceRecorder(enabled=trace, max_events=trace_max_events),
            driver_node=driver_node,
            obs=Observability(enabled=observe),
        )
        self.monitor = (
            ClusterMonitor(
                self.sim,
                self.cluster,
                interval=monitor_interval,
                obs=self.ctx.obs,
            )
            if monitor_interval is not None
            else None
        )
        if isinstance(scheduler, TaskScheduler):
            self.scheduler = scheduler
        elif scheduler == "spark":
            self.scheduler = DefaultScheduler()
        elif scheduler == "rupam":
            self.scheduler = RupamScheduler(
                cfg=RupamConfig().with_overrides(**(rupam_overrides or {})),
                db=db,
            )
        else:
            raise ValueError(f"unknown scheduler {scheduler!r}")
        self.driver = Driver(self.ctx, self.scheduler, monitor=self.monitor)
        self.handles: list[AppHandle] = []
        # Cluster dynamics are strictly opt-in: without a timeline no
        # dynamics object exists and nothing extra is scheduled (golden-trace
        # parity with dynamics-free builds).
        self.dynamics = (
            ClusterDynamics(self.driver, events) if events is not None else None
        )

    # -- cluster lifecycle -------------------------------------------------------

    def inject(self, event: ClusterEvent, at: float | None = None) -> None:
        """Inject one cluster event (``NodeJoin`` / ``NodeDecommission`` /
        ``SpotPreemption`` / ``RackFailure`` / ``ExecutorFailure``), now or
        at a future simulated time.

        For example::

            s = Session(cluster="hydra", scheduler="rupam")
            s.submit("lr", size_gb=4.0)
            s.inject(SpotPreemption(node="thor2"), at=30.0)
            s.run_until_idle()
        """
        if self.dynamics is None:
            self.dynamics = ClusterDynamics(self.driver, ClusterTimeline())
        self.dynamics.inject(event, at=at)

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        app: Application | str,
        at: float | None = None,
        pool: str | None = None,
        weight: float | None = None,
        min_share: int | None = None,
        **workload_overrides: Any,
    ) -> AppHandle:
        """Submit an application — a prebuilt :class:`Application` or a
        workload-registry name (``workload_overrides`` feed the builder).

        ``at`` defers activation to a future sim time; ``pool``/``weight``/
        ``min_share`` parameterize fair sharing (``conf.scheduler_mode``)
        and default to the application's own declared values.
        """
        if isinstance(app, str):
            app = build_workload(app, self.env, **workload_overrides)
        elif workload_overrides:
            raise ValueError(
                "workload overrides only apply to registry-name submissions"
            )
        handle = self.driver.submit(
            app, at=at, pool=pool, weight=weight, min_share=min_share
        )
        self.handles.append(handle)
        return handle

    # -- execution -------------------------------------------------------------

    def run_until_idle(self, until: float | None = None) -> list[AppResult]:
        """Drain the simulation and return every submission's result.

        Raises if any app is still unfinished when the event queue drains
        (or ``until`` cuts the run short)."""
        self.sim.run(until=until)
        unfinished = [h.app.name for h in self.handles if h.is_active]
        if unfinished:
            raise RuntimeError(
                f"application {', '.join(unfinished)} did not finish "
                f"(simulation drained at t={self.sim.now:.1f}s)"
            )
        return self.results

    @property
    def results(self) -> list[AppResult]:
        """Results of every finished submission, in submission order."""
        return [h.result() for h in self.handles if not h.is_active]
