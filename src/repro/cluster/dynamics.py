"""Cluster dynamics: node churn, spot preemption, rack failures, autoscaling.

Real heterogeneous clusters are not static: spot capacity comes and goes,
machines are decommissioned mid-run, whole racks fail, and elastic fleets
grow and shrink with queue depth.  This module makes the simulated cluster
do all of that behind a declarative, seeded event schedule:

* **Events** — :class:`NodeJoin`, :class:`NodeDecommission`,
  :class:`SpotPreemption`, :class:`RackFailure`, :class:`ExecutorFailure` —
  are frozen descriptions of *what* happens; *when* comes from the
  :class:`ClusterTimeline` entry (or ``Session.inject(event, at=...)``).
* **ClusterTimeline** is the declarative schedule: explicit ``(at, event)``
  pairs plus an optional :class:`AutoscalePolicy`.  :meth:`seeded_churn`
  synthesizes a random schedule from the dedicated
  :data:`~repro.simulate.randomness.DYNAMICS_STREAM`, so enabling churn
  never perturbs any other consumer of randomness.
* **ClusterDynamics** executes the schedule against the driver, emits one
  trace record, metric, and causal span per applied event, and runs the
  queue-depth autoscaler while the driver's services are up.

Determinism: events fire at fixed simulated times in insertion order, the
only randomness is the dynamics stream, and a session constructed without a
timeline schedules nothing — byte-identical to a dynamics-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Union

from repro.cluster.hardware import NodeSpec
from repro.obs.span import Span
from repro.simulate.randomness import DYNAMICS_STREAM, RandomSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulate.engine import EventHandle
    from repro.spark.driver import Driver


# -- events -------------------------------------------------------------------


@dataclass(frozen=True)
class NodeJoin:
    """A machine joins the cluster (new capacity, spot instance granted)."""

    spec: NodeSpec


@dataclass(frozen=True)
class NodeDecommission:
    """Graceful departure: drain running tasks, then leave.

    ``drain_s`` caps how long the drain may take (``None`` uses
    ``conf.decommission_drain_s``); stragglers past the cap are killed.
    """

    node: str
    drain_s: float | None = None


@dataclass(frozen=True)
class SpotPreemption:
    """The provider reclaims a spot node after a warning window.

    During the window (``None`` uses ``conf.preemption_warning_s``) the
    node's executor drains; at the deadline the machine vanishes — running
    tasks are killed and its shuffle outputs are lost and recovered through
    the FetchFailed path.
    """

    node: str
    warning_s: float | None = None


@dataclass(frozen=True)
class RackFailure:
    """Correlated failure: every node in the rack departs at once (switch
    or power-domain loss).  The driver's own node survives by fiat — the
    session cannot outlive its master."""

    rack: str


@dataclass(frozen=True)
class ExecutorFailure:
    """One executor process dies; the machine stays up.

    Shuffle files survive under the external shuffle service and the driver
    relaunches the executor after ``conf.executor_recovery_s``.
    """

    node: str


ClusterEvent = Union[
    NodeJoin, NodeDecommission, SpotPreemption, RackFailure, ExecutorFailure
]

_EVENT_TYPES = (
    NodeJoin, NodeDecommission, SpotPreemption, RackFailure, ExecutorFailure
)


def _event_name(event: ClusterEvent) -> str:
    return type(event).__name__


def _event_attrs(event: ClusterEvent) -> dict[str, object]:
    if isinstance(event, NodeJoin):
        return {"node": event.spec.name, "rack": event.spec.rack}
    if isinstance(event, RackFailure):
        return {"rack": event.rack}
    return {"node": event.node}


# -- the declarative schedule --------------------------------------------------


@dataclass(frozen=True)
class AutoscalePolicy:
    """Queue-depth-driven elasticity.

    While driver services run, every ``conf.autoscale_interval_s`` the
    controller compares pending tasks against the fleet's task slots: above
    ``conf.autoscale_up_pending_per_slot`` pending per slot it requests one
    node (joining after ``conf.provision_delay_s``), and any node *it*
    provisioned that has idled for ``conf.autoscale_down_idle_s`` is
    gracefully decommissioned.  The autoscaled fleet stays within
    ``[conf.autoscale_min_nodes, conf.autoscale_max_nodes]``.

    ``template`` is the machine type provisioned; instance names are
    ``{name_prefix}-{seq}`` in ``rack`` (the template's own rack when None).
    """

    template: NodeSpec
    name_prefix: str = "scale"
    rack: str | None = None


class ClusterTimeline:
    """A declarative, seeded schedule of cluster events.

    Entries are ``(at, event)`` pairs in simulated seconds; ordering between
    same-time events is insertion order (deterministic).  An optional
    :class:`AutoscalePolicy` adds the closed-loop elasticity controller on
    top of the scripted events.
    """

    def __init__(
        self,
        events: Iterable[tuple[float, ClusterEvent]] = (),
        autoscale: AutoscalePolicy | None = None,
    ):
        self.entries: list[tuple[float, ClusterEvent]] = []
        self.autoscale = autoscale
        for at, event in events:
            self.add(event, at=at)

    def add(self, event: ClusterEvent, at: float) -> "ClusterTimeline":
        if not isinstance(event, _EVENT_TYPES):
            raise TypeError(
                f"not a cluster event: {event!r} (expected one of "
                f"{', '.join(t.__name__ for t in _EVENT_TYPES)})"
            )
        if at < 0:
            raise ValueError(f"event time must be >= 0, got {at}")
        self.entries.append((float(at), event))
        return self

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @classmethod
    def seeded_churn(
        cls,
        seed: int,
        nodes: Iterable[str],
        horizon_s: float,
        events_per_node: float = 0.5,
        join_template: NodeSpec | None = None,
        autoscale: AutoscalePolicy | None = None,
    ) -> "ClusterTimeline":
        """Synthesize a random churn schedule from the dynamics stream.

        Draws ``Poisson(events_per_node * len(nodes))`` events uniformly over
        ``[0, horizon_s]``: decommissions and preemptions of the given nodes
        (each victim at most once), plus joins of ``join_template`` clones
        when one is provided.  A pure function of ``seed`` — and because it
        draws only from :data:`DYNAMICS_STREAM`, every other stream of the
        same root seed is untouched.
        """
        rng = RandomSource(seed).stream(DYNAMICS_STREAM)
        victims = list(nodes)
        n_events = int(rng.poisson(events_per_node * max(1, len(victims))))
        timeline = cls(autoscale=autoscale)
        join_seq = 0
        for _ in range(n_events):
            at = round(float(rng.uniform(0.0, horizon_s)), 3)
            kinds = ["decommission", "preempt"] + (
                ["join"] if join_template is not None else []
            )
            kind = kinds[int(rng.integers(len(kinds)))]
            if kind == "join":
                assert join_template is not None
                join_seq += 1
                timeline.add(
                    NodeJoin(
                        replace(
                            join_template,
                            name=f"{join_template.name}-churn{join_seq}",
                        )
                    ),
                    at=at,
                )
            elif victims:
                victim = victims.pop(int(rng.integers(len(victims))))
                event = (
                    NodeDecommission(victim)
                    if kind == "decommission"
                    else SpotPreemption(victim)
                )
                timeline.add(event, at=at)
        timeline.entries.sort(key=lambda e: e[0])
        return timeline


# -- the engine ----------------------------------------------------------------


class ClusterDynamics:
    """Executes a :class:`ClusterTimeline` against a live driver.

    Owns the event schedule, the per-event observability (trace record,
    counter, causal span of kind ``"cluster"``), and the autoscaler control
    loop, whose ticking follows the driver's service lifecycle so an idle
    cluster schedules no events and the simulation can drain.
    """

    def __init__(self, driver: "Driver", timeline: ClusterTimeline | None = None):
        self.driver = driver
        self.ctx = driver.ctx
        self.timeline = timeline if timeline is not None else ClusterTimeline()
        driver.dynamics = self
        # Applied-event log: (time, event name, attrs) — the determinism
        # probe tests and experiments fingerprint.
        self.applied: list[tuple[float, str, dict[str, object]]] = []
        self._seq = 0
        # Autoscaler state.
        self._scale_seq = 0
        self._provisioned: list[str] = []   # autoscaled nodes currently owned
        self._pending_provisions = 0
        self._idle_since: dict[str, float] = {}
        self._tick_handle: "EventHandle | None" = None
        for at, event in self.timeline:
            self._schedule(event, at)

    # -- public ---------------------------------------------------------------

    def inject(self, event: ClusterEvent, at: float | None = None) -> None:
        """Schedule one event, now or at a future simulated time."""
        if not isinstance(event, _EVENT_TYPES):
            raise TypeError(f"not a cluster event: {event!r}")
        now = self.ctx.sim.now
        if at is None:
            at = now
        if at < now:
            raise ValueError(f"cannot inject into the past (at={at}, now={now})")
        self._schedule(event, at)

    @property
    def autoscaled_nodes(self) -> list[str]:
        """Names of nodes currently provisioned by the autoscaler."""
        return list(self._provisioned)

    # -- event application ------------------------------------------------------

    def _schedule(self, event: ClusterEvent, at: float) -> None:
        self.ctx.sim.at(at, self._apply, event)

    def _apply(self, event: ClusterEvent) -> None:
        name = _event_name(event)
        attrs = _event_attrs(event)
        start = self.ctx.sim.now
        if isinstance(event, NodeJoin):
            self.driver.add_node(event.spec)
        elif isinstance(event, NodeDecommission):
            self.driver.decommission_node(event.node, drain_s=event.drain_s)
        elif isinstance(event, SpotPreemption):
            self.driver.preempt_node(event.node, warning_s=event.warning_s)
        elif isinstance(event, RackFailure):
            self._fail_rack(event.rack)
        elif isinstance(event, ExecutorFailure):
            ex = self.driver.executors.get(event.node)
            if ex is not None:
                self.driver._fail_executor(ex)
        self.applied.append((start, name, attrs))
        obs = self.ctx.obs
        if obs.enabled:
            obs.metrics.inc(f"dynamics.{name}")
            seq = self._seq
            self._seq += 1
            obs.record_span(
                Span(
                    span_id=f"cluster:{seq}",
                    kind="cluster",
                    name=name,
                    start=start,
                    end=self.ctx.sim.now,
                    attrs=dict(attrs),
                ),
                self.ctx.trace,
            )

    def _fail_rack(self, rack: str) -> None:
        """Correlated departure of a whole rack, driver node excepted."""
        cluster = self.ctx.cluster
        members = [n.name for n in cluster.racks.get(rack, [])]
        if not members:
            return
        for name in members:
            if name == self.ctx.driver_node:
                self.ctx.trace.record(
                    self.ctx.sim.now, "rack_failure_spared_driver", node=name
                )
                continue
            self.driver.remove_node(name, reason="rack-failure")
        self.ctx.trace.record(
            self.ctx.sim.now, "rack_failed", rack=rack, nodes=len(members)
        )

    # -- autoscaler -------------------------------------------------------------
    #
    # The control loop ticks only while driver services run: idle clusters
    # schedule nothing, so the event heap can drain.  Scale-up requests take
    # conf.provision_delay_s to materialize (cloud control-plane latency);
    # scale-down releases go through the graceful decommission path.

    def on_services_start(self) -> None:
        if self.timeline.autoscale is None or self._tick_handle is not None:
            return
        self._idle_since.clear()
        self._tick_handle = self.ctx.sim.after(
            self.ctx.conf.autoscale_interval_s, self._autoscale_tick
        )

    def on_services_stop(self) -> None:
        if self._tick_handle is not None:
            if self._tick_handle.pending:
                self._tick_handle.cancel()
            self._tick_handle = None

    def _autoscale_tick(self) -> None:
        self._tick_handle = None
        policy = self.timeline.autoscale
        if policy is None or not self.driver._services_running:
            return
        conf = self.ctx.conf
        now = self.ctx.sim.now
        pending = sum(
            len(ts.pending) for ts in self.driver.active_tasksets()
        )
        slots = sum(
            ex.slots
            for ex in self.driver.executors.values()
            if ex.alive and not ex.draining
        )
        owned = len(self._provisioned) + self._pending_provisions
        obs = self.ctx.obs
        if obs.enabled:
            obs.windows.observe("autoscale.pending_per_slot", now,
                                pending / slots if slots else float(pending))
        if (
            pending > conf.autoscale_up_pending_per_slot * max(1, slots)
            and owned < conf.autoscale_max_nodes
        ):
            self._request_node(policy)
        else:
            self._maybe_release(policy, now)
        self._tick_handle = self.ctx.sim.after(
            conf.autoscale_interval_s, self._autoscale_tick
        )

    def _request_node(self, policy: AutoscalePolicy) -> None:
        self._scale_seq += 1
        spec = replace(
            policy.template,
            name=f"{policy.name_prefix}-{self._scale_seq}",
            rack=policy.rack if policy.rack is not None else policy.template.rack,
        )
        self._pending_provisions += 1
        delay = self.ctx.conf.provision_delay_s
        self.ctx.trace.record(
            self.ctx.sim.now, "autoscale_request", node=spec.name, delay_s=delay
        )
        self.ctx.obs.metrics.inc("dynamics.autoscale_requests")
        self.ctx.sim.after(delay, self._provision, spec)

    def _provision(self, spec: NodeSpec) -> None:
        self._pending_provisions -= 1
        self._provisioned.append(spec.name)
        self._apply(NodeJoin(spec))

    def _maybe_release(self, policy: AutoscalePolicy, now: float) -> None:
        conf = self.ctx.conf
        busy: set[str] = set()
        for name in self._provisioned:
            ex = self.driver.executors.get(name)
            if ex is not None and ex.running:
                busy.add(name)
                self._idle_since.pop(name, None)
            else:
                self._idle_since.setdefault(name, now)
        if len(self._provisioned) <= conf.autoscale_min_nodes:
            return
        for name in list(self._provisioned):
            if name in busy:
                continue
            idle_for = now - self._idle_since.get(name, now)
            if idle_for < conf.autoscale_down_idle_s:
                continue
            self._provisioned.remove(name)
            self._idle_since.pop(name, None)
            self.ctx.trace.record(self.ctx.sim.now, "autoscale_release", node=name)
            self.ctx.obs.metrics.inc("dynamics.autoscale_releases")
            # Through _apply so the release lands in the applied-event log
            # and emits the same span/metric any decommission does.
            self._apply(NodeDecommission(node=name))
            if len(self._provisioned) <= conf.autoscale_min_nodes:
                return
