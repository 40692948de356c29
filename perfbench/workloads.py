"""The benchmark's three workloads, as plans of complete ``Session`` runs.

A plan is pure data derived from the seed: which cluster, which apps (with
arrival times and fair-share weights), which cluster events, and the event
budget each session may spend.  The program only ever receives the inputs a
plan generates; nothing in ``repro`` knows it is being benchmarked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.dynamics import (
    ClusterTimeline,
    NodeDecommission,
    NodeJoin,
    SpotPreemption,
)
from repro.cluster.hardware import NodeSpec
from repro.cluster.presets import GB, GBE_MBPS, THOR_CPU, THOR_DISK, multirack_cluster
from repro.experiments.calibration import FIG5_WORKLOADS
from repro.experiments.multitenant import generate_tenants

SCHEDULERS = ("spark", "rupam")


@dataclass(frozen=True)
class Submission:
    """One application submission: the unit an operation is counted in."""

    workload: str
    at: float | None = None
    weight: float | None = None
    overrides: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SessionPlan:
    """Everything needed to build one ``Session`` and submit its apps."""

    label: str
    # The Session's root seed: every randomness stream of the run.
    seed: int
    cluster: str | Callable[..., Any]
    submissions: tuple[Submission, ...]
    observe: bool = True
    monitor_interval: float | None = 1.0
    driver_node: str | None = None
    conf_overrides: dict[str, Any] = field(default_factory=dict)
    # A fresh timeline per session: the dynamics engine consumes it.
    timeline: Callable[[], ClusterTimeline] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    plans: tuple[SessionPlan, ...]
    # Per-session budget of fired simulation events.  Healthy sessions of
    # every workload stay far below it; a session that reaches it is a
    # livelock and its unfinished apps count as failed operations.
    event_cap: int = 100_000


def fig5_hydra(seed: int) -> Workload:
    """The paper's own experiment (Fig 5): the seven apps at Table III sizes
    on 12-node Hydra, one app per session, obs on.  The only workload with a
    fidelity reference."""
    return Workload(
        name="fig5-hydra",
        seed=seed,
        plans=tuple(
            SessionPlan(label=wl, seed=seed, cluster="hydra", submissions=(Submission(wl),))
            for wl in FIG5_WORKLOADS
        ),
    )


def _multirack80(sim):
    return multirack_cluster(sim, racks=16)


def terasort_80(seed: int) -> Workload:
    """The scale ladder at 80 multirack nodes, obs off: TeraSort sessions,
    dispatch-bound, and the only path where RUPAM's batch offer pass runs.

    Four 1 GB sessions (100 x 100 tasks) on four seeds derived from
    ``seed``, rather than the ladder's one 4 GB sort: speculation makes the
    work of one TeraSort vary by up to 20% between seeds, which four seeds
    average, and the pass is cheap enough to repeat within the run."""
    return Workload(
        name="terasort-80",
        seed=seed,
        plans=tuple(
            SessionPlan(
                label=f"terasort-{part}",
                seed=4 * seed + part,
                cluster=_multirack80,
                driver_node="r0-stack1",
                observe=False,
                submissions=(
                    Submission(
                        "terasort",
                        overrides={"size_gb": 1.0, "partitions": 100, "reducers": 100},
                    ),
                ),
            )
            for part in range(4)
        ),
    )


# Per-app sizes of the contended mix (half of each Table III app or less, so
# ten of them overlap on 15 nodes instead of running back to back).
TENANT_SIZES: dict[str, dict[str, Any]] = {
    "lr": {"size_gb": 1.5, "iterations": 2},
    "pagerank": {"size_gb": 0.375, "iterations": 2},
    "sql": {"size_gb": 6.0, "queries": 1},
    "terasort": {"size_gb": 1.5},
}
TENANT_APPS = 10
TENANT_MEAN_INTERARRIVAL_S = 4.0


def _join_node() -> NodeSpec:
    return NodeSpec(
        name="r1-thor-join",
        cpu=THOR_CPU,
        memory_mb=16 * GB,
        net_mbps=GBE_MBPS,
        disk=THOR_DISK,
        rack="rack1",
        group="thor",
    )


def _churn_timeline() -> ClusterTimeline:
    return ClusterTimeline(
        [
            (10.0, SpotPreemption(node="r1-thor1")),
            (30.0, NodeDecommission(node="r2-hulk1")),
            (45.0, NodeJoin(_join_node())),
            (60.0, SpotPreemption(node="r0-thor2")),
        ]
    )


def tenants_churn(seed: int) -> Workload:
    """The contended regime: ten apps arriving open-loop (Poisson in
    simulated time) on 15 multirack nodes under fair share, with preemption,
    decommission and a join.  Drives fair-pool ordering and the driver's
    node-departure path, and shows stock Spark's revive storm."""
    tenants = generate_tenants(
        TENANT_APPS, TENANT_MEAN_INTERARRIVAL_S, seed, tuple(sorted(TENANT_SIZES))
    )
    return Workload(
        name="tenants-churn",
        seed=seed,
        plans=(
            SessionPlan(
                label="mix",
                seed=seed,
                cluster="multirack",
                conf_overrides={"scheduler_mode": "fair"},
                timeline=_churn_timeline,
                submissions=tuple(
                    Submission(
                        t.workload,
                        at=t.arrival_s,
                        weight=t.weight,
                        overrides=TENANT_SIZES[t.workload],
                    )
                    for t in tenants
                ),
            ),
        ),
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "fig5-hydra": fig5_hydra,
    "terasort-80": terasort_80,
    "tenants-churn": tenants_churn,
}
