"""Dispatch-engine scale benchmark harness (``repro bench scale``).

Builds synthetic scheduling worlds — N heterogeneous nodes, T queued tasks,
no task runtime — and times one ``dispatch()`` call per engine so every
measured microsecond is queue maintenance, ranking, and task selection:

* ``legacy`` — the frozen pre-rewrite engine (``benchmarks._legacy_sched``).
  Only the benchmark suite passes it in (``run_grid(legacy=...)``); the
  package itself never depends on the benchmark suite, so ``repro bench
  scale`` omits it.
* ``incremental`` — the production engine: incremental heaps + tombstoned
  task queues, scanned by ``Dispatcher.schedule_task``.

The grid tops out at 1000 nodes × 10k tasks.
"""

from __future__ import annotations

import time

from repro.cluster.cluster import Cluster
from repro.cluster.hardware import CpuSpec, DiskSpec, GpuSpec, NodeSpec
from repro.core.config import RupamConfig
from repro.core.dispatcher import Dispatcher
from repro.core.nodeinfo import ALL_KINDS
from repro.core.resource_monitor import ResourceMonitor
from repro.core.task_manager import TaskManager
from repro.obs.decision import Observability
from repro.simulate.engine import Simulator
from repro.simulate.randomness import RandomSource
from repro.simulate.trace import TraceRecorder
from repro.spark.blocks import BlockManager
from repro.spark.conf import SparkConf
from repro.spark.executor import Executor
from repro.spark.scheduler import SchedulerContext
from repro.spark.shuffle import ShuffleManager
from repro.spark.stage import Stage, StageKind
from repro.spark.task import TaskSpec

# Heterogeneous node profiles, cycled across the cluster (mirrors the
# paper's mixed testbed: fast CPUs, SSD nodes, big-memory, a few GPUs).
_PROFILES = [
    dict(cores=8, ghz=2.0, mem_gb=32.0, net=1000.0, ssd=False, gpus=0),
    dict(cores=16, ghz=3.0, mem_gb=64.0, net=10000.0, ssd=True, gpus=0),
    dict(cores=4, ghz=1.6, mem_gb=16.0, net=1000.0, ssd=False, gpus=0),
    dict(cores=12, ghz=2.4, mem_gb=128.0, net=10000.0, ssd=True, gpus=2),
]

# (nodes, tasks) tiers; every engine runs the whole grid.
GRIDS = {
    "smoke": [(20, 200), (60, 600), (1000, 10_000)],
    "paper": [(50, 500), (200, 2000), (1000, 10_000)],
}


def _node(name: str, p: dict) -> NodeSpec:
    return NodeSpec(
        name=name,
        cpu=CpuSpec(cores=p["cores"], freq_ghz=p["ghz"]),
        memory_mb=p["mem_gb"] * 1024,
        net_mbps=p["net"],
        disk=DiskSpec(
            read_mbps=400 if p["ssd"] else 120,
            write_mbps=350 if p["ssd"] else 100,
            is_ssd=p["ssd"],
        ),
        gpu=GpuSpec(count=p["gpus"], kernel_speedup=8.0) if p["gpus"] else None,
        rack=f"rack{hash(name) % 8}",
        group=name,
    )


class BenchTaskSet:
    """Duck-typed TaskSetManager: just enough surface for the dispatchers."""

    def __init__(self, n_tasks: int):
        self.pending = set(range(n_tasks))
        self.blocked = False

    def is_active(self) -> bool:
        return bool(self.pending)

    def has_speculatable(self) -> bool:
        return False

    def next_attempt_number(self, spec) -> int:
        return 0


class World:
    """One synthetic scheduling world: N nodes, T queued tasks, no runtime."""

    def __init__(self, n_nodes: int, n_tasks: int, engine: str, legacy=None):
        assert engine in ("legacy", "incremental")
        if engine == "legacy" and legacy is None:
            raise ValueError("legacy engine requires the frozen classes")
        self.engine = engine
        sim = Simulator()
        nodes = [_node(f"b{i}", _PROFILES[i % len(_PROFILES)]) for i in range(n_nodes)]
        cluster = Cluster(sim, nodes)
        racks: dict[str, list[str]] = {}
        for node in cluster:
            racks.setdefault(node.spec.rack, []).append(node.name)
        ctx = SchedulerContext(
            sim=sim,
            conf=SparkConf(),
            cluster=cluster,
            blocks=BlockManager(racks),
            shuffle=ShuffleManager(),
            rng=RandomSource(7),
            trace=TraceRecorder(enabled=False),
            driver_node=nodes[0].name,
            obs=Observability(enabled=False),
        )
        self.executors = {
            node.name: Executor(ctx, node, heap_mb=8192.0, slots=node.spec.cpu.cores)
            for node in cluster
        }
        cfg = RupamConfig(gpu_race_enabled=False)
        rm = ResourceMonitor(ctx, executors=lambda: list(self.executors.values()))
        tm = TaskManager(ctx, cfg)
        if engine == "legacy":
            tm.queues = legacy[1]()
        self.rm, self.tm = rm, tm
        self.budget = 0
        self.launched = 0
        cls = legacy[0] if engine == "legacy" else Dispatcher
        self.dispatcher = cls(
            ctx,
            cfg,
            rm,
            tm,
            executors=lambda: self.executors,
            available_for=lambda ex, kind: self.budget > 0,
            launch=self._launch,
            active_tasksets=lambda: [],
            load_hint=None,
        )
        # Identical workload for every engine: tasks spread evenly over the
        # five resource queues, enqueued straight into the task queues (the
        # TaskManager's classification policy is not under test here).
        stage = Stage(
            "bench:scan",
            StageKind.SHUFFLE_MAP,
            [TaskSpec(index=i, compute_gigacycles=1.0) for i in range(n_tasks)],
        )
        self.ts = BenchTaskSet(n_tasks)
        for i, spec in enumerate(stage.tasks):
            tm.queues.enqueue(ALL_KINDS[i % len(ALL_KINDS)], self.ts, spec, now=0.0)
        # RUPAM's steady state pins a characterized subset to its
        # best-observed executor (optExecutor locking): every 20th task is
        # locked to a node, so find_for_node does real work in both engines.
        names = [node.name for node in cluster]
        for i, spec in enumerate(stage.tasks):
            if i % 20 == 0:
                name = names[(i // 20) % len(names)]
                tm._locked[spec.key] = name  # preset, bypassing the DB path
                if engine != "legacy":
                    tm.queues.update_lock(spec.key, name)
        rm.collect_now()

    def _launch(self, ts, spec, ex, loc, kind, speculative=False) -> None:
        self.budget -= 1
        self.launched += 1
        ts.pending.discard(spec.index)
        if self.engine != "legacy":
            # What the real scheduler facade does on launch with the new
            # engine: tombstone the entries and dirty the node's heap key.
            self.tm.queues.invalidate_task(ts, spec)
            self.rm.mark_dirty(ex.node.name)

    def timed_dispatch(self, budget: int) -> float:
        self.budget = budget
        t0 = time.perf_counter()
        self.dispatcher.dispatch()
        return time.perf_counter() - t0


def launch_budget(n_nodes: int) -> int:
    return max(50, n_nodes // 4)


def measure(
    engine: str, n_nodes: int, n_tasks: int, repeats: int, legacy=None
) -> tuple[float, int, dict]:
    """Best-of-N wall time for one dispatch call on a fresh world."""
    best, launched, counters = float("inf"), 0, {}
    budget = launch_budget(n_nodes)
    for _ in range(repeats):
        world = World(n_nodes, n_tasks, engine, legacy=legacy)
        dt = world.timed_dispatch(budget)
        if dt < best:
            best = dt
            launched = world.launched
            if engine != "legacy":
                counters = {
                    "requeue_ops": world.dispatcher.resource_queues.requeue_ops,
                    "task_queue_work_ops": world.tm.queues.work_ops,
                }
    return best, launched, counters


def _tier_repeats(n_tasks: int, repeats: int) -> int:
    # Big tiers are stable enough single-shot, and too slow for best-of-3.
    return 1 if n_tasks > 2000 else repeats


def run_grid(scale: str, repeats: int = 3, legacy=None) -> list[dict]:
    """All-engine comparison rows over the base grid for ``scale``."""
    rows = []
    for n_nodes, n_tasks in GRIDS[scale]:
        reps = _tier_repeats(n_tasks, repeats)
        inc_s, inc_n, counters = measure("incremental", n_nodes, n_tasks, reps)
        row = {
            "nodes": n_nodes,
            "tasks": n_tasks,
            "launches": inc_n,
            "incremental_s": round(inc_s, 6),
            **counters,
        }
        if legacy is not None:
            legacy_s, legacy_n, _ = measure("legacy", n_nodes, n_tasks, reps, legacy)
            assert inc_n == legacy_n, "engines must launch the same number of tasks"
            row["legacy_s"] = round(legacy_s, 6)
            row["speedup"] = round(legacy_s / inc_s, 2)
        rows.append(row)
    return rows


def format_table(rows: list[dict]) -> str:
    lines = ["nodes  tasks   launches  legacy_s  incremental_s  leg/inc"]
    for r in rows:
        legacy_s = f"{r['legacy_s']:>8.4f}" if "legacy_s" in r else "       -"
        speed = f"{r['speedup']:>6.2f}x" if "speedup" in r else "      -"
        lines.append(
            f"{r['nodes']:>5}  {r['tasks']:>6}  {r['launches']:>8}  "
            f"{legacy_s}  {r['incremental_s']:>13.4f}  {speed}"
        )
    return "\n".join(lines)
