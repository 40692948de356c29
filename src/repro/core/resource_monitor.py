"""RUPAM's Resource Monitor (RM).

A central Monitor on the master collects per-node Collectors' reports.
Static capabilities arrive once at registration; dynamic utilization rides
the existing worker heartbeats (no extra messages — the paper's
"piggy-backed" design, modelled here by sampling node state on the heartbeat
period).  The latest report per node is kept in ``executor_data``, RUPAM's
reuse of Spark's ``executorDataMap``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.nodeinfo import NodeMetrics
from repro.spark.scheduler import SchedulerContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.executor import Executor


class ResourceMonitor:
    """Collects NodeMetrics for every live executor's node."""

    def __init__(
        self,
        ctx: SchedulerContext,
        executors: Callable[[], list["Executor"]],
        on_beat: Callable[[], None] | None = None,
    ):
        self.ctx = ctx
        self._executors = executors
        self._on_beat = on_beat
        self.executor_data: dict[str, NodeMetrics] = {}
        self._stopped = True
        self._next = None
        self.beats = 0
        # Low-memory notifications for the memory-straggler path.
        self.low_memory_nodes: set[str] = set()
        self.low_memory_fraction = 0.08
        # Incremental collection: per-node version signature of everything
        # a NodeMetrics reads.  An unchanged signature means the previous
        # report is still exact (utilizations are rate-based, constant
        # between resource refits), so the node is skipped entirely.
        self._signatures: dict[str, tuple] = {}
        # Nodes whose report changed since the last consume_dirty() call —
        # this feeds the dispatcher's lazy resource-queue re-keying.
        self.dirty_nodes: set[str] = set()

    def start(self) -> None:
        """Begin (or, after :meth:`stop`, resume) the heartbeat loop."""
        if not self._stopped:
            return  # already beating
        self._stopped = False
        self._beat()

    def stop(self) -> None:
        self._stopped = True
        if self._next is not None and self._next.pending:
            self._next.cancel()
        self._next = None

    @staticmethod
    def _signature(ex: "Executor") -> tuple:
        node = ex.node
        return (
            id(ex),
            ex.memory.version,
            node.cpu.version,
            node.net.version,
            node.disk.version,
            node.gpu.version if node.gpu is not None else -1,
        )

    def collect_now(self, force: bool = False) -> list[str]:
        """One collection round (also usable without the periodic loop).

        Only nodes whose resource/memory versions moved since their last
        report are re-read; ``force=True`` restores the rebuild-everything
        behavior (used by tooling that bypasses the dirty protocol).
        Returns the names whose report object was rebuilt this call (always
        a subset of the dirty set) — the dispatcher uses it to patch its
        cached candidate list instead of rebuilding it every round.
        """
        now = self.ctx.now
        names: list[str] = []
        for ex in self._executors():
            node = ex.node
            name = node.name
            if not ex.alive:
                # A dead executor no longer reports; drop any low-memory flag
                # it left behind (forget() removes the rest on deregistration).
                self.low_memory_nodes.discard(name)
                continue
            sig = self._signature(ex)
            if not force and self._signatures.get(name) == sig:
                continue
            self._signatures[name] = sig
            spec = node.spec
            free_mb = ex.memory.free_mb
            self.executor_data[name] = NodeMetrics(
                name=name,
                time=now,
                core_rate=spec.cpu.core_rate,
                cores=spec.cpu.cores,
                gpus=spec.gpu.count if spec.gpu else 0,
                ssd=spec.disk.is_ssd,
                netbandwidth=spec.net_mbps,
                disk_bandwidth=spec.disk.read_mbps,
                memory_mb=spec.memory_mb,
                cpuutil=node.cpu.utilization(),
                diskutil=node.disk.utilization(),
                netutil=node.net.utilization(),
                gpus_idle=node.gpus_idle(),
                freememory_mb=free_mb,
            )
            self.dirty_nodes.add(name)
            names.append(name)
            usable = ex.memory.usable_mb
            # Flag only genuine OOM danger (overcommitted heap), not a heap
            # that is merely well-used by tasks that fit.
            if (
                usable > 0
                and free_mb < self.low_memory_fraction * usable
                and ex.memory.overcommit_ratio() > 1.0
            ):
                self.low_memory_nodes.add(name)
            else:
                self.low_memory_nodes.discard(name)
        self.beats += 1
        return names

    def consume_dirty(self) -> set[str]:
        """Nodes re-collected since the previous call (and reset the set)."""
        dirty = self.dirty_nodes
        self.dirty_nodes = set()
        return dirty

    def mark_dirty(self, node_name: str) -> None:
        """Flag a node whose *scheduling inputs* changed outside the metrics.

        The scheduler's own accounting (per-node launched-task counts feeding
        the load hint) is invisible to the resource versions this monitor
        watches, so it reports such changes here to keep the dirty protocol
        complete.
        """
        self.dirty_nodes.add(node_name)

    def _collect(self, ex: "Executor") -> NodeMetrics:
        """Scalar reference report for one executor.

        Kept as the readable specification of what a heartbeat carries; the
        hot path (:meth:`collect_now`) builds the same values without the
        snapshot dict, and a parity test holds the two bit-identical.
        """
        node = ex.node
        snap = node.utilization_snapshot()
        spec = node.spec
        return NodeMetrics(
            name=node.name,
            time=self.ctx.now,
            core_rate=spec.cpu.core_rate,
            cores=spec.cpu.cores,
            gpus=spec.gpu.count if spec.gpu else 0,
            ssd=spec.disk.is_ssd,
            netbandwidth=spec.net_mbps,
            disk_bandwidth=spec.disk.read_mbps,
            memory_mb=spec.memory_mb,
            cpuutil=snap["cpu"],
            diskutil=snap["disk"],
            netutil=snap["net"],
            gpus_idle=node.gpus_idle(),
            freememory_mb=ex.memory.free_mb,
        )

    def _beat(self) -> None:
        if self._stopped:
            return
        self.collect_now()
        self.ctx.obs.metrics.inc("rm.beats")
        self.ctx.obs.sample_utilization(self.ctx.now, self._mean_utilization)
        if self._on_beat is not None:
            self._on_beat()
        self._next = self.ctx.sim.after(
            self.ctx.conf.heartbeat_interval_s, self._beat
        )

    def _mean_utilization(self) -> dict[str, float]:
        """Cluster-mean utilization per resource kind (telemetry sample).

        A left fold over ``executor_data`` in report insertion order; GPU is
        averaged only over GPU-bearing nodes.  Runs once per obs-enabled
        heartbeat.
        """
        out: dict[str, float] = {}
        data = self.executor_data
        if not data:
            return out
        cpu = mem = disk = net = gpu = 0.0
        gpu_nodes = 0
        for m in data.values():
            cpu += m.cpuutil
            mem += (
                1.0
                if m.memory_mb <= 0
                else 1.0 - m.freememory_mb / m.memory_mb
            )
            disk += m.diskutil
            net += m.netutil
            if m.gpus > 0:
                gpu += 1.0 - m.gpus_idle / m.gpus
                gpu_nodes += 1
        n = len(data)
        out["cpu"] = cpu / n
        out["mem"] = mem / n
        out["disk"] = disk / n
        out["net"] = net / n
        if gpu_nodes:
            out["gpu"] = gpu / gpu_nodes
        out["low_memory_nodes"] = float(len(self.low_memory_nodes))
        return out

    def metrics_for(self, node_name: str) -> NodeMetrics | None:
        return self.executor_data.get(node_name)

    def forget(self, node_name: str) -> None:
        self.executor_data.pop(node_name, None)
        self.low_memory_nodes.discard(node_name)
        self._signatures.pop(node_name, None)
        self.dirty_nodes.add(node_name)
