"""Unit tests for RUPAM's resource queues and task queues."""

from __future__ import annotations

import pytest

from repro.core.nodeinfo import ALL_KINDS, NodeMetrics, ResourceKind
from repro.core.queues import ResourceQueues, TaskQueues
from repro.simulate.engine import Simulator
from repro.spark.stage import Stage, StageKind
from repro.spark.task import TaskSpec
from repro.spark.taskset import TaskSetManager
from tests.conftest import make_ctx, tiny_cluster


def metrics(
    name="n",
    core_rate=1.0,
    cores=4,
    gpus=0,
    ssd=False,
    net=100.0,
    disk=100.0,
    mem=16_000.0,
    cpuutil=0.0,
    diskutil=0.0,
    netutil=0.0,
    gpus_idle=None,
    free_mb=None,
) -> NodeMetrics:
    return NodeMetrics(
        name=name,
        time=0.0,
        core_rate=core_rate,
        cores=cores,
        gpus=gpus,
        ssd=ssd,
        netbandwidth=net,
        disk_bandwidth=disk,
        memory_mb=mem,
        cpuutil=cpuutil,
        diskutil=diskutil,
        netutil=netutil,
        gpus_idle=gpus if gpus_idle is None else gpus_idle,
        freememory_mb=mem if free_mb is None else free_mb,
    )


class TestNodeMetrics:
    def test_gpu_membership(self):
        assert not metrics(gpus=0).has(ResourceKind.GPU)
        assert metrics(gpus=1).has(ResourceKind.GPU)
        assert metrics().has(ResourceKind.CPU)

    def test_ssd_doubles_disk_capability(self):
        plain = metrics(disk=100.0)
        ssd = metrics(disk=100.0, ssd=True)
        assert ssd.capability(ResourceKind.DISK) == 2 * plain.capability(ResourceKind.DISK)

    def test_mem_utilization_from_free(self):
        m = metrics(mem=1000.0, free_mb=250.0)
        assert m.utilization(ResourceKind.MEM) == pytest.approx(0.75)

    def test_gpu_utilization(self):
        m = metrics(gpus=2, gpus_idle=1)
        assert m.utilization(ResourceKind.GPU) == pytest.approx(0.5)


class TestResourceQueues:
    def test_cpu_ranked_by_core_rate(self):
        q = ResourceQueues()
        q.populate([metrics("slow", core_rate=1.0), metrics("fast", core_rate=4.0)])
        assert q.pop(ResourceKind.CPU).name == "fast"

    def test_cpu_tie_broken_by_load(self):
        q = ResourceQueues()
        q.populate(
            [metrics("busy", core_rate=4.0, cpuutil=0.9), metrics("idle", core_rate=4.0)]
        )
        assert q.pop(ResourceKind.CPU).name == "idle"

    def test_shareable_kinds_discount_by_load(self):
        q = ResourceQueues()
        # 10 GbE at 90% busy is worse than 1 GbE idle for a new flow? No -
        # 1170*0.1=117 == 117*1.0; tie broken by utilization (idle first).
        q.populate(
            [metrics("tengbe", net=1170.0, netutil=0.9), metrics("gbe", net=117.0)]
        )
        assert q.pop(ResourceKind.NET).name == "gbe"

    def test_gpu_queue_excludes_gpuless(self):
        q = ResourceQueues()
        q.populate([metrics("cpuonly"), metrics("gpunode", gpus=1)])
        assert q.size(ResourceKind.GPU) == 1
        assert q.pop(ResourceKind.GPU).name == "gpunode"

    def test_load_hint_applied(self):
        q = ResourceQueues()
        q.populate(
            [metrics("a", net=100.0), metrics("b", net=100.0)],
            load_hint=lambda name, kind: 0.8 if name == "a" else 0.0,
        )
        assert q.pop(ResourceKind.NET).name == "b"

    def test_remove_node_from_all(self):
        q = ResourceQueues()
        q.populate([metrics("a"), metrics("b")])
        q.remove_node("a")
        for kind in ALL_KINDS:
            assert all(m.name != "a" for m in [q.peek(kind)] if m is not None)


class TestTaskQueues:
    def _ts(self, n=3):
        sim = Simulator()
        cluster = tiny_cluster(sim)
        ctx = make_ctx(cluster)
        tasks = [TaskSpec(index=i, compute_gigacycles=1.0) for i in range(n)]
        stage = Stage("q:map", StageKind.SHUFFLE_MAP, tasks)
        return ctx, TaskSetManager(ctx, stage)

    def test_enqueue_and_iterate_fifo(self):
        ctx, ts = self._ts()
        q = TaskQueues()
        for spec in ts.pending_specs():
            q.enqueue(ResourceKind.CPU, ts, spec, now=0.0)
        entries = list(q.entries(ResourceKind.CPU))
        assert [e.spec.index for e in entries] == [0, 1, 2]

    def test_stale_entries_pruned(self):
        ctx, ts = self._ts()
        q = TaskQueues()
        for spec in ts.pending_specs():
            q.enqueue(ResourceKind.CPU, ts, spec, now=0.0)
        ts.pending.discard(1)  # task launched elsewhere
        assert [e.spec.index for e in q.entries(ResourceKind.CPU)] == [0, 2]

    def test_enqueue_all_kinds(self):
        ctx, ts = self._ts(n=1)
        q = TaskQueues()
        q.enqueue_all_kinds(ts, ts.pending_specs()[0], now=0.0)
        for kind in ALL_KINDS:
            assert len(list(q.entries(kind))) == 1
        assert q.total_pending() == 1  # distinct tasks, not entries

    def test_remove_task(self):
        ctx, ts = self._ts(n=2)
        q = TaskQueues()
        for spec in ts.pending_specs():
            q.enqueue_all_kinds(ts, spec, now=0.0)
        removed = q.invalidate_task(ts, ts.states[0].spec)
        assert removed == len(ALL_KINDS)
        assert q.total_pending() == 1

    def test_find_for_node(self):
        ctx, ts = self._ts(n=2)
        q = TaskQueues()
        specs = ts.pending_specs()
        q.enqueue(ResourceKind.NET, ts, specs[0], now=0.0)
        q.enqueue(ResourceKind.NET, ts, specs[1], now=0.0, locked_node="n2")
        found = q.find_for_node("n2")
        assert found is not None and found.spec.index == 1
        assert q.find_for_node("n3") is None

    def test_update_lock_retargets_entries(self):
        ctx, ts = self._ts(n=2)
        q = TaskQueues()
        specs = ts.pending_specs()
        for spec in specs:
            q.enqueue(ResourceKind.CPU, ts, spec, now=0.0)
        assert q.find_for_node("n1") is None
        q.update_lock(specs[0].key, "n1")
        found = q.find_for_node("n1")
        assert found is not None and found.spec.index == 0
        q.update_lock(specs[0].key, "n2")
        assert q.find_for_node("n1") is None
        assert q.find_for_node("n2").spec.index == 0
        q.update_lock(specs[0].key, None)
        assert q.find_for_node("n2") is None

    def test_oldest_waiting(self):
        ctx, ts = self._ts(n=2)
        q = TaskQueues()
        specs = ts.pending_specs()
        q.enqueue(ResourceKind.GPU, ts, specs[0], now=1.0)
        q.enqueue(ResourceKind.GPU, ts, specs[1], now=2.0)
        oldest = q.oldest_waiting(ResourceKind.GPU)
        assert oldest is not None and oldest.enqueued_at == 1.0

    def test_inactive_taskset_pruned(self):
        ctx, ts = self._ts(n=1)
        q = TaskQueues()
        q.enqueue(ResourceKind.CPU, ts, ts.pending_specs()[0], now=0.0)
        ts.aborted = True
        assert list(q.entries(ResourceKind.CPU)) == []
