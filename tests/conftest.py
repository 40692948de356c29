"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.hardware import CpuSpec, DiskSpec, GpuSpec, NodeSpec
from repro.simulate.engine import Simulator
from repro.simulate.randomness import RandomSource
from repro.simulate.trace import TraceRecorder
from repro.spark.application import Application, Job
from repro.spark.blocks import BlockManager
from repro.spark.conf import SparkConf
from repro.spark.driver import AppResult, Driver
from repro.spark.scheduler import SchedulerContext
from repro.spark.shuffle import ShuffleManager
from repro.spark.stage import Stage, StageKind
from repro.spark.task import TaskSpec


def small_node(
    name: str = "n1",
    cores: int = 4,
    ghz: float = 2.0,
    mem_gb: float = 16.0,
    net: float = 100.0,
    ssd: bool = False,
    gpus: int = 0,
    rack: str = "rack0",
    group: str = "",
) -> NodeSpec:
    """A compact node spec for unit tests."""
    return NodeSpec(
        name=name,
        cpu=CpuSpec(cores=cores, freq_ghz=ghz),
        memory_mb=mem_gb * 1024,
        net_mbps=net,
        disk=DiskSpec(read_mbps=200 if ssd else 100, write_mbps=180 if ssd else 80, is_ssd=ssd),
        gpu=GpuSpec(count=gpus, kernel_speedup=8.0) if gpus else None,
        rack=rack,
        group=group or name,
    )


def tiny_cluster(sim: Simulator, n: int = 3) -> Cluster:
    """n identical small nodes."""
    return Cluster(sim, [small_node(f"n{i}") for i in range(1, n + 1)])


def hetero_cluster(sim: Simulator) -> Cluster:
    """A 3-node heterogeneous cluster: fast-CPU, big-memory, GPU."""
    return Cluster(
        sim,
        [
            small_node("fast", cores=4, ghz=4.0, mem_gb=8, ssd=True, group="fast"),
            small_node("bigmem", cores=8, ghz=1.0, mem_gb=64, group="bigmem"),
            small_node("gpu", cores=4, ghz=1.0, mem_gb=32, gpus=1, group="gpu"),
        ],
    )


def make_ctx(
    cluster: Cluster,
    conf: SparkConf | None = None,
    seed: int = 1,
    trace: bool = True,
    driver_node: str | None = None,
) -> SchedulerContext:
    racks: dict[str, list[str]] = {}
    for node in cluster:
        racks.setdefault(node.spec.rack, []).append(node.name)
    return SchedulerContext(
        sim=cluster.sim,
        conf=conf or SparkConf(),
        cluster=cluster,
        blocks=BlockManager(racks),
        shuffle=ShuffleManager(),
        rng=RandomSource(seed),
        trace=TraceRecorder(enabled=trace),
        driver_node=driver_node or cluster.nodes[0].name,
    )


def simple_app(
    n_map: int = 6,
    n_reduce: int = 2,
    input_mb: float = 64.0,
    compute: float = 4.0,
    shuffle_mb: float = 8.0,
    peak_mb: float = 256.0,
    jobs: int = 1,
    cache: bool = False,
    gpu: bool = False,
    template: str = "t",
) -> Application:
    """A map+reduce application for integration tests (no block placement)."""
    out = []
    for j in range(jobs):
        map_tasks = [
            TaskSpec(
                index=i,
                input_mb=input_mb,
                compute_gigacycles=compute,
                shuffle_write_mb=shuffle_mb,
                peak_memory_mb=peak_mb,
                cache_key=f"{template}:rdd:{i}" if cache else None,
                cache_output_mb=input_mb / 2 if cache else 0.0,
                gpu_capable=gpu,
            )
            for i in range(n_map)
        ]
        ms = Stage(f"{template}:map", StageKind.SHUFFLE_MAP, map_tasks)
        red_tasks = [
            TaskSpec(
                index=i,
                shuffle_read_mb=n_map * shuffle_mb / n_reduce,
                compute_gigacycles=compute / 2,
                output_mb=1.0,
                peak_memory_mb=peak_mb,
            )
            for i in range(n_reduce)
        ]
        rs = Stage(f"{template}:reduce", StageKind.RESULT, red_tasks, parents=(ms,))
        out.append(Job([ms, rs], name=f"{template}:job{j}"))
    return Application(template, out)


def drain_app(driver: Driver, app: Application) -> AppResult:
    """Submit ``app``, drain the driver's simulation, return its result.

    ``AppHandle.result`` raises if the app is still active once the event
    queue drains.
    """
    handle = driver.submit(app)
    driver.ctx.sim.run()
    return handle.result()


@pytest.fixture
def sim() -> Simulator:
    return Simulator()
