#!/usr/bin/env python
"""Build your own heterogeneous cluster and workload with the public API.

Shows the library as a downstream user would adopt it: define node classes,
assemble a cluster, describe an application's stages and task demands, and
compare schedulers on it — no registered workload or preset needed.

Usage::

    python examples/custom_cluster.py
"""

from __future__ import annotations

from repro.api import Session
from repro.cluster.cluster import Cluster
from repro.cluster.hardware import CpuSpec, DiskSpec, GpuSpec, NodeSpec
from repro.simulate.engine import Simulator
from repro.simulate.randomness import RandomSource
from repro.spark.application import Application, Job
from repro.spark.blocks import BlockManager
from repro.spark.conf import SparkConf
from repro.spark.stage import Stage, StageKind
from repro.spark.task import TaskSpec


def my_cluster(sim: Simulator) -> Cluster:
    """4 nodes: two fast-CPU/SSD, one big-memory, one GPU box."""
    specs = []
    for i in range(2):
        specs.append(NodeSpec(
            name=f"compute{i}",
            cpu=CpuSpec(cores=16, freq_ghz=3.5),
            memory_mb=32 * 1024,
            net_mbps=1170.0,
            disk=DiskSpec(read_mbps=500, write_mbps=450, is_ssd=True),
            group="compute",
        ))
    specs.append(NodeSpec(
        name="fatmem",
        cpu=CpuSpec(cores=32, freq_ghz=2.0),
        memory_mb=256 * 1024,
        net_mbps=1170.0,
        disk=DiskSpec(read_mbps=150, write_mbps=120),
        group="fatmem",
    ))
    specs.append(NodeSpec(
        name="gpubox",
        cpu=CpuSpec(cores=8, freq_ghz=2.5),
        memory_mb=64 * 1024,
        net_mbps=1170.0,
        disk=DiskSpec(read_mbps=150, write_mbps=120),
        gpu=GpuSpec(count=2, kernel_speedup=10.0),
        group="gpu",
    ))
    return Cluster(sim, specs)


def my_app(blocks: BlockManager, node_names: list[str], rng: RandomSource) -> Application:
    """ETL -> train loop: a parse stage feeding 3 GPU-friendly train jobs."""
    ids = blocks.place_dataset("raw", 24, node_names, rng.stream("place"))
    parse = Stage("etl:parse", StageKind.SHUFFLE_MAP, [
        TaskSpec(index=i, input_mb=256, input_blocks=(ids[i],),
                 compute_gigacycles=20, ser_gigacycles=3,
                 shuffle_write_mb=64, peak_memory_mb=1200,
                 cache_key=f"feat:{i}", cache_output_mb=160)
        for i in range(24)
    ])
    sink = Stage("etl:sink", StageKind.RESULT, [
        TaskSpec(index=i, shuffle_read_mb=24 * 64 / 8, compute_gigacycles=4,
                 output_mb=2, peak_memory_mb=800)
        for i in range(8)
    ], parents=(parse,))
    jobs = [Job([parse, sink], name="etl")]
    for epoch in range(3):
        train = Stage("train:step", StageKind.SHUFFLE_MAP, [
            TaskSpec(index=i, input_mb=160, cache_key=f"feat:{i}",
                     compute_gigacycles=60, gpu_capable=True, gpu_fraction=0.85,
                     shuffle_write_mb=2, peak_memory_mb=2000,
                     recompute_cycles=20)
            for i in range(24)
        ])
        agg = Stage("train:agg", StageKind.RESULT, [
            TaskSpec(index=0, shuffle_read_mb=48, compute_gigacycles=3,
                     output_mb=8, peak_memory_mb=600)
        ], parents=(train,))
        jobs.append(Job([train, agg], name=f"epoch{epoch}"))
    return Application("custom-ml", jobs)


def run(scheduler_name: str) -> float:
    s = Session(
        cluster=my_cluster,
        scheduler=scheduler_name,
        seed=11,
        conf=SparkConf().with_overrides(executor_memory_mb=24 * 1024.0),
        monitor_interval=None,
        driver_node="compute0",
    )
    s.submit(my_app(s.blocks, [n.name for n in s.cluster], s.rng))
    (result,) = s.run_until_idle()
    return result.runtime_s


def main() -> None:
    spark = run("spark")
    rupam = run("rupam")
    print(f"custom cluster + custom app:")
    print(f"  stock spark : {spark:8.1f}s")
    print(f"  rupam       : {rupam:8.1f}s")
    print(f"  speedup     : {spark / rupam:8.2f}x")


if __name__ == "__main__":
    main()
