"""Application configuration (the subset of SparkConf the model needs)."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SparkConf:
    """Knobs of the simulated Spark deployment.

    Defaults mirror Spark 2.2 where one exists (locality wait 3 s,
    speculation quantile 0.75 / multiplier 1.5, 4 task failures, one task per
    core).  ``executor_memory_mb`` plays the role of ``spark.executor.memory``
    — under stock Spark it is one global value, sized to the smallest node
    (the paper uses 14 GB to accommodate thor); RUPAM overrides it per node.
    """

    executor_memory_mb: float = 14 * 1024.0
    executor_cores: int | None = None  # None -> all cores of the node
    task_cpus: int = 1
    locality_wait_s: float = 3.0
    speculation: bool = True
    speculation_interval_s: float = 0.1
    speculation_quantile: float = 0.75
    speculation_multiplier: float = 1.5
    max_task_failures: int = 8
    # Fraction of the executor heap usable by execution+storage (Java
    # overhead takes the rest); cf. spark.memory.fraction.
    memory_fraction: float = 0.6
    # Of the usable region, the share protected for cached blocks.
    storage_fraction: float = 0.5
    # Fixed per-task dispatch cost (driver -> executor RPC + deserialize).
    scheduler_delay_s: float = 0.004
    # Whether shuffle files survive executor death (external shuffle
    # service / same-node worker dirs).  When False, a killed executor's map
    # outputs are lost and the producing stages are partially re-run, as
    # Spark does on FetchFailed.
    external_shuffle_service: bool = True
    # OOM / executor-loss model.
    oom_check: bool = True
    oom_kill_overcommit: float = 1.35  # usage/heap ratio that kills the JVM
    executor_recovery_s: float = 30.0
    # GC model (see repro.spark.memory).
    gc_pressure_knee: float = 0.6
    gc_max_drag: float = 0.45
    gc_churn_cost_s_per_gb: float = 0.18
    gc_heap_reference_mb: float = 14 * 1024.0
    gc_heap_sensitivity: float = 0.5
    # Executors keep this much of the node for the OS / daemons.
    node_reserved_mb: float = 1024.0
    heartbeat_interval_s: float = 1.0
    # Service-time jitter applied to task demands (lognormal sigma).
    jitter_sigma: float = 0.06
    # Cross-application arbitration when several apps share the cluster
    # (cf. spark.scheduler.mode): "fifo" serves apps in submission order,
    # "fair" runs Spark's FairSchedulingAlgorithm over app weights/minShares.
    scheduler_mode: str = "fifo"
    # Cluster-dynamics knobs (repro.cluster.dynamics).  A spot preemption
    # gives draining executors this much notice before the node vanishes
    # (cf. the EC2 two-minute warning, scaled to simulated workloads).
    preemption_warning_s: float = 2.0
    # A graceful decommission waits at most this long for running tasks to
    # drain before the node is removed anyway.
    decommission_drain_s: float = 60.0
    # Autoscaler request -> node joined (cloud control-plane latency).
    provision_delay_s: float = 10.0
    # Autoscaler control loop: evaluate every interval; scale up while
    # pending tasks exceed up_pending_per_slot x total slots; release an
    # autoscaled node idle for down_idle_s; fleet size stays within
    # [min_nodes, max_nodes] nodes added by the autoscaler.
    autoscale_interval_s: float = 5.0
    autoscale_up_pending_per_slot: float = 2.0
    autoscale_down_idle_s: float = 30.0
    autoscale_min_nodes: int = 0
    autoscale_max_nodes: int = 4

    def with_overrides(self, **kwargs) -> "SparkConf":
        """Functional update."""
        return replace(self, **kwargs)

    def usable_heap_mb(self, executor_memory_mb: float | None = None) -> float:
        """Execution+storage capacity of an executor heap."""
        heap = self.executor_memory_mb if executor_memory_mb is None else executor_memory_mb
        return heap * self.memory_fraction

    def __post_init__(self) -> None:
        if self.executor_memory_mb <= 0:
            raise ValueError("executor_memory_mb must be positive")
        if self.task_cpus < 1:
            raise ValueError("task_cpus must be >= 1")
        if not 0 < self.memory_fraction <= 1:
            raise ValueError("memory_fraction must be in (0, 1]")
        if not 0 <= self.storage_fraction <= 1:
            raise ValueError("storage_fraction must be in [0, 1]")
        if not 0 < self.speculation_quantile <= 1:
            raise ValueError("speculation_quantile must be in (0, 1]")
        if self.speculation_multiplier < 1:
            raise ValueError("speculation_multiplier must be >= 1")
        if self.scheduler_mode not in ("fifo", "fair"):
            raise ValueError(
                f"scheduler_mode must be 'fifo' or 'fair', got {self.scheduler_mode!r}"
            )
        if self.preemption_warning_s < 0:
            raise ValueError("preemption_warning_s must be >= 0")
        if self.decommission_drain_s < 0:
            raise ValueError("decommission_drain_s must be >= 0")
        if self.provision_delay_s < 0:
            raise ValueError("provision_delay_s must be >= 0")
        if self.autoscale_interval_s <= 0:
            raise ValueError("autoscale_interval_s must be positive")
        if self.autoscale_up_pending_per_slot <= 0:
            raise ValueError("autoscale_up_pending_per_slot must be positive")
        if self.autoscale_down_idle_s < 0:
            raise ValueError("autoscale_down_idle_s must be >= 0")
        if self.autoscale_min_nodes < 0:
            raise ValueError("autoscale_min_nodes must be >= 0")
        if self.autoscale_max_nodes < self.autoscale_min_nodes:
            raise ValueError(
                "autoscale_max_nodes must be >= autoscale_min_nodes"
            )
