"""Resource kinds and the per-node heartbeat payload (Table I, left side).

:class:`NodeMetrics` is the per-node heartbeat view the queue/decision code
consumes; the monitor rebuilds one only for nodes whose version signature
moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ResourceKind(Enum):
    """The five resource dimensions RUPAM schedules over (Fig. 4 queues)."""

    CPU = "cpu"
    MEM = "mem"
    DISK = "disk"
    NET = "net"
    GPU = "gpu"


ALL_KINDS: tuple[ResourceKind, ...] = (
    ResourceKind.CPU,
    ResourceKind.MEM,
    ResourceKind.DISK,
    ResourceKind.NET,
    ResourceKind.GPU,
)


@dataclass(frozen=True)
class NodeMetrics:
    """One node's metrics as carried on an extended heartbeat.

    Static properties (``core_rate``, ``ssd``, ``netbandwidth``, GPU count)
    are sent once at registration; the dynamic ones refresh every beat.
    """

    name: str
    time: float
    # static
    core_rate: float      # delivered gigacycles/s per core ("cpufreq")
    cores: int
    gpus: int
    ssd: bool
    netbandwidth: float   # MB/s
    disk_bandwidth: float  # MB/s
    memory_mb: float
    # dynamic
    cpuutil: float        # [0,1]
    diskutil: float       # [0,1]
    netutil: float        # [0,1]
    gpus_idle: int
    freememory_mb: float  # free executor heap on this node

    def capability(self, kind: ResourceKind) -> float:
        """Capacity score used to order the per-resource node queues."""
        if kind is ResourceKind.CPU:
            return self.core_rate
        if kind is ResourceKind.MEM:
            return self.memory_mb
        if kind is ResourceKind.DISK:
            return self.disk_bandwidth * (2.0 if self.ssd else 1.0)
        if kind is ResourceKind.NET:
            return self.netbandwidth
        if kind is ResourceKind.GPU:
            return float(self.gpus)
        raise ValueError(f"unknown kind {kind}")

    def utilization(self, kind: ResourceKind) -> float:
        """Load score (lower is better) used as the queue tie-breaker."""
        if kind is ResourceKind.CPU:
            return self.cpuutil
        if kind is ResourceKind.MEM:
            if self.memory_mb <= 0:
                return 1.0
            return 1.0 - self.freememory_mb / self.memory_mb
        if kind is ResourceKind.DISK:
            return self.diskutil
        if kind is ResourceKind.NET:
            return self.netutil
        if kind is ResourceKind.GPU:
            if self.gpus == 0:
                return 1.0
            return 1.0 - self.gpus_idle / self.gpus
        raise ValueError(f"unknown kind {kind}")

    def has(self, kind: ResourceKind) -> bool:
        """Whether the node offers this resource at all (C_i^r > 0)."""
        if kind is ResourceKind.GPU:
            return self.gpus > 0
        return True
