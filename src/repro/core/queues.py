"""RUPAM's per-resource priority queues (nodes) and task queues.

Resource queues rank candidate nodes most-capable first with lowest
utilization as tie-breaker (Section III-B1).  They are *incremental*: each
queue is a binary heap with lazy deletion, and between offer rounds only
nodes whose metrics actually changed (the dirty set fed by
:class:`~repro.core.resource_monitor.ResourceMonitor`) are re-keyed.  Stale
heap entries are recognized by comparing against a per-node validity key and
discarded on pop, so ``remove_node`` never rebuilds anything.

Task queues hold pending ``(taskset, spec)`` entries per resource kind with
their enqueue time (the GPU/CPU racing policy needs queue age).  Entries are
invalidated by tombstoning — O(1) per launch — and the backing lists are
compacted amortized when at least half the entries are dead, so iterating
live entries is O(live + dead-this-round) instead of a full copy + rebuild
per call.  Per-kind live counters make ``depths()``/``total_pending()`` O(1)
in the number of entries, and a node → locked-entries index makes
``find_for_node`` proportional to the number of *locked* tasks rather than
the total queue depth.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.core.nodeinfo import ALL_KINDS, NodeMetrics, ResourceKind
from repro.simulate.engine import COMPACT_MIN_DEAD

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.task import TaskSpec
    from repro.spark.taskset import TaskSetManager

_KIND_RANK = {kind: i for i, kind in enumerate(ALL_KINDS)}
_UNIT_KINDS = (ResourceKind.CPU, ResourceKind.GPU)

# Heap-entry key: (-effective_capability, load, name) — identical ordering to
# the original full sort, so lazy heaps pop nodes in the exact same sequence.
_Key = tuple[float, float, str]


class ResourceQueues:
    """One priority queue of candidate nodes per resource kind.

    Heap-based with lazy deletion: ``_current[kind][name]`` holds the only
    valid key for a node; heap entries carrying any other key are stale and
    are dropped when they surface at the top.  ``begin_round`` re-keys just
    the dirty nodes and restores entries popped in the previous round.
    """

    def __init__(self) -> None:
        # Heap entries are (key, name, token); ``_current[kind][name]`` holds
        # the (key, token) of the node's single valid entry.  The token — a
        # monotonic push counter — guarantees at most one valid entry per
        # node even when a re-key lands back on an earlier key value (without
        # it, the node's stale twin would become "valid" again and the node
        # could be popped twice in one round).
        self._heaps: dict[ResourceKind, list[tuple[_Key, str, int]]] = {
            k: [] for k in ALL_KINDS
        }
        self._current: dict[ResourceKind, dict[str, tuple[_Key, int]]] = {
            k: {} for k in ALL_KINDS
        }
        self._metrics: dict[str, NodeMetrics] = {}
        self._token = 0
        # Nodes handed a task this round (remove_node): blocked from further
        # pops until the next begin_round restores them.
        self._consumed: set[str] = set()
        # Valid entries popped this round, re-pushed next round if unchanged.
        self._popped: dict[ResourceKind, list[tuple[_Key, str, int]]] = {
            k: [] for k in ALL_KINDS
        }
        self._popped_names: dict[ResourceKind, set[str]] = {
            k: set() for k in ALL_KINDS
        }
        # Total heap pushes — the re-keying work the dirty set is minimizing.
        self.requeue_ops = 0

    def _push(self, kind: ResourceKind, name: str, key: _Key) -> None:
        self._token += 1
        self._current[kind][name] = (key, self._token)
        heapq.heappush(self._heaps[kind], (key, name, self._token))
        self.requeue_ops += 1

    @staticmethod
    def _key_for(
        m: NodeMetrics,
        kind: ResourceKind,
        load_hint: "Callable[[str, ResourceKind], float] | None",
    ) -> _Key:
        """Ranking key, bit-identical to the original sort key.

        Nodes are ranked by *effective available capability* — capability
        scaled by how idle the resource is (the paper sorts on capacity
        descending and utilization ascending; combining them multiplicatively
        realizes both and keeps a loaded fast node below an idle slower one).
        ``load_hint`` folds in already-assigned-but-not-yet-visible tasks so
        one dispatch round does not flood a single node.
        """
        load = m.utilization(kind)
        if load_hint is not None:
            load = max(load, load_hint(m.name, kind))
        if kind in _UNIT_KINDS:
            # CPU/GPU are unit-granular: a new task gets a whole core/device,
            # so the per-unit rate is what it will see as long as one is free
            # (availability gates the rest).
            eff = m.capability(kind)
        else:
            eff = m.capability(kind) * max(0.0, 1.0 - load)
        return (-eff, load, m.name)

    def begin_round(
        self,
        metrics: list[NodeMetrics],
        dirty: "Iterable[str] | None" = None,
        load_hint: "Callable[[str, ResourceKind], float] | None" = None,
    ) -> None:
        """Start an offer round: re-key dirty nodes, restore popped entries.

        ``metrics`` is the full candidate set for the round; ``dirty`` names
        the nodes whose metrics may have changed since the previous round
        (``None`` means all of them — a full rebuild).
        """
        self._consumed.clear()
        new_names = {m.name for m in metrics}
        for name in list(self._metrics):
            if name not in new_names:
                # Node departed: invalidate every heap entry it may have.
                del self._metrics[name]
                for kind in ALL_KINDS:
                    self._current[kind].pop(name, None)
        if dirty is None:
            rekey = new_names
        else:
            # New nodes are always dirty; unknown names in the dirty set are
            # ignored (the monitor may know nodes the round excludes).
            rekey = (set(dirty) & new_names) | (new_names - self._metrics.keys())
        # Restore last round's pops first, so that afterwards every valid
        # (key, token) in _current is guaranteed to sit in its heap — which
        # is what lets the re-key step below skip unchanged keys safely.
        for kind in ALL_KINDS:
            popped = self._popped[kind]
            if popped:
                for key, name, token in popped:
                    # Re-push only the still-valid entry of a still-present
                    # node (a departed node's _current entry is gone).
                    if self._current[kind].get(name) == (key, token):
                        self._push(kind, name, key)
                popped.clear()
                self._popped_names[kind].clear()
        for m in metrics:
            self._metrics[m.name] = m
            if m.name not in rekey:
                continue
            for kind in ALL_KINDS:
                if not m.has(kind):
                    continue
                key = self._key_for(m, kind, load_hint)
                cur = self._current[kind].get(m.name)
                if cur is None or cur[0] != key:
                    self._push(kind, m.name, key)

    def begin_round_incremental(
        self,
        rekey: list[NodeMetrics],
        load_hint: "Callable[[str, ResourceKind], float] | None" = None,
    ) -> None:
        """Start an offer round against an *unchanged* candidate set.

        The dispatcher calls this for every round after the first within one
        dispatch call: no node can join or depart mid-call (no simulation
        events fire), so the departure scan and the full metrics iteration
        of :meth:`begin_round` are skipped.  ``rekey`` carries exactly the
        dirty nodes' (possibly rebuilt) metrics; heap evolution is
        identical to a full ``begin_round`` over the cached candidate list
        with the same dirty set.
        """
        self._consumed.clear()
        for kind in ALL_KINDS:
            popped = self._popped[kind]
            if popped:
                for key, name, token in popped:
                    if self._current[kind].get(name) == (key, token):
                        self._push(kind, name, key)
                popped.clear()
                self._popped_names[kind].clear()
        for m in rekey:
            self._metrics[m.name] = m
            for kind in ALL_KINDS:
                if not m.has(kind):
                    continue
                key = self._key_for(m, kind, load_hint)
                cur = self._current[kind].get(m.name)
                if cur is None or cur[0] != key:
                    self._push(kind, m.name, key)

    def populate(
        self,
        metrics: list[NodeMetrics],
        load_hint: "Callable[[str, ResourceKind], float] | None" = None,
    ) -> None:
        """Rebuild all queues from scratch (compatibility entry point)."""
        self.clear()
        self.begin_round(metrics, dirty=None, load_hint=load_hint)

    def _take(self, kind: ResourceKind, *, consume: bool) -> NodeMetrics | None:
        heap = self._heaps[kind]
        current = self._current[kind]
        while heap:
            key, name, token = heap[0]
            if current.get(name) != (key, token):
                heapq.heappop(heap)  # stale (re-keyed or departed): discard
                continue
            if name in self._consumed:
                # Still valid, just unavailable this round: park for restore.
                heapq.heappop(heap)
                self._popped[kind].append((key, name, token))
                self._popped_names[kind].add(name)
                continue
            if not consume:
                return self._metrics[name]
            heapq.heappop(heap)
            self._popped[kind].append((key, name, token))
            self._popped_names[kind].add(name)
            return self._metrics[name]
        return None

    def pop(self, kind: ResourceKind) -> NodeMetrics | None:
        return self._take(kind, consume=True)

    def peek(self, kind: ResourceKind) -> NodeMetrics | None:
        return self._take(kind, consume=False)

    def size(self, kind: ResourceKind) -> int:
        popped = self._popped_names[kind]
        return sum(
            1
            for name in self._current[kind]
            if name not in self._consumed and name not in popped
        )

    def clear(self) -> None:
        for kind in ALL_KINDS:
            self._heaps[kind].clear()
            self._current[kind].clear()
            self._popped[kind].clear()
            self._popped_names[kind].clear()
        self._metrics.clear()
        self._consumed.clear()

    def remove_node(self, name: str) -> None:
        """Drop a node from every queue (it just received a task)."""
        self._consumed.add(name)


class QueuedTask:
    """One pending-task entry in one per-kind queue.

    Mutable so launches can tombstone it in O(1) (``dead``) and lock changes
    can retarget it (``locked_node``) without rebuilding any list.
    """

    __slots__ = ("ts", "spec", "enqueued_at", "kind", "seq", "dead", "locked_node")

    def __init__(
        self,
        ts: "TaskSetManager",
        spec: "TaskSpec",
        enqueued_at: float,
        kind: ResourceKind = ResourceKind.CPU,
        seq: int = 0,
        locked_node: str | None = None,
    ) -> None:
        self.ts = ts
        self.spec = spec
        self.enqueued_at = enqueued_at
        self.kind = kind
        self.seq = seq
        self.dead = False
        self.locked_node = locked_node


class TaskQueues:
    """Pending tasks bucketed by their characterized bottleneck."""

    def __init__(self) -> None:
        self._lists: dict[ResourceKind, list[QueuedTask]] = {
            k: [] for k in ALL_KINDS
        }
        self._dead: dict[ResourceKind, int] = {k: 0 for k in ALL_KINDS}
        self._live: dict[ResourceKind, int] = {k: 0 for k in ALL_KINDS}
        self._seq = 0
        # (id(ts), index) → that task's not-yet-tombstoned entries.
        self._index: dict[tuple[int, int], list[QueuedTask]] = {}
        # id(ts) → (ts, every entry ever enqueued for it) — lets an inactive
        # taskset be folded without scanning the per-kind lists.
        self._ts_entries: dict[int, tuple["TaskSetManager", list[QueuedTask]]] = {}
        # DB_task_char key → entries (lock updates), node → locked entries.
        self._by_key: dict[str, list[QueuedTask]] = {}
        self._locked: dict[str, list[QueuedTask]] = {}
        # Entry visits spent on maintenance (compaction + stale folding) —
        # what the tombstone design bounds at O(live + dead), not O(calls·D).
        self.work_ops = 0

    # -- write path ----------------------------------------------------------

    def _add(
        self,
        kind: ResourceKind,
        ts: "TaskSetManager",
        spec: "TaskSpec",
        now: float,
        locked_node: str | None,
    ) -> None:
        self._seq += 1
        e = QueuedTask(ts, spec, now, kind, self._seq, locked_node)
        self._lists[kind].append(e)
        self._live[kind] += 1
        self._index.setdefault((id(ts), spec.index), []).append(e)
        bucket = self._ts_entries.get(id(ts))
        if bucket is None:
            bucket = self._ts_entries[id(ts)] = (ts, [])
        bucket[1].append(e)
        self._by_key.setdefault(spec.key, []).append(e)
        if locked_node is not None:
            self._locked.setdefault(locked_node, []).append(e)

    def enqueue(
        self,
        kind: ResourceKind,
        ts: "TaskSetManager",
        spec: "TaskSpec",
        now: float,
        locked_node: str | None = None,
    ) -> None:
        self._add(kind, ts, spec, now, locked_node)

    def enqueue_all_kinds(
        self,
        ts: "TaskSetManager",
        spec: "TaskSpec",
        now: float,
        locked_node: str | None = None,
    ) -> None:
        """First-seen map tasks are considered bounded by every resource."""
        for kind in ALL_KINDS:
            self._add(kind, ts, spec, now, locked_node)

    def _kill(self, e: QueuedTask) -> None:
        """Tombstone one entry and unhook it from every index."""
        if e.dead:
            return
        e.dead = True
        self._dead[e.kind] += 1
        self._live[e.kind] -= 1
        tkey = (id(e.ts), e.spec.index)
        task_entries = self._index.get(tkey)
        if task_entries is not None:
            task_entries.remove(e)
            if not task_entries:
                del self._index[tkey]
        key_entries = self._by_key.get(e.spec.key)
        if key_entries is not None:
            key_entries.remove(e)
            if not key_entries:
                del self._by_key[e.spec.key]
        if e.locked_node is not None:
            node_entries = self._locked.get(e.locked_node)
            if node_entries is not None:
                node_entries.remove(e)
                if not node_entries:
                    del self._locked[e.locked_node]

    def invalidate_task(self, ts: "TaskSetManager", spec: "TaskSpec") -> int:
        """Tombstone every queued entry for one task (it launched).

        Returns the number of entries invalidated.
        """
        entries = self._index.get((id(ts), spec.index))
        if not entries:
            return 0
        count = 0
        for e in list(entries):
            self._kill(e)
            count += 1
        return count

    def invalidate_taskset(self, ts: "TaskSetManager") -> int:
        """Tombstone every entry of a finished/aborted taskset."""
        bucket = self._ts_entries.pop(id(ts), None)
        if bucket is None:
            return 0
        count = 0
        for e in bucket[1]:
            if not e.dead:
                self._kill(e)
                count += 1
        return count

    def invalidate_app(self, app_id: str) -> int:
        """Tombstone every entry of every taskset owned by ``app_id``.

        Per-app teardown: after this, no index/lock/key bucket keeps a live
        entry for the departed application (the tombstones themselves are
        reclaimed by the usual compaction sweeps)."""
        count = 0
        for _ts_id, (ts, _entries) in list(self._ts_entries.items()):
            if ts.app_id == app_id:
                count += self.invalidate_taskset(ts)
        return count

    def update_lock(self, key: str, node: str | None) -> None:
        """Re-target every live entry of DB key ``key`` to ``node``.

        Called when the task manager's lock cache changes (a characterization
        record update flipped ``locked_node_of`` for this key).
        """
        for e in list(self._by_key.get(key, ())):
            if e.locked_node == node:
                continue
            if e.locked_node is not None:
                old = self._locked.get(e.locked_node)
                if old is not None:
                    old.remove(e)
                    if not old:
                        del self._locked[e.locked_node]
            e.locked_node = node
            if node is not None:
                self._locked.setdefault(node, []).append(e)

    # -- read path -----------------------------------------------------------

    def _predicate_dead(self, e: QueuedTask) -> bool:
        return not e.ts.is_active() or e.spec.index not in e.ts.pending

    def _fold_inactive(self) -> None:
        """Tombstone entries of tasksets that went inactive out-of-band."""
        stale = [
            tsid
            for tsid, (ts, _) in self._ts_entries.items()
            if not ts.is_active()
        ]
        for tsid in stale:
            ts, _ = self._ts_entries[tsid]
            self.invalidate_taskset(ts)

    def _compacted(self, kind: ResourceKind) -> list[QueuedTask]:
        """The kind's backing list, compacted once at least half is dead
        (with the shared :data:`COMPACT_MIN_DEAD` floor — tiny lists are
        cheaper to prune lazily during iteration than to rebuild)."""
        lst = self._lists[kind]
        dead = self._dead[kind]
        if dead >= COMPACT_MIN_DEAD and dead * 2 >= len(lst):
            live = []
            for e in lst:
                self.work_ops += 1
                if not e.dead:
                    live.append(e)
            self._lists[kind] = lst = live
            self._dead[kind] = 0
        return lst

    def entries(self, kind: ResourceKind) -> Iterator[QueuedTask]:
        """Live (still-pending) entries in FIFO order, tombstoning stale ones."""
        lst = self._compacted(kind)
        return self._iter_live(lst, len(lst))

    def _iter_live(self, lst: list[QueuedTask], n: int) -> Iterator[QueuedTask]:
        # _predicate_dead is inlined: this generator body runs once per live
        # entry per schedule_task scan, the hottest loop in the dispatcher.
        kill = self._kill
        for i in range(n):
            e = lst[i]
            if e.dead:
                continue
            ts = e.ts
            if not ts.is_active() or e.spec.index not in ts.pending:
                # Launched or invalidated out-of-band: fold it now, exactly
                # where the old per-call rebuild would have pruned it.
                self.work_ops += 1
                kill(e)
                continue
            yield e

    def oldest_waiting(self, kind: ResourceKind) -> QueuedTask | None:
        for e in self.entries(kind):
            return e
        return None

    def find_for_node(self, node_name: str) -> QueuedTask | None:
        """First live entry (any kind) locked to ``node_name``.

        Locked tasks live in whatever queue their bottleneck classifies them
        into, which may never rank their best node first; this cross-queue
        lookup realizes the paper's "this node is used to schedule the task".
        Only this node's locked entries are inspected — not all 5×D entries.
        """
        best: QueuedTask | None = None
        stale: list[QueuedTask] = []
        for e in self._locked.get(node_name, ()):
            if e.dead:
                continue
            if self._predicate_dead(e):
                stale.append(e)
                continue
            if e.ts.blocked:
                continue
            if best is None or (_KIND_RANK[e.kind], e.seq) < (
                _KIND_RANK[best.kind],
                best.seq,
            ):
                best = e
        for e in stale:
            self.work_ops += 1
            self._kill(e)
        return best

    def live_count(self, kind: ResourceKind) -> int:
        """Live entries in one queue, O(#tasksets) worst case."""
        self._fold_inactive()
        return self._live[kind]

    def live_counts(self) -> dict[ResourceKind, int]:
        """Live-entry counts for every kind behind a single staleness fold.

        Returns the maintained counter map itself (not a copy), so callers
        that hold it across mutations observe updates — the dispatcher reads
        it once per round instead of paying one fold per kind.
        """
        self._fold_inactive()
        return self._live

    def depths(self) -> dict[str, int]:
        """Live entries per kind (the telemetry queue-depth sample)."""
        self._fold_inactive()
        return {kind.value: self._live[kind] for kind in ALL_KINDS}

    def total_pending(self) -> int:
        """Distinct pending tasks across all queues."""
        self._fold_inactive()
        return len(self._index)

    def clear(self) -> None:
        for kind in ALL_KINDS:
            self._lists[kind].clear()
            self._dead[kind] = 0
            self._live[kind] = 0
        self._index.clear()
        self._ts_entries.clear()
        self._by_key.clear()
        self._locked.clear()
