"""Event-driven simulation core.

The engine is a classic calendar-queue loop: callbacks are scheduled at
absolute simulated times and executed in time order (FIFO among equal
times).  There is no wall-clock coupling anywhere; determinism is guaranteed
by the (time, sequence) ordering.

Two mechanisms keep the heap small under the fluid-resource workload:

* **End-of-instant flushes** (:meth:`Simulator.defer`): a component can ask
  for a callback to run once *after every already-queued event at the
  current instant, before the clock advances*.  Fluid resources use this to
  coalesce the rate-refits of many same-instant mutations into one.
* **Heap compaction**: cancelled entries are dropped lazily on pop, and when
  at least half the heap is dead (and the dead count clears a small floor)
  the heap is rebuilt from the live entries — the same half-dead compaction
  rule :mod:`repro.core.queues` uses for task queues.  Compaction preserves
  the (time, seq) order exactly, so pop order is unchanged.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Callable

# Compact only once this many dead entries have accumulated: tiny heaps and
# lists are cheaper to prune lazily than to rebuild, and the floor keeps a
# tombstone-heavy trickle (one live, one dead, repeat) from compacting on
# every invalidation.  Amortized cost stays O(1) per tombstone either way.
# Shared by every lazy-deletion structure in the repo — the event heap here,
# the task queues (repro.core.queues), and the scheduling-pool heap
# (repro.spark.pools) — so the half-dead compaction policy is tuned in one
# place.
COMPACT_MIN_DEAD = 32


class SimulationError(RuntimeError):
    """Raised on misuse of the engine (e.g. scheduling in the past)."""


@dataclass(order=True)
class _Entry:
    time: float
    seq: int
    handle: "EventHandle" = field(compare=False)


class EventHandle:
    """A cancellable reference to a scheduled callback."""

    __slots__ = ("fn", "args", "cancelled", "fired", "time", "_sim")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple, sim: "Simulator"):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired)."""
        if not (self.cancelled or self.fired):
            self.cancelled = True
            sim = self._sim
            sim._pending -= 1
            sim.events_cancelled += 1
            sim._maybe_compact()
        self.cancelled = True

    @property
    def pending(self) -> bool:
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<EventHandle t={self.time:.6f} {name} {state}>"


class Simulator:
    """The simulation clock and event loop.

    Components schedule work with :meth:`at` / :meth:`after` and the driver
    calls :meth:`run`.  Callbacks may schedule further events, including at
    the current time (they run later in the same instant, FIFO).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[_Entry] = []
        self._seq = 0
        self._pending = 0
        self._running = False
        self._flush_fns: list[Callable[[], None]] = []
        self.events_processed = 0
        self.events_scheduled = 0
        self.events_cancelled = 0
        self.heap_compactions = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if math.isnan(time):
            raise SimulationError("cannot schedule event at NaN time")
        if time < self._now - 1e-9:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now={self._now}"
            )
        time = max(time, self._now)
        handle = EventHandle(time, fn, args, self)
        self._seq += 1
        self._pending += 1
        self.events_scheduled += 1
        heapq.heappush(self._heap, _Entry(time, self._seq, handle))
        return handle

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.at(self._now + delay, fn, *args)

    # -- end-of-instant flushes ---------------------------------------------

    def defer(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once at the end of the current instant.

        The callback fires after every already-queued event at the current
        simulated time has run and before the clock advances (also before
        ``run(until=...)`` parks the clock at its bound, and before the loop
        reports the queue drained).  Flushes run in registration (FIFO)
        order; a flush may schedule new events, including for the same
        instant's future.  Fluid resources use this to coalesce same-instant
        rate refits.
        """
        self._flush_fns.append(fn)

    def _run_flushes(self) -> None:
        fns = self._flush_fns
        i = 0
        while i < len(fns):  # flushes may append more flushes
            fns[i]()
            i += 1
        fns.clear()

    # -- heap maintenance ---------------------------------------------------

    def _maybe_compact(self) -> None:
        """Rebuild the heap once at least half of it is cancelled tombstones.

        Every live entry's (time, seq) key is preserved and ``heapify``
        restores the heap invariant over the same total order, so the pop
        sequence is identical to the lazy-deletion path — compaction is
        purely a memory/traffic optimization.
        """
        heap = self._heap
        dead = len(heap) - self._pending
        if dead >= COMPACT_MIN_DEAD and dead * 2 >= len(heap):
            self._heap = [e for e in heap if not e.handle.cancelled]
            heapq.heapify(self._heap)
            self.heap_compactions += 1

    def _next_pending_time(self) -> float | None:
        """Time of the next live event, pruning cancelled tombstones at the top."""
        heap = self._heap
        while heap and heap[0].handle.cancelled:
            heapq.heappop(heap)
        return heap[0].time if heap else None

    # -- the loop ------------------------------------------------------------

    def step(self) -> bool:
        """Run the next pending event.  Returns False when the queue is empty.

        Pending end-of-instant flushes run first whenever the next event
        would advance the clock (or the queue is drained).
        """
        while True:
            t = self._next_pending_time()
            if self._flush_fns and (t is None or t != self._now):
                self._run_flushes()
                continue
            if t is None:
                return False
            entry = heapq.heappop(self._heap)
            handle = entry.handle
            self._now = entry.time
            handle.fired = True
            self._pending -= 1
            self.events_processed += 1
            handle.fn(*handle.args)
            return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the event queue.

        Args:
            until: stop once the clock would pass this time (events exactly at
                ``until`` still run).  The clock lands on ``until`` only when a
                live event exists beyond it; cancelled tombstones neither
                advance the clock nor run.
            max_events: safety valve against runaway simulations.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        processed = 0
        try:
            while True:
                t = self._next_pending_time()
                if self._flush_fns and (t is None or t != self._now):
                    # Flushes may re-key resource deadline events, so they
                    # must run before the until-check below looks at the heap.
                    self._run_flushes()
                    continue
                if t is None:
                    break
                if until is not None and t > until:
                    # Never move the clock backwards: a caller chaining
                    # run(until=t) calls (Session.run_until_idle(until=))
                    # may pass a bound at or before the time the previous
                    # call parked the clock on, and that must be a no-op,
                    # not time travel.
                    self._now = max(self._now, until)
                    break
                self.step()
                processed += 1
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} (possible livelock)"
                    )
        finally:
            self._running = False

    def peek_time(self) -> float | None:
        """Time of the next pending event, or None if the queue is drained.

        Runs pending end-of-instant flushes first so a deferred resource
        refit cannot hide (or misreport) the next deadline.
        """
        if self._flush_fns:
            self._run_flushes()
        return self._next_pending_time()

    @property
    def pending_count(self) -> int:
        """Number of schedulable (not fired, not cancelled) events.

        Maintained incrementally on push/cancel/pop — O(1), not a heap scan
        (schedulers poll this on hot paths).
        """
        return self._pending

    def _scan_pending(self) -> int:
        """O(n) reference count of pending events (tests cross-check the
        incremental counter against this)."""
        return sum(1 for e in self._heap if e.handle.pending)
