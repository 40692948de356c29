"""Fluid-flow shared resources.

A :class:`FluidResource` models a capacity (GHz of CPU, MB/s of NIC or disk
bandwidth, ...) divided among concurrent consumers by *max-min fairness with
per-consumer caps* (progressive water-filling).  Whenever the consumer set
changes, remaining work is settled at the old rates and completion deadlines
are re-projected; this is the standard fluid approximation used by cluster
simulators and keeps the event count proportional to the number of phase
transitions rather than to time.

Two design rules keep the event-loop traffic low (DESIGN.md §12):

* **One deadline event per resource** — flows do not own completion events.
  Each resource projects every active flow's ETA (``remaining / rate``) and
  schedules a single sentinel event at the earliest one; on any change only
  that one event moves, so a refit costs O(1) heap operations instead of
  O(active flows).
* **Same-instant refit coalescing** — mutations (acquire / abort / scale
  change) at one simulated instant mark the resource dirty and defer a
  single settle+refit to the engine's end-of-instant flush
  (:meth:`~repro.simulate.engine.Simulator.defer`).  Rates are always
  flushed before they are read and before the clock advances, so results
  are bit-identical to refitting at every mutation.

:class:`MemoryPool` is the space (not rate) counterpart used for executor
heaps and node RAM.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from repro.simulate.engine import EventHandle, Simulator

_EPS = 1e-12
# Sub-nanosecond leftovers are treated as done.  A purely absolute work
# epsilon is not enough: leftover work of ~1e-12 at high rates yields an eta
# below the float ulp of the clock, so the completion event would re-fire at
# the same instant forever.
_TIME_EPS = 1e-9

_INF = math.inf


def _effectively_done(remaining: float, rate: float, now: float) -> bool:
    """True when the flow's residual work cannot advance the clock."""
    if remaining <= _EPS:
        return True
    if rate <= _EPS:
        return False
    eta = remaining / rate
    return eta <= max(_TIME_EPS, 8.0 * math.ulp(max(1.0, now)))


class FlowHandle:
    """One consumer's claim on a :class:`FluidResource`.

    ``remaining`` and ``rate`` are advanced by the owning resource while the
    flow is active and keep their final values after completion or abort.
    """

    __slots__ = (
        "resource",
        "work",
        "remaining",
        "cap",
        "rate",
        "on_complete",
        "done",
        "aborted",
        "started_at",
        "weight",
    )

    def __init__(
        self,
        resource: "FluidResource",
        work: float,
        cap: float | None,
        on_complete: Callable[["FlowHandle"], None] | None,
        weight: float,
        now: float,
    ):
        self.resource = resource
        self.work = work
        self.remaining = work
        self.cap = cap
        self.rate = 0.0
        self.on_complete = on_complete
        self.done = False
        self.aborted = False
        self.started_at = now
        self.weight = weight

    @property
    def active(self) -> bool:
        return not (self.done or self.aborted)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Flow {self.resource.name} remaining={self.remaining:.3g} "
            f"rate={self.rate:.3g}>"
        )


def waterfill(capacity: float, caps: Iterable[float | None]) -> list[float]:
    """Max-min fair allocation of ``capacity`` among consumers with caps.

    ``None`` (or ``math.inf``) means uncapped.  Returns the per-consumer
    rates in input order.
    """
    caps = list(caps)
    n = len(caps)
    if n == 0:
        return []
    rates = [0.0] * n
    remaining_cap = capacity
    if all(c is None for c in caps):
        # Fast path for the common all-uncapped case (e.g. compute flows):
        # nobody is ever clipped below the fair share, so no sort is needed.
        # The arithmetic must stay *bit-identical* to the general path below
        # (whose stable sort visits all-None consumers in input order), so the
        # capacity is handed out by the same sequence of divisions rather than
        # a single capacity/n split.
        for idx in range(n):
            if remaining_cap <= _EPS:
                break
            fair = remaining_cap / (n - idx)
            rates[idx] = fair
            remaining_cap -= fair
        return rates
    # Indices sorted so capped-small consumers are satisfied first.
    order = sorted(range(n), key=lambda i: _INF if caps[i] is None else caps[i])
    remaining = n
    for idx in order:
        if remaining_cap <= _EPS:
            break
        fair = remaining_cap / remaining
        cap = caps[idx]
        alloc = fair if cap is None else min(cap, fair)
        rates[idx] = alloc
        remaining_cap -= alloc
        remaining -= 1
    return rates


def waterfill_weighted(
    capacity: float,
    caps: Iterable[float | None],
    weights: Iterable[float],
) -> list[float]:
    """Weighted max-min fair allocation (progressive filling).

    Each consumer's fair share is proportional to its weight; a consumer
    whose cap binds below that share frees the surplus for the others
    (visited in increasing cap-per-unit-weight order, so saturated consumers
    are settled before the unconstrained ones divide what is left).  With
    every weight equal to 1.0 this degenerates to :func:`waterfill`.
    """
    caps = list(caps)
    weights = list(weights)
    if len(caps) != len(weights):
        raise ValueError("caps and weights must have equal length")
    n = len(caps)
    if n == 0:
        return []
    for w in weights:
        if w <= 0:
            raise ValueError(f"weights must be positive, got {w}")
    rates = [0.0] * n
    remaining_cap = capacity
    remaining_w = sum(weights)
    order = sorted(
        range(n),
        key=lambda i: _INF if caps[i] is None else caps[i] / weights[i],
    )
    for idx in order:
        if remaining_cap <= _EPS:
            break
        fair = remaining_cap * weights[idx] / remaining_w
        cap = caps[idx]
        alloc = fair if cap is None else min(cap, fair)
        rates[idx] = alloc
        remaining_cap -= alloc
        remaining_w -= weights[idx]
    return rates


class FluidResource:
    """A shared, rate-divisible resource attached to a simulator.

    Args:
        sim: the owning simulator (used to project the completion deadline).
        capacity: total service rate (units of work per simulated second).
        name: used in traces and error messages.
        rate_scale: callable returning a multiplier in (0, 1] applied to all
            consumer rates — used to model e.g. GC drag on compute.  It is
            re-read at every refit.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float,
        name: str = "resource",
        rate_scale: Callable[[], float] | None = None,
    ):
        if capacity <= 0:
            raise ValueError(f"{name}: capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self.rate_scale = rate_scale
        # Monotonic change counter: bumped on every mutation of the flow set
        # or its rate inputs (acquire/abort/completion/scale change), even
        # while the matching refit is still deferred.  Observers
        # (ResourceMonitor) compare versions to skip re-reading idle
        # resources, so the version must move with the *logical* state.
        self.version = 0
        # Active flows in insertion order (the order settles, refits and
        # deadline ties walk them in), with a parallel list of their caps fed
        # straight to the waterfill.
        self._flows: list[FlowHandle] = []
        self._caps: list[float | None] = []
        # Non-unit-weight flow count: selects the waterfill variant without
        # scanning.
        self._n_weighted = 0
        self._last_settle = sim.now
        self.total_work_done = 0.0
        # Integral of (allocated rate / capacity) dt, for average utilization.
        self.busy_integral = 0.0
        self._integral_t0 = sim.now
        # Single-deadline machinery: the one sentinel event, the flow it was
        # projected for, the deferred-refit flag, and the incrementally
        # maintained sum of granted rates (utilization polls are O(1)).
        self._event: EventHandle | None = None
        self._due: FlowHandle | None = None
        self._dirty = False
        self._rate_total = 0.0
        # Refit accounting, exported as fluid.refits / fluid.refits_coalesced.
        self.refits = 0
        self.refits_coalesced = 0

    # -- public API ---------------------------------------------------------

    def acquire(
        self,
        work: float,
        cap: float | None = None,
        on_complete: Callable[[FlowHandle], None] | None = None,
        weight: float = 1.0,
    ) -> FlowHandle:
        """Start a flow needing ``work`` units; completion fires ``on_complete``."""
        if work < 0:
            raise ValueError(f"{self.name}: negative work {work}")
        if cap is not None and cap <= 0:
            raise ValueError(f"{self.name}: cap must be positive, got {cap}")
        if weight <= 0:
            raise ValueError(f"{self.name}: weight must be positive, got {weight}")
        self._settle()
        flow = FlowHandle(self, work, cap, on_complete, weight, self.sim.now)
        if work <= _EPS:
            # Zero-size work completes immediately but asynchronously, to keep
            # callback ordering uniform with real flows.
            flow.done = True
            if on_complete is not None:
                self.sim.after(0.0, on_complete, flow)
            return flow
        self._attach(flow)
        self._mutated()
        return flow

    def abort(self, flow: FlowHandle) -> None:
        """Cancel a flow early (its completion callback never fires)."""
        if not flow.active:
            return
        self._settle()
        flow.aborted = True
        self._detach(flow)
        self._mutated()

    def current_rate_total(self) -> float:
        """Sum of rates currently granted (work units per second).  O(1).

        Always exact, even mid-instant: mutations recompute rates eagerly
        and defer only the deadline re-key, so there is nothing to flush.
        """
        return self._rate_total

    def utilization(self) -> float:
        """Instantaneous fraction of capacity in use, in [0, 1]."""
        return min(1.0, self.current_rate_total() / self.capacity)

    def average_utilization(self) -> float:
        """Time-averaged utilization since construction."""
        self._settle()
        span = self.sim.now - self._integral_t0
        if span <= 0:
            return self.utilization()
        return self.busy_integral / span

    @property
    def active_flows(self) -> int:
        """Number of active flows, O(1)."""
        return len(self._flows)

    def progress(self, flow: FlowHandle) -> float:
        """Work units completed so far for ``flow`` (settles first).

        A finished flow reports its full work; an aborted flow reports what
        it had completed when it was cancelled.
        """
        self._settle()
        if flow.done:
            return flow.work
        return max(0.0, flow.work - flow.remaining)

    # -- flow list ----------------------------------------------------------

    def _attach(self, flow: FlowHandle) -> None:
        self._flows.append(flow)
        self._caps.append(flow.cap)
        if flow.weight != 1.0:
            self._n_weighted += 1

    def _detach(self, flow: FlowHandle) -> None:
        if flow is self._due:
            self._due = None
        pos = self._flows.index(flow)
        del self._flows[pos]
        del self._caps[pos]
        if flow.weight != 1.0:
            self._n_weighted -= 1

    # -- internals ----------------------------------------------------------

    def _scale(self) -> float:
        if self.rate_scale is None:
            return 1.0
        s = self.rate_scale()
        if not (0.0 < s <= 1.0):
            raise ValueError(f"{self.name}: rate_scale returned {s}, expected (0,1]")
        return s

    def _settle(self) -> None:
        """Advance all flows' remaining work to the current instant."""
        now = self.sim.now
        dt = now - self._last_settle
        if dt > 0:
            # The clock never advances past a dirty instant (the engine runs
            # the deferred flush first), so the rates — and their
            # incrementally maintained sum — are final for the elapsed span.
            twd = self.total_work_done
            for f in self._flows:
                r = f.rate
                if r > 0:
                    step = r * dt
                    nr = f.remaining - step
                    f.remaining = nr if nr > 0.0 else 0.0
                    twd += step
            self.total_work_done = twd
            self.busy_integral += min(1.0, self._rate_total / self.capacity) * dt
            self._last_settle = now
        elif dt < -1e-9:  # pragma: no cover - engine guarantees monotonic time
            raise RuntimeError(f"{self.name}: time went backwards")
        else:
            self._last_settle = now

    def _mutated(self) -> None:
        """Record a flow-set/rate-input change.

        Rates are recomputed *immediately* (same waterfill arithmetic, at
        the same points, as the historical refit-per-mutation engine — so
        every same-instant reader sees bit-identical values), but the
        deadline re-key — the O(heap) part — is deferred to one
        end-of-instant flush per (resource, instant).  The exception: when
        a completion is already due at the current instant, the historical
        engine's callback interleaving depends on re-keying immediately, so
        coalescing is skipped for that mutation.
        """
        self.version += 1
        if self._event is not None and self._event.time <= self.sim.now:
            self._refit()
            return
        self._after_change()

    def _after_change(self) -> None:
        """Recompute rates, then re-key now or at instant end.

        A flow that is (newly) due at the current instant forces an
        immediate re-key: its completion must fire with a freshly sequenced
        event, exactly where the per-flow engine would have re-scheduled it,
        ahead of anything later callbacks queue at this instant.
        """
        self._recompute_rates()
        if self._any_due_now():
            self._rekey()
            return
        if self._dirty:
            self.refits_coalesced += 1
            return
        self._dirty = True
        self.sim.defer(self._flush)

    def _any_due_now(self) -> bool:
        flows = self._flows
        if not flows:
            return False
        thresh = max(_TIME_EPS, 8.0 * math.ulp(max(1.0, self.sim.now)))
        for f in flows:
            r = f.rate
            if r > _EPS:
                rem = f.remaining
                if rem <= _EPS or rem / r <= thresh:
                    return True
        return False

    def _flush(self) -> None:
        # Rates are already current (recomputed at each mutation); only the
        # deadline needs re-keying.  The engine runs this before the clock
        # advances, so dt since the last mutation is zero.
        if self._dirty:
            self._rekey()

    def _recompute_rates(self) -> None:
        """Re-run the waterfill and refresh every flow's granted rate."""
        scale = self._scale()
        flows = self._flows
        if not flows:
            self._rate_total = 0.0
            return
        if self._n_weighted:
            rates = waterfill_weighted(
                self.capacity, self._caps, [f.weight for f in flows]
            )
        else:
            rates = waterfill(self.capacity, self._caps)
        total = 0.0
        for f, rate in zip(flows, rates):
            r = rate * scale
            f.rate = r
            total += r
        self._rate_total = total

    def _rekey(self) -> None:
        """Move the resource's single deadline event to the earliest ETA."""
        self._dirty = False
        self.refits += 1
        now = self.sim.now
        best: FlowHandle | None = None
        best_time = _INF
        thresh = max(_TIME_EPS, 8.0 * math.ulp(max(1.0, now)))
        for f in self._flows:
            r = f.rate
            if r > _EPS:
                remv = f.remaining
                eta = remv / r
                if remv <= _EPS or eta <= thresh:
                    eta = 0.0
                # Strict < keeps the earliest flow in list order on ties
                # — the order completions fired in when every flow
                # re-keyed its own event on each refit.
                t = now + eta
                if t < best_time:
                    best_time = t
                    best = f
            # A starved flow (rate 0) simply waits for the next refit.
        self._due = best
        if (
            best is not None
            and best_time > now
            and self._event is not None
            and self._event.pending
            and self._event.time == best_time
        ):
            # The earliest deadline did not move: keep the existing sentinel.
            # Only allowed for strictly-future deadlines — a due-now sentinel
            # must be re-sequenced so the completion interleaves with other
            # current-instant events exactly as the per-flow engine's fresh
            # re-schedule did.
            return
        if self._event is not None:
            self._event.cancel()
            self._event = None
        if best is not None:
            self._event = self.sim.at(best_time, self._on_deadline)

    def _refit(self) -> None:
        """Recompute fair rates and re-key the resource's single deadline."""
        self._recompute_rates()
        self._rekey()

    def _on_deadline(self) -> None:
        self._event = None
        if self._dirty:  # pragma: no cover - flushes precede clock advances
            self._settle()
            self._refit()
            return
        flow = self._due
        self._due = None
        if flow is None or not flow.active:  # pragma: no cover - defensive
            return
        self._settle()
        if not _effectively_done(flow.remaining, flow.rate, self.sim.now):
            # Rates changed since projection; re-project.
            self.version += 1
            self._refit()
            return
        flow.remaining = 0.0
        flow.done = True
        self._detach(flow)
        self.version += 1
        # Another flow due at this same instant gets a fresh sentinel right
        # here (before on_complete's side effects), matching the per-flow
        # engine's re-schedule; otherwise the re-key coalesces into the
        # instant's flush.
        self._after_change()
        if flow.on_complete is not None:
            flow.on_complete(flow)

    def notify_scale_changed(self) -> None:
        """Re-fit rates after an external change to ``rate_scale`` inputs."""
        self._settle()
        self._mutated()


class MemoryPool:
    """Space-type resource: reserve/release with high-water tracking."""

    def __init__(self, capacity: float, name: str = "memory"):
        if capacity <= 0:
            raise ValueError(f"{name}: capacity must be positive")
        self.capacity = float(capacity)
        self.name = name
        self.used = 0.0
        self.peak = 0.0

    @property
    def free(self) -> float:
        return max(0.0, self.capacity - self.used)

    def can_fit(self, amount: float) -> bool:
        return amount <= self.free + _EPS

    def reserve(self, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: negative reservation {amount}")
        self.used += amount
        self.peak = max(self.peak, self.used)

    def release(self, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: negative release {amount}")
        self.used = max(0.0, self.used - amount)

    def pressure(self) -> float:
        """Fraction of capacity in use, in [0, +inf) (over-commit possible)."""
        return self.used / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MemoryPool {self.name} {self.used:.2f}/{self.capacity:.2f}>"
