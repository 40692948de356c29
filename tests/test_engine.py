"""Unit tests for the event engine."""

from __future__ import annotations

import pytest

from repro.simulate.engine import SimulationError, Simulator
from repro.simulate.resources import FluidResource


def test_events_run_in_time_order(sim):
    order = []
    sim.at(2.0, order.append, "b")
    sim.at(1.0, order.append, "a")
    sim.at(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_fifo_among_equal_times(sim):
    order = []
    for tag in ("first", "second", "third"):
        sim.at(1.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_after_is_relative(sim):
    times = []
    sim.at(5.0, lambda: sim.after(2.5, lambda: times.append(sim.now)))
    sim.run()
    assert times == [7.5]


def test_callbacks_can_schedule_at_current_time(sim):
    order = []

    def first():
        order.append("first")
        sim.after(0.0, order.append, "nested")

    sim.at(1.0, first)
    sim.at(1.0, order.append, "second")
    sim.run()
    # The nested zero-delay event runs after already-queued same-time events.
    assert order == ["first", "second", "nested"]


def test_cancel_prevents_execution(sim):
    fired = []
    handle = sim.at(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert not handle.pending


def test_cannot_schedule_in_past(sim):
    sim.at(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1.0, lambda: None)


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.after(-1.0, lambda: None)


def test_nan_time_rejected(sim):
    with pytest.raises(SimulationError):
        sim.at(float("nan"), lambda: None)


def test_run_until_stops_clock_at_bound(sim):
    fired = []
    sim.at(1.0, fired.append, 1)
    sim.at(10.0, fired.append, 10)
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run()
    assert fired == [1, 10]


def test_run_until_includes_events_at_bound(sim):
    fired = []
    sim.at(5.0, fired.append, 5)
    sim.run(until=5.0)
    assert fired == [5]


def test_max_events_guard(sim):
    def loop():
        sim.after(0.1, loop)

    sim.after(0.0, loop)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=50)


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False
    sim.at(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_peek_time_skips_cancelled(sim):
    h = sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    h.cancel()
    assert sim.peek_time() == 2.0


def test_events_processed_counter(sim):
    for i in range(5):
        sim.at(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_run_not_reentrant(sim):
    def evil():
        sim.run()

    sim.at(1.0, evil)
    with pytest.raises(SimulationError, match="reentrant"):
        sim.run()


def test_pending_count(sim):
    h1 = sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    assert sim.pending_count == 2
    h1.cancel()
    assert sim.pending_count == 1


def test_pending_count_tracks_heap_scan_under_churn(sim):
    """The O(1) counter must agree with an O(n) heap scan through arbitrary
    push / cancel / double-cancel / fire interleavings."""
    import random

    rng = random.Random(42)
    handles = []
    for round_no in range(1, 30):
        for k in range(rng.randrange(1, 5)):
            handles.append(sim.at(float(round_no), lambda: None))
        for _ in range(rng.randrange(0, 3)):
            # Cancelling twice (or cancelling a fired handle) must not
            # double-decrement.
            h = rng.choice(handles)
            h.cancel()
            h.cancel()
        assert sim.pending_count == sim._scan_pending()
    sim.run()
    assert sim.pending_count == sim._scan_pending() == 0


def test_pending_count_zero_after_cancelling_everything(sim):
    handles = [sim.at(float(i + 1), lambda: None) for i in range(5)]
    for h in handles:
        h.cancel()
    assert sim.pending_count == 0
    sim.run()
    assert sim.pending_count == 0


def test_run_until_lands_clock_on_bound_between_events(sim):
    """With live events straddling the bound, the clock parks exactly on it."""
    fired = []
    sim.at(1.0, fired.append, "a")
    sim.at(5.0, fired.append, "b")
    sim.run(until=3.0)
    assert fired == ["a"]
    assert sim.now == 3.0
    sim.run()
    assert fired == ["a", "b"]
    assert sim.now == 5.0


def test_run_until_ignores_cancelled_tombstones_at_bound(sim):
    """A cancelled event past the bound neither runs nor advances the clock,
    and tombstones before a live post-bound event can't smuggle it through."""
    fired = []
    h1 = sim.at(4.0, fired.append, "dead")
    sim.at(6.0, fired.append, "live")
    h1.cancel()
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0


def test_run_until_with_only_tombstones_left(sim):
    fired = []
    sim.at(1.0, fired.append, "a")
    h = sim.at(9.0, fired.append, "dead")
    h.cancel()
    sim.run(until=5.0)
    # Queue is effectively drained: nothing live exists beyond the bound, so
    # the clock stays at the last fired event rather than jumping to until.
    assert fired == ["a"]
    assert sim.now == 1.0


def test_peek_time_physically_prunes_tombstones(sim):
    for i in range(5):
        sim.at(1.0 + i, lambda: None).cancel()
    live = sim.at(10.0, lambda: None)
    assert sim.peek_time() == 10.0
    # Lazy deletion is real: the cancelled heads are gone from the heap.
    assert len(sim._heap) == 1
    assert sim._heap[0].handle is live


def test_peek_time_none_when_drained(sim):
    assert sim.peek_time() is None
    sim.at(1.0, lambda: None)
    sim.run()
    assert sim.peek_time() is None


def test_max_events_counts_only_fired_events(sim):
    """Cancelled tombstones don't count against the livelock guard."""
    for i in range(20):
        sim.at(float(i), lambda: None).cancel()
    for i in range(5):
        sim.at(float(i), lambda: None)
    sim.run(max_events=6)  # 5 live events fit under the guard
    assert sim.events_processed == 5


def test_defer_runs_after_current_instant_fifo(sim):
    order = []

    def first():
        sim.defer(lambda: order.append("flush-a"))
        sim.defer(lambda: order.append("flush-b"))
        order.append("first")

    sim.at(1.0, first)
    sim.at(1.0, order.append, "second")
    sim.at(2.0, order.append, "next-instant")
    sim.run()
    # Flushes run after every event at t=1.0, in registration order, before
    # the clock moves to 2.0.
    assert order == ["first", "second", "flush-a", "flush-b", "next-instant"]


def test_defer_runs_before_until_break(sim):
    order = []
    sim.at(1.0, lambda: sim.defer(lambda: order.append((sim.now, "flush"))))
    sim.at(9.0, order.append, "late")
    sim.run(until=4.0)
    assert order == [(1.0, "flush")]
    assert sim.now == 4.0


def _fluid_world(sim):
    """Overlapping weighted flows on one resource: every acquire and
    completion defers a refit, so ``run(until=)`` bounds land in the middle
    of live flush activity.  Returns the (tag, completion time) log."""
    res = FluidResource(sim, capacity=4.0, name="bench")
    done: list[tuple[str, float]] = []

    def spawn(tag, work, weight):
        res.acquire(
            work,
            weight=weight,
            on_complete=lambda fh, t=tag: done.append((t, sim.now)),
        )

    for i in range(6):
        sim.at(0.4 * i, spawn, f"t{i}", 1.0 + 0.37 * i, 1.0 + (i % 3))
    return done


def _log_hex(log):
    return [(tag, t.hex()) for tag, t in log]


def test_chained_run_until_equals_single_run():
    """Chained ``run(until=t_k)`` calls replay one ``run()`` bit for bit,
    deferred flushes at the bounds included."""
    mono = Simulator()
    expect = _fluid_world(mono)
    mono.run()
    assert len(expect) == 6

    for step in (0.1, 0.5, 1.0, 3.0):
        sim = Simulator()
        got = _fluid_world(sim)
        bound = 0.0
        while sim.pending_count:
            bound += step
            sim.run(until=bound)
        assert _log_hex(got) == _log_hex(expect), f"step={step}"


def test_run_until_each_instant_equals_single_run():
    """Zero-width windows: bounding every call at the next event instant
    still flushes each instant exactly once."""
    mono = Simulator()
    expect = _fluid_world(mono)
    mono.run()

    sim = Simulator()
    got = _fluid_world(sim)
    while sim.pending_count:
        sim.run(until=sim.peek_time())
    assert _log_hex(got) == _log_hex(expect)


def test_run_until_in_past_is_noop(sim):
    """A bound at or before the parked clock must never move time
    backwards (callers chain ``run(until=)`` calls)."""
    sim.at(5.0, lambda: None)
    sim.run(until=2.0)
    assert sim.now == 2.0
    sim.run(until=1.0)  # stale bound: no-op, not time travel
    assert sim.now == 2.0
    sim.run(until=5.0)
    assert sim.now == 5.0


def test_defer_runs_before_drain_report(sim):
    order = []
    sim.at(1.0, lambda: sim.defer(lambda: order.append("flush")))
    sim.run()
    assert order == ["flush"]


def test_defer_may_schedule_new_events(sim):
    order = []

    def flush():
        order.append("flush")
        sim.at(1.0, order.append, "same-instant")  # fires after the flush
        sim.at(2.0, order.append, "later")

    sim.at(1.0, lambda: sim.defer(flush))
    sim.run()
    assert order == ["flush", "same-instant", "later"]


def test_deferred_flush_may_defer_again(sim):
    order = []

    def inner():
        order.append("inner")

    def outer():
        order.append("outer")
        sim.defer(inner)

    sim.at(1.0, lambda: sim.defer(outer))
    sim.run()
    assert order == ["outer", "inner"]


def test_heap_compaction_triggers_and_preserves_order(sim):
    """Cancelling more than half the heap (past the floor) rebuilds it; the
    surviving events still fire in exact (time, seq) order."""
    import random

    rng = random.Random(7)
    fired = []
    handles = []
    for i in range(200):
        t = float(rng.randrange(1, 50))
        handles.append(sim.at(t, fired.append, (t, i)))
    doomed = rng.sample(handles, 150)
    for h in doomed:
        h.cancel()
    assert sim.heap_compactions >= 1
    assert len(sim._heap) < 200
    assert sim.pending_count == sim._scan_pending() == 50
    sim.run()
    expected = sorted(
        ((h.time, i) for i, h in enumerate(handles) if h not in doomed),
        key=lambda p: (p[0], p[1]),
    )
    assert fired == expected


def test_heap_compaction_needs_min_dead_floor(sim):
    """A trickle of cancellations below the floor never compacts."""
    for i in range(20):
        sim.at(float(i + 1), lambda: None).cancel()
    sim.at(100.0, lambda: None)
    assert sim.heap_compactions == 0


def test_scheduled_and_cancelled_counters(sim):
    hs = [sim.at(float(i + 1), lambda: None) for i in range(10)]
    for h in hs[:4]:
        h.cancel()
    hs[0].cancel()  # double-cancel must not double-count
    sim.run()
    assert sim.events_scheduled == 10
    assert sim.events_cancelled == 4
    assert sim.events_processed == 6
