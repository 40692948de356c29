"""Unit tests for the fluid resource model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulate.engine import Simulator
from repro.simulate.resources import FluidResource, MemoryPool, waterfill


class TestWaterfill:
    def test_empty(self):
        assert waterfill(10.0, []) == []

    def test_single_uncapped_gets_all(self):
        assert waterfill(10.0, [None]) == [10.0]

    def test_equal_split_uncapped(self):
        assert waterfill(12.0, [None, None, None]) == [4.0, 4.0, 4.0]

    def test_cap_respected(self):
        rates = waterfill(10.0, [2.0, None])
        assert rates == [2.0, 8.0]

    def test_small_caps_redistribute(self):
        rates = waterfill(9.0, [1.0, 2.0, None])
        assert rates == [1.0, 2.0, 6.0]

    def test_oversubscribed_fair_share(self):
        rates = waterfill(6.0, [4.0, 4.0, 4.0])
        assert rates == pytest.approx([2.0, 2.0, 2.0])

    def test_order_preserved(self):
        rates = waterfill(10.0, [None, 1.0])
        assert rates[1] == 1.0 and rates[0] == 9.0

    @given(
        capacity=st.floats(min_value=0.1, max_value=1e6),
        caps=st.lists(
            st.one_of(st.none(), st.floats(min_value=0.01, max_value=1e5)),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=200)
    def test_never_exceeds_capacity_or_caps(self, capacity, caps):
        rates = waterfill(capacity, caps)
        assert sum(rates) <= capacity * (1 + 1e-9)
        for rate, cap in zip(rates, caps):
            assert rate >= 0
            if cap is not None:
                assert rate <= cap * (1 + 1e-9)

    @given(
        capacity=st.floats(min_value=1.0, max_value=1e4),
        n=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=100)
    def test_work_conserving_when_uncapped(self, capacity, n):
        rates = waterfill(capacity, [None] * n)
        assert sum(rates) == pytest.approx(capacity)

    @given(
        capacity=st.floats(min_value=1e-6, max_value=1e9),
        n=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=200)
    def test_uncapped_fast_path_bit_identical_to_general(self, capacity, n):
        """The all-uncapped fast path must produce the exact same floats as
        the sorted general path (golden decision-parity baselines compare
        runtimes bit-for-bit), so replicate the general path's division
        sequence here and require ``==``, not ``approx``."""

        def reference(cap: float, count: int) -> list[float]:
            rates = [0.0] * count
            remaining_cap = cap
            remaining = count
            # Stable sort over all-equal keys visits input order.
            for idx in sorted(range(count), key=lambda i: float("inf")):
                if remaining_cap <= 1e-12:
                    break
                fair = remaining_cap / remaining
                rates[idx] = fair
                remaining_cap -= fair
                remaining -= 1
            return rates

        assert waterfill(capacity, [None] * n) == reference(capacity, n)


class TestFluidResource:
    def test_single_flow_duration(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0, name="r")
        done = []
        res.acquire(20.0, on_complete=lambda f: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(2.0)]

    def test_per_flow_cap(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        done = []
        res.acquire(10.0, cap=2.0, on_complete=lambda f: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(5.0)]

    def test_two_flows_share_fairly(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        done = {}
        res.acquire(10.0, on_complete=lambda f: done.setdefault("a", sim.now))
        res.acquire(10.0, on_complete=lambda f: done.setdefault("b", sim.now))
        sim.run()
        # Both progress at 5/s and finish together at t=2.
        assert done["a"] == pytest.approx(2.0)
        assert done["b"] == pytest.approx(2.0)

    def test_late_arrival_slows_first_flow(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        done = {}
        res.acquire(10.0, on_complete=lambda f: done.setdefault("a", sim.now))
        sim.at(0.5, lambda: res.acquire(10.0, on_complete=lambda f: done.setdefault("b", sim.now)))
        sim.run()
        # a: 5 units by 0.5s, then shares 5/s -> finishes at 0.5 + 1.0 = 1.5
        assert done["a"] == pytest.approx(1.5)
        # b: 5/s until a leaves (5 done), then 10/s for remaining 5
        assert done["b"] == pytest.approx(2.0)

    def test_zero_work_completes_async(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=1.0)
        done = []
        res.acquire(0.0, on_complete=lambda f: done.append(sim.now))
        assert done == []  # not synchronous
        sim.run()
        assert done == [0.0]

    def test_abort_prevents_completion(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=1.0)
        done = []
        flow = res.acquire(10.0, on_complete=lambda f: done.append(sim.now))
        sim.at(1.0, lambda: res.abort(flow))
        sim.run()
        assert done == []
        assert flow.aborted and not flow.done

    def test_abort_speeds_up_survivor(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        done = []
        keeper = res.acquire(10.0, on_complete=lambda f: done.append(sim.now))
        victim = res.acquire(100.0)
        sim.at(1.0, lambda: res.abort(victim))
        sim.run()
        # keeper: 5 units in first second, then 10/s -> 1.5s total
        assert done == [pytest.approx(1.5)]
        assert keeper.done

    def test_rate_scale_slows_flows(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0, rate_scale=lambda: 0.5)
        done = []
        res.acquire(10.0, on_complete=lambda f: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(2.0)]

    def test_rate_scale_change_applies_after_notify(self):
        sim = Simulator()
        scale = {"v": 1.0}
        res = FluidResource(sim, capacity=10.0, rate_scale=lambda: scale["v"])
        done = []
        res.acquire(20.0, on_complete=lambda f: done.append(sim.now))

        def slow_down():
            scale["v"] = 0.5
            res.notify_scale_changed()

        sim.at(1.0, slow_down)
        sim.run()
        # 10 units in 1s at full speed, then 10 at 5/s -> t=3.
        assert done == [pytest.approx(3.0)]

    def test_invalid_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FluidResource(sim, capacity=0.0)

    def test_negative_work_rejected(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=1.0)
        with pytest.raises(ValueError):
            res.acquire(-1.0)

    def test_utilization_reflects_demand(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        assert res.utilization() == 0.0
        res.acquire(100.0, cap=4.0)
        assert res.utilization() == pytest.approx(0.4)
        res.acquire(100.0, cap=4.0)
        assert res.utilization() == pytest.approx(0.8)

    def test_average_utilization(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        res.acquire(10.0)  # busy 1s at full rate
        sim.run()
        sim.at(9.0, lambda: None)
        sim.run()
        # busy integral 1s of 10 runs over 9s elapsed
        assert res.average_utilization() == pytest.approx(1.0 / 9.0, rel=1e-6)

    def test_tiny_residual_work_terminates(self):
        """Regression: sub-ulp residual work must not livelock the engine."""
        sim = Simulator()
        res = FluidResource(sim, capacity=450.0)
        done = []
        # Arrange a settle at a large clock value with a tiny remainder.
        sim.at(40.0, lambda: res.acquire(1.5e-12, on_complete=lambda f: done.append(sim.now)))
        sim.run(max_events=1000)
        assert len(done) == 1

    @given(
        # Up to 64 concurrent flows.  The count is drawn first: a bare
        # ``st.lists(max_size=64)`` stays under ~20 elements in 60 examples.
        works=st.integers(1, 64).flatmap(
            lambda n: st.lists(
                st.floats(min_value=0.01, max_value=100.0), min_size=n, max_size=n
            )
        ),
        capacity=st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_flows_complete_and_conserve_work(self, works, capacity):
        sim = Simulator()
        res = FluidResource(sim, capacity=capacity)
        done = []
        for w in works:
            res.acquire(w, on_complete=lambda f: done.append(f))
        sim.run(max_events=100_000)
        assert len(done) == len(works)
        assert res.total_work_done == pytest.approx(sum(works), rel=1e-6, abs=1e-6)
        # Serial lower bound and no-overlap upper bound on the makespan.
        assert sim.now * capacity >= sum(works) * (1 - 1e-9)


class TestMemoryPool:
    def test_reserve_release(self):
        pool = MemoryPool(100.0)
        pool.reserve(30.0)
        assert pool.used == 30.0 and pool.free == 70.0
        pool.release(10.0)
        assert pool.used == 20.0

    def test_peak_tracked(self):
        pool = MemoryPool(100.0)
        pool.reserve(60.0)
        pool.release(50.0)
        assert pool.peak == 60.0

    def test_overcommit_allowed_but_visible(self):
        pool = MemoryPool(100.0)
        pool.reserve(150.0)
        assert pool.pressure() == pytest.approx(1.5)
        assert pool.free == 0.0

    def test_release_floors_at_zero(self):
        pool = MemoryPool(100.0)
        pool.reserve(10.0)
        pool.release(50.0)
        assert pool.used == 0.0

    def test_can_fit(self):
        pool = MemoryPool(100.0)
        assert pool.can_fit(100.0)
        pool.reserve(40.0)
        assert pool.can_fit(60.0)
        assert not pool.can_fit(61.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            MemoryPool(0.0)
        pool = MemoryPool(1.0)
        with pytest.raises(ValueError):
            pool.reserve(-1.0)
        with pytest.raises(ValueError):
            pool.release(-1.0)


class TestProgress:
    def test_progress_reports_work_completed(self):
        """Regression: progress() is work *done*, not work remaining."""
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        flow = res.acquire(20.0)
        sim.at(1.0, lambda: None)
        sim.run(until=1.0)
        # 10 units/s for 1s of a 20-unit flow.
        assert res.progress(flow) == pytest.approx(10.0)
        assert flow.work == 20.0

    def test_progress_of_finished_flow_is_full_work(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        flow = res.acquire(20.0)
        sim.run()
        assert res.progress(flow) == 20.0

    def test_progress_of_aborted_flow_keeps_completed_work(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        flow = res.acquire(20.0)
        sim.at(0.5, lambda: res.abort(flow))
        sim.run()
        assert res.progress(flow) == pytest.approx(5.0)

    def test_progress_settles_mid_instant(self):
        """progress() must account for time elapsed since the last event."""
        sim = Simulator()
        res = FluidResource(sim, capacity=4.0)
        flow = res.acquire(8.0)
        seen = []
        sim.at(1.0, lambda: seen.append(res.progress(flow)))
        sim.run(until=1.0)
        assert seen == [pytest.approx(4.0)]

    def test_zero_work_flow_progress(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        flow = res.acquire(0.0)
        assert res.progress(flow) == 0.0


class TestWeightedWaterfill:
    def test_uncapped_weights_split_proportionally(self):
        """An uncapped flow's weight now matters (it used to be ignored)."""
        sim = Simulator()
        res = FluidResource(sim, capacity=3.0)
        done = {}
        res.acquire(4.0, weight=2.0, on_complete=lambda f: done.setdefault("heavy", sim.now))
        res.acquire(4.0, weight=1.0, on_complete=lambda f: done.setdefault("light", sim.now))
        sim.run()
        # heavy runs at 2/s -> 4 units in 2s; light at 1/s, then alone at
        # 3/s: 2 units by t=2, remaining 2 at 3/s -> t = 2 + 2/3.
        assert done["heavy"] == pytest.approx(2.0)
        assert done["light"] == pytest.approx(2.0 + 2.0 / 3.0)

    def test_capped_consumer_frees_surplus_for_weighted_rest(self):
        from repro.simulate.resources import waterfill_weighted

        # cap 1 binds below its 4.5 fair share; the freed capacity splits
        # 2:1 between the uncapped consumers.
        rates = waterfill_weighted(10.0, [1.0, None, None], [3.0, 2.0, 1.0])
        assert rates[0] == pytest.approx(1.0)
        assert rates[1] == pytest.approx(6.0)
        assert rates[2] == pytest.approx(3.0)

    def test_all_weights_one_matches_unweighted(self):
        from repro.simulate.resources import waterfill_weighted

        caps = [2.0, None, 5.0, None]
        assert waterfill_weighted(12.0, caps, [1.0] * 4) == waterfill(12.0, caps)

    def test_weighted_capped_flow_end_to_end(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        done = {}
        # cap * weight no longer double-counts: the cap is absolute.
        res.acquire(4.0, cap=2.0, weight=5.0, on_complete=lambda f: done.setdefault("capped", sim.now))
        res.acquire(8.0, weight=1.0, on_complete=lambda f: done.setdefault("free", sim.now))
        sim.run()
        # capped runs at min(2, fair) = 2 -> finishes at 2.0; free gets the
        # rest (8/s) -> finishes at 1.0.
        assert done["capped"] == pytest.approx(2.0)
        assert done["free"] == pytest.approx(1.0)

    def test_nonpositive_weight_rejected(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        with pytest.raises(ValueError, match="weight"):
            res.acquire(1.0, weight=0.0)
        with pytest.raises(ValueError, match="weight"):
            res.acquire(1.0, weight=-2.0)

    def test_waterfill_weighted_validates_inputs(self):
        from repro.simulate.resources import waterfill_weighted

        with pytest.raises(ValueError, match="positive"):
            waterfill_weighted(10.0, [None, None], [1.0, 0.0])
        with pytest.raises(ValueError, match="equal length"):
            waterfill_weighted(10.0, [None], [1.0, 1.0])
        assert waterfill_weighted(10.0, [], []) == []


class TestRefitCoalescing:
    def test_same_instant_acquires_coalesce(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=12.0)
        done = []

        def burst():
            for _ in range(4):
                res.acquire(3.0, on_complete=lambda f: done.append(sim.now))

        sim.at(1.0, burst)
        sim.run()
        # One deferred re-key served all four acquires.
        assert res.refits_coalesced >= 3
        assert done == [pytest.approx(2.0)] * 4

    def test_rates_are_exact_between_coalesced_mutations(self):
        """Same-instant readers see post-waterfill rates immediately."""
        sim = Simulator()
        res = FluidResource(sim, capacity=12.0)
        seen = []

        def burst():
            res.acquire(3.0)
            seen.append(res.current_rate_total())
            res.acquire(3.0)
            seen.append(res.current_rate_total())

        sim.at(1.0, burst)
        sim.run(until=1.0)
        assert seen == [pytest.approx(12.0), pytest.approx(12.0)]
        assert res.utilization() == pytest.approx(1.0)

    def test_single_deadline_event_per_resource(self):
        """However many flows are active, the resource keeps at most one
        pending completion event."""
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        done = []

        def burst():
            for i in range(8):
                res.acquire(float(i + 1), on_complete=lambda f: done.append(sim.now))

        sim.at(1.0, burst)
        sim.run(until=1.0)
        sim.peek_time()  # force the end-of-instant flush
        assert sim.pending_count == 1
        sim.run()
        assert len(done) == 8

    def test_version_moves_per_mutation(self):
        """Observers rely on version bumping at every mutation, even while
        the refit itself is coalesced."""
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        versions = []

        def burst():
            for _ in range(3):
                res.acquire(5.0)
                versions.append(res.version)

        sim.at(1.0, burst)
        sim.run(until=1.0)
        assert versions == [1, 2, 3]

    def test_abort_midway_rebalances(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        done = {}
        fa = res.acquire(10.0, on_complete=lambda f: done.setdefault("a", sim.now))
        res.acquire(10.0, on_complete=lambda f: done.setdefault("b", sim.now))
        sim.at(1.0, lambda: res.abort(fa))
        sim.run()
        assert "a" not in done
        # b: 5 units by t=1, then full 10/s -> t = 1.5.
        assert done["b"] == pytest.approx(1.5)
        assert not fa.active and fa.aborted

    def test_refit_counters_exposed(self):
        sim = Simulator()
        res = FluidResource(sim, capacity=10.0)
        res.acquire(10.0)
        sim.run()
        assert res.refits >= 1
        assert res.refits_coalesced >= 0
