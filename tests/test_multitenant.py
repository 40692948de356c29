"""Multi-tenant scheduling: pools math, determinism, teardown, traces."""

from __future__ import annotations

import json

import pytest

from repro.api import Session
from repro.cluster.cluster import Cluster
from repro.core.rupam import RupamScheduler
from repro.experiments.multitenant import generate_tenants, jain_index
from repro.spark.pools import FAIR, FIFO, AppShare, SchedulingPools
from tests.conftest import hetero_cluster, simple_app, small_node


def two_slot_cluster(sim):
    """Two tiny nodes — 8 slots total, so 20-task apps genuinely contend."""
    return Cluster(sim, [small_node("n1"), small_node("n2")])


def run_two_apps(scheduler: str, mode: str, seed: int = 5, n_map: int = 20,
                 weights=(1.0, 1.0), cluster_fn=two_slot_cluster):
    s = Session(
        cluster=cluster_fn,
        scheduler=scheduler,
        seed=seed,
        conf_overrides={"scheduler_mode": mode},
        monitor_interval=None,
    )
    s.submit(simple_app(n_map=n_map, template="a"), weight=weights[0])
    s.submit(simple_app(n_map=n_map, template="b"), weight=weights[1])
    results = s.run_until_idle()
    return results, s


def _signature(results):
    return json.dumps(
        [
            [
                r.app_id,
                r.submitted_at,
                r.finished_at,
                r.runtime_s,
                [(m.task_key, m.attempt, m.node, m.launch_time, m.finish_time)
                 for m in r.task_metrics],
            ]
            for r in results
        ],
        sort_keys=True,
    )


class TestFairShareMath:
    def test_fifo_orders_by_submission(self):
        pools = SchedulingPools(mode=FIFO)
        pools.register("b@1")
        pools.register("a@0")  # registration order defines seq, not the name
        for _ in range(10):
            pools.note_launch("b@1")
        assert pools.app_order() == ["b@1", "a@0"]

    def test_fair_orders_by_running_over_weight(self):
        pools = SchedulingPools(mode=FAIR)
        pools.register("a@0", weight=1.0)
        pools.register("b@1", weight=1.0)
        for _ in range(4):
            pools.note_launch("a@0")
        pools.note_launch("b@1")
        # 4/1 vs 1/1: b is behind and goes first.
        assert pools.app_order() == ["b@1", "a@0"]

    def test_weight_two_tolerates_twice_the_running_tasks(self):
        pools = SchedulingPools(mode=FAIR)
        pools.register("heavy@0", weight=2.0)
        pools.register("light@1", weight=1.0)
        for _ in range(3):
            pools.note_launch("heavy@0")
        pools.note_launch("light@1")
        # 3/2 > 1/1: light is favored...
        assert pools.app_order() == ["light@1", "heavy@0"]
        pools.note_launch("light@1")
        # ...until 3/2 < 2/1 flips the order back.
        assert pools.app_order() == ["heavy@0", "light@1"]

    def test_min_share_makes_an_app_needy_first(self):
        pools = SchedulingPools(mode=FAIR)
        pools.register("a@0", weight=10.0)
        pools.register("b@1", weight=1.0, min_share=4)
        pools.note_launch("b@1")
        # b runs 1 < min_share 4: needy entities precede all satisfied ones
        # regardless of weight.
        assert pools.app_order() == ["b@1", "a@0"]

    def test_fair_key_matches_spark_comparator(self):
        needy = AppShare("x", min_share=4, running=1, seq=3)
        sated = AppShare("y", weight=2.0, running=6, seq=1)
        assert needy.fair_key() == (0, 0.25, 3)
        assert sated.fair_key() == (1, 3.0, 1)
        assert needy.fair_key() < sated.fair_key()

    def test_single_app_fast_path_returns_none(self):
        pools = SchedulingPools(mode=FAIR)
        pools.register("only@0")
        assert pools.app_order() is None
        pools.register("second@1")
        assert pools.app_order() is not None
        pools.deactivate("second@1")
        assert pools.app_order() is None

    def test_note_end_never_goes_negative(self):
        pools = SchedulingPools()
        pools.register("a@0")
        pools.note_end("a@0")
        assert pools.running_tasks("a@0") == 0

    def test_invalid_registrations_rejected(self):
        pools = SchedulingPools()
        with pytest.raises(ValueError, match="weight"):
            pools.register("a@0", weight=0.0)
        with pytest.raises(ValueError, match="min_share"):
            pools.register("a@0", min_share=-1)

    def test_jain_index(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)
        assert jain_index([]) == 1.0


class TestDeterminism:
    @pytest.mark.parametrize("scheduler", ["spark", "rupam"])
    @pytest.mark.parametrize("mode", [FIFO, FAIR])
    def test_two_apps_byte_identical_across_runs(self, scheduler, mode):
        r1, _ = run_two_apps(scheduler, mode)
        r2, _ = run_two_apps(scheduler, mode)
        assert _signature(r1) == _signature(r2)

    def test_tenant_trace_is_seeded(self):
        a = generate_tenants(8, 5.0, seed=7, workloads=("lr", "terasort"))
        b = generate_tenants(8, 5.0, seed=7, workloads=("lr", "terasort"))
        c = generate_tenants(8, 5.0, seed=8, workloads=("lr", "terasort"))
        assert a == b
        assert a != c
        assert a[0].arrival_s == 0.0
        assert a[0].weight == 2.0 and a[1].weight == 1.0


class TestPolicyBehaviour:
    def test_fair_interleaves_where_fifo_serializes(self):
        # Under contention FIFO drains app a's queue first; FAIR alternates.
        # Compare how many of app b's tasks launch before app a finishes.
        def early_b_launches(mode):
            results, _ = run_two_apps("spark", mode, n_map=20)
            a, b = results
            a_done = max(m.finish_time for m in a.task_metrics)
            return sum(1 for m in b.task_metrics if m.launch_time < a_done)

        assert early_b_launches(FAIR) > early_b_launches(FIFO)

    def test_weighted_app_finishes_sooner_under_fair(self):
        results, _ = run_two_apps("spark", FAIR, weights=(1.0, 3.0))
        a, b = results
        # Same work, same arrival: triple weight must not lose.
        assert b.finished_at <= a.finished_at


class TestTeardown:
    def test_rupam_queues_empty_after_both_apps_finish(self):
        results, session = run_two_apps("rupam", FAIR)
        assert all(not r.aborted for r in results)
        scheduler = session.scheduler
        assert isinstance(scheduler, RupamScheduler)
        q = scheduler.tm.queues
        assert q.total_pending() == 0
        assert len(q._index) == 0
        assert len(q._locked) == 0
        assert len(q._ts_entries) == 0
        assert scheduler.tm._stage_tasksets == {}

    def test_invalidate_app_reports_removed_entries(self):
        results, session = run_two_apps("rupam", FIFO)
        scheduler = session.scheduler
        # Everything already drained: nothing left to invalidate.
        assert scheduler.tm.queues.invalidate_app(results[0].app_id) == 0


class TestIndexedPoolOrdering:
    """The lazy-deletion heap behind app_order() (DESIGN.md §15)."""

    def test_equal_shares_tie_break_by_registration_seq(self):
        pools = SchedulingPools(mode=FAIR)
        for i in range(6):
            pools.register(f"app@{i}", weight=1.0)
        # All shares identical (0 running / weight 1): the unique
        # registration seq is the deterministic tie-breaker, so the order
        # is exactly submission order — every run, both engines.
        expected = [f"app@{i}" for i in range(6)]
        assert pools.app_order() == expected
        assert pools.app_order_sorted() == expected
        for i in range(6):
            pools.note_launch(f"app@{i}")
        assert pools.app_order() == expected

    def test_seeded_churn_parity_heap_vs_frozen_sort(self):
        from repro.experiments.appbench import (
            PoolsChurnTier,
            pools_parity_probe,
        )

        for mode in (FIFO, FAIR):
            tier = PoolsChurnTier(apps=600, active=150, rounds=120, mode=mode)
            probe = pools_parity_probe(tier, seed=11)
            assert probe["parity_ok"], f"{mode}: {probe}"

    def test_app_order_expires_on_structural_mutation(self):
        pools = SchedulingPools(mode=FAIR)
        for i in range(3):
            pools.register(f"a@{i}")
        order = pools.app_order()
        assert next(iter(order)) == "a@0"
        pools.register("a@3")  # structural mutation mid-walk
        with pytest.raises(RuntimeError, match="expired"):
            order.materialize()

    def test_materialized_snapshot_survives_mutation(self):
        pools = SchedulingPools(mode=FAIR)
        for i in range(3):
            pools.register(f"a@{i}")
        order = pools.app_order()
        frozen = list(order.materialize())
        pools.release("a@0")
        pools.register("a@3")
        # Fully-drained snapshots replay from their memo, unaffected.
        assert list(order) == frozen

    def test_nested_app_order_freezes_the_outer_round(self):
        pools = SchedulingPools(mode=FAIR)
        for i in range(4):
            pools.register(f"a@{i}")
        outer = pools.app_order()
        first = next(iter(outer))
        pools.note_launch(first)  # re-key signal, not structural
        inner = pools.app_order()  # nested call (speculative ordering)
        # The outer snapshot was finalized at its own frozen keys: it still
        # yields the round-start order, while the nested order sees the
        # launch it recorded mid-round.
        assert outer.materialize()[0] == first
        assert inner.materialize()[0] != first

    def test_release_keeps_share_table_at_active_size_and_compacts(self):
        pools = SchedulingPools(mode=FAIR)
        n = 200
        for i in range(n):
            pools.register(f"a@{i}")
        for i in range(n - 2):
            pools.release(f"a@{i}")
        assert pools.active_count() == 2
        assert len(pools._apps) == 2          # O(active), not O(ever)
        assert pools.compactions >= 1         # tombstones were swept
        assert len(pools._heap) <= 2 * 2 + 32  # live + sub-floor stragglers
        assert pools.app_order() == [f"a@{n - 2}", f"a@{n - 1}"]

    def test_mode_flip_rekeys_the_heap(self):
        pools = SchedulingPools(mode=FIFO)
        pools.register("a@0", weight=1.0)
        pools.register("b@1", weight=4.0)
        assert pools.app_order() == ["a@0", "b@1"]
        for _ in range(4):
            pools.note_launch("a@0")
        pools.mode = FAIR  # the driver sets mode after construction
        # 4/1 vs 0/4: b goes first under fair keys; the heap must have been
        # rebuilt under the new comparator, not compare int vs tuple keys.
        assert pools.app_order() == ["b@1", "a@0"]


class TestSubmitValidation:
    def test_submit_rejects_nonpositive_weight(self):
        s = Session(
            cluster=two_slot_cluster,
            scheduler="spark",
            seed=5,
            conf_overrides={"scheduler_mode": FAIR},
            monitor_interval=None,
        )
        with pytest.raises(ValueError, match="weight"):
            s.submit(simple_app(n_map=2), weight=0.0)
        with pytest.raises(ValueError, match="weight"):
            s.submit(simple_app(n_map=2), weight=-1.0)
        with pytest.raises(ValueError, match="min_share"):
            s.submit(simple_app(n_map=2), min_share=-2)
        # Rejected submissions must leave no registered state behind.
        assert s.driver.apps == {}
        assert s.ctx.pools.active_count() == 0


class TestReclamation:
    """Service mode: N submit/complete cycles leave no per-app state."""

    def test_whole_driver_teardown_retains_no_per_app_state(self):
        s = Session(
            cluster=two_slot_cluster,
            scheduler="rupam",
            seed=5,
            conf_overrides={"scheduler_mode": FAIR},
            monitor_interval=None,
        )
        records = []
        s.driver.enable_reclamation(records.append)
        cycles = 40  # past the 32-tombstone compaction floor
        for i in range(cycles):
            # Two contending apps per cycle so the pools/fair path engages.
            s.driver.submit(simple_app(n_map=4, template="a"), weight=2.0)
            s.driver.submit(simple_app(n_map=4, template="b"))
            s.sim.run()
        assert len(records) == 2 * cycles
        assert all(not r.aborted for r in records)
        reaped = {r.app_id for r in records}

        # Driver: the app registry and metric-name cache are empty.
        assert s.driver.apps == {}
        from repro.spark.driver import _APP_METRIC

        assert not {k for k in _APP_METRIC if k[0] in reaped}

        # Scheduler/TM: queues and stage maps hold no reaped taskset.
        scheduler = s.scheduler
        assert isinstance(scheduler, RupamScheduler)
        for app_id in reaped:
            assert scheduler.tm.retained_app_state(app_id) == {
                "queue_tasksets": 0,
                "stage_tasksets": 0,
            }

        # Pools: shares released, heap swept down to sub-floor stragglers.
        pools = s.ctx.pools
        assert pools.active_count() == 0
        assert not set(pools._apps) & reaped
        assert len(pools._heap) < 32

        # Data plane: every shuffle was released with its app.
        assert s.ctx.shuffle.shuffle_count() == 0

        # Observability: after the deferred sweeps flush, no span, decision,
        # or per-app counter references a reaped app.
        obs = s.ctx.obs
        obs.flush_released()
        for app_id in reaped:
            assert obs.spans.of_app(app_id) == []
        assert not {d.app for d in obs.decisions.decisions} & reaped
        assert not [k for k in obs.metrics.counters if k.startswith("app.")]

        # Resource monitor: heartbeat reports track nodes, never apps.
        assert set(scheduler.rm.executor_data) == {n.name for n in s.cluster.nodes}


class TestDecisionTraces:
    @pytest.mark.parametrize("scheduler", ["spark", "rupam"])
    def test_launch_decisions_carry_app_ids(self, scheduler):
        results, session = run_two_apps(scheduler, FAIR, cluster_fn=hetero_cluster)
        decisions = session.ctx.obs.decisions.decisions
        apps_seen = {d.app for d in decisions}
        assert apps_seen == {r.app_id for r in results}
        assert "" not in apps_seen
        # Serialized form carries the app for downstream tooling.
        assert all("app" in d.to_dict() for d in decisions)
