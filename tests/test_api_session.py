"""The public Session facade: submission forms, ordering, parity, errors."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.cluster.presets import multirack_cluster
from repro.experiments.runner import RunSpec, run_once
from tests.conftest import simple_app, tiny_cluster

LR_SMALL = dict(size_gb=0.25, iterations=1, partitions=8, reducers=4)


def _signature(res):
    """Everything observable about a run, for byte-identical comparisons."""
    return [
        (m.task_key, m.attempt, m.node, round(m.launch_time, 9),
         round(m.finish_time, 9), m.succeeded)
        for m in res.task_metrics
    ]


class TestSubmission:
    def test_quickstart_registry_name(self):
        s = Session(scheduler="rupam", seed=7)
        s.submit("lr", **LR_SMALL)
        results = s.run_until_idle()
        assert len(results) == 1
        assert results[0].app_id == "LR@0"
        assert results[0].runtime_s > 0
        assert not results[0].aborted

    def test_prebuilt_application(self):
        s = Session(cluster=tiny_cluster, seed=1, monitor_interval=None)
        handle = s.submit(simple_app())
        s.run_until_idle()
        assert handle.result().app_id.endswith("@0")

    def test_overrides_rejected_for_prebuilt_apps(self):
        s = Session(cluster=tiny_cluster, seed=1, monitor_interval=None)
        with pytest.raises(ValueError, match="registry-name"):
            s.submit(simple_app(), size_gb=1.0)

    def test_deferred_submission_activates_at_sim_time(self):
        s = Session(cluster=tiny_cluster, seed=1, monitor_interval=None)
        first = s.submit(simple_app())
        second = s.submit(simple_app(), at=5.0)
        r1, r2 = s.run_until_idle()
        assert r1.submitted_at == 0.0
        assert r2.submitted_at == 5.0
        assert second.submit_time == 5.0
        # Runtime is measured from submission, not cluster start.
        assert r2.finished_at - r2.submitted_at == pytest.approx(r2.runtime_s)
        assert first.app_id != second.app_id

    def test_app_declared_share_defaults_apply(self):
        s = Session(cluster=tiny_cluster, seed=1, monitor_interval=None)
        app = simple_app()
        app.pool, app.weight, app.min_share = "batch", 2.5, 3
        declared = s.submit(app)
        overridden = s.submit(simple_app(), weight=4.0)
        assert (declared.pool, declared.weight, declared.min_share) == (
            "batch", 2.5, 3,
        )
        assert (overridden.pool, overridden.weight) == ("default", 4.0)
        s.run_until_idle()

    def test_results_in_submission_order(self):
        s = Session(cluster=tiny_cluster, seed=1, monitor_interval=None)
        # The small app submitted later finishes first; results order must
        # still follow submission order.
        s.submit(simple_app(n_map=24, compute=16.0))
        s.submit(simple_app(n_map=2, compute=0.5))
        r_big, r_small = s.run_until_idle()
        assert r_small.finished_at <= r_big.finished_at
        assert [r_big.app_id, r_small.app_id] == [h.app_id for h in s.handles]


class TestErrors:
    def test_unknown_cluster(self):
        with pytest.raises(ValueError, match="unknown cluster"):
            Session(cluster="nope")

    def test_unknown_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            Session(scheduler="nope")

    def test_unfinished_app_raises(self):
        s = Session(cluster=tiny_cluster, seed=1, monitor_interval=None)
        s.submit(simple_app(compute=1e9))
        with pytest.raises(RuntimeError, match="did not finish"):
            s.run_until_idle(until=10.0)

    def test_result_before_completion_raises(self):
        s = Session(cluster=tiny_cluster, seed=1, monitor_interval=None)
        handle = s.submit(simple_app())
        with pytest.raises(RuntimeError, match="has not finished"):
            handle.result()

    def test_removed_options_rejected(self):
        with pytest.raises(TypeError):
            Session(shards=2)
        with pytest.raises(TypeError):
            Session(conf_overrides={"vec_min_flows": 2})


class TestParity:
    """The facade and the run_once harness agree byte for byte."""

    def test_session_matches_run_once(self):
        spec = RunSpec(
            workload="lr",
            scheduler="spark",
            seed=3,
            monitor_interval=None,
            workload_overrides=dict(LR_SMALL),
        )
        via_spec = run_once(spec)

        s = Session(scheduler="spark", seed=3, monitor_interval=None)
        s.submit("lr", **LR_SMALL)
        (via_session,) = s.run_until_idle()

        assert via_session.runtime_s == via_spec.runtime_s
        assert _signature(via_session) == _signature(via_spec)


def _five_racks(sim):
    return multirack_cluster(sim, racks=5)


class TestObsParity:
    """Telemetry observes a run; it never changes one."""

    @pytest.mark.parametrize("scheduler", ["spark", "rupam"])
    @pytest.mark.parametrize(
        "workload, overrides",
        [
            ("terasort", dict(size_gb=0.25, partitions=25, reducers=25)),
            ("lr", dict(size_gb=1.0, iterations=2)),
        ],
        ids=["terasort", "lr"],
    )
    def test_observe_off_matches_observe_on(self, scheduler, workload, overrides):
        runs = []
        for observe in (True, False):
            s = Session(
                cluster=_five_racks, scheduler=scheduler, seed=5, observe=observe
            )
            assert len(s.cluster.nodes) == 25
            s.submit(workload, **overrides)
            results = s.run_until_idle()
            runs.append((
                s.sim.now,
                s.sim.events_processed,
                [r.finished_at for r in results],
                [r.task_metrics for r in results],
            ))
        on, off = runs
        assert on[0] == off[0]
        assert on[1] == off[1]
        assert on[2] == off[2]
        assert on[3] == off[3]
        assert on[3] and on[3][0], "the run launched no task attempts"
