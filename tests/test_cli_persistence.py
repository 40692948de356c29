"""Tests for the CLI and DB_task_char persistence."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.nodeinfo import ResourceKind
from repro.core.rupam import RupamScheduler
from repro.core.taskdb import TaskCharDB, TaskRecord
from repro.simulate.engine import Simulator
from repro.spark.driver import Driver
from tests.conftest import drain_app, hetero_cluster, make_ctx, simple_app


class TestDbPersistence:
    def _filled_db(self) -> TaskCharDB:
        db = TaskCharDB()
        rec = TaskRecord(key="a#0").updated_with(
            compute_time=10.0,
            shuffle_read_time=1.0,
            shuffle_write_time=0.5,
            peak_memory_mb=800.0,
            gpu=True,
            node="thor1",
            runtime=12.0,
            bottleneck=ResourceKind.GPU,
        )
        db.enqueue_update(rec)
        db.enqueue_update(TaskRecord(key="b#1"))  # untouched record
        return db

    def test_roundtrip(self, tmp_path):
        db = self._filled_db()
        path = tmp_path / "db.json"
        n = db.save(path)
        assert n == 2
        loaded = TaskCharDB.load(path)
        a = loaded.lookup("a#0")
        assert a is not None
        assert a.best_node == "thor1" and a.gpu and a.runs == 1
        assert a.history_resources == frozenset({ResourceKind.GPU})
        b = loaded.lookup("b#1")
        assert b is not None and b.best_runtime == float("inf")

    def test_saved_file_is_json(self, tmp_path):
        db = self._filled_db()
        path = tmp_path / "db.json"
        db.save(path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"a#0", "b#1"}

    def test_loaded_db_primes_scheduler(self, tmp_path):
        """The periodic-jobs scenario: run, persist, reload, run again."""
        app1 = simple_app(n_map=4, compute=12.0, jobs=2, template="persist")
        sim = Simulator()
        ctx = make_ctx(hetero_cluster(sim), seed=5)
        sched = RupamScheduler()
        drain_app(Driver(ctx, sched), app1)
        path = tmp_path / "db.json"
        saved = sched.db.save(path)
        assert saved > 0

        db2 = TaskCharDB.load(path)
        app2 = simple_app(n_map=4, compute=12.0, jobs=2, template="persist")
        sim2 = Simulator()
        ctx2 = make_ctx(hetero_cluster(sim2), seed=6)
        sched2 = RupamScheduler(db=db2)
        res2 = drain_app(Driver(ctx2, sched2), app2)
        assert not res2.aborted
        # Records carried over: runs accumulated beyond one app's worth.
        assert any(r.runs >= 3 for r in sched2.db.snapshot().values())


class TestCli:
    def test_parser_commands(self):
        p = build_parser()
        args = p.parse_args(["run", "gramian", "--scheduler", "spark"])
        assert args.workload == "gramian" and args.scheduler == "spark"
        args = p.parse_args(["figure", "table4"])
        assert args.name == "table4"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pagerank" in out and "fig5" in out and "hydra" in out

    def test_run_command(self, capsys):
        rc = main(["run", "gramian", "--scheduler", "rupam", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "runtime (s)" in out and "locality" in out

    def test_figure_command(self, capsys):
        assert main(["figure", "table4"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out

    def test_compare_command(self, capsys):
        rc = main(["compare", "gramian", "--seed", "3"])
        assert rc == 0
        assert "speedup" in capsys.readouterr().out

    def test_invalid_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope"])
