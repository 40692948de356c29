"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``run`` — run one workload under one scheduler and print a summary.
* ``compare`` — run a workload under both schedulers and print the speedup.
* ``figure`` — regenerate one of the paper's figures/tables (``--jobs`` fans
  the runs over worker processes; results are cached under ``.rupam-cache``
  unless ``--no-cache``).
* ``cache`` — inspect or clear the content-addressed run cache.
* ``metrics`` — run a workload and print its observability run report.
* ``explain`` — run a workload and explain one task's dispatch decisions
  (``--app`` scopes the query in multi-tenant traces).
* ``critpath`` — run a workload and print the makespan-critical span chain.
* ``bench`` — run a micro-benchmark (``bench scale``: dispatch-engine
  wall times over a nodes x tasks grid).
* ``blame`` — run a workload and decompose its makespan into blame
  categories (``--compare`` diffs spark vs rupam).
* ``list`` — list registered workloads and figures.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Callable

from repro.analysis.breakdown import total_breakdown
from repro.analysis.locality import locality_table_row
from repro.experiments.report import render_table
from repro.experiments.runner import CLUSTERS, RunSpec, run_once
from repro.workloads.registry import WORKLOADS, workload_names

FIGURES: dict[str, str] = {
    "fig2": "repro.experiments.fig2:run_fig2",
    "fig3": "repro.experiments.fig3:run_fig3",
    "table4": "repro.experiments.table4:run_table4",
    "fig5": "repro.experiments.fig5:run_fig5",
    "fig6": "repro.experiments.fig6:run_fig6",
    "table5": "repro.experiments.table5:run_table5",
    "fig7": "repro.experiments.fig7:run_fig7",
    "fig8": "repro.experiments.fig8:run_fig8",
    "fig9": "repro.experiments.fig9:run_fig9",
    "multitenant": "repro.experiments.multitenant:run_figure_multitenant",
    "resilience": "repro.experiments.resilience:run_figure_resilience",
}

SCALED_FIGURES = {
    "fig5", "fig6", "table5", "fig7", "fig8", "fig9", "multitenant", "resilience",
}


def _resolve(spec: str) -> Callable:
    module_name, func_name = spec.split(":")
    module = __import__(module_name, fromlist=[func_name])
    return getattr(module, func_name)


def _summary(res) -> str:
    rows = [
        ("runtime (s)", f"{res.runtime_s:.1f}"),
        ("task attempts", len(res.task_metrics)),
        ("successful tasks", len(res.successful_metrics())),
        ("OOM task failures", res.oom_task_failures),
        ("executor kills", res.executor_kills),
        ("aborted", "yes" if res.aborted else "no"),
    ]
    out = [render_table(["metric", "value"], rows)]
    out.append("locality: " + str(locality_table_row(res)))
    b = total_breakdown(res)
    out.append(
        "breakdown (s): " + "  ".join(f"{k}={v:.1f}" for k, v in b.items())
    )
    return "\n".join(out)


def _spec_from(args: argparse.Namespace) -> RunSpec:
    return RunSpec(
        workload=args.workload,
        scheduler=args.scheduler,
        seed=args.seed,
        cluster=args.cluster,
        monitor_interval=None,
    )


def cmd_run(args: argparse.Namespace) -> int:
    res = run_once(_spec_from(args))
    print(f"{args.workload} under {args.scheduler} (seed {args.seed}):")
    print(_summary(res))
    if args.trace_out:
        from repro.analysis.timeline import to_chrome_trace

        n = to_chrome_trace(res, args.trace_out)
        print(f"wrote {n} task events to {args.trace_out} "
              "(open in chrome://tracing or Perfetto)")
    if args.events_out:
        from repro.obs.export import write_jsonl

        assert res.obs is not None
        n = write_jsonl(res.obs, args.events_out)
        print(f"wrote {n} observability events to {args.events_out}")
    return 1 if res.aborted else 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.export import write_jsonl
    from repro.obs.report import build_run_report

    res = run_once(_spec_from(args))
    report = build_run_report(res)
    print(report.render())
    if args.json:
        import json
        from pathlib import Path

        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote run report to {out}")
    if args.events_out:
        assert res.obs is not None
        n = write_jsonl(res.obs, args.events_out)
        print(f"wrote {n} observability events to {args.events_out}")
    return 1 if res.aborted else 0


def cmd_explain(args: argparse.Namespace) -> int:
    res = run_once(_spec_from(args))
    assert res.obs is not None
    trace = res.obs.decisions
    keys = trace.matching_keys(args.task, app=args.app)
    if not keys:
        known = trace.task_keys(app=args.app)
        scope = f" in app {args.app!r}" if args.app else ""
        print(f"no task matches {args.task!r}{scope}; {len(known)} task keys "
              "recorded, e.g. " + ", ".join(known[:5]))
        return 1
    if len(keys) > args.max_matches:
        print(f"{len(keys)} tasks match {args.task!r}; showing first "
              f"{args.max_matches} (narrow the query or raise --max-matches)")
        keys = keys[: args.max_matches]
    for key in keys:
        print(trace.explain(key, app=args.app).render())
    return 0


def cmd_critpath(args: argparse.Namespace) -> int:
    from repro.obs.critpath import critical_path, render_critical_path

    res = run_once(_spec_from(args))
    assert res.obs is not None
    cp = critical_path(res.obs)
    print(render_critical_path(cp, max_links=args.max_links))
    return 0


def cmd_blame(args: argparse.Namespace) -> int:
    from repro.obs.critpath import blame_delta, critical_path, render_blame

    schedulers = ("spark", "rupam") if args.compare else (args.scheduler,)
    paths = {}
    for sched in schedulers:
        res = run_once(
            RunSpec(
                workload=args.workload,
                scheduler=sched,
                seed=args.seed,
                cluster=args.cluster,
                monitor_interval=None,
            )
        )
        assert res.obs is not None
        paths[sched] = critical_path(res.obs)
        print(render_blame(paths[sched], label=sched))
    if args.compare:
        print("blame delta (spark - rupam):")
        for k, v in blame_delta(paths["spark"], paths["rupam"]).items():
            print(f"  {k:>12}: {v:+.3f}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.suite == "apps":
        from repro.experiments.appbench import (
            format_churn_table,
            format_open_loop,
            run_app_scale,
        )

        # The apps suite has its own tier ladder (smoke/bench/scale); map the
        # shared --scale flag's "paper" onto the largest tier.
        tier = "scale" if args.scale == "paper" else args.scale
        result = run_app_scale(tier, seed=7)
        print(f"pools churn ({tier}):")
        print(format_churn_table(result["churn"]))
        parity = result["parity"]
        print(
            f"parity: heap order vs frozen sort over {parity['rounds']} "
            f"churn rounds: {parity['mismatches']} mismatches"
        )
        print(format_open_loop(result["open_loop"]))
        if result["top_shared_speedup"] is not None:
            print(f"top shared-tier speedup: {result['top_shared_speedup']:.2f}x")
        return 0

    from repro.experiments.schedbench import format_table, run_grid

    print(format_table(run_grid(args.scale, repeats=args.repeats)))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    runtimes = {}
    for sched in ("spark", "rupam"):
        res = run_once(
            RunSpec(
                workload=args.workload,
                scheduler=sched,
                seed=args.seed,
                cluster=args.cluster,
                monitor_interval=None,
            )
        )
        runtimes[sched] = res.runtime_s
        print(f"{sched:>6}: {res.runtime_s:9.1f}s  "
              f"(oom={res.oom_task_failures}, kills={res.executor_kills})")
    print(f"speedup: {runtimes['spark'] / runtimes['rupam']:.2f}x")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.pool import RunCache

    fn = _resolve(FIGURES[args.name])
    # Figures accept different subsets of (scale, jobs, cache) — table4 runs
    # no simulations at all — so pass only what each one declares.
    accepted = inspect.signature(fn).parameters
    kwargs = {}
    if args.name in SCALED_FIGURES:
        kwargs["scale"] = args.scale
    if "jobs" in accepted:
        kwargs["jobs"] = args.jobs
    if "cache" in accepted and not args.no_cache:
        kwargs["cache"] = RunCache(root=args.cache_dir)
    result = fn(**kwargs)
    print(result.render())
    if kwargs.get("cache") is not None:
        print(kwargs["cache"].stats().render_counts())
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.cache import code_fingerprint
    from repro.experiments.pool import RunCache

    cache = RunCache(root=args.cache_dir)
    if args.action == "stats":
        print(cache.stats().render())
    elif args.action == "clear":
        n = cache.clear()
        print(f"removed {n} cached runs from {cache.root}")
    elif args.action == "fingerprint":
        print(code_fingerprint())
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    print("workloads:")
    for name in workload_names(include_matmul=True):
        _, defaults = WORKLOADS[name]
        print(f"  {name:<16} defaults: {defaults}")
    print("clusters: " + ", ".join(sorted(CLUSTERS)))
    print("figures:  " + ", ".join(sorted(FIGURES)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="RUPAM reproduction: simulate Spark task scheduling on a "
        "heterogeneous cluster.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_run_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--scheduler", choices=("spark", "rupam"), default="rupam")
        sp.add_argument("--seed", type=int, default=7)
        sp.add_argument("--cluster", choices=sorted(CLUSTERS), default="hydra")

    run_p = sub.add_parser("run", help="run one workload under one scheduler")
    run_p.add_argument("workload", choices=workload_names(include_matmul=True))
    add_run_args(run_p)
    run_p.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event timeline of all task attempts "
        "interleaved with scheduler decisions",
    )
    run_p.add_argument(
        "--events-out",
        metavar="FILE",
        default=None,
        help="write the observability event log (JSONL)",
    )
    run_p.set_defaults(fn=cmd_run)

    met_p = sub.add_parser(
        "metrics", help="run one workload and print its run report"
    )
    met_p.add_argument("workload", choices=workload_names(include_matmul=True))
    add_run_args(met_p)
    met_p.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the run report as JSON",
    )
    met_p.add_argument(
        "--events-out",
        metavar="FILE",
        default=None,
        help="write the observability event log (JSONL)",
    )
    met_p.set_defaults(fn=cmd_metrics)

    exp_p = sub.add_parser(
        "explain",
        help="run one workload and explain a task's dispatch decisions",
    )
    exp_p.add_argument(
        "task",
        help="task key (e.g. 'pr:contrib#3') or substring of one",
    )
    exp_p.add_argument(
        "--workload",
        required=True,
        choices=workload_names(include_matmul=True),
    )
    add_run_args(exp_p)
    exp_p.add_argument("--max-matches", type=int, default=5)
    exp_p.add_argument(
        "--app",
        default=None,
        help="scope the query to one application: an app id ('lr@1') or an "
        "app name ('lr'); task keys themselves are not app-prefixed",
    )
    exp_p.set_defaults(fn=cmd_explain)

    cp_p = sub.add_parser(
        "critpath",
        help="run one workload and print its makespan-critical span chain",
    )
    cp_p.add_argument("workload", choices=workload_names(include_matmul=True))
    add_run_args(cp_p)
    cp_p.add_argument(
        "--max-links",
        type=int,
        default=12,
        help="show at most this many chain links (latest first)",
    )
    cp_p.set_defaults(fn=cmd_critpath)

    bl_p = sub.add_parser(
        "blame",
        help="run one workload and decompose its makespan into blame "
        "categories (queueing / compute / hetero / shuffle / straggler)",
    )
    bl_p.add_argument("workload", choices=workload_names(include_matmul=True))
    add_run_args(bl_p)
    bl_p.add_argument(
        "--compare",
        action="store_true",
        help="run under both schedulers and print the per-category blame "
        "delta (spark - rupam)",
    )
    bl_p.set_defaults(fn=cmd_blame)

    bench_p = sub.add_parser(
        "bench", help="run a micro-benchmark and print its table"
    )
    bench_p.add_argument(
        "suite",
        choices=("scale", "apps"),
        help="scale: dispatch-engine wall times (incremental engine) over "
        "a (nodes x tasks) grid; "
        "apps: app-axis control-plane costs (indexed fair pools vs frozen "
        "sort, plus an open-loop arrival stream with state reclamation)",
    )
    bench_p.add_argument(
        "--scale",
        choices=("smoke", "paper", "bench", "scale"),
        default="smoke",
        help="suite size (scale suite: smoke/paper grids; apps suite: "
        "smoke/bench/scale tiers, up to 1M registered apps and 100k "
        "open-loop submissions)",
    )
    bench_p.add_argument("--repeats", type=int, default=3)
    bench_p.set_defaults(fn=cmd_bench)

    cmp_p = sub.add_parser("compare", help="run under both schedulers")
    cmp_p.add_argument("workload", choices=workload_names(include_matmul=True))
    cmp_p.add_argument("--seed", type=int, default=7)
    cmp_p.add_argument("--cluster", choices=sorted(CLUSTERS), default="hydra")
    cmp_p.set_defaults(fn=cmd_compare)

    fig_p = sub.add_parser("figure", help="regenerate a paper figure/table")
    fig_p.add_argument("name", choices=sorted(FIGURES))
    fig_p.add_argument(
        "--scale",
        choices=("smoke", "paper", "bench"),
        default="smoke",
        help="experiment size (bench: multitenant only, CI-sized)",
    )
    fig_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for independent runs (0 = one per CPU; "
        "default from $RUPAM_JOBS, else serial)",
    )
    fig_p.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every run instead of using the on-disk run cache",
    )
    fig_p.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="run cache location (default $RUPAM_CACHE_DIR or .rupam-cache)",
    )
    fig_p.set_defaults(fn=cmd_figure)

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the content-addressed run cache"
    )
    cache_p.add_argument("action", choices=("stats", "clear", "fingerprint"))
    cache_p.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="run cache location (default $RUPAM_CACHE_DIR or .rupam-cache)",
    )
    cache_p.set_defaults(fn=cmd_cache)

    list_p = sub.add_parser("list", help="list workloads, clusters, figures")
    list_p.set_defaults(fn=cmd_list)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
