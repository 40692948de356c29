"""Critical-path blame benchmark and the observability-overhead gate.

Three suites, all writing into ``BENCH_critpath.json``:

* ``test_blame_decomposition`` replays the fig5 lr trial under both
  schedulers and checks the critical-path blame fractions are a valid
  decomposition (each in [0, 1], summing to <= 1 + eps) that tells the
  paper's story: stock Spark loses a strictly larger makespan fraction to
  heterogeneity than RUPAM does.
* ``test_fig5_parity_with_tracing`` re-captures the fig5 lr decision
  signature with span tracing ON and diffs it against the golden trace —
  observability must never perturb a scheduling decision or a simulated
  runtime, byte for byte.
* ``test_obs_overhead_smoke`` is the wall-clock gate: the full telemetry
  stack (decision trace + spans + sliding windows + trace-event mirroring)
  must stay within ``OVERHEAD_GATE`` of an obs-disabled run.  The
  measurement runs in a hermetic child interpreter (see
  :func:`_spawn_measure`) so the ratio reflects telemetry cost, not the
  parent process' heap history or dict-layout luck.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import subprocess
import sys
import time
from dataclasses import replace

from repro.experiments.calibration import get_scale
from repro.experiments.parity import (
    capture_fig5_signature,
    diff_signatures,
    load_signature,
)
from repro.experiments.runner import RunSpec, run_once
from repro.obs.critpath import BLAME_CATEGORIES, blame_delta, critical_path

from benchmarks.conftest import emit

# The telemetry stack must cost <= 5% wall-clock vs. an obs-disabled run.
OVERHEAD_GATE = 1.05

_SMOKE = get_scale("smoke")
_FRACTION_EPS = 1e-6


def _lr_spec(**kw) -> RunSpec:
    kw.setdefault("seed", _SMOKE.base_seed)
    kw.setdefault("monitor_interval", None)
    kw.setdefault("scheduler", "rupam")
    return RunSpec(workload="lr", **kw)


def test_blame_decomposition(bench_artifact):
    """Blame fractions are a valid decomposition and separate the schedulers."""
    paths, rows = {}, {}
    for sched in ("spark", "rupam"):
        res = run_once(_lr_spec(scheduler=sched, trace=True))
        cp = critical_path(res.obs)
        paths[sched] = cp
        d = cp.to_dict()
        fractions = d["fractions"]
        assert set(fractions) == set(BLAME_CATEGORIES) | {"unattributed"}
        for cat, frac in fractions.items():
            assert 0.0 <= frac <= 1.0 + _FRACTION_EPS, f"{sched}/{cat}: {frac}"
        total = sum(fractions.values())
        assert total <= 1.0 + _FRACTION_EPS, f"{sched}: fractions sum to {total}"
        assert d["links"] > 0 and d["makespan_s"] > 0.0
        rows[sched] = {
            "makespan_s": round(d["makespan_s"], 6),
            "links": d["links"],
            "fractions": {k: round(v, 6) for k, v in fractions.items()},
        }
    delta = blame_delta(paths["spark"], paths["rupam"])
    # The paper's claim, in blame form: heterogeneity costs stock Spark a
    # strictly larger share of its makespan than it costs RUPAM.  The run is
    # deterministic, so this is a hard assertion, not a statistical one.
    assert delta["hetero"] > 0.0, f"hetero delta not positive: {delta}"
    assert (
        rows["spark"]["makespan_s"] > rows["rupam"]["makespan_s"]
    ), "RUPAM did not beat stock Spark on the fig5 lr trial"
    bench_artifact.attach(
        {
            "workload": "lr",
            "seed": _SMOKE.base_seed,
            "schedulers": rows,
            "delta_spark_minus_rupam": {k: round(v, 6) for k, v in delta.items()},
        }
    )
    emit(
        "blame (lr, seed %d): spark hetero=%.1f%%  rupam hetero=%.1f%%  delta=%+.3f"
        % (
            _SMOKE.base_seed,
            100 * rows["spark"]["fractions"]["hetero"],
            100 * rows["rupam"]["fractions"]["hetero"],
            delta["hetero"],
        )
    )


def test_fig5_parity_with_tracing(bench_artifact):
    """Span tracing must not move a single fig5 decision or runtime."""
    golden = load_signature("benchmarks/golden/fig5_decisions.json")
    golden_lr = {**golden, "workloads": {"lr": golden["workloads"]["lr"]}}
    fresh = capture_fig5_signature(
        scale=str(golden.get("scale", "smoke")), workloads=("lr",), trace=True
    )
    problems = diff_signatures(golden_lr, fresh)
    assert not problems, (
        "tracing perturbed fig5 decisions:\n" + "\n".join(problems[:20])
    )
    runtimes_equal = all(
        g["runtime_s"] == n["runtime_s"]
        for g, n in zip(golden_lr["workloads"]["lr"], fresh["workloads"]["lr"])
    )
    assert runtimes_equal, "decision parity held but simulated runtimes moved"
    decisions = sum(len(t["decisions"]) for t in fresh["workloads"]["lr"])
    bench_artifact.name = "critpath_parity"
    bench_artifact.attach(
        {"parity_ok": True, "trials": len(fresh["workloads"]["lr"]),
         "decisions": decisions}
    )
    emit(f"fig5 lr parity with tracing: {decisions} decisions identical")


def _measure_overhead(
    reps: int, best: dict[tuple[bool, int], float]
) -> tuple[float, float]:
    """Min-of-``reps`` wall time per (config, seed), configs interleaved.

    Each repetition times both configs back to back (order alternating per
    repetition), so a load spike hits them symmetrically and ``min`` across
    repetitions discards it.  ``best`` accumulates the per-(config, seed)
    minima across calls, so a retry pools with — never discards — earlier
    samples.  The heap accumulated before the call is frozen out of GC
    scans for the duration: otherwise every collection triggered by the run
    under measurement pays to walk unrelated residue, a tax that scales
    with process history rather than with the telemetry being measured.
    """
    seeds = [_SMOKE.base_seed + 1000 * t for t in range(_SMOKE.trials)]
    on = _lr_spec(trace=True, observe=True)
    off = _lr_spec(trace=False, observe=False)
    gc.collect()
    gc.freeze()
    try:
        for rep in range(reps):
            configs = ((True, on), (False, off))
            for enabled, spec in configs if rep % 2 == 0 else configs[::-1]:
                for seed in seeds:
                    run = replace(spec, seed=seed)
                    gc.collect()
                    t0 = time.perf_counter()
                    run_once(run)
                    elapsed = time.perf_counter() - t0
                    key = (enabled, seed)
                    best[key] = min(best.get(key, float("inf")), elapsed)
    finally:
        gc.unfreeze()
    on_s = sum(v for (e, _), v in best.items() if e)
    off_s = sum(v for (e, _), v in best.items() if not e)
    return on_s, off_s


def _spawn_measure(
    reps: int, best: dict[tuple[bool, int], float]
) -> tuple[float, float]:
    """Run :func:`_measure_overhead` in a hermetic child interpreter.

    Two per-process biases are large relative to a 5% gate and have nothing
    to do with the telemetry code: string hash randomization shifts the
    layout of every metric-name-keyed dict (observed to move the on/off
    ratio by ~±2% between interpreter launches), and heap accumulated by
    earlier tests inflates allocator and GC costs for whichever config
    allocates more.  A child process with ``PYTHONHASHSEED`` pinned and a
    fresh heap removes both, so the gate measures the stack under test.
    The child pipes back its per-(config, seed) minima, which pool into
    ``best`` across retries exactly as in-process repetitions would.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(("src", ".")),
    )
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.test_critpath", str(reps)],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    for enabled, seed, elapsed in json.loads(proc.stdout.splitlines()[-1]):
        key = (bool(enabled), int(seed))
        best[key] = min(best.get(key, float("inf")), float(elapsed))
    on_s = sum(v for (e, _), v in best.items() if e)
    off_s = sum(v for (e, _), v in best.items() if not e)
    return on_s, off_s


def test_obs_overhead_smoke(bench_artifact):
    """Full telemetry stays within OVERHEAD_GATE of an obs-disabled run."""
    reps = 7
    best: dict[tuple[bool, int], float] = {}
    on_s, off_s = _spawn_measure(reps, best)
    ratio = on_s / off_s
    remeasured = 0
    # Noise-spike retries pool extra repetitions into the same per-seed
    # minima, so the estimate improves monotonically toward the true cost;
    # a persistent failure therefore means real overhead, not a bad sample.
    while ratio > OVERHEAD_GATE and remeasured < 3:
        remeasured += 1
        on_s, off_s = _spawn_measure(reps, best)
        ratio = on_s / off_s
    bench_artifact.name = "critpath_overhead"
    bench_artifact.attach(
        {
            "obs_on_s": round(on_s, 6),
            "obs_off_s": round(off_s, 6),
            "overhead_ratio": round(ratio, 4),
            "gate": OVERHEAD_GATE,
            "reps": reps,
            "remeasured": remeasured,
            "trials_per_rep": _SMOKE.trials,
        }
    )
    emit(
        f"obs overhead: on={on_s:.3f}s off={off_s:.3f}s "
        f"ratio={ratio:.3f} (gate {OVERHEAD_GATE:.2f})"
    )
    assert ratio <= OVERHEAD_GATE, (
        f"telemetry overhead {ratio:.3f}x exceeds {OVERHEAD_GATE:.2f}x gate "
        f"(on={on_s:.3f}s, off={off_s:.3f}s)"
    )


if __name__ == "__main__":
    # Measurement-child entry point for _spawn_measure: time `reps`
    # interleaved repetitions and pipe the per-(config, seed) minima back
    # as a JSON list on the last stdout line.
    _reps = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    _best: dict[tuple[bool, int], float] = {}
    _measure_overhead(_reps, _best)
    print(json.dumps([[e, s, v] for (e, s), v in _best.items()]))
