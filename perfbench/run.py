#!/usr/bin/env python3
"""Layered benchmark of the privdist estimation pipeline.

    python3 perfbench/run.py --workload ages-1d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One process runs one workload as a single caller in a closed loop: the set-up
runs several times and its median is reported, then replications run back to
back for about ``--seconds`` (at least one always runs).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs every replication twice, untraced and traced, and reports the
per-layer metrics.  ``--workload all`` runs each workload in a child
process of its own, so that peak memory belongs to one workload.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# One BLAS thread keeps the timings steady on a shared machine; it is at
# most nproc everywhere.
BLAS_THREADS = 1

SETUP_MIN_REPEATS = 5  # before the first replication
SETUP_MAX_REPEATS = 200
SETUP_MIN_SECONDS = 0.5

END_TO_END = {  # bounded in BENCHMARK.json; name -> unit
    "setup_s": "s",
    "estimates_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
LAYERS = ("dataio", "mechanisms", "core", "estimators", "analysis", "reduction", "metrics")
SETUP_SPANS = {  # per-layer metric -> span, timed per set-up
    "dataio.sample_s": "dataio.sample",
    "dataio.empirical_s": "dataio.empirical",
    "mechanisms.build_s": "mechanisms.build",
    "analysis.identification_s": "analysis.identification",
}
REP_SPANS = {  # per-layer metric -> span, timed per replication
    "mechanisms.obfuscate_s": "mechanisms.obfuscate",
    "core.obs_matrix_s": "core.obs_matrix",
    "core.to_empirical_s": "core.to_empirical",
    "estimators.ibu_s": "estimators.ibu",
    "estimators.inv_s": "estimators.inv",
    "estimators.rappor_decode_s": "estimators.rappor_decode",
    "analysis.concavity_s": "analysis.concavity",
    "reduction.likely_s": "reduction.likely",
    "reduction.restrict_lift_s": "reduction.restrict_lift",
    "metrics.emd_s": "metrics.emd",
}
REP_COUNTS = (  # counted per replication
    "mechanisms.reports",
    "core.obs_matrix_cells",
    "estimators.ibu_iters",
    "estimators.ibu_unconverged",
    "estimators.ibu_subnormal",
    "analysis.verdict_mismatch",
    "reduction.kept_rows",
    "metrics.transport_pairs",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "privdist" / "__init__.py").is_file():
        print(f"privdist sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}")
    result = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run(workload, seed: int, seconds: float, traced: bool) -> dict:
    import privdist
    from spans import NULL, Tracer

    if Path(privdist.__file__).resolve().parent != SRC / "privdist":
        raise RuntimeError(f"imported privdist from {privdist.__file__}, not from {SRC}")
    tr = Tracer() if traced else NULL

    setup_times = []

    def set_up():
        tr.scope = ("setup", len(setup_times))
        t0 = time.perf_counter()
        workload.setup(seed, tr)
        setup_times.append(time.perf_counter() - t0)

    setup_start = time.perf_counter()
    while len(setup_times) < SETUP_MIN_REPEATS or (
            len(setup_times) < SETUP_MAX_REPEATS
            and time.perf_counter() - setup_start < SETUP_MIN_SECONDS):
        set_up()

    # A pass sets up once more, so that set-ups sample the whole run, then
    # runs one replication; in a traced run it runs the same replication
    # untraced and traced, in alternating order, which measures what tracing
    # costs.  A pass starts only while the run is expected to end within
    # --seconds on average.
    rep_times, plain_times, ops, passes = [], [], [], []
    loop_start = time.perf_counter()
    while not passes or time.perf_counter() - loop_start + statistics.median(passes) / 2 < seconds:
        pass_start = time.perf_counter()
        set_up()
        rep = len(passes)
        tracers = ((NULL, tr) if rep % 2 == 0 else (tr, NULL)) if traced else (NULL,)
        for tracer in tracers:
            tracer.scope = ("rep", rep)
            t0 = time.perf_counter()
            rep_ops = replicate(workload, rep, tracer)
            elapsed = time.perf_counter() - t0
            if tracer is tr:
                rep_times.append(elapsed)
                ops += finish(rep_ops, tr)
            else:
                plain_times.append(elapsed)
        passes.append(time.perf_counter() - pass_start)

    failed = [op for op in ops if op.error is not None]
    print(f"workload {workload.name}: {workload.why}")
    print("env " + json.dumps(environment(seed, seconds, traced)))
    print(f"replications {len(rep_times)}, set-ups {len(setup_times)}, "
          f"operations {len(ops)}, failed {len(failed)}")
    for label, count in _error_summary(failed).items():
        print(f"  failed x{count}: {label}")

    samples = {}
    if traced:
        metrics = layer_metrics(tr, len(setup_times), rep_times, plain_times, samples)
    else:
        scored = sum(1 for op in ops if op.kind == "estimate" and op.error is None)
        values = {
            "setup_s": statistics.median(setup_times),
            "estimates_per_s": scored / sum(rep_times),
            "ok_frac": 1.0 - len(failed) / len(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"setup_s": len(setup_times), "estimates_per_s": scored, "ok_frac": len(ops)}
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in values.items()}
    for name, m in metrics.items():
        _print_metric(name, m["value"], m["unit"], samples.get(name))
    if not traced:
        print("  unbounded (README.md says why):")
        _print_metric("rep_s.p50", statistics.median(rep_times), "s", len(rep_times))
        for name, value, unit, n in accuracy(ops):
            _print_metric(name, value, unit, n)
    correct = not any(op.error for op in ops if op.kind != "verdict")
    return {"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}


def replicate(workload, rep: int, tr) -> list:
    """One replication; a library error outside every operation fails all of them."""
    from privdist.errors import PrivDistError
    from workloads import Op

    try:
        return workload.replicate(rep, tr)
    except PrivDistError as exc:
        return [Op(f"replication {rep}", "replication", error=f"{type(exc).__name__}: {exc}")
                for _ in range(workload.ops_per_rep)]


def finish(ops: list, tr) -> list:
    from workloads import check

    for op in ops:
        check(op, tr)
    return ops


def accuracy(ops: list) -> list:
    """(name, value, unit, samples) of the accuracy and failure figures."""
    ok = [op for op in ops if op.kind == "estimate" and op.error is None]
    ibu = [op.emd for op in ok if op.role in ("ibu", "lift")]
    ref = [op.emd for op in ok if op.role == "ref"]
    gaps = [op.gap for op in ok if op.gap is not None]
    failed = sum(1 for op in ops if op.error is not None)
    rows = [("failed_frac", failed / len(ops), "ratio", len(ops)),
            ("emd_ibu.p50", _median(ibu), "emd", len(ibu)),
            ("emd_ref.p50", _median(ref), "emd", len(ref)),
            ("ibu_gap_nats.max", max(gaps, default=math.nan), "nats", len(gaps))]
    for label in dict.fromkeys(op.label for op in ok):
        emds = [op.emd for op in ok if op.label == label]
        rows.append((f"emd[{label}].p50", _median(emds), "emd", len(emds)))
    return rows


def _print_metric(name: str, value: float, unit: str, n=None):
    shown = "n/a" if math.isnan(value) else f"{value:.6g}"
    print(f"  {name:32s} {shown:>14s} {unit:6s}" + (f" (n={n})" if n else ""))


def layer_metrics(tr, setups: int, rep_times: list, plain_times: list, samples: dict) -> dict:
    reps = len(rep_times)
    setup_s = tr.seconds("setup")
    rep_s = tr.seconds("rep")
    out = {}
    for name, span in SETUP_SPANS.items():
        out[name] = (setup_s.get(span, 0.0) / setups, "s")
        samples[name] = setups
    for name, span in REP_SPANS.items():
        out[name] = (rep_s.get(span, 0.0) / reps, "s")
        samples[name] = reps
    for name in REP_COUNTS:
        out[name] = (tr.counts.get(name, 0.0) / reps, "count")
        samples[name] = reps
    iters = tr.counts.get("estimators.ibu_iters", 0.0)
    out["estimators.ibu_us_per_iter"] = (
        1e6 * rep_s.get("estimators.ibu", 0.0) / iters if iters else 0.0, "us")
    parent = tr.counts.get("reduction.parent_rows", 0.0)
    out["reduction.kept_ratio"] = (tr.counts.get("reduction.kept_rows", 0.0) / parent if parent else 0.0,
                                   "ratio")
    for layer in LAYERS:
        for kind in ("calls", "failed"):
            out[f"{layer}.{kind}"] = (tr.counts.get(f"{layer}.{kind}", 0.0), "count")
    out["bench.unattributed_frac"] = (1.0 - sum(rep_s.values()) / sum(rep_times), "ratio")
    out["bench.trace_overhead_frac"] = (sum(rep_times) / sum(plain_times) - 1.0, "ratio")
    samples["bench.unattributed_frac"] = samples["bench.trace_overhead_frac"] = reps
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def environment(seed: int, seconds: float, traced: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
    }


def _median(values: list) -> float:
    return statistics.median(values) if values else math.nan


def _error_summary(failed: list) -> dict:
    out = {}
    for op in failed:
        key = f"{op.label}: {op.error}"[:160]
        out[key] = out.get(key, 0) + 1
    return out


def run_all(names: list, args) -> int:
    """Run every workload in a child process of its own and summarize."""
    summary = {}
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            status = proc.returncode or 1
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
