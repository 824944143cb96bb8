#!/usr/bin/env python3
"""Benchmark of the tpn2f package: training and greedy decoding, end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload micro-train|mathqa-train|mathqa-infer \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` runs the workload twice, untraced and then with spans recorded
at every layer boundary (see ``tracer.py``), and reports the per-layer
metrics, the tracing overhead and the ROADMAP baseline quantities; the spans
are written to ``perfbench/out/``.  Either way the output is a readable
report, the environment as one JSON line, and as the last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` whose metric names
and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys

import checkout   # numpy is imported only after checkout.prepare() pins the BLAS threads


def _blas_runtime_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit() -> str:
    if not (checkout.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(checkout.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return done.stdout.strip()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(checkout.SRC.rglob("*.py")))
    return {"nproc": checkout.blas_threads(), "blas_threads": _blas_runtime_threads(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "git_commit": _git_commit(), "src_lines": src_lines}


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def end_to_end(run) -> dict[str, tuple[float, str]]:
    latencies_ms = [1000.0 * x for x in run.latencies_s]
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "train_samples_per_s": (statistics.median(run.train_rates), "1/s"),
        "infer_samples_per_s": (statistics.median(run.infer_rates), "1/s"),
        "infer_latency_ms_p50": (_percentile(latencies_ms, 50), "ms"),
        "infer_latency_ms_p90": (_percentile(latencies_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _report(title: str, run, metrics: dict[str, tuple[float, str]]) -> None:
    counts = {"setup_s": f"median of {len(run.setup_s)} set-ups",
              "train_samples_per_s": f"median of {len(run.train_rates)} train calls",
              "infer_samples_per_s": f"median of {len(run.infer_rates)} measurements",
              "infer_latency_ms_p50": f"{len(run.latencies_s)} decodes",
              "infer_latency_ms_p90": f"{len(run.latencies_s)} decodes"}
    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:>14.6g} {unit:<5} {counts.get(name, '')}")
    rate = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'error_rate':<24} {rate:>14.6g} ratio {run.failed} failed of {run.attempted}")
    for note in run.notes[:20]:
        print(f"  note: {note}")


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not checkout.prepare():
        print(f"error: no package at {checkout.SRC / 'tpn2f'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(environment()))
    if not args.trace:
        run = workload(args.seed, args.seconds)
        metrics = end_to_end(run)
        _report("end to end", run, metrics)
        print(_result_line(run.failed == 0, run.attempted, run.failed, metrics))
        return 0

    from tracer import Tracer

    untraced = workload(args.seed, args.seconds)
    plain = end_to_end(untraced)
    _report("end to end, untraced", untraced, plain)
    tracer = Tracer()
    with tracer:
        traced = workload(args.seed, args.seconds)
    with_spans = end_to_end(traced)
    _report("end to end, traced", traced, with_spans)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    spans_path = workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"== {len(tracer.spans)} spans written to {spans_path.relative_to(checkout.ROOT)}")

    metrics = tracer.metrics()
    main_rate = "infer_samples_per_s" if args.workload == "mathqa-infer" else "train_samples_per_s"
    overhead = 100.0 * (plain[main_rate][0] - with_spans[main_rate][0]) / plain[main_rate][0]
    metrics["trace.overhead"] = (overhead, "%")
    print(f"== tracing overhead: {main_rate} {plain[main_rate][0]:.6g} untraced, "
          f"{with_spans[main_rate][0]:.6g} traced ({overhead:+.2f}%)")
    baseline = workloads.roadmap_baseline(args.seed)
    print("== ROADMAP baseline quantities (40-token problem: 8 program tuples plus EOS, "
          "and with _9prog 9 program tuples plus EOS)")
    for name, (value, unit) in baseline.items():
        claimed = workloads.ROADMAP_BASELINE[name]
        verdict = "matches" if workloads.matches_roadmap(name, value) else "does not match"
        print(f"  {name:<28} {value:>12.6g} {unit:<5} ROADMAP {claimed:g}: {verdict}")
    metrics.update(baseline)
    print("== per layer (traced run)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    failed = untraced.failed + traced.failed
    print(_result_line(failed == 0, untraced.attempted + traced.attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
