#!/usr/bin/env python3
"""Run perfbench over a list of seeds for one or more checkouts and write the
figures as ``BENCH_<label>.json``.

Usage (from the root of a checkout):

    python3 scripts/bench_json.py --label lockstep \\
        --checkout parent=../tpn2f-parent --checkout change=. \\
        --workloads micro-train,mathqa-train --seeds 0-9 --seconds 20

Each checkout is first copied into a fresh temporary directory: its
``src/``, its ``perfbench/`` without ``out/`` and ``__pycache__`` and its
``BENCHMARK.json`` (``plain_copy``).  Every run then uses that copy, so a
repository checkout and a plain copy of the same files are measured alike;
each checkout's commit is still read from its own path.  Each run is
``python3 perfbench/run.py --workload W --seed S --seconds X --trace 0`` in
the copy's root.  For every seed and workload the
checkouts run back to back, their order flipped from one seed to the next,
so that two checkouts form pairs of runs taken under the same conditions.
The file holds, per checkout and workload, every run's result line and the
median and quartiles of each end-to-end metric, with the environment the
runs reported (commit, ``src/`` line count, BLAS and thread count); with two
or more checkouts, it also compares each one with the first, pair by pair,
and states for each metric whether a claimed gain holds and whether the
metric stays within its ``BENCHMARK.json`` bound (see ``compare``).  The
sweep ends by printing those verdicts, one line per workload and metric
(``verdict_lines``), so that its log shows the outcome.

A run that exits non-zero, or prints no result, is listed under
``failed_runs`` with its seed, workload, checkout, exit code and the tail of
its stderr.  It is left out of its checkout's summaries and out of the pairs;
the sweep goes on, and the script exits 1 once the file is written.  A run
that finishes but reports ``correct: false`` or failed checks is kept in the
summaries and also listed under ``failed_checks``; it too makes the script
exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``"0-9"``, ``"3,5,8"`` or a mix such as ``"0-4,100"``; a ``ValueError``
    for an empty part or a descending range."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        first, last = int(lo), int(hi or lo)
        if last < first:
            raise ValueError(f"descending seed range {part!r}")
        seeds += range(first, last + 1)
    return seeds


def plain_copy(root: Path, dest: Path) -> Path:
    """Copy the files a benchmark run reads from checkout ``root`` into ``dest``:
    ``src/``, ``perfbench/`` and ``BENCHMARK.json``, each where it exists, with no
    ``__pycache__`` anywhere and no ``perfbench/out/``."""
    dest.mkdir(parents=True)
    for tree, skip in (("src", ("__pycache__",)), ("perfbench", ("__pycache__", "out"))):
        if (root / tree).is_dir():
            shutil.copytree(root / tree, dest / tree, ignore=shutil.ignore_patterns(*skip))
    if (root / "BENCHMARK.json").is_file():
        shutil.copy2(root / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def git_commit(root: Path) -> str | None:
    """The commit checked out at ``root``; None unless ``root`` is the top of a
    git work tree whose ``git rev-parse HEAD`` succeeds."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its ``env`` line and its closing result object; for a
    run that exits non-zero or prints no result, its exit code and stderr tail."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        with contextlib.suppress(StopIteration, ValueError):
            env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
            return {"seed": seed, "env": env, **json.loads(lines[-1])}
    return {"seed": seed, "exit_code": done.returncode, "stderr_tail": done.stderr[-2000:]}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def compare(base: list[dict], other: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric: the pairs' ratios other/base, how many pairs ``other`` wins
    (a tie counts for neither) and two verdicts.  ``claim_holds``: ``other``
    wins at least 9 in 10 pairs and its median beats the base's by more than
    the base's interquartile range.  ``within_bound``: ``other``'s median is
    worse than the base's by no more than the metric's relative ``bound``.
    ``metrics`` maps each name to its ``BENCHMARK.json`` entry (``better`` and
    ``bound``).  A pair is the two checkouts' runs of one seed; a seed either
    lacks is left out, and the medians and quartiles are the pairs' values."""
    base_runs = {r["seed"]: r for r in base}
    matched = [(base_runs[o["seed"]], o) for o in other if o["seed"] in base_runs]
    out = {}
    for name, metric in metrics.items():
        direction, bound = metric["better"], metric["bound"]
        pairs = [(b["metrics"][name]["value"], o["metrics"][name]["value"])
                 for b, o in matched if name in b["metrics"] and name in o["metrics"]]
        if not pairs:
            continue
        sign = 1 if direction == "higher" else -1   # sign * (o - b) > 0: other is better
        wins = sum(sign * (o - b) > 0 for b, o in pairs)
        ratios = [o / b for b, o in pairs if b]
        base_stats = summary([b for b, _ in pairs])
        base_median, other_median = base_stats["median"], statistics.median(o for _, o in pairs)
        gain = sign * (other_median - base_median)
        out[name] = {"better": direction, "wins": wins, "pairs": len(pairs),
                     "ratio_of_medians": other_median / base_median,
                     "pair_ratios": ratios,
                     "claim_holds": wins >= 0.9 * len(pairs)
                     and gain > base_stats["q3"] - base_stats["q1"],
                     "within_bound": -gain <= bound * abs(base_median)}
    return out


def sweep(checkouts: dict[str, Path], workloads: list[str], seeds: list[int], seconds: float
          ) -> tuple[dict[str, dict[str, list[dict]]], list[dict], list[dict]]:
    """Every seed's run of every workload on every checkout, the checkouts'
    order flipped from one seed to the next: the results by checkout and
    workload, the failed runs and the runs with failed checks."""
    runs: dict[str, dict[str, list[dict]]] = {n: {w: [] for w in workloads} for n in checkouts}
    failed_runs: list[dict] = []
    failed_checks: list[dict] = []
    for k, seed in enumerate(seeds):
        for workload in workloads:
            order = list(checkouts.items())
            for name, root in order if k % 2 == 0 else order[::-1]:
                result = run_perfbench(root, workload, seed, seconds)
                if "exit_code" in result:
                    failed_runs.append({"workload": workload, "checkout": name, **result})
                    print(f"seed {seed} {workload:<13} {name:<10} FAILED "
                          f"exit={result['exit_code']}", flush=True)
                    continue
                runs[name][workload].append(result)
                if not result["correct"] or result["failed"]:
                    failed_checks.append({"workload": workload, "checkout": name,
                                          "seed": seed, "correct": result["correct"],
                                          "failed": result["failed"]})
                rate = result["metrics"].get("train_samples_per_s", {}).get("value", math.nan)
                print(f"seed {seed} {workload:<13} {name:<10} correct={result['correct']} "
                      f"failed={result['failed']} train_samples_per_s={rate:.6g}", flush=True)
    return runs, failed_runs, failed_checks


def verdict_lines(report: dict) -> list[str]:
    """One line per workload and end-to-end metric for each checkout after the
    first: the median of each checkout's runs, the pairs won and the
    ``claim_holds`` and ``within_bound`` verdicts of ``compare``."""
    base_name, *others = report["checkouts"]
    base = report["checkouts"][base_name]["workloads"]
    lines = []
    for name in others:
        for workload, results in report["checkouts"][name]["workloads"].items():
            for metric, v in results["versus_" + base_name].items():
                lines.append(
                    f"{workload} {metric}: {base_name} "
                    f"{base[workload]['metrics'][metric]['median']:.6g} {name} "
                    f"{results['metrics'][metric]['median']:.6g} wins {v['wins']}/{v['pairs']} "
                    f"claim_holds={v['claim_holds']} within_bound={v['within_bound']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--checkout", action="append", required=True, metavar="NAME=PATH",
                    help="a checkout to run, by name; the first is the base of comparisons")
    ap.add_argument("--workloads", default="micro-train,mathqa-train,mathqa-infer")
    ap.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,7")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out-dir", default=".", help="directory for BENCH_<label>.json")
    args = ap.parse_args(argv)

    checkouts = {}
    for spec in args.checkout:
        name, sep, path = spec.partition("=")
        root = Path(path).resolve()
        if not sep or not (root / "perfbench" / "run.py").is_file():
            ap.error(f"--checkout {spec!r}: expected NAME=PATH of a checkout with perfbench/")
        checkouts[name] = root
    bench = json.loads((next(iter(checkouts.values())) / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        ap.error(f"--seeds {args.seeds!r}: {exc}")

    out = Path(args.out_dir) / f"BENCH_{args.label}.json"
    try:   # before the sweep, so that a directory it cannot make costs no runs
        out.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        ap.error(f"--out-dir {args.out_dir!r}: {exc}")

    commits = {name: git_commit(root) for name, root in checkouts.items()}
    with tempfile.TemporaryDirectory(prefix="bench_json_") as tmp:
        copies = {name: plain_copy(root, Path(tmp) / name) for name, root in checkouts.items()}
        runs, failed_runs, failed_checks = sweep(copies, workloads, seeds, args.seconds)
    report = {
        "label": args.label,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   f"--trace 0",
        "seeds": seeds,
        "checkouts": {},
        "failed_runs": failed_runs,
        "failed_checks": failed_checks,
    }
    base_name = next(iter(checkouts))
    for name in checkouts:
        envs = [r["env"] for w in workloads for r in runs[name][w]]
        per_workload = {}
        for w in workloads:
            results = runs[name][w]
            metrics = {m: {"unit": results[0]["metrics"][m]["unit"],
                           **summary([r["metrics"][m]["value"] for r in results])}
                       for m in (results[0]["metrics"] if results else ())}
            per_workload[w] = {
                "all_correct": bool(results) and all(r["correct"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "metrics": metrics,
                "runs": [{k: v for k, v in r.items() if k != "env"} for r in results],
            }
            if name != base_name:
                per_workload[w]["versus_" + base_name] = compare(runs[base_name][w], results,
                                                                 end_to_end)
        env = envs[0] if envs else {}
        report["checkouts"][name] = {
            "commit": commits[name] or env.get("git_commit"),
            "src_lines": env.get("src_lines"),
            "environment": {k: v for k, v in env.items()
                            if k not in ("git_commit", "src_lines")},
            "workloads": per_workload,
        }
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    for line in verdict_lines(report):
        print(line)
    for run in failed_checks:
        print(f"seed {run['seed']} {run['workload']} {run['checkout']}: correct="
              f"{run['correct']} failed={run['failed']}", file=sys.stderr)
    if failed_checks:
        print(f"{len(failed_checks)} run(s) failed their checks; see failed_checks in {out}",
              file=sys.stderr)
    if failed_runs:
        print(f"{len(failed_runs)} run(s) failed; see failed_runs in {out}", file=sys.stderr)
    return 1 if failed_runs or failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
