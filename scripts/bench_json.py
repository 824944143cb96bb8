#!/usr/bin/env python3
"""Run perfbench over a list of seeds for one or more checkouts and write the
figures as ``BENCH_<label>.json``.

Usage (from the root of a checkout):

    python3 scripts/bench_json.py --label lockstep \\
        --checkout parent=../tpn2f-parent --checkout change=. \\
        --workloads micro-train,mathqa-train --seeds 0-9 --seconds 20

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds X
--trace 0`` in the checkout's root.  For every seed and workload the
checkouts run back to back, their order flipped from one seed to the next,
so that two checkouts form pairs of runs taken under the same conditions.
The file holds, per checkout and workload, every run's result line and the
median and quartiles of each end-to-end metric, with the environment the
runs reported (commit, ``src/`` line count, BLAS and thread count); with two
or more checkouts, it also compares each one with the first, pair by pair.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``"0-9"``, ``"3,5,8"`` or a mix such as ``"0-4,100"``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its ``env`` line and its closing result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {done.returncode}: "
                           f"{done.stderr[-2000:]}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"seed": seed, "env": env, **json.loads(lines[-1])}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def compare(base: list[dict], other: list[dict], better: dict[str, str]) -> dict:
    """Per metric: the pairs' ratios other/base, and how many pairs ``other`` wins."""
    out = {}
    for name, direction in better.items():
        pairs = [(b["metrics"][name]["value"], o["metrics"][name]["value"])
                 for b, o in zip(base, other) if name in b["metrics"] and name in o["metrics"]]
        if not pairs:
            continue
        wins = sum((o > b) if direction == "higher" else (o < b) for b, o in pairs)
        ratios = [o / b for b, o in pairs if b]
        out[name] = {"better": direction, "wins": wins, "pairs": len(pairs),
                     "ratio_of_medians": (statistics.median(o for _, o in pairs)
                                          / statistics.median(b for b, _ in pairs)),
                     "pair_ratios": ratios}
    return out


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
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    runs: dict[str, dict[str, list[dict]]] = {n: {w: [] for w in workloads} for n in checkouts}
    for k, seed in enumerate(seeds):
        for workload in workloads:
            order = list(checkouts.items())
            for name, root in order if k % 2 == 0 else order[::-1]:
                result = run_perfbench(root, workload, seed, args.seconds)
                runs[name][workload].append(result)
                rate = result["metrics"].get("train_samples_per_s", {}).get("value")
                print(f"seed {seed} {workload:<13} {name:<10} correct={result['correct']} "
                      f"failed={result['failed']} train_samples_per_s={rate:.6g}", flush=True)

    report = {
        "label": args.label,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   f"--trace 0",
        "seeds": seeds,
        "checkouts": {},
    }
    base_name = next(iter(checkouts))
    for name in checkouts:
        envs = [r["env"] for w in workloads for r in runs[name][w]]
        per_workload = {}
        for w in workloads:
            results = runs[name][w]
            metrics = {m: {"unit": results[0]["metrics"][m]["unit"],
                           **summary([r["metrics"][m]["value"] for r in results])}
                       for m in results[0]["metrics"]}
            per_workload[w] = {
                "all_correct": all(r["correct"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "metrics": metrics,
                "runs": [{k: v for k, v in r.items() if k != "env"} for r in results],
            }
            if name != base_name:
                per_workload[w]["versus_" + base_name] = compare(runs[base_name][w], results,
                                                                 better)
        report["checkouts"][name] = {
            "commit": envs[0]["git_commit"],
            "src_lines": envs[0]["src_lines"],
            "environment": {k: v for k, v in envs[0].items()
                            if k not in ("git_commit", "src_lines")},
            "workloads": per_workload,
        }
    out = Path(args.out_dir) / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
