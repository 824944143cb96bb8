#!/usr/bin/env python3
"""Train one epoch at the ``mathqa`` preset and write its phase seconds, peak
memory and the projection to a 30k-sample epoch as ``BENCH_<label>.json``.

Usage (from the root of a checkout):

    python3 scripts/preset_epoch.py --label chunks \\
        --tree parent=../tpn2f-parent --tree change=. --problems 128 --repeats 3

Each tree is copied as ``scripts/bench_json.py`` copies a checkout (``src/``,
``perfbench/`` and ``BENCHMARK.json``, without compiled files or benchmark
output), and every run is a fresh Python process in that copy, with the BLAS
threads pinned as perfbench pins them.  A run trains one epoch of
``training.train`` at the ``mathqa`` preset and ``--batch-size`` (the preset's
64) on ``--problems`` MathQA-shaped problems from ``perfbench/mathqa_synth.py``;
the vocabulary is built from those problems and a 200-problem corpus, so the
model has the preset's 10.9 M parameters.  The epoch's greedy train-set eval
runs too, as in every ``training.train`` call.  The trees' runs alternate,
their order flipped from one repeat to the next.

The phases are timed from outside ``src/``, by wrapping functions of the
``training`` module as perfbench's ``tracer.Stopwatch`` does: ``forward`` is
``minibatch_loss``, ``backward`` is ``backward``, ``clip`` is
``clip_gradients``, ``optimizer`` is ``adam_step``, ``eval`` is
``operation_accuracy`` and ``epoch`` is ``train_epoch``.  ``step`` is the
epoch without its eval, and ``step_ms_per_sample`` is ``step`` over the
problems.  ``first_chunk_tape_nodes`` is the node count of the epoch's first
gradient tape, its first chunk of rows, read through a wrapped
``training.GradientTape``.  Peak RSS is the run's ``ru_maxrss``.  The file
holds every run and, per tree, the median and quartiles of each figure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_json import git_commit, plain_copy, summary

EPOCH_SAMPLES = 30_000   # the projection's epoch, about MathQA's training set
CORPUS = 200             # extra problems the vocabulary is built from, as in perfbench
CORPUS_SEED = 2
SEED = 0                 # the problems, the initial weights and the shuffle
PHASES = {"forward": "minibatch_loss", "backward": "backward", "clip": "clip_gradients",
          "optimizer": "adam_step", "eval": "operation_accuracy", "epoch": "train_epoch"}


def run_epoch(problems: int, batch_size: int) -> dict:
    """One timed epoch in this process, from the tree whose ``perfbench/`` is
    first on ``sys.path``; its figures as a JSON-ready object."""
    import checkout
    checkout.prepare()
    import numpy as np
    from mathqa_synth import make_mathqa_like, mathqa_shapes
    from tpn2f import data, training
    from tpn2f.model import build_model

    start = time.perf_counter()
    cfg = training.mathqa_preset()
    cfg.epochs, cfg.batch_size, cfg.seed = 1, batch_size, SEED
    samples = data.preprocess_samples(make_mathqa_like(SEED, mathqa_shapes(problems, SEED)),
                                      cfg.positions)
    corpus = data.preprocess_samples(
        make_mathqa_like(CORPUS_SEED, mathqa_shapes(CORPUS, CORPUS_SEED)), cfg.positions)
    vocab = data.build_vocabularies(corpus + samples)
    model = build_model(cfg.variant(), cfg.dims(), vocab, np.random.default_rng(SEED))
    setup_s = time.perf_counter() - start

    seconds = dict.fromkeys(PHASES, 0.0)
    calls = dict.fromkeys(PHASES, 0)

    def timed(phase, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds[phase] += time.perf_counter() - t0
            calls[phase] += 1
            return out
        return wrapper

    for phase, name in PHASES.items():
        setattr(training, name, timed(phase, getattr(training, name)))
    tapes, new_tape = [], training.GradientTape

    def first_tape():   # keeps the epoch's first tape, its first chunk, for its node count
        tape = new_tape()
        if not tapes:
            tapes.append(tape)
        return tape

    training.GradientTape = first_tape
    history = training.train(model, samples, cfg)
    seconds["step"] = seconds["epoch"] - seconds["eval"]
    return {
        "problems": problems, "batch_size": batch_size,
        "chunk_rows": getattr(training, "CHUNK_ROWS", None),
        "params": sum(t.size for _, t in model.parameters()),
        "setup_s": setup_s,
        "phases_s": seconds,
        "calls": calls,
        "first_chunk_tape_nodes": len(tapes[0]),
        "step_ms_per_sample": 1000.0 * seconds["step"] / problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_loss": history[0].mean_loss,
        "projected_epoch_s": {phase: seconds[phase] * EPOCH_SAMPLES / problems
                              for phase in ("step", "eval", "epoch")},
    }


def run_tree(copy: Path, problems: int, batch_size: int) -> dict:
    """``run_epoch`` in a fresh process on the copied tree ``copy``."""
    code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import preset_epoch; "
            "print(json.dumps(preset_epoch.run_epoch(*map(int, sys.argv[3:]))))")
    done = subprocess.run([sys.executable, "-c", code, str(copy / "perfbench"),
                           str(Path(__file__).resolve().parent),
                           str(problems), str(batch_size)],
                          cwd=copy, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"the run in {copy} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _figures(run: dict) -> dict[str, float]:
    out = {f"{phase}_s": value for phase, value in run["phases_s"].items()}
    out.update({k: run[k] for k in ("setup_s", "step_ms_per_sample", "peak_rss_mb",
                                    "first_chunk_tape_nodes")})
    out.update({f"projected_{phase}_s": v for phase, v in run["projected_epoch_s"].items()})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--tree", action="append", required=True, metavar="NAME=PATH",
                    help="a tree to run, by name: a checkout with src/ and perfbench/")
    ap.add_argument("--problems", type=int, default=128)
    ap.add_argument("--batch-size", type=int, default=64)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out-dir", default=".", help="directory for BENCH_<label>.json")
    args = ap.parse_args(argv)
    trees = {}
    for spec in args.tree:
        name, sep, path = spec.partition("=")
        root = Path(path).resolve()
        if not sep or not (root / "perfbench" / "mathqa_synth.py").is_file():
            ap.error(f"--tree {spec!r}: expected NAME=PATH of a checkout with perfbench/")
        trees[name] = root
    if args.problems < 1 or args.batch_size < 1 or args.repeats < 1:
        ap.error("--problems, --batch-size and --repeats must be at least 1")

    runs: dict[str, list[dict]] = {name: [] for name in trees}
    with tempfile.TemporaryDirectory(prefix="preset_epoch_") as tmp:
        copies = {name: plain_copy(root, Path(tmp) / name) for name, root in trees.items()}
        for k in range(args.repeats):
            order = list(copies.items())
            for name, copy in order if k % 2 == 0 else order[::-1]:
                run = run_tree(copy, args.problems, args.batch_size)
                runs[name].append(run)
                print(f"repeat {k} {name:<10} step {run['step_ms_per_sample']:.1f} ms/sample  "
                      f"peak RSS {run['peak_rss_mb']:.0f} MB  "
                      f"first chunk {run['first_chunk_tape_nodes']} tape nodes", flush=True)
    report = {
        "label": args.label,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": f"training.train at the mathqa preset, 1 epoch, batch {args.batch_size}, "
                   f"{args.problems} problems, seed {SEED}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "trees": {name: {
            "commit": git_commit(trees[name]),
            "summary": {key: summary([_figures(r)[key] for r in runs[name]])
                        for key in _figures(runs[name][0])},
            "runs": runs[name],
        } for name in trees},
    }
    out = Path(args.out_dir) / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    for name in trees:
        s = report["trees"][name]["summary"]
        print(f"{name:<10} step {s['step_ms_per_sample']['median']:.1f} ms/sample, "
              f"peak RSS {s['peak_rss_mb']['median']:.0f} MB (medians)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
