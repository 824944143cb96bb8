"""Tests of the benchmark itself: its input generator, its output and its checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from mathqa_synth import make_mathqa_like, mathqa_shapes  # noqa: E402
from tpn2f.formal_lang import ProgramEnv, exec_mathqa  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _units(entries) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def test_generator_is_deterministic_per_seed():
    shapes = mathqa_shapes(12, 3)
    assert shapes == mathqa_shapes(12, 3) and shapes != mathqa_shapes(12, 4)
    assert make_mathqa_like(5, shapes) == make_mathqa_like(5, shapes)
    assert make_mathqa_like(5, shapes) != make_mathqa_like(6, shapes)


def test_generated_samples_are_mathqa_shaped():
    shapes = mathqa_shapes(100, 0)
    assert 36 <= sum(n for n, _ in shapes) / len(shapes) <= 44
    assert 8 <= sum(k for _, k in shapes) / len(shapes) <= 10
    samples = make_mathqa_like(7, shapes)
    assert [(len(s.text), len(s.program)) for s in samples] == shapes
    for s in samples:
        assert [t for t in s.text if t.startswith("n") and t[1:].isdigit()] == \
            [f"n{i}" for i in range(len(s.numbers))]
        answer = exec_mathqa(s.program, ProgramEnv(numbers=list(s.numbers)))
        assert answer in s.options and len(s.options) == 5


def test_a_decode_that_raises_is_a_failed_sample():
    from workloads import Run, decode_and_score

    run = Run()
    encoded = [SimpleNamespace(token_ids=[1, 2], sample_id=f"s{i}") for i in range(2)]
    # No model: greedy_decode raises, and the benchmark counts that and goes on.
    decode_and_score(run, None, 5, [None, None], encoded, ["", ""], [0, 1])
    assert (run.attempted, run.failed, len(run.infer_rates)) == (2, 2, 1)
    assert all("raised" in note for note in run.notes)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [("training.train", 0.0, 10.0, -1, None),
                    ("training.train_epoch", 1.0, 4.0, 0, None),
                    ("training.train_epoch", 5.0, 7.0, 0, None),
                    ("tensor.backward", 5.5, 6.0, 2, "s1")]
    totals = tracer.span_totals()
    assert totals["training.train"] == {"calls": 1, "busy_s": 10.0, "self_s": 5.0}
    assert totals["training.train_epoch"] == {"calls": 2, "busy_s": 5.0, "self_s": 4.5}
    assert totals["tensor.backward"] == {"calls": 1, "busy_s": 0.5, "self_s": 0.5}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_passes_checks_and_prints_end_to_end_metrics(workload):
    result = _result(_run("--workload", workload, "--seed", "17", "--seconds", "1",
                          "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _units(BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_per_layer_metrics():
    result = _result(_run("--workload", "micro-train", "--seed", "2", "--seconds", "1",
                          "--trace", "1"))
    assert result["correct"] is True and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _units(BENCHMARK["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["training.train.calls"] >= 1
    assert metrics["training.sample_loss.self_s"] <= metrics["training.sample_loss.busy_s"]
    assert metrics["roadmap.mathqa_tape_nodes"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "micro-train", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
