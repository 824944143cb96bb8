"""scripts/bench_json.py: seed ranges, summaries, pair comparisons and failed runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_json.py"
_spec = importlib.util.spec_from_file_location("bench_json", _SCRIPT)
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)


@pytest.mark.parametrize("text, seeds", [
    ("0-3", [0, 1, 2, 3]), ("3,5,8", [3, 5, 8]), ("0-2,100", [0, 1, 2, 100]), ("7", [7]),
    ("4-4", [4]),
])
def test_parse_seeds_reads_ranges_and_lists(text, seeds):
    assert bench_json.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["", "1,,2", "5-3", "x"])
def test_parse_seeds_rejects_an_empty_part_or_a_descending_range(text):
    with pytest.raises(ValueError):
        bench_json.parse_seeds(text)


@pytest.mark.parametrize("seeds", ["", "9-0"])
def test_main_rejects_bad_seeds_as_an_argparse_error(tmp_path, seeds, capsys):
    _checkout(tmp_path / "a")
    with pytest.raises(SystemExit) as exc:
        bench_json.main(["--label", "x", "--checkout", f"a={tmp_path / 'a'}",
                         "--seeds", seeds, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err


def test_summary_gives_median_and_inclusive_quartiles():
    assert bench_json.summary([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert bench_json.summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def _run(seed, **values):
    return {"seed": seed, "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_compare_pairs_runs_by_seed():
    """A seed only one side ran is no pair; wins follow each metric's direction."""
    base = [_run(0, rate=10.0, t=2.0), _run(1, rate=10.0, t=2.0), _run(2, rate=10.0, t=2.0)]
    other = [_run(0, rate=12.0, t=1.0), _run(2, rate=8.0, t=1.0), _run(3, rate=99.0, t=9.0)]
    out = bench_json.compare(base, other, {"rate": "higher", "t": "lower"})
    assert out["rate"]["pairs"] == 2 and out["rate"]["wins"] == 1
    assert out["rate"]["pair_ratios"] == [1.2, 0.8]
    assert out["rate"]["ratio_of_medians"] == pytest.approx(1.0)
    assert out["t"] == {"better": "lower", "wins": 2, "pairs": 2, "ratio_of_medians": 0.5,
                        "pair_ratios": [0.5, 0.5]}


def _checkout(root: Path) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "train_samples_per_s", "better": "higher"}]}))
    return root


def test_a_failed_run_is_recorded_left_out_and_exits_1(tmp_path, monkeypatch, capsys):
    """Checkout b's seed-1 run exits 3: the sweep finishes, the file lists the
    failure with its stderr tail, and b's summary and pairs hold seeds 0 and 2."""
    roots = {name: _checkout(tmp_path / name) for name in ("a", "b")}
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        name, seed = Path(cwd).name, int(cmd[cmd.index("--seed") + 1])
        calls.append((name, seed))
        if (name, seed) == ("b", 1):
            return subprocess.CompletedProcess(cmd, 3, "", "Traceback\nboom\n")
        env = {"git_commit": name, "src_lines": 1, "nproc": 2}
        result = {"correct": True, "attempted": 4, "failed": 0, "metrics": {
            "train_samples_per_s": {"value": 10.0 + seed + (name == "b"), "unit": "1/s"}}}
        return subprocess.CompletedProcess(
            cmd, 0, f"env {json.dumps(env)}\n{json.dumps(result)}\n", "")

    monkeypatch.setattr(bench_json.subprocess, "run", fake_run)
    code = bench_json.main(["--label", "t", "--checkout", f"a={roots['a']}",
                            "--checkout", f"b={roots['b']}", "--workloads", "micro-train",
                            "--seeds", "0-2", "--seconds", "1", "--out-dir", str(tmp_path)])
    assert code == 1
    assert calls == [("a", 0), ("b", 0), ("b", 1), ("a", 1), ("a", 2), ("b", 2)]
    assert "1 run(s) failed" in capsys.readouterr().err
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["failed_runs"] == [{"workload": "micro-train", "checkout": "b", "seed": 1,
                                      "exit_code": 3, "stderr_tail": "Traceback\nboom\n"}]
    b = report["checkouts"]["b"]["workloads"]["micro-train"]
    assert [r["seed"] for r in b["runs"]] == [0, 2]
    assert b["metrics"]["train_samples_per_s"]["n"] == 2
    assert b["versus_a"]["train_samples_per_s"]["pairs"] == 2
    assert b["versus_a"]["train_samples_per_s"]["wins"] == 2
    assert report["checkouts"]["a"]["workloads"]["micro-train"]["metrics"][
        "train_samples_per_s"]["n"] == 3


def test_a_run_with_no_result_line_is_a_failed_run(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_json.subprocess, "run", lambda cmd, cwd, **kw:
                        subprocess.CompletedProcess(cmd, 0, "", "nothing printed"))
    result = bench_json.run_perfbench(tmp_path, "micro-train", 5, 1.0)
    assert result == {"seed": 5, "exit_code": 0, "stderr_tail": "nothing printed"}


def test_a_run_with_failed_checks_is_listed_kept_and_exits_1(tmp_path, monkeypatch, capsys):
    """Seed 1 prints ``correct: false`` and seed 2 one failed check, both exiting 0:
    each is listed under failed_checks and printed, stays in the summaries, and
    the script exits 1."""
    root = _checkout(tmp_path / "a")

    def fake_run(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        result = {"correct": seed != 1, "attempted": 4, "failed": int(seed == 2), "metrics": {
            "train_samples_per_s": {"value": 10.0 + seed, "unit": "1/s"}}}
        env = {"git_commit": "a", "src_lines": 1}
        return subprocess.CompletedProcess(
            cmd, 0, f"env {json.dumps(env)}\n{json.dumps(result)}\n", "")

    monkeypatch.setattr(bench_json.subprocess, "run", fake_run)
    code = bench_json.main(["--label", "c", "--checkout", f"a={root}", "--workloads",
                            "micro-train", "--seeds", "0-2", "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "seed 1 micro-train a: correct=False failed=0" in err
    assert "seed 2 micro-train a: correct=True failed=1" in err
    report = json.loads((tmp_path / "BENCH_c.json").read_text())
    assert report["failed_runs"] == []
    assert report["failed_checks"] == [
        {"workload": "micro-train", "checkout": "a", "seed": 1, "correct": False, "failed": 0},
        {"workload": "micro-train", "checkout": "a", "seed": 2, "correct": True, "failed": 1}]
    summary = report["checkouts"]["a"]["workloads"]["micro-train"]
    assert summary["metrics"]["train_samples_per_s"]["n"] == 3
    assert not summary["all_correct"] and summary["failed"] == 1
