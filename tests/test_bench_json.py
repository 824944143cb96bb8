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
    out = bench_json.compare(base, other, {"rate": _metric("higher"), "t": _metric("lower")})
    assert out["rate"]["pairs"] == 2 and out["rate"]["wins"] == 1
    assert out["rate"]["pair_ratios"] == [1.2, 0.8]
    assert out["rate"]["ratio_of_medians"] == pytest.approx(1.0)
    assert out["t"] == {"better": "lower", "wins": 2, "pairs": 2, "ratio_of_medians": 0.5,
                        "pair_ratios": [0.5, 0.5], "claim_holds": True, "within_bound": True}


def _metric(better, bound=0.25):
    return {"better": better, "bound": bound}


def _pairs(base_values, other_values, name="m"):
    return ([_run(k, **{name: v}) for k, v in enumerate(base_values)],
            [_run(k, **{name: v}) for k, v in enumerate(other_values)])


@pytest.mark.parametrize("better, base, other, holds", [
    ("higher", [10.0] * 10, [11.0] * 10, True),                  # 10/10 wins, IQR 0
    ("higher", [10.0] * 10, [11.0] * 9 + [10.0], True),          # a tie counts for neither
    ("higher", [10.0] * 10, [11.0] * 8 + [10.0] * 2, False),     # 8 wins and two ties
    ("higher", [10.0] * 10, [11.0] * 8 + [9.0] * 2, False),      # 8 wins
    ("lower", [10.0] * 10, [9.0] * 9 + [11.0], True),
    ("lower", [10.0] * 10, [11.0] * 10, False),                  # 10 losses
    # 10/10 wins, but the medians 14.5 and 15.5 differ by the base's IQR 7.5 - 21.5, no more
    ("higher", [float(v) for v in range(10, 20)], [v + 1.0 for v in range(10, 20)], False),
    ("higher", [float(v) for v in range(10, 20)], [v + 15.0 for v in range(10, 20)], True),
])
def test_claim_holds_on_9_of_10_wins_and_a_median_gap_beyond_the_base_iqr(better, base,
                                                                          other, holds):
    out = bench_json.compare(*_pairs(base, other), {"m": _metric(better)})
    assert out["m"]["claim_holds"] is holds


@pytest.mark.parametrize("better, other, within", [
    ("lower", 5.0, True), ("lower", 5.5, False), ("lower", 1.0, True),
    ("higher", 3.0, True), ("higher", 2.5, False), ("higher", 9.0, True),
])
def test_within_bound_allows_a_median_worse_by_at_most_the_bound(better, other, within):
    """Base median 4 and bound 0.25: a lower-is-better median may reach 5, a
    higher-is-better one may fall to 3."""
    out = bench_json.compare(*_pairs([4.0] * 3, [other] * 3), {"m": _metric(better)})
    assert out["m"]["within_bound"] is within


def _checkout(root: Path, metrics=(("train_samples_per_s", "higher"),)) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": name, "better": better, "bound": 0.25} for name, better in metrics]}))
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


def test_the_out_dir_is_made_before_the_sweep_or_is_an_argparse_error(tmp_path, monkeypatch,
                                                                      capsys):
    """A missing ``--out-dir`` is made, and one that cannot be made stops the
    script before its first run, not after the sweep."""
    root = _checkout(tmp_path / "a")
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append(cmd)
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
            "train_samples_per_s": {"value": 1.0, "unit": "1/s"}}}
        env = {"git_commit": "a", "src_lines": 1, "nproc": 2}
        return subprocess.CompletedProcess(
            cmd, 0, f"env {json.dumps(env)}\n{json.dumps(result)}\n", "")

    monkeypatch.setattr(bench_json.subprocess, "run", fake_run)
    args = ["--label", "t", "--checkout", f"a={root}", "--workloads", "micro-train",
            "--seeds", "0", "--seconds", "1", "--out-dir"]
    assert bench_json.main(args + [str(tmp_path / "new" / "dir")]) == 0
    assert (tmp_path / "new" / "dir" / "BENCH_t.json").is_file() and len(calls) == 1
    (tmp_path / "file").write_text("")
    with pytest.raises(SystemExit) as exited:
        bench_json.main(args + [str(tmp_path / "file" / "dir")])
    assert exited.value.code == 2 and len(calls) == 1
    assert "--out-dir" in capsys.readouterr().err


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


def test_the_file_states_each_metrics_claim_and_bound_verdicts(tmp_path, monkeypatch):
    """Over 10 seeds, b's rate is 1.5x a's (a claim that holds) and its latency
    1.5x a's (a loss beyond the 25% bound)."""
    metrics = (("rate", "higher"), ("latency_ms", "lower"))
    roots = {name: _checkout(tmp_path / name, metrics) for name in ("a", "b")}

    def fake_run(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        scale = 1.5 if Path(cwd).name == "b" else 1.0
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
            "rate": {"value": scale * (10.0 + seed % 3), "unit": "1/s"},
            "latency_ms": {"value": scale * 4.0, "unit": "ms"}}}
        return subprocess.CompletedProcess(
            cmd, 0, f"env {json.dumps({'git_commit': 'x'})}\n{json.dumps(result)}\n", "")

    monkeypatch.setattr(bench_json.subprocess, "run", fake_run)
    assert bench_json.main(["--label", "v", "--checkout", f"a={roots['a']}",
                            "--checkout", f"b={roots['b']}", "--workloads", "mathqa-infer",
                            "--seeds", "0-9", "--out-dir", str(tmp_path)]) == 0
    versus = json.loads((tmp_path / "BENCH_v.json").read_text())[
        "checkouts"]["b"]["workloads"]["mathqa-infer"]["versus_a"]
    assert versus["rate"]["wins"] == 10
    assert versus["rate"]["claim_holds"] is True and versus["rate"]["within_bound"] is True
    assert versus["latency_ms"]["wins"] == 0
    assert versus["latency_ms"]["claim_holds"] is False
    assert versus["latency_ms"]["within_bound"] is False


def test_every_run_uses_a_plain_copy_and_keeps_the_checkouts_commit(tmp_path, monkeypatch):
    """Checkout a is a git work tree with compiled files and perfbench output, b a
    plain directory.  Each run's directory is a fresh copy holding src/, perfbench/
    and BENCHMARK.json, without __pycache__ or perfbench/out/; a's commit is read
    from a itself, b's is the one its run reports; the copies are gone afterwards."""
    roots = {name: _checkout(tmp_path / name) for name in ("a", "b")}
    for root in roots.values():
        for rel in ("src/tpn2f/__init__.py", "src/tpn2f/__pycache__/m.pyc",
                    "perfbench/__pycache__/run.pyc", "perfbench/out/model.ckpt"):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text("x")
    git = ["git", "-C", str(roots["a"])]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "a"],
                   check=True)
    commit = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True,
                            check=True).stdout.strip()
    cwds, real_run = [], subprocess.run

    def fake_run(cmd, cwd=None, **kwargs):
        if cmd[0] == "git":
            return real_run(cmd, **kwargs)
        cwd = Path(cwd)
        cwds.append(cwd)
        assert cwd not in roots.values() and cwd.name in roots
        files = sorted(str(p.relative_to(cwd)) for p in cwd.rglob("*") if p.is_file())
        assert files == ["BENCHMARK.json", "perfbench/run.py", "src/tpn2f/__init__.py"]
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
            "train_samples_per_s": {"value": 1.0, "unit": "1/s"}}}
        env = {"git_commit": "unknown (not a git checkout)", "src_lines": 1}
        return subprocess.CompletedProcess(
            cmd, 0, f"env {json.dumps(env)}\n{json.dumps(result)}\n", "")

    monkeypatch.setattr(bench_json.subprocess, "run", fake_run)
    assert bench_json.main(["--label", "p", "--checkout", f"a={roots['a']}", "--checkout",
                            f"b={roots['b']}", "--workloads", "micro-train", "--seeds", "0-1",
                            "--out-dir", str(tmp_path)]) == 0
    assert len(cwds) == 4 and len(set(cwds)) == 2
    assert not any(cwd.exists() for cwd in cwds)
    checkouts = json.loads((tmp_path / "BENCH_p.json").read_text())["checkouts"]
    assert checkouts["a"]["commit"] == commit
    assert checkouts["b"]["commit"] == "unknown (not a git checkout)"


def test_the_sweep_ends_with_one_verdict_line_per_workload_and_metric(tmp_path, monkeypatch,
                                                                       capsys):
    """b's rate is 1.5x a's on every seed and its latency 1.5x a's: the log's
    last lines give both medians, the pairs won and the two verdicts."""
    metrics = (("rate", "higher"), ("latency_ms", "lower"))
    roots = {name: _checkout(tmp_path / name, metrics) for name in ("a", "b")}

    def fake_run(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        scale = 1.5 if Path(cwd).name == "b" else 1.0
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
            "rate": {"value": scale * (10.0 + seed % 3), "unit": "1/s"},
            "latency_ms": {"value": scale * 4.0, "unit": "ms"}}}
        return subprocess.CompletedProcess(
            cmd, 0, f"env {json.dumps({'git_commit': 'x'})}\n{json.dumps(result)}\n", "")

    monkeypatch.setattr(bench_json.subprocess, "run", fake_run)
    assert bench_json.main(["--label", "l", "--checkout", f"a={roots['a']}",
                            "--checkout", f"b={roots['b']}", "--workloads",
                            "micro-train,mathqa-infer", "--seeds", "0-9",
                            "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-5] == f"wrote {tmp_path / 'BENCH_l.json'}"
    for workload in ("micro-train", "mathqa-infer"):
        assert (f"{workload} rate: a 11 b 16.5 wins 10/10 claim_holds=True within_bound=True"
                in out[-4:])
        assert (f"{workload} latency_ms: a 4 b 6 wins 0/10 claim_holds=False "
                f"within_bound=False" in out[-4:])
