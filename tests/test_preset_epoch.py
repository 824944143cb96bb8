"""scripts/preset_epoch.py: one preset epoch, chunked, in a fresh process on a copy."""

import json
import subprocess
import sys
from pathlib import Path

from tpn2f.training import CHUNK_ROWS

ROOT = Path(__file__).resolve().parents[1]


def test_a_short_preset_epoch_writes_its_phases_and_peak_rss(tmp_path):
    """A batch of ``CHUNK_ROWS + 4`` problems trains as two chunks, so two
    forward and backward calls and one Adam step; every phase takes time, the
    first chunk's tape records 215 nodes (327 when each LSTM step was four ops)
    and the file states the tree's figures and their medians."""
    n = CHUNK_ROWS + 4
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "preset_epoch.py"), "--label", "smoke",
         "--tree", f"here={ROOT}", "--problems", str(n), "--batch-size", str(n),
         "--repeats", "1", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, check=False, timeout=600)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert report.keys() == {"label", "created", "command", "nproc", "python", "trees"}
    tree = report["trees"]["here"]
    assert tree.keys() == {"commit", "summary", "runs"}
    (run,) = tree["runs"]
    assert run.keys() == {"problems", "batch_size", "chunk_rows", "params", "setup_s",
                          "phases_s", "calls", "first_chunk_tape_nodes", "step_ms_per_sample",
                          "peak_rss_mb", "mean_loss", "projected_epoch_s"}
    assert (run["problems"], run["batch_size"], run["chunk_rows"]) == (n, n, CHUNK_ROWS)
    assert run["calls"] == {"forward": 2, "backward": 2, "clip": 1, "optimizer": 1,
                            "eval": 1, "epoch": 1}
    assert run["phases_s"].keys() == {"forward", "backward", "clip", "optimizer", "eval",
                                      "epoch", "step"}
    assert all(seconds > 0 for seconds in run["phases_s"].values())
    assert run["peak_rss_mb"] > 0 and run["step_ms_per_sample"] > 0
    assert run["first_chunk_tape_nodes"] == 215
    assert run["params"] > 10_000_000
    assert tree["summary"]["peak_rss_mb"]["median"] == run["peak_rss_mb"]
    assert tree["summary"]["first_chunk_tape_nodes"]["median"] == run["first_chunk_tape_nodes"]
    assert tree["summary"]["projected_epoch_s"]["n"] == 1
