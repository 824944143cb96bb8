"""Command dispatch, config precedence, and the end-to-end command cycle."""

import json
import zlib

import pytest

from tpn2f.cli import dispatch, load_config
from tpn2f.data import save_dataset
from tpn2f.synthetic import make_micro_dataset
from tpn2f.training import ConfigError

MICRO_CFG = """
# reduced dimensions for desk-scale runs
epochs=2
learning_rate=0.005
batch_size=10
seed=3
max_decode_len=4
d_word=12
n_fillers=8
n_roles=6
d_filler=6
d_role=5
d_rel=5
d_arg=4
d_pos=5
"""


@pytest.fixture()
def micro_file(tmp_path):
    path = tmp_path / "micro.jsonl"
    save_dataset(path, make_micro_dataset(12, seed=0))
    return path


def test_exec_word_problem_prints_answer(capsys):
    code = dispatch(["exec", "--dataset", "mathqa",
                     "--program", "(add,n0,n2) (divide,n1,const100) (divide,#0,#1)",
                     "--numbers", "20,60,88"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "180"


def test_exec_lisp_program_prints_list(capsys):
    code = dispatch(["exec", "--dataset", "algolisp",
                     "--program", "(partial1,b,--) (map,a,#0)",
                     "--bindings", '{"a": [5, 3], "b": 2}'])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == [3, 1]


def test_exec_failure_is_user_error(capsys):
    code = dispatch(["exec", "--dataset", "mathqa",
                     "--program", "(divide,n0,n1)", "--numbers", "1,0"])
    assert code == 1
    assert "div-zero" in capsys.readouterr().err


def test_missing_config_file_exits_1(capsys, tmp_path):
    code = dispatch(["train", "--config", "missing.cfg",
                     "--data", str(tmp_path / "x.jsonl"), "--out", str(tmp_path)])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_unknown_command_exits_1(capsys):
    assert dispatch(["frobnicate"]) == 1


def test_no_command_prints_usage(capsys):
    assert dispatch([]) == 1


def test_eval_identical_files_all_ones(capsys, micro_file, tmp_path):
    pred = tmp_path / "pred.jsonl"
    lines = []
    for record in micro_file.read_text().splitlines():
        obj = json.loads(record)
        lines.append(json.dumps({"id": obj["id"], "program": obj["program"]}))
    pred.write_text("\n".join(lines) + "\n")
    code = dispatch(["eval", "--pred", str(pred), "--gold", str(micro_file)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"op_acc": 1.0, "exec_acc": 1.0, "acc": 1.0,
                      "p50_acc": 1.0, "m_acc": 1.0, "n": 12}


def test_load_config_presets(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("preset=mathqa\n")
    cfg = load_config(p)
    assert cfg.d_filler == 30 and cfg.d_role == 20
    assert cfg.epochs == 60 and cfg.learning_rate == 0.00115
    p.write_text("preset=algolisp\n")
    cfg = load_config(p)
    assert cfg.d_role == 30 and cfg.d_rel == 30 and cfg.d_arg == 20
    assert cfg.epochs == 50 and cfg.positions == 3


def test_load_config_json_and_overrides(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"preset": "mathqa", "epochs": 2}))
    cfg = load_config(p)
    assert cfg.epochs == 2 and cfg.d_filler == 30  # file overrides preset field-by-field


def test_load_config_unknown_key_named(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("banana=1\n")
    with pytest.raises(ConfigError, match="banana"):
        load_config(p)


def test_load_config_type_mismatch(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("epochs=soon\n")
    with pytest.raises(ConfigError, match="epochs"):
        load_config(p)


def test_train_flag_overrides_config(tmp_path, micro_file, capsys):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(MICRO_CFG)
    code = dispatch(["train", "--data", str(micro_file), "--out", str(tmp_path / "run"),
                     "--config", str(cfg_file), "--epochs", "1"])
    assert code == 0
    echoed = (tmp_path / "run" / "effective_config.cfg").read_text()
    assert "epochs=1" in echoed.splitlines()
    assert "seed=3" in echoed.splitlines()


def test_run_reproducible_from_echoed_config(tmp_path, micro_file):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(MICRO_CFG)
    assert dispatch(["train", "--data", str(micro_file),
                     "--out", str(tmp_path / "a"), "--config", str(cfg_file)]) == 0
    assert dispatch(["train", "--data", str(micro_file), "--out", str(tmp_path / "b"),
                     "--config", str(tmp_path / "a" / "effective_config.cfg")]) == 0
    assert (tmp_path / "a" / "model.ckpt").read_bytes() == \
        (tmp_path / "b" / "model.ckpt").read_bytes()


def test_full_command_cycle(tmp_path, micro_file, capsys):
    """prepare -> train -> infer -> eval -> analyze, all exit 0."""
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(MICRO_CFG)
    run = tmp_path / "run"
    assert dispatch(["prepare", "--data", str(micro_file), "--out", str(tmp_path / "prep")]) == 0
    prepared = tmp_path / "prep" / "prepared.jsonl"
    assert prepared.exists() and (tmp_path / "prep" / "vocab.json").exists()
    assert dispatch(["train", "--data", str(prepared), "--out", str(run),
                     "--config", str(cfg_file)]) == 0
    pred = tmp_path / "pred.jsonl"
    assert dispatch(["infer", "--checkpoint", str(run / "model.ckpt"),
                     "--data", str(prepared), "--out", str(pred)]) == 0
    assert len(pred.read_text().splitlines()) == 12
    assert dispatch(["eval", "--pred", str(pred), "--gold", str(prepared)]) == 0
    out = tmp_path / "analysis"
    assert dispatch(["analyze", "--checkpoint", str(run / "model.ckpt"),
                     "--data", str(prepared), "--out", str(out)]) == 0
    for name in ("assignments.csv", "clusters.csv", "scatter.svg", "roles.svg"):
        assert (out / name).exists()
    log_lines = (run / "train_log.jsonl").read_text().splitlines()
    assert len(log_lines) == 2
    first = json.loads(log_lines[0])
    assert set(first) == {"epoch", "mean_loss", "op_acc", "wallclock"}


def test_infer_on_checkpoint_with_out_of_range_offset_exits_1(tmp_path, micro_file, capsys):
    """A header whose CRC is valid but whose tensor offset points past the data
    is a user-facing checkpoint error, not an internal one."""
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(MICRO_CFG)
    assert dispatch(["train", "--data", str(micro_file), "--out", str(tmp_path / "run"),
                     "--config", str(cfg_file)]) == 0
    raw = (tmp_path / "run" / "model.ckpt").read_bytes()
    head_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + head_len])
    header["tensors"][0]["offset"] = 10**12
    head = json.dumps(header).encode("utf-8")
    body = raw[:8] + len(head).to_bytes(8, "little") + head + raw[16 + head_len:-4]
    (tmp_path / "bad.ckpt").write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    assert dispatch(["infer", "--checkpoint", str(tmp_path / "bad.ckpt"),
                     "--data", str(micro_file), "--out", str(tmp_path / "pred.jsonl")]) == 1
    assert "past" in capsys.readouterr().err


def test_train_rejects_zero_batch_size(tmp_path, micro_file, capsys):
    assert dispatch(["train", "--data", str(micro_file), "--out", str(tmp_path / "run"),
                     "--batch-size", "0"]) == 1
    assert "batch_size" in capsys.readouterr().err
