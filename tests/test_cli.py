"""Command dispatch, config precedence, and the end-to-end command cycle."""

import dataclasses
import json
import logging
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import tpn2f
from tpn2f import analysis
from tpn2f.cli import _config_text, _effective_config, build_parser, dispatch, load_config
from tpn2f.data import load_dataset, save_dataset
from tpn2f.synthetic import make_micro_dataset
from tpn2f.training import ConfigError, TrainConfig

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


def test_quickstart_micro_dataset_script_writes_a_loadable_file(tmp_path):
    """README's quickstart starts with scripts/make_micro_dataset.py."""
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(tpn2f.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = tmp_path / "micro.jsonl"
    done = subprocess.run([sys.executable, str(repo / "scripts" / "make_micro_dataset.py"),
                           "--out", str(out), "--n", "5"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("wrote 5 samples -> ")
    save_dataset(tmp_path / "direct.jsonl", make_micro_dataset(5, seed=0))
    loaded = load_dataset(out)
    assert len(loaded) == 5 and loaded == load_dataset(tmp_path / "direct.jsonl")


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


@pytest.mark.parametrize("numbers", ["nan", "1,inf", "2,-inf"])
def test_exec_non_finite_numbers_is_user_error(capsys, numbers):
    code = dispatch(["exec", "--dataset", "mathqa", "--program", "(add,n0,n1)",
                     "--numbers", numbers])
    assert code == 1
    assert "--numbers must be comma-separated finite floats" in capsys.readouterr().err


@pytest.mark.parametrize("bindings", ['"abc"', "[1]", "3", "null"])
def test_exec_bindings_that_are_not_an_object_is_user_error(capsys, bindings):
    code = dispatch(["exec", "--dataset", "algolisp", "--program", "(+,a,b)",
                     "--bindings", bindings])
    assert code == 1
    assert f"--bindings must be a JSON object: got {bindings}" in capsys.readouterr().err


def test_eval_gold_with_a_nan_option_is_user_error(capsys, tmp_path):
    """A NaN option once matched every wrong answer: ``exec_acc`` read 1.0."""
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({"id": "r0", "text": "2 plus 3", "program": "(add,n0,n1)",
                                "options": [float("nan"), 5, 6]}) + "\n")
    pred.write_text(json.dumps({"id": "r0", "program": [["multiply", "n0", "n1"]]}) + "\n")
    assert dispatch(["eval", "--pred", str(pred), "--gold", str(gold)]) == 1
    assert "record 1: field 'options' must be a list of finite numbers" in (
        capsys.readouterr().err)


def test_eval_without_tests_reports_null_test_suite_rates(capsys, tmp_path):
    """A wrong program on a record with no tests once read acc and p50_acc 1.0."""
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({"id": "r0", "text": "2 plus 3", "program": "(add,n0,n1)",
                                "options": [4, 5, 6]}) + "\n")
    pred.write_text(json.dumps({"id": "r0", "program": [["multiply", "n0", "n1"]]}) + "\n")
    assert dispatch(["eval", "--pred", str(pred), "--gold", str(gold)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "op_acc": 0.0, "exec_acc": 0.0, "acc": None, "p50_acc": None, "m_acc": 0.0, "n": 1,
        "n_exec": 1, "n_tests": 0}


def test_eval_scores_each_metric_over_the_records_that_carry_its_data(capsys, tmp_path):
    """Three records: the first has numbers and options, the second tests, the
    third neither.  exec_acc is over the first alone, acc and p50_acc over the
    second alone, and op_acc over all three."""
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    records = [
        {"id": "q", "text": "2 plus 3", "program": "(add,n0,n1)", "options": [4, 5, 6]},
        {"id": "t", "text": "a plus one", "program": "(+,a,1)",
         "tests": [{"input": {"a": 1}, "output": 2}, {"input": {"a": 2}, "output": 4}]},
        {"id": "w", "text": "nothing here", "program": "(add,n0,n1)"},
    ]
    gold.write_text("".join(json.dumps(r) + "\n" for r in records))
    predictions = {"q": [["add", "n1", "n0"]], "t": [["+", "a", "1"]], "w": [["add", "n1", "n0"]]}
    pred.write_text("".join(json.dumps({"id": k, "program": v}) + "\n"
                            for k, v in predictions.items()))
    assert dispatch(["eval", "--pred", str(pred), "--gold", str(gold)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "op_acc": 1 / 3, "exec_acc": 1.0, "acc": 0.0, "p50_acc": 1.0, "m_acc": 1 / 3, "n": 3,
        "n_exec": 1, "n_tests": 1}


def test_eval_of_empty_files_reports_null_rates(capsys, tmp_path):
    """With no record, no rate has a sample: op_acc and m_acc once read 0.0."""
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text("")
    pred.write_text("")
    assert dispatch(["eval", "--pred", str(pred), "--gold", str(gold)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "op_acc": None, "exec_acc": None, "acc": None, "p50_acc": None, "m_acc": None, "n": 0,
        "n_exec": 0, "n_tests": 0}


def test_eval_into_a_closed_pipe_exits_1_without_a_traceback(tmp_path):
    """``eval ... | head -2`` once exited 2 with a traceback and ``internal
    error: [Errno 32] Broken pipe``; a closed stdout now ends the run with exit
    1, as Python's own EPIPE handling does, and nothing on stderr; the
    ``--out`` report, once never written, is written before the print."""
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({"id": "r0", "text": "2 plus 3", "program": "(add,n0,n1)"}) + "\n")
    pred.write_text(json.dumps({"id": "r0", "program": [["add", "n0", "n1"]]}) + "\n")
    src = str(Path(tpn2f.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}   # stdout buffered
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)   # closed before the run writes: every write to stdout fails
    try:
        done = subprocess.run([sys.executable, "-m", "tpn2f.cli", "eval", "--pred", str(pred),
                               "--gold", str(gold), "--out", str(tmp_path / "report.json")],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == ""
    assert json.loads((tmp_path / "report.json").read_text())["op_acc"] == 1.0


def test_missing_config_file_exits_1(capsys, tmp_path):
    code = dispatch(["train", "--config", "missing.cfg",
                     "--data", str(tmp_path / "x.jsonl"), "--out", str(tmp_path)])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_train_on_a_record_with_empty_text_exits_1(capsys, tmp_path):
    data = tmp_path / "d.jsonl"
    good = {"text": "a 3", "program": [["add", "n0", "n0"]]}
    data.write_text(json.dumps(good) + "\n" + json.dumps({**good, "text": ""}) + "\n")
    assert dispatch(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                     "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert "record 2: field 'text'" in err and "internal error" not in err


def test_prepare_names_the_file_and_record_of_an_unparsable_program(capsys, tmp_path):
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"text": "a 3", "program": "(add,n0"}) + "\n")
    assert dispatch(["prepare", "--data", str(data), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{data}: record 1: unclosed '(' (offset 7)" in err


def test_prepare_names_the_sample_of_a_program_it_cannot_rewrite(capsys, tmp_path):
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"id": "q7", "text": "a 3", "program": "(fold,n0,n0,n0)"}) + "\n")
    assert dispatch(["prepare", "--data", str(data), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "sample q7: no rewrite rule for 3-argument relation 'fold'" in err


@pytest.mark.parametrize("command, flag", [
    ("train", "--config"), ("train", "--data"), ("prepare", "--rewrite-table"),
    ("infer", "--checkpoint"), ("infer", "--data"), ("analyze", "--checkpoint"),
    ("eval", "--pred"), ("eval", "--gold"),
])
def test_a_directory_given_for_a_file_exits_1_naming_it(capsys, tmp_path, micro_file,
                                                        command, flag):
    """Every file-taking flag given a directory is a user error; the other
    files of the command exist, so the directory is the fault reported."""
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(MICRO_CFG)
    ckpt = tmp_path / "run" / "model.ckpt"
    assert dispatch(["train", "--data", str(micro_file), "--out", str(ckpt.parent),
                     "--config", str(cfg_file), "--epochs", "0"]) == 0
    args = {"train": {"--config": cfg_file, "--data": micro_file, "--out": tmp_path / "o"},
            "prepare": {"--data": micro_file, "--rewrite-table": None, "--out": tmp_path / "o"},
            "infer": {"--checkpoint": ckpt, "--data": micro_file, "--out": tmp_path / "p"},
            "analyze": {"--checkpoint": ckpt, "--data": micro_file, "--out": tmp_path / "o"},
            "eval": {"--pred": micro_file, "--gold": micro_file}}[command]
    folder = tmp_path / "folder"
    folder.mkdir()
    args[flag] = folder
    capsys.readouterr()
    assert dispatch([command, *(str(x) for kv in args.items() for x in kv)]) == 1
    err = capsys.readouterr().err
    assert f"must be a file, not a directory or device: {folder}" in err
    assert "internal error" not in err


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
    # The micro records carry no numbers and no tests, so exec_acc and the
    # test-suite rates are null.
    assert report == {"op_acc": 1.0, "exec_acc": None, "acc": None,
                      "p50_acc": None, "m_acc": 1.0, "n": 12, "n_exec": 0, "n_tests": 0}


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


def test_load_config_unknown_key_named(tmp_path, micro_file, capsys):
    p = tmp_path / "c.cfg"
    p.write_text("banana=1\n")
    with pytest.raises(ConfigError, match="banana"):
        load_config(p)
    # A removed field is an unknown key like any other.
    p.write_text(MICRO_CFG + "teacher_forcing=true\n")
    with pytest.raises(ConfigError, match="teacher_forcing"):
        load_config(p)
    assert dispatch(["train", "--data", str(micro_file), "--out", str(tmp_path / "run"),
                     "--config", str(p)]) == 1
    assert "teacher_forcing" in capsys.readouterr().err


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


@pytest.mark.parametrize("edit, message", [
    (lambda table: table.pop(), "bytes, but the file holds"),
    (lambda table: table.append({"name": "extra", "shape": [4, 2]}), "bytes, but the file holds"),
    (lambda table: table[0].update(offset=0), "must hold just a name and a shape"),
], ids=["dropped-entry", "extra-entry", "offset"])
def test_infer_on_checkpoint_whose_table_misstates_the_data_exits_1(tmp_path, micro_file,
                                                                    capsys, edit, message):
    """A header whose CRC is valid but whose tensor table does not account for
    the packed data byte for byte is a user-facing checkpoint error, not an
    internal one."""
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(MICRO_CFG)
    assert dispatch(["train", "--data", str(micro_file), "--out", str(tmp_path / "run"),
                     "--config", str(cfg_file)]) == 0
    raw = (tmp_path / "run" / "model.ckpt").read_bytes()
    head_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + head_len])
    edit(header["tensors"])
    head = json.dumps(header).encode("utf-8")
    body = raw[:8] + len(head).to_bytes(8, "little") + head + raw[16 + head_len:-4]
    (tmp_path / "bad.ckpt").write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    assert dispatch(["infer", "--checkpoint", str(tmp_path / "bad.ckpt"),
                     "--data", str(micro_file), "--out", str(tmp_path / "pred.jsonl")]) == 1
    assert message in capsys.readouterr().err


def test_train_rejects_zero_batch_size(tmp_path, micro_file, capsys):
    assert dispatch(["train", "--data", str(micro_file), "--out", str(tmp_path / "run"),
                     "--batch-size", "0"]) == 1
    assert "batch_size" in capsys.readouterr().err


def test_train_rejects_a_negative_seed_naming_it(tmp_path, micro_file, capsys):
    assert dispatch(["train", "--data", str(micro_file), "--out", str(tmp_path / "run"),
                     "--seed", "-1"]) == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("batch_size, epoch", [(10, 0), (64, 1)])
def test_a_diverging_train_names_the_epoch_and_samples_without_numpy_warnings(
        tmp_path, micro_file, capsys, recwarn, batch_size, epoch):
    """At a learning rate of 1e300 the weights overflow after the first step; the
    run stops with the named error and exit 1, and numpy prints no warning first,
    neither in the epoch's next minibatch nor, with one minibatch, in its eval."""
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(MICRO_CFG)
    assert dispatch(["train", "--data", str(micro_file), "--out", str(tmp_path / "run"),
                     "--config", str(cfg_file), "--learning-rate", "1e300",
                     "--batch-size", str(batch_size)]) == 1
    assert re.search(rf"error: epoch {epoch}: (loss|grad norm) (nan|inf) on the minibatch of "
                     r"samples micro-\d+", capsys.readouterr().err)
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


def test_train_rejects_negative_clip_and_zero_dimension(tmp_path, micro_file, capsys):
    for flag, value, key in (("--grad-clip", "-1", "grad_clip"), ("--d-word", "0", "d_word")):
        assert dispatch(["train", "--data", str(micro_file), "--out", str(tmp_path / "run"),
                         flag, value]) == 1
        assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


_FIELDS = dataclasses.fields(TrainConfig)
_OTHER_CHOICE = {"pooling": "last_state", "encoder": "lstm", "decoder": "lstm"}


def _non_default(field):
    """A valid value for ``field`` that differs from its default."""
    if field.type == "bool":
        return not field.default
    if field.type == "str":
        return _OTHER_CHOICE[field.name]
    if field.default is None:
        return 3 if field.type.startswith("int") else 0.25
    return field.default + 1 if field.type == "int" else field.default * 2


def _flag_config(*flags):
    args = build_parser().parse_args(["train", "--data", "d.jsonl", "--out", "out", *flags])
    return _effective_config(args)


@pytest.mark.parametrize("field", _FIELDS, ids=[f.name for f in _FIELDS])
def test_every_config_field_is_a_flag(field):
    value = _non_default(field)
    flag = "--" + field.name.replace("_", "-")
    cfg = _flag_config(flag) if value is True else _flag_config(flag, str(value))
    assert getattr(cfg, field.name) == value
    others = {f.name: getattr(cfg, f.name) for f in _FIELDS if f is not field}
    assert others == {f.name: f.default for f in _FIELDS if f is not field}


def test_flags_override_config_file_and_can_unset(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("grad_clip=0.5\nstop_at_full_accuracy=true\nd_word=7\n")
    cfg = _flag_config("--config", str(p), "--grad-clip", "none",
                       "--stop-at-full-accuracy", "false", "--epochs", "3")
    assert (cfg.grad_clip, cfg.stop_at_full_accuracy, cfg.d_word, cfg.epochs) == \
        (None, False, 7, 3)
    with pytest.raises(ConfigError, match="d_word"):
        _flag_config("--d-word", "wide")


@pytest.mark.parametrize("changed", [False, True], ids=["defaults", "every-field-changed"])
def test_config_text_round_trips_every_field(tmp_path, changed):
    cfg = TrainConfig(**{f.name: _non_default(f) for f in _FIELDS}) if changed else TrainConfig()
    assert (cfg.grad_clip is None) != changed
    p = tmp_path / "c.cfg"
    p.write_text(_config_text(cfg))
    assert load_config(p) == cfg


@pytest.mark.parametrize("value, message", [
    ("inf", "learning_rate must be a finite number, got inf"),
    ("1e300", r"epoch 0: loss (nan|inf) on the minibatch of samples micro-\d+"),
])
def test_train_at_a_non_finite_rate_or_loss_exits_1_with_no_nan_logged(
        tmp_path, micro_file, capsys, value, message):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(MICRO_CFG)
    run = tmp_path / "run"
    with np.errstate(all="ignore"):
        assert dispatch(["train", "--data", str(micro_file), "--out", str(run),
                         "--config", str(cfg_file), "--learning-rate", value]) == 1
    assert re.search(message, capsys.readouterr().err)
    log = run / "train_log.jsonl"
    assert not log.exists() or log.read_text() == ""
    assert not (run / "model.ckpt").exists()


@pytest.mark.parametrize("args, config, message", [
    (["--d-word", str(10**30)], {},
     f"cannot allocate the model of config ModelDims(d_word={10**30},"),
    ([], {"learning_rate": 10**400}, "learning_rate must be a finite number"),
], ids=["d-word-past-numpy-size-limit", "rate-beyond-float-range"])
def test_train_on_a_config_it_cannot_build_or_read_exits_1(tmp_path, micro_file, capsys,
                                                           args, config, message):
    """Only sizes numpy rejects before it allocates anything."""
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(config))
    assert dispatch(["train", "--data", str(micro_file), "--out", str(tmp_path / "run"),
                     "--config", str(cfg_file), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_train_zero_epochs_reports_zero_and_exits_0(tmp_path, micro_file, capsys):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(MICRO_CFG)
    run = tmp_path / "run"
    assert dispatch(["train", "--data", str(micro_file), "--out", str(run),
                     "--config", str(cfg_file), "--epochs", "0"]) == 0
    assert "trained 0 epochs" in capsys.readouterr().out
    assert (run / "model.ckpt").exists() and (run / "train_log.jsonl").read_text() == ""


@pytest.mark.parametrize("entries, key", [
    ({"epochs": 2.7}, "epochs"), ({"learning_rate": True}, "learning_rate"),
    ({"epochs": True}, "epochs"), ({"epochs": "2"}, "epochs"),
    ({"stop_at_full_accuracy": 1}, "stop_at_full_accuracy"), ({"pooling": 3}, "pooling"),
    ({"d_word": None}, "d_word"), ({"learning_rate": float("inf")}, "learning_rate"),
], ids=["int-given-float", "float-given-bool", "int-given-bool", "int-given-string",
        "bool-given-int", "str-given-int", "required-given-null", "float-given-inf"])
def test_json_config_value_must_have_its_field_type(tmp_path, micro_file, capsys,
                                                    entries, key):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(entries))
    with pytest.raises(ConfigError, match=key):
        load_config(p)
    assert dispatch(["train", "--data", str(micro_file), "--out", str(tmp_path / "run"),
                     "--config", str(p)]) == 1
    assert key in capsys.readouterr().err


def test_json_config_takes_an_integer_for_a_float_and_null_for_an_optional(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"learning_rate": 1, "grad_clip": None, "epochs": 3}))
    cfg = load_config(p)
    assert (cfg.learning_rate, cfg.grad_clip, cfg.epochs) == (1.0, None, 3)
    assert isinstance(cfg.learning_rate, float)


@pytest.mark.parametrize("value", ["-1", "0"])
def test_infer_rejects_max_len_below_one(tmp_path, micro_file, capsys, value):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(MICRO_CFG)
    run = tmp_path / "run"
    assert dispatch(["train", "--data", str(micro_file), "--out", str(run),
                     "--config", str(cfg_file), "--epochs", "0"]) == 0
    capsys.readouterr()
    pred = tmp_path / "pred.jsonl"
    assert dispatch(["infer", "--checkpoint", str(run / "model.ckpt"), "--data",
                     str(micro_file), "--out", str(pred), "--max-len", value]) == 1
    assert "--max-len" in capsys.readouterr().err
    assert not pred.exists()


@pytest.mark.parametrize("value", ["5", "0"])
def test_prepare_rejects_positions_outside_2_and_3(tmp_path, micro_file, capsys, value):
    out = tmp_path / "prep"
    assert dispatch(["prepare", "--data", str(micro_file), "--out", str(out),
                     "--positions", value]) == 1
    assert "--positions" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tree", ["(f " * 3000 + "x" + ")" * 3000, "(f " * 3000],
                         ids=["closed", "unclosed"])
def test_prepare_rejects_a_program_tree_nested_3000_deep(tmp_path, capsys, tree):
    data = tmp_path / "deep.jsonl"
    data.write_text(json.dumps({"id": "deep", "text": "x", "program_tree": tree}) + "\n")
    assert dispatch(["prepare", "--data", str(data), "--format", "algolisp-style",
                     "--out", str(tmp_path / "prep")]) == 1
    assert "nested deeper than" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["stop_at_full_accuracy=", "stop_at_full_accuracy=maybe",
                                  "epochs=none", "learning_rate=yes", "learning_rate=inf"])
def test_key_value_line_of_wrong_type_names_the_key(tmp_path, line):
    p = tmp_path / "c.cfg"
    p.write_text(line + "\n")
    with pytest.raises(ConfigError, match=line.partition("=")[0]):
        load_config(p)


_DIGITS = "9" * 5000   # past Python's 4,300-digit limit on reading an integer


@pytest.mark.parametrize("option, text", [
    ("--data", '{"text": "a 3", "program": "(add,n0,n0)", "numbers": [%s]}\n' % _DIGITS),
    ("--data", '[{"text": "a 3", "program": "(add,n0,n0)", "numbers": [%s]}]' % _DIGITS),
    ("--rewrite-table", '{"if": [["if1", "$1", %s], ["if2", "$prev", "$3"]]}' % _DIGITS),
    ("--config", '{"epochs": %s}' % _DIGITS),
], ids=["dataset-line", "dataset-array", "rewrite-table", "config"])
def test_a_json_integer_too_long_to_read_is_invalid_json(tmp_path, micro_file, capsys,
                                                         option, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    files = {"--data": str(micro_file), option: str(bad)}
    command = "train" if option == "--config" else "prepare"
    assert dispatch([command, *(a for kv in files.items() for a in kv),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and "invalid JSON" in err


@pytest.mark.parametrize("text", ["{nope", "[1, 2]", '{"if": 3}', '{"if": [[], []]}',
                                  '{"if": [["if1", "$1", 5], ["if2", "$prev", "$3"]]}'])
def test_prepare_rejects_a_rewrite_table_that_is_not_an_object_of_rules(tmp_path, micro_file,
                                                                        capsys, text):
    table = tmp_path / "rules.json"
    table.write_text(text)
    assert dispatch(["prepare", "--data", str(micro_file), "--out", str(tmp_path / "prep"),
                     "--rewrite-table", str(table)]) == 1
    assert "rules.json" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "5", '["a", [["add", "n0", "n1"]]]', '{"program": [["add", "n0", "n1"]]}',
    '{"id": "micro-0", "program": "(add,n0,n1)"}',
    '{"id": "micro-0", "program": [["add"]]}',
    '{"id": "micro-0", "program": [["add", "n0", "n1", "n2", "n3"]]}',
    '{"id": "micro-0", "program": [["", "n0", "n1"]]}',
    '{"id": "micro-0", "program": [["add", null, "n1"]]}',
    '{"id": "micro-0", "program": [["add", true, false]]}',
    '{"id": "micro-0", "program": [["add", "", "n1"]]}',
], ids=["number", "list", "no-id", "program-string", "entry-1-item", "entry-5-items",
        "entry-empty-relation", "entry-null", "entry-bools", "entry-empty-argument"])
def test_eval_rejects_a_malformed_prediction_line(tmp_path, micro_file, capsys, line):
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"id": "micro-1", "program": [["add", "n0", "n1"]]}\n' + line + "\n")
    assert dispatch(["eval", "--pred", str(pred), "--gold", str(micro_file)]) == 1
    assert f"{pred}:2" in capsys.readouterr().err


def test_eval_rejects_a_second_prediction_for_one_id(tmp_path, micro_file, capsys):
    """Every gold program, then a wrong second line for ``micro-0``: the file
    does not say which line to score, so it is a user error naming the line."""
    lines = [json.dumps({"id": r["id"], "program": r["program"]})
             for r in map(json.loads, micro_file.read_text().splitlines())]
    lines.append(json.dumps({"id": "micro-0", "program": [["add", "n0", "n0"]]}))
    pred = tmp_path / "pred.jsonl"
    pred.write_text("\n".join(lines) + "\n")
    assert dispatch(["eval", "--pred", str(pred), "--gold", str(micro_file)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {pred}:13: ") and "'micro-0'" in out.err


def test_eval_scores_a_gold_file_with_numeric_arguments_against_itself(tmp_path, capsys):
    """A prediction's tuples are read as a dataset record's list program is: a JSON
    number argument is its text, so a gold file is also a prediction file."""
    gold = tmp_path / "gold.jsonl"
    gold.write_text("".join(json.dumps(r) + "\n" for r in (
        {"id": "q", "text": "a 3 b 4", "program": [["add", 0, 1], ["multiply", "#0", 2.5]]},
        {"id": "r", "text": "a 3 b 4", "program": [["add", "n0", "n1"]]})))
    assert dispatch(["eval", "--pred", str(gold), "--gold", str(gold)]) == 0
    assert json.loads(capsys.readouterr().out)["op_acc"] == 1.0


def test_eval_rejects_a_prediction_line_that_is_not_json(tmp_path, micro_file, capsys):
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"id": "micro-1", "program": [["add", "n0", "n1"]]}\n\n{oops\n')
    assert dispatch(["eval", "--pred", str(pred), "--gold", str(micro_file)]) == 1
    assert f"{pred}:3: invalid JSON" in capsys.readouterr().err


def test_eval_reads_const_dash_as_const_in_predictions(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"id": "q", "text": "a 3 b 4",
                                "program": "(divide,n0,const-100)"}) + "\n")
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"id": "q", "program": [["divide", "n0", "const-100"]]}) + "\n")
    assert dispatch(["eval", "--pred", str(pred), "--gold", str(gold)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["op_acc"] == report["m_acc"] == report["exec_acc"] == 1.0


def _untrained_checkpoint(tmp_path, micro_file, *flags):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(MICRO_CFG)
    run = tmp_path / "run"
    assert dispatch(["train", "--data", str(micro_file), "--out", str(run),
                     "--config", str(cfg_file), "--epochs", "0", *flags]) == 0
    return run / "model.ckpt"


@pytest.mark.parametrize("flag, value", [("--clusters", "0"), ("--clusters", "-1"),
                                         ("--max-assignment-samples", "-1")])
def test_analyze_rejects_clusters_below_one_and_a_negative_sample_count(
        tmp_path, micro_file, capsys, flag, value):
    ckpt = _untrained_checkpoint(tmp_path, micro_file)
    capsys.readouterr()
    out = tmp_path / "analysis"
    assert dispatch(["analyze", "--checkpoint", str(ckpt), "--data", str(micro_file),
                     "--out", str(out), flag, value]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("decoder", ["tpr", "lstm"])
def test_analyze_an_lstm_encoder_checkpoint_skips_assignments(tmp_path, micro_file, caplog,
                                                              decoder):
    ckpt = _untrained_checkpoint(tmp_path, micro_file, "--encoder", "lstm",
                                 "--decoder", decoder)
    out = tmp_path / "analysis"
    with caplog.at_level(logging.INFO, logger="tpn2f"):
        assert dispatch(["analyze", "--checkpoint", str(ckpt), "--data", str(micro_file),
                         "--out", str(out)]) == 0
    assert "assignments skipped: the lstm encoder" in caplog.text
    assert (out / "assignments.csv").read_text() == "token,position,role,filler,score\n"
    for name in ("clusters.csv", "scatter.svg", "roles.svg"):
        assert (out / name).exists()


def test_infer_reports_samples_per_second_and_latency_percentiles(tmp_path, micro_file, capsys):
    ckpt = _untrained_checkpoint(tmp_path, micro_file)
    capsys.readouterr()
    pred = tmp_path / "pred.jsonl"
    assert dispatch(["infer", "--checkpoint", str(ckpt), "--data", str(micro_file),
                     "--out", str(pred)]) == 0
    wrote, speed = capsys.readouterr().out.splitlines()
    assert wrote == f"wrote 12 predictions -> {pred}"
    m = re.fullmatch(r"decoded (\d+\.\d) samples/s; latency p50 (\d+\.\d{3}) ms, "
                     r"p95 (\d+\.\d{3}) ms", speed)
    assert m, speed
    assert float(m[1]) > 0 and 0 < float(m[2]) <= float(m[3])


def test_analyze_decodes_to_the_checkpoints_max_decode_len(tmp_path, micro_file, monkeypatch):
    ckpt = _untrained_checkpoint(tmp_path, micro_file, "--max-decode-len", "2")
    lengths = []
    decode = analysis.greedy_decode_with_vectors

    def recording_decode(model, token_ids, max_len):
        lengths.append(max_len)
        return decode(model, token_ids, max_len)

    monkeypatch.setattr(analysis, "greedy_decode_with_vectors", recording_decode)
    assert dispatch(["analyze", "--checkpoint", str(ckpt), "--data", str(micro_file),
                     "--out", str(tmp_path / "analysis")]) == 0
    assert lengths == [2] * 12
