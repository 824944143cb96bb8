"""Command-line orchestration: prepare, train, eval, infer, exec, analyze.

Configuration precedence is preset < config file < command-line flags; the
effective configuration is echoed into the output directory so any run can be
reproduced from it alone.  Exit codes: 0 success, 1 user error, 2 internal
error.  TPN2F_LOG in {debug, info, warn} controls verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis as analysis_mod
from . import data as data_mod
from . import formal_lang as fl
from . import training as training_mod
from .model import build_model, field_type
from .training import PRESETS, ConfigError, TrainConfig

log = logging.getLogger("tpn2f")


class UserError(Exception):
    """Bad input from the operator: wrong flags, missing files, malformed data."""


def _setup_logging() -> None:
    level = {"debug": logging.DEBUG, "info": logging.INFO,
             "warn": logging.WARNING}.get(os.environ.get("TPN2F_LOG", "info"), logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# configuration


_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _from_text(key: str, text: str) -> object:
    """A key=value or flag value as config field ``key``'s type; empty or ``none`` unsets
    it.  Other text is kept, for ``TrainConfig.from_dict`` to reject naming the key."""
    with contextlib.suppress(KeyError, ValueError):  # a key or a word not known
        kind, _ = field_type(_FIELDS[key])
        if text in ("", "none", "None"):
            return None
        return _BOOL_STRINGS[text.lower()] if kind is bool else kind(text)
    return text


def load_config(path) -> TrainConfig:
    """Read key=value lines or a JSON object; a ``preset`` key expands first."""
    raw = _require_file(path, "config file").read_text(encoding="utf-8")
    if raw.lstrip().startswith("{"):
        try:
            entries = json.loads(raw)
        except ValueError as exc:   # not JSON, or an integer past 4,300 digits
            raise ConfigError(f"{path}: invalid JSON config: {exc}") from exc
    else:
        entries = {}
        for lineno, line in enumerate(raw.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip()] = _from_text(key.strip(), value.strip())
    preset = entries.pop("preset", None)
    if preset is not None and not (isinstance(preset, str) and preset in PRESETS):
        raise ConfigError(f"unknown preset {preset!r} (have: {', '.join(sorted(PRESETS))})")
    cfg = TrainConfig() if preset is None else PRESETS[preset]()
    return TrainConfig.from_dict({**cfg.to_dict(), **entries})


def _config_text(cfg: TrainConfig) -> str:
    lines = [f"{k}={'' if v is None else v}" for k, v in sorted(cfg.to_dict().items())]
    return "\n".join(lines) + "\n"


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """``--field-name VALUE`` for every ``TrainConfig`` field; the values are
    parsed like config-file values, and a bare boolean flag means true."""
    p.add_argument("--preset", choices=sorted(PRESETS), help="named hyperparameter preset")
    p.add_argument("--config", help="key=value or JSON config file")
    for name, field in _FIELDS.items():
        bare = {"nargs": "?", "const": "true"} if field_type(field)[0] is bool else {}
        p.add_argument("--" + name.replace("_", "-"), dest=f"cfg_{name}", **bare)


def _effective_config(args) -> TrainConfig:
    if args.config:
        cfg = load_config(args.config)
        if args.preset:
            raise UserError("--preset and --config are exclusive; put preset= in the file")
    elif args.preset:
        cfg = PRESETS[args.preset]()
    else:
        cfg = TrainConfig()
    flags = {name: getattr(args, f"cfg_{name}") for name in _FIELDS}
    typed = {name: _from_text(name, v) for name, v in flags.items() if v is not None}
    return TrainConfig.from_dict({**cfg.to_dict(), **typed})


# ---------------------------------------------------------------------------
# commands


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise UserError(f"{what} not found: {p}")
    if not p.is_file():
        raise UserError(f"{what} must be a file, not a directory or device: {p}")
    return p


def _load_samples(path, fmt: str) -> list[data_mod.Sample]:
    return data_mod.load_dataset(_require_file(path, "dataset"), fmt)


def cmd_prepare(args) -> int:
    samples = _load_samples(args.data, args.format)
    table = (data_mod.load_rewrite_table(_require_file(args.rewrite_table, "rewrite table"))
             if args.rewrite_table else None)
    positions = args.positions or (3 if args.format == "algolisp-style" else 2)
    prepared = data_mod.preprocess_samples(samples, positions, table)
    vocab = data_mod.build_vocabularies(prepared)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_mod.save_dataset(out / "prepared.jsonl", prepared)
    (out / "vocab.json").write_text(json.dumps(vocab.to_dict(), indent=2, sort_keys=True),
                                    encoding="utf-8")
    print(f"prepared {len(prepared)} samples -> {out}/prepared.jsonl")
    return 0


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    samples = _load_samples(args.data, args.format)
    samples = data_mod.preprocess_samples(samples, cfg.positions)
    vocab = data_mod.build_vocabularies(samples)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective_config.cfg").write_text(_config_text(cfg), encoding="utf-8")
    rng = np.random.default_rng(cfg.seed)
    model = build_model(cfg.variant(), cfg.dims(), vocab, rng)
    log.info("training %s/%s model on %d samples for %d epochs",
             cfg.encoder, cfg.decoder, len(samples), cfg.epochs)
    with open(out / "train_log.jsonl", "w", encoding="utf-8") as log_stream:
        history = training_mod.train(model, samples, cfg, log_stream=log_stream,
                                     checkpoint_path=out / "model.ckpt")
    final = (f"; final loss {history[-1].mean_loss:.4f} op_acc {history[-1].op_acc:.3f}"
             if history else "")
    print(f"trained {len(history)} epochs{final}; checkpoint -> {out / 'model.ckpt'}")
    return 0


def _read_predictions(path) -> dict[str, list[fl.RelationalTuple]]:
    preds = {}
    text = _require_file(path, "prediction file").read_text(encoding="utf-8")
    for lineno, record in data_mod.read_json_lines(path, text):
        program = record.get("program") if isinstance(record, dict) else None
        if not (isinstance(program, list) and "id" in record):
            raise UserError(f"{path}:{lineno}: a prediction is an object with an 'id' and a "
                            f"'program' list of [relation, arg, ...] lists")
        sample_id = str(record["id"])
        if sample_id in preds:
            raise UserError(f"{path}:{lineno}: a second prediction for id {sample_id!r}")
        preds[sample_id] = data_mod.normalize_consts(
            data_mod.relational_tuple(t, f"{path}:{lineno}: field 'program'") for t in program)
    return preds


def cmd_eval(args) -> int:
    golds = _load_samples(args.gold, args.format)
    preds = _read_predictions(args.pred)
    missing = [s.id for s in golds if s.id not in preds]
    if missing:
        raise UserError(f"predictions missing for {len(missing)} ids (first: {missing[0]})")
    prediction_list = [preds[s.id] for s in golds]
    report = fl.evaluate_metrics(
        prediction_list,
        [s.program for s in golds],
        test_suites=[s.tests for s in golds],
        envs=[s.numbers if s.numbers else None for s in golds],
        options=[s.options for s in golds],
    )
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:   # before the print, which a closed stdout ends
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _load_model(path):
    ckpt = training_mod.load_checkpoint(_require_file(path, "checkpoint"))
    return ckpt.build_model(), ckpt


def cmd_infer(args) -> int:
    if args.max_len is not None and args.max_len < 1:
        raise UserError(f"--max-len must be >= 1, got {args.max_len}")
    model, ckpt = _load_model(args.checkpoint)
    samples = _load_samples(args.data, args.format)
    samples = data_mod.preprocess_samples(samples, ckpt.config.positions)
    max_len = ckpt.config.max_decode_len if args.max_len is None else args.max_len
    seconds = []
    with open(args.out, "w", encoding="utf-8") as fh:
        for s in samples:
            tokens = model.vocab.encode_text(s.text)
            start = time.perf_counter()
            program = training_mod.greedy_decode(model, tokens, max_len)
            seconds.append(time.perf_counter() - start)
            fh.write(json.dumps({"id": s.id,
                                 "program": [[t.relation, *t.args] for t in program]}) + "\n")
    print(f"wrote {len(samples)} predictions -> {args.out}")
    if seconds:
        p50, p95 = np.percentile(seconds, [50, 95]) * 1e3
        print(f"decoded {len(seconds) / sum(seconds):.1f} samples/s; "
              f"latency p50 {p50:.3f} ms, p95 {p95:.3f} ms")
    return 0


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (list, bool)):
        return json.dumps(value)
    return f"{value:g}"


def cmd_exec(args) -> int:
    try:
        program = fl.parse_tuple_sequence(args.program)
    except fl.ParseError as exc:
        raise UserError(f"bad program: {exc}") from exc
    try:
        if args.dataset == "mathqa":
            try:
                numbers = [float(x) for x in args.numbers.split(",")] if args.numbers else []
                if not all(map(data_mod.is_finite_number, numbers)):
                    raise ValueError(f"got {args.numbers}")
            except ValueError as exc:
                raise UserError(f"--numbers must be comma-separated finite floats: {exc}") from exc
            result = fl.exec_mathqa(program, fl.ProgramEnv(numbers=numbers))
        else:
            try:
                bindings = json.loads(args.bindings) if args.bindings else {}
                if not isinstance(bindings, dict):
                    raise ValueError(f"got {args.bindings:.60}")
            except ValueError as exc:   # json.JSONDecodeError is a ValueError
                raise UserError(f"--bindings must be a JSON object: {exc}") from exc
            result = fl.exec_algolisp(program, bindings)
        print(_format_value(result))
    except fl.ExecutionError as exc:
        raise UserError(f"execution failed [{exc.code}]: {exc}") from exc
    return 0


def cmd_analyze(args) -> int:
    if args.clusters < 1:
        raise UserError(f"--clusters must be >= 1, got {args.clusters}")
    if args.max_assignment_samples < 0:
        raise UserError(f"--max-assignment-samples must be >= 0, got {args.max_assignment_samples}")
    model, ckpt = _load_model(args.checkpoint)
    samples = _load_samples(args.data, args.format)
    samples = data_mod.preprocess_samples(samples, ckpt.config.positions)
    assignments = []
    if model.variant.encoder == "tpr":
        for s in samples[:args.max_assignment_samples]:
            assignments.extend(analysis_mod.extract_assignments(model, s.text))
    else:
        log.info("assignments skipped: the %s encoder makes no filler/role selections",
                 model.variant.encoder)
    stats = analysis_mod.collect_relation_vectors(model, samples, ckpt.config.max_decode_len)
    clusters = (analysis_mod.cluster_relation_vectors(stats, k=args.clusters, seed=args.seed)
                if len(stats) >= 2 else None)
    files = analysis_mod.emit_report(assignments, clusters, args.out)
    print("\n".join(str(f) for f in files))
    return 0


# ---------------------------------------------------------------------------
# dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UserError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tpn2f", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("prepare", help="normalize a dataset and build vocabularies")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=data_mod.FORMATS, default="mathqa-style")
    p.add_argument("--out", required=True)
    p.add_argument("--positions", type=int, choices=[2, 3], default=None)
    p.add_argument("--rewrite-table", default=None)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=data_mod.FORMATS, default="mathqa-style")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score predictions against gold programs")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--format", choices=data_mod.FORMATS, default="mathqa-style")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("infer", help="greedy-decode programs for a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=data_mod.FORMATS, default="mathqa-style")
    p.add_argument("--out", required=True)
    p.add_argument("--max-len", type=int, default=None)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("exec", help="run one program against an environment")
    p.add_argument("--dataset", choices=["mathqa", "algolisp"], required=True)
    p.add_argument("--program", required=True)
    p.add_argument("--numbers", default=None, help="comma-separated question numbers")
    p.add_argument("--bindings", default=None, help="JSON object of named inputs")
    p.set_defaults(fn=cmd_exec)

    p = sub.add_parser("analyze", help="emit interpretability reports")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=data_mod.FORMATS, default="mathqa-style")
    p.add_argument("--out", required=True)
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-assignment-samples", type=int, default=5)
    p.set_defaults(fn=cmd_analyze)
    return parser


def dispatch(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        code = args.fn(args)
        sys.stdout.flush()   # a closed pipe raises here, not at exit, even if stdout is buffered
        return code
    except (UserError, ConfigError, training_mod.CheckpointError, data_mod.DatasetError,
            data_mod.PreprocessError, fl.ParseError, fl.ExecutionError,
            FileNotFoundError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else 1
    except BrokenPipeError:  # stdout closed early, as by ``| head``: exit 1, as Python does
        devnull = os.open(os.devnull, os.O_WRONLY)   # so the flush at exit cannot raise again
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except Exception as exc:  # noqa: BLE001 - report, don't crash with a traceback
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
