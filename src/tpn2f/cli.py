"""Command-line orchestration: prepare, train, eval, infer, exec, analyze.

Configuration precedence is preset < config file < command-line flags; the
effective configuration is echoed into the output directory so any run can be
reproduced from it alone.  Exit codes: 0 success, 1 user error, 2 internal
error.  TPN2F_LOG in {debug, info, warn} controls verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis as analysis_mod
from . import data as data_mod
from . import formal_lang as fl
from . import training as training_mod
from .model import build_model
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


def _coerce(key: str, value, target_type) -> object:
    if target_type is bool:
        if isinstance(value, bool):
            return value
        v = str(value).lower()
        if v not in _BOOL_STRINGS:
            raise ConfigError(f"key {key!r} expects a boolean, got {value!r}")
        return _BOOL_STRINGS[v]
    try:
        return target_type(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key {key!r} expects {target_type.__name__}, got {value!r}") from exc


_FIELD_TYPES = {
    f.name: (int if f.type in ("int", "int | None") else
             float if f.type in ("float", "float | None") else
             bool if f.type == "bool" else str)
    for f in dataclasses.fields(TrainConfig)
}


def apply_config_entries(cfg: TrainConfig, entries: dict) -> TrainConfig:
    updates = {}
    for key, value in entries.items():
        if key == "preset":
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        updates[key] = None if value in (None, "", "none", "None") else _coerce(
            key, value, _FIELD_TYPES[key])
    return TrainConfig.from_dict({**cfg.to_dict(), **updates})


def load_config(path) -> TrainConfig:
    """Read key=value lines or a JSON object; a ``preset`` key expands first."""
    path = Path(path)
    if not path.exists():
        raise UserError(f"config file not found: {path}")
    raw = path.read_text(encoding="utf-8")
    stripped = raw.lstrip()
    if stripped.startswith("{"):
        try:
            entries = json.loads(raw)
        except json.JSONDecodeError as exc:
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
            entries[key.strip()] = value.strip()
    preset = entries.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have: {', '.join(sorted(PRESETS))})")
        cfg = PRESETS[preset]()
    else:
        cfg = TrainConfig()
    return apply_config_entries(cfg, entries)


def _config_text(cfg: TrainConfig) -> str:
    lines = [f"{k}={'' if v is None else v}" for k, v in sorted(cfg.to_dict().items())]
    return "\n".join(lines) + "\n"


_OVERRIDE_FLAGS = [
    ("--epochs", "epochs", int), ("--learning-rate", "learning_rate", float),
    ("--batch-size", "batch_size", int), ("--seed", "seed", int),
    ("--max-decode-len", "max_decode_len", int), ("--pooling", "pooling", str),
    ("--reasoning-layers", "reasoning_layers", int), ("--encoder", "encoder", str),
    ("--decoder", "decoder", str), ("--positions", "positions", int),
    ("--grad-clip", "grad_clip", float), ("--patience", "patience", int),
    ("--d-word", "d_word", int),
]


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS), help="named hyperparameter preset")
    p.add_argument("--config", help="key=value or JSON config file")
    for flag, dest, typ in _OVERRIDE_FLAGS:
        p.add_argument(flag, dest=f"cfg_{dest}", type=typ, default=None)
    p.add_argument("--stop-at-full-accuracy", dest="cfg_stop_at_full_accuracy",
                   action="store_true", default=None)


def _effective_config(args) -> TrainConfig:
    if args.config:
        cfg = load_config(args.config)
        if args.preset:
            raise UserError("--preset and --config are exclusive; put preset= in the file")
    elif args.preset:
        cfg = PRESETS[args.preset]()
    else:
        cfg = TrainConfig()
    overrides = {dest: getattr(args, f"cfg_{dest}")
                 for _, dest, _ in _OVERRIDE_FLAGS if getattr(args, f"cfg_{dest}") is not None}
    if getattr(args, "cfg_stop_at_full_accuracy", None):
        overrides["stop_at_full_accuracy"] = True
    return TrainConfig.from_dict({**cfg.to_dict(), **overrides})


# ---------------------------------------------------------------------------
# commands


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise UserError(f"{what} not found: {p}")
    return p


def _load_samples(path, fmt: str) -> list[data_mod.Sample]:
    return data_mod.load_dataset(_require_file(path, "dataset"), fmt)


def cmd_prepare(args) -> int:
    samples = _load_samples(args.data, args.format)
    table = data_mod.load_rewrite_table(args.rewrite_table) if args.rewrite_table else None
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
    model = build_model(cfg.variant(), cfg.dims(), vocab, rng,
                        attn_tanh=cfg.attn_tanh, rel_decode_linear=cfg.rel_decode_linear)
    log.info("training %s/%s model on %d samples for %d epochs",
             cfg.encoder, cfg.decoder, len(samples), cfg.epochs)
    with open(out / "train_log.jsonl", "w", encoding="utf-8") as log_stream:
        history = training_mod.train(model, samples, cfg, log_stream=log_stream,
                                     checkpoint_path=out / "model.ckpt")
    last = history[-1]
    print(f"trained {len(history)} epochs; final loss {last.mean_loss:.4f} "
          f"op_acc {last.op_acc:.3f}; checkpoint -> {out / 'model.ckpt'}")
    return 0


def _read_predictions(path) -> dict[str, list[fl.RelationalTuple]]:
    preds = {}
    for lineno, line in enumerate(_require_file(path, "prediction file")
                                  .read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise UserError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if "id" not in record or "program" not in record:
            raise UserError(f"{path}:{lineno}: prediction records need 'id' and 'program'")
        preds[str(record["id"])] = [
            fl.RelationalTuple(str(t[0]), tuple(str(a) for a in t[1:]))
            for t in record["program"]]
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
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def _load_model(path):
    try:
        ckpt = training_mod.load_checkpoint(_require_file(path, "checkpoint"))
        model, _ = ckpt.build()
    except training_mod.CheckpointError as exc:
        raise UserError(str(exc)) from exc
    return model, ckpt


def cmd_infer(args) -> int:
    model, ckpt = _load_model(args.checkpoint)
    samples = _load_samples(args.data, args.format)
    samples = data_mod.preprocess_samples(samples, ckpt.config.positions)
    max_len = args.max_len or ckpt.config.max_decode_len
    with open(args.out, "w", encoding="utf-8") as fh:
        for s in samples:
            program = training_mod.greedy_decode(model, model.vocab.encode_text(s.text), max_len)
            fh.write(json.dumps({"id": s.id,
                                 "program": [[t.relation, *t.args] for t in program]}) + "\n")
    print(f"wrote {len(samples)} predictions -> {args.out}")
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
            except ValueError as exc:
                raise UserError(f"--numbers must be comma-separated floats: {exc}") from exc
            result = fl.exec_mathqa(program, fl.ProgramEnv(numbers=numbers))
        else:
            try:
                bindings = json.loads(args.bindings) if args.bindings else {}
            except json.JSONDecodeError as exc:
                raise UserError(f"--bindings must be a JSON object: {exc}") from exc
            result = fl.exec_algolisp(program, bindings)
        print(_format_value(result))
    except fl.ExecutionError as exc:
        raise UserError(f"execution failed [{exc.code}]: {exc}") from exc
    return 0


def cmd_analyze(args) -> int:
    model, ckpt = _load_model(args.checkpoint)
    samples = _load_samples(args.data, args.format)
    samples = data_mod.preprocess_samples(samples, ckpt.config.positions)
    assignments = []
    for s in samples[:args.max_assignment_samples]:
        assignments.extend(analysis_mod.extract_assignments(model, s.text))
    stats = analysis_mod.collect_relation_vectors(model, samples)
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
    p.add_argument("--format", choices=["mathqa-style", "algolisp-style"],
                   default="mathqa-style")
    p.add_argument("--out", required=True)
    p.add_argument("--positions", type=int, default=None)
    p.add_argument("--rewrite-table", default=None)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=["mathqa-style", "algolisp-style"],
                   default="mathqa-style")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score predictions against gold programs")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--format", choices=["mathqa-style", "algolisp-style"],
                   default="mathqa-style")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("infer", help="greedy-decode programs for a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=["mathqa-style", "algolisp-style"],
                   default="mathqa-style")
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
    p.add_argument("--format", choices=["mathqa-style", "algolisp-style"],
                   default="mathqa-style")
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
        return args.fn(args)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, data_mod.DatasetError, data_mod.PreprocessError,
            fl.ParseError, fl.ExecutionError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else 1
    except Exception as exc:  # noqa: BLE001 - report, don't crash with a traceback
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
