"""Teacher-forced training, greedy decoding, and bit-exact checkpoints.

A batch is processed sample by sample on one gradient tape each, with grads
accumulating additively before a single Adam step (equivalent to averaging
the per-sample losses).  All randomness flows through one seeded generator,
so a fixed seed gives a bit-identical loss trajectory.
"""

from __future__ import annotations

import json
import math
import os
import time
import zlib
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .data import EOS_SYMBOL, GO_SYMBOL, Sample, Vocabularies
from .formal_lang import PAD_SYMBOL, RelationalTuple
from .model import (
    ModelDims,
    ModelVariant,
    Tpn2fModel,
    build_model,
)
from .tensor import (
    AdamState,
    GradientTape,
    Tensor,
    add,
    adam_step,
    backward,
    clip_gradients,
    cross_entropy,
    scale,
)


class ConfigError(ValueError):
    """Unknown key or bad value in a training configuration."""


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or version-incompatible checkpoint file."""


@dataclass
class TrainConfig:
    epochs: int = 60
    learning_rate: float = 0.00115
    batch_size: int = 64
    seed: int = 0
    max_decode_len: int = 30
    pooling: str = "sum_tprs"
    reasoning_layers: int = 1
    teacher_forcing: bool = True
    grad_clip: float | None = None
    patience: int | None = None
    stop_at_full_accuracy: bool = False
    encoder: str = "tpr"
    decoder: str = "tpr"
    positions: int = 2
    attn_tanh: bool = True
    rel_decode_linear: bool = False
    d_word: int = 100
    n_fillers: int = 150
    n_roles: int = 50
    d_filler: int = 30
    d_role: int = 20
    d_rel: int = 20
    d_arg: int = 10
    d_pos: int = 5
    lstm_hidden: int = 100

    def dims(self) -> ModelDims:
        return ModelDims(d_word=self.d_word, d_filler=self.d_filler, n_fillers=self.n_fillers,
                         d_role=self.d_role, n_roles=self.n_roles, d_rel=self.d_rel,
                         d_arg=self.d_arg, d_pos=self.d_pos, positions=self.positions,
                         lstm_hidden=self.lstm_hidden)

    def variant(self) -> ModelVariant:
        return ModelVariant(encoder_kind=self.encoder, decoder_kind=self.decoder,
                            pooling=self.pooling, reasoning_layers=self.reasoning_layers)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        cfg = cls(**d)
        for key, ok, wanted in _VALUE_CHECKS:
            value = getattr(cfg, key)
            try:
                good = ok(value)
            except TypeError:  # e.g. None or a string where a number belongs
                good = False
            if not good:
                raise ConfigError(f"{key} must be {wanted}, got {value!r}")
        try:
            cfg.variant().validate()
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        return cfg


_VALUE_CHECKS = (
    ("positions", lambda v: v in (2, 3), "2 or 3"),
    ("batch_size", lambda v: v >= 1, ">= 1"),
    ("learning_rate", lambda v: v > 0.0, "> 0"),
    ("epochs", lambda v: v >= 0, ">= 0"),
)


def mathqa_preset() -> TrainConfig:
    return TrainConfig(n_fillers=150, n_roles=50, d_filler=30, d_role=20,
                       d_rel=20, d_arg=10, d_pos=5, epochs=60, learning_rate=0.00115,
                       positions=2)


def algolisp_preset() -> TrainConfig:
    return TrainConfig(n_fillers=150, n_roles=50, d_filler=30, d_role=30,
                       d_rel=30, d_arg=20, d_pos=5, epochs=50, learning_rate=0.00115,
                       positions=3)


PRESETS = {"mathqa": mathqa_preset, "algolisp": algolisp_preset}


# ---------------------------------------------------------------------------
# encoding samples against vocabularies


@dataclass
class EncodedSample:
    sample_id: str
    token_ids: list[int]
    target_ids: list[tuple[int, ...]]   # gold tuples plus the trailing EOS step
    gold: list[RelationalTuple]


def encode_sample(sample: Sample, vocab: Vocabularies, positions: int) -> EncodedSample:
    pad = vocab.argument_id(PAD_SYMBOL)
    targets = []
    for tup in sample.program:
        if len(tup.args) != positions:
            raise ValueError(
                f"sample {sample.id}: tuple {tup} has {len(tup.args)} args; "
                f"preprocess to {positions} positions first")
        targets.append((vocab.relation_id(tup.relation),
                        *(vocab.argument_id(a) for a in tup.args)))
    targets.append((vocab.relation_id(EOS_SYMBOL),) + (pad,) * positions)
    return EncodedSample(sample_id=sample.id,
                         token_ids=vocab.encode_text(sample.text),
                         target_ids=targets,
                         gold=list(sample.program))


def encode_samples(samples: Sequence[Sample], vocab: Vocabularies,
                   positions: int) -> list[EncodedSample]:
    return [encode_sample(s, vocab, positions) for s in samples]


def go_tuple_ids(vocab: Vocabularies, positions: int) -> tuple[int, ...]:
    return (vocab.relation_id(GO_SYMBOL),) + (vocab.argument_id(PAD_SYMBOL),) * positions


# ---------------------------------------------------------------------------
# loss


def sequence_loss(step_logits: Sequence[tuple[Tensor, Sequence[Tensor]]],
                  gold_ids: Sequence[tuple[int, ...]]) -> Tensor:
    """Summed cross entropy over relations and every argument slot.

    Relations are scored over the relation vocabulary only, arguments over
    the argument vocabulary only.
    """
    if len(step_logits) != len(gold_ids):
        raise ValueError(f"{len(step_logits)} logit steps vs {len(gold_ids)} gold tuples")
    total: Tensor | None = None
    for (rel_logits, arg_logits), gold in zip(step_logits, gold_ids):
        if len(arg_logits) != len(gold) - 1:
            raise ValueError(f"{len(arg_logits)} argument heads vs {len(gold) - 1} gold args")
        term = cross_entropy(rel_logits, gold[0])
        for head, target in zip(arg_logits, gold[1:]):
            term = add(term, cross_entropy(head, target))
        total = term if total is None else add(total, term)
    if total is None:
        raise ValueError("empty target sequence")
    return total


def teacher_forced_logits(model: Tpn2fModel, token_ids: Sequence[int],
                          target_ids: Sequence[tuple[int, ...]]
                          ) -> list[tuple[Tensor, list[Tensor]]]:
    """Logits for each target step with the gold tuple fed as the next input."""
    pooled, contexts = model.encode(token_ids)
    hidden, cell = model.initial_decoder_state(pooled)
    projected = model.project_contexts(contexts)
    prev = go_tuple_ids(model.vocab, model.dims.positions)
    steps = []
    for gold in target_ids:
        hidden, cell = model.decode_step(prev, hidden, cell, projected)
        rel_logits, arg_logits, _ = model.head_logits(hidden)
        steps.append((rel_logits, arg_logits))
        prev = gold
    return steps


def sample_loss(model: Tpn2fModel, enc: EncodedSample) -> Tensor:
    return sequence_loss(teacher_forced_logits(model, enc.token_ids, enc.target_ids),
                         enc.target_ids)


# ---------------------------------------------------------------------------
# greedy decoding


def greedy_decode(model, token_ids: Sequence[int], max_len: int) -> list[RelationalTuple]:
    tuples, _ = greedy_decode_with_vectors(model, token_ids, max_len)
    return tuples


def greedy_decode_with_vectors(model, token_ids: Sequence[int], max_len: int
                               ) -> tuple[list[RelationalTuple], list[np.ndarray]]:
    """Greedy decoding: argmax per head, stop on the EOS relation or max_len.

    Also returns the relation unbinding vector captured at each emitted step
    (empty entries for decoders without one).
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    vocab = model.vocab
    positions = model.dims.positions
    eos = vocab.relation_id(EOS_SYMBOL)
    pooled, contexts = model.encode(token_ids)
    hidden, cell = model.initial_decoder_state(pooled)
    projected = model.project_contexts(contexts)
    prev = go_tuple_ids(vocab, positions)
    out: list[RelationalTuple] = []
    vectors: list[np.ndarray] = []
    for _ in range(max_len):
        hidden, cell = model.decode_step(prev, hidden, cell, projected)
        rel_logits, arg_logits, r_unbind = model.head_logits(hidden)
        rel_id = int(np.argmax(rel_logits.data))
        if rel_id == eos:
            break
        arg_ids = [int(np.argmax(a.data)) for a in arg_logits]
        out.append(RelationalTuple(vocab.relations[rel_id],
                                   tuple(vocab.arguments[a] for a in arg_ids)))
        vectors.append(r_unbind.data.copy() if r_unbind is not None else np.zeros(0))
        prev = (rel_id, *arg_ids)
    return out, vectors


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    op_acc: float
    wallclock: float

    def to_json(self) -> str:
        return json.dumps({"epoch": self.epoch, "mean_loss": self.mean_loss,
                           "op_acc": self.op_acc, "wallclock": self.wallclock})


def operation_accuracy(model: Tpn2fModel, encoded: Sequence[EncodedSample],
                       max_len: int) -> float:
    if not encoded:
        return 0.0
    hits = sum(1 for enc in encoded
               if greedy_decode(model, enc.token_ids, max_len) == enc.gold)
    return hits / len(encoded)


def train_epoch(model: Tpn2fModel, encoded: Sequence[EncodedSample], optimizer: AdamState,
                config: TrainConfig, rng: np.random.Generator, epoch: int = 0) -> EpochStats:
    """One teacher-forced pass over the data; returns mean loss and train accuracy."""
    if not encoded:
        raise ValueError("empty training set")
    start = time.monotonic()
    params = [t for _, t in model.parameters()]
    order = rng.permutation(len(encoded))
    total_loss = 0.0
    for lo in range(0, len(order), config.batch_size):
        batch = [encoded[i] for i in order[lo:lo + config.batch_size]]
        for enc in batch:
            with GradientTape():
                loss = sample_loss(model, enc)
                backward(scale(loss, 1.0 / len(batch)))
            total_loss += loss.item()
        for p in params:
            if p.grad is None:
                p.grad = np.zeros(p.shape)
        if config.grad_clip is not None:
            clip_gradients(params, config.grad_clip)
        adam_step(params, optimizer)
    mean_loss = total_loss / len(encoded)
    op_acc = operation_accuracy(model, encoded, config.max_decode_len)
    return EpochStats(epoch=epoch, mean_loss=mean_loss, op_acc=op_acc,
                      wallclock=time.monotonic() - start)


def train(model: Tpn2fModel, samples: Sequence[Sample], config: TrainConfig,
          log_stream=None, checkpoint_path=None) -> list[EpochStats]:
    """Full training run; optionally writes JSON-lines logs and a checkpoint."""
    rng = np.random.default_rng(config.seed)
    encoded = encode_samples(samples, model.vocab, model.dims.positions)
    params = [t for _, t in model.parameters()]
    optimizer = AdamState.for_params(params, config.learning_rate)
    history: list[EpochStats] = []
    best_loss = float("inf")
    stale = 0
    for epoch in range(config.epochs):
        stats = train_epoch(model, encoded, optimizer, config, rng, epoch)
        history.append(stats)
        if log_stream is not None:
            log_stream.write(stats.to_json() + "\n")
            log_stream.flush()
        if config.stop_at_full_accuracy and stats.op_acc == 1.0:
            break
        if config.patience is not None:
            if stats.mean_loss < best_loss - 1e-12:
                best_loss, stale = stats.mean_loss, 0
            else:
                stale += 1
                if stale > config.patience:
                    break
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, model, optimizer, config,
                        rng_state=rng.bit_generator.state, epoch=len(history))
    return history


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"TPN2FCK1"
CHECKPOINT_VERSION = 1
_ADAM_FIELDS = ("step_count", "learning_rate", "beta1", "beta2", "epsilon")


@dataclass
class Checkpoint:
    version: int
    config: TrainConfig
    vocab: Vocabularies
    tensors: dict[str, np.ndarray]
    adam: dict
    rng_state: dict
    epoch: int

    def build(self) -> tuple[Tpn2fModel, AdamState]:
        """Reconstruct the model and optimizer this checkpoint was saved from."""
        rng = np.random.default_rng(0)  # layout only; weights are overwritten
        model = build_model(self.config.variant(), self.config.dims(), self.vocab, rng,
                            attn_tanh=self.config.attn_tanh,
                            rel_decode_linear=self.config.rel_decode_linear)
        names = []
        for name, tensor in model.parameters():
            for key in (name, f"adam.m.{name}", f"adam.v.{name}"):
                if key not in self.tensors:
                    raise CheckpointError(f"checkpoint is missing tensor {key!r}")
                saved = self.tensors[key]
                if saved.shape != tensor.data.shape:
                    raise CheckpointError(f"tensor {key!r} has shape {saved.shape}, "
                                          f"model expects {tensor.data.shape}")
            tensor.data[...] = self.tensors[name]
            names.append(name)
        optimizer = AdamState(
            m=[self.tensors[f"adam.m.{n}"].copy() for n in names],
            v=[self.tensors[f"adam.v.{n}"].copy() for n in names],
            **{k: self.adam[k] for k in _ADAM_FIELDS},
        )
        return model, optimizer


def save_checkpoint(path, model: Tpn2fModel, optimizer: AdamState, config: TrainConfig,
                    rng_state: dict | None = None, epoch: int = 0) -> None:
    """Write a self-contained checkpoint: header JSON + packed f64 + CRC32.

    The write is atomic (temp file + rename) and byte-stable: saving a loaded
    checkpoint reproduces the file exactly.
    """
    named = model.parameters()
    arrays: list[tuple[str, np.ndarray]] = [(n, t.data) for n, t in named]
    for (name, _), m, v in zip(named, optimizer.m, optimizer.v):
        arrays.append((f"adam.m.{name}", m))
        arrays.append((f"adam.v.{name}", v))
    table = []
    offset = 0
    blobs = []
    for name, arr in arrays:
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    header = {
        "version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "vocab": model.vocab.to_dict(),
        "tensors": table,
        "adam": {k: getattr(optimizer, k) for k in _ADAM_FIELDS},
        "rng_state": rng_state if rng_state is not None else {},
        "epoch": epoch,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = CHECKPOINT_MAGIC + len(head).to_bytes(8, "little") + head + b"".join(blobs)
    payload = body + zlib.crc32(body).to_bytes(4, "little")
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _tensor_entry(entry, n_bytes: int) -> tuple[str, tuple[int, ...], int]:
    """Name, shape and byte offset of one header tensor entry, checked
    against the ``n_bytes`` of packed data that follow the header."""
    if not isinstance(entry, dict) or not {"name", "shape", "offset"} <= entry.keys():
        raise CheckpointError(f"tensor entry {entry!r} needs name, shape and offset")
    name, shape, offset = entry["name"], entry["shape"], entry["offset"]
    if not (isinstance(name, str) and isinstance(shape, list)
            and all(_is_count(d) for d in shape) and _is_count(offset)):
        raise CheckpointError(
            f"tensor {name!r}: shape and offset must be non-negative integers, "
            f"got shape {shape!r}, offset {offset!r}")
    end = offset + 8 * math.prod(shape)
    if end > n_bytes:
        raise CheckpointError(f"tensor {name!r} ends at byte {end}, "
                              f"past the {n_bytes} bytes of tensor data")
    return name, tuple(shape), offset


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        payload = fh.read()
    if len(payload) < len(CHECKPOINT_MAGIC) + 12:
        raise CheckpointError("checkpoint file is truncated")
    body, crc = payload[:-4], payload[-4:]
    if zlib.crc32(body).to_bytes(4, "little") != crc:
        raise CheckpointError("checkpoint checksum mismatch (corrupt or truncated file)")
    if not body.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError("not a checkpoint file (bad magic)")
    head_len = int.from_bytes(body[8:16], "little")
    try:
        header = json.loads(body[16:16 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('version')!r} "
            f"(supported: {CHECKPOINT_VERSION})")
    missing = {"config", "vocab", "tensors", "adam"} - header.keys()
    if missing:
        raise CheckpointError(f"checkpoint header lacks {', '.join(sorted(missing))}")
    if not isinstance(header["tensors"], list):
        raise CheckpointError("checkpoint tensor table is not a list")
    if not (isinstance(header["adam"], dict) and set(_ADAM_FIELDS) <= header["adam"].keys()):
        raise CheckpointError(f"checkpoint optimizer state needs {', '.join(_ADAM_FIELDS)}")
    data = body[16 + head_len:]
    tensors: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        name, shape, start = _tensor_entry(entry, len(data))
        arr = np.frombuffer(data, dtype="<f8", count=math.prod(shape), offset=start)
        tensors[name] = arr.reshape(shape).astype(np.float64)
    config = TrainConfig.from_dict(header["config"])
    return Checkpoint(
        version=header["version"],
        config=config,
        vocab=Vocabularies.from_dict(header["vocab"]),
        tensors=tensors,
        adam=header["adam"],
        rng_state=header.get("rng_state", {}),
        epoch=header.get("epoch", 0),
    )
