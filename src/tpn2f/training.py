"""Teacher-forced training, greedy decoding, and bit-exact checkpoints.

Every minibatch, one sample included, runs in lockstep on one gradient tape:
its samples are right-padded to the longest and stepped together as the rows
of ``(B, d)`` activations, and teacher forcing scores all their steps in one
head pass.  The tape's grads, scaled by ``1 / B`` (the mean of the per-sample
losses), feed one Adam step.  All randomness flows through one seeded
generator, so a fixed seed gives a bit-identical loss trajectory.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
import zlib
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .data import EOS_SYMBOL, GO_SYMBOL, Sample, Vocabularies
from .formal_lang import PAD_SYMBOL, RelationalTuple
from .model import (
    ModelDims,
    ModelVariant,
    Tpn2fModel,
    build_model,
    check_fields,
    checked,
    pad_rows,
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
    stack_rows,
)


class ConfigError(ValueError):
    """Unknown key or bad value in a training configuration."""


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or version-incompatible checkpoint file."""


@dataclass
class TrainConfig(ModelVariant, ModelDims):
    """Training hyperparameters; the model's fields come from ``ModelDims`` and ``ModelVariant``."""

    epochs: int = checked(60, at_least=0)
    learning_rate: float = checked(0.00115, above=0.0)
    batch_size: int = checked(64, at_least=1)
    seed: int = 0
    max_decode_len: int = checked(30, at_least=1)
    grad_clip: float | None = checked(None, above=0.0)
    patience: int | None = checked(None, at_least=0)
    stop_at_full_accuracy: bool = False

    def dims(self) -> ModelDims:
        return ModelDims(**{f.name: getattr(self, f.name) for f in fields(ModelDims)})

    def variant(self) -> ModelVariant:
        return ModelVariant(**{f.name: getattr(self, f.name) for f in fields(ModelVariant)})

    def validate(self) -> None:
        check_fields(self, TrainConfig, ConfigError)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """The config of a key-to-value object, such as a checkpoint header's,
        after ``validate``; a bad or unknown key is a ``ConfigError`` naming it."""
        if not isinstance(d, dict):
            raise ConfigError(f"a config must be an object of keys, got {d!r:.60}")
        unknown = d.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        cfg = cls(**d)
        cfg.validate()
        return cfg


def mathqa_preset() -> TrainConfig:
    return TrainConfig()


def algolisp_preset() -> TrainConfig:
    return TrainConfig(d_role=30, d_rel=30, d_arg=20, positions=3, epochs=50)


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
    return EncodedSample(sample.id, vocab.encode_text(sample.text), targets, list(sample.program))


def encode_samples(samples: Sequence[Sample], vocab: Vocabularies,
                   positions: int) -> list[EncodedSample]:
    return [encode_sample(s, vocab, positions) for s in samples]


def go_tuple_ids(vocab: Vocabularies, positions: int) -> tuple[int, ...]:
    return (vocab.relation_id(GO_SYMBOL),) + (vocab.argument_id(PAD_SYMBOL),) * positions


# ---------------------------------------------------------------------------
# loss


def sequence_loss(heads: Sequence[Tensor], gold_ids, weights: np.ndarray | None = None
                  ) -> Tensor:
    """Summed cross entropy of ``teacher_forced_logits``' relation and argument
    ``heads`` against ``gold_ids``, one id tuple per step, ``(..., steps, 1 +
    positions)``, each step weighted by ``weights`` ``(..., steps)`` (1 when None):
    one ``cross_entropy`` per head, relations scored over the relation
    vocabulary only and arguments over the argument vocabulary only."""
    gold = np.asarray(gold_ids)
    if gold.ndim < 2 or len(heads) != gold.shape[-1]:
        raise ValueError(f"{len(heads)} heads vs gold ids of shape {gold.shape}")
    total = cross_entropy(heads[0], gold[..., 0], weights)
    for k, head in enumerate(heads[1:], start=1):
        total = add(total, cross_entropy(head, gold[..., k], weights))
    return total


def teacher_forced_logits(model: Tpn2fModel, token_ids, target_ids) -> list[Tensor]:
    """``[relation, *argument]`` logits, each ``(steps, n)``, of every target step
    with the gold tuple fed as the next input: the decoder steps from GO through
    the targets, and one ``head_logits`` pass scores its stacked states.  For a
    minibatch in lockstep, ``token_ids`` lists each sample's ids and ``target_ids``
    is ``pad_rows``' ``(B, steps, 1 + positions)``; the logits are then
    ``(B, steps, n)``, and attention skips each row's padded positions."""
    pooled, contexts = model.encode(token_ids)
    hidden, cell = model.initial_decoder_state(pooled)
    projected = model.project_contexts(contexts)
    gold = np.asarray(target_ids)
    go = np.broadcast_to(go_tuple_ids(model.vocab, model.dims.positions),
                         gold.shape[:-2] + (1, gold.shape[-1]))
    inputs = np.concatenate([go, gold[..., :-1, :]], axis=-2)
    mask = None
    if hidden.ndim > 1:   # a minibatch: attention skips each row's padding
        mask = np.arange(len(contexts)) < np.array([len(ids) for ids in token_ids])[:, None]
    states = []
    for step in range(inputs.shape[-2]):   # each slot's ids, one per row
        hidden, cell = model.decode_step(inputs[..., step, :].T, hidden, cell, projected, mask)
        states.append(hidden)
    rel_logits, arg_logits, _ = model.head_logits(stack_rows(states))
    return [rel_logits, *arg_logits]


def minibatch_loss(model: Tpn2fModel, batch: Sequence[EncodedSample]) -> Tensor:
    """The summed loss of ``batch``'s samples, recorded on the active tape.

    The samples run in lockstep, one row each (a one-sample batch is one
    row), right-padded to the longest token sequence and the longest target:
    pooling and attention read only each row's own positions, and steps past
    a row's last target get loss weight 0.  Teacher forcing is causal, so
    those padded steps come after all of the row's own and change none of them.
    """
    targets, weights = lockstep_targets(batch)
    heads = teacher_forced_logits(model, [enc.token_ids for enc in batch], targets)
    return sequence_loss(heads, targets, weights)


def lockstep_targets(batch: Sequence[EncodedSample]) -> tuple[np.ndarray, np.ndarray]:
    """A minibatch's targets right-padded with id 0, ``(B, steps, 1 + positions)``
    as ``pad_rows`` gives them; and each row's loss weight per step, 1 up to
    the row's last step and 0 past it, ``(B, steps)``."""
    targets, steps = pad_rows([enc.target_ids for enc in batch])
    weights = (np.arange(targets.shape[1]) < steps[:, None]).astype(np.float64)
    return targets, weights


def sample_loss(model: Tpn2fModel, enc: EncodedSample) -> Tensor:
    return minibatch_loss(model, [enc])


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
    eos = vocab.relation_id(EOS_SYMBOL)
    pooled, contexts = model.encode(token_ids)
    hidden, cell = model.initial_decoder_state(pooled)
    projected = model.project_contexts(contexts)
    prev = go_tuple_ids(vocab, model.dims.positions)
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
        return json.dumps(asdict(self))


def operation_accuracy(model: Tpn2fModel, encoded: Sequence[EncodedSample],
                       max_len: int) -> float:
    if not encoded:
        return 0.0
    hits = sum(1 for enc in encoded
               if greedy_decode(model, enc.token_ids, max_len) == enc.gold)
    return hits / len(encoded)


def train_epoch(model: Tpn2fModel, encoded: Sequence[EncodedSample], optimizer: AdamState,
                config: TrainConfig, rng: np.random.Generator, epoch: int = 0) -> EpochStats:
    """One teacher-forced pass over the data; returns mean loss and train accuracy.  A
    non-finite minibatch loss is a ``FloatingPointError`` naming the epoch and samples."""
    if not encoded:
        raise ValueError("empty training set")
    start = time.monotonic()
    params = [t for _, t in model.parameters()]
    order = rng.permutation(len(encoded))
    total_loss = 0.0
    for lo in range(0, len(order), config.batch_size):
        batch = [encoded[i] for i in order[lo:lo + config.batch_size]]
        with GradientTape():
            loss = minibatch_loss(model, batch)
            if not math.isfinite(loss.item()):
                raise FloatingPointError(
                    f"epoch {epoch}: loss {loss.item()} on the minibatch of samples "
                    f"{', '.join(enc.sample_id for enc in batch)}")
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
    best_loss, stale = float("inf"), 0
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
# Version 5 stacked the encoder's filler and role LSTMs into one cell, ``encoder.lstm``
# (version 4 stored them as ``encoder.filler_lstm`` and ``encoder.role_lstm``).
# Version 4 renamed the reasoning tensors ``reasoning.wk``/``bk`` to ``weights.k``/``biases.k``.
# Version 3: the config object dropped two model options that were never enabled.
# Version 2 introduced one weight ``w`` and one bias ``b`` per LSTM cell (see
# ``model.LstmParams``); version 1 stored 12 per-gate tensors.
CHECKPOINT_VERSION = 5
_ADAM_FIELDS = ("step_count", "learning_rate", "beta1", "beta2", "epsilon")


class _LayoutOnly:
    """Stands in for the generator when only the model's shapes are needed."""

    def uniform(self, low, high, size):
        return np.zeros(size)

    def standard_normal(self, size):
        return np.ones(size)


@dataclass
class Checkpoint:
    version: int
    config: TrainConfig
    vocab: Vocabularies
    tensors: dict[str, np.ndarray]
    adam: dict
    rng_state: dict
    epoch: int

    def build_model(self) -> Tpn2fModel:
        """Reconstruct the model this checkpoint was saved from, without its optimizer.

        Every parameter's weight and both its Adam moments must be present with
        the model's shapes, but only the weights are copied, into the new
        model's own arrays, so two builds share no memory with each other or
        with the checkpoint.  The model's layout is built from zeros, not random
        draws, since every weight is overwritten.  A layout too large to
        allocate is a ``CheckpointError``.
        """
        try:
            model = build_model(self.config.variant(), self.config.dims(), self.vocab,
                                _LayoutOnly())
        except (MemoryError, ValueError) as exc:  # ValueError: past numpy's size limit
            raise CheckpointError(f"cannot allocate the model of the checkpoint's config "
                                  f"{self.config.dims()}: {exc}") from exc
        for name, tensor in model.parameters():
            for key in (name, f"adam.m.{name}", f"adam.v.{name}"):
                if key not in self.tensors:
                    raise CheckpointError(f"checkpoint is missing tensor {key!r}")
                saved = self.tensors[key]
                if saved.shape != tensor.data.shape:
                    raise CheckpointError(f"tensor {key!r} has shape {saved.shape}, "
                                          f"model expects {tensor.data.shape}")
            tensor.data[...] = self.tensors[name]
        return model

    def build(self) -> tuple[Tpn2fModel, AdamState]:
        """``build_model`` plus a copy of the optimizer state it was saved with."""
        model = self.build_model()
        names = [name for name, _ in model.parameters()]
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
    checkpoint reproduces the file exactly.  Each tensor's bytes go straight
    from its array to the file and into the running CRC, so the save holds no
    copy of the tensor bytes.  On any failure the temp file is removed and an
    existing ``path`` is left untouched.
    """
    named = model.parameters()
    arrays: list[tuple[str, np.ndarray]] = [(n, t.data) for n, t in named]
    for (name, _), m, v in zip(named, optimizer.m, optimizer.v):
        arrays.append((f"adam.m.{name}", m))
        arrays.append((f"adam.v.{name}", v))
    table = []
    offset = 0
    for name, arr in arrays:
        table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += 8 * arr.size
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
    prefix = CHECKPOINT_MAGIC + len(head).to_bytes(8, "little") + head
    tmp = str(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(prefix)
            crc = zlib.crc32(prefix)
            for _, arr in arrays:
                raw = np.ascontiguousarray(arr, dtype="<f8")
                fh.write(raw)
                crc = zlib.crc32(raw, crc)
            fh.write(crc.to_bytes(4, "little"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


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


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_header_values(header: dict) -> None:
    """Raise ``CheckpointError`` naming the first optimizer value, ``rng_state``
    or ``epoch`` of the wrong type: a count, finite numbers, an object, a count."""
    checks = [("adam.step_count", header["adam"]["step_count"], _is_count, "a count")]
    checks += [(f"adam.{k}", header["adam"][k], _is_finite_number, "a finite number")
               for k in _ADAM_FIELDS[1:]]
    checks += [("rng_state", header.get("rng_state", {}), lambda v: isinstance(v, dict),
                "an object"),
               ("epoch", header.get("epoch", 0), _is_count, "a count")]
    for key, value, ok, wanted in checks:
        if not ok(value):
            raise CheckpointError(f"checkpoint {key} must be {wanted}, got {value!r:.60}")


def load_checkpoint(path) -> Checkpoint:
    """Read and verify a checkpoint written by ``save_checkpoint``.

    The file is read once into one buffer and its CRC is checked in place.
    The returned tensors are float64 views into that buffer, so a load holds
    one copy of the tensor bytes; ``Checkpoint.build`` copies them into the
    model's and the optimizer's own arrays.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head_len = int.from_bytes(fh.read(16)[8:], "little")
        # Offset the file in the buffer so that the tensor data, which follows
        # the 16-byte prefix and the header, starts 8-byte aligned.
        pad = -(16 + head_len) % 8
        buf = np.empty(pad + size, dtype=np.uint8)
        fh.seek(0)
        n_read = fh.readinto(buf[pad:])
    if n_read < size:
        raise CheckpointError(f"checkpoint file is truncated: read {n_read} of {size} bytes")
    if size < len(CHECKPOINT_MAGIC) + 12:
        raise CheckpointError("checkpoint file is truncated")
    body = memoryview(buf)[pad:pad + size - 4]
    if zlib.crc32(body).to_bytes(4, "little") != buf[pad + size - 4:].tobytes():
        raise CheckpointError("checkpoint checksum mismatch (corrupt or truncated file)")
    if body[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    if 16 + head_len > len(body):
        raise CheckpointError(f"checkpoint header of {head_len} bytes runs past the end "
                              f"of the file (truncated)")
    try:
        header = json.loads(body[16:16 + head_len].tobytes().decode("utf-8"))
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
    _check_header_values(header)
    data_start = pad + 16 + head_len
    tensors: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        name, shape, start = _tensor_entry(entry, len(body) - 16 - head_len)
        arr = np.frombuffer(buf, dtype="<f8", count=math.prod(shape), offset=data_start + start)
        tensors[name] = arr.reshape(shape).astype(np.float64, copy=False)
    return Checkpoint(
        version=header["version"],
        config=TrainConfig.from_dict(header["config"]),
        vocab=Vocabularies.from_dict(header["vocab"], CheckpointError),
        tensors=tensors,
        adam=header["adam"],
        rng_state=header.get("rng_state", {}),
        epoch=header.get("epoch", 0),
    )
