"""Teacher-forced training, greedy decoding, and bit-exact checkpoints.

Every minibatch, one sample included, runs in lockstep on gradient tapes:
its samples are right-padded to the longest and stepped together as the rows
of ``(B, d)`` activations, and teacher forcing scores all their steps in one
head pass.  A minibatch of at most ``CHUNK_ROWS`` rows is one tape; a longer
one is sorted by token count and run as chunks of ``CHUNK_ROWS`` rows, one
tape each, so that only one chunk's activations are alive at a time.  The
grads, scaled by ``1 / B`` (the mean of the per-sample losses) and added up
over the chunks, feed one Adam step.  All randomness flows through one seeded
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
from itertools import zip_longest
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
    seed: int = checked(0, at_least=0)
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
    pooled, memory = model.encode(token_ids)
    hidden, cell = model.initial_decoder_state(pooled)
    projected = model.project_contexts(memory)
    gold = np.asarray(target_ids)
    go = np.broadcast_to(go_tuple_ids(model.vocab, model.dims.positions),
                         gold.shape[:-2] + (1, gold.shape[-1]))
    inputs = np.concatenate([go, gold[..., :-1, :]], axis=-2)
    mask = None
    if hidden.ndim > 1:   # a minibatch: attention skips each row's padding
        mask = np.arange(memory.shape[-2]) < np.array([len(ids) for ids in token_ids])[:, None]
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
    pooled, memory = model.encode(token_ids)
    hidden, cell = model.initial_decoder_state(pooled)
    projected = model.project_contexts(memory)
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
        # ``r_unbind`` is a fresh matmul output that nothing writes to later: no copy.
        vectors.append(r_unbind.data if r_unbind is not None else np.zeros(0))
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
    """The share of ``encoded`` whose greedy decode of at most ``max_len`` steps
    equals its gold program.

    Each decode stops after ``len(gold) + 1`` steps: a greedy step does not
    depend on ``max_len``, so the capped decode is a prefix of the full one, and
    a decode that has not emitted EOS by then can no longer equal gold."""
    if not encoded:
        return 0.0
    hits = sum(1 for enc in encoded
               if greedy_decode(model, enc.token_ids, min(max_len, len(enc.gold) + 1))
               == enc.gold)
    return hits / len(encoded)


# Rows per gradient tape: a longer minibatch trains as length-sorted chunks of this
# many rows.  At the mathqa preset and batch 64 (scripts/preset_epoch.py, 2 cores),
# 16-row chunks peaked at 648 MB and took 42 ms/sample, one 64-row tape 1,558 MB and
# 50 ms; 8-row chunks took 56 ms/sample and 32-row chunks peaked at 888 MB.
CHUNK_ROWS = 16


def minibatch_chunks(batch: Sequence[EncodedSample]) -> list[Sequence[EncodedSample]]:
    """``batch`` as it is when it has at most ``CHUNK_ROWS`` rows; otherwise its
    samples sorted stably by token count, in chunks of ``CHUNK_ROWS`` (the last
    may be shorter), so that each chunk pads its rows to similar lengths."""
    if len(batch) <= CHUNK_ROWS:
        return [batch]
    rows = sorted(batch, key=lambda enc: len(enc.token_ids))
    return [rows[lo:lo + CHUNK_ROWS] for lo in range(0, len(rows), CHUNK_ROWS)]


def train_epoch(model: Tpn2fModel, encoded: Sequence[EncodedSample], optimizer: AdamState,
                config: TrainConfig, rng: np.random.Generator, epoch: int = 0) -> EpochStats:
    """One teacher-forced pass over the data; returns mean loss and train accuracy.

    Each minibatch runs as ``minibatch_chunks``, one tape and one ``backward`` of
    ``loss / B`` per chunk; the grads add up over the chunks, then the minibatch
    takes one clip and one Adam step.  A non-finite chunk loss or global grad norm
    is a ``FloatingPointError`` naming the epoch and samples, raised before the
    step's Adam update; numpy's float warnings are silenced for the epoch, so that
    a diverging run prints that error alone."""
    if not encoded:
        raise ValueError("empty training set")
    start = time.monotonic()
    params = [t for _, t in model.parameters()]
    order = rng.permutation(len(encoded))
    total_loss = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, len(order), config.batch_size):
            batch = [encoded[i] for i in order[lo:lo + config.batch_size]]
            for chunk in minibatch_chunks(batch):
                with GradientTape():
                    loss = minibatch_loss(model, chunk)
                    _require_finite("loss", loss.item(), epoch, chunk)
                    backward(scale(loss, 1.0 / len(batch)))
                total_loss += loss.item()
            for p in params:
                if p.grad is None:
                    p.grad = np.zeros(p.shape)
            norm = clip_gradients(params, config.grad_clip or math.inf)
            _require_finite("grad norm", norm, epoch, batch)
            adam_step(params, optimizer)
        op_acc = operation_accuracy(model, encoded, config.max_decode_len)
    mean_loss = total_loss / len(encoded)
    return EpochStats(epoch=epoch, mean_loss=mean_loss, op_acc=op_acc,
                      wallclock=time.monotonic() - start)


def _require_finite(what: str, value: float, epoch: int, batch: Sequence[EncodedSample]) -> None:
    if not math.isfinite(value):
        raise FloatingPointError(f"epoch {epoch}: {what} {value} on the minibatch of samples "
                                 f"{', '.join(enc.sample_id for enc in batch)}")


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
# Version 6 lists each parameter once, by name and shape, and packs every weight, then
# every first and every second Adam moment in that order; version 5 gave each Adam moment
# its own table entry and every tensor a byte offset.
# Version 5 stacked the encoder's filler and role LSTMs into one cell, ``encoder.lstm``
# (version 4 stored them as ``encoder.filler_lstm`` and ``encoder.role_lstm``).
# Version 4 renamed the reasoning tensors ``reasoning.wk``/``bk`` to ``weights.k``/``biases.k``.
# Version 3: the config object dropped two model options that were never enabled.
# Version 2 introduced one weight ``w`` and one bias ``b`` per LSTM cell (see
# ``model.LstmParams``); version 1 stored 12 per-gate tensors.
CHECKPOINT_VERSION = 6
_ADAM_FIELDS = ("step_count", "learning_rate", "beta1", "beta2", "epsilon")


@dataclass
class Checkpoint:
    """A checkpoint file's contents, as ``load_checkpoint`` read them.

    ``table`` lists each parameter's name and shape; ``weights``, ``m`` and
    ``v`` are the three blocks of the file, every parameter's weights, first
    and second Adam moments, each one float64 array packed in table order.  A
    checkpoint builds once: ``build`` or ``build_model`` hands the blocks over
    and sets all three to None, and a second build is a ``CheckpointError``.
    """

    version: int
    config: TrainConfig
    vocab: Vocabularies
    table: list[tuple[str, tuple[int, ...]]]
    weights: np.ndarray | None
    m: np.ndarray | None
    v: np.ndarray | None
    adam: dict
    rng_state: dict
    epoch: int

    def build_model(self) -> Tpn2fModel:
        """The model this checkpoint was saved from, without its optimizer.

        The model's layout is built with no weights of its own (``build_model``
        with no generator); a config too large to lay out is a
        ``CheckpointError``.  The table must list the layout's parameters,
        names and shapes, in order, or a ``CheckpointError`` names the first
        entry that differs.  Each parameter's ``data`` is then its view of the
        weights block, not a copy, so builds from two loads share no memory.
        """
        if self.weights is None:
            raise CheckpointError("checkpoint already built; load it again")
        dims = self.config.dims()
        try:
            model = build_model(self.config.variant(), dims, self.vocab, None)
        except (MemoryError, ValueError) as exc:  # ValueError: past numpy's size limit
            raise CheckpointError(f"cannot allocate the model of the checkpoint's config "
                                  f"{dims}: {exc}") from exc
        named = model.parameters()
        expected = [(name, t.shape) for name, t in named]
        for k, (have, want) in enumerate(zip_longest(self.table, expected, fillvalue="nothing")):
            if have != want:
                raise CheckpointError(f"tensor table entry {k} is {have}, the model of the "
                                      f"checkpoint's config {dims} expects {want}")
        ends = np.cumsum([t.size for _, t in named[:-1]], dtype=int)
        for (_, tensor), block in zip(named, np.split(self.weights, ends)):
            tensor.data = block.reshape(tensor.shape)
        self.weights = self.m = self.v = None
        return model

    def build(self) -> tuple[Tpn2fModel, AdamState]:
        """The model this checkpoint was saved from, as ``build_model`` builds
        it, and its optimizer state, which keeps the two moment blocks."""
        m, v = self.m, self.v
        return self.build_model(), AdamState(m=m, v=v, **{k: self.adam[k] for k in _ADAM_FIELDS})


def save_checkpoint(path, model: Tpn2fModel, optimizer: AdamState, config: TrainConfig,
                    rng_state: dict | None = None, epoch: int = 0) -> None:
    """Write a self-contained checkpoint: header JSON + packed f64 + CRC32.

    The header's tensor table holds each parameter's name and shape, in
    ``model.parameters()`` order; the packed data is every weight, then every
    first Adam moment, then every second one, each in table order.  The write
    is atomic (temp file + rename) and byte-stable: saving a loaded checkpoint
    reproduces the file exactly.  Each weight's and each moment block's bytes go
    straight from its array to the file and into the running CRC, so the save
    holds no copy of the tensor bytes.  Moments that do not match the
    parameters raise ``StateError`` before any file is opened.  On any failure
    the temp file is removed and an existing ``path`` is left untouched.
    """
    named = model.parameters()
    optimizer.check_moments([t for _, t in named])
    arrays = [t.data for _, t in named] + [optimizer.m, optimizer.v]
    table = [{"name": name, "shape": list(t.shape)} for name, t in named]
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
            for arr in arrays:
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


class _CheckedReader:
    """Reads a checkpoint file front to back, folding every byte it reads into
    the running CRC; a short read reports the file as truncated."""

    def __init__(self, fh, size: int):
        self.fh, self.size, self.pos, self.crc = fh, size, 0, 0

    def read_into(self, buf) -> None:
        view = memoryview(buf).cast("B")
        n = self.fh.readinto(view)
        self.crc = zlib.crc32(view[:n], self.crc)
        self.pos += n
        if n < len(view):
            raise CheckpointError(f"checkpoint file is truncated: read {self.pos} "
                                  f"of {self.size} bytes")

    def read_array(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next ``8 * prod(shape)`` bytes, read into a fresh float64 array."""
        arr = np.empty(shape, dtype="<f8")
        self.read_into(arr)
        return arr.astype(np.float64, copy=False)

    def read(self, n: int) -> bytearray:
        buf = bytearray(n)
        self.read_into(buf)
        return buf

    def check_crc(self) -> None:
        """Read the rest of the file, at most 1 MiB at a time, and check its CRC
        against the last 4 bytes."""
        end = self.size - 4
        chunk = memoryview(bytearray(min(end - self.pos, 1 << 20)))
        while self.pos < end:
            self.read_into(chunk[:end - self.pos])
        crc = self.crc.to_bytes(4, "little")
        if self.read(4) != crc:
            raise CheckpointError("checkpoint checksum mismatch (corrupt or truncated file)")


def _read_header(reader: _CheckedReader) -> tuple[dict, TrainConfig, Vocabularies, list]:
    """The header's JSON object, config and vocabularies, and its tensor table
    as ``_tensor_table`` checks it; a ``CheckpointError`` or ``ConfigError``
    names the first fault."""
    prefix = reader.read(16)
    if prefix[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    head_len = int.from_bytes(prefix[8:], "little")
    if 16 + head_len > reader.size - 4:
        raise CheckpointError(f"checkpoint header of {head_len} bytes runs past the end "
                              f"of the file (truncated)")
    try:
        header = json.loads(reader.read(head_len).decode("utf-8"))
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
    table = _tensor_table(header["tensors"], reader.size - 4 - reader.pos)
    return (header, TrainConfig.from_dict(header["config"]),
            Vocabularies.from_dict(header["vocab"], CheckpointError), table)


def _tensor_table(entries: list, n_bytes: int) -> list[tuple[str, tuple[int, ...]]]:
    """Each parameter's name and shape: every entry holds just those two, no two
    share a name, and the weights and both Adam moments of the shapes take
    exactly the ``n_bytes`` of tensor data, so the tensors take no more than the file."""
    table, names = [], set()
    for entry in entries:
        if not (isinstance(entry, dict) and entry.keys() == {"name", "shape"}):
            raise CheckpointError(f"tensor entry {entry!r:.80} must hold just a name and a shape")
        name, shape = entry["name"], entry["shape"]
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(_is_count(d) for d in shape)):
            raise CheckpointError(f"tensor {name!r:.60}: shape must be a list of non-negative "
                                  f"integers, got {shape!r:.60}")
        if name in names:
            raise CheckpointError(f"tensor {name!r} appears twice in the tensor table")
        names.add(name)
        table.append((name, tuple(shape)))
    claimed = 3 * 8 * sum(math.prod(shape) for _, shape in table)
    if claimed != n_bytes:
        raise CheckpointError(f"the tensor table's weights and Adam moments take {claimed} "
                              f"bytes, but the file holds {n_bytes} bytes of tensor data")
    return table


def load_checkpoint(path) -> Checkpoint:
    """Read and verify a checkpoint written by ``save_checkpoint``.

    The header is read and checked first; a header that fails a check makes
    the rest of the file be read for the CRC, so that a corrupt file is
    reported as corrupt.  Then the three blocks, every weight, every first and
    every second moment in table order, are each read straight into one fresh
    float64 array, and every byte goes into the running CRC, checked against
    the file's last 4 bytes.  A load so holds one copy of the tensor bytes and
    never more than the file holds (``_tensor_table``); no table shape reaches
    numpy until ``Checkpoint.build_model`` has matched it to the model's, and
    the build hands the blocks over without copying them.
    """
    with open(path, "rb") as fh:
        reader = _CheckedReader(fh, os.fstat(fh.fileno()).st_size)
        if reader.size < len(CHECKPOINT_MAGIC) + 12:
            raise CheckpointError("checkpoint file is truncated")
        try:
            header, config, vocab, table = _read_header(reader)
        except (CheckpointError, ConfigError):
            reader.check_crc()
            raise
        n = sum(math.prod(shape) for _, shape in table)
        weights, m, v = (reader.read_array((n,)) for _ in range(3))
        reader.check_crc()
    return Checkpoint(
        version=header["version"],
        config=config,
        vocab=vocab,
        table=table,
        weights=weights,
        m=m,
        v=v,
        adam=header["adam"],
        rng_state=header.get("rng_state", {}),
        epoch=header.get("epoch", 0),
    )
