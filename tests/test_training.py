"""Loss, teacher forcing, greedy decoding, determinism, checkpoints."""

import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings
import zlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tpn2f import training as training_mod
from tpn2f.cli import dispatch
from tpn2f.data import build_vocabularies, preprocess_samples, save_dataset
from tpn2f.formal_lang import RelationalTuple
from tpn2f.model import LstmParams, ModelDims, ModelVariant, Tpn2fModel, build_model
from tpn2f.synthetic import make_micro_dataset, micro_config
from tpn2f.tensor import (
    AdamState,
    GradientTape,
    StateError,
    Tensor,
    add,
    backward,
    contract_last,
    cross_entropy,
    flatten,
    matmul,
    reshape,
    scale,
)
from tpn2f.training import (
    CHECKPOINT_VERSION,
    CHUNK_ROWS,
    CheckpointError,
    ConfigError,
    EpochStats,
    TrainConfig,
    algolisp_preset,
    encode_sample,
    encode_samples,
    greedy_decode,
    greedy_decode_with_vectors,
    load_checkpoint,
    lockstep_targets,
    mathqa_preset,
    minibatch_chunks,
    minibatch_loss,
    operation_accuracy,
    save_checkpoint,
    sequence_loss,
    teacher_forced_logits,
    train,
    train_epoch,
)


def T(rel, *args):
    return RelationalTuple(rel, tuple(args))


def micro_setup(n=12, seed=0, cfg=None):
    cfg = cfg or micro_config()
    samples = preprocess_samples(make_micro_dataset(n, seed=0), positions=cfg.positions)
    vocab = build_vocabularies(samples)
    rng = np.random.default_rng(seed)
    model = build_model(cfg.variant(), cfg.dims(), vocab, rng)
    return cfg, samples, vocab, model, rng


# ---------------------------------------------------------------------------
# presets and config


def test_mathqa_preset_values():
    cfg = mathqa_preset()
    assert (cfg.n_fillers, cfg.n_roles, cfg.d_filler, cfg.d_role) == (150, 50, 30, 20)
    assert (cfg.d_rel, cfg.d_arg, cfg.d_pos) == (20, 10, 5)
    assert cfg.epochs == 60 and cfg.learning_rate == 0.00115


def test_algolisp_preset_values():
    cfg = algolisp_preset()
    assert (cfg.d_role, cfg.d_rel, cfg.d_arg, cfg.epochs) == (30, 30, 20, 50)
    assert cfg.positions == 3


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="mystery"):
        TrainConfig.from_dict({"mystery": 1})


@pytest.mark.parametrize("key, value", [
    ("batch_size", 0), ("learning_rate", 0.0), ("learning_rate", -1.0), ("epochs", -1),
    ("epochs", None), ("positions", 4),
    ("pooling", "bogus"), ("encoder", "gru"), ("decoder", "gru"),
    ("grad_clip", -1.0), ("grad_clip", 0.0), ("patience", -1), ("max_decode_len", 0),
    ("d_word", "wide"), *((f.name, 0) for f in fields(ModelDims)),
    ("epochs", 2.7), ("seed", "x"), ("learning_rate", True), ("reasoning_layers", 1.5),
    ("stop_at_full_accuracy", None), ("learning_rate", float("inf")), ("grad_clip", float("inf")),
    ("learning_rate", 10**400), ("grad_clip", 10**400),
])
def test_config_rejects_bad_value(key, value):
    with pytest.raises(ConfigError, match=key):
        TrainConfig.from_dict({key: value})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6)
_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


def _has_annotated_type(cfg: TrainConfig) -> bool:
    for f in fields(TrainConfig):
        value, (kind, *optional) = getattr(cfg, f.name), f.type.split(" | ")
        if not ((value is None and optional) or (type(value) is _TYPES[kind])):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from([f.name for f in fields(TrainConfig)]), _JSON))
def test_config_from_any_json_values_is_typed_or_config_error(entries):
    try:
        cfg = TrainConfig.from_dict(json.loads(json.dumps(entries)))
    except ConfigError:
        return
    assert _has_annotated_type(cfg)


def test_variant_fields_are_declared_once():
    names = [f.name for f in fields(ModelVariant)]
    assert names == ["encoder", "decoder", "pooling", "reasoning_layers"]
    assert set(TrainConfig.__annotations__).isdisjoint(names)
    cfg = replace(micro_config(), encoder="lstm", pooling="last_state", reasoning_layers=2)
    assert cfg.variant() == ModelVariant("lstm", "tpr", "last_state", 2)
    assert type(cfg.variant()) is ModelVariant
    with pytest.raises(ValueError, match="d_word"):  # validate() checks both bases
        replace(cfg, d_word=0).validate()
    with pytest.raises(ValueError, match="decoder"):
        replace(cfg, decoder="gru").validate()


def test_config_accepts_unset_or_positive_clip_and_patience():
    for grad_clip, patience in ((None, None), (0.5, 0)):
        cfg = TrainConfig.from_dict({"grad_clip": grad_clip, "patience": patience})
        assert (cfg.grad_clip, cfg.patience) == (grad_clip, patience)


def test_dimension_fields_are_declared_once():
    dim_names = [f.name for f in fields(ModelDims)]
    assert [f.name for f in fields(TrainConfig)][:len(dim_names)] == dim_names
    assert set(TrainConfig.__annotations__).isdisjoint(dim_names)
    cfg = replace(micro_config(), lstm_hidden=7)
    assert cfg.dims() == ModelDims(**{n: getattr(cfg, n) for n in dim_names})
    assert type(cfg.dims()) is ModelDims and mathqa_preset() == TrainConfig()


# ---------------------------------------------------------------------------
# loss


def _one_hot_logits(n, idx, sharp=100.0):
    z = np.zeros((1, n))
    z[0, idx] = sharp
    return Tensor(z)


def test_sequence_loss_perfect_prediction_near_zero():
    gold = [(1, 2, 3)]
    args = np.stack([_one_hot_logits(7, 2).data, _one_hot_logits(7, 3).data], axis=1)
    heads = (_one_hot_logits(6, 1), Tensor(args))
    assert args.shape == (1, 2, 7)
    assert sequence_loss(heads, gold).item() == pytest.approx(0.0, abs=1e-12)


def test_sequence_loss_uniform_closed_form():
    gold = [(0, 1, 2)]
    heads = (Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 2, 4))))
    assert sequence_loss(heads, gold).item() == pytest.approx(3 * math.log(4), abs=1e-12)


def test_sequence_loss_additive_over_tuples():
    rng = np.random.default_rng(0)
    heads = [rng.standard_normal((4, 5)), rng.standard_normal((4, 2, 6))]
    gold = [(1, 2, 3) for _ in range(4)]

    def loss(steps):
        return sequence_loss([Tensor(h[steps]) for h in heads], gold[steps]).item()

    whole = loss(slice(None))
    assert whole == pytest.approx(loss(slice(0, 2)) + loss(slice(2, 4)), abs=1e-12)


def test_sequence_loss_length_mismatch():
    heads = (Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 2, 4))))
    with pytest.raises(ValueError):   # 2 steps of logits, 3 gold tuples
        sequence_loss(heads, [(0, 0, 0)] * 3)
    with pytest.raises(ValueError, match=r"shape \(2, 2, 4\) vs gold ids of shape \(2, 4\)"):
        sequence_loss(heads, [(0, 0, 0, 0)] * 2)   # 2 positions, 3 arguments per tuple


def test_head_sizes_match_vocabularies_every_step():
    cfg, samples, vocab, model, _ = micro_setup()
    enc = encode_sample(samples[0], vocab, cfg.positions)
    rel_logits, arg_logits = teacher_forced_logits(model, enc.token_ids, enc.target_ids)
    steps = len(enc.target_ids)
    assert rel_logits.shape == (steps, vocab.n_relations)
    assert arg_logits.shape == (steps, cfg.positions, vocab.n_arguments)


def test_teacher_forcing_isolation():
    """Changing the gold tuple at step t moves step t+1 logits, not step t."""
    cfg, samples, vocab, model, _ = micro_setup()
    enc = encode_sample(samples[5], vocab, cfg.positions)
    assert len(enc.target_ids) >= 2
    changed = list(enc.target_ids)
    changed[0] = (changed[0][0], (changed[0][1] + 1) % vocab.n_arguments, changed[0][2])
    base = teacher_forced_logits(model, enc.token_ids, enc.target_ids)[0].data
    moved = teacher_forced_logits(model, enc.token_ids, changed)[0].data
    assert np.array_equal(base[0], moved[0])
    assert not np.array_equal(base[1], moved[1])


def _per_step_loss(model, token_ids, targets, weights=None):
    """The loss as teacher forcing computed it step by step: one ``head_logits``
    call per decoder step and one ``cross_entropy`` per step and slot (the
    relation, then each argument position), with ``targets`` either one sample's
    tuples or ``lockstep_targets``' arrays."""
    pooled, memory = model.encode(token_ids)
    hidden, cell = model.initial_decoder_state(pooled)
    projected = model.project_contexts(memory)
    gold = np.asarray(targets)
    prev = np.array(training_mod.go_tuple_ids(model.vocab, model.dims.positions))
    mask = None
    if gold.ndim == 3:
        mask = np.arange(memory.shape[-2]) < np.array([len(ids) for ids in token_ids])[:, None]
        prev = np.repeat(prev[None], len(gold), axis=0)
    total = 0.0
    for s in range(gold.shape[-2]):
        hidden, cell = model.decode_step(prev, hidden, cell, projected, mask)
        rel_logits, arg_logits, _ = model.head_logits(hidden)
        w = None if weights is None else weights[:, s]
        slots = [rel_logits.data] + [arg_logits.data[..., k, :] for k in range(gold.shape[-1] - 1)]
        for k, head in enumerate(slots):
            total += cross_entropy(Tensor(head), gold[..., s, k], w).item()
        prev = gold[..., s, :]
    return total


@pytest.mark.parametrize("setting", ["tpr-tpr", "tpr-lstm", "lstm-tpr", "lstm-lstm"])
def test_scoring_every_step_at_once_equals_the_per_step_loss(setting):
    """One head pass and one cross entropy per head give the per-step loss
    within 1e-12 relative, for one sample and for a padded minibatch."""
    cfg = micro_config()
    cfg.encoder, cfg.decoder = setting.split("-")
    model, short, long = _lockstep_setup(cfg)
    want = _per_step_loss(model, long.token_ids, long.target_ids)
    got = sequence_loss(teacher_forced_logits(model, long.token_ids, long.target_ids),
                        long.target_ids).item()
    assert abs(got - want) <= 1e-12 * want
    batch = short[:3] + [long]
    targets, weights = lockstep_targets(batch)
    token_ids = [e.token_ids for e in batch]
    want = _per_step_loss(model, token_ids, targets, weights)
    got = minibatch_loss(model, batch).item()
    assert abs(got - want) <= 1e-12 * want


def _per_position_head_and_loss(model, hidden, targets, weights):
    """The former head and loss, one argument position at a time: each
    position's slab (``contract_last`` with its own unbinding vector, the slabs
    then added up) or its own argument head, and one ``cross_entropy`` per slot.
    Returns the relation logits, each position's argument logits, the loss, and
    the per-position leaves standing in for ``pos_unbind``'s rows or
    ``arg_head``'s row blocks."""
    dec, dims = model.decoder, model.dims
    if model.variant.decoder == "tpr":
        leaves = [Tensor(row.copy(), requires_grad=True) for row in dec.pos_unbind.data]
        cube = reshape(hidden, hidden.shape[:-1] + (dims.d_arg, dims.d_rel, dims.d_pos))
        slabs = [contract_last(cube, u) for u in leaves]
        total = slabs[0]
        for slab in slabs[1:]:
            total = add(total, slab)
        r_unbind = matmul(dec.w_dual, flatten(total, hidden.ndim - 1))
        rel = matmul(dec.rel_classifier, r_unbind)
        args = [matmul(dec.arg_classifier, contract_last(slab, r_unbind)) for slab in slabs]
    else:
        leaves = [Tensor(block.copy(), requires_grad=True)
                  for block in np.split(dec.arg_head.data, dims.positions)]
        rel = matmul(dec.rel_head, hidden)
        args = [matmul(head, hidden) for head in leaves]
    loss = cross_entropy(rel, targets[..., 0], weights)
    for k, head in enumerate(args, start=1):
        loss = add(loss, cross_entropy(head, targets[..., k], weights))
    return rel, args, loss, leaves


@pytest.mark.parametrize("decoder", ["tpr", "lstm"])
@pytest.mark.parametrize("positions", [2, 3])
def test_one_argument_axis_equals_the_per_position_head_and_loss(decoder, positions):
    """On a padded minibatch's stacked states, the ``(B, steps, P, n)`` argument
    logits, the loss and every grad (the states', the shared head weights' and
    each position's row of ``pos_unbind`` or row block of ``arg_head``) agree with
    the former per-position maths within 1e-12 relative to the largest entry."""
    cfg = replace(micro_config(), decoder=decoder, positions=positions)
    model, short, long = _lockstep_setup(cfg)
    targets, weights = lockstep_targets(short[:3] + [long])
    states = np.random.default_rng(4).standard_normal(
        targets.shape[:2] + (model.decoder.lstm.hidden,))
    stacked = "decoder.pos_unbind" if decoder == "tpr" else "decoder.arg_head"

    def run(head_and_loss):
        hidden = Tensor(states, requires_grad=True)
        with GradientTape():
            rel, args, loss, leaves = head_and_loss(hidden)
            backward(loss)
        grads = {name: t.grad for name, t in model.parameters() if t.grad is not None}
        for _, t in model.parameters():
            t.grad = None
        if leaves:
            grads[stacked] = np.concatenate([t.grad.reshape(-1, t.shape[-1]) for t in leaves])
        return [rel.data, args, np.asarray(loss.item()), hidden.grad], grads

    def one_axis(hidden):
        rel, args, _ = model.head_logits(hidden)
        return rel, args.data, sequence_loss((rel, args), targets, weights), []

    got, got_grads = run(one_axis)
    want, want_grads = run(lambda h: _per_position_head_and_loss(model, h, targets, weights))
    want[1] = np.stack([a.data for a in want[1]], axis=-2)
    assert got[1].shape == targets.shape[:2] + (positions, model.vocab.n_arguments)
    assert got_grads.keys() == want_grads.keys() and stacked in got_grads
    pairs = list(zip(got, want)) + [(got_grads[k], want_grads[k]) for k in want_grads]
    for a, b in pairs:
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_the_loss_records_three_nodes_at_any_number_of_positions():
    """One relation and one argument cross entropy, and their sum."""
    for positions in (2, 3):
        heads = (Tensor(np.zeros((2, 5, 6)), requires_grad=True),
                 Tensor(np.zeros((2, 5, positions, 7)), requires_grad=True))
        with GradientTape() as tape:
            sequence_loss(heads, np.ones((2, 5, 1 + positions), dtype=int), np.ones((2, 5)))
        assert len(tape) == 3


def test_one_teacher_forced_pass_makes_one_head_call(monkeypatch):
    cfg, samples, vocab, model, _ = micro_setup()
    calls = []
    real = Tpn2fModel.head_logits

    def spy(self, hidden):
        calls.append(hidden.shape)
        return real(self, hidden)

    monkeypatch.setattr(Tpn2fModel, "head_logits", spy)
    encoded = encode_samples(samples[:3], vocab, cfg.positions)
    teacher_forced_logits(model, encoded[0].token_ids, encoded[0].target_ids)
    minibatch_loss(model, encoded)
    steps = max(len(e.target_ids) for e in encoded)
    assert calls == [(len(encoded[0].target_ids), model.dims.d_h), (3, steps, model.dims.d_h)]


# ---------------------------------------------------------------------------
# training loop


def test_zero_learning_rate_is_fixed_point():
    cfg, samples, vocab, model, rng = micro_setup()
    cfg.learning_rate = 0.0
    encoded = encode_samples(samples, vocab, cfg.positions)
    params = [t for _, t in model.parameters()]
    before = [t.data.copy() for t in params]
    optimizer = AdamState.for_params(params, cfg.learning_rate)
    s1 = train_epoch(model, encoded, optimizer, cfg, rng, 0)
    s2 = train_epoch(model, encoded, optimizer, cfg, rng, 1)
    for t, b in zip(params, before):
        assert np.array_equal(t.data, b)
    assert s1.mean_loss == pytest.approx(s2.mean_loss, abs=1e-12)


def test_loss_decreases_on_micro_dataset():
    cfg, samples, vocab, model, rng = micro_setup(n=20)
    encoded = encode_samples(samples, vocab, cfg.positions)
    optimizer = AdamState.for_params([t for _, t in model.parameters()], cfg.learning_rate)
    losses = [train_epoch(model, encoded, optimizer, cfg, rng, e).mean_loss
              for e in range(5)]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_same_seed_identical_trajectory():
    def run():
        cfg, samples, _, model, _ = micro_setup(n=10)
        cfg.epochs = 3
        return [s.mean_loss for s in train(model, samples, cfg)]

    assert run() == run()  # bit-identical floats


_PRESET_STEP_DIGEST = """
import hashlib
import numpy as np
from tpn2f.data import build_vocabularies, preprocess_samples
from tpn2f.model import build_model
from tpn2f.synthetic import make_micro_dataset
from tpn2f.tensor import AdamState, GradientTape, adam_step, backward
from tpn2f.training import CHUNK_ROWS, encode_samples, mathqa_preset, minibatch_loss

cfg = mathqa_preset()
samples = preprocess_samples(make_micro_dataset(CHUNK_ROWS, seed=0), positions=cfg.positions)
vocab = build_vocabularies(samples)
model = build_model(cfg.variant(), cfg.dims(), vocab, np.random.default_rng(cfg.seed))
params = [t for _, t in model.parameters()]
with GradientTape():
    loss = minibatch_loss(model, encode_samples(samples, vocab, cfg.positions))
    backward(loss)
adam_step(params, AdamState.for_params(params, cfg.learning_rate))
digest = hashlib.sha256(np.float64(loss.item()).tobytes())
for p in params:
    digest.update(p.data.tobytes())
print(digest.hexdigest())
"""


def test_a_seeded_preset_step_is_bit_identical_at_one_blas_thread_count():
    """A seed reproduces a run on one machine at one BLAS thread count: one
    seeded training step at the mathqa preset dims (micro vocabulary, one
    16-row tape and one Adam step), run in two processes at 2 OpenBLAS
    threads, gives one sha256 over the loss and every parameter after it."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)}
    digests = []
    for _ in range(2):
        done = subprocess.run([sys.executable, "-c", _PRESET_STEP_DIGEST], capture_output=True,
                              text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


# ---------------------------------------------------------------------------
# lockstep minibatches


def _lockstep_setup(cfg, n=20):
    cfg.d_word = 16
    samples = preprocess_samples(make_micro_dataset(n, seed=0), positions=cfg.positions)
    vocab = build_vocabularies(samples)
    model = build_model(cfg.variant(), cfg.dims(), vocab, np.random.default_rng(3))
    encoded = encode_samples(samples, vocab, cfg.positions)
    short = [e for e in encoded if len(e.token_ids) < 6]
    long = next(e for e in encoded if len(e.token_ids) == 6 and len(e.target_ids) == 3)
    return model, short, long


def _unpadded_loss(model, group):
    """One sample's loss on the unpadded vector path greedy decoding runs."""
    (enc,) = group
    return sequence_loss(teacher_forced_logits(model, enc.token_ids, enc.target_ids),
                         enc.target_ids)


def _loss_and_grads(model, groups, loss_fn=minibatch_loss):
    """Summed loss and every parameter grad of ``groups``, one tape each."""
    total = 0.0
    for group in groups:
        with GradientTape():
            loss = loss_fn(model, group)
            backward(loss)
        total += loss.item()
    grads = [t.grad for _, t in model.parameters()]
    for _, t in model.parameters():
        t.grad = None
    return total, grads


@pytest.mark.parametrize("setting", ["tpr-tpr", "tpr-lstm", "lstm-tpr", "lstm-lstm",
                                     "last_state", "mathqa", "algolisp"])
def test_lockstep_loss_and_grads_equal_the_sum_of_single_samples(setting):
    """One lockstep tape over samples of 2, 3 and 6 tokens and 2 and 3 steps, and
    one one-row lockstep tape per sample, each give the summed loss and every
    parameter grad of the unpadded vector path run per sample, within 1e-10
    relative: the four variants and last-state pooling at micro dims, and the
    published dims at 2 (mathqa) and 3 (algolisp) argument positions."""
    if setting in ("mathqa", "algolisp"):
        cfg = mathqa_preset() if setting == "mathqa" else algolisp_preset()
    else:
        cfg = micro_config()
        if setting == "last_state":
            cfg.pooling = "last_state"
        else:
            cfg.encoder, cfg.decoder = setting.split("-")
    model, short, long = _lockstep_setup(cfg)
    batch = short[:3] + [long]
    assert len({len(e.token_ids) for e in batch}) == 3
    assert len({len(e.target_ids) for e in batch}) == 2
    singles = [[e] for e in batch]
    want_loss, want = _loss_and_grads(model, singles, _unpadded_loss)
    for groups in ([batch], singles):
        got_loss, got = _loss_and_grads(model, groups)
        assert abs(got_loss - want_loss) <= 1e-10 * want_loss, len(groups)
        for (name, _), g, w in zip(model.parameters(), got, want, strict=True):
            assert (g is None) == (w is None), name
            if w is not None:
                assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max(), (name, len(groups))


def test_padding_a_minibatch_leaves_every_rows_loss_unchanged():
    """Adding a 6-token, 3-step sample pads the other rows from 3 tokens and 2
    steps; each of their losses moves by at most 1e-12 relative."""
    model, short, long = _lockstep_setup(micro_config())
    batch = short[:5]
    assert max(len(e.token_ids) for e in batch) <= 3
    assert max(len(e.target_ids) for e in batch) == 2

    def row_losses(rows):
        targets, weights = lockstep_targets(rows)
        logits = teacher_forced_logits(model, [e.token_ids for e in rows], targets)
        one_row = np.eye(len(rows))[:, :, None]
        return [sequence_loss(logits, targets, weights * one_row[b]).item()
                for b in range(len(rows))]

    alone = row_losses(batch)
    padded = row_losses(batch + [long])
    for a, p in zip(alone, padded[:-1], strict=False):
        assert abs(a - p) <= 1e-12 * a


def test_padded_positions_and_steps_get_exactly_zero_grad():
    """Padded token positions read token id 0 and a row's first padded step
    reads its EOS tuple; no sample uses either, so their embedding rows get
    exactly zero grad from a padded minibatch."""
    model, short, long = _lockstep_setup(micro_config())
    batch = short[:5] + [long]
    eos = model.vocab.relation_id("EOS")
    assert all(0 not in e.token_ids for e in batch)
    assert all(t[0] != eos for e in batch for t in e.target_ids[:-1])
    with GradientTape():
        backward(minibatch_loss(model, batch))
    assert np.array_equal(model.encoder.embed.grad[0], np.zeros(model.dims.d_word))
    assert np.array_equal(model.decoder.rel_embed.grad[eos], np.zeros(model.dims.d_rel))


def test_each_minibatch_is_one_minibatch_loss_call(monkeypatch):
    """12 samples at batch size 10 make two calls, of 10 rows and of 2."""
    cfg, samples, vocab, model, rng = micro_setup(n=12)
    assert cfg.batch_size == 10
    sizes = []
    real = training_mod.minibatch_loss

    def spy(model, group):
        sizes.append(len(group))
        return real(model, group)

    monkeypatch.setattr(training_mod, "minibatch_loss", spy)
    encoded = encode_samples(samples, vocab, cfg.positions)
    optimizer = AdamState.for_params([t for _, t in model.parameters()], cfg.learning_rate)
    train_epoch(model, encoded, optimizer, cfg, rng)
    assert sizes == [10, 2]


def test_a_minibatch_over_chunk_rows_trains_as_length_sorted_chunks(monkeypatch):
    """A 40-sample minibatch makes three ``minibatch_loss`` calls and three
    ``backward`` calls, of 16, 16 and 8 rows sorted by token count, then one clip
    and one Adam step; a minibatch of ``CHUNK_ROWS`` rows is one chunk, as given."""
    assert CHUNK_ROWS == 16
    cfg, samples, vocab, model, rng = micro_setup(n=40)
    cfg = replace(cfg, batch_size=40)
    encoded = encode_samples(samples, vocab, cfg.positions)
    head = encoded[:CHUNK_ROWS]
    assert minibatch_chunks(head) == [head] and minibatch_chunks(head)[0] is head
    calls, lengths = [], []

    def spy(name):
        real = getattr(training_mod, name)

        def wrapper(*args):
            calls.append(name)
            if name == "minibatch_loss":
                lengths.append([len(e.token_ids) for e in args[1]])
            return real(*args)
        monkeypatch.setattr(training_mod, name, wrapper)

    for name in ("minibatch_loss", "backward", "clip_gradients", "adam_step"):
        spy(name)
    optimizer = AdamState.for_params([t for _, t in model.parameters()], cfg.learning_rate)
    train_epoch(model, encoded, optimizer, cfg, rng)
    assert calls == ["minibatch_loss", "backward"] * 3 + ["clip_gradients", "adam_step"]
    assert [len(rows) for rows in lengths] == [16, 16, 8]
    flat = [n for rows in lengths for n in rows]
    assert flat == sorted(len(e.token_ids) for e in encoded) and len(set(flat)) > 1


@pytest.mark.parametrize("setting", ["tpr-tpr", "tpr-lstm", "lstm-tpr", "lstm-lstm", "mathqa"])
def test_chunked_minibatch_loss_and_grads_equal_one_tape(setting, monkeypatch):
    """A 40-sample minibatch trained as length-sorted chunks gives the loss and
    every parameter grad of one tape over the whole minibatch, within 1e-10
    relative: the four variants at micro dims, and the published dims with
    ``d_word`` 16 (as acceptance 3 runs them)."""
    if setting == "mathqa":
        cfg = replace(mathqa_preset(), d_word=16)
    else:
        cfg = micro_config()
        cfg.encoder, cfg.decoder = setting.split("-")
    cfg = replace(cfg, batch_size=40, grad_clip=None)
    samples = preprocess_samples(make_micro_dataset(40, seed=0), positions=cfg.positions)
    vocab = build_vocabularies(samples)
    model = build_model(cfg.variant(), cfg.dims(), vocab, np.random.default_rng(1))
    encoded = encode_samples(samples, vocab, cfg.positions)
    params = [t for _, t in model.parameters()]
    with GradientTape():
        loss = minibatch_loss(model, encoded)
        backward(scale(loss, 1.0 / len(encoded)))
    want = [np.zeros(p.shape) if p.grad is None else p.grad for p in params]
    for p in params:
        p.grad = None
    got = []
    monkeypatch.setattr(training_mod, "adam_step",
                        lambda ps, opt: got.extend(p.grad for p in ps))
    monkeypatch.setattr(training_mod, "operation_accuracy", lambda *args: 0.0)
    stats = train_epoch(model, encoded, AdamState.for_params(params, 1e-3), cfg,
                        np.random.default_rng(0))
    assert abs(stats.mean_loss * len(encoded) - loss.item()) <= 1e-10 * loss.item()
    for (name, _), g, w in zip(model.parameters(), got, want, strict=True):
        assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max(), name


def test_a_non_finite_minibatch_loss_is_named_before_its_optimizer_step(monkeypatch):
    """At a learning rate of 1e300 the first step leaves weights that overflow, so
    the second minibatch's loss is not finite: train_epoch names the epoch and that
    minibatch's samples and makes no second Adam step, and numpy warns of nothing."""
    cfg, samples, vocab, model, rng = micro_setup(n=12)
    cfg = replace(cfg, learning_rate=1e300, batch_size=4)
    steps = []
    real_adam_step = training_mod.adam_step

    def counting(params, optimizer):
        steps.append(optimizer.step_count)
        real_adam_step(params, optimizer)

    monkeypatch.setattr(training_mod, "adam_step", counting)
    encoded = encode_samples(samples, vocab, cfg.positions)
    optimizer = AdamState.for_params([t for _, t in model.parameters()], cfg.learning_rate)
    with warnings.catch_warnings(), pytest.raises(
            FloatingPointError, match=r"^epoch 7: loss (nan|inf) on the minibatch of samples "
                                      r"micro-\d+, micro-\d+, micro-\d+, micro-\d+$"):
        warnings.simplefilter("error")
        train_epoch(model, encoded, optimizer, cfg, rng, epoch=7)
    assert steps == [0]


@pytest.mark.parametrize("value, grad_clip", [(np.nan, None), (np.inf, None), (np.nan, 1.0),
                                              (np.inf, 1.0)])
def test_a_non_finite_grad_is_named_before_its_optimizer_step(monkeypatch, value, grad_clip):
    """A non-finite value put into one grad after ``backward`` makes the global grad
    norm non-finite: train_epoch names the epoch and the minibatch's samples before
    any Adam step, so every parameter and moment is left as it was."""
    cfg, samples, vocab, model, rng = micro_setup(n=8)
    cfg = replace(cfg, batch_size=4, grad_clip=grad_clip)
    params = [t for _, t in model.parameters()]
    real_backward = training_mod.backward

    def poisoned(loss):
        real_backward(loss)
        dict(model.parameters())["decoder.lstm.w"].grad.flat[5] = value

    monkeypatch.setattr(training_mod, "backward", poisoned)
    optimizer = AdamState.for_params(params, cfg.learning_rate)
    before = [p.data.copy() for p in params]
    with warnings.catch_warnings(), pytest.raises(
            FloatingPointError, match=r"^epoch 2: grad norm (nan|inf) on the minibatch of "
                                      r"samples micro-\d+, micro-\d+, micro-\d+, micro-\d+$"):
        warnings.simplefilter("error")
        train_epoch(model, encode_samples(samples, vocab, cfg.positions), optimizer, cfg, rng,
                    epoch=2)
    assert optimizer.step_count == 0
    assert all(p.data.tobytes() == b.tobytes() for p, b in zip(params, before))
    assert not (optimizer.m.any() or optimizer.v.any())


def test_loss_finite_over_random_initializations_at_published_dims():
    """Forward losses stay finite across 100 fresh initializations."""
    cfg = mathqa_preset()
    cfg.d_word = 16
    samples = preprocess_samples(make_micro_dataset(2, seed=0), positions=2)
    vocab = build_vocabularies(samples)
    encoded = encode_samples(samples, vocab, 2)
    for seed in range(100):
        model = build_model(cfg.variant(), cfg.dims(), vocab, np.random.default_rng(seed))
        for enc in encoded:
            loss = sequence_loss(
                teacher_forced_logits(model, enc.token_ids, enc.target_ids),
                enc.target_ids)
            assert np.isfinite(loss.item()), f"seed {seed}"


# ---------------------------------------------------------------------------
# greedy decoding


class _RiggedDecoder:
    """Model stub whose relation head is scripted per step."""

    def __init__(self, vocab, positions, rel_scripts):
        self.vocab = vocab
        self.dims = ModelDims(positions=positions)
        self.rel_scripts = rel_scripts
        self.step = 0

    def encode(self, token_ids):
        return Tensor(np.zeros(3)), Tensor(np.zeros((1, 3)))

    def initial_decoder_state(self, pooled):
        return Tensor(np.zeros(2)), Tensor(np.zeros(2))

    def project_contexts(self, memory):
        return Tensor(np.zeros((1, 2)))

    def decode_step(self, prev_ids, hidden, cell, projected):
        return hidden, cell

    def head_logits(self, hidden):
        rel = np.zeros(self.vocab.n_relations)
        rel[self.rel_scripts[min(self.step, len(self.rel_scripts) - 1)]] = 10.0
        self.step += 1
        args = Tensor(np.zeros((self.dims.positions, self.vocab.n_arguments)))
        return Tensor(rel), args, None


def test_grad_clip_bounds_the_norm_adam_sees(monkeypatch):
    cfg, samples, _, model, _ = micro_setup(n=8)
    cfg = replace(cfg, epochs=1, batch_size=4, grad_clip=1e-3)
    norms = []
    real_adam_step = training_mod.adam_step

    def capture(params, optimizer):
        norms.append(math.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
        real_adam_step(params, optimizer)

    monkeypatch.setattr(training_mod, "adam_step", capture)
    train(model, samples, cfg)
    assert len(norms) == 2
    # Unclipped micro grads are far above 1e-3, so each step was scaled to it.
    assert all(n <= 1e-3 * (1 + 1e-12) for n in norms)
    assert all(n >= 1e-3 * (1 - 1e-12) for n in norms)


@pytest.mark.parametrize("patience, losses, expected_epochs", [
    # Epoch 3 improves and resets the count; epochs 4-6 are stale, and the
    # third stale epoch exceeds a patience of 2.
    (2, [3.0, 2.0, 2.0, 1.5, 1.5, 1.6, 1.5, 1.0, 0.5], 7),
    (0, [3.0, 2.0, 2.0, 1.0, 0.5], 3),
    (None, [3.0, 3.0, 3.0, 3.0], 4),
])
def test_patience_stops_after_that_many_stale_epochs_plus_one(monkeypatch, patience, losses,
                                                             expected_epochs):
    cfg, samples, _, model, _ = micro_setup(n=8)
    cfg = replace(cfg, epochs=len(losses), patience=patience)
    scripted = iter(losses)

    def fake_epoch(model, encoded, optimizer, config, rng, epoch=0):
        return EpochStats(epoch=epoch, mean_loss=next(scripted), op_acc=0.0, wallclock=0.0)

    monkeypatch.setattr(training_mod, "train_epoch", fake_epoch)
    history = train(model, samples, cfg)
    assert [s.mean_loss for s in history] == losses[:expected_epochs]


def test_greedy_stops_immediately_on_eos():
    cfg, samples, vocab, model, _ = micro_setup()
    rigged = _RiggedDecoder(vocab, 2, [vocab.relation_id("EOS")])
    assert greedy_decode(rigged, [0], max_len=10) == []


def test_greedy_caps_at_max_len():
    cfg, samples, vocab, model, _ = micro_setup()
    add_id = vocab.relation_id("add")
    rigged = _RiggedDecoder(vocab, 2, [add_id])
    out = greedy_decode(rigged, [0], max_len=3)
    assert len(out) == 3
    assert all(t.relation == "add" for t in out)


def test_greedy_argmax_shift_invariance():
    cfg, samples, vocab, model, _ = micro_setup()

    class Shifted:
        def __init__(self, inner, delta):
            self.inner, self.delta = inner, delta
            self.vocab, self.dims = inner.vocab, inner.dims

        def encode(self, ids):
            return self.inner.encode(ids)

        def initial_decoder_state(self, pooled):
            return self.inner.initial_decoder_state(pooled)

        def project_contexts(self, memory):
            return self.inner.project_contexts(memory)

        def decode_step(self, prev, h, c, proj):
            return self.inner.decode_step(prev, h, c, proj)

        def head_logits(self, hidden):
            rel, args, r = self.inner.head_logits(hidden)
            return Tensor(rel.data + self.delta), Tensor(args.data + self.delta), r

    enc = encode_sample(samples[3], vocab, cfg.positions)
    base = greedy_decode(model, enc.token_ids, 4)
    shifted = greedy_decode(Shifted(model, 7.5), enc.token_ids, 4)
    assert base == shifted


def test_greedy_relation_vectors_are_each_steps_own_unbinding_vector():
    """Each emitted step keeps its own array, equal to the relation unbinding
    vector its head gave: a later step writes into none of them."""
    cfg, samples, vocab, model, _ = micro_setup()
    eos = vocab.relation_id("EOS")
    heads = []

    class NoEos:   # the model's own steps, with EOS never the argmax
        def __init__(self, inner):
            self.vocab, self.dims = inner.vocab, inner.dims
            self.encode, self.initial_decoder_state = inner.encode, inner.initial_decoder_state
            self.project_contexts, self.decode_step = inner.project_contexts, inner.decode_step
            self.inner = inner

        def head_logits(self, hidden):
            rel, args, r = self.inner.head_logits(hidden)
            heads.append(r.data.copy())
            rel.data[eos] = -np.inf
            return rel, args, r

    ids = vocab.encode_text(samples[0].text)
    tuples, vectors = greedy_decode_with_vectors(NoEos(model), ids, 3)
    assert len(tuples) == len(vectors) == len(heads) == 3
    assert not any(np.shares_memory(a, b) for k, a in enumerate(vectors) for b in vectors[k + 1:])
    assert all(np.array_equal(v, h) for v, h in zip(vectors, heads))


def test_greedy_rejects_bad_max_len():
    cfg, samples, vocab, model, _ = micro_setup()
    with pytest.raises(ValueError):
        greedy_decode(model, [0], max_len=0)


def test_capped_eval_decodes_give_the_uncapped_operation_accuracy():
    """The reference is each sample's full ``max_len`` decode compared with gold.
    The micro golds are 1 or 2 tuples long, so ``max_len`` 1 to 4 and 30 cover
    gold longer than, as long as and shorter than the cap; untrained models
    decode past gold, and trained ones hit it."""
    hits = overruns = 0
    for setting in ("tpr-tpr", "tpr-lstm", "lstm-tpr", "lstm-lstm"):
        cfg = micro_config()
        cfg.encoder, cfg.decoder = setting.split("-")
        samples = preprocess_samples(make_micro_dataset(20, seed=0), positions=cfg.positions)
        vocab = build_vocabularies(samples)
        model = build_model(cfg.variant(), cfg.dims(), vocab, np.random.default_rng(0))
        encoded = encode_samples(samples, vocab, cfg.positions)
        optimizer = AdamState.for_params([t for _, t in model.parameters()], cfg.learning_rate)
        rng = np.random.default_rng(0)
        for epochs in (0, 10, 30):   # epochs trained before each stage's check
            for epoch in range(epochs):
                train_epoch(model, encoded, optimizer, cfg, rng, epoch)
            for max_len in (1, 2, 3, 4, 30):
                full = [greedy_decode(model, enc.token_ids, max_len) for enc in encoded]
                matches = [out == enc.gold for out, enc in zip(full, encoded)]
                assert operation_accuracy(model, encoded, max_len) == sum(matches) / len(encoded)
                hits += sum(matches)
                overruns += sum(len(out) > len(enc.gold) for out, enc in zip(full, encoded))
    assert hits > 0 and overruns > 0


@pytest.mark.parametrize("script, hit", [(["add", "EOS"], True), (["add", "add", "EOS"], False),
                                         (["add"], False)])
def test_a_decode_that_equals_gold_only_up_to_its_length_is_a_miss(script, hit):
    """Gold is one tuple, the decode's first: the sample is a hit only if the
    decode's next step emits EOS, which the cap of len(gold) + 1 steps reaches."""
    cfg, samples, vocab, _, _ = micro_setup()
    arg = vocab.arguments[0]   # the rigged argument heads always pick id 0
    rigged = _RiggedDecoder(vocab, cfg.positions, [vocab.relation_id(r) for r in script])
    enc = training_mod.EncodedSample("s", [0], [], [T("add", *[arg] * cfg.positions)])
    assert operation_accuracy(rigged, [enc], 30) == float(hit)


def test_operation_accuracy_makes_one_capped_greedy_decode_call_per_sample(monkeypatch):
    """perfbench times and traces ``training.greedy_decode(model, ids, max_len)``
    inside ``operation_accuracy``, one call per sample, looked up on the module."""
    cfg, samples, vocab, model, _ = micro_setup(n=12)
    encoded = encode_samples(samples, vocab, cfg.positions)
    calls = []
    decode = training_mod.greedy_decode

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return decode(*args, **kwargs)

    monkeypatch.setattr(training_mod, "greedy_decode", counting)
    operation_accuracy(model, encoded, 30)
    assert len(calls) == len(encoded)
    for (args, kwargs), enc in zip(calls, encoded):
        assert kwargs == {} and len(args) == 3
        assert args[0] is model and args[1] is enc.token_ids
        assert args[2] == len(enc.gold) + 1 <= 30


# ---------------------------------------------------------------------------
# checkpoints


def _trained_bundle(tmp_path, epochs=1):
    cfg, samples, vocab, model, _ = micro_setup(n=8)
    cfg.epochs = epochs
    train(model, samples, cfg, checkpoint_path=tmp_path / "m.ckpt")
    return cfg, samples, vocab, model


def test_checkpoint_round_trip_restores_decodes(tmp_path):
    cfg, samples, vocab, model = _trained_bundle(tmp_path)
    ckpt = load_checkpoint(tmp_path / "m.ckpt")
    restored, optimizer = ckpt.build()
    assert optimizer.step_count > 0
    for s in samples[:10]:
        ids = vocab.encode_text(s.text)
        assert greedy_decode(model, ids, 4) == greedy_decode(restored, ids, 4)
    for (na, ta), (nb, tb) in zip(model.parameters(), restored.parameters()):
        assert na == nb and np.array_equal(ta.data, tb.data)


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    cfg, samples, vocab, model = _trained_bundle(tmp_path)
    first = (tmp_path / "m.ckpt").read_bytes()
    ckpt = load_checkpoint(tmp_path / "m.ckpt")
    restored, optimizer = ckpt.build()
    save_checkpoint(tmp_path / "again.ckpt", restored, optimizer, ckpt.config,
                    rng_state=ckpt.rng_state, epoch=ckpt.epoch)
    assert (tmp_path / "again.ckpt").read_bytes() == first


def test_one_train_step_leaves_the_textbook_moments_packed_in_parameter_order(monkeypatch):
    """``AdamState.for_params`` gives two arrays of an entry per parameter
    element; after one ``train`` step they hold each parameter's textbook
    moments from zero, concatenated in parameter order, bit for bit."""
    made, grads = [], []
    real_for_params, real_adam_step = AdamState.for_params, training_mod.adam_step
    monkeypatch.setattr(AdamState, "for_params",
                        lambda *a: made.append(real_for_params(*a)) or made[-1])

    def recording_step(params, state):
        grads.extend(p.grad.copy() for p in params)
        real_adam_step(params, state)

    monkeypatch.setattr(training_mod, "adam_step", recording_step)
    cfg, samples, _, model, _ = micro_setup(n=8)
    cfg.epochs, cfg.batch_size = 1, 8
    train(model, samples, cfg)
    (optimizer,) = made
    params = [t for _, t in model.parameters()]
    assert optimizer.step_count == 1 and len(grads) == len(params)
    n = sum(p.size for p in params)
    assert optimizer.m.shape == optimizer.v.shape == (n,)
    b1, b2 = optimizer.beta1, optimizer.beta2
    m = [b1 * np.zeros(g.shape) + (1.0 - b1) * g for g in grads]
    v = [b2 * np.zeros(g.shape) + (1.0 - b2) * g * g for g in grads]
    assert optimizer.m.tobytes() == b"".join(a.tobytes() for a in m)
    assert optimizer.v.tobytes() == b"".join(a.tobytes() for a in v)
    assert optimizer.m.any() and optimizer.v.any()


def test_trained_checkpoint_lists_each_parameter_once_and_packs_weights_then_moments(
        tmp_path, monkeypatch):
    """A seeded micro ``train`` writes one name/shape entry per parameter, 19 for
    a TPR model, then every weight, every first and every second moment, packed;
    ``build`` gives back the trained weights and moments bit for bit."""
    made = []
    real_for_params = AdamState.for_params
    monkeypatch.setattr(AdamState, "for_params",
                        lambda *a: made.append(real_for_params(*a)) or made[-1])
    cfg, samples, vocab, model = _trained_bundle(tmp_path, epochs=2)
    (optimizer,) = made
    assert optimizer.step_count == 2   # two epochs of one minibatch of 8
    raw = (tmp_path / "m.ckpt").read_bytes()
    head_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + head_len])
    assert header["version"] == CHECKPOINT_VERSION == 7
    named = model.parameters()
    assert header["tensors"] == [{"name": n, "shape": list(t.shape)} for n, t in named]
    assert len(header["tensors"]) == 19
    trained = _built_arrays(model, optimizer)
    assert raw[16 + head_len:-4] == b"".join(a.astype("<f8").tobytes() for a in trained)
    restored, restored_opt = load_checkpoint(tmp_path / "m.ckpt").build()
    assert restored_opt.step_count == optimizer.step_count
    for a, b in zip(trained, _built_arrays(restored, restored_opt), strict=True):
        assert a.tobytes() == b.tobytes()


def test_truncated_checkpoint_is_corrupt(tmp_path):
    cfg, samples, vocab, model = _trained_bundle(tmp_path)
    raw = (tmp_path / "m.ckpt").read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(raw[:-20])
    with pytest.raises(CheckpointError, match="checksum|truncated"):
        load_checkpoint(tmp_path / "cut.ckpt")


def test_version_mismatch_is_explicit(tmp_path):
    cfg, samples, vocab, model = _trained_bundle(tmp_path)
    raw = (tmp_path / "m.ckpt").read_bytes()
    version = f'"version":{CHECKPOINT_VERSION}'.encode()
    body = raw[:-4].replace(version, b'"version":9', 1)
    (tmp_path / "v9.ckpt").write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(tmp_path / "v9.ckpt")


def _reseal(raw: bytes, edit) -> bytes:
    """Apply ``edit`` to a checkpoint's JSON header and recompute its CRC."""
    head_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + head_len])
    edit(header)
    head = json.dumps(header).encode("utf-8")
    body = raw[:8] + len(head).to_bytes(8, "little") + head + raw[16 + head_len:-4]
    return body + zlib.crc32(body).to_bytes(4, "little")


def _set_first(field, value):
    def edit(header):
        header["tensors"][0][field] = value
    return edit


_MISCOUNTED = r"table's weights and Adam moments take \d+ bytes, but the file holds \d+ bytes"
_NOT_NAME_AND_SHAPE = "must hold just a name and a shape"


def _drop_last_entry(header):
    header["tensors"].pop()


def _add_entry(header):
    header["tensors"].append({"name": "extra", "shape": [3]})


@pytest.mark.parametrize("edit, message", [
    (_set_first("offset", 0), _NOT_NAME_AND_SHAPE),
    (_set_first("shape", [10**6, 10**6]), _MISCOUNTED),
    (_set_first("shape", [-8]), "non-negative"),
    (_set_first("shape", [2.5]), "non-negative"),
    (lambda h: h["tensors"][0].pop("shape"), _NOT_NAME_AND_SHAPE),
    (lambda h: h["adam"].pop("beta1"), "optimizer state"),
    (lambda h: h.pop("vocab"), "lacks vocab"),
    (_drop_last_entry, _MISCOUNTED),
    (_add_entry, _MISCOUNTED),
    (_set_first("name", "unknown"),
     r"entry 0 is \('unknown', \(12, 16\)\), the model .* expects \('encoder.embed', \(12, 16\)\)"),
    (lambda h: h["tensors"][0]["shape"].reverse(),
     r"entry 0 is \('encoder.embed', \(16, 12\)\), the model .* expects "
     r"\('encoder.embed', \(12, 16\)\)"),
], ids=["offset", "shape", "negative", "float", "no-shape", "adam-field", "no-vocab",
        "dropped-entry", "extra-entry", "renamed-entry", "transposed-shape"])
def test_bad_header_with_valid_crc_is_checkpoint_error(tmp_path, edit, message):
    _trained_bundle(tmp_path)
    (tmp_path / "bad.ckpt").write_bytes(_reseal((tmp_path / "m.ckpt").read_bytes(), edit))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(tmp_path / "bad.ckpt").build()


def _retabled(raw: bytes, edit) -> bytes:
    """A checkpoint whose table and blocks ``edit`` changed, its CRC resealed:
    ``edit`` maps the list of each entry and its ``(weight, m, v)`` arrays to a
    new one, whose arrays are then packed block by block in its order."""
    head_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + head_len])
    shapes = [tuple(entry["shape"]) for entry in header["tensors"]]
    blocks = np.frombuffer(raw[16 + head_len:-4], dtype="<f8").reshape(3, -1)
    pairs = edit(list(zip(header["tensors"],
                          zip(*(_per_parameter(block, shapes) for block in blocks)))))
    header["tensors"] = [entry for entry, _ in pairs]
    head = json.dumps(header).encode("utf-8")
    data = b"".join(arrays[k].astype("<f8").tobytes() for k in range(3) for _, arrays in pairs)
    body = raw[:8] + len(head).to_bytes(8, "little") + head + data
    return body + zlib.crc32(body).to_bytes(4, "little")


@pytest.mark.parametrize("edit, message", [
    (lambda pairs: pairs + [({"name": "extra", "shape": [3]}, (np.ones(3),) * 3)],
     "entry 19 is ('extra', (3,)), the model of the checkpoint's config"),
    (lambda pairs: [pairs[1], pairs[0], *pairs[2:]],
     "entry 0 is ('encoder.lstm.w', (640, 96)), the model of the checkpoint's config"),
    (lambda pairs: pairs + [({"name": "z", "shape": [0, 10**30]}, (np.zeros(0),) * 3)],
     f"entry 19 is ('z', (0, {10**30})), the model of the checkpoint's config"),
], ids=["extra-entry-with-its-bytes", "swapped-entries-and-bytes", "zero-size-huge-shape"])
def test_off_spec_table_makes_infer_exit_1_naming_the_entry(tmp_path, capsys, edit, message):
    """The table must list the model's parameters in order: an entry the model
    lacks, a reordered table or a shape numpy cannot allocate, each with bytes
    that match the table, names the first entry that differs."""
    cfg, samples, vocab, model = _trained_bundle(tmp_path)
    (tmp_path / "bad.ckpt").write_bytes(_retabled((tmp_path / "m.ckpt").read_bytes(), edit))
    with pytest.raises(CheckpointError) as raised:
        load_checkpoint(tmp_path / "bad.ckpt").build_model()
    assert message in str(raised.value)
    save_dataset(tmp_path / "data.jsonl", samples)
    assert dispatch(["infer", "--checkpoint", str(tmp_path / "bad.ckpt"),
                     "--data", str(tmp_path / "data.jsonl"),
                     "--out", str(tmp_path / "pred.jsonl")]) == 1
    assert message in capsys.readouterr().err


def test_a_table_rewritten_unchanged_builds_the_same_model(tmp_path):
    _trained_bundle(tmp_path)
    raw = (tmp_path / "m.ckpt").read_bytes()
    (tmp_path / "same.ckpt").write_bytes(_retabled(raw, lambda pairs: pairs))
    model, optimizer = load_checkpoint(tmp_path / "m.ckpt").build()
    same, same_opt = load_checkpoint(tmp_path / "same.ckpt").build()
    assert [n for n, _ in model.parameters()] == [n for n, _ in same.parameters()]
    for a, b in zip(_built_arrays(model, optimizer), _built_arrays(same, same_opt), strict=True):
        assert a.tobytes() == b.tobytes()


def _set_header(key, value):
    def edit(header):
        owner, _, field = key.rpartition(".")
        (header[owner] if owner else header)[field] = value
    return edit


@pytest.mark.parametrize("key, value", [
    ("adam.step_count", "x"), ("adam.step_count", -1), ("adam.step_count", 2.0),
    ("adam.step_count", True), ("adam.learning_rate", None), ("adam.learning_rate", True),
    ("adam.beta1", "0.9"), ("adam.beta2", float("inf")), ("adam.epsilon", float("nan")),
    ("rng_state", [1]), ("rng_state", None), ("epoch", -3), ("epoch", 1.5), ("epoch", "2"),
])
def test_header_optimizer_rng_and_epoch_values_are_type_checked(tmp_path, key, value):
    _trained_bundle(tmp_path)
    (tmp_path / "bad.ckpt").write_bytes(
        _reseal((tmp_path / "m.ckpt").read_bytes(), _set_header(key, value)))
    with pytest.raises(CheckpointError, match=f"checkpoint {key} must be"):
        load_checkpoint(tmp_path / "bad.ckpt")


@pytest.mark.parametrize("key", ["adam.learning_rate", "config.learning_rate"])
def test_header_integer_beyond_the_float_range_is_named_and_infer_exits_1(tmp_path, capsys, key):
    """A 401-digit integer is not a finite number: float() of it overflows."""
    cfg, samples, vocab, model = _trained_bundle(tmp_path)
    (tmp_path / "bad.ckpt").write_bytes(
        _reseal((tmp_path / "m.ckpt").read_bytes(), _set_header(key, 10**400)))
    with pytest.raises((CheckpointError, ConfigError), match="learning_rate must be a finite"):
        load_checkpoint(tmp_path / "bad.ckpt")
    save_dataset(tmp_path / "data.jsonl", samples)
    assert dispatch(["infer", "--checkpoint", str(tmp_path / "bad.ckpt"),
                     "--data", str(tmp_path / "data.jsonl"),
                     "--out", str(tmp_path / "pred.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "learning_rate must be a finite number" in err


def test_header_integer_too_long_to_read_is_an_unreadable_header(tmp_path):
    """Python reads no JSON integer of more than 4,300 digits."""
    _trained_bundle(tmp_path)
    raw = _reseal((tmp_path / "m.ckpt").read_bytes(), _set_header("epoch", "digits"))
    head_len = int.from_bytes(raw[8:16], "little")
    head = raw[16:16 + head_len].replace(b'"digits"', b"9" * 5000)
    body = raw[:8] + len(head).to_bytes(8, "little") + head + raw[16 + head_len:-4]
    (tmp_path / "bad.ckpt").write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    with pytest.raises(CheckpointError, match="unreadable checkpoint header"):
        load_checkpoint(tmp_path / "bad.ckpt")


def test_header_with_all_four_bad_values_makes_infer_exit_1(tmp_path, capsys):
    cfg, samples, vocab, model = _trained_bundle(tmp_path)

    def edit(header):
        header["adam"].update(step_count="x", learning_rate=None)
        header.update(epoch=-3, rng_state=[1])

    (tmp_path / "bad.ckpt").write_bytes(_reseal((tmp_path / "m.ckpt").read_bytes(), edit))
    save_dataset(tmp_path / "data.jsonl", samples)
    assert dispatch(["infer", "--checkpoint", str(tmp_path / "bad.ckpt"),
                     "--data", str(tmp_path / "data.jsonl"),
                     "--out", str(tmp_path / "pred.jsonl")]) == 1
    assert "adam.step_count must be a count" in capsys.readouterr().err


def test_not_a_checkpoint(tmp_path):
    bad = b"hello world, definitely not a checkpoint"
    (tmp_path / "junk.ckpt").write_bytes(bad + zlib.crc32(bad).to_bytes(4, "little"))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(tmp_path / "junk.ckpt")


def test_checkpoint_atomic_write_leaves_no_temp(tmp_path):
    cfg, samples, vocab, model = _trained_bundle(tmp_path)
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def _joined_checkpoint_bytes(model, optimizer, config, rng_state=None, epoch=0,
                             version=CHECKPOINT_VERSION) -> bytes:
    """The file the earlier writer produced: every tensor's bytes joined into
    one body before a single write (kept here as the reference format).

    From version 6 the table holds one name and shape per parameter, and the
    body is every weight, then every first and every second Adam moment.
    Version 6 gave each argument position its own unbinding vector or head.
    Versions 1-5 gave every weight and every moment (``adam.m.``/``adam.v.``
    and the parameter's name) an entry with its byte offset, moments after
    the weights, each parameter's ``m`` then ``v``."""
    named = model.parameters()
    if version >= 6:
        table = [{"name": n, "shape": list(t.shape)} for n, t in named]
        arrays = [t.data for _, t in named] + [optimizer.m, optimizer.v]
    else:
        entries = [(n, t.data) for n, t in named]
        shapes = [t.shape for _, t in named]
        for (name, _), m, v in zip(named, _per_parameter(optimizer.m, shapes),
                                   _per_parameter(optimizer.v, shapes)):
            entries += [(f"adam.m.{name}", m), (f"adam.v.{name}", v)]
        offsets = np.cumsum([0] + [8 * arr.size for _, arr in entries])
        table = [{"name": n, "shape": list(arr.shape), "offset": int(offset)}
                 for (n, arr), offset in zip(entries, offsets)]
        arrays = [arr for _, arr in entries]
    blobs = [np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in arrays]
    header = {
        "version": version,
        "config": config.to_dict(),
        "vocab": model.vocab.to_dict(),
        "tensors": table,
        "adam": {k: getattr(optimizer, k)
                 for k in ("step_count", "learning_rate", "beta1", "beta2", "epsilon")},
        "rng_state": rng_state if rng_state is not None else {},
        "epoch": epoch,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"TPN2FCK1" + len(head).to_bytes(8, "little") + head + b"".join(blobs)
    return body + zlib.crc32(body).to_bytes(4, "little")


def _per_parameter(block: np.ndarray, shapes) -> list[np.ndarray]:
    """A packed block cut into one view of each shape, in order."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [block[end - math.prod(shape):end].reshape(shape) for shape, end in zip(shapes, ends)]


def _version4_parameters(model) -> list[tuple[str, Tensor]]:
    """The parameters under version 4's names, in its order: the encoder's stacked
    cell as ``encoder.filler_lstm`` and ``encoder.role_lstm``, each made of its
    rows of every gate block."""
    cell = model.encoder.lstm
    h, r = cell.hidden, cell.recurrent
    named = []
    for name, t in model.parameters():
        if name == "encoder.lstm.w":
            for j, old in enumerate(("filler_lstm", "role_lstm")):
                rows = np.concatenate([np.arange(k * h + j * r, k * h + (j + 1) * r)
                                       for k in range(4)])
                named += [(f"encoder.{old}.w", Tensor(cell.w.data[rows])),
                          (f"encoder.{old}.b", Tensor(cell.b.data[rows]))]
        elif name != "encoder.lstm.b":
            named.append((name, t))
    return named


def _version1_checkpoint_bytes(model, config) -> bytes:
    """A version-1 file: 12 per-gate tensors ``u_*``, ``v_*``, ``b_*`` per LSTM cell."""
    named, v4 = [], dict(_version4_parameters(model))
    for name, t in v4.items():
        prefix, _, leaf = name.rpartition(".")
        if not prefix.endswith("lstm"):
            named.append((name, t))
        elif leaf == "w":
            cell = LstmParams(t, v4[f"{prefix}.b"])
            named += [(f"{prefix}.{kind}_{gate}", Tensor(getattr(cell, f"{kind}_{gate}")))
                      for gate in "fgio" for kind in "uvb"]
    old = types.SimpleNamespace(parameters=lambda: named, vocab=model.vocab)
    optimizer = AdamState.for_params([t for _, t in named], config.learning_rate)
    return _joined_checkpoint_bytes(old, optimizer, config, version=1)


def _assert_rejected_naming_version(tmp_path, capsys, samples, raw, version):
    """``raw`` fails to load with a ``CheckpointError`` naming ``version``, and
    ``infer`` on it exits 1 naming it too."""
    (tmp_path / "old.ckpt").write_bytes(raw)
    with pytest.raises(CheckpointError, match=f"version {version}"):
        load_checkpoint(tmp_path / "old.ckpt")
    save_dataset(tmp_path / "data.jsonl", samples)
    assert dispatch(["infer", "--checkpoint", str(tmp_path / "old.ckpt"),
                     "--data", str(tmp_path / "data.jsonl"),
                     "--out", str(tmp_path / "pred.jsonl")]) == 1
    assert f"version {version}" in capsys.readouterr().err


def test_version1_checkpoint_is_rejected_naming_its_version(tmp_path, capsys):
    cfg, samples, _, model, _ = micro_setup(n=8)
    raw = _version1_checkpoint_bytes(model, cfg)
    assert b'"encoder.filler_lstm.u_f"' in raw and b'"decoder.lstm.b_o"' in raw
    _assert_rejected_naming_version(tmp_path, capsys, samples, raw, 1)


def test_version2_checkpoint_is_rejected_naming_its_version(tmp_path, capsys):
    cfg, samples, _, model, _ = micro_setup(n=8)
    optimizer = AdamState.for_params([t for _, t in model.parameters()], cfg.learning_rate)
    # Version-2 headers carried two more config keys.
    old_config = types.SimpleNamespace(
        to_dict=lambda: {**cfg.to_dict(), "attn_tanh": True, "rel_decode_linear": False})
    raw = _joined_checkpoint_bytes(model, optimizer, old_config, version=2)
    _assert_rejected_naming_version(tmp_path, capsys, samples, raw, 2)


def test_version3_checkpoint_is_rejected_naming_its_version(tmp_path, capsys):
    cfg, samples, _, model, _ = micro_setup(n=8)
    # Version-3 files named the reasoning tensors reasoning.w<k> and reasoning.b<k>.
    old_names = {"reasoning.weights.0": "reasoning.w0", "reasoning.biases.0": "reasoning.b0"}
    named = [(old_names.get(n, n), t) for n, t in model.parameters()]
    old = types.SimpleNamespace(parameters=lambda: named, vocab=model.vocab)
    optimizer = AdamState.for_params([t for _, t in named], cfg.learning_rate)
    raw = _joined_checkpoint_bytes(old, optimizer, cfg, version=3)
    assert b'"reasoning.w0"' in raw and b'"reasoning.weights.0"' not in raw
    _assert_rejected_naming_version(tmp_path, capsys, samples, raw, 3)


def test_version4_checkpoint_is_rejected_naming_its_version(tmp_path, capsys):
    cfg, samples, _, model, _ = micro_setup(n=8)
    named = _version4_parameters(model)
    old = types.SimpleNamespace(parameters=lambda: named, vocab=model.vocab)
    optimizer = AdamState.for_params([t for _, t in named], cfg.learning_rate)
    raw = _joined_checkpoint_bytes(old, optimizer, cfg, version=4)
    assert b'"encoder.filler_lstm.w"' in raw and b'"encoder.lstm.w"' not in raw
    _assert_rejected_naming_version(tmp_path, capsys, samples, raw, 4)


def test_version5_checkpoint_is_rejected_naming_its_version(tmp_path, capsys):
    """Version 5 had today's names, but gave each Adam moment its own table
    entry and every tensor a byte offset."""
    cfg, samples, _, model, _ = micro_setup(n=8)
    optimizer = AdamState.for_params([t for _, t in model.parameters()], cfg.learning_rate)
    raw = _joined_checkpoint_bytes(model, optimizer, cfg, version=5)
    assert b'"adam.m.encoder.lstm.w"' in raw and b'"offset":' in raw
    _assert_rejected_naming_version(tmp_path, capsys, samples, raw, 5)


def _version6_parameters(model) -> list[tuple[str, Tensor]]:
    """The parameters under version 6's names: one tensor per argument position,
    ``decoder.pos_unbind.k`` for row k of ``pos_unbind`` and ``decoder.arg_heads.k``
    for row block k of ``arg_head``."""
    named = []
    for name, t in model.parameters():
        if name == "decoder.pos_unbind":
            named += [(f"{name}.{k}", Tensor(row)) for k, row in enumerate(t.data)]
        elif name == "decoder.arg_head":
            blocks = np.split(t.data, model.dims.positions)
            named += [(f"decoder.arg_heads.{k}", Tensor(b)) for k, b in enumerate(blocks)]
        else:
            named.append((name, t))
    return named


@pytest.mark.parametrize("decoder", ["tpr", "lstm"])
def test_version6_checkpoint_is_rejected_naming_its_version(tmp_path, capsys, decoder):
    """Version 6 had today's layout, but one tensor per argument position."""
    cfg, samples, _, model, _ = micro_setup(n=8, cfg=replace(micro_config(), decoder=decoder))
    named = _version6_parameters(model)
    assert len(named) == len(model.parameters()) + 1
    old = types.SimpleNamespace(parameters=lambda: named, vocab=model.vocab)
    optimizer = AdamState.for_params([t for _, t in named], cfg.learning_rate)
    raw = _joined_checkpoint_bytes(old, optimizer, cfg, version=6)
    assert (b'"decoder.pos_unbind.1"' if decoder == "tpr" else b'"decoder.arg_heads.1"') in raw
    _assert_rejected_naming_version(tmp_path, capsys, samples, raw, 6)


def _header_with(model, cfg, config=None, vocab=None) -> bytes:
    """A checkpoint whose header holds ``config`` and ``vocab`` in place of the model's."""
    optimizer = AdamState.for_params([t for _, t in model.parameters()], cfg.learning_rate)
    vocab = model.vocab.to_dict() if vocab is None else vocab
    fake = types.SimpleNamespace(parameters=model.parameters,
                                 vocab=types.SimpleNamespace(to_dict=lambda: vocab))
    config = cfg.to_dict() if config is None else config
    return _joined_checkpoint_bytes(fake, optimizer, types.SimpleNamespace(to_dict=lambda: config))


@pytest.mark.parametrize("key, value", [("reasoning_layers", 1.5), ("max_decode_len", 2.5),
                                        ("learning_rate", float("inf"))])
def test_header_config_value_of_wrong_type_names_the_key(tmp_path, capsys, key, value):
    cfg, samples, _, model, _ = micro_setup(n=8)
    (tmp_path / "bad.ckpt").write_bytes(_header_with(model, cfg, {**cfg.to_dict(), key: value}))
    with pytest.raises(ConfigError, match=key):
        load_checkpoint(tmp_path / "bad.ckpt")
    save_dataset(tmp_path / "data.jsonl", samples)
    assert dispatch(["infer", "--checkpoint", str(tmp_path / "bad.ckpt"),
                     "--data", str(tmp_path / "data.jsonl"),
                     "--out", str(tmp_path / "pred.jsonl")]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("d_word", [10**15, 10**19])
def test_header_dimension_too_large_to_allocate_is_checkpoint_error(tmp_path, capsys, d_word):
    cfg, samples, _, model, _ = micro_setup(n=8)
    raw = _header_with(model, cfg, {**cfg.to_dict(), "d_word": d_word})
    (tmp_path / "huge.ckpt").write_bytes(raw)
    with pytest.raises(CheckpointError, match=f"config ModelDims\\(d_word={d_word},"):
        load_checkpoint(tmp_path / "huge.ckpt").build()
    save_dataset(tmp_path / "data.jsonl", samples)
    assert dispatch(["infer", "--checkpoint", str(tmp_path / "huge.ckpt"),
                     "--data", str(tmp_path / "data.jsonl"),
                     "--out", str(tmp_path / "pred.jsonl")]) == 1
    assert f"d_word={d_word}" in capsys.readouterr().err


def _renamed_eos(vocab):
    return {**vocab, "relations": ["STOP" if r == "EOS" else r for r in vocab["relations"]]}


@pytest.mark.parametrize("edit, key", [
    (lambda v: {}, "tokens"),
    (lambda v: {**v, "tokens": list(range(len(v["tokens"])))}, "tokens"),
    (_renamed_eos, "relations"),
    (lambda v: {**v, "arguments": [a for a in v["arguments"] if a != "PAD"]}, "arguments"),
    (lambda v: {**v, "arguments": " ".join(v["arguments"])}, "arguments"),
    (lambda v: [v["tokens"], v["relations"], v["arguments"]], "tokens"),
    (lambda v: {**v, "tokens": ["UNK", "a", "a"]}, "tokens"),
], ids=["empty", "integer-tokens", "eos-renamed", "no-pad-argument", "arguments-string",
        "not-an-object", "repeated-token"])
def test_header_vocab_must_hold_strings_and_special_symbols(tmp_path, capsys, edit, key):
    cfg, samples, _, model, _ = micro_setup(n=8)
    raw = _header_with(model, cfg, vocab=edit(model.vocab.to_dict()))
    (tmp_path / "bad.ckpt").write_bytes(raw)
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(tmp_path / "bad.ckpt")
    save_dataset(tmp_path / "data.jsonl", samples)
    assert dispatch(["infer", "--checkpoint", str(tmp_path / "bad.ckpt"),
                     "--data", str(tmp_path / "data.jsonl"),
                     "--out", str(tmp_path / "pred.jsonl")]) == 1
    assert key in capsys.readouterr().err


_MICRO = micro_setup(n=4)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.one_of(st.none(), _JSON, st.dictionaries(
           st.sampled_from([f.name for f in fields(TrainConfig)] + ["preset"]), _JSON)),
       st.one_of(st.none(), _JSON, st.dictionaries(
           st.sampled_from(["tokens", "relations", "arguments"]),
           st.lists(st.sampled_from(["UNK", "PAD", "GO", "EOS", "x", 3]), max_size=6))))
def test_any_header_config_or_vocab_loads_or_names_the_fault(config, vocab):
    cfg, _, _, model, _ = _MICRO
    if isinstance(config, dict):  # mostly valid values, so that some loads succeed
        config = {**cfg.to_dict(), **config}
    raw = _header_with(model, cfg, config, vocab)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ckpt"
        path.write_bytes(raw)
        try:
            ckpt = load_checkpoint(path)
        except (CheckpointError, ConfigError):
            return
    assert _has_annotated_type(ckpt.config)
    assert {"EOS", "PAD", "UNK", "GO"} <= set(ckpt.vocab.relations)


def test_build_draws_no_random_weights(tmp_path, monkeypatch):
    _trained_bundle(tmp_path)
    ckpt = load_checkpoint(tmp_path / "m.ckpt")
    saved = load_checkpoint(tmp_path / "m.ckpt")   # a second load to compare with

    def no_generator(*args, **kwargs):
        raise AssertionError("build drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    model, optimizer = ckpt.build()
    named = model.parameters()
    assert len(named) == len(saved.table)
    shapes = [shape for _, shape in saved.table]
    kept = zip(*(_per_parameter(block, shapes) for block in (saved.weights, saved.m, saved.v)))
    for (name, t), m, v, triple in zip(named, _per_parameter(optimizer.m, shapes),
                                       _per_parameter(optimizer.v, shapes), kept, strict=True):
        for built, want in zip((t.data, m, v), triple):
            assert np.array_equal(built, want), name


def _fresh_state(cfg=None):
    cfg, _, _, model, _ = micro_setup(n=8, cfg=cfg)
    optimizer = AdamState.for_params([t for _, t in model.parameters()], 0.01)
    return cfg, model, optimizer


def test_streamed_checkpoint_matches_joined_writer(tmp_path):
    cfg, model, optimizer = _fresh_state()
    save_checkpoint(tmp_path / "fresh.ckpt", model, optimizer, cfg)
    assert (tmp_path / "fresh.ckpt").read_bytes() == _joined_checkpoint_bytes(
        model, optimizer, cfg)
    _trained_bundle(tmp_path)
    ckpt = load_checkpoint(tmp_path / "m.ckpt")
    model, optimizer = ckpt.build()
    assert optimizer.step_count > 0
    assert (tmp_path / "m.ckpt").read_bytes() == _joined_checkpoint_bytes(
        model, optimizer, ckpt.config, ckpt.rng_state, ckpt.epoch)


class _FailingThirdWrite:
    """A file whose third ``write`` raises ``OSError``, as a full disk would."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 3:
            raise OSError(28, "No space left on device")
        return self.fh.write(data)


def _unconvertible_second_tensor(model, monkeypatch):
    """The second tensor cannot be converted to float64, so the save fails
    after the first tensor's bytes are in the temp file."""
    second = model.parameters()[1][1]
    monkeypatch.setattr(second, "data", np.full(second.shape, "not a number", dtype=object))
    return ValueError


def _full_disk_on_third_write(model, monkeypatch):
    """The temp file takes the prefix and the first tensor, then the disk is full."""
    monkeypatch.setattr(training_mod, "open", lambda name, mode: _FailingThirdWrite(
        open(name, mode)), raising=False)
    return OSError


def test_failed_save_removes_temp_and_keeps_existing_file(tmp_path, monkeypatch):
    cfg, model, optimizer = _fresh_state()
    path = tmp_path / "m.ckpt"
    tmp = tmp_path / "m.ckpt.tmp"
    for fail in (_unconvertible_second_tensor, _full_disk_on_third_write):
        path.unlink(missing_ok=True)
        with monkeypatch.context() as patch, pytest.raises(fail(model, patch)):
            save_checkpoint(path, model, optimizer, cfg)
        assert not path.exists() and not tmp.exists()
        save_checkpoint(path, model, optimizer, cfg)
        before = path.read_bytes()
        with monkeypatch.context() as patch, pytest.raises(fail(model, patch)):
            save_checkpoint(path, model, optimizer, cfg)
        assert path.read_bytes() == before and not tmp.exists()


def test_save_with_moments_that_miss_a_parameter_raises_before_opening_a_file(
        tmp_path, monkeypatch):
    """Moments of all parameters but the last would make a file no load accepts:
    the save raises StateError, opens no file, and an existing path keeps its bytes."""
    cfg, model, optimizer = _fresh_state()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, optimizer, cfg)
    before = path.read_bytes()
    params = [t for _, t in model.parameters()]
    short = AdamState.for_params(params[:-1], optimizer.learning_rate)

    def no_open(*args, **kwargs):
        raise AssertionError(f"save opened {args[0]}")

    monkeypatch.setattr(training_mod, "open", no_open, raising=False)
    for bad in (short, replace(optimizer, v=optimizer.v[:-1])):
        for target in (path, tmp_path / "new.ckpt"):
            with pytest.raises(StateError, match="moments"):
                save_checkpoint(target, model, bad, cfg)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


def test_checkpoint_shorter_than_its_header_promises(tmp_path, monkeypatch):
    _trained_bundle(tmp_path)
    raw = (tmp_path / "m.ckpt").read_bytes()
    head_len = int.from_bytes(raw[8:16], "little")
    # Header length pointing past the end of the file, with a valid CRC.
    body = raw[:8] + (len(raw) * 2).to_bytes(8, "little") + raw[16:-4]
    (tmp_path / "long_head.ckpt").write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(tmp_path / "long_head.ckpt")
    # Tensor data cut short, with a valid CRC.
    body = raw[:16 + head_len + 100]
    (tmp_path / "short_data.ckpt").write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    with pytest.raises(CheckpointError, match=_MISCOUNTED):
        load_checkpoint(tmp_path / "short_data.ckpt")
    # A read that returns fewer bytes than the file's size.
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(
        st_size=real_fstat(fd).st_size + 64))
    with pytest.raises(CheckpointError, match=r"truncated: read \d+ of \d+ bytes"):
        load_checkpoint(tmp_path / "m.ckpt")


def test_infer_builds_no_optimizer_but_checks_every_moment(tmp_path, monkeypatch, capsys):
    """``infer`` copies only the weights, yet it reads every Adam moment for the
    CRC: a flipped bit in the last second moment still exits 1."""
    cfg, samples, vocab, model = _trained_bundle(tmp_path)
    model = load_checkpoint(tmp_path / "m.ckpt").build_model()
    full, _ = load_checkpoint(tmp_path / "m.ckpt").build()
    for (na, ta), (nb, tb) in zip(model.parameters(), full.parameters()):
        assert na == nb and np.array_equal(ta.data, tb.data)
    save_dataset(tmp_path / "data.jsonl", samples)
    files = ["--data", str(tmp_path / "data.jsonl"), "--out", str(tmp_path / "pred.jsonl")]

    def no_optimizer(*args, **kwargs):
        raise AssertionError("infer built an optimizer")

    monkeypatch.setattr(training_mod, "AdamState", no_optimizer)
    assert dispatch(["infer", "--checkpoint", str(tmp_path / "m.ckpt"), *files]) == 0
    raw = bytearray((tmp_path / "m.ckpt").read_bytes())
    raw[-5] ^= 1   # the last byte of the last parameter's second moment
    (tmp_path / "bad.ckpt").write_bytes(raw)
    assert dispatch(["infer", "--checkpoint", str(tmp_path / "bad.ckpt"), *files]) == 1
    assert "checksum mismatch" in capsys.readouterr().err


def _built_arrays(model, optimizer) -> list[np.ndarray]:
    """Every parameter's weights, then the two packed moment arrays."""
    return [t.data for _, t in model.parameters()] + [optimizer.m, optimizer.v]


def test_checkpoint_builds_share_no_memory(tmp_path):
    """Builds from two loads share no memory, nor do two arrays of one build;
    a built checkpoint holds none of its blocks, ``build_model``'s included."""
    _trained_bundle(tmp_path)
    ckpt = load_checkpoint(tmp_path / "m.ckpt")
    ckpt.build_model()
    assert ckpt.weights is None and ckpt.m is None and ckpt.v is None
    arrays = [_built_arrays(*load_checkpoint(tmp_path / "m.ckpt").build()) for _ in range(2)]
    for a in arrays[0]:
        for b in arrays[1]:
            assert not np.may_share_memory(a, b)
    for built in arrays:
        for k, a in enumerate(built):
            assert not any(np.may_share_memory(a, b) for b in built[k + 1:])


def test_a_checkpoint_builds_once(tmp_path):
    _trained_bundle(tmp_path)
    for first, second in [("build", "build"), ("build_model", "build"),
                          ("build", "build_model"), ("build_model", "build_model")]:
        ckpt = load_checkpoint(tmp_path / "m.ckpt")
        getattr(ckpt, first)()
        # the checkpoint holds no tensor bytes once built
        assert ckpt.weights is None and ckpt.m is None and ckpt.v is None
        with pytest.raises(CheckpointError, match="already built; load it again"):
            getattr(ckpt, second)()


def test_built_arrays_are_writeable_contiguous_and_bit_equal_to_a_second_load(tmp_path):
    _trained_bundle(tmp_path)
    model, optimizer = load_checkpoint(tmp_path / "m.ckpt").build()
    saved = load_checkpoint(tmp_path / "m.ckpt")
    names = [name for name, _ in model.parameters()]
    kept = _per_parameter(saved.weights, [shape for _, shape in saved.table]) + [saved.m, saved.v]
    built = _built_arrays(model, optimizer)
    assert names == [name for name, _ in saved.table] and len(built) == len(kept)
    for k, (arr, want) in enumerate(zip(built, kept)):
        assert arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.writeable, k
        assert arr.shape == want.shape and arr.tobytes() == want.tobytes(), k


def test_one_adam_step_after_build_equals_the_step_before_saving(tmp_path):
    """The built model and optimizer take the same Adam step, bit for bit, as
    the saved ones, whose moments were nonzero after a step of their own."""
    cfg, model, optimizer = _fresh_state()
    params = [t for _, t in model.parameters()]
    rng = np.random.default_rng(5)
    grads = [[rng.standard_normal(p.shape) for p in params] for _ in range(2)]

    def step(params, optimizer, grads):
        for p, g in zip(params, grads):
            p.grad = g.copy()
        training_mod.adam_step(params, optimizer)

    step(params, optimizer, grads[0])
    save_checkpoint(tmp_path / "m.ckpt", model, optimizer, cfg)
    restored, restored_opt = load_checkpoint(tmp_path / "m.ckpt").build()
    restored_params = [t for _, t in restored.parameters()]
    step(params, optimizer, grads[1])
    step(restored_params, restored_opt, grads[1])
    assert restored_opt.step_count == optimizer.step_count == 2
    for a, b in zip(_built_arrays(model, optimizer), _built_arrays(restored, restored_opt)):
        assert a.tobytes() == b.tobytes()


def test_a_layout_only_model_has_every_shape_and_holds_no_weights():
    cfg, _, vocab, model, _ = micro_setup(n=4)
    for variant in [ModelVariant(), ModelVariant("lstm", "lstm", "last_state", 2)]:
        seeded = build_model(variant, cfg.dims(), vocab, np.random.default_rng(0))
        layout = build_model(variant, cfg.dims(), vocab, None)
        assert [(n, t.shape) for n, t in layout.parameters()] == [
            (n, t.shape) for n, t in seeded.parameters()]
        for _, t in layout.parameters():
            assert t.data.nbytes == 0 or not t.data.flags.writeable
            assert not any(t.data.strides) and not t.data.any()


def test_checkpoint_io_allocates_no_copy_on_save_and_one_on_load(tmp_path):
    # Dimensions chosen so that the 33 MB of tensors dwarf the JSON header.
    cfg, model, optimizer = _fresh_state(replace(micro_config(), d_filler=20, d_role=16))
    path = tmp_path / "big.ckpt"
    tensor_bytes = 8 * 3 * sum(t.size for _, t in model.parameters())
    assert tensor_bytes > 30e6
    tracemalloc.start()
    try:
        save_checkpoint(path, model, optimizer, cfg)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ckpt = load_checkpoint(path)
        load_peak = tracemalloc.get_traced_memory()[1]
        restored, restored_opt = ckpt.build()
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert save_peak <= 0.02 * tensor_bytes
    assert load_peak <= 1.1 * path.stat().st_size
    assert build_peak <= 1.1 * path.stat().st_size   # the built model holds the loaded arrays


def _rename_second(header):
    table = header["tensors"]
    table[1]["name"] = table[0]["name"]


def _every_entry_spanning_the_data(header):
    total = 3 * sum(math.prod(e["shape"]) for e in header["tensors"])
    for e in header["tensors"]:
        e["shape"] = [total]


@pytest.mark.parametrize("edit, message", [
    (_rename_second, r"tensor '\S+' appears twice in the tensor table"),
    (_every_entry_spanning_the_data, _MISCOUNTED),
    (_set_first("shape", [10**9, 10**9]), _MISCOUNTED),
], ids=["duplicate-name", "every-entry-spans-the-data", "huge-shape"])
def test_a_header_cannot_make_the_load_allocate_more_than_the_file(tmp_path, edit, message):
    _trained_bundle(tmp_path)
    raw = (tmp_path / "m.ckpt").read_bytes()
    (tmp_path / "bad.ckpt").write_bytes(_reseal(raw, edit))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(tmp_path / "bad.ckpt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * len(raw)


def _with_gap(raw: bytes, gap: bytes) -> bytes:
    """The checkpoint with ``gap`` between its first tensor and the rest, its
    header unchanged and its CRC recomputed."""
    head_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + head_len])
    cut = 16 + head_len + 8 * math.prod(header["tensors"][0]["shape"])
    body = raw[:cut] + gap + raw[cut:-4]
    return body + zlib.crc32(body).to_bytes(4, "little")


def test_bytes_between_tensors_are_read_for_the_crc(tmp_path):
    """Tensors are packed, so bytes between them make the data longer than the
    table accounts for; a load reads them for the CRC before it says so."""
    model = _trained_bundle(tmp_path)[3]
    raw = (tmp_path / "m.ckpt").read_bytes()
    gap = bytes(range(24)) * 50_000   # 1.2 MB: more than one chunk
    gapped = _with_gap(raw, gap)
    (tmp_path / "gap.ckpt").write_bytes(gapped)
    head_len = int.from_bytes(raw[8:16], "little")
    n_data = len(raw) - 20 - head_len
    with pytest.raises(CheckpointError, match=f"take {n_data} bytes, but the file holds "
                                              f"{n_data + len(gap)} bytes"):
        load_checkpoint(tmp_path / "gap.ckpt")
    at = 16 + head_len + model.parameters()[0][1].data.nbytes + 700_000   # inside the gap
    (tmp_path / "bad_gap.ckpt").write_bytes(gapped[:at] + b"\xff" + gapped[at + 1:])
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        load_checkpoint(tmp_path / "bad_gap.ckpt")


def test_micro_overfit_script_fails_on_too_few_epochs():
    """The script trains through ``train`` and exits 1 short of 100% accuracy."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, str(root / "scripts" / "run_micro_overfit.py"),
                           "--epochs", "2"], capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 1, done.stderr
    records = [json.loads(line) for line in done.stdout.splitlines()]
    assert [r["epoch"] for r in records] == [0, 1]
    assert "did not reach 100% operation accuracy" in done.stderr
