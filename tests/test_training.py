"""Loss, teacher forcing, greedy decoding, determinism, checkpoints."""

import json
import math
import zlib

import numpy as np
import pytest

from tpn2f.data import build_vocabularies, preprocess_samples
from tpn2f.formal_lang import RelationalTuple
from tpn2f.model import ModelDims, build_model
from tpn2f.synthetic import make_micro_dataset, micro_config
from tpn2f.tensor import AdamState, Tensor
from tpn2f.training import (
    CheckpointError,
    ConfigError,
    TrainConfig,
    algolisp_preset,
    encode_sample,
    encode_samples,
    greedy_decode,
    load_checkpoint,
    mathqa_preset,
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
])
def test_config_rejects_bad_value(key, value):
    with pytest.raises(ConfigError, match=key.split("_")[0]):
        TrainConfig.from_dict({key: value})


# ---------------------------------------------------------------------------
# loss


def _one_hot_logits(n, idx, sharp=100.0):
    z = np.zeros(n)
    z[idx] = sharp
    return Tensor(z)


def test_sequence_loss_perfect_prediction_near_zero():
    gold = [(1, 2, 3)]
    logits = [(_one_hot_logits(6, 1), [_one_hot_logits(7, 2), _one_hot_logits(7, 3)])]
    assert sequence_loss(logits, gold).item() == pytest.approx(0.0, abs=1e-12)


def test_sequence_loss_uniform_closed_form():
    gold = [(0, 1, 2)]
    logits = [(Tensor(np.zeros(4)), [Tensor(np.zeros(4)), Tensor(np.zeros(4))])]
    assert sequence_loss(logits, gold).item() == pytest.approx(3 * math.log(4), abs=1e-12)


def test_sequence_loss_additive_over_tuples():
    rng = np.random.default_rng(0)
    logits = [(Tensor(rng.standard_normal(5)),
               [Tensor(rng.standard_normal(6)), Tensor(rng.standard_normal(6))])
              for _ in range(4)]
    gold = [(1, 2, 3) for _ in range(4)]
    whole = sequence_loss(logits, gold).item()
    split = sequence_loss(logits[:2], gold[:2]).item() + \
        sequence_loss(logits[2:], gold[2:]).item()
    assert whole == pytest.approx(split, abs=1e-12)


def test_sequence_loss_length_mismatch():
    with pytest.raises(ValueError):
        sequence_loss([], [(0, 0, 0)])


def test_head_sizes_match_vocabularies_every_step():
    cfg, samples, vocab, model, _ = micro_setup()
    enc = encode_sample(samples[0], vocab, cfg.positions)
    steps = teacher_forced_logits(model, enc.token_ids, enc.target_ids)
    assert len(steps) == len(enc.target_ids)
    for rel_logits, arg_logits in steps:
        assert rel_logits.shape == (vocab.n_relations,)
        for a in arg_logits:
            assert a.shape == (vocab.n_arguments,)


def test_teacher_forcing_isolation():
    """Changing the gold tuple at step t moves step t+1 logits, not step t."""
    cfg, samples, vocab, model, _ = micro_setup()
    enc = encode_sample(samples[5], vocab, cfg.positions)
    assert len(enc.target_ids) >= 2
    changed = list(enc.target_ids)
    changed[0] = (changed[0][0], (changed[0][1] + 1) % vocab.n_arguments, changed[0][2])
    base = teacher_forced_logits(model, enc.token_ids, enc.target_ids)
    moved = teacher_forced_logits(model, enc.token_ids, changed)
    assert np.array_equal(base[0][0].data, moved[0][0].data)
    assert not np.array_equal(base[1][0].data, moved[1][0].data)


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
        return Tensor(np.zeros(3)), [Tensor(np.zeros(3))]

    def initial_decoder_state(self, pooled):
        return Tensor(np.zeros(2)), Tensor(np.zeros(2))

    def project_contexts(self, contexts):
        return Tensor(np.zeros((1, 2)))

    def decode_step(self, prev_ids, hidden, cell, projected):
        return hidden, cell

    def head_logits(self, hidden):
        rel = np.zeros(self.vocab.n_relations)
        rel[self.rel_scripts[min(self.step, len(self.rel_scripts) - 1)]] = 10.0
        self.step += 1
        args = [Tensor(np.zeros(self.vocab.n_arguments))
                for _ in range(self.dims.positions)]
        return Tensor(rel), args, None


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

        def project_contexts(self, ctx):
            return self.inner.project_contexts(ctx)

        def decode_step(self, prev, h, c, proj):
            return self.inner.decode_step(prev, h, c, proj)

        def head_logits(self, hidden):
            rel, args, r = self.inner.head_logits(hidden)
            return Tensor(rel.data + self.delta), \
                [Tensor(a.data + self.delta) for a in args], r

    enc = encode_sample(samples[3], vocab, cfg.positions)
    base = greedy_decode(model, enc.token_ids, 4)
    shifted = greedy_decode(Shifted(model, 7.5), enc.token_ids, 4)
    assert base == shifted


def test_greedy_rejects_bad_max_len():
    cfg, samples, vocab, model, _ = micro_setup()
    with pytest.raises(ValueError):
        greedy_decode(model, [0], max_len=0)


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


def test_truncated_checkpoint_is_corrupt(tmp_path):
    cfg, samples, vocab, model = _trained_bundle(tmp_path)
    raw = (tmp_path / "m.ckpt").read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(raw[:-20])
    with pytest.raises(CheckpointError, match="checksum|truncated"):
        load_checkpoint(tmp_path / "cut.ckpt")


def test_version_mismatch_is_explicit(tmp_path):
    cfg, samples, vocab, model = _trained_bundle(tmp_path)
    raw = (tmp_path / "m.ckpt").read_bytes()
    body = raw[:-4].replace(b'"version":1', b'"version":9', 1)
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


def _drop_first_adam_moment(header):
    tensors = header["tensors"]
    del tensors[next(k for k, e in enumerate(tensors) if e["name"].startswith("adam.m."))]


@pytest.mark.parametrize("edit, message", [
    (_set_first("offset", 10**12), "past"),
    (_set_first("shape", [10**6, 10**6]), "past"),
    (_set_first("offset", -8), "non-negative"),
    (_set_first("shape", [2.5]), "non-negative"),
    (lambda h: h["tensors"][0].pop("offset"), "needs name, shape and offset"),
    (lambda h: h["adam"].pop("beta1"), "optimizer state"),
    (lambda h: h.pop("vocab"), "lacks vocab"),
    (_drop_first_adam_moment, "missing tensor 'adam.m."),
], ids=["offset", "shape", "negative", "float", "no-offset", "adam-field", "no-vocab",
        "adam-moment"])
def test_bad_header_with_valid_crc_is_checkpoint_error(tmp_path, edit, message):
    _trained_bundle(tmp_path)
    (tmp_path / "bad.ckpt").write_bytes(_reseal((tmp_path / "m.ckpt").read_bytes(), edit))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(tmp_path / "bad.ckpt").build()


def test_not_a_checkpoint(tmp_path):
    bad = b"hello world, definitely not a checkpoint"
    (tmp_path / "junk.ckpt").write_bytes(bad + zlib.crc32(bad).to_bytes(4, "little"))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(tmp_path / "junk.ckpt")


def test_checkpoint_atomic_write_leaves_no_temp(tmp_path):
    cfg, samples, vocab, model = _trained_bundle(tmp_path)
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
