"""Encoder/decoder behavior: closed forms, shapes, variants, gradient flow."""

import dataclasses
import tracemalloc
import types

import numpy as np
import pytest

from tpn2f.data import Sample, Vocabularies
from tpn2f.formal_lang import RelationalTuple
from tpn2f.model import (
    ConfigError,
    DecoderParams,
    EncoderParams,
    LstmDecoderParams,
    LstmEncoderParams,
    LstmParams,
    ModelDims,
    ModelVariant,
    Tpn2fModel,
    VocabError,
    bag_of_embeddings,
    build_model,
    encode_sequence,
    encoder_step,
    named_tensors,
    reasoning_map,
    unbinding_module,
)
from tpn2f.tensor import (
    GradientTape,
    Tensor,
    add,
    attend,
    backward,
    lstm_cell,
    matmul,
    mul,
    sigmoid,
    stack_rows,
    sum_all,
    tanh,
    zeros,
)
from tpn2f.tpr import dual_basis, unbind2
from tpn2f.training import encode_sample, sample_loss, teacher_forced_logits

MICRO = ModelDims(d_word=8, d_filler=5, n_fillers=7, d_role=4, n_roles=6,
                  d_rel=4, d_arg=3, d_pos=5, positions=2, lstm_hidden=9)
MATHQA = ModelDims(d_word=16, d_filler=30, n_fillers=150, d_role=20, n_roles=50,
                   d_rel=20, d_arg=10, d_pos=5, positions=2)
ALGOLISP = ModelDims(d_word=16, d_filler=30, n_fillers=150, d_role=30, n_roles=50,
                     d_rel=30, d_arg=20, d_pos=5, positions=3)


def tiny_vocab(n_tokens=5, n_rel=6, n_arg=7):
    return Vocabularies(
        tokens=["UNK"] + [f"w{i}" for i in range(n_tokens - 1)],
        relations=["PAD", "UNK", "GO", "EOS"] + [f"r{i}" for i in range(n_rel - 4)],
        arguments=["PAD", "UNK", "GO", "EOS"] + [f"a{i}" for i in range(n_arg - 4)],
    )


def micro_model(seed=0, dims=MICRO, variant=None, vocab=None):
    return build_model(variant or ModelVariant(), dims, vocab or tiny_vocab(),
                       np.random.default_rng(seed))


@pytest.mark.parametrize("layout", [False, True], ids=["weights", "layout"])
@pytest.mark.parametrize("field", ["d_word", "d_filler", "d_pos"])
def test_dims_past_numpy_size_limit_are_a_config_error_naming_them(layout, field):
    """Only sizes numpy rejects before it allocates anything: 10**30 elements."""
    dims = dataclasses.replace(MICRO, **{field: 10**30})
    with pytest.raises(ConfigError, match=rf"config ModelDims\(.*{field}={10**30}"):
        build_model(ModelVariant(), dims, tiny_vocab(),
                    None if layout else np.random.default_rng(0))


# ---------------------------------------------------------------------------
# encoder


def test_encoder_step_output_shape_at_published_dims():
    model = micro_model(dims=MATHQA)
    binding, cell, _ = encoder_step(1, zeros(600), zeros(1200), model.encoder)
    assert binding.shape == (600,)
    assert cell.shape == (1200,)   # [c_f | c_r]


def test_encoder_step_zero_weights_uniform_softmax_closed_form():
    rng = np.random.default_rng(0)
    params = EncoderParams.random(rng, MICRO, n_tokens=5)
    for name, t in named_tensors(params, "encoder"):
        if "fillers" not in name and "roles" not in name:
            t.data[...] = 0.0
    binding, _, _ = encoder_step(2, zeros(20), zeros(40), params)
    f_mean = params.fillers.data.mean(axis=1)
    r_mean = params.roles.data.mean(axis=1)
    assert np.allclose(binding.data, np.outer(f_mean, r_mean).reshape(-1), atol=1e-12)


def test_encoder_selections_are_convex_combinations():
    model = micro_model(seed=3)
    binding, _, (a_f, a_r) = encoder_step(1, zeros(20), zeros(40), model.encoder)
    for scores in (a_f, a_r):
        assert (scores >= 0).all()
        assert abs(scores.sum() - 1.0) <= 1e-12
    # The binding is the outer product of the dictionary mixtures.
    f = model.encoder.fillers.data @ a_f
    r = model.encoder.roles.data @ a_r
    assert np.allclose(binding.data, np.outer(f, r).reshape(-1), atol=1e-15)


def test_encoder_binding_unbinds_to_its_filler_with_a_role_dual_vector():
    """The encoder's binding flatten(f (x) r), read as a d_filler x d_role matrix,
    gives back f when unbound with the vector dual to r (Smolensky 1990)."""
    for seed in range(5):
        model = micro_model(seed=seed)
        binding, _, (a_f, a_r) = encoder_step(1 + seed % 4, zeros(20), zeros(40), model.encoder)
        f = model.encoder.fillers.data @ a_f
        r = model.encoder.roles.data @ a_r
        u = dual_basis(r[:, None]).data[0]
        recovered = unbind2(binding.data.reshape(MICRO.d_filler, MICRO.d_role), u).data
        assert np.abs(recovered - f).max() < 1e-9


def test_encoder_rejects_unknown_token_id():
    model = micro_model()
    with pytest.raises(VocabError):
        encoder_step(99, zeros(20), zeros(40), model.encoder)


def test_encode_sequence_singleton_equals_context():
    model = micro_model()
    pooled, memory = encode_sequence([1], model.encoder)
    assert memory.shape == (1, MICRO.d_t)
    assert np.array_equal(pooled.data, memory.data[0])


def test_encode_sequence_sum_of_two():
    model = micro_model()
    pooled, memory = encode_sequence([1, 2], model.encoder)
    assert np.abs(pooled.data - (memory.data[0] + memory.data[1])).max() <= 1e-12


def test_encode_sequence_last_state_pooling():
    model = micro_model()
    pooled, memory = encode_sequence([1, 2, 3], model.encoder, pooling="last_state")
    assert np.array_equal(pooled.data, memory.data[2])


@pytest.mark.parametrize("encoder", ["tpr", "lstm"])
def test_encode_sequence_stacks_the_positions_once(encoder):
    """One ``encode_sequence`` call, of one sample or of a padded minibatch,
    records one ``stack_rows`` node: pooling and the attention memory read the
    same ``(..., T, d)`` memory, whose rows are the positions' vectors.  A
    teacher-forced pass adds only the stack of its decoder states."""
    model = micro_model(variant=ModelVariant(encoder, "tpr"))
    d = model.encoder.lstm.recurrent

    def stacks(run):
        with GradientTape() as tape:
            out = run()
        return [fn.__qualname__ for _, _, fn in tape._nodes].count("stack_rows.<locals>.bw"), out

    for token_ids, shape in (([1, 2, 3], (3, d)), ([[1, 2, 3], [4, 1]], (2, 3, d))):
        count, (_, memory) = stacks(lambda: encode_sequence(token_ids, model.encoder))
        assert count == 1 and memory.shape == shape
        targets = np.full(shape[:-2] + (2, 3), 4)
        assert stacks(lambda: teacher_forced_logits(model, token_ids, targets))[0] == 2


def test_encode_sequence_rejects_empty():
    model = micro_model()
    with pytest.raises(ValueError):
        encode_sequence([], model.encoder)


def test_bow_sensitivity_vs_bag_of_embeddings():
    """Token order changes the binding encoding but not the embedding bag."""
    for seed in range(5):
        model = micro_model(seed=seed)
        fwd, _ = encode_sequence([1, 2, 3], model.encoder)
        rev, _ = encode_sequence([3, 2, 1], model.encoder)
        assert np.linalg.norm(fwd.data - rev.data) > 1e-6
        bag_fwd = bag_of_embeddings([1, 2, 3], model.encoder.embed)
        bag_rev = bag_of_embeddings([3, 2, 1], model.encoder.embed)
        assert np.array_equal(bag_fwd.data, bag_rev.data)


# ---------------------------------------------------------------------------
# reasoning


def test_reasoning_dims_at_published_config():
    model = micro_model(dims=MATHQA)
    pooled = Tensor(np.random.default_rng(0).standard_normal(600))
    out = reasoning_map(pooled, model.reasoning)
    assert out.shape == (1000,)  # 30*20 -> 10*20*5


def test_reasoning_zero_input_zero_bias():
    model = micro_model()
    for _, t in named_tensors(model.reasoning, "reasoning"):
        t.data[...] = t.data * 0.0
    out = reasoning_map(zeros(20), model.reasoning)
    assert np.array_equal(out.data, np.zeros(out.shape))


def test_reasoning_outputs_bounded_by_tanh():
    model = micro_model()
    out = reasoning_map(Tensor(np.random.default_rng(0).standard_normal(20)), model.reasoning)
    assert (np.abs(out.data) < 1.0).all()


def test_reasoning_layer_count():
    model = micro_model(variant=ModelVariant(reasoning_layers=3))
    assert len(model.reasoning.weights) == 3
    out = reasoning_map(zeros(20), model.reasoning)
    assert out.shape == (MICRO.d_h,)


# ---------------------------------------------------------------------------
# attention


def test_attention_single_context_weight_one():
    model = micro_model()
    rng = np.random.default_rng(1)
    h = Tensor(rng.standard_normal(MICRO.d_h))
    memory = Tensor(rng.standard_normal((1, 20)))
    out, weights = attend(h, model.project_contexts(memory), model.decoder.attn_combine)
    assert np.array_equal(weights, [1.0])
    proj = model.decoder.w_context.data @ memory.data[0]
    manual = np.tanh(model.decoder.attn_combine.data @ np.concatenate([h.data, proj]))
    assert np.allclose(out.data, manual, atol=1e-15)


def test_attention_identical_contexts_split_evenly():
    model = micro_model()
    rng = np.random.default_rng(2)
    h = Tensor(rng.standard_normal(MICRO.d_h))
    c = rng.standard_normal(20)
    _, weights = attend(h, model.project_contexts(Tensor(np.stack([c, c]))),
                        model.decoder.attn_combine)
    assert np.allclose(weights, [0.5, 0.5], atol=1e-15)


def test_attention_weights_sum_to_one():
    model = micro_model()
    rng = np.random.default_rng(3)
    h = Tensor(rng.standard_normal(MICRO.d_h))
    memory = Tensor(rng.standard_normal((6, 20)))
    _, weights = attend(h, model.project_contexts(memory), model.decoder.attn_combine)
    assert abs(weights.sum() - 1.0) <= 1e-12


def _per_row_memory(contexts, params):
    """The former attention memory: one matrix-vector product per position."""
    return stack_rows([matmul(params.w_context, t) for t in contexts])


def _one_product_memory(contexts, params):
    """The model's attention memory: ``w_context`` times the stacked positions,
    as ``Tpn2fModel.project_contexts`` forms it from ``encode``'s memory."""
    decoder_only = types.SimpleNamespace(decoder=params)
    return Tpn2fModel.project_contexts(decoder_only, stack_rows(contexts))


@pytest.mark.parametrize("d_h, d_t, steps", [(MICRO.d_h, MICRO.d_t, 3), (1000, 600, 40)],
                         ids=["micro", "mathqa"])
def test_project_contexts_matches_per_row_products(d_h, d_t, steps):
    """The one-product memory, the grad of ``w_context`` and the grad of every
    context agree with per-row products within 1e-12 relative (to the largest
    entry of the reference)."""
    rng = np.random.default_rng(31)
    w = rng.uniform(-0.1, 0.1, (d_h, d_t))
    rows = rng.standard_normal((steps, d_t))
    weights = Tensor(rng.uniform(-1, 1, (steps, d_h)))

    def run(project):
        params = types.SimpleNamespace(w_context=Tensor(w.copy(), requires_grad=True))
        contexts = [Tensor(row, requires_grad=True) for row in rows]
        with GradientTape():
            memory = project(contexts, params)
            backward(sum_all(mul(memory, weights)))
        return [memory.data, params.w_context.grad] + [c.grad for c in contexts]

    for got, want in zip(run(_one_product_memory), run(_per_row_memory), strict=True):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_project_contexts_backward_holds_only_leaf_grads_and_activations():
    """At the mathqa preset's (1000, 600) ``w_context``, a 40-position memory's
    forward+backward leaves held the leaf grads plus the activations the tape
    keeps (stacked contexts, memory, product), and no produced tensor's grad."""
    rng = np.random.default_rng(31)
    params = types.SimpleNamespace(
        w_context=Tensor(rng.uniform(-0.1, 0.1, (1000, 600)), requires_grad=True))
    contexts = [Tensor(rng.standard_normal(600), requires_grad=True) for _ in range(40)]
    weights = Tensor(rng.uniform(-1, 1, (40, 1000)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with GradientTape():
            memory = _one_product_memory(contexts, params)
            product = mul(memory, weights)
            backward(sum_all(product))
            held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    leaf_grads = params.w_context.grad.nbytes + sum(c.grad.nbytes for c in contexts)
    activations = 40 * 600 * 8 + memory.data.nbytes + product.data.nbytes
    assert memory.grad is None and product.grad is None
    assert held <= leaf_grads + activations + 64 * 1024, held


# ---------------------------------------------------------------------------
# decoder


def test_decoder_step_shapes_at_published_dims():
    model = micro_model(dims=MATHQA)
    assert MATHQA.d_h == 1000
    assert MATHQA.d_dec == 40  # 20 + 2*10
    projected = model.project_contexts(Tensor(np.random.default_rng(0).standard_normal((1, 600))))
    h, c = model.decode_step((2, 0, 0), zeros(1000), zeros(1000), projected)
    assert h.shape == (1000,) and c.shape == (1000,)


def test_decoder_step_deterministic():
    model = micro_model()
    projected = model.project_contexts(Tensor(np.random.default_rng(0).standard_normal((1, 20))))
    runs = [model.decode_step((2, 0, 0), zeros(MICRO.d_h), zeros(MICRO.d_h), projected)
            for _ in range(2)]
    assert np.array_equal(runs[0][0].data, runs[1][0].data)
    assert np.array_equal(runs[0][1].data, runs[1][1].data)


def test_decoder_rejects_bad_ids():
    model = micro_model()
    projected = model.project_contexts(Tensor(np.zeros((1, 20))))
    with pytest.raises(VocabError):
        model.decode_step((99, 0, 0), zeros(MICRO.d_h), zeros(MICRO.d_h), projected)


def _tuple_binding(a, r, q):
    """The flat order-3 binding H = sum_k a_k (x) r (x) q_k of argument rows a,
    relation r and position columns q, in the head's (d_arg, d_rel, d_pos) layout."""
    return np.einsum("ki,j,pk->ijp", a, r, q).reshape(-1)


def _rigged_head(q, a, rel_classifier, arg_classifier):
    """A stand-in for the decoder's head fields that unbinding_module reads: the
    position columns q unbind, and the dual map sends sum_k a_k (x) r to r."""
    s = a.sum(axis=0)
    d_rel = rel_classifier.shape[1]
    return types.SimpleNamespace(
        pos_unbind=Tensor(q.T),
        w_dual=Tensor(np.kron(s / (s @ s), np.eye(d_rel))),  # [k, j*d_rel + k] = u_j
        rel_classifier=Tensor(rel_classifier), arg_classifier=Tensor(arg_classifier))


def test_unbinding_round_trip_with_rigged_dual_map():
    """With orthonormal positions, unit relation vector, and the dual map set
    to reproduce it, the argument vectors come back exactly."""
    dims = ModelDims(d_word=8, d_filler=5, n_fillers=7, d_role=4, n_roles=6,
                     d_rel=2, d_arg=3, d_pos=4, positions=2)
    model = micro_model(dims=dims)
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((dims.d_pos, 2)))
    a1, a2 = rng.standard_normal(dims.d_arg), rng.standard_normal(dims.d_arg)
    r = rng.standard_normal(dims.d_rel)
    r /= np.linalg.norm(r)
    hidden = Tensor(_tuple_binding(np.stack([a1, a2]), r, q))

    dec = model.decoder
    dec.pos_unbind.data[...] = q.T
    u = (a1 + a2) / np.dot(a1 + a2, a1 + a2)
    w_dual = np.zeros((dims.d_rel, dims.d_arg * dims.d_rel))
    for k in range(dims.d_rel):
        for j in range(dims.d_arg):
            w_dual[k, j * dims.d_rel + k] = u[j]
    dec.w_dual.data[...] = w_dual

    rel_logits, arg_logits, r_unbind = unbinding_module(hidden, dec, dims)
    assert np.abs(r_unbind.data - r).max() < 1e-9
    recovered = [dec.arg_classifier.data @ a for a in (a1, a2)]
    assert arg_logits.shape == (2, model.vocab.n_arguments)
    for got, want in zip(arg_logits.data, recovered):
        assert np.abs(got - want).max() < 1e-9


def test_unbinding_round_trip_three_positions_at_algolisp_dims():
    """positions=3 at the algolisp preset's head sizes: H = sum_k a_k (x) r (x) p_k,
    built here with einsum, unbinds to the unit relation vector r and each a_k."""
    dims = ALGOLISP
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((dims.d_pos, 3)))
    a = rng.standard_normal((3, dims.d_arg))
    r = rng.standard_normal(dims.d_rel)
    r /= np.linalg.norm(r)
    hidden = Tensor(_tuple_binding(a, r, q))
    head = _rigged_head(q, a, rng.standard_normal((7, dims.d_rel)),
                        rng.standard_normal((9, dims.d_arg)))

    rel_logits, arg_logits, r_unbind = unbinding_module(hidden, head, dims)
    assert np.abs(r_unbind.data - r).max() < 1e-9
    assert np.abs(rel_logits.data - head.rel_classifier.data @ r).max() < 1e-9
    assert arg_logits.shape == (3, 9)
    for got, a_k in zip(arg_logits.data, a):
        assert np.abs(got - head.arg_classifier.data @ a_k).max() < 1e-9


@pytest.mark.parametrize("positions", [2, 3])
def test_unbinding_reads_basis_tuples_from_their_layout(positions):
    """One-hot arguments e_i, relation e_1 and positions e_k set exactly the
    entries (i, 1, k) of the flat binding; the head reads back e_1 and each e_i."""
    dims = ModelDims(d_arg=4, d_rel=3, d_pos=4, positions=positions)
    picks = [0, 2, 3][:positions]
    a = np.eye(dims.d_arg)[picks]
    r = np.eye(dims.d_rel)[1]
    q = np.eye(dims.d_pos)[:, :positions]
    hidden = _tuple_binding(a, r, q)
    expected = np.zeros(dims.d_h)
    for k, i in enumerate(picks):
        expected[(i * dims.d_rel + 1) * dims.d_pos + k] = 1.0
    assert np.array_equal(hidden, expected)

    head = _rigged_head(q, a, np.eye(dims.d_rel), np.eye(dims.d_arg))
    rel_logits, arg_logits, _ = unbinding_module(Tensor(hidden), head, dims)
    assert np.abs(rel_logits.data - r).max() < 1e-12
    assert arg_logits.shape == (positions, dims.d_arg)
    for got, a_k in zip(arg_logits.data, a):
        assert np.abs(got - a_k).max() < 1e-12


@pytest.mark.parametrize("positions", [2, 3])
def test_unbinding_zero_arguments_give_zero_logits(positions):
    """Zero arguments bind to zero whatever the relation and positions, and the
    model's own head reads zero logits from them."""
    dims = ModelDims(d_word=8, d_filler=5, n_fillers=7, d_role=4, n_roles=6,
                     d_rel=4, d_arg=3, d_pos=5, positions=positions, lstm_hidden=9)
    model = micro_model(seed=2, dims=dims)
    rng = np.random.default_rng(positions)
    hidden = _tuple_binding(np.zeros((positions, dims.d_arg)), rng.standard_normal(dims.d_rel),
                            rng.standard_normal((dims.d_pos, positions)))
    assert np.array_equal(hidden, np.zeros(dims.d_h))
    rel_logits, arg_logits, r_unbind = unbinding_module(Tensor(hidden), model.decoder, dims)
    assert arg_logits.shape[0] == positions
    for logits in (rel_logits, r_unbind, arg_logits):
        assert np.array_equal(logits.data, np.zeros_like(logits.data))


@pytest.mark.parametrize("positions", [2, 3])
def test_unbinding_matches_loops_over_all_small_shapes(positions):
    """The head's reshape and contractions equal the order-3 unbinding written
    out index by index: slab_k[i, j] = sum_p H[i, j, p] q_k[p], r = W_dual
    vec(sum_k slab_k), arg_k = C_arg (slab_k r)."""
    rng = np.random.default_rng(11)
    for d_arg in range(1, 4):
        for d_rel in range(1, 4):
            for d_pos in range(1, 4):
                dims = ModelDims(d_arg=d_arg, d_rel=d_rel, d_pos=d_pos, positions=positions)
                head = types.SimpleNamespace(
                    pos_unbind=Tensor(rng.standard_normal((positions, d_pos))),
                    w_dual=Tensor(rng.standard_normal((d_rel, d_arg * d_rel))),
                    rel_classifier=Tensor(rng.standard_normal((5, d_rel))),
                    arg_classifier=Tensor(rng.standard_normal((6, d_arg))))
                hidden = rng.standard_normal(dims.d_h)
                slabs = np.zeros((positions, d_arg, d_rel))
                for k in range(positions):
                    q_k = head.pos_unbind.data[k]
                    for i in range(d_arg):
                        for j in range(d_rel):
                            for p in range(d_pos):
                                slabs[k, i, j] += hidden[(i * d_rel + j) * d_pos + p] * q_k[p]
                total = slabs.sum(axis=0)
                r = np.zeros(d_rel)
                for out in range(d_rel):
                    for i in range(d_arg):
                        for j in range(d_rel):
                            r[out] += head.w_dual.data[out, i * d_rel + j] * total[i, j]

                rel_logits, arg_logits, r_unbind = unbinding_module(Tensor(hidden), head, dims)
                assert np.abs(r_unbind.data - r).max() < 1e-12
                assert np.abs(rel_logits.data - head.rel_classifier.data @ r).max() < 1e-12
                assert arg_logits.shape == (positions, 6)
                for k, got in enumerate(arg_logits.data):
                    want = head.arg_classifier.data @ np.array(
                        [sum(slabs[k, i, j] * r[j] for j in range(d_rel)) for i in range(d_arg)])
                    assert np.abs(got - want).max() < 1e-12


def test_unbinding_zero_hidden_gives_zero_logits():
    model = micro_model()
    rel_logits, arg_logits, r_unbind = unbinding_module(zeros(MICRO.d_h), model.decoder, MICRO)
    assert np.array_equal(rel_logits.data, np.zeros_like(rel_logits.data))
    assert np.array_equal(arg_logits.data, np.zeros((MICRO.positions, model.vocab.n_arguments)))
    assert np.array_equal(r_unbind.data, np.zeros(MICRO.d_rel))


def test_unbinding_position_slabs_differ_generically():
    model = micro_model(seed=11)
    rng = np.random.default_rng(12)
    hidden = Tensor(rng.standard_normal(MICRO.d_h))
    cube = hidden.data.reshape(MICRO.d_arg, MICRO.d_rel, MICRO.d_pos)
    slab1 = cube @ model.decoder.pos_unbind.data[0]
    slab2 = cube @ model.decoder.pos_unbind.data[1]
    assert np.abs(slab1 - slab2).max() > 1e-8


# ---------------------------------------------------------------------------
# variants


def test_build_full_model_has_binding_parts():
    model = micro_model(variant=ModelVariant("tpr", "tpr"))
    names = [n for n, _ in model.parameters()]
    assert "encoder.fillers" in names and "decoder.pos_unbind" in names


_ENCODER_NAMES = {
    "tpr": ["encoder.embed", "encoder.lstm.w", "encoder.lstm.b", "encoder.w_filler_attn",
            "encoder.w_role_attn", "encoder.fillers", "encoder.roles"],
    "lstm": ["encoder.embed", "encoder.lstm.w", "encoder.lstm.b"],
}
_DECODER_NAMES = {
    "tpr": ["decoder.rel_embed", "decoder.arg_embed", "decoder.lstm.w", "decoder.lstm.b",
            "decoder.w_context", "decoder.attn_combine", "decoder.pos_unbind",
            "decoder.w_dual", "decoder.rel_classifier", "decoder.arg_classifier"],
    "lstm": ["decoder.rel_embed", "decoder.arg_embed", "decoder.lstm.w", "decoder.lstm.b",
             "decoder.w_context", "decoder.attn_combine", "decoder.rel_head",
             "decoder.arg_head"],
}


@pytest.mark.parametrize("encoder", ["tpr", "lstm"])
@pytest.mark.parametrize("decoder", ["tpr", "lstm"])
def test_parameter_names_and_order_are_pinned(encoder, decoder):
    """The checkpoint's tensor table is keyed by these names, in this order."""
    model = micro_model(variant=ModelVariant(encoder, decoder))
    assert [n for n, _ in model.parameters()] == (
        _ENCODER_NAMES[encoder] + ["reasoning.weights.0", "reasoning.biases.0"]
        + _DECODER_NAMES[decoder])
    deep = micro_model(variant=ModelVariant(encoder, decoder, reasoning_layers=2))
    assert [n for n, _ in deep.parameters()] == (
        _ENCODER_NAMES[encoder] + ["reasoning.weights.0", "reasoning.weights.1",
                                   "reasoning.biases.0", "reasoning.biases.1"]
        + _DECODER_NAMES[decoder])
    assert [t for _, t in deep.parameters()][len(_ENCODER_NAMES[encoder]):][:4] == \
        deep.reasoning.weights + deep.reasoning.biases


def test_build_baseline_uses_hidden_100():
    model = micro_model(dims=MATHQA, variant=ModelVariant("lstm", "lstm"))
    assert isinstance(model.encoder, LstmEncoderParams)
    assert isinstance(model.decoder, LstmDecoderParams)
    assert model.encoder.lstm.v_f.shape == (100, 100)
    assert model.decoder.lstm.v_f.shape == (100, 100)


def test_build_tp2lstm_mixes_parts():
    model = micro_model(variant=ModelVariant("tpr", "lstm"))
    names = [n for n, _ in model.parameters()]
    assert "encoder.fillers" in names
    assert all("pos_unbind" not in n for n in names)


def test_build_lstm2tp_mixes_parts():
    model = micro_model(variant=ModelVariant("lstm", "tpr"))
    names = [n for n, _ in model.parameters()]
    assert all("fillers" not in n for n in names)
    assert "decoder.pos_unbind" in names


def test_distinct_position_unbinding_vectors_at_init():
    model = micro_model(seed=4)
    p1, p2 = model.decoder.pos_unbind.data
    assert not np.allclose(p1, p2)
    assert np.linalg.norm(p1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("positions", [2, 3])
def test_position_axes_hold_the_per_position_draws_in_turn(positions):
    """Row k of ``pos_unbind`` and row block k of ``arg_head`` are, bit for bit,
    position k's own draw from an equally seeded generator: the unit Gaussians
    come first, in turn, and the LSTM decoder's argument heads last, in turn."""
    dims = dataclasses.replace(MICRO, positions=positions)
    h, n_arg = dims.lstm_hidden, 7
    tpr = DecoderParams.random(np.random.default_rng(5), dims, 6, n_arg, 20)
    replay = np.random.default_rng(5)
    for k in range(positions):
        v = replay.standard_normal(dims.d_pos)
        assert np.array_equal(tpr.pos_unbind.data[k], v / np.linalg.norm(v))
    assert np.array_equal(tpr.rel_embed.data, replay.uniform(-0.1, 0.1, (6, dims.d_rel)))
    lstm = LstmDecoderParams.random(np.random.default_rng(5), dims, 6, n_arg, 20)
    replay = np.random.default_rng(5)
    for shape in ((6, dims.d_rel), (n_arg, dims.d_arg)):
        replay.uniform(-0.1, 0.1, shape)
    LstmParams.random(replay, dims.d_dec, h)
    for shape in ((h, 20), (h, 2 * h), (6, h)):
        replay.uniform(-0.1, 0.1, shape)
    assert lstm.arg_head.shape == (positions * n_arg, h)
    for k in range(positions):
        block = lstm.arg_head.data[k * n_arg:(k + 1) * n_arg]
        assert np.array_equal(block, replay.uniform(-0.1, 0.1, (n_arg, h)))


def test_same_seed_same_parameters():
    a = micro_model(seed=5)
    b = micro_model(seed=5)
    for (na, ta), (nb, tb) in zip(a.parameters(), b.parameters()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)


# ---------------------------------------------------------------------------
# shape audit and gradient flow


def _audit_sample(vocab, positions):
    program = [RelationalTuple("r0", ("a0", "a1", "a2")[:positions]),
               RelationalTuple("r1", ("#0", "a0", "a1")[:positions])]
    return Sample(id="audit", text=["w0", "w1", "w2"], program=program)


@pytest.mark.parametrize("dims", [MATHQA, ALGOLISP], ids=["mathqa", "algolisp"])
def test_shape_audit_full_forward_pass(dims):
    """A complete teacher-forced step runs without shape errors at both
    published configurations."""
    vocab = tiny_vocab()
    model = build_model(ModelVariant(), dims, vocab, np.random.default_rng(0))
    enc = encode_sample(_audit_sample(vocab, dims.positions), vocab, dims.positions)
    with GradientTape():
        loss = sample_loss(model, enc)
        backward(loss)
    assert np.isfinite(loss.item())
    for name, t in model.parameters():
        assert t.grad is None or t.grad.shape == t.data.shape, name


@pytest.mark.parametrize("encoder,decoder", [("tpr", "tpr"), ("tpr", "lstm"),
                                             ("lstm", "tpr"), ("lstm", "lstm")])
def test_gradient_flow_all_variants(encoder, decoder):
    """Finite differences agree with the tape on sampled parameter entries."""
    vocab = tiny_vocab()
    model = build_model(ModelVariant(encoder, decoder), MICRO, vocab,
                        np.random.default_rng(1))
    enc = encode_sample(_audit_sample(vocab, 2), vocab, 2)

    def loss_value():
        return sample_loss(model, enc).item()

    with GradientTape():
        backward(sample_loss(model, enc))
    rng = np.random.default_rng(2)
    h = 1e-5
    for name, t in model.parameters():
        flat = t.data.reshape(-1)
        grad = (t.grad if t.grad is not None else np.zeros(t.data.shape)).reshape(-1)
        for k in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[k]
            flat[k] = orig + h
            hi = loss_value()
            flat[k] = orig - h
            lo = loss_value()
            flat[k] = orig
            fd = (hi - lo) / (2 * h)
            denom = max(abs(fd), abs(grad[k]), 1e-4)
            assert abs(fd - grad[k]) / denom < 1e-3, f"{name}[{k}]"


# ---------------------------------------------------------------------------
# fused LSTM cell

GATE_NAMES = [f"{kind}_{gate}" for gate in "fgio" for kind in "uvb"]


def _gate_slices(cell: LstmParams, kind: str, gate: str, part: int = 0):
    """(tensor, index) of one gate block inside the fused ``w`` or ``b``: the
    rows of the ``part``-th cell of a stacked cell, the whole block of a single one."""
    h, r, k = cell.hidden, cell.recurrent, "fgio".index(gate)
    rows = slice(k * h + part * r, k * h + (part + 1) * r)
    if kind == "b":
        return cell.b, rows
    return cell.w, (rows, slice(None, -r) if kind == "u" else slice(-r, None))


def _unstacked(cell: LstmParams) -> list[LstmParams]:
    """Each cell of a stacked cell as its own ``LstmParams``, from its rows of every gate block."""
    h, r = cell.hidden, cell.recurrent
    rows = [np.concatenate([np.arange(k * h + j * r, k * h + (j + 1) * r) for k in range(4)])
            for j in range(cell.cells)]
    return [LstmParams(Tensor(cell.w.data[i]), Tensor(cell.b.data[i])) for i in rows]


def _four_gate_cell(p, x, h_prev, c_prev):
    """The former cell: eight matrix-vector products over 12 per-gate tensors."""
    def gate(k):
        return add(matmul(p[f"u_{k}"], x), matmul(p[f"v_{k}"], h_prev, p[f"b_{k}"]))

    f, g, i, o = sigmoid(gate("f")), tanh(gate("g")), sigmoid(gate("i")), sigmoid(gate("o"))
    c = add(mul(f, c_prev), mul(i, g))
    h = mul(o, tanh(c))
    return h, c


@pytest.mark.parametrize("in_dim, hidden", [(8, 20), (40, 1000)], ids=["micro", "mathqa"])
def test_fused_cell_matches_four_gate_maths(in_dim, hidden):
    """Two recurrent steps: h, c and every grad block agree within 1e-12
    relative (to the largest entry of the reference)."""
    rng = np.random.default_rng(21)
    cell = LstmParams.random(rng, in_dim, hidden)
    gates = {n: Tensor(getattr(cell, n), requires_grad=True) for n in GATE_NAMES}
    inputs = [rng.uniform(-1, 1, in_dim), rng.uniform(-1, 1, in_dim),
              rng.uniform(-1, 1, hidden), rng.uniform(-1, 1, hidden)]
    weights_h, weights_c = rng.uniform(-1, 1, hidden), rng.uniform(-1, 1, hidden)

    def run(step):
        xs = [Tensor(a, requires_grad=True) for a in inputs]
        with GradientTape():
            h1, c1 = step(xs[0], xs[2], xs[3])
            h, c = step(xs[1], h1, c1)
            backward(add(sum_all(mul(h, Tensor(weights_h))), sum_all(mul(c, Tensor(weights_c)))))
        return h.data, c.data, [x.grad for x in xs]

    fused = run(lambda x, h, c: lstm_cell(cell.w, cell.b, [x, h], c))
    old = run(lambda x, h, c: _four_gate_cell(gates, x, h, c))
    pairs = [(fused[0], old[0]), (fused[1], old[1])] + list(zip(fused[2], old[2]))
    for n in GATE_NAMES:
        t, idx = _gate_slices(cell, n[0], n[2])
        pairs.append((t.grad[idx], gates[n].grad))
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_fused_cell_draws_the_former_initial_weights():
    """Each gate block equals, bit for bit, its draw in the former order:
    four (H, in), then four (H, H), then four (H,), each in gate order f, g, i, o."""
    cell = LstmParams.random(np.random.default_rng(13), 6, 5)
    replay = np.random.default_rng(13)
    draws = {}
    for kind, shape in (("u", (5, 6)), ("v", (5, 5)), ("b", (5,))):
        for gate in "fgio":
            draws[f"{kind}_{gate}"] = replay.uniform(-0.1, 0.1, size=shape)
    for n in GATE_NAMES:
        t, idx = _gate_slices(cell, n[0], n[2])
        assert np.array_equal(t.data[idx], draws[n]), n
        assert np.array_equal(getattr(cell, n), draws[n]), n


def test_fused_cell_layout_and_read_only_views():
    cell = LstmParams.random(np.random.default_rng(0), 3, 4)
    assert cell.w.shape == (16, 7) and cell.b.shape == (16,)
    assert [n for n, _ in named_tensors(cell, "x")] == ["x.w", "x.b"]
    assert cell.u_g.shape == (4, 3) and cell.v_o.shape == (4, 4) and cell.b_i.shape == (4,)
    with pytest.raises(ValueError):
        cell.v_f[0, 0] = 1.0
    cell.w.data[4, 5] = 2.5     # the views follow the fused weight
    assert cell.v_g[0, 2] == 2.5
    assert len(micro_model(dims=MATHQA).parameters()) == 19


@pytest.mark.parametrize("lead", [(), (3,)], ids=["vector", "rows"])
def test_stacked_cell_is_the_two_cell_maths(lead):
    """One step of the encoder's stacked cell is one step of the filler cell and
    one of the role cell, each computed by the per-gate reference maths from its
    rows of the stacked blocks: ``h = [h_f | h_r]`` and ``c = [c_f | c_r]``."""
    rng = np.random.default_rng(8)
    cell = LstmParams.random(rng, 8, 6, cells=2)
    x, prev = rng.uniform(-1, 1, lead + (8,)), rng.uniform(-1, 1, lead + (6,))
    cells = rng.uniform(-1, 1, lead + (12,))
    h, c = lstm_cell(cell.w, cell.b, [Tensor(x), Tensor(prev)], Tensor(cells))
    for j, part in enumerate(_unstacked(cell)):
        gates = {n: Tensor(getattr(part, n)) for n in GATE_NAMES}
        own = slice(j * 6, (j + 1) * 6)
        h_j, c_j = _four_gate_cell(gates, Tensor(x), Tensor(prev), Tensor(cells[..., own]))
        assert np.abs(h.data[..., own] - h_j.data).max() <= 1e-12
        assert np.abs(c.data[..., own] - c_j.data).max() <= 1e-12


def test_stacked_cell_draws_two_cells_in_turn():
    """The stacked cell's blocks are, bit for bit, two single-cell draws from an
    equally seeded generator: the filler cell's, then the role cell's."""
    stacked = LstmParams.random(np.random.default_rng(4), 6, 5, cells=2)
    replay = np.random.default_rng(4)
    for got, want in zip(_unstacked(stacked), [LstmParams.random(replay, 6, 5) for _ in "fr"]):
        assert np.array_equal(got.w.data, want.w.data) and np.array_equal(got.b.data, want.b.data)
    assert stacked.w.shape == (40, 11) and stacked.b.shape == (40,)
    assert stacked.u_f.shape == (10, 6) and stacked.v_o.shape == (10, 5)
    assert [n for n, _ in named_tensors(stacked, "x")] == ["x.w", "x.b"]


@pytest.mark.parametrize("encoder, nodes", [("tpr", 3), ("lstm", 2)])
def test_tape_nodes_per_encoder_position(encoder, nodes):
    """One more token costs the binding encoder 3 tape nodes (the embedding,
    one ``lstm_cell`` for the stacked cell, whose ``h`` and ``c`` are its two
    outputs, and one ``soft_bind`` for the selections and the binding) and the
    LSTM encoder 2."""
    model = micro_model(variant=ModelVariant(encoder, "tpr"))
    counts = []
    for ids in ([1, 2, 3], [1, 2, 3, 4]):
        with GradientTape() as tape:
            encode_sequence(ids, model.encoder)
        counts.append(len(tape))
    assert counts[1] - counts[0] == nodes


@pytest.mark.parametrize("decoder", ["tpr", "lstm"])
def test_tape_nodes_per_teacher_forced_decoder_step(decoder):
    """One more target tuple costs either decoder 4 tape nodes at 2 and at 3
    argument positions: the relation's embedding, one embedding of every
    argument, one ``lstm_cell`` that joins them with the state and returns ``h``
    and ``c``, and one ``attend``; the heads score every step in one pass."""
    for positions in (2, 3):
        model = micro_model(dims=dataclasses.replace(MICRO, positions=positions),
                            variant=ModelVariant("tpr", decoder))
        counts = []
        for steps in (2, 3):
            with GradientTape() as tape:
                teacher_forced_logits(model, [1, 2, 3], np.full((steps, 1 + positions), 4))
            counts.append(len(tape))
        assert counts[1] - counts[0] == 4, positions


@pytest.mark.parametrize("decoder, nodes", [("tpr", 6), ("lstm", 2)])
@pytest.mark.parametrize("positions", [2, 3])
def test_tape_nodes_per_head_pass(decoder, nodes, positions):
    """A head pass over stacked states records 6 nodes for the TPR decoder at any
    number of positions (the slabs' product, their sum, the dual map, the relation
    classifier, the argument contraction and the argument classifier) and 2 for
    the LSTM decoder (its relation and argument heads)."""
    dims = dataclasses.replace(MICRO, positions=positions)
    model = micro_model(dims=dims, variant=ModelVariant("tpr", decoder))
    hidden = Tensor(np.random.default_rng(0).standard_normal((3, 4, model.decoder.lstm.hidden)),
                    requires_grad=True)
    with GradientTape() as tape:
        rel_logits, arg_logits, _ = model.head_logits(hidden)
    assert len(tape) == nodes
    assert rel_logits.shape == (3, 4, 6) and arg_logits.shape == (3, 4, positions, 7)


@pytest.mark.parametrize("encoder,decoder", [("tpr", "tpr"), ("lstm", "lstm")])
def test_gradient_flow_every_gate_block(encoder, decoder):
    """Finite differences agree with the tape on 2 entries of every gate block
    (u, v and b of f, g, i and o) of every LSTM cell; on the encoder's stacked
    cell, 2 from the filler cell's rows and 2 from the role cell's."""
    vocab = tiny_vocab()
    model = build_model(ModelVariant(encoder, decoder), MICRO, vocab,
                        np.random.default_rng(1))
    enc = encode_sample(_audit_sample(vocab, 2), vocab, 2)
    with GradientTape():
        backward(sample_loss(model, enc))
    assert model.encoder.lstm.cells == (2 if encoder == "tpr" else 1)
    rng = np.random.default_rng(3)
    h = 1e-5
    for k, cell in enumerate([model.encoder.lstm, model.decoder.lstm]):
        for n, part in [(n, part) for n in GATE_NAMES for part in range(cell.cells)]:
            t, idx = _gate_slices(cell, n[0], n[2], part)
            block, grad = t.data[idx], t.grad[idx]
            for flat in rng.choice(block.size, size=2, replace=False):
                pos = np.unravel_index(flat, block.shape)
                orig = block[pos]
                block[pos] = orig + h
                hi = sample_loss(model, enc).item()
                block[pos] = orig - h
                lo = sample_loss(model, enc).item()
                block[pos] = orig
                fd = (hi - lo) / (2 * h)
                denom = max(abs(fd), abs(grad[pos]), 1e-4)
                assert abs(fd - grad[pos]) / denom < 1e-3, f"cell {k}.{part} {n}{pos}"
