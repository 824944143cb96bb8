"""Tensor op examples, gradient checks against finite differences, Adam."""

import math
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tpn2f.model as model_mod
import tpn2f.tensor as tensor_mod
from tpn2f.data import build_vocabularies, preprocess_samples
from tpn2f.model import LstmParams, build_model
from tpn2f.synthetic import make_micro_dataset, micro_config
from tpn2f.tensor import (
    AdamState,
    GradientTape,
    ParameterError,
    RankError,
    ShapeError,
    StateError,
    TapeError,
    Tensor,
    adam_step,
    add,
    attend,
    backward,
    clip_gradients,
    concat,
    contract_last,
    cross_entropy,
    embedding_row,
    flatten,
    lstm_cell,
    matmul,
    mul,
    outer_product,
    reshape,
    scale,
    sigmoid,
    soft_bind,
    softmax_with_temperature,
    stack_rows,
    sum_all,
    tanh,
    transpose,
)
from tpn2f.training import encode_samples, mathqa_preset, minibatch_loss, sample_loss

finite_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences, the oracle for every backward rule."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        hi = f()
        flat[k] = orig - h
        lo = f()
        flat[k] = orig
        gf[k] = (hi - lo) / (2 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
    return float((np.abs(a - b) / denom).max())


# ---------------------------------------------------------------------------
# forward examples


def test_matmul_identity():
    out = matmul(Tensor(np.eye(2)), Tensor([7.0, -1.0]))
    assert np.array_equal(out.data, [7.0, -1.0])


def test_matmul_hand_value():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([5.0, 6.0]))
    assert np.array_equal(out.data, [17.0, 39.0])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


def test_matmul_of_rows_is_the_product_with_each_row():
    w = np.arange(6.0).reshape(2, 3)
    rows = np.array([[1.0, 0.0, 2.0], [0.5, -1.0, 3.0]])
    out = matmul(Tensor(w), Tensor(rows))
    assert np.array_equal(out.data, np.stack([w @ r for r in rows]))
    cube = np.arange(12.0).reshape(2, 2, 3)
    assert matmul(Tensor(w), Tensor(cube)).shape == (2, 2, 2)


def test_outer_basis():
    out = outer_product(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))
    assert np.array_equal(out.data, [[0.0, 1.0], [0.0, 0.0]])


def test_outer_hand_value():
    out = outer_product(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [[3.0, 4.0], [6.0, 8.0]])


def test_outer_zero_annihilates():
    out = outer_product(Tensor([0.0, 0.0]), Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, np.zeros((2, 2)))


def test_outer_rejects_matrix():
    with pytest.raises(RankError):
        outer_product(Tensor(np.ones((2, 2))), Tensor([1.0, 2.0]))


def test_contract_last_order3():
    t = Tensor(np.array([2.0, 5.0]).reshape(1, 1, 2))
    out = contract_last(t, Tensor([1.0, 0.0]))
    assert np.array_equal(out.data, [[2.0]])


def test_contract_last_zero_vector():
    t = Tensor(np.arange(8.0).reshape(2, 2, 2))
    out = contract_last(t, Tensor([0.0, 0.0]))
    assert np.array_equal(out.data, np.zeros((2, 2)))


def test_contract_last_matches_matvec():
    out = contract_last(Tensor([[2.0, 0.0], [3.0, 3.0]]), Tensor([1.0, -1.0]))
    assert np.array_equal(out.data, [2.0, 0.0])


def test_contract_last_extent_mismatch():
    with pytest.raises(ShapeError):
        contract_last(Tensor(np.ones((2, 3))), Tensor(np.ones(2)))
    for rows in ((3, 2, 5), (2, 5)):   # leading axes differ from (2, 3), or are fewer
        with pytest.raises(ShapeError):
            contract_last(Tensor(np.ones((2, 3, 4, 5))), Tensor(np.ones(rows)))


def test_softmax_symmetry():
    out = softmax_with_temperature(Tensor([1.0, 1.0]), 0.1)
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_temperature_scales_logits():
    out = softmax_with_temperature(Tensor([0.1, 0.2]), 0.1)
    assert np.allclose(out.data, [0.26894, 0.73106], atol=1e-4)


def test_softmax_uniform_on_zeros():
    out = softmax_with_temperature(Tensor([0.0, 0.0, 0.0]), 7.3)
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_rejects_bad_temperature():
    with pytest.raises(ParameterError):
        softmax_with_temperature(Tensor([1.0, 2.0]), 0.0)


@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8),
       st.floats(min_value=0.05, max_value=10.0))
def test_softmax_sums_to_one(logits, temperature):
    out = softmax_with_temperature(Tensor(logits), temperature)
    assert abs(out.data.sum() - 1.0) <= 1e-12
    assert (out.data >= 0).all()


@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=6),
       st.permutations(range(6)))
def test_softmax_permutation_equivariant(logits, perm):
    perm = [p for p in perm if p < len(logits)]
    x = np.array(logits)
    p = np.array(perm)
    direct = softmax_with_temperature(Tensor(x[p]), 0.7).data
    permuted = softmax_with_temperature(Tensor(x), 0.7).data[p]
    assert np.allclose(direct, permuted, atol=1e-12)


@given(st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=6))
def test_softmax_sharpening_monotonicity(logits):
    x = np.array(logits)
    if np.ptp(x) < 1e-6:
        return  # uniform logits carry no preference to sharpen
    hot = softmax_with_temperature(Tensor(x), 0.2).data.max()
    cold = softmax_with_temperature(Tensor(x), 1.0).data.max()
    assert hot > cold


def test_sigmoid_tanh_examples():
    assert sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5, abs=1e-15)
    assert tanh(Tensor([0.0])).data[0] == 0.0
    assert sigmoid(Tensor([2.0])).data[0] == pytest.approx(0.88080, abs=1e-4)


def test_binary_ops_require_equal_shapes():
    with pytest.raises(ShapeError):
        add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError):
        mul(Tensor(np.ones((2, 2))), Tensor(np.ones(4)))


def test_add_of_rows_and_a_vector_is_a_shape_error():
    """``add`` has one shape rule; a bias is added by ``matmul``."""
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((3, 2))), Tensor(np.ones(2)))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones(3)), Tensor(np.ones(3)))


def _record_if_taping(out, inputs, backward_fn):
    """``out``, recorded as an op of ``inputs`` when ``tensor._taping`` says it is one,
    as every op of ``tensor`` calls ``_record``."""
    return tensor_mod._record(out, inputs, backward_fn) if tensor_mod._taping(inputs) else out


def _former_bias_add(a: Tensor, b: Tensor) -> Tensor:
    """Reference: the former ``add`` of rows ``a`` and a bias vector ``b``, a node of its own."""
    return _record_if_taping(Tensor(a.data + b.data), (a, b),
                             lambda g: (g, g.reshape(-1, b.size).sum(axis=0)))


@pytest.mark.parametrize("lead", [(), (2, 3)], ids=["vector", "rows"])
def test_matmul_bias_equals_a_separate_add_bit_for_bit(lead):
    """``matmul(w, x, b)`` gives the values and the grads of ``w``, ``x`` and ``b``
    of a product followed by a bias add, bit for bit, in one tape node instead of two."""
    rng = np.random.default_rng(17)
    arrays = rng.uniform(-1, 1, (4, 5)), rng.uniform(-1, 1, lead + (5,)), rng.uniform(-1, 1, 4)
    weights = Tensor(rng.uniform(-1, 1, lead + (4,)))

    def run(affine):
        w, x, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        with GradientTape() as tape:
            y = affine(w, x, b)
            backward(sum_all(mul(tanh(y), weights)))
        return [y.data, w.grad, x.grad, b.grad], len(tape)

    bias_add = _former_bias_add if lead else add
    (fused, nodes), (separate, separate_nodes) = run(matmul), run(
        lambda w, x, b: bias_add(matmul(w, x), b))
    for got, want in zip(fused, separate, strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert nodes == separate_nodes - 1


def _composed_soft_bind(h_f, h_r, w_filler_attn, w_role_attn, fillers, roles, temperature):
    """Reference: the binding encoder's former step after its cell, seven tape nodes,
    from the two halves of ``h``."""
    a_f = softmax_with_temperature(matmul(w_filler_attn, h_f), temperature)
    a_r = softmax_with_temperature(matmul(w_role_attn, h_r), temperature)
    f, r = matmul(fillers, a_f), matmul(roles, a_r)
    return flatten(outer_product(f, r), f.ndim - 1), a_f.data, a_r.data


def _composed_attend(h, memory, combine, mask=None):
    """Reference: the decoder's former attention and combining layer, six tape nodes."""
    weights = softmax_with_temperature(contract_last(memory, h), 1.0, mask)
    summary = contract_last(transpose(memory), weights)
    return tanh(matmul(combine, concat([h, summary]))), weights.data


def _fused_against_composed(op, leaf_arrays, step_inputs, prepare=lambda *leaves: leaves,
                            pieces=1):
    """Two steps of ``op`` on what ``prepare`` makes of the leaves, each step on
    its own produced ``h`` (given as ``pieces`` equal leaves, each through its own
    tanh), under one weighted loss: the outputs, the op's off-tape scores, every
    leaf's grad (a step's pieces' joined) and the tape's node count."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in leaf_arrays]
    steps = [[Tensor(p.copy(), requires_grad=True) for p in np.split(x, pieces, axis=-1)]
             for x in step_inputs]
    with GradientTape() as tape:
        args = prepare(*leaves)
        outs = [op(*map(tanh, step), *args) for step in steps]
        weights = Tensor(np.linspace(-1.0, 1.5, outs[0][0].size).reshape(outs[0][0].shape))
        losses = [sum_all(mul(tanh(out), weights)) for out, *_ in outs]
        backward(add(*losses))
    values = [a for out, *scores in outs for a in (out.data, *scores)]
    grads = [t.grad for t in leaves] + [np.concatenate([p.grad for p in step], axis=-1)
                                        for step in steps]
    return values, grads, len(tape)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["vector", "rows"])
def test_soft_bind_equals_the_composed_ops_bit_for_bit(lead):
    """``soft_bind`` gives the binding, the scores and the grads of ``h`` and of
    the four weights of two attention softmaxes, two selections and the
    flattened outer product on ``h``'s halves, bit for bit, in one tape node
    instead of seven (the halves take a tanh each, one node more per step)."""
    rng = np.random.default_rng(29)
    leaf_arrays = [rng.uniform(-1, 1, s) for s in ((7, 5), (6, 5), (4, 7), (3, 6))]
    step_inputs = [rng.uniform(-2, 2, lead + (10,)) for _ in range(2)]
    fused = _fused_against_composed(lambda h, *w: soft_bind(h, *w, 0.1), leaf_arrays, step_inputs)
    composed = _fused_against_composed(lambda *h_w: _composed_soft_bind(*h_w, 0.1),
                                       leaf_arrays, step_inputs, pieces=2)
    for got, want in zip(fused[0] + fused[1], composed[0] + composed[1], strict=True):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert fused[0][0].shape == lead + (12,)
    assert fused[2] == composed[2] - 2 * (6 + 1)


@pytest.mark.parametrize("lead, masked", [((), False), ((3,), False), ((3,), True)],
                         ids=["vector", "rows", "rows_masked"])
def test_attend_equals_the_composed_ops_bit_for_bit(lead, masked):
    """``attend`` gives the combined state, the weights and the grads of ``h``,
    of the memory (here produced, read by both steps) and of the combining
    weight of the scores, masked softmax, summary, concat, product and tanh,
    bit for bit, in one tape node instead of six."""
    rng = np.random.default_rng(31)
    leaf_arrays = [rng.uniform(-1, 1, s) for s in ((6, 5), lead + (4, 5), (6, 12))]
    step_inputs = [rng.uniform(-2, 2, lead + (6,)) for _ in range(2)]
    mask = np.array([[True, True, False, True], [False, True, False, False],
                     [True] * 4]) if masked else None

    def steps(attention):   # the memory projected once, as the model does
        return _fused_against_composed(
            lambda h, memory, combine: attention(h, memory, combine, mask), leaf_arrays,
            step_inputs, lambda w_context, contexts, combine: (matmul(w_context, contexts), combine))

    fused, composed = steps(attend), steps(_composed_attend)
    for got, want in zip(fused[0] + fused[1], composed[0] + composed[1], strict=True):
        assert got.shape == want.shape and np.array_equal(got, want)
    if masked:
        assert not fused[0][1][~mask].any()
    assert fused[2] == composed[2] - 2 * 5


def _former_cell_step(w, b, parts, c_prev):
    """The cell's former forward, transcribed: ``concat``, the biased ``matmul``
    and ``lstm_gates`` into one ``[h | c]`` array, of which ``split`` gave views.
    Returns that array and what the backward reads."""
    x = np.concatenate(parts, axis=-1)
    z = x @ w.T
    z += b
    n = c_prev.shape[-1]
    s = np.tanh(0.5 * z)
    s += 1.0
    s *= 0.5
    f, i, o = s[..., :n], s[..., 2 * n:3 * n], s[..., 3 * n:]
    g = np.tanh(z[..., n:2 * n])
    hc = np.empty(c_prev.shape[:-1] + (2 * n,))
    c = np.multiply(f, c_prev, out=hc[..., n:])
    c += i * g
    tc = np.tanh(c)
    np.multiply(o, tc, out=hc[..., :n])
    return hc, (x, s, g, tc, c_prev)


def _former_cell_grads(w, saved, g_hc):
    """Its backward, transcribed: ``lstm_gates``' from ``[g_h | g_c]``, the sum
    of ``split``'s scatters, then the ``matmul``'s.  Returns the grad and input
    rows of ``w``, the grads of ``b`` and of the joined parts, and ``c_prev``'s."""
    x, s, g, tc, c_prev = saved
    n = c_prev.shape[-1]
    f, i, o = s[..., :n], s[..., 2 * n:3 * n], s[..., 3 * n:]
    gh = g_hc[..., :n]
    gc = g_hc[..., n:] + gh * o * (1.0 - tc * tc)
    gz = s * (1.0 - s)
    gz[..., :n] *= gc * c_prev
    gz[..., n:2 * n] = gc * i * (1.0 - g * g)
    gz[..., 2 * n:3 * n] *= gc * g
    gz[..., 3 * n:] *= gh * tc
    rows = gz.reshape(-1, 4 * n)
    return rows, x.reshape(-1, x.shape[-1]), rows.sum(axis=0), gz @ w, gc * f


@pytest.mark.parametrize("cell", ["encoder", "decoder"])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["vector", "rows"])
def test_lstm_cell_equals_the_former_cell_bit_for_bit(cell, lead):
    """Two steps of ``lstm_cell`` give the former cell's ``h``, ``c`` and every
    grad (``w``, ``b``, each input part and the initial ``c``) bit for bit: the
    binding encoder's stacked two-cell layout with a recurrent input of its own
    each step, and a decoder cell of three embeddings whose second step reads
    the first's ``h``.  The loss weighs both steps' ``h`` and neither ``c``, so
    the last step's ``c`` has no grad and sends zeros."""
    rng = np.random.default_rng(37)
    if cell == "encoder":
        params, sizes = LstmParams.random(rng, 5, 4, cells=2), [5, 4]
    else:
        params, sizes = LstmParams.random(rng, 6, 5), [2, 2, 2, 5]
    w, b, n = params.w.data, params.b.data, params.hidden
    steps = [[rng.uniform(-1, 1, lead + (k,)) for k in sizes] for _ in range(2)]
    c0, u = rng.uniform(-1, 1, lead + (n,)), rng.uniform(-1, 1, (2,) + lead + (n,))

    hc1, saved1 = _former_cell_step(w, b, steps[0], c0)
    if cell == "decoder":
        steps[1][-1] = hc1[..., :n]
    hc2, saved2 = _former_cell_step(w, b, steps[1], hc1[..., n:])
    rows2, x2, gb2, gx2, gc1 = _former_cell_grads(w, saved2, np.concatenate(
        [u[1], np.zeros(lead + (n,))], axis=-1))
    gh1 = u[0] + gx2[..., -n:] if cell == "decoder" else u[0]
    rows1, x1, gb1, gx1, gc0 = _former_cell_grads(w, saved1, np.concatenate([gh1, gc1], -1))
    ends = np.cumsum(sizes)[:-1]
    want = ([hc1[..., :n], hc1[..., n:], hc2[..., :n], hc2[..., n:],
             np.concatenate([rows2, rows1]).T @ np.concatenate([x2, x1]), gb2 + gb1, gc0]
            + np.split(gx1, ends, axis=-1) + np.split(gx2, ends, axis=-1))
    if cell == "decoder":
        want.pop()   # the second step's recurrent part is the first's h, no leaf

    w_t, b_t = (Tensor(a, requires_grad=True) for a in (w, b))
    c0_t = Tensor(c0, requires_grad=True)
    parts = [[Tensor(a, requires_grad=True) for a in step] for step in steps]
    with GradientTape():
        h1, c1 = lstm_cell(w_t, b_t, parts[0], c0_t)
        if cell == "decoder":
            parts[1][-1] = h1
        h2, c2 = lstm_cell(w_t, b_t, parts[1], c1)
        backward(add(sum_all(mul(h1, Tensor(u[0]))), sum_all(mul(h2, Tensor(u[1])))))
    got = ([h1.data, c1.data, h2.data, c2.data, w_t.grad, b_t.grad, c0_t.grad]
           + [p.grad for p in parts[0]] + [p.grad for p in parts[1] if p is not h1])
    for g, want_g in zip(got, want, strict=True):
        assert g.shape == want_g.shape and np.array_equal(g, want_g)
    assert all(t.grad is None for t in (h1, c1, h2, c2))


def _halves(t: Tensor) -> tuple[Tensor, Tensor]:
    """A two-output op: the two halves of ``t``'s last axis, as new arrays."""
    n = t.shape[-1] // 2
    return _record_if_taping((Tensor(t.data[..., :n].copy()), Tensor(t.data[..., n:].copy())),
                             (t,), lambda grads: (np.concatenate(grads, axis=-1),))


@pytest.mark.parametrize("uses", ["first", "second", "first_then_second", "second_then_first",
                                  "neither"])
def test_a_node_with_two_outputs(uses):
    """Both outputs of a two-output node require grad; the node is replayed
    once, when either output has a grad, and an output with none sends zeros;
    consumers recorded in either order give the same grads; afterwards no
    output holds a grad.  With neither output used the node is skipped."""
    rng = np.random.default_rng(41)
    t = Tensor(rng.uniform(-1, 1, (2, 6)), requires_grad=True)
    weights = [rng.uniform(-1, 1, (2, 3)) for _ in range(2)]
    other = Tensor(rng.uniform(-1, 1, (2, 6)), requires_grad=True)
    order = {"first": [0], "second": [1], "first_then_second": [0, 1],
             "second_then_first": [1, 0], "neither": []}[uses]
    with GradientTape():
        halves = _halves(t)
        assert all(h.requires_grad for h in halves)
        loss = sum_all(other)
        for k in order:
            loss = add(loss, sum_all(mul(halves[k], Tensor(weights[k]))))
        backward(loss)
    want = [weights[k] if k in order else np.zeros((2, 3)) for k in range(2)]
    if order:
        assert np.array_equal(t.grad, np.concatenate(want, axis=-1))
    else:
        assert t.grad is None
    assert all(h.grad is None for h in halves) and other.grad is not None


def test_fused_ops_reject_mismatched_extents():
    h, w = Tensor(np.ones(10)), Tensor(np.ones((7, 5)))
    with pytest.raises(ShapeError):
        soft_bind(h, w, Tensor(np.ones((6, 4))), Tensor(np.ones((4, 7))), Tensor(np.ones((3, 6))), 0.1)
    with pytest.raises(ShapeError):
        soft_bind(h, w, Tensor(np.ones((6, 5))), Tensor(np.ones((4, 6))), Tensor(np.ones((3, 6))), 0.1)
    with pytest.raises(ParameterError):
        soft_bind(h, w, Tensor(np.ones((6, 5))), Tensor(np.ones((4, 7))), Tensor(np.ones((3, 6))), 0.0)
    memory, combine = Tensor(np.ones((2, 4, 6))), Tensor(np.ones((6, 12)))
    with pytest.raises(ShapeError):
        attend(Tensor(np.ones((3, 6))), memory, combine)
    with pytest.raises(ShapeError):
        attend(Tensor(np.ones((2, 6))), memory, Tensor(np.ones((6, 11))))
    with pytest.raises(ShapeError):
        attend(Tensor(np.ones((2, 6))), memory, combine, np.ones((2, 3), bool))
    w, b, c = Tensor(np.ones((8, 5))), Tensor(np.ones(8)), Tensor(np.ones(2))
    with pytest.raises(ShapeError):
        lstm_cell(w, b, [Tensor(np.ones(3)), Tensor(np.ones(3))], c)
    with pytest.raises(ShapeError):
        lstm_cell(w, Tensor(np.ones(4)), [Tensor(np.ones(5))], c)
    with pytest.raises(ShapeError):
        lstm_cell(Tensor(np.ones((7, 5))), b, [Tensor(np.ones(5))], c)
    with pytest.raises(ShapeError):
        lstm_cell(w, b, [Tensor(np.ones((3, 5)))], Tensor(np.ones((2, 2))))
    with pytest.raises(RankError):
        lstm_cell(w, b, [Tensor(np.ones((3, 2))), Tensor(np.ones((2, 3)))], c)


def test_ops_outside_a_tape_return_plain_float64_arrays():
    """Without an active tape an op returns a tensor around a float64 ndarray
    (never a numpy scalar) that asks for no grad and views nothing, even when
    its inputs require grad."""
    x = Tensor(np.linspace(-1, 1, 10), requires_grad=True)
    w = Tensor(np.ones((7, 5)), requires_grad=True)
    outs = [matmul(w, reshape(x, (2, 5))), tanh(x), softmax_with_temperature(x, 0.5),
            contract_last(x, x), sum_all(x), cross_entropy(x, 3),
            soft_bind(x, w, Tensor(np.ones((6, 5))), Tensor(np.ones((4, 7))),
                      Tensor(np.ones((3, 6))), 0.1)[0],
            attend(Tensor(np.ones(5)), Tensor(np.ones((3, 5))), Tensor(np.ones((5, 10)), True))[0],
            *lstm_cell(Tensor(np.ones((8, 12)), True), Tensor(np.ones(8), True),
                       [x, Tensor(np.ones(2))], Tensor(np.ones(2), True))]
    for out in outs:
        assert type(out.data) is np.ndarray and out.data.dtype == np.float64
        assert not out.requires_grad and out.grad is None and out.source is None


def test_cross_entropy_examples():
    assert cross_entropy(Tensor([100.0, 0.0]), 0).item() == pytest.approx(0.0, abs=1e-12)
    assert cross_entropy(Tensor([0.3, 0.3, 0.3, 0.3]), 2).item() == pytest.approx(
        math.log(4), abs=1e-12)
    assert cross_entropy(Tensor([1.0, 2.0]), 0).item() == pytest.approx(1.31326, abs=1e-4)


def test_cross_entropy_index_check():
    with pytest.raises(IndexError):
        cross_entropy(Tensor([1.0, 2.0]), 2)


def test_cross_entropy_rows_are_a_weighted_sum():
    logits = np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 2.0], [4.0, 0.0, 0.0]])
    targets, weights = np.array([1, 2, 0]), np.array([1.0, 0.0, 2.5])
    want = sum(w * cross_entropy(Tensor(row), t).item()
               for row, t, w in zip(logits, targets, weights))
    x = Tensor(logits, requires_grad=True)
    with GradientTape():
        loss = cross_entropy(x, targets, weights)
        backward(loss)
    assert loss.item() == pytest.approx(want, rel=1e-14)
    assert np.array_equal(x.grad[1], np.zeros(3))   # a row of weight 0 gets no grad
    with pytest.raises(ShapeError):
        cross_entropy(x, np.array([0, 1]))


def test_softmax_mask_gives_weight_exactly_zero():
    logits = Tensor(np.array([[3.0, 1.0, 2.0], [0.5, 0.5, 9.0]]), requires_grad=True)
    mask = np.array([[True, False, True], [True, True, False]])
    with GradientTape():
        y = softmax_with_temperature(logits, 1.0, mask)
        backward(sum_all(mul(y, Tensor(np.arange(6.0).reshape(2, 3)))))
    assert y.data[0, 1] == 0.0 and y.data[1, 2] == 0.0
    assert np.allclose(y.data.sum(axis=1), 1.0, atol=1e-15)
    assert np.allclose(y.data[0, [0, 2]], softmax_with_temperature(Tensor([3.0, 2.0]), 1.0).data)
    assert logits.grad[0, 1] == 0.0 and logits.grad[1, 2] == 0.0


def test_embedding_rows_scatter_add_repeated_ids():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    with GradientTape():
        rows = embedding_row(table, np.array([2, 0, 2]))
        backward(sum_all(mul(rows, Tensor(np.ones((3, 3))))))
    assert np.array_equal(rows.data, table.data[[2, 0, 2]])
    assert np.array_equal(table.grad[:, 0], [1.0, 0.0, 2.0, 0.0])
    with pytest.raises(IndexError):
        embedding_row(table, np.array([1, 4]))
    with pytest.raises(IndexError):
        embedding_row(table, -1)


# ---------------------------------------------------------------------------
# backward


def test_backward_square():
    with GradientTape():
        x = Tensor(3.0, requires_grad=True)
        backward(mul(x, x))
    assert abs(x.grad - 6.0) < 1e-9


def test_backward_disconnected_is_untouched():
    with GradientTape():
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([1.0, 2.0], requires_grad=True)
        backward(sum_all(mul(y, y)))
    assert x.grad is None
    assert np.allclose(y.grad, [2.0, 4.0])


def test_backward_outer_sum():
    with GradientTape():
        a = Tensor([1.0, 1.0], requires_grad=True)
        b = Tensor([1.0, 1.0], requires_grad=True)
        backward(sum_all(outer_product(a, b)))
    assert np.allclose(a.grad, [2.0, 2.0])
    assert np.allclose(b.grad, [2.0, 2.0])


def test_backward_requires_tape_and_scalar():
    with pytest.raises(TapeError):
        backward(Tensor(1.0))
    with GradientTape():
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = add(x, x)
        with pytest.raises(TapeError):
            backward(y)


def test_grad_accumulates_across_uses():
    with GradientTape():
        x = Tensor([2.0], requires_grad=True)
        backward(sum_all(add(mul(x, x), x)))  # d/dx (x^2 + x) = 2x + 1
    assert np.allclose(x.grad, [5.0])


def test_batch_accumulation_uses_one_tape_per_loss():
    """Fresh tape per loss: two losses sharing a parameter sum their grads
    exactly once each (no re-count of the earlier subgraph)."""
    x = Tensor([1.0, 2.0], requires_grad=True)
    for c in (2.0, 3.0):
        with GradientTape():
            backward(sum_all(scale(mul(x, x), c)))  # d/dx c*x^2 = 2cx
    assert np.allclose(x.grad, [2 * 5 * 1.0, 2 * 5 * 2.0])


def test_no_grad_for_requires_grad_false():
    with GradientTape():
        x = Tensor([2.0], requires_grad=False)
        y = Tensor([3.0], requires_grad=True)
        backward(sum_all(mul(x, y)))
    assert x.grad is None


def test_tape_determinism():
    def run():
        rng = np.random.default_rng(42)
        with GradientTape():
            a = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
            b = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
            loss = sum_all(tanh(matmul(a, b)))
            backward(loss)
        return a.grad.copy(), b.grad.copy()

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


@pytest.mark.parametrize("name", [
    "matmul_mat", "matmul_vec", "outer", "contract3", "softmax", "sigmoid",
    "tanh", "add", "mul", "cross_entropy", "reshape", "transpose", "concat",
    "stack", "embed", "scale", "matmul_recurrent", "matmul_produced", "matmul_mixed",
    "matmul_rows_recurrent", "matmul_rows3", "bias_vec", "bias_rows", "outer_rows",
    "contract_rows",
    "contract_rows4",
    "softmax_masked", "cross_entropy_rows", "embed_ids", "stack_rows3",
    "transpose_rows", "reshape_transpose_of_piece", "view_two_consumers",
    "soft_bind", "soft_bind_rows", "attend", "attend_rows", "attend_masked",
    "lstm_cell", "lstm_cell_rows",
])
def test_gradient_check_all_ops(name):
    """Central differences (h=1e-5) vs backward(): relative error < 1e-4."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    xs = [Tensor(rng.uniform(-1, 1, s), requires_grad=True) for s in {
        "matmul_mat": [(3, 4), (2, 4)],
        "matmul_vec": [(3, 4), (4,)],
        "outer": [(3,), (4,)],
        "contract3": [(2, 3, 4), (4,)],
        "softmax": [(5,)],
        "sigmoid": [(4,)],
        "tanh": [(4,)],
        "add": [(3, 2), (3, 2)],
        "mul": [(3, 2), (3, 2)],
        "cross_entropy": [(5,)],
        "reshape": [(2, 6)],
        "transpose": [(3, 4)],
        "concat": [(3,), (2,)],
        "stack": [(3,), (3,)],
        "embed": [(4, 3)],
        "scale": [(3, 2)],
        "matmul_recurrent": [(4, 4), (4,), (4,), (4,)],
        "matmul_produced": [(3, 4), (4,), (4,)],
        "matmul_mixed": [(4, 3), (3,), (4,)],
        "matmul_rows_recurrent": [(4, 4), (3, 4), (3, 4), (3, 4)],
        "matmul_rows3": [(3, 4), (2, 5, 4)],
        "bias_vec": [(3, 4), (4,), (3,)],
        "bias_rows": [(3, 4), (2, 5, 4), (3,)],
        "outer_rows": [(2, 3), (2, 4)],
        "contract_rows": [(2, 3, 4), (2, 4)],
        "contract_rows4": [(2, 3, 4, 5), (2, 3, 5)],
        "softmax_masked": [(3, 5)],
        "cross_entropy_rows": [(4, 5)],
        "embed_ids": [(4, 3)],
        "stack_rows3": [(2, 3), (2, 3)],
        "transpose_rows": [(2, 3, 4)],
        "reshape_transpose_of_piece": [(3, 8)],
        "view_two_consumers": [(3, 4), (3,)],
        "soft_bind": [(6,), (4, 3), (5, 3), (2, 4), (3, 5)],
        "soft_bind_rows": [(2, 6), (4, 3), (5, 3), (2, 4), (3, 5)],
        "attend": [(3,), (4, 3), (2, 6)],
        "attend_rows": [(2, 3), (2, 4, 3), (2, 6)],
        "attend_masked": [(2, 3), (2, 4, 3), (2, 6)],
        "lstm_cell": [(12, 5), (12,), (2,), (3,), (3,)],
        "lstm_cell_rows": [(12, 5), (12,), (2, 2), (2, 3), (2, 3)],
    }[name]]
    weights = Tensor(rng.uniform(-1, 1, (3, 5)))
    mask = np.array([[True, False, True, True, False], [True] * 5, [False, False, True, False, False]])

    def forward():
        if name == "matmul_mat" or name == "matmul_vec":
            return sum_all(tanh(matmul(xs[0], xs[1])))
        if name == "outer":
            return sum_all(tanh(outer_product(xs[0], xs[1])))
        if name == "contract3":
            return sum_all(tanh(contract_last(xs[0], xs[1])))
        if name == "softmax":
            return sum_all(mul(softmax_with_temperature(xs[0], 0.4),
                               softmax_with_temperature(xs[0], 0.4)))
        if name == "sigmoid":
            return sum_all(sigmoid(xs[0]))
        if name == "tanh":
            return sum_all(tanh(xs[0]))
        if name == "add":
            return sum_all(tanh(add(xs[0], xs[1])))
        if name == "mul":
            return sum_all(mul(xs[0], xs[1]))
        if name == "cross_entropy":
            return cross_entropy(xs[0], 2)
        if name == "reshape":
            return sum_all(tanh(reshape(xs[0], (3, 4))))
        if name == "transpose":
            return sum_all(tanh(transpose(xs[0])))
        if name == "concat":
            return sum_all(tanh(concat([xs[0], xs[1]])))
        if name == "stack":
            return sum_all(tanh(stack_rows([xs[0], xs[1]])))
        if name == "embed":
            return sum_all(tanh(embedding_row(xs[0], 1)))
        if name == "scale":
            return sum_all(scale(xs[0], 2.5))
        if name == "matmul_recurrent":  # one leaf weight, a different vector each step
            h = tanh(matmul(xs[0], xs[1]))
            for x in xs[2:]:
                h = tanh(add(matmul(xs[0], h), x))
            return sum_all(h)
        if name == "matmul_produced":  # a produced matrix keeps the immediate outer product
            w = tanh(xs[0])
            return sum_all(tanh(add(matmul(w, xs[1]), matmul(w, xs[2]))))
        if name == "matmul_mixed":  # deferred and immediate grads of one leaf must sum
            w = xs[0]
            return sum_all(tanh(concat([matmul(w, xs[1]),
                                        add(matmul(transpose(w), xs[2]), embedding_row(w, 1))])))
        if name == "matmul_rows_recurrent":  # B x T factor rows stacked for one leaf
            h = tanh(matmul(xs[0], xs[1]))
            for x in xs[2:]:
                h = tanh(add(matmul(xs[0], h), x))
            return sum_all(h)
        if name == "matmul_rows3":
            return sum_all(tanh(matmul(xs[0], xs[1])))
        if name in ("bias_vec", "bias_rows"):   # the bias's grad sums the rows'
            return sum_all(tanh(matmul(xs[0], xs[1], xs[2])))
        if name == "outer_rows":
            return sum_all(tanh(outer_product(xs[0], xs[1])))
        if name in ("contract_rows", "contract_rows4"):
            return sum_all(tanh(contract_last(xs[0], xs[1])))
        if name == "softmax_masked":  # one row fully kept, one with a single entry
            return sum_all(mul(softmax_with_temperature(xs[0], 0.4, mask), weights))
        if name == "cross_entropy_rows":  # the second row has weight 0
            return cross_entropy(xs[0], np.array([2, 0, 4, 1]), np.array([1.0, 0.0, 0.5, 2.0]))
        if name == "embed_ids":  # id 1 repeats
            return sum_all(tanh(embedding_row(xs[0], np.array([1, 3, 1]))))
        if name == "stack_rows3":
            return sum_all(tanh(mul(stack_rows([xs[0], xs[1]]), Tensor(np.arange(12.0).reshape(2, 2, 3)))))
        if name == "transpose_rows":
            return sum_all(tanh(mul(transpose(xs[0]), Tensor(np.arange(24.0).reshape(2, 4, 3)))))
        if name == "reshape_transpose_of_piece":  # views of views, of a leaf and of a produced
            a = transpose(reshape(xs[0], (4, 6)))   # tensor; ``a`` is viewed twice
            b = reshape(transpose(tanh(xs[0])), (4, 6))
            return add(sum_all(tanh(mul(a, transpose(b)))), sum_all(sigmoid(flatten(a))))
        if name == "view_two_consumers":
            v = transpose(tanh(xs[0]))
            return sum_all(tanh(add(matmul(v, xs[1]), contract_last(v, xs[1]))))
        if name in ("soft_bind", "soft_bind_rows"):
            return sum_all(tanh(soft_bind(*xs, 0.4)[0]))
        if name in ("attend", "attend_rows", "attend_masked"):   # a row with one kept entry
            keep = np.array([[True, False, True, True], [False, False, True, False]])
            return sum_all(tanh(attend(*xs, keep if name == "attend_masked" else None)[0]))
        if name in ("lstm_cell", "lstm_cell_rows"):   # c read twice; the last step's c unused
            h, c = lstm_cell(xs[0], xs[1], xs[2:4], xs[4])
            h, _ = lstm_cell(xs[0], xs[1], [xs[2], h], c)
            return add(sum_all(tanh(h)), sum_all(mul(c, c)))
        raise AssertionError(name)

    with GradientTape():
        backward(forward())
    for x in xs:
        fd = numeric_grad(lambda: forward().item(), x.data)
        assert rel_err(x.grad, fd) < 1e-4, f"{name}: gradient mismatch"


def test_views_record_no_tape_node():
    """reshape/flatten and transpose share their input's data and leave the
    tape as it was; a view knows what it views and never holds a grad."""
    t = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    with GradientTape() as tape:
        y = tanh(t)
        nodes = len(tape)
        a, b = reshape(y, (2, 6)), transpose(y)
        v = transpose(reshape(flatten(a), (4, 3)))
        leaf_views = [reshape(t, (12,)), transpose(t)]
        views = [a, b, v, flatten(b), *leaf_views]
        assert len(tape) == nodes
        assert all(np.shares_memory(x.data, y.data) for x in (a, b))
        assert all(np.shares_memory(x.data, t.data) for x in leaf_views)
        assert v.source[0].source[0].source[0] is a and a.source[0] is y
        backward(sum_all(mul(v, v)))
    assert all(x.grad is None for x in views) and t.grad is not None
    assert not transpose(t).requires_grad   # no tape: no grad to pass on


def test_a_view_of_a_leaf_passes_its_matmul_weight_grad_to_the_leaf():
    """A transposed or reshaped leaf used as matmul's weight is not a leaf
    itself: its product is formed at once and lands in the viewed leaf's grad."""
    rng = np.random.default_rng(11)
    w = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    flat = Tensor(rng.uniform(-1, 1, 12), requires_grad=True)
    x = rng.uniform(-1, 1, (5, 4))
    c = rng.uniform(-1, 1, (5, 3))
    with GradientTape():
        w_t, w_r = transpose(w), reshape(flat, (3, 4))
        out = add(matmul(w_t, Tensor(x)), matmul(w_r, Tensor(x)))
        backward(sum_all(mul(out, Tensor(c))))
    assert w_t.grad is None and w_r.grad is None
    assert np.array_equal(w.grad, (c.T @ x).T)
    assert np.array_equal(flat.grad, (c.T @ x).reshape(-1))


def _recorded_reshape(t: Tensor, shape) -> Tensor:
    """Reference view ops: each records a tape node, as these ops once did."""
    orig = t.shape
    return _record_if_taping(Tensor(t.data.reshape(shape)), (t,), lambda g: (g.reshape(orig),))


def _recorded_transpose(t: Tensor) -> Tensor:
    return _record_if_taping(Tensor(t.data.swapaxes(-1, -2)), (t,),
                             lambda g: (g.swapaxes(-1, -2),))


@pytest.mark.parametrize("variant", ["tpr-tpr", "tpr-lstm", "lstm-tpr", "lstm-lstm"])
def test_views_give_the_recorded_view_ops_loss_and_grads_exactly(variant, monkeypatch):
    """A padded micro minibatch's loss and every parameter grad are equal (==)
    whether the model's views pass their grads on at once or record tape nodes."""
    cfg = micro_config()
    cfg.encoder, cfg.decoder = variant.split("-")
    samples = preprocess_samples(make_micro_dataset(8, seed=3), positions=cfg.positions)
    vocab = build_vocabularies(samples)
    model = build_model(cfg.variant(), cfg.dims(), vocab, np.random.default_rng(2))
    batch = encode_samples(samples, vocab, cfg.positions)
    assert len({len(e.token_ids) for e in batch}) > 1

    def loss_and_grads():
        with GradientTape() as tape:
            loss = minibatch_loss(model, batch)
            backward(loss)
        grads = [t.grad for _, t in model.parameters()]
        for _, t in model.parameters():
            t.grad = None
        return loss.item(), grads, len(tape)

    loss, grads, nodes = loss_and_grads()
    for name, op in [("reshape", _recorded_reshape), ("transpose", _recorded_transpose),
                     ("flatten", lambda t, start=0: _recorded_reshape(t, t.shape[:start] + (-1,)))]:
        monkeypatch.setattr(model_mod, name, op)
    want_loss, want, recorded_nodes = loss_and_grads()
    assert recorded_nodes > nodes
    assert loss == want_loss
    for (name, _), got, ref in zip(model.parameters(), grads, want, strict=True):
        assert got is not None and np.array_equal(got, ref), name


def test_matmul_weight_grad_accumulates_across_tapes():
    rng = np.random.default_rng(5)
    w = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    xs = [Tensor(rng.uniform(-1, 1, 4)) for _ in range(2)]

    def run(x):
        with GradientTape():
            backward(sum_all(tanh(matmul(w, x))))

    alone = []
    for x in xs:
        run(x)
        alone.append(w.grad)
        w.grad = None
    for x in xs:
        run(x)
    assert np.allclose(w.grad, alone[0] + alone[1], rtol=1e-12, atol=0.0)


def test_backward_frees_each_nodes_activations_as_it_replays_them():
    """An intermediate tensor the caller no longer holds is gone, data and all,
    when ``backward`` returns, with the tape still active; ``len`` still counts
    every node recorded."""
    rng = np.random.default_rng(6)
    w = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    with GradientTape() as tape:
        h = tanh(matmul(w, Tensor(rng.uniform(-1, 1, (5, 4)))))
        refs = [weakref.ref(h), weakref.ref(h.data)]
        loss = sum_all(mul(h, h))
        del h
        assert all(ref() is not None for ref in refs)
        backward(loss)
        assert all(ref() is None for ref in refs)
        assert len(tape) == 4
    assert w.grad is not None


def test_a_second_backward_on_one_tape_is_a_tape_error():
    """A second ``backward`` in one tape block once added every leaf grad again
    (a 2x3 matmul weight's grad doubled); now it raises and changes no grad."""
    rng = np.random.default_rng(8)
    w = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    with GradientTape():
        loss = sum_all(matmul(w, Tensor(rng.uniform(-1, 1, 3))))
        backward(loss)
        first = w.grad.copy()
        with pytest.raises(TapeError, match="already replayed"):
            backward(loss)
    assert np.array_equal(w.grad, first)


def _outer_per_step_matmul(w: Tensor, x: Tensor, b: Tensor | None = None) -> Tensor:
    """Reference matmul: forms and adds the weight's outer product every step
    (``w`` times the vector ``x``, or times each of the rows ``x`` of any rank),
    plus the bias ``b``."""
    wd, xd = w.data, x.data
    out = Tensor((wd @ xd if xd.ndim == 1 else xd @ wd.T) + (0.0 if b is None else b.data))

    def bw(g):
        rows = g.reshape(-1, g.shape[-1])
        if xd.ndim == 1:
            return np.outer(g, xd), wd.T @ g, g
        return rows.T @ xd.reshape(-1, xd.shape[-1]), g @ wd, rows.sum(axis=0)

    return _record_if_taping(out, (w, x) if b is None else (w, x, b), bw)


@pytest.mark.parametrize("dims", ["micro", "published"])
def test_deferred_weight_grads_match_outer_per_step(dims, monkeypatch):
    """Every parameter grad of one sample equals the per-step outer-product
    rule's within 1e-12 relative; only the summation order differs."""
    cfg = micro_config() if dims == "micro" else mathqa_preset()
    cfg.d_word = 16
    samples = preprocess_samples(make_micro_dataset(2, seed=0), positions=cfg.positions)
    vocab = build_vocabularies(samples)
    model = build_model(cfg.variant(), cfg.dims(), vocab, np.random.default_rng(0))
    enc = encode_samples(samples, vocab, cfg.positions)[1]

    def grads():
        with GradientTape():
            backward(sample_loss(model, enc))
        out = [(n, t.grad) for n, t in model.parameters()]
        for _, t in model.parameters():
            t.grad = None
        return out

    deferred = grads()
    monkeypatch.setattr(model_mod, "matmul", _outer_per_step_matmul)
    # A view of a leaf weight is no leaf: its cell's outer product is formed every step.
    monkeypatch.setattr(model_mod, "lstm_cell",
                        lambda w, b, parts, c: lstm_cell(reshape(w, w.shape), b, parts, c))
    reference = grads()
    for (name, got), (_, want) in zip(deferred, reference):
        if want is None:
            assert got is None, name
            continue
        scale_ = max(float(np.abs(want).max()), 1e-300)
        assert float(np.abs(got - want).max()) / scale_ <= 1e-12, name


def test_flatten_is_view_of_same_values():
    t = Tensor(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(flatten(t).data, np.arange(6.0))


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_magnitude():
    p = Tensor(np.zeros(1), requires_grad=True)
    p.grad = np.array([0.5])
    state = AdamState.for_params([p], learning_rate=0.001)
    adam_step([p], state)
    assert p.data[0] == pytest.approx(-0.001, abs=1e-6)
    assert p.grad is None
    assert state.step_count == 1


def test_adam_zero_grad_fixed_point():
    p = Tensor([1.5, -2.0], requires_grad=True)
    p.grad = np.zeros(2)
    state = AdamState.for_params([p], learning_rate=0.1)
    adam_step([p], state)
    assert np.array_equal(p.data, [1.5, -2.0])


def test_adam_two_identical_steps():
    """Hand-rolled Adam recurrence: two unit grads at lr 0.1 move ~-0.2."""
    def oracle(lr, steps, g=1.0, b1=0.9, b2=0.999, eps=1e-8):
        m = v = 0.0
        x = 0.0
        for t in range(1, steps + 1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        return x

    p = Tensor(np.zeros(1), requires_grad=True)
    state = AdamState.for_params([p], learning_rate=0.1)
    for _ in range(2):
        p.grad = np.ones(1)
        adam_step([p], state)
    assert p.data[0] == pytest.approx(oracle(0.1, 2), abs=1e-12)
    assert p.data[0] == pytest.approx(-0.2, abs=1e-3)


def test_adam_missing_grad_is_state_error():
    p = Tensor(np.zeros(2), requires_grad=True)
    state = AdamState.for_params([p], learning_rate=0.1)
    with pytest.raises(StateError):
        adam_step([p], state)


def test_adam_blocked_step_is_bit_identical_to_textbook_update():
    """Three steps over a parameter larger than a block (and not a multiple
    of it), one smaller than a block and a 1-element one, against the
    whole-array update with temporaries."""
    def textbook_step(data, grad, m, v, state):
        t, b1, b2 = state.step_count, state.beta1, state.beta2
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)

    block = tensor_mod.ADAM_BLOCK
    shapes = [(3, block // 2 + 41), (17, 5), (1,)]
    rng = np.random.default_rng(7)
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    assert params[0].size > block and params[0].size % block
    ref = [(p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)) for p in params]
    state = AdamState.for_params(params, learning_rate=0.003)
    for _ in range(3):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
        for p, g in zip(params, grads):
            p.grad = g.copy()
        adam_step(params, state)
        for (data, m, v), g in zip(ref, grads):
            textbook_step(data, g, m, v, state)
    for p, (ref_data, _, _) in zip(params, ref):
        assert p.data.tobytes() == ref_data.tobytes()
    assert state.m.tobytes() == b"".join(ref_m.tobytes() for _, ref_m, _ in ref)
    assert state.v.tobytes() == b"".join(ref_v.tobytes() for _, _, ref_v in ref)


def test_adam_state_packs_each_moment_into_one_array_in_parameter_order():
    params = [Tensor(np.zeros(s), requires_grad=True) for s in [(2, 3), (4,), (1,)]]
    state = AdamState.for_params(params, learning_rate=0.1)
    for moments in (state.m, state.v):
        assert moments.shape == (11,) and moments.dtype == np.float64 and not moments.any()


def test_adam_rejects_moments_of_another_shape():
    """Each moment must be one array of an entry per parameter element."""
    p = Tensor(np.zeros((2, 3)), requires_grad=True)
    for shape in [(5,), (6, 1), (2, 3)]:
        p.grad = np.ones((2, 3))
        state = AdamState.for_params([p], learning_rate=0.1)
        state.v = np.zeros(shape)
        with pytest.raises(StateError, match="moments"):
            adam_step([p], state)
        assert state.step_count == 0 and np.array_equal(p.data, np.zeros((2, 3)))


def test_clip_gradients():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.array([3.0, 4.0])
    norm = clip_gradients([p], max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0)
