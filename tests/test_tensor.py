"""Tensor op examples, gradient checks against finite differences, Adam."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tpn2f.model as model_mod
import tpn2f.tensor as tensor_mod
from tpn2f.data import build_vocabularies, preprocess_samples
from tpn2f.model import build_model
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
    backward,
    clip_gradients,
    concat,
    contract_last,
    cross_entropy,
    embedding_row,
    flatten,
    matmul,
    mul,
    outer_product,
    reshape,
    scale,
    sigmoid,
    softmax_with_temperature,
    stack_rows,
    sum_all,
    tanh,
    transpose,
)
from tpn2f.training import encode_samples, mathqa_preset, sample_loss

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
    with pytest.raises(ShapeError, match=r"2, 3.*2, 3"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


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


def test_cross_entropy_examples():
    assert cross_entropy(Tensor([100.0, 0.0]), 0).item() == pytest.approx(0.0, abs=1e-12)
    assert cross_entropy(Tensor([0.3, 0.3, 0.3, 0.3]), 2).item() == pytest.approx(
        math.log(4), abs=1e-12)
    assert cross_entropy(Tensor([1.0, 2.0]), 0).item() == pytest.approx(1.31326, abs=1e-4)


def test_cross_entropy_index_check():
    with pytest.raises(IndexError):
        cross_entropy(Tensor([1.0, 2.0]), 2)


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
])
def test_gradient_check_all_ops(name):
    """Central differences (h=1e-5) vs backward(): relative error < 1e-4."""
    rng = np.random.default_rng(hash(name) % 2**32)
    xs = [Tensor(rng.uniform(-1, 1, s), requires_grad=True) for s in {
        "matmul_mat": [(3, 4), (4, 2)],
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
    }[name]]

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
        raise AssertionError(name)

    with GradientTape():
        backward(forward())
    for x in xs:
        fd = numeric_grad(lambda: forward().item(), x.data)
        assert rel_err(x.grad, fd) < 1e-4, f"{name}: gradient mismatch"


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


def _outer_per_step_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Reference matmul: forms and adds the weight's outer product every step."""
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data

    def bw(g):
        if bd.ndim == 1:
            return np.outer(g, bd), ad.T @ g
        return g @ bd.T, ad.T @ g

    return tensor_mod._record(out, (a, b), bw)


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


def test_clip_gradients():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.array([3.0, 4.0])
    norm = clip_gradients([p], max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0)
