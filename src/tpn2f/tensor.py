"""Dense float64 tensors with a reverse-mode gradient tape and an Adam optimizer.

Everything downstream (the encoder-decoder, the training loop, the gradient
checks) is built on the small op set in this module.  Arrays are row-major
float64 throughout; reshape/transpose are metadata-only views.

One gradient is formed late: ``matmul(W, x)`` with a vector ``x`` and a leaf
``W`` (a tensor no node on the tape produced, i.e. a parameter) hands
``backward`` the factors of its outer product instead of the product.
``backward`` collects them per leaf and forms each leaf's grad with one GEMM
after the reverse sweep, instead of one ``np.outer`` and one full-size add per
step of a recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions do not conform."""


class RankError(ShapeError):
    """Operand has the wrong number of axes."""


class ParameterError(ValueError):
    """A scalar argument (e.g. temperature) is outside its domain."""


class TapeError(RuntimeError):
    """Gradient-tape misuse: no active tape, nested tapes, non-scalar loss."""


class StateError(RuntimeError):
    """Optimizer state is inconsistent with its parameters."""


class Tensor:
    """A dense float64 array that can participate in gradient taping.

    ``grad`` is allocated lazily by ``backward`` and accumulates additively;
    it is cleared by ``adam_step``, never implicitly.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


class GradientTape:
    """Append-only record of executed ops, replayed in reverse by ``backward``.

    A tape and the tensors recorded on it form a single-threaded unit.
    Record one loss per tape: replay leaves intermediate grads in place, so a
    second loss recorded on the same tape would re-count the first one's
    subgraph.  For batch accumulation, open a fresh tape per sample; leaf
    parameter grads persist and add up across tapes.

    A leaf's matrix-times-vector grads are deferred to the end of
    ``backward`` (see the module docstring).  This is safe because a node's
    output grad is final once that node is replayed: every consumer of a
    tensor was recorded after the node that produced it, so it is replayed
    before.  A leaf's grad is never read during the sweep, so it may be
    completed after it; a produced matrix's grad is read when its node is
    replayed, so it takes the outer product at once.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "GradientTape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise TapeError("a gradient tape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def __len__(self) -> int:
        return len(self._nodes)


_ACTIVE_TAPE: GradientTape | None = None


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    tape = _ACTIVE_TAPE
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._nodes.append((out, inputs, backward_fn))
    return out


def _accumulate(t: Tensor, g: np.ndarray | None) -> None:
    if g is None or not t.requires_grad:
        return
    if t.grad is None:
        # Copy: backward fns may hand out views or share one array.
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


class _OuterFactors:
    """The grad ``np.outer(g, x)`` of a matmul weight, not yet formed."""

    __slots__ = ("g", "x")

    def __init__(self, g: np.ndarray, x: np.ndarray):
        self.g = g
        self.x = x


# Rows per block when ``backward`` adds a deferred weight grad to an existing
# one: 1000 rows of a fused decoder cell's 1040 columns take 8 MB.
GRAD_BLOCK_ROWS = 1000


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    Gradients accumulate additively across uses and across calls; clearing
    is the optimizer's job.  The outer-product grads that ``matmul(W, x)``
    sends to a leaf ``W`` are kept as factor pairs during the reverse sweep
    and added to ``W.grad`` after it as one ``G^T X`` product over the
    stacked steps (taken in blocks of ``GRAD_BLOCK_ROWS`` rows when
    ``W.grad`` already exists); all other grads, including those of
    produced matrices, are added at once.
    """
    tape = _ACTIVE_TAPE
    if tape is None:
        raise TapeError("backward() requires an active gradient tape")
    if loss.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    produced = {out for out, _, _ in tape._nodes}
    deferred: dict[Tensor, tuple[list[np.ndarray], list[np.ndarray]]] = {}
    _accumulate(loss, np.ones_like(loss.data))
    for out, inputs, backward_fn in reversed(tape._nodes):
        g = out.grad
        if g is None:
            continue
        for t, gt in zip(inputs, backward_fn(g)):
            if type(gt) is _OuterFactors:
                if not t.requires_grad:
                    continue
                if t not in produced:
                    gs, xs = deferred.setdefault(t, ([], []))
                    gs.append(gt.g)
                    xs.append(gt.x)
                    continue
                gt = np.outer(gt.g, gt.x)
            _accumulate(t, gt)
    for t, (gs, xs) in deferred.items():
        g_steps, x_steps = np.stack(gs, 1), np.stack(xs)
        if t.grad is None:
            t.grad = g_steps @ x_steps
            continue
        # Row blocks, so no full-size product is held beside an existing grad.
        for lo in range(0, len(g_steps), GRAD_BLOCK_ROWS):
            t.grad[lo:lo + GRAD_BLOCK_ROWS] += g_steps[lo:lo + GRAD_BLOCK_ROWS] @ x_steps


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(m,k) @ (k,n) -> (m,n), or (m,k) @ (k,) -> (m,)."""
    if a.ndim != 2 or b.ndim not in (1, 2):
        raise RankError(f"matmul expects a matrix and a matrix/vector, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data

    def bw(g):
        if bd.ndim == 1:
            return _OuterFactors(g, bd), ad.T @ g
        return g @ bd.T, ad.T @ g

    return _record(out, (a, b), bw)


def outer_product(a: Tensor, b: Tensor) -> Tensor:
    """Tensor (outer) product of two vectors: out[i, j] = a[i] * b[j]."""
    if a.ndim != 1 or b.ndim != 1:
        raise RankError(f"outer_product expects vectors, got {a.shape} and {b.shape}")
    out = Tensor(np.outer(a.data, b.data))
    ad, bd = a.data, b.data

    def bw(g):
        return g @ bd, g.T @ ad

    return _record(out, (a, b), bw)


def contract_last(t: Tensor, v: Tensor) -> Tensor:
    """Inner product over the last axis: out[j..] = sum_l t[j.., l] * v[l]."""
    if v.ndim != 1:
        raise RankError(f"contract_last expects a vector, got {v.shape}")
    if t.ndim < 1 or t.shape[-1] != v.shape[0]:
        raise ShapeError(f"contract_last extents differ: {t.shape} with {v.shape}")
    out = Tensor(t.data @ v.data)
    td, vd = t.data, v.data
    lead = tuple(range(td.ndim - 1))

    def bw(g):
        gt = g[..., None] * vd
        gv = np.tensordot(td, g, axes=(lead, lead)) if lead else td * g
        return gt, gv

    return _record(out, (t, v), bw)


def softmax_with_temperature(logits: Tensor, temperature: float) -> Tensor:
    """softmax(logits / temperature), stabilized by max subtraction."""
    if temperature <= 0.0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    if logits.ndim != 1:
        raise RankError(f"softmax expects a vector, got {logits.shape}")
    z = logits.data / temperature
    e = np.exp(z - z.max())
    y = e / e.sum()
    out = Tensor(y)

    def bw(g):
        return ((g - g @ y) * y / temperature,)

    return _record(out, (logits,), bw)


def sigmoid(t: Tensor) -> Tensor:
    # tanh form is stable for large |x|.
    y = 0.5 * (np.tanh(0.5 * t.data) + 1.0)
    out = Tensor(y)

    def bw(g):
        return (g * y * (1.0 - y),)

    return _record(out, (t,), bw)


def tanh(t: Tensor) -> Tensor:
    y = np.tanh(t.data)
    out = Tensor(y)

    def bw(g):
        return (g * (1.0 - y * y),)

    return _record(out, (t,), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def bw(g):
        return g, g

    return _record(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data

    def bw(g):
        return g * bd, g * ad

    return _record(out, (a, b), bw)


def scale(t: Tensor, factor: float) -> Tensor:
    out = Tensor(t.data * factor)

    def bw(g):
        return (g * factor,)

    return _record(out, (t,), bw)


def reshape(t: Tensor, shape) -> Tensor:
    out = Tensor(t.data.reshape(shape))
    orig = t.data.shape

    def bw(g):
        return (g.reshape(orig),)

    return _record(out, (t,), bw)


def flatten(t: Tensor) -> Tensor:
    return reshape(t, (-1,))


def transpose(t: Tensor) -> Tensor:
    if t.ndim != 2:
        raise RankError(f"transpose expects a matrix, got {t.shape}")
    out = Tensor(t.data.T)

    def bw(g):
        return (g.T,)

    return _record(out, (t,), bw)


def concat(parts: Sequence[Tensor]) -> Tensor:
    if not parts or any(p.ndim != 1 for p in parts):
        raise RankError("concat expects a non-empty sequence of vectors")
    out = Tensor(np.concatenate([p.data for p in parts]))
    sizes = [p.size for p in parts]

    def bw(g):
        grads, off = [], 0
        for n in sizes:
            grads.append(g[off:off + n])
            off += n
        return grads

    return _record(out, tuple(parts), bw)


def split(t: Tensor, n: int) -> list[Tensor]:
    """The ``n`` equal consecutive pieces of a vector, each a view of it.

    Each piece is its own tape node, whose backward scatters the piece's grad
    into a zero vector the size of ``t``.
    """
    if t.ndim != 1:
        raise RankError(f"split expects a vector, got {t.shape}")
    if n < 1 or t.size % n:
        raise ShapeError(f"cannot split {t.size} entries into {n} equal pieces")
    total = t.size
    size = total // n
    pieces = []
    for lo in range(0, total, size):
        def bw(g, lo=lo):
            gt = np.zeros(total)
            gt[lo:lo + size] = g
            return (gt,)

        pieces.append(_record(Tensor(t.data[lo:lo + size]), (t,), bw))
    return pieces


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    if not rows or any(r.ndim != 1 for r in rows):
        raise RankError("stack_rows expects a non-empty sequence of vectors")
    out = Tensor(np.stack([r.data for r in rows]))

    def bw(g):
        return [g[k] for k in range(len(rows))]

    return _record(out, tuple(rows), bw)


def embedding_row(table: Tensor, index: int) -> Tensor:
    """Row lookup with gradient accumulation into that row."""
    if table.ndim != 2:
        raise RankError(f"embedding_row expects a matrix, got {table.shape}")
    if not 0 <= index < table.shape[0]:
        raise IndexError(f"row {index} out of range for table {table.shape}")
    out = Tensor(table.data[index].copy())
    shape = table.shape

    def bw(g):
        gt = np.zeros(shape)
        gt[index] = g
        return (gt,)

    return _record(out, (table,), bw)


def sum_all(t: Tensor) -> Tensor:
    out = Tensor(t.data.sum())
    shape = t.data.shape

    def bw(g):
        return (np.broadcast_to(g, shape).astype(np.float64),)

    return _record(out, (t,), bw)


def cross_entropy(logits: Tensor, true_index: int) -> Tensor:
    """-log softmax(logits)[true_index]; always non-negative."""
    if logits.ndim != 1:
        raise RankError(f"cross_entropy expects a logit vector, got {logits.shape}")
    n = logits.shape[0]
    if not 0 <= true_index < n:
        raise IndexError(f"true_index {true_index} out of range for {n} classes")
    z = logits.data - logits.data.max()
    lse = np.log(np.exp(z).sum())
    out = Tensor(lse - z[true_index])
    probs = np.exp(z - lse)

    def bw(g):
        gl = probs * g
        gl[true_index] -= g
        return (gl,)

    return _record(out, (logits,), bw)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers plus hyperparameters."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step_count: int
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_params(cls, params: Sequence[Tensor], learning_rate: float,
                   beta1: float = 0.9, beta2: float = 0.999,
                   epsilon: float = 1e-8) -> "AdamState":
        return cls(
            m=[np.zeros(p.shape) for p in params],
            v=[np.zeros(p.shape) for p in params],
            step_count=0,
            learning_rate=learning_rate,
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
        )


# Elements per block of ``adam_step``: the six arrays a block touches (param,
# grad, both moments and two scratch blocks) take 1.5 MiB, within a 2 MiB L2.
ADAM_BLOCK = 1 << 15


def adam_step(params: Sequence[Tensor], state: AdamState) -> None:
    """Standard bias-corrected Adam update; clears every grad afterwards.

    Each parameter is updated in blocks of ``ADAM_BLOCK`` elements, so a block
    stays in cache across all its passes, and every intermediate is written
    into one of two scratch blocks that all parameters share.  The float
    operations and their order are those of the textbook update

        m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
        p -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)

    so the result is bit-identical to it.  Params and moments must be
    C-contiguous, as they are updated through flat views.
    """
    if len(params) != len(state.m):
        raise StateError(f"optimizer tracks {len(state.m)} params, got {len(params)}")
    for k, (p, m, v) in enumerate(zip(params, state.m, state.v)):
        if p.grad is None:
            raise StateError(f"parameter {k} has no gradient")
        if not p.grad.shape == m.shape == v.shape == p.data.shape:
            raise StateError(f"parameter {k} has shape {p.data.shape}, grad {p.grad.shape}, "
                             f"moments {m.shape} and {v.shape}")
        if not (p.data.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise StateError(f"parameter {k} or its moments are not C-contiguous")
    state.step_count += 1
    t = state.step_count
    b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.epsilon
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    n_max = max((p.size for p in params), default=0)
    scratch_a, scratch_b = np.empty(min(n_max, ADAM_BLOCK)), np.empty(min(n_max, ADAM_BLOCK))
    for p, m, v in zip(params, state.m, state.v):
        flat = p.data.reshape(-1), p.grad.reshape(-1), m.reshape(-1), v.reshape(-1)
        for lo in range(0, p.size, ADAM_BLOCK):
            pb, gb, mb, vb = (x[lo:lo + ADAM_BLOCK] for x in flat)
            a, b = scratch_a[:gb.size], scratch_b[:gb.size]
            mb *= b1
            np.multiply(gb, 1.0 - b1, out=a)
            mb += a
            vb *= b2
            np.multiply(gb, 1.0 - b2, out=a)
            a *= gb
            vb += a
            np.divide(mb, c1, out=a)
            a *= lr
            np.divide(vb, c2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            pb -= a
        p.grad = None


def clip_gradients(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale all grads so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            flat = p.grad.reshape(-1)
            total += float(np.dot(flat, flat))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm
