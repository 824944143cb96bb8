"""Dense float64 tensors with a reverse-mode gradient tape and an Adam optimizer.

Everything downstream (the encoder-decoder, the training loop, the gradient
checks) is built on the small op set in this module.  Arrays are row-major
float64 throughout; views (``split``, ``reshape``, ``transpose``) record no tape node.

Activations keep their features on the last axis under optional leading row
axes: one sample's vector is ``(d,)`` and a minibatch run in lockstep holds
one row per sample, ``(B, d)``.  Every op treats each row alike, so one model
code path serves a sample and a minibatch.

One gradient is formed late: ``matmul(W, X)`` with a leaf ``W`` (a parameter:
no tape node produced it and it views nothing) hands ``backward`` the factors
``G`` and ``X`` of its grad ``G^T X`` instead of the product.  ``backward``
stacks each leaf's factor rows, B x T of them over B rows and T steps of a
recurrence, and forms its grad with one GEMM after the reverse sweep, instead
of one product and one full-size add per step.
"""

from __future__ import annotations

import operator
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

    A leaf's ``grad`` is allocated lazily by ``backward`` and accumulates
    additively; it is cleared by ``adam_step``, never implicitly.  A produced
    tensor's grad lives only while ``backward`` passes it on.  A view holds no
    grad: ``source = (viewed, map)`` takes each grad sent to it to what it views.
    """

    __slots__ = ("data", "requires_grad", "grad", "source", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.source: tuple[Tensor, Callable] | None = None

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
    Record one loss per tape and replay it once: ``backward`` frees each node
    (its output, inputs and closure) as it replays it, so a step's activations
    go during the reverse sweep, and a second ``backward`` on the tape is a
    ``TapeError``.  Leaf parameter grads persist and add up across tapes, so
    one optimizer step may follow several tapes: ``training.train_epoch`` runs
    a long minibatch as chunks of rows, one tape each.

    A leaf's matmul grads are deferred to the end of ``backward`` (see the
    module docstring).  This is safe because a node's output grad is final
    once that node is replayed: every consumer of a tensor was recorded after
    the node that produced it, so it is replayed before.  For the same reason
    ``backward`` drops each produced tensor's grad as soon as its node is
    replayed.  A leaf's grad is never read during the sweep, so it may be
    completed after it; a produced matrix's grad is read when its node is
    replayed, so it takes its product at once.  A view's grad may pass on at
    once, as its consumers come after the node that produced what it views.
    """

    def __init__(self):
        # A replayed node is set to None, so ``len`` still counts every node recorded.
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable] | None] = []
        self._replayed = False

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
    if tape is not None:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                tape._nodes.append((out, inputs, backward_fn))
                break
    return out


def _view(t: Tensor, data: np.ndarray, grad_map: Callable) -> Tensor:
    """``data``, a view of ``t``'s, whose grad reaches ``t`` through ``grad_map``."""
    out = Tensor(data, _ACTIVE_TAPE is not None and t.requires_grad)
    out.source = (t, grad_map)
    return out


def _accumulate(t: Tensor, g: np.ndarray | None) -> None:
    if g is None or not t.requires_grad:
        return
    while t.source is not None:   # a view: pass the grad on to what it views
        t, g = t.source[0], t.source[1](g)
    if t.grad is None:
        # Copy: backward fns may hand out views or share one array.
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


class _OuterFactors:
    """The grad ``g.T @ x`` of a matmul weight, not yet formed: ``g`` holds
    one output-grad row and ``x`` one input row per row of the product."""

    __slots__ = ("g", "x")

    def __init__(self, g: np.ndarray, x: np.ndarray):
        self.g = g
        self.x = x


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    Leaf grads accumulate additively across uses and across calls; clearing
    is the optimizer's job.  A produced tensor's grad is dropped once its node
    has been replayed, so the sweep holds only grads still to be passed on.
    The factors ``matmul(W, X)`` sends to a leaf ``W`` are kept during the
    reverse sweep and added to ``W.grad`` after it as one ``G^T X`` product
    over the stacked rows of every step; all other grads, including those of
    produced matrices and of views (not leaves), are added at once.  The first
    tape of an optimizer step stores that product as ``W``'s grad; a later tape
    of the same step, such as the next chunk of a long minibatch, adds it to
    the grad already there.

    Each node is freed as soon as it is replayed, so only the activations of
    nodes still to be replayed (and the factors kept for leaves) stay alive.
    The tape is then spent: a second call on it raises ``TapeError``.
    """
    tape = _ACTIVE_TAPE
    if tape is None:
        raise TapeError("backward() requires an active gradient tape")
    if loss.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    if tape._replayed:
        raise TapeError("backward() has already replayed this tape; record a new one")
    tape._replayed = True
    nodes = tape._nodes
    produced = {id(out) for out, _, _ in nodes}   # ids: the tensors go during the sweep
    deferred: dict[Tensor, list[_OuterFactors]] = {}
    _accumulate(loss, np.ones_like(loss.data))
    for k in range(len(nodes) - 1, -1, -1):
        out, inputs, backward_fn = nodes[k]
        nodes[k] = None
        g = out.grad
        if g is None:
            continue
        out.grad = None
        for t, gt in zip(inputs, backward_fn(g)):
            if type(gt) is _OuterFactors:
                if not t.requires_grad:
                    continue
                if id(t) not in produced and t.source is None:
                    deferred.setdefault(t, []).append(gt)
                    continue
                gt = gt.g.T @ gt.x
            _accumulate(t, gt)
    for t, factors in deferred.items():
        g_rows = np.concatenate([f.g for f in factors]).T
        x_rows = np.concatenate([f.x for f in factors])
        if t.grad is None:
            t.grad = g_rows @ x_rows
        else:
            t.grad += g_rows @ x_rows


# ---------------------------------------------------------------------------
# ops


def matmul(w: Tensor, x: Tensor, b: Tensor | None = None) -> Tensor:
    """``w @ x`` for a vector ``x``; for rows ``x`` of shape ``(..., k)``,
    ``x @ w.T``: ``w`` times each row.  A bias vector ``b`` is added to every
    row of the product in the same node, and gets the rows' summed grad."""
    if w.ndim != 2 or x.ndim < 1:
        raise RankError(f"matmul expects a matrix and a vector or rows, got {w.shape} @ {x.shape}")
    if w.shape[1] != x.shape[-1]:
        raise ShapeError(f"matmul inner extents differ: {w.shape} @ {x.shape}")
    if b is not None and b.shape != w.shape[:1]:
        raise ShapeError(f"matmul bias {b.shape} does not match {w.shape[0]} output rows")
    wd, xd = w.data, x.data
    out = Tensor(xd @ wd.T)   # for a vector, bit-identical to wd @ xd
    if b is not None:
        out.data += b.data

    def bw(g):
        rows = g.reshape(-1, wd.shape[0])
        grads = _OuterFactors(rows, xd.reshape(-1, wd.shape[1])), g @ wd
        return grads if b is None else (*grads, rows.sum(axis=0))

    return _record(out, (w, x) if b is None else (w, x, b), bw)


def outer_product(a: Tensor, b: Tensor) -> Tensor:
    """Tensor (outer) product of two vectors, or of each pair of rows:
    out[..., i, j] = a[..., i] * b[..., j]."""
    if a.ndim < 1 or b.ndim < 1 or a.shape[:-1] != b.shape[:-1]:
        raise RankError(f"outer_product expects vectors or equal rows, got {a.shape}, {b.shape}")
    ad, bd = a.data, b.data
    out = Tensor(ad[..., :, None] * bd[..., None, :])

    def bw(g):
        return (g @ bd[..., :, None])[..., 0], (ad[..., None, :] @ g)[..., 0, :]

    return _record(out, (a, b), bw)


def contract_last(t: Tensor, v: Tensor) -> Tensor:
    """Inner product over the last axis: out[j..] = sum_l t[j.., l] * v[l]; rows
    ``v`` (..., L) against ``t`` (..., M, L), on equal leading axes, give one
    matrix-vector product per row."""
    if not (v.ndim == 1 and t.ndim >= 1 or v.ndim >= 2 and t.shape[:-2] == v.shape[:-1]
            and t.ndim == v.ndim + 1) or t.shape[-1] != v.shape[-1]:
        raise ShapeError(f"contract_last extents differ: {t.shape} with {v.shape}")
    td, vd = t.data, v.data
    if vd.ndim == 1:
        out = Tensor(td @ vd)

        def bw(g):
            return g[..., None] * vd, g.reshape(-1) @ td.reshape(-1, td.shape[-1])
    else:
        out = Tensor((td @ vd[..., :, None])[..., 0])

        def bw(g):
            return g[..., :, None] * vd[..., None, :], (g[..., None, :] @ td)[..., 0, :]

    return _record(out, (t, v), bw)


def softmax_with_temperature(logits: Tensor, temperature: float, mask=None) -> Tensor:
    """softmax(logits / temperature) over the last axis, stabilized by max
    subtraction; entries where the boolean ``mask`` is False get weight 0."""
    if temperature <= 0.0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    if logits.ndim < 1:
        raise RankError(f"softmax expects a vector or rows, got {logits.shape}")
    z = logits.data / temperature
    if mask is not None:
        if np.shape(mask) != logits.shape:
            raise ShapeError(f"softmax mask {np.shape(mask)} differs from logits {logits.shape}")
        z = np.where(mask, z, -np.inf)
    rows = z.ndim > 1   # a vector's scalar max and sum broadcast faster
    e = np.exp(z - z.max(axis=-1, keepdims=rows))
    y = e / e.sum(axis=-1, keepdims=rows)
    out = Tensor(y)

    def bw(g):
        return ((g - (g * y).sum(axis=-1, keepdims=rows)) * y / temperature,)

    return _record(out, (logits,), bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is stable for large |x|: 0.5 * (tanh(0.5 * x) + 1).
    y = np.tanh(0.5 * x)
    y += 1.0
    y *= 0.5
    return y


def sigmoid(t: Tensor) -> Tensor:
    y = _sigmoid(t.data)
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


def lstm_gates(z: Tensor, c_prev: Tensor) -> Tensor:
    """An LSTM cell's update as one op: from the gate pre-activations
    ``z = [f | g | i | o]`` and the cell state ``c_prev``, ``[h | c]`` with
    c = sigmoid(f) c_prev + sigmoid(i) tanh(g) and h = sigmoid(o) tanh(c)."""
    n = c_prev.shape[-1]
    if z.shape != c_prev.shape[:-1] + (4 * n,):
        raise ShapeError(f"lstm_gates needs 4H gates for state {c_prev.shape}, got {z.shape}")
    zd, cd = z.data, c_prev.data
    s = _sigmoid(zd)   # f, i and o; the g block is taken through tanh instead
    f, i, o = s[..., :n], s[..., 2 * n:3 * n], s[..., 3 * n:]
    g = np.tanh(zd[..., n:2 * n])
    hc = np.empty(cd.shape[:-1] + (2 * n,))
    c = np.multiply(f, cd, out=hc[..., n:])
    c += i * g
    tc = np.tanh(c)
    np.multiply(o, tc, out=hc[..., :n])
    out = Tensor(hc)

    def bw(grad):
        gh = grad[..., :n]
        gc = grad[..., n:] + gh * o * (1.0 - tc * tc)
        gz = s * (1.0 - s)   # sigmoid' on every block; the g block is overwritten
        gz[..., :n] *= gc * cd
        gz[..., n:2 * n] = gc * i * (1.0 - g * g)
        gz[..., 2 * n:3 * n] *= gc * g
        gz[..., 3 * n:] *= gh * tc
        return gz, gc * f

    return _record(out, (z, c_prev), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b, of equal shapes; a bias is added by ``matmul``."""
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    return _record(Tensor(a.data + b.data), (a, b), lambda g: (g, g))


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
    orig = t.shape
    return _view(t, t.data.reshape(shape), lambda g: g.reshape(orig))


def flatten(t: Tensor, start: int = 0) -> Tensor:
    """Merge the axes from ``start`` on into one; 1 keeps a leading row axis."""
    return reshape(t, t.shape[:start] + (-1,))


def transpose(t: Tensor) -> Tensor:
    """Swap the last two axes: a matrix's transpose, per row for ``(B, M, N)``."""
    if t.ndim < 2:
        raise RankError(f"transpose expects a matrix, got {t.shape}")
    return _view(t, t.data.swapaxes(-1, -2), lambda g: g.swapaxes(-1, -2))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join vectors, or rows of equal count, along the last axis."""
    try:
        out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    except ValueError as exc:   # no parts, a 0-d part or unequal leading axes
        raise RankError(f"concat expects vectors or equal rows: {exc}") from None
    sizes = [p.shape[-1] for p in parts]

    def bw(g):
        grads, off = [], 0
        for n in sizes:
            grads.append(g[..., off:off + n])
            off += n
        return grads

    return _record(out, tuple(parts), bw)


def split(t: Tensor, n: int) -> list[Tensor]:
    """The ``n`` equal consecutive pieces of the last axis, each a view of ``t``
    whose grad is scattered into a zero array the shape of ``t``."""
    if t.ndim < 1:
        raise RankError(f"split expects a vector or rows, got {t.shape}")
    total = t.shape[-1]
    if n < 1 or total % n:
        raise ShapeError(f"cannot split {total} entries into {n} equal pieces")
    shape = t.shape
    size = total // n
    pieces = []
    for lo in range(0, total, size):
        def scatter(g, lo=lo):
            gt = np.zeros(shape)
            gt[..., lo:lo + size] = g
            return gt

        pieces.append(_view(t, t.data[..., lo:lo + size], scatter))
    return pieces


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack equal vectors as the rows of a matrix; ``(B, d)`` rows give ``(B, n, d)``."""
    if not rows or any(r.ndim < 1 or r.shape != rows[0].shape for r in rows):
        raise RankError("stack_rows expects a non-empty sequence of equal vectors or rows")
    out = Tensor(np.stack([r.data for r in rows], axis=-2))

    def bw(g):
        return [g[..., k, :] for k in range(len(rows))]

    return _record(out, tuple(rows), bw)


def embedding_row(table: Tensor, index) -> Tensor:
    """Row ``index`` of ``table``, or one row per id of an integer array; the
    backward adds each row's grad into its table row (repeated ids add up)."""
    if table.ndim != 2:
        raise RankError(f"embedding_row expects a matrix, got {table.shape}")
    try:
        ids, one = operator.index(index), True   # one id, as a Python int
    except TypeError:
        ids, one = np.asarray(index), False
    if (not 0 <= ids < table.shape[0]) if one else (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"id {index} out of range for table {table.shape}")
    rows = table.data[ids]
    out = Tensor(rows.copy() if one else rows)   # an array of ids already copies
    shape = table.shape

    def bw(g):
        gt = np.zeros(shape)
        np.add.at(gt, ids, g)
        return (gt,)

    return _record(out, (table,), bw)


def sum_all(t: Tensor) -> Tensor:
    out = Tensor(t.data.sum())
    shape = t.data.shape

    def bw(g):
        return (np.broadcast_to(g, shape).astype(np.float64),)

    return _record(out, (t,), bw)


def cross_entropy(logits: Tensor, true_index, weights=None) -> Tensor:
    """-log softmax(logits)[true_index]; always non-negative.  For rows of
    logits, the sum of each row's term for its class in ``true_index``, times
    its weight in ``weights`` (1 when None)."""
    if logits.ndim < 1:
        raise RankError(f"cross_entropy expects a logit vector or rows, got {logits.shape}")
    n = logits.shape[-1]
    target = np.asarray(true_index)
    w = np.ones(target.shape) if weights is None else np.asarray(weights, dtype=np.float64)
    if not target.shape == w.shape == logits.shape[:-1]:
        raise ShapeError(f"cross_entropy needs a class and weight per row of {logits.shape}")
    if target.size and (target.min() < 0 or target.max() >= n):
        raise IndexError(f"true_index {true_index} out of range for {n} classes")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    losses = lse[..., 0] - np.take_along_axis(z, target[..., None], axis=-1)[..., 0]
    out = Tensor((losses * w).sum())
    probs = np.exp(z - lse)

    def bw(g):
        gw = g * w
        gl = probs * gw[..., None]
        gl.reshape(-1, n)[np.arange(target.size), target.reshape(-1)] -= gw.reshape(-1)
        return (gl,)

    return _record(out, (logits,), bw)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Adam's hyperparameters and moments: ``m`` and ``v`` each pack every parameter's
    moments into one float64 array, in the order ``adam_step`` is given the parameters."""

    m: np.ndarray
    v: np.ndarray
    step_count: int
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_params(cls, params: Sequence[Tensor], learning_rate: float) -> "AdamState":
        """Zero moments for ``params`` and step 0, with the default betas and epsilon."""
        n = sum(p.size for p in params)
        return cls(m=np.zeros(n), v=np.zeros(n), step_count=0, learning_rate=learning_rate)

    def check_moments(self, params: Sequence[Tensor]) -> None:
        """Raise ``StateError`` unless ``m`` and ``v`` each hold one entry per
        element of ``params``."""
        n = sum(p.size for p in params)
        if not self.m.shape == self.v.shape == (n,):
            raise StateError(f"optimizer moments have shapes {self.m.shape} and {self.v.shape}, "
                             f"the {len(params)} params need ({n},)")


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

    so the result is bit-identical to it.  A parameter's moments are its
    ``p.size`` entries of ``state.m`` and ``state.v``, in parameter order.
    Params must be C-contiguous, as they are updated through flat views.
    """
    state.check_moments(params)
    for k, p in enumerate(params):
        if p.grad is None:
            raise StateError(f"parameter {k} has no gradient")
        if p.grad.shape != p.data.shape:
            raise StateError(f"parameter {k} has shape {p.data.shape}, grad {p.grad.shape}")
        if not p.data.flags.c_contiguous:
            raise StateError(f"parameter {k} is not C-contiguous")
    state.step_count += 1
    t = state.step_count
    b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.epsilon
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    n_max = max((p.size for p in params), default=0)
    scratch_a, scratch_b = np.empty(min(n_max, ADAM_BLOCK)), np.empty(min(n_max, ADAM_BLOCK))
    ends = np.cumsum([p.size for p in params[:-1]], dtype=int)
    for p, m, v in zip(params, np.split(state.m, ends), np.split(state.v, ends)):
        flat = p.data.reshape(-1), p.grad.reshape(-1), m, v
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
