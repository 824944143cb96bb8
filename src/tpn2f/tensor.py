"""Dense float64 tensors with a reverse-mode gradient tape and an Adam optimizer.

Everything downstream (the encoder-decoder, the training loop, the gradient
checks) is built on the small op set in this module.  Arrays are row-major
float64 throughout; views (``reshape``, ``flatten``, ``transpose``) record no tape node.

Activations keep their features on the last axis under optional leading row
axes: one sample's vector is ``(d,)`` and a minibatch run in lockstep holds
one row per sample, ``(B, d)``.  Every op treats each row alike, so one model
code path serves a sample and a minibatch.

One gradient is formed late: ``matmul(W, X)`` or ``lstm_cell`` with a leaf
``W`` (a parameter: no tape node produced it and it views nothing) hands
``backward`` the factors ``G`` and ``X`` of its grad ``G^T X`` instead of the
product.  ``backward`` stacks each leaf's factor rows, B x T of them over B
rows and T steps of a recurrence, and forms its grad with one GEMM after the
reverse sweep, instead of one product and one full-size add per step.
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


def _new(data: np.ndarray) -> Tensor:
    """A Tensor around ``data``, a float64 ndarray an op made: unlike
    ``Tensor(data)`` it converts and checks nothing."""
    t = _NEW(Tensor)
    t.data, t.requires_grad, t.grad, t.source = data, False, None, None
    return t


_NEW = Tensor.__new__


def zeros(shape) -> Tensor:
    return _new(np.zeros(shape))


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
        # ``(outs, inputs, backward_fn)`` per node, ``outs`` the tuple of its outputs; a
        # replayed node is set to None, so ``len`` still counts every node recorded.
        self._nodes: list[tuple | None] = []
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


def _taping(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on ``inputs`` is recorded: a tape is active and one of
    them requires grad.  An op that is not recorded returns its output before
    it builds a backward closure or keeps what only its backward reads."""
    if _ACTIVE_TAPE is not None:
        for t in inputs:
            if t.requires_grad:
                return True
    return False


def _record(out, inputs: tuple[Tensor, ...], backward_fn: Callable):
    """Record an op whose output ``out`` is a Tensor, or a tuple of Tensors whose
    grads ``backward_fn`` then takes as a tuple, in the same order.  Only for
    ``inputs`` that ``_taping`` has found to be recorded."""
    outs = out if type(out) is tuple else (out,)
    for o in outs:
        o.requires_grad = True
    _ACTIVE_TAPE._nodes.append((outs, inputs, backward_fn))
    return out


def _view(t: Tensor, data: np.ndarray, grad_map: Callable) -> Tensor:
    """``data``, a view of ``t``'s, whose grad reaches ``t`` through ``grad_map``."""
    out = _new(data)
    out.requires_grad = _ACTIVE_TAPE is not None and t.requires_grad
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
    has been replayed, so the sweep holds only grads still to be passed on.  A
    node with several outputs (``lstm_cell``'s ``h`` and ``c``) is replayed when
    any of them has a grad, and an output with none passes zeros.
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
    # ids: the tensors go during the sweep
    produced = {id(o) for outs, _, _ in nodes for o in outs}
    deferred: dict[Tensor, list[_OuterFactors]] = {}
    _accumulate(loss, np.ones_like(loss.data))
    for k in range(len(nodes) - 1, -1, -1):
        outs, inputs, backward_fn = nodes[k]
        nodes[k] = None
        if all(o.grad is None for o in outs):
            continue
        g = tuple(np.zeros(o.shape) if o.grad is None else o.grad for o in outs)   # unused: zeros
        for o in outs:
            o.grad = None
        for t, gt in zip(inputs, backward_fn(g if len(g) > 1 else g[0])):
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
    out = _new(xd @ wd.T)   # for a vector, bit-identical to wd @ xd
    if b is not None:
        out.data += b.data
    inputs = (w, x) if b is None else (w, x, b)
    if not _taping(inputs):
        return out

    def bw(g):
        rows = g.reshape(-1, wd.shape[0])
        grads = _OuterFactors(rows, xd.reshape(-1, wd.shape[1])), g @ wd
        return grads if b is None else (*grads, rows.sum(axis=0))

    return _record(out, inputs, bw)


def outer_product(a: Tensor, b: Tensor) -> Tensor:
    """Tensor (outer) product of two vectors, or of each pair of rows:
    out[..., i, j] = a[..., i] * b[..., j]."""
    if a.ndim < 1 or b.ndim < 1 or a.shape[:-1] != b.shape[:-1]:
        raise RankError(f"outer_product expects vectors or equal rows, got {a.shape}, {b.shape}")
    ad, bd = a.data, b.data
    out = _new(ad[..., :, None] * bd[..., None, :])
    if not _taping((a, b)):
        return out

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
        out = td @ vd
        out = _new(out if td.ndim > 1 else np.asarray(out))   # vector . vector: a numpy scalar

        def bw(g):
            return g[..., None] * vd, g.reshape(-1) @ td.reshape(-1, td.shape[-1])
    else:
        out = _new((td @ vd[..., :, None])[..., 0])

        def bw(g):
            return g[..., :, None] * vd[..., None, :], (g[..., None, :] @ td)[..., 0, :]

    return _record(out, (t, v), bw) if _taping((t, v)) else out


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
    y = _softmax(z)
    out = _new(y)
    if not _taping((logits,)):
        return out

    def bw(g):
        return (_softmax_grad(g, y, temperature),)

    return _record(out, (logits,), bw)


def _softmax(z: np.ndarray) -> np.ndarray:
    rows = z.ndim > 1   # a vector's scalar max and sum broadcast faster
    e = np.exp(z - z.max(axis=-1, keepdims=rows))
    return e / e.sum(axis=-1, keepdims=rows)


def _softmax_grad(g: np.ndarray, y: np.ndarray, temperature: float) -> np.ndarray:
    """The grad of the logits of ``y = softmax(logits / temperature)`` from ``y``'s grad ``g``."""
    return (g - (g * y).sum(axis=-1, keepdims=y.ndim > 1)) * y / temperature


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is stable for large |x|: 0.5 * (tanh(0.5 * x) + 1).
    y = np.tanh(0.5 * x)
    y += 1.0
    y *= 0.5
    return y


def sigmoid(t: Tensor) -> Tensor:
    y = _sigmoid(t.data)
    out = _new(y)
    if not _taping((t,)):
        return out

    def bw(g):
        return (g * y * (1.0 - y),)

    return _record(out, (t,), bw)


def tanh(t: Tensor) -> Tensor:
    y = np.tanh(t.data)
    out = _new(y)
    if not _taping((t,)):
        return out

    def bw(g):
        return (g * (1.0 - y * y),)

    return _record(out, (t,), bw)


def lstm_cell(w: Tensor, b: Tensor, parts: Sequence[Tensor], c_prev: Tensor
              ) -> tuple[Tensor, Tensor]:
    """An LSTM cell's step as one op with two outputs, ``h`` and ``c``.  ``parts``
    (the step's inputs, then the recurrent vector) are joined as ``x``, the gate
    pre-activations ``z = [f | g | i | o]`` are ``w`` times ``x`` plus ``b``, and
    c = sigmoid(f) c_prev + sigmoid(i) tanh(g) and h = sigmoid(o) tanh(c).  Its
    backward sends ``w`` the factors of its grad, as ``matmul`` does."""
    try:
        x = np.concatenate([p.data for p in parts], axis=-1)
    except ValueError as exc:   # no parts, a 0-d part or unequal leading axes
        raise RankError(f"lstm_cell expects vectors or equal rows: {exc}") from None
    wd, cd = w.data, c_prev.data
    n = wd.shape[0] // 4 if wd.ndim == 2 else -1
    if not (wd.shape == (4 * n, x.shape[-1]) and b.shape == (4 * n,)
            and cd.shape == x.shape[:-1] + (n,)):
        raise ShapeError(f"lstm_cell extents differ: w {wd.shape}, b {b.shape}, "
                         f"x {x.shape}, c_prev {cd.shape}")
    z = x @ wd.T   # for a vector, bit-identical to wd @ x
    z += b.data
    s = _sigmoid(z)   # f, i and o; the g block is taken through tanh instead
    f, i, o = s[..., :n], s[..., 2 * n:3 * n], s[..., 3 * n:]
    g = np.tanh(z[..., n:2 * n])
    c = f * cd
    c += i * g
    tc = np.tanh(c)
    h, c = _new(o * tc), _new(c)
    inputs = (w, b, *parts, c_prev)
    if not _taping(inputs):
        return h, c

    def bw(grads):
        g_h, g_c = grads
        g_c = g_c + g_h * o * (1.0 - tc * tc)
        g_z = s * (1.0 - s)   # sigmoid' on every block; the g block is overwritten
        g_z[..., :n] *= g_c * cd
        g_z[..., n:2 * n] = g_c * i * (1.0 - g * g)
        g_z[..., 2 * n:3 * n] *= g_c * g
        g_z[..., 3 * n:] *= g_h * tc
        rows, ends = g_z.reshape(-1, 4 * n), np.cumsum([p.shape[-1] for p in parts[:-1]])
        return (_OuterFactors(rows, x.reshape(-1, x.shape[-1])), rows.sum(axis=0),
                *np.split(g_z @ wd, ends, axis=-1), g_c * f)

    return _record((h, c), inputs, bw)


def soft_bind(h: Tensor, w_filler_attn: Tensor, w_role_attn: Tensor, fillers: Tensor,
              roles: Tensor, temperature: float) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """The binding encoder's step after its cell as one op.  From ``h = [h_f | h_r]``:
    the scores a_f = softmax(W_f h_f / T) and a_r = softmax(W_r h_r / T), the
    soft-selected filler f = fillers a_f and role r = roles a_r, and their
    binding flatten(f (x) r).  Returns the binding and, off the tape, a_f and a_r."""
    if temperature <= 0.0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    wf, wr, fd, rd = w_filler_attn.data, w_role_attn.data, fillers.data, roles.data
    n = wf.shape[-1]
    if not (h.ndim >= 1 and wf.ndim == wr.ndim == fd.ndim == rd.ndim == 2 and h.shape[-1] == 2 * n
            and wr.shape[1] == n and fd.shape[1] == wf.shape[0] and rd.shape[1] == wr.shape[0]):
        raise ShapeError(f"soft_bind extents differ: h {h.shape}, attention {wf.shape} and "
                         f"{wr.shape}, fillers {fd.shape}, roles {rd.shape}")
    hd = h.data
    h_f, h_r = hd[..., :n], hd[..., n:]
    a_f, a_r = _softmax(h_f @ wf.T / temperature), _softmax(h_r @ wr.T / temperature)
    f, r = a_f @ fd.T, a_r @ rd.T
    out = _new((f[..., :, None] * r[..., None, :]).reshape(hd.shape[:-1] + (-1,)))
    inputs = (h, w_filler_attn, w_role_attn, fillers, roles)
    if not _taping(inputs):
        return out, a_f, a_r

    def bw(g):
        g = g.reshape(f.shape + r.shape[-1:])
        g_f, g_r = (g @ r[..., :, None])[..., 0], (f[..., None, :] @ g)[..., 0, :]
        g_zf = _softmax_grad(g_f @ fd, a_f, temperature)
        g_zr = _softmax_grad(g_r @ rd, a_r, temperature)
        return (np.concatenate([g_zf @ wf, g_zr @ wr], axis=-1),
                _OuterFactors(g_zf.reshape(-1, wf.shape[0]), h_f.reshape(-1, n)),
                _OuterFactors(g_zr.reshape(-1, wr.shape[0]), h_r.reshape(-1, n)),
                _OuterFactors(g_f.reshape(-1, fd.shape[0]), a_f.reshape(-1, fd.shape[1])),
                _OuterFactors(g_r.reshape(-1, rd.shape[0]), a_r.reshape(-1, rd.shape[1])))

    return _record(out, inputs, bw), a_f, a_r


def attend(h: Tensor, memory: Tensor, combine: Tensor, mask=None) -> tuple[Tensor, np.ndarray]:
    """Dot-product attention and its combining layer as one op: the scores
    ``memory`` times ``h`` over the memory's rows, their softmax ``a`` (weight 0
    where the boolean ``mask`` is False), the summary ``memory^T a``, and
    tanh(``combine`` [h | summary]).  Returns that and, off the tape, ``a``."""
    hd, md, cd = h.data, memory.data, combine.data
    d = hd.shape[-1]
    if not (hd.ndim >= 1 and md.ndim == hd.ndim + 1 and md.shape[:-2] == hd.shape[:-1]
            and md.shape[-1] == d and cd.ndim == 2 and cd.shape[1] == 2 * d):
        raise ShapeError(f"attend extents differ: h {hd.shape}, memory {md.shape}, "
                         f"combine {cd.shape}")
    rows = hd.ndim > 1
    mt = md.swapaxes(-1, -2)
    z = (md @ hd[..., :, None])[..., 0] if rows else md @ hd
    if mask is not None:
        if np.shape(mask) != z.shape:
            raise ShapeError(f"attention mask {np.shape(mask)} differs from scores {z.shape}")
        z = np.where(mask, z, -np.inf)
    a = _softmax(z)   # at temperature 1, where dividing by it changes no bit
    x = np.concatenate([hd, (mt @ a[..., :, None])[..., 0] if rows else mt @ a], axis=-1)
    y = np.tanh(x @ cd.T)
    out = _new(y)
    if not _taping((h, memory, combine)):
        return out, a

    def bw(g):
        g_y = g * (1.0 - y * y)
        g_x = g_y @ cd
        g_s = g_x[..., d:].copy()   # contiguous, as the summary's own grad was
        g_a = (g_s[..., None, :] @ mt)[..., 0, :] if rows else g_s @ mt.reshape(-1, mt.shape[-1])
        g_z = _softmax_grad(g_a, a, 1.0)
        g_h = (g_z[..., None, :] @ md)[..., 0, :] if rows else g_z @ md.reshape(-1, d)
        return (g_x[..., :d] + g_h,
                (g_s[..., :, None] * a[..., None, :]).swapaxes(-1, -2),
                g_z[..., :, None] * hd[..., None, :],
                _OuterFactors(g_y.reshape(-1, cd.shape[0]), x.reshape(-1, 2 * d)))

    # ``memory`` takes the summary's grad, then the scores', as the two products sent them.
    return _record(out, (h, memory, memory, combine), bw), a


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b, of equal shapes; a bias is added by ``matmul``."""
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    out = _new(a.data + b.data)
    return _record(out, (a, b), lambda g: (g, g)) if _taping((a, b)) else out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    out = _new(ad * bd)
    if not _taping((a, b)):
        return out

    def bw(g):
        return g * bd, g * ad

    return _record(out, (a, b), bw)


def scale(t: Tensor, factor: float) -> Tensor:
    out = _new(t.data * factor)
    if not _taping((t,)):
        return out

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
        out = _new(np.concatenate([p.data for p in parts], axis=-1))
    except ValueError as exc:   # no parts, a 0-d part or unequal leading axes
        raise RankError(f"concat expects vectors or equal rows: {exc}") from None
    if not _taping(parts):
        return out
    sizes = [p.shape[-1] for p in parts]

    def bw(g):
        grads, off = [], 0
        for n in sizes:
            grads.append(g[..., off:off + n])
            off += n
        return grads

    return _record(out, tuple(parts), bw)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack equal vectors as the rows of a matrix; ``(B, d)`` rows give ``(B, n, d)``."""
    if not rows or any(r.ndim < 1 or r.shape != rows[0].shape for r in rows):
        raise RankError("stack_rows expects a non-empty sequence of equal vectors or rows")
    out = _new(np.stack([r.data for r in rows], axis=-2))
    if not _taping(rows):
        return out

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
    listed = [ids] if one else ids.ravel().tolist()   # a step's few ids: bounded faster as a list
    if min(listed) < 0 or max(listed) >= table.shape[0]:
        raise IndexError(f"id {index} out of range for table {table.shape}")
    out = _new(table.data[ids].copy() if one else table.data.take(ids, axis=0))
    if not _taping((table,)):
        return out
    shape = table.shape

    def bw(g):
        gt = np.zeros(shape)
        np.add.at(gt, ids, g)
        return (gt,)

    return _record(out, (table,), bw)


def sum_all(t: Tensor) -> Tensor:
    out = _new(np.asarray(t.data.sum()))
    if not _taping((t,)):
        return out
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
    out = _new(np.asarray((losses * w).sum()))
    if not _taping((logits,)):
        return out
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
