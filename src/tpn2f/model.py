"""Encoder-decoder over tensor-product representations.

The encoder's filler and role LSTMs read the same input, the token and the
previous token's binding, so they run as one stacked cell; each step
soft-selects a filler and a role column under a sharp softmax (temperature
0.1) and binds them with an outer product, flattened.  The plain LSTM encoder
runs the same recurrence on its hidden state: every encoder position, of
either encoder, is one vector.
A reasoning MLP maps the pooled encoding to the decoder's initial state.  The
decoder is an attentional tuple-LSTM whose hidden state is treated as an
order-3 binding and unbound into relation and argument vectors, which feed
separate classifier heads.

Ablation variants swap either side for a plain LSTM (hidden size 100).

Every LSTM cell keeps its gates in one weight ``w`` of shape ``(4H, in + R)``,
``R`` the recurrent width, and one bias ``b`` of shape ``(4H,)``: row blocks
f, g, i, o, columns ``[input | recurrent]``, so a cell step is one
matrix-vector product.  ``u_*``, ``v_*`` and ``b_*`` are read-only views of
those blocks.

Every function here takes one sample's activations, ``(d,)``, or a minibatch's
run in lockstep, ``(B, d)``: the encoders take a list of id sequences, which
they right-pad to the longest; pooling reads only each row's valid positions,
and the decoder's attention gives padded positions weight 0 through a mask.

The parameters are the tensor fields of the ``*Params`` dataclasses; each one's
checkpoint name is its field path (``named_tensors``), e.g. ``encoder.lstm.w``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Sequence

import numpy as np

from .data import Vocabularies
# ``concat``, ``mul``, ``outer_product``, ``sigmoid`` and ``softmax_with_temperature`` are unused
# here but stay importable: ``perfbench/tracer.py`` counts the ``MODEL_OPS`` it reads from this module.
from .tensor import (  # noqa: F401
    ShapeError,
    Tensor,
    add,
    attend,
    concat,
    contract_last,
    embedding_row,
    flatten,
    lstm_cell,
    matmul,
    mul,
    outer_product,
    reshape,
    sigmoid,
    soft_bind,
    softmax_with_temperature,
    stack_rows,
    tanh,
    transpose,
    zeros,
)


class VocabError(ValueError):
    """Token/relation/argument id outside its vocabulary."""


def checked(default, *, at_least=None, above=None, one_of=None):
    """A dataclass field whose values must also be ``>= at_least``, ``> above``
    or in ``one_of``, as ``check_fields`` checks."""
    if one_of is not None:
        rule = (lambda v: v in one_of), " or ".join(map(repr, one_of))
    elif above is not None:
        rule = (lambda v: v > above), f"> {above}"
    else:
        rule = (lambda v: v >= at_least), f">= {at_least}"
    return field(default=default, metadata={"rule": rule})


def field_type(f) -> tuple[type, bool]:
    """The type a field's annotation names and whether it also allows ``None``;
    annotations are strings here, such as ``"int"`` or ``"float | None"``."""
    name, _, rest = f.type.partition(" | ")
    return {"int": int, "float": float, "bool": bool, "str": str}[name], rest == "None"


def check_fields(obj, cls, error: type[Exception]) -> None:
    """Raise ``error`` naming the first field of dataclass ``cls`` whose value on ``obj``
    lacks its annotated type (an int is never a bool; a float field takes a finite number,
    never a bool, and stores a float; ``| None`` allows ``None``) or fails its ``checked`` rule."""
    for f in fields(cls):
        value = getattr(obj, f.name)
        kind, optional = field_type(f)
        if value is None and optional:
            continue
        numeric = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, numeric):
            raise error(f"{f.name} must be {f.type}, got {value!r}")
        if kind is float:
            value = float(value)
            if not np.isfinite(value):
                raise error(f"{f.name} must be a finite number, got {value!r}")
            setattr(obj, f.name, value)
        ok, wanted = f.metadata.get("rule", (None, None))
        if ok is not None and not ok(value):
            raise error(f"{f.name} must be {wanted}, got {value!r}")


@dataclass
class ModelDims:
    """Dimension hyperparameters; derived sizes are properties.

    ``training.TrainConfig`` inherits these fields.
    """

    d_word: int = checked(100, at_least=1)
    d_filler: int = checked(30, at_least=1)
    n_fillers: int = checked(150, at_least=1)
    d_role: int = checked(20, at_least=1)
    n_roles: int = checked(50, at_least=1)
    d_rel: int = checked(20, at_least=1)
    d_arg: int = checked(10, at_least=1)
    d_pos: int = checked(5, at_least=1)
    positions: int = checked(2, one_of=(2, 3))
    lstm_hidden: int = checked(100, at_least=1)

    @property
    def d_t(self) -> int:
        return self.d_filler * self.d_role

    @property
    def d_h(self) -> int:
        return self.d_arg * self.d_rel * self.d_pos

    @property
    def d_dec(self) -> int:
        return self.d_rel + self.positions * self.d_arg

    def validate(self) -> None:
        check_fields(self, ModelDims, ShapeError)


@dataclass
class ModelVariant:
    """Encoder/decoder kinds, pooling, reasoning depth; ``TrainConfig`` inherits these."""

    encoder: str = checked("tpr", one_of=("tpr", "lstm"))
    decoder: str = checked("tpr", one_of=("tpr", "lstm"))
    pooling: str = checked("sum_tprs", one_of=("sum_tprs", "last_state"))
    reasoning_layers: int = checked(1, at_least=1)

    def validate(self) -> None:
        check_fields(self, ModelVariant, ValueError)


def named_tensors(params, prefix: str):
    """``(name, tensor)`` per parameter of a params dataclass, in field order: a
    tensor field is ``prefix.field``, the k-th tensor of a list ``prefix.field.k``,
    and a nested dataclass is walked under ``prefix.field``; other fields are skipped."""
    for f in fields(params):
        value, name = getattr(params, f.name), f"{prefix}.{f.name}"
        if isinstance(value, Tensor):
            yield name, value
        elif isinstance(value, list):
            for k, t in enumerate(value):
                yield f"{name}.{k}", t
        elif is_dataclass(value):
            yield from named_tensors(value, name)


def _layout(shape) -> Tensor:
    """The placeholder of a parameter in a layout-only model (``build_model`` with
    no generator): a read-only zero of ``shape`` that holds no memory."""
    return Tensor(np.broadcast_to(0.0, shape), requires_grad=True)


def _uniform(rng: np.random.Generator | None, shape) -> Tensor:
    if rng is None:
        return _layout(shape)
    return Tensor(rng.uniform(-0.1, 0.1, size=shape), requires_grad=True)


def _unit_normal(rng: np.random.Generator | None, size: int) -> Tensor:
    """A standard normal draw scaled to unit length."""
    if rng is None:
        return _layout((size,))
    v = rng.standard_normal(size)
    return Tensor(v / np.linalg.norm(v), requires_grad=True)


class _GateBlock:
    """Read-only ndarray view of one gate's block of a fused LSTM cell.

    ``kind`` is ``"u"`` (input columns of ``w``), ``"v"`` (recurrent columns
    of ``w``) or ``"b"`` (the bias); ``gate`` is the row block, 0-3 for
    f, g, i, o.
    """

    def __init__(self, kind: str, gate: int):
        self.kind, self.gate = kind, gate

    def __get__(self, cell: "LstmParams | None", owner=None):
        if cell is None:
            return self
        h, r = cell.hidden, cell.recurrent
        rows = slice(self.gate * h, (self.gate + 1) * h)
        cols = slice(None, -r) if self.kind == "u" else slice(-r, None)
        view = (cell.b.data[rows] if self.kind == "b" else cell.w.data[rows, cols]).view()
        view.flags.writeable = False
        return view


@dataclass
class LstmParams:
    """One LSTM cell, or ``cells`` stacked ones, as one fused weight and one bias.

    ``w`` has shape ``(4H, in + R)`` and ``b`` shape ``(4H,)``, with recurrent
    width ``R = H // cells``.  Their row blocks of ``H`` are the forget,
    candidate, input and output gates (f, g, i, o, in that order); the columns
    of ``w`` are ``[input | recurrent]``.  ``u_f`` .. ``u_o`` (``(H, in)``),
    ``v_f`` .. ``v_o`` (``(H, R)``) and ``b_f`` .. ``b_o`` are read-only
    ndarray views of those blocks, not parameters.

    Stacked cells share their input and recurrent vector; each gate block holds
    the first cell's ``R`` rows, then the next's.  A gate acts on its own row
    alone, so a stacked step is exactly the cells' steps, its hidden and cell
    states their concatenations.  ``cells`` is not a parameter.
    """

    w: Tensor
    b: Tensor
    cells: int = 1

    u_f, u_g, u_i, u_o = (_GateBlock("u", k) for k in range(4))
    v_f, v_g, v_i, v_o = (_GateBlock("v", k) for k in range(4))
    b_f, b_g, b_i, b_o = (_GateBlock("b", k) for k in range(4))

    @property
    def hidden(self) -> int:
        return self.b.shape[0] // 4

    @property
    def recurrent(self) -> int:
        return self.hidden // self.cells

    def zero_state(self, lead: tuple[int, ...] = ()) -> tuple[Tensor, Tensor]:
        """A zero recurrent input ``(*lead, R)`` and a zero cell state ``(*lead, H)``."""
        return zeros(lead + (self.recurrent,)), zeros(lead + (self.hidden,))

    @classmethod
    def random(cls, rng: np.random.Generator | None, input_dim: int, hidden_dim: int,
               cells: int = 1) -> "LstmParams":
        """Uniform(-0.1, 0.1) weights, ``cells`` stacked cells of ``hidden_dim``
        each.  Cell by cell, each gate block is drawn in the order u_f..u_o,
        v_f..v_o, b_f..b_o and written into that cell's rows of its block.
        With no ``rng``, ``w`` and ``b`` are layout placeholders."""
        h, n = hidden_dim, cells * hidden_dim
        if rng is None:
            return cls(_layout((4 * n, input_dim + h)), _layout((4 * n,)), cells)
        w = np.empty((4 * n, input_dim + h))
        b = np.empty(4 * n)
        for j in range(cells):
            rows = [slice(k * n + j * h, k * n + (j + 1) * h) for k in range(4)]
            blocks = [w[r, :input_dim] for r in rows] + [w[r, input_dim:] for r in rows]
            for block in blocks + [b[r] for r in rows]:
                block[...] = rng.uniform(-0.1, 0.1, size=block.shape)
        return cls(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True), cells)


# ---------------------------------------------------------------------------
# encoders


@dataclass
class EncoderParams:
    """Filler/role binding encoder."""

    embed: Tensor                 # (n_tokens, d_word)
    lstm: LstmParams              # filler and role LSTMs stacked: input d_word, hidden 2 d_t
    w_filler_attn: Tensor         # (n_fillers, d_t)
    w_role_attn: Tensor           # (n_roles, d_t)
    fillers: Tensor               # (d_filler, n_fillers)
    roles: Tensor                 # (d_role, n_roles)
    temperature: float = 0.1      # fixed during training and inference

    @classmethod
    def random(cls, rng, dims: ModelDims, n_tokens: int) -> "EncoderParams":
        return cls(
            embed=_uniform(rng, (n_tokens, dims.d_word)),
            lstm=LstmParams.random(rng, dims.d_word, dims.d_t, cells=2),
            w_filler_attn=_uniform(rng, (dims.n_fillers, dims.d_t)),
            w_role_attn=_uniform(rng, (dims.n_roles, dims.d_t)),
            fillers=_uniform(rng, (dims.d_filler, dims.n_fillers)),
            roles=_uniform(rng, (dims.d_role, dims.n_roles)),
        )


@dataclass
class LstmEncoderParams:
    """Plain single-layer LSTM encoder used by the ablation variants."""

    embed: Tensor
    lstm: LstmParams

    @classmethod
    def random(cls, rng, dims: ModelDims, n_tokens: int) -> "LstmEncoderParams":
        return cls(embed=_uniform(rng, (n_tokens, dims.d_word)),
                   lstm=LstmParams.random(rng, dims.d_word, dims.lstm_hidden))


def _embed(table: Tensor, ids, kind: str) -> Tensor:
    """``embedding_row``, with an id outside the table a ``VocabError``."""
    try:
        return embedding_row(table, ids)
    except IndexError as exc:
        raise VocabError(f"{kind} {exc}") from None


def pad_rows(rows: Sequence[Sequence]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad sequences of ids, or of equal id tuples, with id 0 into one
    ``(B, longest, ...)`` array; returns it and each row's length."""
    lengths = np.array([len(row) for row in rows])
    padded = np.zeros((len(rows), lengths.max()) + np.shape(rows[0])[1:], dtype=np.intp)
    for b, row in enumerate(rows):
        padded[b, :len(row)] = row
    return padded, lengths


def _id_rows(token_ids) -> tuple[np.ndarray, np.ndarray | None]:
    """One sample's token ids as a ``(T,)`` array and no lengths, or a list of
    samples' id sequences as ``pad_rows`` gives them."""
    if len(token_ids) and np.ndim(token_ids[0]) == 0:
        return np.asarray(token_ids, dtype=np.intp), None
    if not len(token_ids) or not all(map(len, token_ids)):
        raise ValueError("cannot encode an empty token sequence")
    return pad_rows(token_ids)


def encoder_step(token_id, prev: Tensor, cell: Tensor,
                 params: EncoderParams | LstmEncoderParams
                 ) -> tuple[Tensor, Tensor, tuple[np.ndarray, np.ndarray] | None]:
    """One encoder step from the previous position's vector ``prev``; returns
    this position's vector, the cell state and the filler and role selection
    scores, arrays off the tape.  For the binding encoder that vector is the
    binding ``flatten(f (x) r)`` (``tensor.soft_bind``) and the cell state
    ``[c_f | c_r]``; for the LSTM encoder it is ``h``, with no scores.  Token
    ids of B rows with ``(B, ...)`` states step at once."""
    h, cell = lstm_cell(params.lstm.w, params.lstm.b,
                        [_embed(params.embed, token_id, "token"), prev], cell)
    if isinstance(params, LstmEncoderParams):
        return h, cell, None
    binding, a_f, a_r = soft_bind(h, params.w_filler_attn, params.w_role_attn, params.fillers,
                                  params.roles, params.temperature)
    return binding, cell, (a_f, a_r)


def _pool(memory: Tensor, pooling: str, lengths: np.ndarray | None) -> Tensor:
    """The sum of each row's valid positions of ``memory`` (``sum_tprs``) or its
    last valid one (``last_state``), as one product with 0/1 weights; with no
    ``lengths``, every position is valid."""
    positions = np.arange(memory.shape[-2])
    ends = np.asarray(positions.size if lengths is None else lengths)[..., None]
    keep = positions == ends - 1 if pooling == "last_state" else positions < ends
    return contract_last(transpose(memory), Tensor(keep.astype(np.float64)))


def _encoder_positions(token_ids, params: EncoderParams | LstmEncoderParams
                       ) -> tuple[list[Tensor], list, np.ndarray | None]:
    """The encoder recurrence over ``_id_rows(token_ids)``: every position's vector and
    selection scores (None for the LSTM encoder), and each row's length."""
    ids, lengths = _id_rows(token_ids)
    context, cell = params.lstm.zero_state(ids.shape[:-1])
    contexts, scores = [], []
    for step_ids in ids.T:   # one id, or one per row
        context, cell, selections = encoder_step(step_ids, context, cell, params)
        contexts.append(context)
        scores.append(selections)
    return contexts, scores, lengths


def encode_sequence(token_ids, params: EncoderParams | LstmEncoderParams,
                    pooling: str = "sum_tprs") -> tuple[Tensor, Tensor]:
    """Run either encoder over one sample's token ids, or over a list of
    samples' in lockstep; returns the pooled context and the memory, every
    position's vector stacked once, ``(T, d)`` or ``(B, T, d)``."""
    contexts, _, lengths = _encoder_positions(token_ids, params)
    memory = stack_rows(contexts)
    return _pool(memory, pooling, lengths), memory


def bag_of_embeddings(token_ids: Sequence[int], embed: Tensor) -> Tensor:
    """Order-insensitive baseline: the multiset sum of token embeddings.

    Summation runs in sorted-id order, so any permutation of the input yields
    a bit-identical result.
    """
    ordered = sorted(token_ids)
    total = embedding_row(embed, ordered[0])
    for tok in ordered[1:]:
        total = add(total, embedding_row(embed, tok))
    return total


# ---------------------------------------------------------------------------
# reasoning MLP


@dataclass
class ReasoningParams:
    """Affine + tanh layers mapping the pooled encoding to the decoder state."""

    weights: list[Tensor]
    biases: list[Tensor]

    @classmethod
    def random(cls, rng, in_dim: int, out_dim: int, layers: int) -> "ReasoningParams":
        ws, bs = [], []
        cur = in_dim
        for _ in range(layers):
            ws.append(_uniform(rng, (out_dim, cur)))
            bs.append(_uniform(rng, (out_dim,)))
            cur = out_dim
        return cls(ws, bs)


def reasoning_map(pooled: Tensor, params: ReasoningParams) -> Tensor:
    x = pooled
    for w, b in zip(params.weights, params.biases):
        x = tanh(matmul(w, x, b))
    return x


# ---------------------------------------------------------------------------
# decoders


@dataclass
class DecoderParams:
    """Tuple-LSTM with attention feeding the unbinding head."""

    rel_embed: Tensor             # (n_relations, d_rel)
    arg_embed: Tensor             # (n_arguments, d_arg)
    lstm: LstmParams              # input d_dec, hidden d_h
    w_context: Tensor             # (d_h, enc_dim) projection building the attention memory
    attn_combine: Tensor          # (d_h, 2*d_h)
    pos_unbind: list[Tensor]      # positional unbinding vectors, each (d_pos,)
    w_dual: Tensor                # (d_rel, d_arg*d_rel)
    rel_classifier: Tensor        # (n_relations, d_rel)
    arg_classifier: Tensor        # (n_arguments, d_arg)

    @classmethod
    def random(cls, rng, dims: ModelDims, n_relations: int, n_arguments: int, enc_dim: int):
        # Unbinding vectors start as distinct unit Gaussians.
        pos = [_unit_normal(rng, dims.d_pos) for _ in range(dims.positions)]
        return cls(
            rel_embed=_uniform(rng, (n_relations, dims.d_rel)),
            arg_embed=_uniform(rng, (n_arguments, dims.d_arg)),
            lstm=LstmParams.random(rng, dims.d_dec, dims.d_h),
            w_context=_uniform(rng, (dims.d_h, enc_dim)),
            attn_combine=_uniform(rng, (dims.d_h, 2 * dims.d_h)),
            pos_unbind=pos,
            w_dual=_uniform(rng, (dims.d_rel, dims.d_arg * dims.d_rel)),
            rel_classifier=_uniform(rng, (n_relations, dims.d_rel)),
            arg_classifier=_uniform(rng, (n_arguments, dims.d_arg)),
        )


@dataclass
class LstmDecoderParams:
    """Attentional LSTM baseline emitting one classifier head per output slot."""

    rel_embed: Tensor
    arg_embed: Tensor
    lstm: LstmParams              # input d_dec, hidden lstm_hidden
    w_context: Tensor             # (hidden, enc_dim)
    attn_combine: Tensor          # (hidden, 2*hidden)
    rel_head: Tensor              # (n_relations, hidden)
    arg_heads: list[Tensor]       # per position, (n_arguments, hidden)

    @classmethod
    def random(cls, rng, dims: ModelDims, n_relations: int, n_arguments: int, enc_dim: int):
        h = dims.lstm_hidden
        return cls(
            rel_embed=_uniform(rng, (n_relations, dims.d_rel)),
            arg_embed=_uniform(rng, (n_arguments, dims.d_arg)),
            lstm=LstmParams.random(rng, dims.d_dec, h),
            w_context=_uniform(rng, (h, enc_dim)),
            attn_combine=_uniform(rng, (h, 2 * h)),
            rel_head=_uniform(rng, (n_relations, h)),
            arg_heads=[_uniform(rng, (n_arguments, h)) for _ in range(dims.positions)],
        )


def _embed_tuple(prev_ids, params: DecoderParams | LstmDecoderParams) -> list[Tensor]:
    """The embedded ``(relation, *arguments)`` ids of one tuple, the decoder cell's
    input parts; for a minibatch, each slot holds one id per row."""
    return ([_embed(params.rel_embed, prev_ids[0], "relation")]
            + [_embed(params.arg_embed, ids, "argument") for ids in prev_ids[1:]])


def unbinding_module(hidden: Tensor, params: DecoderParams, dims: ModelDims
                     ) -> tuple[Tensor, list[Tensor], Tensor]:
    """Treat the hidden state as an order-3 binding and unbind it.

    Returns (relation logits, per-position argument logits, relation
    unbinding vector).
    """
    if hidden.shape[-1] != dims.d_h:
        raise ShapeError(f"hidden size {hidden.shape[-1]} != d_arg*d_rel*d_pos = {dims.d_h}")
    lead = hidden.shape[:-1]
    cube = reshape(hidden, lead + (dims.d_arg, dims.d_rel, dims.d_pos))
    slabs = [contract_last(cube, p) for p in params.pos_unbind]
    total = slabs[0]
    for s in slabs[1:]:
        total = add(total, s)
    r_unbind = matmul(params.w_dual, flatten(total, len(lead)))
    rel_logits = matmul(params.rel_classifier, r_unbind)
    arg_logits = [matmul(params.arg_classifier, contract_last(slab, r_unbind)) for slab in slabs]
    return rel_logits, arg_logits, r_unbind


def lstm_head_logits(hidden: Tensor, params: LstmDecoderParams) -> tuple[Tensor, list[Tensor], None]:
    rel_logits = matmul(params.rel_head, hidden)
    arg_logits = [matmul(head, hidden) for head in params.arg_heads]
    return rel_logits, arg_logits, None


# ---------------------------------------------------------------------------
# assembled model


@dataclass
class Tpn2fModel:
    dims: ModelDims
    variant: ModelVariant
    vocab: Vocabularies
    encoder: EncoderParams | LstmEncoderParams
    reasoning: ReasoningParams
    decoder: DecoderParams | LstmDecoderParams

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Every parameter tensor with its checkpoint name, in a fixed order."""
        return [named for part in ("encoder", "reasoning", "decoder")
                for named in named_tensors(getattr(self, part), part)]

    def encode(self, token_ids) -> tuple[Tensor, Tensor]:
        """Encode one sample's token ids, or a list of samples' in lockstep."""
        return encode_sequence(token_ids, self.encoder, self.variant.pooling)

    def initial_decoder_state(self, pooled: Tensor) -> tuple[Tensor, Tensor]:
        hidden = reasoning_map(pooled, self.reasoning)
        return hidden, zeros(hidden.shape)

    def project_contexts(self, memory: Tensor) -> Tensor:
        """The attention memory: ``w_context`` times every position, in one product."""
        return matmul(self.decoder.w_context, memory)

    def decode_step(self, prev_ids, hidden: Tensor, cell: Tensor, projected: Tensor,
                    mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        """One tuple-LSTM step: embed the previous tuple, recur, attend over the
        memory rows ``mask`` keeps (all of them when it is None) and combine
        (``tensor.attend``)."""
        lstm, x = self.decoder.lstm, _embed_tuple(prev_ids, self.decoder)
        h_in, cell = lstm_cell(lstm.w, lstm.b, [*x, hidden], cell)
        hidden, _ = attend(h_in, projected, self.decoder.attn_combine, mask)
        return hidden, cell

    def head_logits(self, hidden: Tensor) -> tuple[Tensor, list[Tensor], Tensor | None]:
        if self.variant.decoder == "tpr":
            return unbinding_module(hidden, self.decoder, self.dims)
        return lstm_head_logits(hidden, self.decoder)


def build_model(variant: ModelVariant, dims: ModelDims, vocab: Vocabularies,
                rng: np.random.Generator | None) -> Tpn2fModel:
    """Assemble the requested encoder/decoder pair with fresh random weights.

    With ``rng`` None it is the layout only: every parameter is a read-only
    zero of its shape that holds no memory (one stored zero), for a caller
    that then sets each parameter's ``data``, as ``Checkpoint.build`` does.
    """
    dims.validate()
    variant.validate()
    encoder = (EncoderParams if variant.encoder == "tpr" else LstmEncoderParams).random(
        rng, dims, vocab.n_tokens)
    enc_dim = encoder.lstm.recurrent   # each encoder position's vector is its recurrent input
    decoder = (DecoderParams if variant.decoder == "tpr" else LstmDecoderParams).random(
        rng, dims, vocab.n_relations, vocab.n_arguments, enc_dim)
    reasoning = ReasoningParams.random(rng, enc_dim, decoder.lstm.hidden,
                                       variant.reasoning_layers)
    return Tpn2fModel(dims=dims, variant=variant, vocab=vocab,
                      encoder=encoder, reasoning=reasoning, decoder=decoder)
