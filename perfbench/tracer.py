"""Wrappers installed from outside ``src/`` that time and count layer calls.

``Stopwatch`` records the few call durations the end-to-end metrics need
(greedy-decode latency, eval time).  ``Tracer`` records a span at every layer
boundary the per-layer metrics name, plus counters, and derives self time
from the spans.  Both patch module or class attributes and restore them on
exit, so ``src/`` is never edited.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

import tpn2f.data as data
import tpn2f.formal_lang as formal_lang
import tpn2f.model as model_mod
import tpn2f.tensor as tensor
import tpn2f.training as training


class _Patches:
    """Attribute replacements undone in reverse order on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Stopwatch:
    """Durations of ``training.greedy_decode`` and ``training.operation_accuracy`` calls.

    Two clock reads per call; used in the timed runs, where the decodes it
    times take milliseconds.
    """

    def __init__(self):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.decoded: list[int] = []   # samples decoded by each operation_accuracy call
        self._patches = _Patches()

    def _timed(self, key: str, fn):
        durations = self.durations[key]

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            durations.append(time.perf_counter() - start)
            return out
        return wrapper

    def __enter__(self) -> "Stopwatch":
        self._patches.set(training, "greedy_decode",
                          self._timed("greedy_decode", training.greedy_decode))
        accuracy = self._timed("operation_accuracy", training.operation_accuracy)

        def operation_accuracy(model, encoded, max_len):
            self.decoded.append(len(encoded))
            return accuracy(model, encoded, max_len)
        self._patches.set(training, "operation_accuracy", operation_accuracy)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


# Functions traced as spans: (owner, attribute, span name).
SPANS = [
    (training, "train", "training.train"),
    (training, "train_epoch", "training.train_epoch"),
    (training, "sample_loss", "training.sample_loss"),
    (training, "operation_accuracy", "training.operation_accuracy"),
    (training, "greedy_decode", "training.greedy_decode"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (training.Checkpoint, "build", "training.Checkpoint.build"),
    (training, "encode_samples", "training.encode_samples"),
    (training, "backward", "tensor.backward"),
    (training, "adam_step", "tensor.adam_step"),
    (model_mod.Tpn2fModel, "encode", "model.encode"),
    (model_mod.Tpn2fModel, "initial_decoder_state", "model.initial_decoder_state"),
    (model_mod.Tpn2fModel, "project_contexts", "model.project_contexts"),
    (model_mod.Tpn2fModel, "decode_step", "model.decode_step"),
    (model_mod.Tpn2fModel, "head_logits", "model.head_logits"),
    (data, "preprocess_samples", "data.preprocess_samples"),
    (data, "build_vocabularies", "data.build_vocabularies"),
    (formal_lang, "evaluate_metrics", "formal_lang.evaluate_metrics"),
    (formal_lang, "exec_mathqa", "formal_lang.exec_mathqa"),
]
SPAN_NAMES = [name for _, _, name in SPANS]

# Tape ops counted where the model and the loss call them.
MODEL_OPS = ["add", "concat", "contract_last", "embedding_row", "flatten", "matmul", "mul",
             "outer_product", "reshape", "sigmoid", "softmax_with_temperature", "stack_rows",
             "tanh", "transpose"]
TRAINING_OPS = ["add", "cross_entropy", "scale"]
OP_NAMES = sorted(set(MODEL_OPS) | set(TRAINING_OPS))

# Adam reads param, grad, m and v and writes param, m and v: 7 float64 passes.
ADAM_BYTES_PER_PARAM = 7 * 8


class Tracer:
    """In-memory spans ``(name, start, end, parent, sample_id)`` plus counters."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._sample_id: str | None = None
        # id(token_ids) -> (token_ids, sample id); holding the list keeps its id unique.
        self._sample_of_tokens: dict[int, tuple[list[int], str]] = {}
        self._tape: tensor.GradientTape | None = None
        self._patches = _Patches()

    def _span(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._sample_id)
            if after is not None:
                after(out, *args, **kwargs)
            return out
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # hooks run around particular spans --------------------------------------

    def _enter_sample(self, model, enc):
        self._sample_id = enc.sample_id

    def _enter_decode(self, model, token_ids, max_len):
        entry = self._sample_of_tokens.get(id(token_ids))
        if entry is not None:
            self._sample_id = entry[1]

    def _after_decode(self, out, model, token_ids, max_len):
        self.counts["training.decodes"] += 1
        self.counts["training.eos_stops"] += len(out) < max_len

    def _after_encode_samples(self, out, *args, **kwargs):
        for enc in out:
            self._sample_of_tokens[id(enc.token_ids)] = (enc.token_ids, enc.sample_id)

    def _gradient_tape(self) -> tensor.GradientTape:
        self._tape = tensor.GradientTape()
        return self._tape

    def _enter_backward(self, loss):
        self.counts["tensor.tape_nodes"] += len(self._tape)

    def _enter_adam(self, params, state):
        self.counts["tensor.adam_step.computed_bytes"] += ADAM_BYTES_PER_PARAM * sum(
            p.size for p in params)

    def _after_save(self, out, path, *args, **kwargs):
        self.counts["training.checkpoint_bytes"] += os.path.getsize(path)

    def _enter_model_encode(self, model, token_ids):
        self.counts["model.tokens_encoded"] += len(token_ids)

    def _enter_decode_step(self, *args, **kwargs):
        self.counts["model.decode_steps"] += 1

    def _exec_mathqa(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)   # an ExecutionError propagates uncounted
            self.counts["formal_lang.exec_ok"] += 1
            return out
        return wrapper

    def __enter__(self) -> "Tracer":
        before = {
            "training.sample_loss": self._enter_sample,
            "training.greedy_decode": self._enter_decode,
            "tensor.backward": self._enter_backward,
            "tensor.adam_step": self._enter_adam,
            "model.encode": self._enter_model_encode,
            "model.decode_step": self._enter_decode_step,
        }
        after = {
            "training.greedy_decode": self._after_decode,
            "training.encode_samples": self._after_encode_samples,
            "training.save_checkpoint": self._after_save,
        }
        for owner, attr, name in SPANS:
            fn = owner.__dict__[attr]
            if name == "formal_lang.exec_mathqa":
                fn = self._exec_mathqa(fn)
            self._patches.set(owner, attr, self._span(name, fn, before.get(name), after.get(name)))
        self._patches.set(training, "GradientTape", self._gradient_tape)
        for op in MODEL_OPS:
            self._patches.set(model_mod, op, self._counted(f"tensor.op_calls.{op}",
                                                           model_mod.__dict__[op]))
        for op in TRAINING_OPS:
            self._patches.set(training, op, self._counted(f"tensor.op_calls.{op}",
                                                          training.__dict__[op]))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    # results ----------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus the time its child spans cover;
        spans nest strictly in one thread, so that is the sum of the
        children's durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            t = totals[name]
            t["calls"] += 1
            t["busy_s"] += end - start
            t["self_s"] += end - start - child[k]
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, sample."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, sample) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "sample": sample}) + "\n")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics: span times, op counts and ratios.

        Tape nodes are a mean per backward pass (one per sample), Adam bytes
        a mean per step and checkpoint bytes a mean per save.
        """
        out: dict[str, tuple[float, str]] = {}
        for name, t in self.span_totals().items():
            out[f"{name}.calls"] = (t["calls"], "count")
            out[f"{name}.busy_s"] = (t["busy_s"], "s")
            out[f"{name}.self_s"] = (t["self_s"], "s")
        c = self.counts
        backward_calls = out["tensor.backward.calls"][0]
        out["tensor.tape_nodes"] = (c["tensor.tape_nodes"] / max(backward_calls, 1), "count")
        for op in OP_NAMES:
            out[f"tensor.op_calls.{op}"] = (c[f"tensor.op_calls.{op}"], "count")
        adam_calls = out["tensor.adam_step.calls"][0]
        out["tensor.adam_step.computed_bytes"] = (
            c["tensor.adam_step.computed_bytes"] / max(adam_calls, 1), "B")
        out["model.tokens_encoded"] = (c["model.tokens_encoded"], "count")
        out["model.decode_steps"] = (c["model.decode_steps"], "count")
        out["training.eos_stop_ratio"] = (c["training.eos_stops"] / max(c["training.decodes"], 1),
                                          "ratio")
        saves = out["training.save_checkpoint.calls"][0]
        out["training.checkpoint_bytes"] = (c["training.checkpoint_bytes"] / max(saves, 1), "B")
        exec_calls = out["formal_lang.exec_mathqa.calls"][0]
        out["formal_lang.exec_ok_ratio"] = (c["formal_lang.exec_ok"] / max(exec_calls, 1), "ratio")
        return out

