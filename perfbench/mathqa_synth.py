"""Seeded synthetic word problems shaped like MathQA.

The benchmark cannot ship MathQA itself, so this generator reproduces the
properties that set the cost of training and decoding at the ``mathqa``
preset:

- ``N_TOKEN_TYPES`` word types drawn with Zipf-like frequencies (rank ``r``
  has weight ``1 / (r + 1)``).  The vocabulary size matters because
  ``embedding_row``'s backward allocates a full ``(n_tokens, d_word)`` zero
  table for every token it looks up, and because Adam and the checkpoint
  cover the embedding table.  No public figure for MathQA's vocabulary is
  in this repository, so the size is not taken from MathQA.  It is chosen
  so that the model matches the 10.9 M parameters the ROADMAP quotes for
  the ``mathqa`` preset: the benchmark's 200-problem corpus yields 866
  token types and 10.95 M parameters, while 3,000 types would give 11.16 M.
  ``vocab_sensitivity.py`` measures what a larger vocabulary would change.
  On a 2-core machine, in a 40-token fwd+bwd of ~1 s, the lookups' backward
  takes 0.3% at 866 types, 1.5% at 3,000, 4.5% at 10,000 and 13% at 30,000.
  Up to ~10,000 types the backward cost is therefore still the dense
  weight gradients, as in the ROADMAP profile.
- The spreads below and the operator weights are not taken from MathQA
  either.  They set only the mix of shapes and operators; each run's total
  work is fixed by the shapes the benchmark draws.
- About 40 tokens per problem (``mathqa_shapes``: normal, sd 8, clipped to
  20..64), because the encoder records one LSTM step pair per token on the
  tape.
- About 9 tuples per program (normal, sd 2.5, clipped to 4..14), because the
  decoder runs one teacher-forced step per tuple plus the EOS step.
- 2 to 5 numerals per problem, written as digits in the text and linked to
  ``n0, n1, ...`` by ``data.link_numbers``, so the argument vocabulary and the
  executor see real number slots.
- Programs over ``MATHQA_OPERATORS`` with ``n_i``, ``#i`` and ``const*``
  arguments; unary operators get one argument and are padded by
  ``preprocess_samples``.  Every program executes to a finite answer, and the
  answer is one of five multiple-choice options, so ``evaluate_metrics`` can
  run ``exec_mathqa`` on gold programs.

Shapes (token and tuple counts) and content are drawn from separate seeds,
so a benchmark can keep the amount of work fixed while the problems vary.
"""

from __future__ import annotations

import math

import numpy as np

from tpn2f.data import Sample, link_numbers
from tpn2f.formal_lang import (
    DEFAULT_CONSTANTS,
    MATHQA_OPERATORS,
    ExecutionError,
    ProgramEnv,
    RelationalTuple,
    exec_mathqa,
)

N_TOKEN_TYPES = 1000
_WORDS = [f"w{i}" for i in range(N_TOKEN_TYPES)]
_WORD_P = 1.0 / np.arange(1, N_TOKEN_TYPES + 1)
_WORD_P /= _WORD_P.sum()
_OPERATORS = sorted(MATHQA_OPERATORS)
# Arithmetic dominates MathQA programs; power/sqrt/floor are rare.
_OP_WEIGHT = {"add": 4, "subtract": 4, "multiply": 5, "divide": 5,
              "power": 1, "sqrt": 1, "floor": 1}
_OP_P = np.array([_OP_WEIGHT[op] for op in _OPERATORS], dtype=float)
_OP_P /= _OP_P.sum()
_CONSTANTS = sorted(DEFAULT_CONSTANTS)
_PUNCT = ["", "", "", ",", ".", "%"]


def _clipped_normal(rng: np.random.Generator, mean: float, sd: float, lo: int, hi: int) -> int:
    return int(min(hi, max(lo, round(rng.normal(mean, sd)))))


def _argument(rng: np.random.Generator, step: int, n_numbers: int) -> str:
    kind = rng.random()
    if step > 0 and kind < 0.45:
        # Chains mostly build on the latest result, as MathQA programs do.
        back = 0 if rng.random() < 0.7 else rng.integers(step)
        return f"#{step - 1 - back}"
    if kind < 0.85:
        return f"n{rng.integers(n_numbers)}"
    return _CONSTANTS[rng.integers(len(_CONSTANTS))]


def _program(rng: np.random.Generator, n_tuples: int, numbers: list[float]
             ) -> tuple[list[RelationalTuple], float]:
    """A straight-line program with a finite answer, redrawn until it has one."""
    while True:
        program = []
        for step in range(n_tuples):
            op = _OPERATORS[rng.choice(len(_OPERATORS), p=_OP_P)]
            arity = MATHQA_OPERATORS[op][0]
            args = [_argument(rng, step, len(numbers)) for _ in range(arity)]
            if op == "power":
                args[1] = "const2" if rng.random() < 0.5 else "const3"
            program.append(RelationalTuple(op, tuple(args)))
        try:
            answer = exec_mathqa(program, ProgramEnv(numbers=list(numbers)))
        except ExecutionError:
            continue
        if math.isfinite(answer) and abs(answer) < 1e12:
            return program, answer


def _options(rng: np.random.Generator, answer: float) -> list[float]:
    offsets = rng.choice(np.arange(1, 10), size=4, replace=False)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    options = [answer] + [answer + sign * float(k) * max(1.0, abs(answer)) / 4 for k in offsets]
    order = rng.permutation(len(options))
    return [options[i] for i in order]


def mathqa_shapes(n: int, seed: int) -> list[tuple[int, int]]:
    """``n`` (token count, tuple count) pairs drawn as MathQA problems vary."""
    rng = np.random.default_rng(seed)
    return [(_clipped_normal(rng, 40, 8, 20, 64), _clipped_normal(rng, 9, 2.5, 4, 14))
            for _ in range(n)]


def _sample(rng: np.random.Generator, sample_id: str, n_tokens: int, n_tuples: int) -> Sample:
    n_numbers = int(rng.integers(2, 6))
    words = [_WORDS[i] for i in rng.choice(N_TOKEN_TYPES, size=n_tokens - n_numbers, p=_WORD_P)]
    slots = set(rng.choice(n_tokens, size=n_numbers, replace=False).tolist())
    tokens: list[str] = []
    it = iter(words)
    for pos in range(n_tokens):
        if pos in slots:
            value = int(rng.integers(2, 500))
            numeral = f"{value}" if rng.random() < 0.8 else f"{value / 4:g}"
            tokens.append(numeral + _PUNCT[rng.integers(len(_PUNCT))])
        else:
            tokens.append(next(it))
    numbers, text = link_numbers(tokens)
    program, answer = _program(rng, n_tuples, numbers)
    return Sample(id=sample_id, text=text, program=program, numbers=numbers,
                  options=_options(rng, answer))


def make_mathqa_like(seed: int, shapes: list[tuple[int, int]]) -> list[Sample]:
    """One sample per (token count, tuple count) shape; ``seed`` draws the content.

    The same seed and shapes always give the same samples.
    """
    rng = np.random.default_rng(seed)
    return [_sample(rng, f"mqa-{seed}-{k}", n_tokens, n_tuples)
            for k, (n_tokens, n_tuples) in enumerate(shapes)]
