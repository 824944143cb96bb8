#!/usr/bin/env python3
"""How the token vocabulary size moves the cost of a mathqa training step.

Usage (from the root of a checkout): python3 perfbench/vocab_sensitivity.py [SIZE ...]

The benchmark's mathqa vocabulary is built from a generated corpus (see
``mathqa_synth.py``).  This script pads that vocabulary to larger sizes and,
at the ``mathqa`` preset, prints for each size: the parameter count, the
warm fwd+bwd time of a 40-token problem with 8 program tuples, the part of
it that the 40 ``embedding_row`` lookups and their backward take (each
backward allocates a full ``(n_tokens, d_word)`` table), and one
``adam_step`` over all parameters.  Timings are medians of three.
"""

import statistics
import sys
import time

import checkout


def _median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv: list[str]) -> int:
    if not checkout.prepare():
        print(f"error: no package at {checkout.SRC / 'tpn2f'}", file=sys.stderr)
        return 2
    import numpy as np

    import tpn2f.data as data
    import tpn2f.tensor as tensor
    import tpn2f.training as training
    from tpn2f.model import build_model
    import workloads
    from mathqa_synth import make_mathqa_like

    cfg = workloads.mathqa_config(0)
    base = data.build_vocabularies(
        data.preprocess_samples(workloads.mathqa_corpus(), cfg.positions))
    problem = data.preprocess_samples(make_mathqa_like(0, [(40, 8)]), cfg.positions)
    sizes = [int(a) for a in argv] or [len(base.tokens), 3000, 10000, 30000]
    print(f"{'tokens':>7} {'params':>9} {'fwd+bwd s':>10} {'embedding ms':>13} "
          f"{'share':>6} {'adam_step s':>12}")
    for size in sizes:
        spec = base.to_dict()
        spec["tokens"] = spec["tokens"] + [f"pad{i}" for i in range(size - len(spec["tokens"]))]
        vocab = data.Vocabularies.from_dict(spec)
        model = build_model(cfg.variant(), cfg.dims(), vocab,
                            np.random.default_rng(workloads.MODEL_SEED))
        enc = training.encode_samples(problem, vocab, cfg.positions)[0]
        workloads._fwd_bwd(model, enc)   # warm-up
        fwd_bwd = statistics.median(workloads._fwd_bwd(model, enc)[0] for _ in range(3))

        table = model.encoder.embed

        def lookups():
            with tensor.GradientTape():
                rows = [tensor.embedding_row(table, i) for i in enc.token_ids]
                tensor.backward(tensor.sum_all(tensor.stack_rows(rows)))
            table.grad = None

        embedding = _median_time(lookups)
        params = [p for _, p in model.parameters()]
        state = tensor.AdamState.for_params(params, cfg.learning_rate)

        adam_times = []
        for _ in range(3):
            for p in params:
                p.grad = np.ones(p.shape)
            start = time.perf_counter()
            tensor.adam_step(params, state)
            adam_times.append(time.perf_counter() - start)
        adam = statistics.median(adam_times)
        n_params = sum(p.data.size for p in params)
        print(f"{size:>7} {n_params / 1e6:>8.3f}M {fwd_bwd:>10.3f} {1000 * embedding:>13.1f} "
              f"{embedding / fwd_bwd:>6.1%} {adam:>12.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
