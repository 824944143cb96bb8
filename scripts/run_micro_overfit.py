#!/usr/bin/env python3
"""Overfit the reduced-dimension model on the synthetic micro dataset.

Prints each epoch's JSON-lines log record (as in ``train_log.jsonl``) and
exits non-zero if greedy decoding does not reach 100% operation-sequence
accuracy within the epoch budget; ``micro_config`` stops training there.
"""

import argparse
import sys

import numpy as np

from tpn2f.data import build_vocabularies, preprocess_samples
from tpn2f.model import build_model
from tpn2f.synthetic import make_micro_dataset, micro_config
from tpn2f.training import train


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=500)
    args = ap.parse_args()

    cfg = micro_config()
    cfg.seed = args.seed
    cfg.epochs = args.epochs
    samples = preprocess_samples(make_micro_dataset(50, seed=0), positions=cfg.positions)
    model = build_model(cfg.variant(), cfg.dims(), build_vocabularies(samples),
                        np.random.default_rng(cfg.seed))
    history = train(model, samples, cfg, log_stream=sys.stdout)
    if history and history[-1].op_acc == 1.0:
        print(f"reached 100% operation accuracy at epoch {history[-1].epoch}")
        return 0
    print("did not reach 100% operation accuracy", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
