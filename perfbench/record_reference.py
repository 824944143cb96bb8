#!/usr/bin/env python3
"""Record the reference outputs the workloads check against.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

For every data seed it stores micro-train's per-epoch mean losses,
mathqa-train's epoch mean loss (the same run writes mathqa-infer's
checkpoint), and the
digests of mathqa-infer's greedy predictions over its sample pool, in
``perfbench/reference.json``.  Re-record only when the program's intended
outputs change, and say so in CHANGES.md.
"""

import json
import sys

import checkout


def main() -> int:
    if not checkout.prepare():
        print(f"error: no package at {checkout.SRC / 'tpn2f'}", file=sys.stderr)
        return 2
    import workloads

    workloads.OUT_DIR.mkdir(exist_ok=True)
    checkpoint = workloads.OUT_DIR / "reference.ckpt"
    micro, mathqa, infer = [], [], []
    try:
        for seed in range(workloads.REFERENCE_SEEDS):
            micro.append(workloads.micro_losses(seed))
            mathqa.append(workloads.write_infer_checkpoint(seed, checkpoint)["losses"])
            infer.append(workloads.infer_predictions(seed, checkpoint))
            print(f"seed {seed}: micro losses {micro[-1]}", flush=True)
    finally:
        checkpoint.unlink(missing_ok=True)
    reference = {"seeds": workloads.REFERENCE_SEEDS, "micro_epochs": workloads.MICRO_EPOCHS,
                 "infer_pool": workloads.INFER_POOL,
                 "micro_mean_loss": micro, "mathqa_train_mean_loss": mathqa,
                 "infer_predictions": infer}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
