#!/usr/bin/env python3
"""Write the checkpoint mathqa-infer serves, in a process of its own.

Usage: python3 perfbench/fixture.py --seed DATA_SEED --out PATH
Prints one JSON line: training seconds, sample count and epoch losses.
"""

import argparse
import json
import sys

import checkout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if not checkout.prepare():
        print(f"error: no package at {checkout.SRC / 'tpn2f'}", file=sys.stderr)
        return 2
    import workloads

    print(json.dumps(workloads.write_infer_checkpoint(args.seed, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
