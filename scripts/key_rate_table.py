#!/usr/bin/env python3
"""Minimal measurement counts for target key rates on maximally entangled
pairs, comparing the tight guessing bound with the prior one.

Results land in results/key_rate_table.csv.
"""

import math
import pathlib
import sys

from monogamy_lab.quantum import key_rate_table_csv

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def main() -> int:
    ds = [int(v) for v in sys.argv[1:]] or [3, 4, 5]
    targets = [1.0, math.log2(3), 2.0]
    OUT.mkdir(exist_ok=True)
    path = OUT / "key_rate_table.csv"
    path.write_text(key_rate_table_csv(ds, targets, max_m=12))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
