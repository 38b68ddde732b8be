#!/usr/bin/env python3
"""Minimal measurement counts for target key rates on maximally entangled
pairs, comparing the tight guessing bound with the prior one.  Runs

    monogamy-lab figures 2b --d-list D1,D2,... --rates 1,log2(3),2 --max-m 12
        --out results/key_rate_table.csv

for the outcome counts given (default 3 4 5) and returns its exit code."""

import pathlib
import sys

from monogamy_lab.cli import main as cli

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def main() -> int:
    ds = ",".join(sys.argv[1:]) or "3,4,5"
    OUT.mkdir(exist_ok=True)
    code = cli(["figures", "2b", "--d-list", ds, "--rates", "1,log2(3),2", "--max-m", "12",
                "--out", str(OUT / "key_rate_table.csv")])
    print(f"figures 2b --d-list {ds} -> results/key_rate_table.csv: exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
