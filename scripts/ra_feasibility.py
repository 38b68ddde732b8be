#!/usr/bin/env python3
"""Randomness-amplification feasibility: critical biases and the
bias-amplified bound over a settings ladder, using computed quantum
violations.  For each epsilon 0.05, 0.12 and 0.2 runs

    monogamy-lab ra 2 D EPS --m-list 2,4,8,16 --out results/ra_feasibility_EPS.csv

for the outcome count D given (default 2) and returns the largest exit code."""

import pathlib
import sys

from monogamy_lab.cli import main as cli

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def main() -> int:
    d = sys.argv[1] if len(sys.argv) > 1 else "2"
    OUT.mkdir(exist_ok=True)
    codes = []
    for eps in ("0.05", "0.12", "0.2"):
        name = f"ra_feasibility_{eps}.csv"
        codes.append(cli(["ra", "2", d, eps, "--m-list", "2,4,8,16", "--out", str(OUT / name)]))
        print(f"ra 2 {d} {eps} -> results/{name}: exit code {codes[-1]}")
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
