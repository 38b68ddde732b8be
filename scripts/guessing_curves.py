#!/usr/bin/env python3
"""Guessing-probability bound curves (tight vs prior) for several outcome
counts.  For each d (default 2, 3, 4 and 8) runs

    monogamy-lab figures 2a --d D --out results/guessing_bounds_dD.csv

and returns the largest exit code."""

import pathlib
import sys

from monogamy_lab.cli import main as cli

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def main() -> int:
    ds = sys.argv[1:] or ["2", "3", "4", "8"]
    OUT.mkdir(exist_ok=True)
    codes = []
    for d in ds:
        name = f"guessing_bounds_d{d}.csv"
        codes.append(cli(["figures", "2a", "--d", d, "--out", str(OUT / name)]))
        print(f"figures 2a --d {d} -> results/{name}: exit code {codes[-1]}")
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
