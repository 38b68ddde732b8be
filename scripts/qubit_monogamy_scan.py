#!/usr/bin/env python3
"""Monte-Carlo scan of the three-qubit monogamy inequalities plus the
boundary sweep of the saturating state family.  Runs

    monogamy-lab quantum monogamy-check --samples N --seed 0
    monogamy-lab quantum family-sweep --alpha 1.0 --points 50

and writes their outputs to results/qubit_monogamy_mc.json and
results/saturating_family_sweep.csv."""

import pathlib
import sys

from monogamy_lab.cli import main as cli

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def main() -> int:
    n_states = sys.argv[1] if len(sys.argv) > 1 else "10000"
    OUT.mkdir(exist_ok=True)
    runs = {
        "qubit_monogamy_mc.json": ["monogamy-check", "--samples", n_states, "--seed", "0"],
        "saturating_family_sweep.csv": ["family-sweep", "--alpha", "1.0", "--points", "50"],
    }
    codes = []
    for name, args in runs.items():
        codes.append(cli(["quantum", *args, "--out", str(OUT / name)]))
        print(f"quantum {args[0]} -> results/{name}: exit code {codes[-1]}")
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
