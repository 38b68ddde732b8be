#!/usr/bin/env python3
"""Write the experiment datasets to results/ and return the largest exit
code.  Each file is the output of one CLI command:

    monogamy-lab figures 2a --d D                 guessing_bounds_dD.csv (D = 2, 3, 4, 8)
    monogamy-lab figures 2b --d-list 3,4,5 --rates 1,log2(3),2 --max-m 12
                                                  key_rate_table.csv
    monogamy-lab quantum monogamy-check --samples 10000 --seed 0
                                                  qubit_monogamy_mc.json
    monogamy-lab quantum family-sweep --alpha 1.0 --points 50
                                                  saturating_family_sweep.csv
    monogamy-lab ra 2 2 EPS --m-list 2,4,8,16     ra_feasibility_EPS.csv (EPS = 0.05, 0.12, 0.2)

For other parameters, run the command with ``--out FILE``."""

import pathlib
import sys

from monogamy_lab.cli import main as cli

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"

RUNS = {
    **{f"guessing_bounds_d{d}.csv": ["figures", "2a", "--d", d] for d in ("2", "3", "4", "8")},
    "key_rate_table.csv": ["figures", "2b", "--d-list", "3,4,5", "--rates", "1,log2(3),2", "--max-m", "12"],
    "qubit_monogamy_mc.json": ["quantum", "monogamy-check", "--samples", "10000", "--seed", "0"],
    "saturating_family_sweep.csv": ["quantum", "family-sweep", "--alpha", "1.0", "--points", "50"],
    **{
        f"ra_feasibility_{eps}.csv": ["ra", "2", "2", eps, "--m-list", "2,4,8,16"]
        for eps in ("0.05", "0.12", "0.2")
    },
}


def main() -> int:
    OUT.mkdir(exist_ok=True)
    codes = []
    for name, args in RUNS.items():
        codes.append(cli([*args, "--out", str(OUT / name)]))
        print(f"{' '.join(args)} -> results/{name}: exit code {codes[-1]}")
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
