#!/usr/bin/env python3
"""Monte-Carlo scan of the three-qubit monogamy inequalities plus the
boundary sweep of the saturating state family.  Writes a JSON summary and
a CSV sweep into results/."""

import json
import pathlib
import sys

from monogamy_lab.quantum import family_sweep_csv, monogamy_montecarlo

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def main() -> int:
    n_states = int(sys.argv[1]) if len(sys.argv) > 1 else 10000
    OUT.mkdir(exist_ok=True)

    summary = monogamy_montecarlo(n_states, [1.0, 1.5, 2.0, 3.0], seed=0)
    (OUT / "qubit_monogamy_mc.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"{n_states} states: {summary['violations']} violations, "
          f"worst slack {summary['worst_slack']:.3e}")

    (OUT / "saturating_family_sweep.csv").write_text(family_sweep_csv(1.0, 50))
    print("wrote results/qubit_monogamy_mc.json and results/saturating_family_sweep.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
