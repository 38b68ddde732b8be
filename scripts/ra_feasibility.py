#!/usr/bin/env python3
"""Randomness-amplification feasibility: critical biases and the
bias-amplified bound over a settings ladder, using computed quantum
violations.  Writes results/ra_feasibility.csv."""

import pathlib
import sys
from fractions import Fraction

from monogamy_lab.quantum import chained_quantum_violation
from monogamy_lab.svamp import (
    critical_epsilon,
    critical_epsilon_common,
    curve_to_csv,
    feasibility_curve,
)

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def main() -> int:
    d = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    n = 2
    m_values = [2, 4, 8, 16]
    print(f"critical bias per-party: {critical_epsilon(n):.6f}, "
          f"common-source: {float(critical_epsilon_common(n)):.6f}")
    violations = {m: chained_quantum_violation(m, d).value for m in m_values}
    chunks = []
    for eps in (Fraction(1, 20), Fraction(12, 100), Fraction(1, 5)):
        for variant in ("per-party", "common-source"):
            rows = feasibility_curve(n, d, eps, m_values, violations=violations, variant=variant)
            chunks.append(curve_to_csv(n, d, eps, rows))
    header, *rest = chunks[0].splitlines(keepends=True)
    body = [header] + [line for chunk in chunks for line in chunk.splitlines(keepends=True)[1:]]
    OUT.mkdir(exist_ok=True)
    (OUT / "ra_feasibility.csv").write_text("".join(body))
    print("wrote results/ra_feasibility.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
