#!/usr/bin/env python3
"""Quick self-test of the benchmark at tiny sizes; not part of the test suite.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that a run prints exactly the
metrics named there, each with its unit (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``), that every check passes, and that the traced
counts repeat exactly for a seed.  It also checks that a deliberately wrong
expected value is counted as a failed operation and that a traced name that
does not exist is reported as missing.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from numbers import Real
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(workload: str, trace: int, seed: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def output_problems(label: str, result: dict, expected_units: dict) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct {result['correct']}, "
                        f"{result['failed']}/{result['attempted']} failed")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected_units:
        missing = sorted(set(expected_units) - set(units))
        extra = sorted(set(units) - set(expected_units))
        wrong = sorted(n for n in set(units) & set(expected_units) if units[n] != expected_units[n])
        problems.append(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], Real) or isinstance(m["value"], bool):
            problems.append(f"{label}: {name} value {m['value']!r} is not a number")
    return problems


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result = bench_run(workload, trace)
            problems += output_problems(f"{workload} trace {trace}", result, units[trace])
            if trace == 1:
                again = bench_run(workload, 1)
                for name, unit in units[1].items():
                    if unit == "count" and (result["metrics"].get(name, {}).get("value")
                                            != again["metrics"].get(name, {}).get("value")):
                        problems.append(f"{workload}: count {name} differs between traced runs")
        print(f"checked {workload}", flush=True)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import tracer
    import workloads

    workloads.NS_MINIMUM = Fraction(1)  # deliberately wrong: the theorem value is 0
    ops = workloads.build("ns-lp", 0, "tiny")
    runner = run.Runner(ops)
    runner.run_pass()
    wrong = sum(op.label.startswith("ns_min(") for op in ops)
    if runner.failed != wrong or runner.attempted != len(ops):
        problems.append(f"wrong expected value: {runner.failed}/{runner.attempted} failed, "
                        f"expected {wrong}/{len(ops)}")

    t = tracer.Tracer(["polylp.no_such_function", "bell.BellFunctional.no_such_method"])
    t.install()
    t.uninstall()
    if t.missing != {"polylp.no_such_function", "bell.BellFunctional.no_such_method"}:
        problems.append(f"missing names reported as {sorted(t.missing)}")

    for p in problems:
        print("PROBLEM", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
