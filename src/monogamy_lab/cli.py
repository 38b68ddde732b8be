"""Command-line front end.

Subcommands: validate, bell, tightness, figures, ra, quantum.  CSV is the
canonical dataset format, JSON the machine-readable report format; output is
deterministic for a fixed seed (sorted rows, repr-stable numbers).

Exit codes: 0 success, 1 verification failure (some inequality violated),
2 input error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import bell, monogamy, quantum, scenario, svamp
from .errors import InputFormatError, ScenarioTooLargeError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    behavior = scenario.load_behavior(args.behavior, exact=args.mode == "exact")
    tol = 0 if args.mode == "exact" else args.tol
    problems = scenario.validate(behavior, tol)
    ns_ok, worst = scenario.is_nonsignalling(behavior, tol)
    report = {
        "valid": not problems,
        "problems": problems,
        "nonsignalling": ns_ok,
        "worst_ns_deviation": scenario.format_number(worst),
    }
    _emit(args, scenario.json_text(report))
    return EXIT_OK if not problems else EXIT_VIOLATION


def cmd_bell(args) -> int:
    functional = bell.recursive_bkp(args.N, args.M, args.d)
    if args.behavior:
        behavior = scenario.load_behavior(args.behavior, exact=args.mode == "exact")
        value = bell.evaluate(functional, behavior)
        report = {
            "value": scenario.format_number(value),
            "classical_bound": scenario.format_number(functional.classical_bound),
            "ns_minimum": scenario.format_number(functional.ns_minimum),
        }
        _emit(args, scenario.json_text(report))
    elif args.format == "json":
        _emit(args, scenario.json_text(bell.functional_to_json(functional)))
    else:
        _emit(args, bell.dense_csv(functional))
    return EXIT_OK


def cmd_tightness(args) -> int:
    scn = scenario.Scenario(args.N + 1, args.M, args.d)
    grid = None
    if args.grid is not None:
        grid = [scenario.parse_number(t, exact=True) for t in args.grid.split(",")]
    rows = monogamy.tightness_scan(scn, args.k, args.x_k, args.x_last, grid, args.m)
    if args.format == "json":
        report = monogamy.scan_to_json(rows, args.k, args.x_k, args.x_last, args.m)
        _emit(args, scenario.json_text(report))
    else:
        _emit(args, monogamy.scan_to_csv(rows, args.k, args.x_k, args.x_last, args.m))
    # every target in [0, d-1] is feasible, so only the targets outside it
    # may lack an optimum; a row without one is never tight
    return EXIT_OK if all(r.tight for r in rows if r.status != "out-of-range") else EXIT_VIOLATION


def cmd_figures(args) -> int:
    if args.which == "2a":
        _emit(args, quantum.guessing_curve_csv(args.d, n_points=args.points))
        return EXIT_OK
    # argparse's choices leave "2b"
    ds = [int(v) for v in args.d_list.split(",")]
    targets = []
    for t in args.rates.split(","):
        targets.append(math.log2(3) if t.strip() == "log2(3)" else float(t))
    _emit(args, quantum.key_rate_table_csv(ds, targets, max_m=args.max_m))
    return EXIT_OK


def cmd_ra(args) -> int:
    eps = scenario.parse_number(args.epsilon, exact=True)
    svamp.float_epsilon(eps)  # the range check, then the float's, before any violation
    eps_n = svamp.critical_epsilon(args.N)
    eps_common = svamp.critical_epsilon_common(args.N)
    verdict = (  # exact comparisons; eps_n < eps_common for every N >= 2
        "below both thresholds" if eps < eps_n
        else "above both thresholds" if eps >= eps_common
        else "between thresholds (common-source variant still works)"
    )
    m_values = [int(v) for v in args.m_list.split(",")]
    svamp.check_curve_sizes(args.d, m_values)
    lam = args.lam
    if lam is None:
        violations = {m: quantum.chained_quantum_violation(m, args.d).value for m in m_values}
    elif not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")
    else:
        violations = {m: abs(lam) / m for m in m_values}  # -0.0 passes the check
    rows = svamp.feasibility_curve(args.N, args.d, eps, violations)
    header = (
        f"epsilon={float(eps)!r} critical_per_party={float(eps_n)!r} "
        f"critical_common={float(eps_common)!r} verdict={verdict}\n"
    )
    _emit(args, header + svamp.curve_to_csv(args.N, args.d, eps, rows))
    return EXIT_OK


def cmd_quantum(args) -> int:
    if args.subtask == "monogamy-check":
        summary = quantum.monogamy_montecarlo(args.samples, [1.0, 1.5, 2.0, 3.0], seed=args.seed)
        _emit(args, scenario.json_text(summary))
        return EXIT_OK if summary["violations"] == 0 else EXIT_VIOLATION
    if args.subtask == "violation":
        res = quantum.chained_quantum_violation(args.M, args.d)
        report = {
            "M": args.M,
            "d": args.d,
            "value": res.value,
            "phases_a": [list(map(float, row)) for row in res.phases_a],
            "phases_b": [list(map(float, row)) for row in res.phases_b],
        }
        _emit(args, scenario.json_text(report))
        return EXIT_OK
    # argparse's choices leave "family-sweep"
    _emit(args, quantum.family_sweep_csv(args.alpha, args.points))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monogamy-lab",
        description="Bell-functional monogamy over no-signalling polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "out": dict(default=None, help="write the output to this file"),
        "mode": dict(choices=["exact", "float"], default="exact"),
        "tol": dict(type=float, default=1e-9, help="float-mode tolerance"),
        "format": dict(choices=["csv", "json"], default="csv"),
        "seed": dict(type=int, default=0),
    }

    def sub_parser(name, *reads, **kwargs):
        """A subcommand taking --out and the shared flags it reads."""
        p = sub.add_parser(name, **kwargs)
        for flag in ("out",) + reads:
            p.add_argument(f"--{flag}", **flags[flag])
        return p

    p = sub_parser("validate", "mode", "tol", help="validate a behavior file and report NS status")
    p.add_argument("behavior")
    p.set_defaults(func=cmd_validate)

    p = sub_parser("bell", "mode", "format", help="construct/evaluate the chained functional")
    p.add_argument("N", type=int)
    p.add_argument("M", type=int)
    p.add_argument("d", type=int)
    p.add_argument("behavior", nargs="?", default=None)
    p.set_defaults(func=cmd_bell)

    p = sub_parser("tightness", "format", help="LP scan of the agreement-probability bound")
    p.add_argument("N", type=int, help="number of Bell-test parties")
    p.add_argument("M", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--x-k", dest="x_k", type=int, default=0)
    p.add_argument("--x-last", dest="x_last", type=int, default=0)
    p.add_argument("--m", type=int, default=0, help="outcome shift, in range(d)")
    p.add_argument("--grid", default=None, help="comma-separated rational targets")
    p.set_defaults(func=cmd_tightness)

    p = sub_parser("figures", help="emit guessing-curve / key-rate datasets")
    p.add_argument("which", choices=["2a", "2b"], help="dataset id")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--d-list", dest="d_list", default="3,4,5")
    p.add_argument("--rates", default="1", help="comma-separated targets; log2(3) allowed")
    p.add_argument("--max-m", dest="max_m", type=int, default=12)
    p.set_defaults(func=cmd_figures)

    p = sub_parser("ra", help="randomness-amplification thresholds and curves")
    p.add_argument("N", type=int)
    p.add_argument("d", type=int)
    p.add_argument("epsilon")
    p.add_argument("--m-list", dest="m_list", default="2,4,8,16")
    p.add_argument("--lam", type=float, default=None, help="use lam/M instead of computed violations")
    p.set_defaults(func=cmd_ra)

    p = sub_parser("quantum", "seed", help="quantum monogamy checks and violations")
    p.add_argument("subtask", choices=["monogamy-check", "violation", "family-sweep"])
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--points", type=int, default=50)
    p.set_defaults(func=cmd_quantum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InputFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
