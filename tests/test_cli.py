import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import monogamy_lab
from monogamy_lab import monogamy, polylp
from monogamy_lab.cli import main
from monogamy_lab.polylp import LPSolution
from monogamy_lab.scenario import (
    Behavior,
    Scenario,
    save_behavior,
    uniform_behavior,
)


def write_behavior(tmp_path, behavior, name="behavior.json"):
    path = tmp_path / name
    save_behavior(behavior, str(path))
    return str(path)


def test_validate_uniform_ok(tmp_path, capsys):
    path = write_behavior(tmp_path, uniform_behavior(Scenario(2, 2, 2)))
    code = main(["validate", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["valid"] and out["nonsignalling"]


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_signalling_reports_but_exits_zero(tmp_path, capsys):
    scn = Scenario(2, 2, 2)
    probs = [Fraction(0)] * scn.size
    for x in scn.all_settings():
        for a in scn.all_outcomes():
            if a[0] == x[1]:
                probs[scn.index(x, a)] = Fraction(1, 2)
    path = write_behavior(tmp_path, Behavior(scn, tuple(probs)))
    code = main(["validate", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0  # valid probabilities; NS is a separate verdict
    assert out["valid"] and not out["nonsignalling"]


def test_validate_invalid_behavior_exits_one(tmp_path, capsys):
    scn = Scenario(1, 1, 2)
    obj = {
        "scenario": {"N": 1, "M": 1, "d": 2},
        "encoding": "x-outer-a-inner",
        "values": ["1/2", "1/4"],
    }
    path = tmp_path / "b.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 1


def write_values(tmp_path, values):
    obj = {"scenario": {"N": 2, "M": 2, "d": 2}, "encoding": "x-outer-a-inner", "values": values}
    path = tmp_path / "b.json"
    path.write_text(json.dumps(obj))  # non-finite floats become NaN/Infinity literals
    return str(path)


NON_FINITE = [math.nan, math.inf, -math.inf, "NaN", "Infinity"]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_validate_rejects_non_finite(tmp_path, capsys, mode, bad):
    values = ["1/4"] * 16
    values[5] = bad
    assert main(["validate", write_values(tmp_path, values), "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_validate_rejects_non_finite_tolerance(tmp_path, capsys, tol):
    values = ["1/4"] * 16
    values[:4] = ["1.5", "-0.5", "0", "0"]  # a negative entry in the first column
    path = write_values(tmp_path, values)
    assert main(["validate", path, "--mode", "float", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tol must be finite and nonnegative, got {float(tol)}\n"
    # a finite tolerance reports the table as invalid
    assert main(["validate", path, "--mode", "float", "--tol", "1e-9"]) == 1
    assert not json.loads(capsys.readouterr().out)["valid"]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_bell_rejects_non_finite(tmp_path, capsys, mode, bad):
    values = ["1/4"] * 16
    values[0] = bad
    assert main(["bell", "2", "2", "2", write_values(tmp_path, values), "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_validate_reads_json_numbers_as_decimals(tmp_path, capsys, mode):
    path = tmp_path / "b.json"
    path.write_text('{"scenario": {"N": 1, "M": 1, "d": 2}, "values": [0.1, 0.9]}')
    assert main(["validate", str(path), "--mode", mode]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] and report["problems"] == []


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_json_numbers_and_decimal_strings_agree(tmp_path, capsys, mode):
    numbers = [0.1, 0.2, 0.3, 0.4] * 4
    reports = []
    for values in (numbers, [repr(v) for v in numbers]):
        path = write_values(tmp_path, values)
        for argv in (["validate", path], ["bell", "2", "2", "2", path]):
            assert main(argv + ["--mode", mode]) == 0
            reports.append(capsys.readouterr().out)
    assert reports[:2] == reports[2:]
    if mode == "exact":
        assert json.loads(reports[1])["value"] == "2"


@pytest.mark.parametrize(
    "mode, entry",
    [
        ("exact", "1e999999999"),
        ("float", "1e999999999"),
        ("exact", '"1e999999999"'),
        ("float", '"1e999999999"'),
        ("exact", '"0e-5000"'),
    ],
    ids=["exact", "float", "exact-string", "float-string", "exact-string-zero"],
)
def test_validate_rejects_huge_exponent(tmp_path, capsys, mode, entry):
    path = tmp_path / "b.json"
    path.write_text('{"scenario": {"N": 1, "M": 1, "d": 2}, "values": [%s, 0]}' % entry)
    assert main(["validate", str(path), "--mode", mode]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "obj",
    [
        {"scenario": {"N": 1, "M": 1, "d": 2}, "values": 5},
        {"scenario": {"N": 1, "M": 1, "d": 2}, "values": None},
        {"scenario": {"N": 1, "M": 1, "d": 2}, "values": True},
        {"scenario": {"N": 1, "M": 1, "d": 2.7}, "values": ["1/2", "1/2"]},
    ],
    ids=["int", "null", "true", "fractional-size"],
)
def test_validate_rejects_malformed_behavior(tmp_path, capsys, obj):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["tightness", "2", "2", "2", "--mode", "float"],
        ["figures", "2a", "--format", "json"],
        ["ra", "2", "2", "0.05", "--lam", "1.23", "--seed", "1"],
        ["quantum", "violation", "--mode", "float"],
        ["validate", "{behavior}", "--format", "json"],
        ["bell", "2", "2", "2", "--tol", "1e-3"],
    ],
    ids=[
        "tightness-mode", "figures-format", "ra-seed", "quantum-mode", "validate-format", "bell-tol"
    ],
)
def test_unread_flags_are_rejected(tmp_path, capsys, argv):
    path = write_behavior(tmp_path, uniform_behavior(Scenario(2, 2, 2)))
    with pytest.raises(SystemExit) as exc:
        main([a.format(behavior=path) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


@pytest.mark.parametrize("argv", [["bell", "25", "2", "2"], ["tightness", "12", "2", "2"]])
def test_scenario_past_the_size_cap_exits_3(monkeypatch, capsys, argv):
    monkeypatch.delenv("MONOGAMY_LAB_CAP", raising=False)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds the size cap 10000000" in captured.err


def test_bell_export_and_evaluate(tmp_path, capsys):
    assert main(["bell", "3", "2", "2", "--format", "json"]) == 0
    exported = json.loads(capsys.readouterr().out)
    assert exported["classical_bound"] == "1"
    assert exported["ns_minimum"] == "0"

    path = write_behavior(tmp_path, uniform_behavior(Scenario(2, 2, 2)))
    assert main(["bell", "2", "2", "2", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == "2"


def test_bell_dense_csv(capsys):
    assert main(["bell", "2", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "x0,x1,a0,a1,coefficient"


def test_tightness_cli(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code = main(["tightness", "2", "2", "2", "--grid", "0,1/2,1", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "k,x_k,x_last,m,t,lhs,bound,slack"
    assert len(lines) == 4
    assert all(line.endswith(",0") for line in lines[1:])  # zero slack: tight


def recorded_engines(monkeypatch):
    """The engine of every LP that polylp.solve returns from now on."""
    engines = []
    solve = polylp.solve

    def recording(lp):
        sol = solve(lp)
        engines.append(sol.engine)
        return sol

    monkeypatch.setattr(polylp, "solve", recording)
    return engines


def test_tightness_near_ties_are_certified_from_the_end_solves(capsys, monkeypatch):
    # HiGHS reads t = 1e-18 as 0 and 1 - 1e-18 as 1; no row is solved at
    # its own target: the LPs at t = 0 and t = 1 certify all three
    engines = recorded_engines(monkeypatch)
    grid = "1/1000000000000000000,1/2,999999999999999999/1000000000000000000"
    assert main(["tightness", "2", "2", "2", "--grid", grid]) == 0
    assert capsys.readouterr().out == (
        "k,x_k,x_last,m,t,lhs,bound,slack\r\n"
        "0,0,0,0,1/1000000000000000000,1000000000000000001/2000000000000000000,"
        "1000000000000000001/2000000000000000000,0\r\n"
        "0,0,0,0,1/2,3/4,3/4,0\r\n"
        "0,0,0,0,999999999999999999/1000000000000000000,"
        "1999999999999999999/2000000000000000000,1999999999999999999/2000000000000000000,0\r\n"
    )
    assert engines == ["highs", "highs"]


TIGHTNESS_222 = (
    "k,x_k,x_last,m,t,lhs,bound,slack\r\n"
    "0,0,0,0,0,1/2,1/2,0\r\n"
    "0,0,0,0,1/4,5/8,5/8,0\r\n"
    "0,0,0,0,1/2,3/4,3/4,0\r\n"
    "0,0,0,0,3/4,7/8,7/8,0\r\n"
    "0,0,0,0,1,1,1,0\r\n"
)


def test_tightness_default_shift_output(capsys):
    assert main(["tightness", "2", "2", "2"]) == 0
    assert capsys.readouterr().out == TIGHTNESS_222
    assert main(["tightness", "2", "2", "2", "--m", "0"]) == 0
    assert capsys.readouterr().out == TIGHTNESS_222


def test_tightness_scans_the_given_shift(capsys):
    assert main(["tightness", "2", "2", "2", "--m", "1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 5
    assert all(r["m"] == 1 and r["tight"] and r["lp_max"] == r["bound"] for r in rows)
    assert main(["tightness", "2", "2", "3", "--m", "2", "--grid", "0,1,2"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split(",")[3] for line in lines] == ["2"] * 3
    assert all(line.endswith(",0") for line in lines)


@pytest.mark.parametrize(
    "grid, code, status",
    [("0,1/2", 1, "infeasible"), ("2", 0, "out-of-range")],
    ids=["in-range", "out-of-range"],
)
def test_tightness_fails_on_rows_without_an_optimum(capsys, monkeypatch, grid, code, status):
    # every target in [0, d-1] is feasible, so any other status is a failure;
    # a target outside that range is reported and not solved
    monkeypatch.setattr(monogamy, "optimize_over_ns", lambda *args, **kw: LPSolution("infeasible"))
    assert main(["tightness", "2", "2", "2", "--grid", grid]) == code
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == len(grid.split(",")) and all(r.endswith("," + status) for r in rows)


def test_figures_guessing(capsys):
    assert main(["figures", "2a", "--d", "3", "--points", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "I,bound_tight,bound_prior"
    assert len(lines) == 11


def test_figures_keyrate_with_proxy_is_deterministic(tmp_path):
    # uses computed violations; keep it small and check reproducibility
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    args = ["figures", "2b", "--d-list", "3", "--rates", "1", "--max-m", "6"]
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_ra_report(capsys):
    assert main(["ra", "2", "2", "0.05", "--lam", "1.23"]) == 0
    out = capsys.readouterr().out
    assert "critical_per_party=0.08578643762690498" in out
    assert "critical_common=0.16666666666666666" in out
    assert "below both thresholds" in out


def test_ra_verdict_above(capsys):
    assert main(["ra", "2", "2", "0.2", "--lam", "1.23"]) == 0
    assert "above both thresholds" in capsys.readouterr().out


def test_ra_thresholds_decrease_with_n(capsys):
    assert main(["ra", "3", "2", "0.05", "--lam", "1.23"]) == 0
    out3 = capsys.readouterr().out
    eps3 = float(out3.split("critical_per_party=")[1].split()[0])
    assert eps3 < 0.08578643762690498


def test_ra_rejects_bad_epsilon(capsys):
    assert main(["ra", "2", "2", "0.7", "--lam", "1.0"]) == 2


@pytest.mark.parametrize("epsilon", ["1/2", "0.5", "7/10"])
def test_ra_epsilon_range_message(capsys, epsilon):
    assert main(["ra", "2", "2", epsilon]) == 2
    assert capsys.readouterr() == ("", "error: epsilon must lie in [0, 1/2)\n")


def test_quantum_violation_cli(capsys):
    assert main(["quantum", "violation", "--M", "2", "--d", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["value"] - 0.5857864376269049) < 1e-6


def test_quantum_theorem_check_cli(capsys):
    assert main(["quantum", "monogamy-check", "--samples", "200", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == 0


def test_quantum_monogamy_check_stdout_is_stable(capsys):
    # stdout of the per-state, per-alpha loop that the batched Monte-Carlo replaced
    assert main(["quantum", "monogamy-check", "--samples", "200", "--seed", "3"]) == 0
    assert capsys.readouterr().out == (
        '{\n "n_states": 200,\n "alphas": [\n  1.0,\n  1.5,\n  2.0,\n  3.0\n ],\n "seed": 3,\n'
        ' "worst_slack": 1.6772356178584857e-05,\n "worst_slack_per_alpha": {\n'
        '  "1.0": 1.6772356178584857e-05,\n  "1.5": 0.03398627050712477,\n'
        '  "2.0": 0.06026109579402217,\n  "3.0": 0.13533202518516418\n },\n "violations": 0\n}\n'
    )


@pytest.mark.parametrize("args", [
    ["quantum", "monogamy-check", "--samples", "0"],
    ["quantum", "monogamy-check", "--samples", "-5"],
    ["quantum", "family-sweep", "--alpha", "nan"],
    ["quantum", "family-sweep", "--alpha", "inf"],
    ["quantum", "family-sweep", "--points", "1"],
    ["quantum", "family-sweep", "--points", "0"],
    ["figures", "2a", "--points", "1"],
    ["figures", "2a", "--d", "1", "--points", "3"],
    ["figures", "2a", "--d", "0"],
    ["figures", "2b", "--d-list", "1"],
    ["figures", "2b", "--rates", "nan"],
    ["figures", "2b", "--rates", "1,inf"],
    ["ra", "2", "2", "0.12", "--lam", "nan"],
    ["ra", "2", "2", "0.12", "--lam=-inf"],
    ["ra", "2", "2", "0.12", "--lam", "1", "--m-list", "0,1"],
    ["ra", "2", "2", "0.12", "--lam", "1", "--m-list", "2,1"],
    ["ra", "2", "2", "0.12", "--lam=-1"],
    ["ra", "2", "1", "0.12", "--lam", "1"],
    ["ra", "2", "0", "0.12", "--lam", "1"],
    ["tightness", "2", "2", "2", "--k", "2"],
    ["tightness", "2", "2", "2", "--k", "-1"],
    ["tightness", "2", "2", "2", "--k", "5"],
    ["tightness", "2", "2", "2", "--grid", "1/0"],
    ["tightness", "2", "2", "2", "--grid", "1e100000000"],
    ["tightness", "2", "1", "2"],
    ["tightness", "2", "2", "2", "--m", "2"],
    ["tightness", "2", "2", "2", "--m", "-1"],
    ["bell", "2", "1", "2"],
    ["figures", "2b", "--max-m", "1"],
    ["figures", "2b", "--max-m", "-3"],
])
def test_quantum_rejects_bad_values(capsys, args):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_quantum_family_sweep_cli(capsys):
    assert main(["quantum", "family-sweep", "--alpha", "1.0", "--points", "9"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "theta,bell_max,outsider_corr,boundary_residual"
    assert len(lines) == 10
    for line in lines[1:]:
        assert abs(float(line.split(",")[-1])) < 1e-9


def test_seed_reproducibility(tmp_path):
    f1 = tmp_path / "r1.json"
    f2 = tmp_path / "r2.json"
    args = ["quantum", "monogamy-check", "--samples", "100", "--seed", "11"]
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


# Runs CLI commands in one fresh interpreter, in four stages, and prints as
# JSON each stage's exit codes and whether numpy and scipy were loaded after it.
_IMPORT_GUARD = """
import contextlib, io, json, sys
import monogamy_lab
from monogamy_lab.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))

stages = [
    [],
    [
        ("bell", "2", "2", "2"),
        ("validate", sys.argv[1]),
        ("figures", "2a", "--d", "3", "--points", "5"),
        ("ra", "2", "2", "0.12", "--lam", "1.23"),
    ],
    [
        ("quantum", "violation", "--M", "2", "--d", "3"),
        ("quantum", "monogamy-check", "--samples", "50"),
    ],
    [("tightness", "2", "2", "2")],
]
print(json.dumps([
    [[run(*argv) for argv in stage], "numpy" in sys.modules, "scipy" in sys.modules]
    for stage in stages
]))
"""


def test_numpy_and_scipy_load_only_where_they_run(tmp_path):
    # a fresh process: this one has loaded numpy and scipy already
    path = write_behavior(tmp_path, uniform_behavior(Scenario(2, 2, 2)))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(monogamy_lab.__file__)))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, path],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout)
    assert stages == [
        [[], False, False],  # import monogamy_lab and monogamy_lab.cli
        [[0] * 4, False, False],  # exact commands
        [[0] * 2, True, False],  # float quantum numerics
        [[0], True, True],  # an LP solve
    ]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
# Each command's stdout and exit code, byte for byte, as tests/golden/NAME.stdout
# and NAME.exit: the datasets and reports are a CLI contract, CSV line endings
# (\r\n) included.  The float evaluations read two behaviors kept beside them:
# violation-243.json is violation_behavior(chained_quantum_violation(4, 3)) and
# random-322.json is random_behavior(Scenario(3, 2, 2), random.Random(0)) in floats.
GOLDEN_COMMANDS = {
    "tightness-223-grid": ["tightness", "2", "2", "3", "--grid", "0,1,2"],
    "tightness-222-json": ["tightness", "2", "2", "2", "--format", "json"],
    "bell-322-json": ["bell", "3", "2", "2", "--format", "json"],
    "bell-222": ["bell", "2", "2", "2"],
    "figures-2a": ["figures", "2a", "--d", "3", "--points", "11"],
    "figures-2b": ["figures", "2b", "--d-list", "3", "--rates", "1,log2(3)", "--max-m", "6"],
    "ra-lam": ["ra", "2", "2", "0.12", "--lam", "1.23"],
    "tightness-323": ["tightness", "3", "2", "3"],
    "tightness-332-json": ["tightness", "3", "3", "2", "--format", "json"],
    "bell-243-float": ["bell", "2", "4", "3", os.path.join(GOLDEN, "violation-243.json"), "--mode", "float"],
    "bell-322-float": ["bell", "3", "2", "2", os.path.join(GOLDEN, "random-322.json"), "--mode", "float"],
}


@pytest.mark.parametrize("name", GOLDEN_COMMANDS)
def test_stdout_matches_golden(capsysbinary, name):
    code = main(GOLDEN_COMMANDS[name])
    with open(os.path.join(GOLDEN, name + ".stdout"), "rb") as fh:
        assert capsysbinary.readouterr().out == fh.read()
    with open(os.path.join(GOLDEN, name + ".exit")) as fh:
        assert code == int(fh.read())
