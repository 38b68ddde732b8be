"""Exact linear programming over behavior variables.

:func:`solve` returns certified optima.  It solves the LP in floats with
scipy's HiGHS, turns the float answer into rationals and accepts it only
after an exact check of primal feasibility, dual feasibility
(``c - A^T y >= 0``) and strong duality on the standard form, the approach of
QSopt_ex (Applegate, Cook, Dash and Espinoza, Oper. Res. Lett. 35 (2007)).
The first of these stages whose answer passes the check produces the result,
and ``LPSolution.engine`` names it:

* ``highs``: HiGHS's primal point and row duals, rounded to the nearest
  fractions with denominators up to ``_DENOMINATOR_CAP``;
* ``support``: whichever of the two failed is re-solved exactly by Gaussian
  elimination on Fractions, the primal on the columns HiGHS made positive
  and the dual on the columns it priced at zero;
* ``simplex``: a dense two-phase primal simplex on Fractions (Dantzig
  pricing, with a permanent switch to Bland's rule after a run of degenerate
  pivots, which guarantees termination).  It also decides every infeasible
  or unbounded HiGHS status exactly.

The certificate, not the pivot arithmetic, is the contract: no optimum leaves
:func:`solve` without duals that :func:`verify_certificate` accepts.

Also provides canned constraint generators for the no-signalling polytope:
per-column normalization plus, for every party, independence of every other
party's marginal from that party's setting choice (pairwise against setting
0), which together with nonnegativity carve out exactly the valid
nonsignalling behaviors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from .scenario import Behavior, Scenario, format_number

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Largest denominator tried when rounding HiGHS's floats to fractions, and
# the float magnitude below which a HiGHS value counts as zero.
_DENOMINATOR_CAP = 10**6
_ZERO_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """min/max objective . x subject to eq_rows . x = eq_rhs,
    ub_rows . x <= ub_rhs and lower <= x <= upper (None = unbounded side).

    Default bounds are x >= 0.
    """

    n_vars: int
    objective: list
    sense: str = "min"
    eq_rows: list = field(default_factory=list)
    eq_rhs: list = field(default_factory=list)
    ub_rows: list = field(default_factory=list)
    ub_rhs: list = field(default_factory=list)
    lower: list | None = None  # default 0 per variable
    upper: list | None = None  # default unbounded above

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if len(self.objective) != self.n_vars:
            raise ValueError("objective length mismatch")
        for row in self.eq_rows:
            if len(row) != self.n_vars:
                raise ValueError("equality row length mismatch")
        for row in self.ub_rows:
            if len(row) != self.n_vars:
                raise ValueError("inequality row length mismatch")
        if len(self.eq_rows) != len(self.eq_rhs) or len(self.ub_rows) != len(self.ub_rhs):
            raise ValueError("rhs length mismatch")


@dataclass
class LPSolution:
    """Solver outcome.

    An 'optimal' result of :func:`solve` satisfies every constraint exactly,
    achieves the reported value, and carries one dual multiplier per
    standardized row that :func:`verify_certificate` accepts; ``engine``
    names the stage that produced it ('highs', 'support' or 'simplex', see
    the module docstring)."""

    status: str
    value: Fraction | None = None
    point: tuple | None = None
    dual: tuple | None = None  # one multiplier per standardized row
    iterations: int = 0
    engine: str | None = None

    def behavior(self, scenario: Scenario) -> Behavior:
        if self.point is None:
            raise ValueError(f"no optimizer point (status {self.status})")
        return Behavior(scenario, self.point)


class _Standard(NamedTuple):
    """min c.x subject to A x = b, x >= 0.  Each row of A is a tuple of
    (column, value) pairs in column order; an inequality row ends with its
    slack column, numbered from n_struct.  rep maps each original variable
    to (positive column, negative column or None, shift); sign and const
    restore the original objective value."""

    rows: list
    rhs: list
    c: list
    const: Fraction
    sign: int
    rep: list
    n_struct: int

    @property
    def n_cols(self) -> int:
        return len(self.c)


def _standardize(lp: LinearProgram) -> _Standard:
    """Rewrite as min c.x, A x = b, x >= 0 (variables shifted/split, slacks
    appended, duplicate rows dropped), keeping only the nonzeros."""
    n = lp.n_vars
    lower = lp.lower if lp.lower is not None else [0] * n
    upper = lp.upper if lp.upper is not None else [None] * n

    # Original variable j is represented as a nonnegative combination:
    #   x_j = lo + x'_p          (finite lower bound)
    #   x_j = x'_p - x'_q        (free variable)
    rep = []
    cols = 0
    for lo in lower:
        if lo is None:
            rep.append((cols, cols + 1, _ZERO))
            cols += 2
        else:
            rep.append((cols, None, Fraction(lo)))
            cols += 1

    def expand(coeffs: Sequence):
        entries = []
        shift = _ZERO
        for j, v in enumerate(coeffs):
            if not v:
                continue
            v = Fraction(v)
            p, q, lo = rep[j]
            entries.append((p, v))
            if q is not None:
                entries.append((q, -v))
            shift += v * lo
        return entries, shift

    rows: list = []
    rhs: list = []
    seen = set()

    def add_row(coeffs: Sequence, b, slack=None) -> None:
        entries, shift = expand(coeffs)
        if slack is not None:
            entries.append((slack, _ONE))
        row = tuple(entries)
        b = Fraction(b) - shift
        if (row, b) not in seen:
            seen.add((row, b))
            rows.append(row)
            rhs.append(b)

    for row, b in zip(lp.eq_rows, lp.eq_rhs):
        add_row(row, b)
    slack = cols
    for row, b in zip(lp.ub_rows, lp.ub_rhs):
        add_row(row, b, slack)
        slack += 1
    for j in range(n):
        if upper[j] is not None:
            coeffs = [0] * n
            coeffs[j] = 1
            add_row(coeffs, upper[j], slack)
            slack += 1

    sign = 1 if lp.sense == "min" else -1
    entries, const = expand(lp.objective)
    c = [_ZERO] * slack
    for j, v in entries:
        c[j] = sign * v
    return _Standard(rows, rhs, c, sign * const, sign, rep, cols)


def _dot(c, x) -> Fraction:
    return sum((v * x[j] for j, v in enumerate(c) if v), _ZERO)


def _primal_feasible(std: _Standard, x) -> bool:
    return all(v >= 0 for v in x) and all(
        sum((v * x[j] for j, v in row), _ZERO) == b for row, b in zip(std.rows, std.rhs)
    )


def _dual_feasible(std: _Standard, y, value) -> bool:
    """c - A^T y >= 0 and strong duality b.y == value (the standard-form
    objective at the primal point)."""
    if y is None or len(y) != len(std.rows):
        return False
    reduced = list(std.c)
    for yi, row in zip(y, std.rows):
        if yi:
            for j, v in row:
                reduced[j] -= yi * v
    return all(r >= 0 for r in reduced) and _dot(std.rhs, y) == value


def _optimal(std: _Standard, x, y, engine: str, iterations: int) -> LPSolution | None:
    """The optimal LPSolution for standard-form point x and row duals y, or
    None unless they pass the exact check."""
    value = _dot(std.c, x)
    if not (_primal_feasible(std, x) and _dual_feasible(std, y, value)):
        return None
    point = tuple(
        x[p] - (x[q] if q is not None else 0) + lo for p, q, lo in std.rep
    )
    return LPSolution(
        status=OPTIMAL,
        value=std.sign * (value + std.const),
        point=point,
        dual=tuple(y),
        iterations=iterations,
        engine=engine,
    )


def _highs(std: _Standard):
    """scipy's HiGHS on the standard form, built from the nonzeros."""
    data, row_idx, col_idx = [], [], []
    for i, row in enumerate(std.rows):
        for j, v in row:
            row_idx.append(i)
            col_idx.append(j)
            data.append(float(v))
    a_eq = csr_matrix((data, (row_idx, col_idx)), shape=(len(std.rows), std.n_cols))
    return linprog(
        [float(v) for v in std.c],
        A_eq=a_eq,
        b_eq=[float(v) for v in std.rhs],
        bounds=(0, None),
        method="highs",
    )


def _rational(v: float) -> Fraction:
    return Fraction(v).limit_denominator(_DENOMINATOR_CAP) if v else _ZERO


def _subtract(row: dict, f, other: dict) -> None:
    """row -= f * other on sparse rows, dropping entries that become 0."""
    for k, v in other.items():
        w = row.get(k, 0) - f * v
        if w:
            row[k] = w
        else:
            row.pop(k, None)


def _solve_exact(equations) -> dict | None:
    """One solution, with every free unknown 0, of the linear system given
    as (coefficient dict, rhs) pairs; None if it is inconsistent.

    Gauss-Jordan elimination on Fractions: the pivot rows are kept reduced,
    so each holds its own pivot unknown and no other."""
    pivots: dict = {}  # pivot unknown -> [row dict with coefficient 1, rhs]
    for coeffs, b in equations:
        row = dict(coeffs)
        for p in [k for k in row if k in pivots]:
            f = row[p]
            _subtract(row, f, pivots[p][0])
            b -= f * pivots[p][1]
        if not row:
            if b:
                return None
            continue
        q, f = next(iter(row.items()))
        row = {k: v / f for k, v in row.items()}
        b /= f
        for entry in pivots.values():
            g = entry[0].get(q)
            if g:
                _subtract(entry[0], g, row)
                entry[1] -= g * b
        pivots[q] = [row, b]
    return {p: pb for p, (_, pb) in pivots.items()}


def _support_primal(std: _Standard, support: set) -> list | None:
    """A x = b solved exactly on the columns in support, the rest 0."""
    sol = _solve_exact(
        ({j: v for j, v in row if j in support}, b) for row, b in zip(std.rows, std.rhs)
    )
    if sol is None:
        return None
    x = [_ZERO] * std.n_cols
    for j, v in sol.items():
        x[j] = v
    return x


def _support_dual(std: _Standard, tight: set) -> list | None:
    """Row duals with zero reduced cost on every column in tight, solved
    exactly; the rows left free get 0."""
    columns = {j: {} for j in tight}
    for i, row in enumerate(std.rows):
        for j, v in row:
            if j in columns:
                columns[j][i] = v
    sol = _solve_exact((columns[j], std.c[j]) for j in sorted(tight))
    if sol is None:
        return None
    return [sol.get(i, _ZERO) for i in range(len(std.rows))]


def _certify_highs(std: _Standard, res) -> LPSolution | None:
    """The certified optimum from an optimal HiGHS result, or None."""
    x_float = res.x.tolist()
    x = [_rational(v) for v in x_float]
    y = [_rational(v) for v in res.eqlin.marginals.tolist()]
    sol = _optimal(std, x, y, "highs", int(res.nit))
    if sol is not None:
        return sol
    if not _primal_feasible(std, x):
        x = _support_primal(std, {j for j, v in enumerate(x_float) if v > _ZERO_TOL})
        if x is None:
            return None
    if not _dual_feasible(std, y, _dot(std.c, x)):
        # Complementary slackness: zero reduced cost wherever x is positive.
        tight = {j for j, v in enumerate(res.lower.marginals.tolist()) if abs(v) <= _ZERO_TOL}
        y = _support_dual(std, tight | {j for j, v in enumerate(x) if v})
        if y is None:
            return None
    return _optimal(std, x, y, "support", int(res.nit))


def solve(lp: LinearProgram) -> LPSolution:
    """Exact, certified optimum of the LP (see the module docstring)."""
    std = _standardize(lp)
    try:
        res = _highs(std)
    except OverflowError:  # a coefficient beyond float range
        res = None
    if res is not None and res.status == 0:
        sol = _certify_highs(std, res)
        if sol is not None:
            return sol
    return _simplex(lp, std)


def _extract_entering(z, allowed, bland):
    if bland:
        for j in allowed:
            if z[j] < 0:
                return j
        return None
    best, best_j = _ZERO, None
    for j in allowed:
        v = z[j]
        if v < best:
            best, best_j = v, j
    return best_j


def _ratio_leaving(T, b, basis, col):
    best_t = None
    best_i = None
    for i, row in enumerate(T):
        a = row[col]
        if a > 0:
            t = b[i] / a
            if best_t is None or t < best_t or (t == best_t and basis[i] < basis[best_i]):
                best_t, best_i = t, i
    return best_i


def _pivot(T, b, z, basis, r, c):
    prow = T[r]
    pv = prow[c]
    if pv != 1:
        inv = _ONE / pv
        prow = [v * inv for v in prow]
        T[r] = prow
        b[r] = b[r] * inv
    nz = [j for j, v in enumerate(prow) if v]
    br = b[r]
    for i, row in enumerate(T):
        if i == r:
            continue
        f = row[c]
        if f:
            for j in nz:
                row[j] -= f * prow[j]
            if br:
                b[i] -= f * br
    f = z[c]
    delta = f * br if f else _ZERO
    if f:
        for j in nz:
            z[j] -= f * prow[j]
    basis[r] = c
    return delta


def _run_simplex(T, b, z, basis, allowed, obj, stall_limit):
    """Pivot to optimality; returns (status, obj, iterations)."""
    bland = False
    stall = 0
    iters = 0
    while True:
        c = _extract_entering(z, allowed, bland)
        if c is None:
            return OPTIMAL, obj, iters
        r = _ratio_leaving(T, b, basis, c)
        if r is None:
            return UNBOUNDED, obj, iters
        obj += _pivot(T, b, z, basis, r, c)
        iters += 1
        if b[r] == 0:
            stall += 1
            if stall > stall_limit:
                bland = True
        else:
            stall = 0


def _simplex(lp: LinearProgram, std: _Standard | None = None) -> LPSolution:
    """Exact optimum of the LP by dense two-phase simplex on Fractions: the
    last resort of :func:`solve` and its oracle in tests."""
    if std is None:
        std = _standardize(lp)
    m = len(std.rows)
    ncols = std.n_cols

    # Normalize to b >= 0, then give every row a basic column: reuse a +1
    # slack where possible, otherwise add an artificial.  unit_col[i] is the
    # column that started as row i's identity vector; the final reduced cost
    # there reads off the dual multiplier of row i.
    T = []
    b = []
    row_sign = []
    for row, rhs in zip(std.rows, std.rhs):
        s = -1 if rhs < 0 else 1
        dense = [_ZERO] * ncols
        for j, v in row:
            dense[j] = s * v
        T.append(dense)
        b.append(s * rhs)
        row_sign.append(s)

    basis = [-1] * m
    art_cols = []
    unit_col = [-1] * m
    for i in range(m):
        pivot_col = None
        for j in range(std.n_struct, std.n_cols):
            if T[i][j] == 1 and all(T[k][j] == 0 for k in range(m) if k != i):
                pivot_col = j
                break
        if pivot_col is None:
            for row_k in T:
                row_k.append(_ZERO)
            T[i][ncols] = _ONE
            art_cols.append(ncols)
            basis[i] = ncols
            unit_col[i] = ncols
            ncols += 1
        else:
            basis[i] = pivot_col
            unit_col[i] = pivot_col

    total_iters = 0
    art_set = set(art_cols)
    if art_cols:
        z = [_ZERO] * ncols
        obj = _ZERO
        for i in range(m):
            if basis[i] in art_set:
                row = T[i]
                for j in range(ncols):
                    if row[j] and j not in art_set:
                        z[j] -= row[j]
                obj += b[i]
        allowed = [j for j in range(ncols) if j not in art_set]
        status, obj, iters = _run_simplex(T, b, z, basis, allowed, obj, 4 * (m + ncols))
        total_iters += iters
        if obj != 0:
            return LPSolution(status=INFEASIBLE, iterations=total_iters, engine="simplex")
        # Drive remaining artificials out of the basis; drop redundant rows
        # (their dual multiplier is then 0, which the unit-column readout
        # produces automatically since their column vanishes from kept rows).
        drop = []
        for i in range(m):
            if basis[i] in art_set:
                pivot_col = next(
                    (j for j in allowed if T[i][j] != 0),
                    None,
                )
                if pivot_col is None:
                    drop.append(i)
                else:
                    z_dummy = [_ZERO] * ncols
                    _pivot(T, b, z_dummy, basis, i, pivot_col)
        for i in reversed(drop):
            del T[i], b[i], basis[i]
        m = len(T)

    # Phase II on the real costs; reduce costs of basic columns to zero.
    z = list(std.c) + [_ZERO] * (ncols - std.n_cols)
    obj = _ZERO
    for i in range(m):
        f = z[basis[i]]
        if f:
            row = T[i]
            for j in range(ncols):
                if row[j]:
                    z[j] -= f * row[j]
            obj += f * b[i]
    allowed = [j for j in range(ncols) if j not in art_set]
    status, obj, iters = _run_simplex(T, b, z, basis, allowed, obj, 4 * (m + ncols))
    total_iters += iters
    if status == UNBOUNDED:
        return LPSolution(status=UNBOUNDED, iterations=total_iters, engine="simplex")

    x = [_ZERO] * ncols
    for i in range(m):
        x[basis[i]] = b[i]
    # Duals of the standardized rows: row i started with identity column
    # unit_col[i] of cost 0, whose final reduced cost is -y_i (sign-adjusted
    # for rows negated during the b >= 0 normalization).
    y = [-z[unit_col[i]] * row_sign[i] for i in range(len(unit_col))]
    sol = _optimal(std, x[: std.n_cols], y, "simplex", total_iters)
    if sol is None:
        raise RuntimeError("exact simplex optimum failed its own certificate")
    return sol


def _standard_point(std: _Standard, point) -> list:
    """An original-variable point in standard-form coordinates, with each
    inequality row's slack set to make the row hold with equality."""
    x = [_ZERO] * std.n_cols
    for (p, q, lo), v in zip(std.rep, point):
        v = Fraction(v) - lo
        if q is None:
            x[p] = v
        else:
            x[p], x[q] = max(v, _ZERO), max(-v, _ZERO)
    for row, b in zip(std.rows, std.rhs):
        if row and row[-1][0] >= std.n_struct:
            x[row[-1][0]] = b - sum((v * x[j] for j, v in row[:-1]), _ZERO)
    return x


def verify_certificate(lp: LinearProgram, sol: LPSolution) -> bool:
    """Re-substitute the optimizer and its duals and check exact feasibility,
    value, dual feasibility and strong duality, which certifies optimality
    without trusting the solver; an optimum without duals fails.  This is the
    check :func:`solve` runs before it returns an optimum.
    """
    if sol.status != OPTIMAL or sol.point is None or len(sol.point) != lp.n_vars:
        return False
    std = _standardize(lp)
    x = _standard_point(std, sol.point)
    value = _dot(std.c, x)
    if std.sign * (value + std.const) != sol.value or not _primal_feasible(std, x):
        return False
    return sol.dual is not None and _dual_feasible(std, [Fraction(v) for v in sol.dual], value)


# ---------------------------------------------------------------------------
# No-signalling polytope constraints.


@dataclass
class NSConstraints:
    scenario: Scenario
    normalization_rows: list
    normalization_rhs: list
    ns_rows: list
    ns_rhs: list

    def all_rows(self):
        return self.normalization_rows + self.ns_rows, self.normalization_rhs + self.ns_rhs


def ns_constraints(scenario: Scenario) -> NSConstraints:
    """Equalities cutting out the NS polytope (with x >= 0 bounds).

    Normalization: one row per setting tuple.  No-signalling: for each party
    k, each setting tuple of the others, each outcome tuple of the others and
    each x_k > 0, the marginal with party k summed out equals its value at
    x_k = 0.  Redundancies are tolerated by the solver.
    """
    scn = scenario
    n = scn.size
    norm_rows, norm_rhs = [], []
    for x in scn.all_settings():
        row = [0] * n
        base = scn.column_index(x) * scn.column_size
        for i in range(scn.column_size):
            row[base + i] = 1
        norm_rows.append(row)
        norm_rhs.append(1)

    ns_rows, ns_rhs = [], []
    for k in range(scn.parties):
        others = [j for j in range(scn.parties) if j != k]
        for xo in itertools.product(range(scn.settings), repeat=len(others)):
            for xk in range(1, scn.settings):
                for ao in itertools.product(range(scn.outcomes), repeat=len(others)):
                    row = [0] * n
                    x = [0] * scn.parties
                    a = [0] * scn.parties
                    for j, v in zip(others, xo):
                        x[j] = v
                    for j, v in zip(others, ao):
                        a[j] = v
                    for ak in range(scn.outcomes):
                        a[k] = ak
                        x[k] = xk
                        row[scn.index(x, a)] += 1
                        x[k] = 0
                        row[scn.index(x, a)] -= 1
                    ns_rows.append(row)
                    ns_rhs.append(0)
    return NSConstraints(scn, norm_rows, norm_rhs, ns_rows, ns_rhs)


def optimize_over_ns(
    scenario: Scenario,
    objective: Sequence,
    sense: str = "min",
    extra_eq: Sequence[tuple] = (),
) -> LPSolution:
    """Optimize a linear functional of the behavior over the NS polytope,
    optionally intersected with extra (row, rhs) equality constraints."""
    cons = ns_constraints(scenario)
    rows, rhs = cons.all_rows()
    for row, b in extra_eq:
        rows.append(list(row))
        rhs.append(b)
    lp = LinearProgram(
        n_vars=scenario.size,
        objective=list(objective),
        sense=sense,
        eq_rows=rows,
        eq_rhs=rhs,
    )
    return solve(lp)


def lp_to_json(lp: LinearProgram) -> dict:
    """Debug dump allowing any reported optimum to be reproduced."""
    return {
        "n_vars": lp.n_vars,
        "sense": lp.sense,
        "objective": [format_number(Fraction(v)) for v in lp.objective],
        "eq_rows": [[format_number(Fraction(v)) for v in row] for row in lp.eq_rows],
        "eq_rhs": [format_number(Fraction(v)) for v in lp.eq_rhs],
        "ub_rows": [[format_number(Fraction(v)) for v in row] for row in lp.ub_rows],
        "ub_rhs": [format_number(Fraction(v)) for v in lp.ub_rhs],
    }
