"""Exact linear programming over behavior variables.

Every LP has the form of the no-signalling polytope itself::

    min/max c.x  subject to  A x = b,  x >= 0

with equality rows only and every variable nonnegative.  Each row of A is
a sequence of (column, coefficient) pairs; only the objective is dense.
The no-signalling rows of a scenario are the same in every LP over it, so
they are checked and standardized once per scenario: :func:`ns_constraints`
hands out cached rows in standard form (integer nonzeros in column order,
checked when they were built), which an LP takes as they are.  They are a
basis of the equalities: column 0's normalization row and the basis of
:func:`scenario.ns_row_entries`, (Md)^N - (M(d - 1) + 1)^N + 1 rows with
none redundant, about a third fewer than all the normalization and
no-signalling rows.  Every stage below, and the certificate, runs on those
rows.
:func:`solve` returns certified results.  It solves the LP in floats with
HiGHS, through the pybind bindings that scipy ships
(``scipy.optimize._highspy._core``).  ``linprog`` wraps the same bindings,
but its input checks and sparse-matrix conversions cost more than HiGHS's
own solve on these LPs, and it rejects an LP with no variables.  The
first solve loads the bindings from their file (:func:`_highs_core`):
importing them by name would also load scipy.optimize, scipy.sparse,
scipy.linalg and scipy.special, which no line here uses.  The float
answer is turned into rationals, and an optimum is accepted
only after an exact check of primal feasibility, dual feasibility
(``c - A^T y >= 0``, with the sign of c flipped for 'max') and strong
duality, the approach of QSopt_ex (Applegate, Cook, Dash and Espinoza,
Oper. Res. Lett. 35 (2007)).
The first of these stages whose answer passes the check produces the result,
and ``LPSolution.engine`` names it:

* ``highs``: HiGHS's primal point and row duals, rounded to the nearest
  fractions with denominators up to ``_DENOMINATOR_CAP``;
* ``basis``: the exact solution of HiGHS's final basis, by fraction-free
  elimination and back substitution in integers: ``B x_B = b_R`` on the
  basic columns and the rows R whose logical is nonbasic, every nonbasic
  column 0, and ``B_R^T y_R = c_B``, every other multiplier 0 (see
  :func:`_solve_exact`).  The check still reads every row.  For example,
  maximizing the agreement probability
  ``monogamy.agreement_vector(Scenario(3, 2, 2), 0, 0, 0)`` over the NS
  polytope with the Bell row pinned to ``Fraction(1, 10**18)`` by
  :func:`optimize_over_ns`'s ``extra_eq`` gives a target that HiGHS reads
  as 0, and this stage certifies the optimum 1/2 + 10^-18/2;
* ``simplex``: a two-phase primal simplex on Fractions that pivots on the
  sparse rows, with Bland's rule, which cannot cycle.  It decides every
  infeasible or unbounded HiGHS status, and every optimum whose float image
  hides the exact one from HiGHS's basis too: costs or right-hand sides
  that differ by less than HiGHS's tolerances and change the optimal
  basis.  For example, the same pinned maximum at ``1 - Fraction(1,
  10**18)`` has a basis that is exactly primal infeasible, and only this
  stage certifies the optimum 1 - 10^-18/2.  It alone also certifies
  ``min 0 x0 + 10^-18 x1`` subject to ``x0 + x1 = 2``, where HiGHS returns
  the wrong vertex of what is a tie in floats.

``monogamy.tightness_scan`` builds the optima inside its range from the
optima at its ends and one dual, with engine ``interval``; each of them
passes the same exact check on its target's own LP.

A result of the first two stages carries HiGHS's final basis
(``LPSolution.basis``).  :func:`solve` takes it as the ``start`` of an LP
with the same columns and rows, such as the next target of a tightness
scan, where only the pinned row's right side changed: HiGHS then skips
presolve and goes on from that basis (see :func:`_highs`).  Only the float
solve starts warm; the stages and checks that follow are the same.

The certificate, not the pivot arithmetic, is the contract: every result
leaves :func:`solve` with a certificate that :func:`verify_certificate`
accepts (see :class:`LPSolution`): duals for an optimum, a Farkas vector for
an infeasible LP, a feasible point and an improving ray for an unbounded one.
The check runs in integers, on one form.  Row i holds integer coefficients
over one positive scale L_i, the lcm of its denominators (1 for all the rows
this package builds, except a Bell row with fractional weights), and the
objective integers c' over the lcm C of its denominators.  A point is
(D, X) with x = X / D, and duals are (E, W) with y_i / L_i = W_i / E, over
positive D and E.  The ``highs`` stage rounds each float to an integer pair
and brings the pairs to this form, the ``basis`` stage solves for it, and
the simplex result and :func:`verify_certificate` bring their Fractions to
it once.  A ``Fraction`` is built only for the nonzero entries of a
certified result.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple, Sequence

from .scenario import Behavior, Scenario, integer_form, ns_row_entries

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Largest denominator tried when rounding HiGHS's floats to fractions.
_DENOMINATOR_CAP = 10**6

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class _Row(tuple):
    """An LP row in standard form: (column, coefficient) pairs with int
    columns in strictly increasing order from 0 and nonzero int
    coefficients.  The constructor checks this once, so that an LP built
    from the row checks only its last column and standardizes it as it is,
    with scale 1.  ``bool`` does not count as ``int``."""

    __slots__ = ()

    def __new__(cls, pairs):
        row = super().__new__(cls, pairs)
        last = -1
        for j, a in row:
            if type(j) is not int or j <= last or type(a) is not int or not a:
                raise ValueError(
                    "a standard row needs int columns in increasing order from 0 "
                    "and nonzero int coefficients"
                )
            last = j
        return row


@dataclass
class LinearProgram:
    """min/max objective . x subject to eq_rows . x = eq_rhs and x >= 0.

    The objective is dense.  Each equality row is a sequence of (column,
    coefficient) pairs with distinct columns in range(n_vars); a column left
    out has coefficient 0.  Every variable is nonnegative; write a bounded
    variable or an inequality row with a slack column of its own.

    The rows of :func:`ns_constraints` were checked and standardized once
    per scenario when they were built; for each of them only the last
    column is checked against n_vars.  Every other row is checked here in
    full."""

    objective: list
    sense: str = "min"
    eq_rows: list = field(default_factory=list)
    eq_rhs: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        columns = range(self.n_vars)
        for row in self.eq_rows:
            if type(row) is _Row:
                # in standard form: its columns are distinct and start at 0
                if row and row[-1][0] >= self.n_vars:
                    raise ValueError("equality row columns must be distinct and in range(n_vars)")
                continue
            cols = [j for j, _ in row]
            if len(set(cols)) != len(cols) or not all(
                isinstance(j, int) and not isinstance(j, bool) and j in columns for j in cols
            ):
                raise ValueError("equality row columns must be distinct and in range(n_vars)")
        if len(self.eq_rows) != len(self.eq_rhs):
            raise ValueError("rhs length mismatch")

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass
class LPSolution:
    """Solver outcome, with a certificate that :func:`verify_certificate`
    accepts for every status :func:`solve` returns.

    * 'optimal': ``point`` satisfies every constraint exactly and achieves
      ``value``; ``dual`` holds one multiplier per equality row, dual
      feasible with the same value.
    * 'infeasible': ``dual`` is a Farkas vector y, one multiplier per
      equality row, with A^T y <= 0 and b.y > 0.
    * 'unbounded': ``point`` is feasible and ``ray`` is a direction r >= 0
      with A r = 0 along which the objective improves.

    ``engine`` names the stage of :func:`solve` that produced it ('highs',
    'basis' or 'simplex'), or is 'interval' for an optimum that
    ``monogamy.tightness_scan`` proved from the optima at the ends of its
    range (see the module docstring).

    ``basis`` is HiGHS's final basis (a ``HighsBasis``) for the engines
    'highs' and 'basis', the start that :func:`solve` takes for an LP of the
    same shape; None for 'simplex' and 'interval'.  It is not part of the
    result: equality and ``repr`` ignore it."""

    status: str
    value: Fraction | None = None
    point: tuple | None = None
    dual: tuple | None = None
    iterations: int = 0
    engine: str | None = None
    ray: tuple | None = None
    basis: object = field(default=None, compare=False, repr=False)

    def behavior(self, scenario: Scenario) -> Behavior:
        if self.status != OPTIMAL:
            raise ValueError(f"no optimizer point (status {self.status})")
        return Behavior(scenario, self.point)


class _Standard(NamedTuple):
    """min c.x subject to A x = b, x >= 0, with one row per equality row of
    the LP.  Row i of A is ``rows[i] / scale[i]``: a tuple of (column,
    integer) pairs in column order, over the positive integer ``scale[i]``,
    the least common denominator of the row's coefficients.  c is
    ``cost / cost_scale`` in the same way: one integer per column over the
    least common denominator of the objective.  b holds Fractions; sign
    restores the objective value of a 'max' LP."""

    rows: list
    scale: list
    rhs: list
    cost: list
    cost_scale: int
    sign: int

    @property
    def n_cols(self) -> int:
        return len(self.cost)


def _integers(values) -> tuple[int, tuple]:
    """The :func:`integer_form` of LP coefficients: ints and Fractions as
    they are, any other entry as ``Fraction(v)``."""
    return integer_form([v if type(v) is int or type(v) is Fraction else Fraction(v) for v in values])


def _integer_row(pairs) -> tuple[tuple, int]:
    """The nonzeros of one LP row in column order as integer (column,
    coefficient) pairs, and the scale that divides them."""
    if type(pairs) is _Row:
        return pairs, 1
    # columns are distinct, so sorting the pairs never compares values
    row = [(j, v) for j, v in sorted(pairs) if v]
    scale, coeffs = _integers(v for _, v in row)
    return tuple(zip([j for j, _ in row], coeffs)), scale


def _standardize(lp: LinearProgram) -> _Standard:
    """The LP's rows as integer nonzeros in column order, each over its own
    scale, one row per equality row; c as integers over one scale, with a
    'max' objective negated; b as Fractions.  A row of
    :func:`ns_constraints` is taken as it is."""
    rows = [_integer_row(pairs) for pairs in lp.eq_rows]
    sign = 1 if lp.sense == "min" else -1
    cost_scale, cost = _integers(lp.objective)
    cost = [-v for v in cost] if sign < 0 else list(cost)
    rhs = [Fraction(b) if b else _ZERO for b in lp.eq_rhs]
    return _Standard([r for r, _ in rows], [s for _, s in rows], rhs, cost, cost_scale, sign)


def _form(pairs, scales=None) -> tuple[int, list]:
    """The form the check reads of the fractions n_i / q_i (q_i > 0), each
    over its scale s_i if given: (D, [m_i]), n_i / (q_i s_i) = m_i / D."""
    qs = [q for _, q in pairs] if scales is None else [q * s for (_, q), s in zip(pairs, scales)]
    d = math.lcm(*qs)
    return d, [n * (d // q) for (n, _), q in zip(pairs, qs)]


def _objective(std: _Standard, x) -> tuple[int, int]:
    """c.x = sum_j c'_j X_j / (C D) for the point x = (D, X), as (num, den)."""
    d, n = x
    return sum(a * b for a, b in zip(std.cost, n)), std.cost_scale * d


def _rhs_dot(std: _Standard, y) -> tuple[int, int]:
    """b.y = sum_i b_i L_i W_i / E for the duals y = (E, W), as (num, den)
    over R E, R the lcm of the b_i that count."""
    e, w = y
    terms = [(b, s * wi) for b, s, wi in zip(std.rhs, std.scale, w) if wi and b]
    r = math.lcm(*(b.denominator for b, _ in terms))
    return sum(b.numerator * (r // b.denominator) * v for b, v in terms), r * e


def _primal_feasible(std: _Standard, x) -> bool:
    """x >= 0 and A x = b for the point x = (D, X), x_j = X_j / D: row i
    holds when ``sum_j a_ij X_j * den(b_i) == num(b_i) * L_i * D``."""
    if x is None or len(x[1]) != std.n_cols or min(x[1], default=0) < 0:
        return False
    d, n = x
    for row, scale, b in zip(std.rows, std.scale, std.rhs):
        ax = 0
        for j, a in row:
            ax += a * n[j]
        if ax * b.denominator != b.numerator * scale * d:
            return False
    return True


def _dual_feasible(std: _Standard, y) -> bool:
    """c - A^T y >= 0 for the duals y = (E, W), y_i / L_i = W_i / E.  With
    c = c' / C, column j holds when ``c'_j * E >= C * sum_i W_i a_ij``."""
    if y is None or len(y[1]) != len(std.rows):
        return False
    e, w = y
    acc = [0] * std.n_cols
    for wi, row in zip(w, std.rows):
        if wi:
            for j, a in row:
                acc[j] += wi * a
    return all(cj * e >= std.cost_scale * aj for cj, aj in zip(std.cost, acc))


def _optimum(std: _Standard, x, y) -> Fraction | None:
    """c.x if the point x = (D, X) and the duals y = (E, W) prove it optimal
    (primal and dual feasibility and strong duality, b.y = c.x), else None."""
    if not (_primal_feasible(std, x) and _dual_feasible(std, y)):
        return None
    (cx, cd), (by, bd) = _objective(std, x), _rhs_dot(std, y)
    return Fraction(cx, cd) if cx * bd == by * cd else None


def _certified(std: _Standard, sol: LPSolution) -> bool:
    """Whether sol carries a valid certificate of its status for the
    standard form (see :class:`LPSolution`).  Its int or Fraction vectors
    are brought to their integer forms once, which the checks read."""
    x, y, r = (
        None if v is None else _form([(e.numerator, e.denominator) for e in v], scales)
        for v, scales in ((sol.point, None), (sol.dual, std.scale), (sol.ray, None))
    )
    if sol.status == OPTIMAL:
        value = _optimum(std, x, y)
        return value is not None and std.sign * value == sol.value
    if sol.status == INFEASIBLE:
        # Farkas: c = 0 turns the dual check into A^T y <= 0
        no_cost = std._replace(cost=[0] * std.n_cols)
        return _dual_feasible(no_cost, y) and _rhs_dot(std, y)[0] > 0
    if sol.status == UNBOUNDED:
        homogeneous = std._replace(rhs=[_ZERO] * len(std.rows))
        return (
            _primal_feasible(std, x)
            and _primal_feasible(homogeneous, r)
            and _objective(std, r)[0] < 0
        )
    return False


def _optimal(std: _Standard, x, y, engine: str, iterations: int, basis) -> LPSolution | None:
    """The optimal LPSolution for the point x = (D, X) and duals y = (E, W),
    or None unless they pass the check; only nonzero entries become Fractions."""
    value = _optimum(std, x, y)
    if value is None:
        return None
    (d, n), (e, w) = x, y
    point = tuple(Fraction(v, d) if v else _ZERO for v in n)
    dual = tuple(Fraction(v * s, e) if v else _ZERO for v, s in zip(w, std.scale))
    return LPSolution(OPTIMAL, std.sign * value, point, dual, iterations, engine, basis=basis)


_HIGHS_CORE = "scipy.optimize._highspy._core"


@functools.cache
def _highs_core():
    """scipy's pybind bindings of HiGHS, the extension module
    ``scipy.optimize._highspy._core``, loaded from its file in scipy's
    ``optimize/_highspy`` folder.  Importing it by name would first run
    ``scipy.optimize``'s package ``__init__``, which loads scipy.optimize,
    scipy.sparse, scipy.linalg and scipy.special: about 0.4 s and 45 MiB
    that no line of this package uses.  The module is registered in
    ``sys.modules`` under its own name, so a later ``import scipy.optimize``
    takes this module object as it is, and a module that scipy.optimize
    loaded first is returned as it is.  No other line of the package
    reaches scipy, and only an LP solve calls this."""
    module = sys.modules.get(_HIGHS_CORE)
    if module is not None:
        return module
    import scipy

    folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS_CORE, [folder])
    if spec is None:
        raise ImportError(f"no HiGHS extension module {_HIGHS_CORE} in {folder}", name=_HIGHS_CORE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_HIGHS_CORE] = module
    return module


# The options scipy's linprog(method="highs") sets; HiGHS's defaults hold
# for every other one.
_HIGHS_OPTIONS = (
    ("presolve", "on"),
    ("simplex_strategy", 1),  # dual simplex
    ("output_flag", False),
    ("log_to_console", False),
)


def _highs(std: _Standard, start=None):
    """HiGHS on the float image of the standard form: (point, row duals,
    basis, iterations) if HiGHS finds an optimum, else None.  The basis is
    HiGHS's final one, a ``HighsBasis`` (see :func:`_basis_lists`).

    With ``start``, the final basis of an LP with the same columns and rows
    (``ValueError`` otherwise, and for a basis that is alien or not valid,
    which HiGHS would repair silently), HiGHS starts from that basis and skips
    presolve: after a change of right-hand sides alone the basis stays dual
    feasible, and its dual simplex goes on from there (Huangfu and Hall,
    Math. Prog. Comp. 10 (2018)).  A start HiGHS rejects raises
    ``RuntimeError``.  Without it, HiGHS starts cold, with presolve.

    The LP goes straight to scipy's pybind bindings of HiGHS, the module
    ``linprog`` itself calls, as :func:`_highs_core` loads it without the
    rest of scipy.optimize.  The matrix is row-wise, built from the integer
    rows, so no sparse matrix is built and converted.  A coefficient
    beyond float range raises ``OverflowError``."""
    h = _highs_core()

    n = std.n_cols
    if start is not None and (len(start.col_status), len(start.row_status)) != (n, len(std.rows)):
        raise ValueError(
            f"a start basis of {len(start.col_status)} columns and {len(start.row_status)} rows "
            f"does not fit an LP of {n} columns and {len(std.rows)} rows"
        )
    if start is not None and (start.alien or not start.valid):
        raise ValueError("a start basis must be valid and not alien, as LPSolution.basis is")
    row_start, index, value = [0], [], []
    for row, scale in zip(std.rows, std.scale):
        for j, a in row:
            index.append(j)
            value.append(a / scale)
        row_start.append(len(index))
    rhs = [float(b) for b in std.rhs]
    lp = h.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = len(std.rows)
    lp.col_cost_ = [c / std.cost_scale for c in std.cost]
    lp.col_lower_ = [0.0] * n
    lp.col_upper_ = [h.kHighsInf] * n
    lp.row_lower_ = lp.row_upper_ = rhs
    lp.a_matrix_.format_ = h.MatrixFormat.kRowwise
    lp.a_matrix_.start_ = row_start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value

    highs = h._Highs()
    for option, setting in _HIGHS_OPTIONS:
        highs.setOptionValue(option, setting)
    if highs.passModel(lp) == h.HighsStatus.kError:
        return None
    if start is not None and highs.setBasis(start) == h.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the start basis")
    if (
        highs.run() == h.HighsStatus.kError
        or highs.getModelStatus() != h.HighsModelStatus.kOptimal
    ):
        return None
    solution = highs.getSolution()
    info = highs.getInfo()
    iterations = info.simplex_iteration_count or info.ipm_iteration_count
    return solution.col_value, solution.row_dual, highs.getBasis(), iterations


def _basis_lists(basis) -> tuple[list, list]:
    """The basic columns of a HiGHS basis, and the rows whose logical
    (slack) is nonbasic.  Read only when rounding misses, so that the LPs
    that rounding certifies do not pay for the status lists.  The status
    enum comes from the bindings :func:`_highs` ran, as
    :func:`_highs_core` loaded them."""
    basic = _highs_core().HighsBasisStatus.kBasic
    return (
        [j for j, s in enumerate(basis.col_status) if s == basic],
        [i for i, s in enumerate(basis.row_status) if s != basic],
    )


def _rounded(v: float) -> tuple[int, int]:
    """``Fraction(v).limit_denominator(_DENOMINATOR_CAP)`` in ints, as (n, q)
    in lowest terms with q > 0: the same continued-fraction search, and the
    same tie rule, with the two candidates' distances cross-multiplied."""
    n, d = v.as_integer_ratio()
    if d <= _DENOMINATOR_CAP:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    a, b = n, d
    while True:
        k = a // b
        q2 = q0 + k * q1
        if q2 > _DENOMINATOR_CAP:
            break
        p0, q0, p1, q1 = p1, q1, p0 + k * p1, q2
        a, b = b, a - k * b
    k = (_DENOMINATOR_CAP - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1:
        return p1, q1
    return p2, q2


def _subtract(row: dict, f, other: dict) -> None:
    """row -= f * other on sparse rows, dropping entries that become 0."""
    for k, v in other.items():
        w = row.get(k, 0) - f * v
        if w:
            row[k] = w
        else:
            row.pop(k, None)


def _solve_exact(equations, n: int) -> tuple[list, int] | None:
    """One solution (X, D), x = X / D with D > 0, of the linear system in the
    unknowns 0..n-1 given as (int coefficient dict, int rhs) pairs, every
    free unknown 0; None if it is inconsistent.  Fraction-free elimination,
    after Bareiss (Math. Comp. 22 (1968)): a row meets every earlier pivot
    in the order found, and where it holds one it is scaled by the pivot,
    the pivot row subtracted (:func:`_subtract`), and the row divided with
    its rhs by their content gcd; its first remaining unknown is its pivot.
    Back substitution runs over D."""
    pivots: dict = {}  # pivot unknown -> (row dict, rhs), in the order found
    for coeffs, b in equations:
        row = dict(coeffs)
        for p, (prow, pb) in pivots.items():
            f = row.get(p)
            if f:
                g = prow[p]
                if g != 1:
                    row = {k: v * g for k, v in row.items()}
                _subtract(row, f, prow)
                b = g * b - f * pb
                h = math.gcd(b, *row.values())
                if h > 1:
                    row = {k: v // h for k, v in row.items()}
                    b //= h
        if row:
            pivots[next(iter(row))] = (row, b)
        elif b:
            return None
    x, d = [0] * n, 1
    for q, (prow, pb) in reversed(pivots.items()):
        # x_q = s / (g D) = (s / h) / ((g / h) D), with g / h > 0
        s = pb * d - sum(v * x[k] for k, v in prow.items() if x[k])
        g = prow[q]
        h = math.gcd(s, g) if g > 0 else -math.gcd(s, g)
        if g != h:
            x = [v * (g // h) for v in x]
            d *= g // h
        x[q] = s // h
    return x, d


def _basic_point(std: _Standard, columns: list, rows: list) -> tuple | None:
    """``B x_B = b_R`` solved exactly on the basic columns and the rows R
    whose logical is nonbasic (see :func:`_basis_lists`), every nonbasic
    column 0; None if inconsistent.  It is solved on the integer rows, with
    right sides b_i L_i over the common denominator E of b_R: (D E, X)."""
    basic = set(columns)
    e, rhs = integer_form([std.rhs[i] for i in rows])
    equations = (
        ({j: a for j, a in std.rows[i] if j in basic}, b * std.scale[i]) for i, b in zip(rows, rhs)
    )
    x = _solve_exact(equations, std.n_cols)
    return x and (x[1] * e, x[0])


def _basic_duals(std: _Standard, columns: list, rows: list) -> tuple | None:
    """``B_R^T y_R = c_B`` solved exactly, every other row's multiplier 0;
    None if inconsistent.  It is solved for z_i = y_i / L_i on the integer
    rows, with the integer costs as right sides: (D C, Z)."""
    basic = {j: {} for j in columns}
    for i in rows:
        for j, a in std.rows[i]:
            if j in basic:
                basic[j][i] = a
    z = _solve_exact(((basic[j], std.cost[j]) for j in columns), len(std.rows))
    return z and (z[1] * std.cost_scale, z[0])


def _certify_highs(std: _Standard, x_float, y_float, basis, iterations) -> LPSolution | None:
    """The certified optimum from HiGHS's optimal point, row duals and basis
    (see :func:`_highs`), or None.  The rounded point and duals come first;
    when they miss, the exact point and duals of the basis.

    Rounding first pays for itself: it costs one :func:`_rounded` per
    nonzero entry and certifies most LPs on its own (in one count over the
    tests, 652 solves against 87 that needed the basis), where the basis
    stage runs two eliminations over the integer rows.  With the basis
    stage alone, every check kept, the seed-0 ``ns-lp`` benchmark pass took
    0.0376-0.0383 reference s against 0.0223-0.0236 (2 vCPUs, three
    alternating pairs of 8 s runs, measured 2026-10-20)."""
    # most entries are 0, which skip the call
    x = _form([_rounded(v) if v else (0, 1) for v in x_float])
    y = _form([_rounded(v) if v else (0, 1) for v in y_float], std.scale)
    sol = _optimal(std, x, y, "highs", iterations, basis)
    if sol is None:
        columns, rows = _basis_lists(basis)
        x = _basic_point(std, columns, rows)
        sol = _optimal(std, x, _basic_duals(std, columns, rows), "basis", iterations, basis)
    return sol


def solve(lp: LinearProgram, start=None) -> LPSolution:
    """Exact, certified solution of the LP (see the module docstring): an
    optimum, or a proof of infeasibility or unboundedness.  ``start`` is
    the ``basis`` of an earlier solution of an LP with the same columns and
    rows, which HiGHS starts from (see :func:`_highs`); the checks that
    follow are the same."""
    std = _standardize(lp)
    try:
        found = _highs(std, start)
    except OverflowError:  # a coefficient beyond float range
        found = None
    if found is not None:
        sol = _certify_highs(std, *found)
        if sol is not None:
            return sol
    sol = _simplex(std)
    if not _certified(std, sol):
        raise RuntimeError(f"exact simplex result ({sol.status}) failed its own certificate")
    return sol


def _pivot(T, b, z, basis, r, c):
    prow = T[r]
    pv = prow[c]
    if pv != 1:
        inv = _ONE / pv
        prow = T[r] = {j: v * inv for j, v in prow.items()}
        b[r] = b[r] * inv
    br = b[r]
    for i, row in enumerate(T):
        f = row.get(c)
        if f and i != r:
            _subtract(row, f, prow)
            if br:
                b[i] -= f * br
    f = z.get(c)
    if f:
        _subtract(z, f, prow)
    basis[r] = c


def _priced(z: dict, T, basis) -> dict:
    """Turn the costs z, in place, into reduced costs: every basic column priced to 0."""
    for row, j in zip(T, basis):
        f = z.get(j)
        if f:
            _subtract(z, f, row)
    return z


def _run_simplex(T, b, z, basis, n):
    """Pivot by Bland's rule, which cannot cycle: the lowest structural
    column (below n) with a negative reduced cost enters.  Returns
    (iterations, column), where column is the entering column with no
    leaving row if the LP is unbounded and None otherwise."""
    iters = 0
    while True:
        c = min((j for j, v in z.items() if j < n and v < 0), default=None)
        if c is None:
            return iters, None
        # the row of the minimum ratio leaves, ties to the lowest basic column
        ratios = [(b[i] / v, basis[i], i) for i, row in enumerate(T) if (v := row.get(c, 0)) > 0]
        if not ratios:
            return iters, c
        _pivot(T, b, z, basis, min(ratios)[2], c)
        iters += 1


def _simplex(std: _Standard) -> LPSolution:
    """Two-phase simplex on Fractions over the standard form: the last
    resort of :func:`solve` and its oracle in tests.  The rows of the
    tableau and the reduced costs z are sparse dicts {column: value}, so a
    column missing from one reads as 0.  Every result carries its
    certificate: duals for an optimum, a Farkas vector (in ``dual``) for an
    infeasible LP, a feasible point and a ray for an unbounded one."""
    m = len(std.rows)
    n = std.n_cols

    # Normalize to b >= 0, then give row i the artificial column n + i.  It
    # starts as row i's identity vector, so its final reduced cost reads off
    # the dual multiplier of row i.
    T = []
    b = []
    row_sign = []
    for i, (row, scale, rhs) in enumerate(zip(std.rows, std.scale, std.rhs)):
        s = -1 if rhs < 0 else 1
        T.append({**{j: Fraction(s * a, scale) for j, a in row}, n + i: _ONE})
        b.append(s * rhs)
        row_sign.append(s)
    basis = list(range(n, n + m))

    # Phase I: minimize the sum of the artificials.
    z = _priced({n + i: _ONE for i in range(m)}, T, basis)
    total_iters, _ = _run_simplex(T, b, z, basis, n)
    if any(bi for bi, j in zip(b, basis) if j >= n):
        # Artificial n + i has cost 1 and reduced cost 1 - w_i, where w are
        # the phase-I duals of the normalized rows; y = sign * w then has
        # A^T y <= 0 and b.y = the positive sum of the artificials.
        farkas = [(1 - z.get(n + i, _ZERO)) * row_sign[i] for i in range(m)]
        return LPSolution(INFEASIBLE, dual=tuple(farkas), iterations=total_iters, engine="simplex")
    # Drive remaining artificials out of the basis; drop redundant rows
    # (their dual multiplier is then 0, which the identity-column readout
    # produces automatically since their column vanishes from kept rows).
    drop = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = min((j for j in T[i] if j < n), default=None)
            if pivot_col is None:
                drop.append(i)
            else:
                _pivot(T, b, {}, basis, i, pivot_col)
    for i in reversed(drop):
        del T[i], b[i], basis[i]

    # Phase II on the real costs.
    z = _priced({j: Fraction(v, std.cost_scale) for j, v in enumerate(std.cost) if v}, T, basis)
    iters, unbounded = _run_simplex(T, b, z, basis, n)
    total_iters += iters

    x = [_ZERO] * n
    for bi, j in zip(b, basis):
        x[j] = bi
    if unbounded is not None:
        # Raising the entering column by t moves basic variable j by
        # -T[i][col] t; no such entry is positive, so the point stays
        # feasible for every t >= 0 while c.x falls at the rate z[col] < 0.
        ray = [_ZERO] * n
        ray[unbounded] = _ONE
        for row, j in zip(T, basis):
            ray[j] = -row.get(unbounded, _ZERO)
        return LPSolution(
            UNBOUNDED, point=tuple(x), ray=tuple(ray), iterations=total_iters, engine="simplex"
        )
    # Duals of the standardized rows: artificial n + i has cost 0 and final
    # reduced cost -y_i (sign-adjusted for rows negated during the b >= 0
    # normalization).
    y = [-z.get(n + i, _ZERO) * row_sign[i] for i in range(m)]
    value = Fraction(*_objective(std, integer_form(x)))
    return LPSolution(OPTIMAL, std.sign * value, tuple(x), tuple(y), total_iters, "simplex")


def verify_certificate(lp: LinearProgram, sol: LPSolution) -> bool:
    """Check sol's certificate exactly, without trusting the solver (see
    :class:`LPSolution`): for an optimum, feasibility, the value, dual
    feasibility and strong duality; for 'infeasible', the Farkas vector; for
    'unbounded', the feasible point and the improving ray.  A missing vector,
    or one with a NaN or infinite entry, fails.  This is the check
    :func:`solve` runs before it returns.
    """

    def exact(v):
        return None if v is None else [e if type(e) is Fraction else Fraction(e) for e in v]

    try:
        sol = replace(sol, point=exact(sol.point), dual=exact(sol.dual), ray=exact(sol.ray))
    except (ValueError, OverflowError):  # NaN and infinity have no exact value
        return False
    return _certified(_standardize(lp), sol)


# ---------------------------------------------------------------------------
# No-signalling polytope constraints.


@functools.lru_cache(maxsize=None)
def _ns_rows(scenario: Scenario) -> tuple[tuple, tuple]:
    """The rows and right-hand sides of :func:`ns_constraints`, each row a
    :class:`_Row` in column order, checked once per scenario."""
    norm = _Row((i, 1) for i in range(scenario.column_size))
    ns = [_Row([(j, -1) for j in minus] + [(j, 1) for j in plus]) for plus, minus in ns_row_entries(scenario)]
    return (norm, *ns), (1,) + (0,) * len(ns)


def ns_constraints(scenario: Scenario) -> tuple[list, list]:
    """Sparse equalities (rows, rhs) cutting out the NS polytope (with x >= 0
    bounds), as fresh lists that a caller may extend.

    Column 0's normalization row first, then the no-signalling basis rows
    of :func:`scenario.ns_row_entries`, in its order: the marginal with
    party k summed out at x_k > 0 equals its value at x_k = 0.  No row is
    redundant: there are (Md)^N - (M(d - 1) + 1)^N + 1 rows, the rank of
    all the normalization and no-signalling rows, and every other column's
    normalization and every dropped no-signalling row is an exact
    combination of them.  Each row lists its nonzeros in column order (its
    -1 entries, then its +1 entries) and is built and checked once per
    scenario; the lists are fresh, the rows shared.
    """
    rows, rhs = _ns_rows(scenario)
    return list(rows), list(rhs)


def ns_program(
    scenario: Scenario,
    objective: Sequence,
    sense: str = "min",
    extra_eq: Sequence[tuple] = (),
) -> LinearProgram:
    """The LP of a linear functional of the behavior over the NS polytope:
    the rows of :func:`ns_constraints`, then the extra (row, rhs) equality
    constraints, whose rows are sparse (column, coefficient) pairs.  An
    objective longer than the behavior adds nonnegative columns after it
    for the extra rows, such as the L1 slacks of ``sampling.project_to_ns``."""
    rows, rhs = ns_constraints(scenario)
    for row, b in extra_eq:
        rows.append(row)
        rhs.append(b)
    return LinearProgram(list(objective), sense, rows, rhs)


def optimize_over_ns(
    scenario: Scenario,
    objective: Sequence,
    sense: str = "min",
    extra_eq: Sequence[tuple] = (),
    start=None,
) -> LPSolution:
    """Optimize a linear functional of the behavior over the NS polytope,
    optionally intersected with extra equality constraints: :func:`solve`
    on :func:`ns_program`, from the start basis if one is given."""
    return solve(ns_program(scenario, objective, sense, extra_eq), start)

