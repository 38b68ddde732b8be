"""Bell scenarios and behaviors.

A scenario fixes N parties, M measurement settings per party and d outcomes
per measurement.  A behavior is the full conditional probability table
p(a|x) for outcome tuples a and setting tuples x, stored flat with the
setting tuple as the outer (row-major) index and the outcome tuple inner.
Outcomes and settings are 0-based everywhere in this package; file formats
use the same convention.

Probabilities are either exact rationals (``fractions.Fraction``) or floats.
Exact mode is required wherever a test certifies an equality; floats are for
quantum numerics and scans.  Mixtures and :func:`is_distribution` are exact
only.  No-signalling has its one home here: :func:`is_nonsignalling` checks
every party subset, and ``polylp`` makes LP rows of :func:`ns_row_entries`.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import InputFormatError, ScenarioTooLargeError

DEFAULT_SIZE_CAP = 10**7
_SIZE_CAP_ENV = "MONOGAMY_LAB_CAP"


def size_cap() -> int:
    """Behavior-size cap; override with the MONOGAMY_LAB_CAP env var."""
    raw = os.environ.get(_SIZE_CAP_ENV)
    return int(raw) if raw else DEFAULT_SIZE_CAP


@dataclass(frozen=True)
class Scenario:
    """An (N, M, d) measurement scenario.

    parties: number of parties N >= 1
    settings: measurement settings per party M >= 1
    outcomes: outcomes per measurement d >= 2
    """

    parties: int
    settings: int
    outcomes: int

    def __post_init__(self) -> None:
        if self.parties < 1 or self.settings < 1 or self.outcomes < 2:
            raise ValueError(
                f"need parties >= 1, settings >= 1, outcomes >= 2, got "
                f"({self.parties}, {self.settings}, {self.outcomes})"
            )
        cap = size_cap()
        # size >= 2^parties: rule out a huge exponent before size is computed
        if self.parties >= cap.bit_length() or self.size > cap:
            raise ScenarioTooLargeError(
                f"scenario {self.parties, self.settings, self.outcomes} exceeds the size cap {cap}"
            )

    @property
    def n_columns(self) -> int:
        """Number of setting tuples M^N."""
        return self.settings**self.parties

    @property
    def column_size(self) -> int:
        """Number of outcome tuples d^N."""
        return self.outcomes**self.parties

    @property
    def size(self) -> int:
        return self.n_columns * self.column_size

    def column_index(self, x: Sequence[int]) -> int:
        if len(x) != self.parties:
            raise ValueError(f"need {self.parties} settings, got {len(x)}")
        idx = 0
        for xk in x:
            if not 0 <= xk < self.settings:
                raise ValueError(f"setting {xk} out of range for M={self.settings}")
            idx = idx * self.settings + xk
        return idx

    def outcome_index(self, a: Sequence[int]) -> int:
        if len(a) != self.parties:
            raise ValueError(f"need {self.parties} outcomes, got {len(a)}")
        idx = 0
        for ak in a:
            if not 0 <= ak < self.outcomes:
                raise ValueError(f"outcome {ak} out of range for d={self.outcomes}")
            idx = idx * self.outcomes + ak
        return idx

    def index(self, x: Sequence[int], a: Sequence[int]) -> int:
        return self.column_index(x) * self.column_size + self.outcome_index(a)

    def all_settings(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(self.settings), repeat=self.parties)

    def all_outcomes(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(self.outcomes), repeat=self.parties)


@dataclass(frozen=True)
class Behavior:
    """A conditional probability table over a scenario.

    ``probs`` has length d^N * M^N, indexed by scenario.index(x, a).
    Immutable after construction; cheap validity checks only (use
    :func:`validate` for the full report).

    A behavior is exact when every entry is an int or a Fraction; it then
    also has an integer form, :attr:`scaled`.  A mixture of exact behaviors
    with int or Fraction weights (:func:`mix`, :func:`scaled_sum`) is built
    in that form only: it holds ``scaled`` and builds ``probs``, one Fraction
    per entry, on first read.  Such a behavior has the entries, equality,
    hash and repr of ``Behavior(scenario, probs)``, and the same length check.
    Entries may also be floats, as the CLI's float mode reads them; such a
    behavior has no integer form, and :func:`mix` refuses it.
    """

    scenario: Scenario
    probs: tuple

    def __post_init__(self) -> None:
        _check_length(self.scenario, len(self.probs))

    @classmethod
    def _from_scaled(cls, scenario: Scenario, denom: int, nums: tuple) -> Behavior:
        """The behavior with entries n_i / denom, denom the least common
        denominator; ``probs`` is built on first read."""
        _check_length(scenario, len(nums))
        behavior = object.__new__(cls)
        object.__setattr__(behavior, "scenario", scenario)
        behavior.__dict__["scaled"] = (denom, nums)
        return behavior

    def __getattr__(self, name: str):
        # reached only for attributes the instance lacks: ``probs`` of a
        # behavior made by _from_scaled before its first read
        if name != "probs" or "scaled" not in self.__dict__:
            raise AttributeError(name)
        denom, nums = self.__dict__["scaled"]
        probs = tuple(Fraction(n, denom) for n in nums)
        object.__setattr__(self, "probs", probs)
        return probs

    @functools.cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]] | None:
        """The entries as integers over one denominator: (D, (n_i)) with
        p_i = n_i / D and D the least common denominator; None unless every
        entry is an int or a Fraction.  Built on first use and kept."""
        if not is_exact(self.probs):
            return None
        return integer_form(self.probs)

    def column(self, x: Sequence[int]) -> tuple:
        base = self.scenario.column_index(x) * self.scenario.column_size
        return self.probs[base : base + self.scenario.column_size]


def _check_length(scenario: Scenario, n: int) -> None:
    if n != scenario.size:
        raise ValueError(f"expected {scenario.size} entries, got {n}")


def validate(behavior: Behavior, tol=0) -> list[str]:
    """Report violated behavior constraints (empty list means valid).

    Checks entrywise nonnegativity and per-column normalization.  With
    exact entries pass tol=0 for exact checks.  The tolerance must be finite
    and nonnegative.
    """
    _check_tol(tol)
    scn = behavior.scenario
    report = []
    # each test is written to fail for a NaN, which compares False both ways
    for i, p in enumerate(behavior.probs):
        if not p >= -tol:
            x_idx, a_idx = divmod(i, scn.column_size)
            kind = "negative" if p < 0 else "undefined"
            report.append(f"{kind} entry {p} at column {x_idx}, outcome {a_idx}")
    for x in scn.all_settings():
        total = sum(behavior.column(x))
        if not abs(total - 1) <= tol:
            report.append(f"column {x} sums to {total}, expected 1")
    return report


def worst_of(values, worst=0):
    """max(worst, *values), or a NaN when ``worst`` or a value is one:
    max() can pass over a NaN, which compares False both ways, and a
    deviation check must not."""
    if worst != worst:
        return worst
    for v in values:
        if not v <= worst:
            if v != v:
                return v
            worst = v
    return worst


def _check_tol(tol) -> None:
    # also rejects NaN, which every comparison would let pass
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def marginal(
    behavior: Behavior,
    parties: Sequence[int],
    settings: Sequence[int],
    complement_settings: Sequence[int] | None = None,
) -> tuple:
    """Distribution of the outcomes of a party subset at given settings.

    For nonsignalling behaviors the result does not depend on the settings
    of the remaining parties; those are fixed to 0 unless
    ``complement_settings`` supplies them (the convention every module in
    this package shares).
    """
    scn = behavior.scenario
    parties = list(parties)
    if not parties:
        raise ValueError("party subset must be nonempty")
    if len(set(parties)) != len(parties):
        raise ValueError("party subset has duplicates")
    if min(parties) < 0 or max(parties) >= scn.parties:
        raise ValueError(f"party subset {parties} out of range for N={scn.parties}")
    if len(settings) != len(parties):
        raise ValueError("need one setting per selected party")
    rest = [k for k in range(scn.parties) if k not in parties]
    if complement_settings is None:
        complement_settings = [0] * len(rest)
    if len(complement_settings) != len(rest):
        raise ValueError("need one complement setting per remaining party")

    x = [0] * scn.parties
    for k, xk in zip(parties, settings):
        x[k] = xk
    for k, xk in zip(rest, complement_settings):
        x[k] = xk
    base = scn.column_index(x) * scn.column_size
    col = behavior.probs[base : base + scn.column_size]

    out = [0] * (scn.outcomes ** len(parties))
    for sub, p in zip(_restriction_indices(scn, tuple(parties)), col):
        out[sub] += p
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _restriction_indices(scn: Scenario, parties: tuple) -> tuple[int, ...]:
    """For each outcome tuple a of the scenario, in index order, the index
    of its restriction (a_k for k in parties) among the subset's tuples."""
    subs = []
    for a in scn.all_outcomes():
        sub = 0
        for k in parties:
            sub = sub * scn.outcomes + a[k]
        subs.append(sub)
    return tuple(subs)


def is_nonsignalling(behavior: Behavior, tol=0) -> tuple[bool, object]:
    """Check the no-signalling conditions; returns (ok, worst violation).

    For every proper nonempty subset S of parties, the marginal on S must
    not depend on the settings chosen outside S.  The tolerance must be
    finite and nonnegative.  A NaN or infinite entry makes the worst
    violation NaN or infinite, which fails, whenever its column is compared
    (every column is once N >= 2 and M >= 2).
    """
    _check_tol(tol)
    scn = behavior.scenario
    worst = 0
    for r in range(1, scn.parties):
        for parties in itertools.combinations(range(scn.parties), r):
            rest = [k for k in range(scn.parties) if k not in parties]
            for settings in itertools.product(range(scn.settings), repeat=r):
                ref = None
                for comp in itertools.product(range(scn.settings), repeat=len(rest)):
                    m = marginal(behavior, parties, settings, comp)
                    if ref is None:
                        ref = m
                    else:
                        worst = worst_of((abs(u - v) for u, v in zip(ref, m)), worst)
    return worst <= tol, worst


@functools.lru_cache(maxsize=None)
def ns_row_entries(scn: Scenario) -> tuple:
    """The no-signalling rows, built once per scenario: for each party k,
    each setting tuple of the others, each x_k > 0 and each outcome tuple of
    the others, the row (+1 entries, -1 entries) of the others' marginal at
    x_k and at x_k = 0, each in increasing order.

    With per-column normalization and nonnegativity these rows carve out
    exactly the nonsignalling behaviors: they imply the condition for every
    party subset S, as summing out the parties outside S one at a time
    moves each of their settings to 0 without changing S's marginal.
    """
    rows = []
    for k in range(scn.parties):
        others = tuple(j for j in range(scn.parties) if j != k)
        groups = [[] for _ in range(scn.outcomes ** len(others))]
        for i, sub in enumerate(_restriction_indices(scn, others)):
            groups[sub].append(i)
        step = scn.settings ** (scn.parties - 1 - k) * scn.column_size  # x_k -> x_k + 1
        for xo in itertools.product(range(scn.settings), repeat=len(others)):
            base = scn.column_index(xo[:k] + (0,) + xo[k:]) * scn.column_size
            for xk in range(1, scn.settings):
                rows += [(tuple(base + xk * step + i for i in g), tuple(base + i for i in g)) for g in groups]
    return tuple(rows)


def ns_row_residual(behavior: Behavior):
    """Largest |A p| over the rows A of :func:`ns_row_entries`, an exact
    Fraction: 0 exactly when the behavior is nonsignalling
    (:func:`is_nonsignalling` stays the reference).  Each row is evaluated
    in the integers of :attr:`Behavior.scaled`, as the sum at its +1 entries
    minus that at its -1 entries; a float entry raises ValueError.
    """
    if behavior.scaled is None:
        raise ValueError("ns_row_residual needs an exact behavior (int or Fraction entries)")
    denom, ints = behavior.scaled
    get = ints.__getitem__
    rows = ns_row_entries(behavior.scenario)
    worst = max((abs(sum(map(get, plus)) - sum(map(get, minus))) for plus, minus in rows), default=0)
    return Fraction(worst, denom)


def deterministic_vertex(scenario: Scenario, table: Sequence[Sequence[int]]) -> Behavior:
    """Local deterministic behavior of the outcome table table[party][setting]:
    each party's outcome is a function of its setting."""
    if len(table) != scenario.parties:
        raise ValueError("assignment must cover every party")
    for row in table:
        if len(row) != scenario.settings:
            raise ValueError("assignment must cover every setting")
        for o in row:
            if not 0 <= o < scenario.outcomes:
                raise ValueError(f"assigned outcome {o} out of range")
    # the table fits, so each entry's flat index is built without Scenario.index's checks
    d, column_size = scenario.outcomes, scenario.column_size
    probs = [Fraction(0)] * scenario.size
    for column, x in enumerate(scenario.all_settings()):
        outcome = 0
        for k, xk in enumerate(x):
            outcome = outcome * d + table[k][xk]
        probs[column * column_size + outcome] = Fraction(1)
    return Behavior(scenario, tuple(probs))


def uniform_behavior(scenario: Scenario) -> Behavior:
    return Behavior(scenario, (Fraction(1, scenario.column_size),) * scenario.size)


def mix(behaviors: Sequence[Behavior], weights: Sequence) -> Behavior:
    """Convex combination of exact behaviors on a common scenario.

    Every weight and every behavior entry must be an int or a Fraction, a
    zero weight's behavior included; a float raises ValueError.  The weights
    must pass :func:`is_distribution`; zero weights are skipped.  The sum is
    :func:`scaled_sum` over the weights' numerators and denominators: its
    entries are Fractions.
    """
    if len(behaviors) != len(weights) or not behaviors:
        raise ValueError("need one weight per behavior")
    scn = behaviors[0].scenario
    if any(b.scenario != scn for b in behaviors):
        raise ValueError("behaviors live on different scenarios")
    if not is_exact(weights) or any(b.scaled is None for b in behaviors):
        raise ValueError("weights and behavior entries must be ints or Fractions")
    if not is_distribution(weights):
        raise ValueError(f"weights must be nonnegative and sum to 1, got {list(weights)}")
    return scaled_sum(scn, [[(w.numerator, w.denominator, b) for w, b in zip(weights, behaviors) if w]])


def scaled_sum(scn: Scenario, blocks: Sequence) -> Behavior:
    """sum_j (n_j / m_j) p_j over equal blocks of the flat tables, block i
    summing ``blocks[i] = [(n_j, m_j, p_j)]`` (ints, m_j > 0, exact p_j) in
    integer numerators; the result is built from them alone, in lowest terms."""
    width = scn.size // len(blocks)
    denom = math.lcm(*(m * b.scaled[0] for block in blocks for _, m, b in block))
    nums = []
    for i, block in enumerate(blocks):
        lo, hi = i * width, (i + 1) * width
        col = [0] * width
        for n, m, b in block:
            b_denom, b_nums = b.scaled
            c = n * (denom // (m * b_denom))
            col = [v + c * u for v, u in zip(col, b_nums[lo:hi])]
        nums += col
    g = math.gcd(denom, *nums)
    return Behavior._from_scaled(scn, denom // g, tuple(v // g for v in nums))


def integer_form(values) -> tuple[int, tuple[int, ...]]:
    """Ints and Fractions as integers over one denominator: (D, (n_i)) with
    v_i = n_i / D and D the least common denominator (1 for no values), the
    form :attr:`Behavior.scaled` holds."""
    denom = math.lcm(*(v.denominator for v in values))
    return denom, tuple(v.numerator * (denom // v.denominator) for v in values)


def is_exact(values) -> bool:
    """Whether every value is an int or a Fraction."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def is_distribution(values) -> bool:
    """Exact nonnegative entries summing to 1, the sum taken in the integers
    of :func:`integer_form`; False when any entry is not an int or a
    Fraction."""
    if not is_exact(values):
        return False
    denom, nums = integer_form(values)
    return sum(nums) == denom and min(nums) >= 0


# ---------------------------------------------------------------------------
# Serialization: the JSON schema, and the CSV and JSON text of every dataset
# and report.  Values are decimal strings; exact mode also accepts "p/q".
# JSON number literals are read as the Decimal of their source text, so exact
# mode reads 0.1 as 1/10 and float mode reads the float json itself would.

# Largest |exponent| of a decimal literal that exact mode expands: the
# Fraction of 1e1000000000 would be a gigabyte-sized integer.
_MAX_DECIMAL_EXPONENT = 4300


def parse_number(text, exact: bool):
    """A JSON number (int, float, or the Decimal :func:`read_json` makes of a
    literal) or a decimal/"p/q" string as a Fraction (exact) or a float.
    Decimal strings get the exponent cap of literals; NaN, infinities and
    booleans are rejected in both modes."""
    try:
        value = text
        if isinstance(value, bool):
            raise TypeError("boolean")
        if isinstance(value, str) and "/" not in value:
            value = Decimal(value)
        if isinstance(value, Decimal):
            if not exact:
                value = float(value)
            elif not value.is_finite() or abs(value.as_tuple().exponent) > _MAX_DECIMAL_EXPONENT:
                raise ValueError("exponent out of range")
        f = Fraction(value)
        return f if exact else float(f)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InputFormatError(f"cannot parse finite number {text!r}") from exc


def parse_int(value) -> int:
    """An integer field: a JSON integer or a string of one, never a boolean
    or a truncated fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputFormatError(f"expected an integer, got {value!r}")
    return int(value)


def scenario_to_json(scn: Scenario) -> dict:
    return {"N": scn.parties, "M": scn.settings, "d": scn.outcomes}


def scenario_from_json(obj) -> Scenario:
    """The Scenario of a ``{"N": ..., "M": ..., "d": ...}`` object."""
    try:
        return Scenario(parse_int(obj["N"]), parse_int(obj["M"]), parse_int(obj["d"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad scenario object: {exc}") from exc


def read_json(path: str):
    """Parse a JSON file, keeping each non-integer number literal as the
    Decimal of its text (see :func:`parse_number`)."""
    with open(path) as fh:
        try:
            return json.load(fh, parse_float=Decimal)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: {exc}") from exc


def format_number(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return repr(float(value))


def behavior_from_json(obj: dict, exact: bool = True) -> Behavior:
    try:
        scn = scenario_from_json(obj["scenario"])
        encoding = obj.get("encoding", "x-outer-a-inner")
        values = obj["values"]
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"bad behavior object: {exc}") from exc
    if encoding != "x-outer-a-inner":
        raise InputFormatError(f"unknown encoding {encoding!r}")
    if not isinstance(values, list):
        raise InputFormatError(f"values must be a list, got {values!r}")
    return Behavior(scn, tuple(parse_number(v, exact) for v in values))


def load_behavior(path: str, exact: bool = True) -> Behavior:
    return behavior_from_json(read_json(path), exact)


def json_text(obj) -> str:
    """A JSON report as the CLI writes it: indent 1, one closing newline."""
    return json.dumps(obj, indent=1) + "\n"


def csv_text(header: Sequence, rows) -> str:
    """A CSV dataset: the header, then one line per row, each line ending
    in \\r\\n (the csv module's default dialect)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
