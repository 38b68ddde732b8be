"""Reference constructions that only the tests use."""

from fractions import Fraction

from monogamy_lab.bell import BellFunctional, _resolved_term
from monogamy_lab.scenario import Scenario


def chained_bkp(M: int, d: int) -> BellFunctional:
    """The bipartite chained functional on (2, M, d) from its defining sum;
    classical bound d-1.  ``recursive_bkp(2, M, d)`` must build the same
    terms."""
    if M < 2 or d < 2:
        raise ValueError("need M >= 2 and d >= 2")
    scn = Scenario(2, M, d)
    terms = []
    for x in range(M):
        terms.append(_resolved_term(1, [(0, x, 1), (1, x, -1)], 0, scn))
        terms.append(_resolved_term(1, [(1, x, 1), (0, x + 1, -1)], 0, scn))
    return BellFunctional(scn, tuple(terms), Fraction(d - 1), Fraction(0))
