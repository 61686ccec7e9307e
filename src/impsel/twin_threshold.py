"""Twin-threshold selection: traced runs, exact threshold validation, planning.

The mechanism iteratively deletes the outgoing edges of vertices whose
remaining indegree is at least the lower threshold t, from high indegree to
low (ties to the greater index), then selects the greatest-index vertex of
maximum remaining indegree provided that maximum reaches the upper threshold
T.  The full deletion trace is recorded so audits can re-derive every claim
about the run from first principles.

Threshold planning never floors a floating-point root: t and T are computed
with integer-root predicates on scaled integers (the growth parameters kappa
and c of the general planner are exact rationals), and every certification
decision is an exact integer comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt

from ._deletion import run_deletion, select_top
from .graphs import DirectedGraph, GraphClassSpec


@dataclass(frozen=True)
class ThresholdPair:
    """Upper/lower threshold pair; valid for n when 1 <= t <= T <= n-1."""

    upper: int
    lower: int

    def __post_init__(self):
        if not 1 <= self.lower <= self.upper:
            raise ValueError(f"need 1 <= t <= T, got T={self.upper}, t={self.lower}")

    def validate_for(self, n: int) -> None:
        if self.upper > n - 1:
            raise ValueError(f"upper threshold {self.upper} exceeds n-1={n - 1}")


@dataclass(frozen=True, eq=False)
class DeletionTrace:
    """Full record of one run's iterated deletion phase.

    ``deletions`` holds one (iteration, vertex, degree_at_deletion) record per
    deletion, in iteration order, and ``final_degrees`` the remaining
    indegrees, vertex v's at index v-1; audits derive the rest from these.
    """

    deletions: tuple[tuple[int, int, int], ...]
    final_degrees: tuple[int, ...]


def run_twin_threshold(graph: DirectedGraph, thresholds: ThresholdPair) -> tuple[int, DeletionTrace]:
    """Run the mechanism; return the selected vertex (0 for none) and the deletion trace."""
    thresholds.validate_for(graph.n)
    deg, deletions = run_deletion(graph, thresholds.lower)
    return select_top(deg, thresholds.upper), DeletionTrace(tuple(deletions), tuple(deg))


def additive_gap(graph: DirectedGraph, v: int) -> int:
    """Shortfall of selected vertex v's indegree against the maximum indegree.

    Recomputed from the graph; v = 0 selects nothing and counts as indegree 0.
    """
    return graph.max_indegree - (graph.indegrees[v - 1] if v else 0)


# ---------------------------------------------------------------------------
# threshold validation and planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanReport:
    """Threshold pair with its exact impartiality certificate and gap bound.

    ``impartial_certified`` is the strict comparison of
    (T^2 + 3T + t - t^2)/2 against k(n+2), evaluated in exact integer
    arithmetic; ``alpha_bound`` is the guaranteed worst additive gap
    T + floor(kn/t) - 2.  ``degenerate`` marks plans whose raw thresholds fell
    outside 1..n-1 and were clamped; such a mechanism may never select.
    """

    n: int
    k: int
    thresholds: ThresholdPair
    condition_lhs: Fraction
    condition_rhs: int
    impartial_certified: bool
    alpha_bound: int
    degenerate: bool = False
    note: str = ""


def validate_thresholds(n: int, k: int, thresholds: ThresholdPair) -> PlanReport:
    """Exact impartiality check for a threshold pair on n-vertex graphs with
    outdegree bound k.

    Certifies when T^2 + 3T + t - t^2 > 2k(n+2); both sides are integers, so
    no floating point enters the comparison.
    """
    GraphClassSpec(n, k)  # refuses a bound outside 1..n-1
    thresholds.validate_for(n)
    upper, lower = thresholds.upper, thresholds.lower
    margin = upper * upper + 3 * upper + lower - lower * lower
    return PlanReport(
        n=n,
        k=k,
        thresholds=thresholds,
        condition_lhs=Fraction(margin, 2),
        condition_rhs=k * (n + 2),
        impartial_certified=margin > 2 * k * (n + 2),
        alpha_bound=upper + (k * n) // lower - 2,
    )


def _clamped(report: PlanReport, upper_raw: int, lower_raw: int) -> PlanReport:
    """`report` marked degenerate: its raw thresholds fell outside 1..n-1."""
    note = f"raw thresholds (T={upper_raw}, t={lower_raw}) clamped to 1..{report.n - 1}; mechanism may never select"
    return replace(report, degenerate=True, note=note)


def _ceil_sqrt(n: int) -> int:
    return 1 + isqrt(n - 1) if n > 0 else 0


def plan_thresholds_k1(n: int) -> PlanReport:
    """Threshold plan for single-nomination graphs (outdegree bound 1).

    Picks t = ceil(sqrt(n)) and the largest T whose squared form stays within
    t^2 - t + 2n + 25/4; concretely T is the largest integer with
    (2T+1)^2 <= 4t^2 - 4t + 8n + 25, found by integer square root.  The
    resulting guarantee alpha = T + floor(n/t) - 2 satisfies alpha^2 <= 8n.
    When the raw t or T exceeds n-1 the plan is clamped and flagged degenerate
    instead of erroring.
    """
    if n < 2:
        raise ValueError(f"planning needs n >= 2, got {n}")
    t_raw = _ceil_sqrt(n)
    scaled = 4 * t_raw * t_raw - 4 * t_raw + 8 * n + 25
    upper_raw = (isqrt(scaled) - 1) // 2
    degenerate = t_raw > n - 1 or upper_raw > n - 1
    upper = min(upper_raw, n - 1)
    lower = min(t_raw, upper)
    report = validate_thresholds(n, 1, ThresholdPair(upper, lower))
    if degenerate:
        return _clamped(report, upper_raw, t_raw)
    if not report.impartial_certified:
        raise RuntimeError(f"k=1 plan for n={n} failed its own certification")
    if report.alpha_bound**2 > 8 * n:
        raise RuntimeError(f"k=1 plan for n={n} broke alpha^2 <= 8n")
    return report


#: Largest denominator accepted for the growth exponent kappa: the exact
#: comparisons raise integers to powers of twice this denominator.
KAPPA_DENOMINATOR_CAP = 10**4


def _rational(x: Fraction | int | float | str) -> Fraction:
    """Exact value of a planner parameter; a float is read as the decimal it
    prints as (0.3 means 3/10)."""
    return Fraction(repr(x)) if isinstance(x, float) else Fraction(x)


def _floor_root(num: int, den: int, r: int) -> int:
    """Largest integer x >= 0 with x**r * den <= num, for num >= 0 and den >= 1."""
    lo, hi = 0, 1
    while hi**r * den <= num:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**r * den <= num:
            lo = mid
        else:
            hi = mid
    return lo


def plan_thresholds_general(
    n: int, k: int, kappa: Fraction | int | float | str, c: Fraction | int | float | str
) -> PlanReport:
    """Threshold plan for outdegree bound k <= c * n**kappa.

    With s = sqrt(c) n^((1+kappa)/2), takes t = floor(s/2) (at least 1) and
    T = ceil(5s/2) - 1, clamps into 1..n-1 with t <= T, and re-certifies the
    pair exactly.  kappa and c are exact rationals, so for kappa = p/q and
    c = a/b, s is the 2q-th root of a^q n^(q+p) / b^q, and both roundings and
    the domain check k^q b^q <= a^q n^p are integer comparisons.
    """
    kappa, c = _rational(kappa), _rational(c)
    if n < 2:
        raise ValueError(f"planning needs n >= 2, got {n}")
    if not 0 <= kappa <= 1:
        raise ValueError(f"kappa {kappa} outside [0, 1]")
    if kappa.denominator > KAPPA_DENOMINATOR_CAP:
        raise ValueError(f"kappa {kappa} has a denominator above {KAPPA_DENOMINATOR_CAP}")
    GraphClassSpec(n, k)  # refuses a bound outside 1..n-1
    if c <= 0:
        raise ValueError(f"coefficient c must be positive, got {c}")
    p, q = kappa.numerator, kappa.denominator
    a, b = c.numerator, c.denominator
    if (k * b) ** q > a**q * n**p:
        raise ValueError(f"bound k={k} exceeds c*n^kappa = {float(c) * n ** float(kappa):.6g}")
    radicand, den = a**q * n ** (q + p), 4**q * b**q  # (s/2)^(2q) = radicand / den
    lower_raw = max(1, _floor_root(radicand, den, 2 * q))
    five_halves = _floor_root(25**q * radicand, den, 2 * q)  # floor(5s/2)
    exact = five_halves ** (2 * q) * den == 25**q * radicand
    upper_raw = five_halves - 1 if exact else five_halves
    degenerate = upper_raw > n - 1 or lower_raw > n - 1
    upper = min(upper_raw, n - 1)
    lower = min(lower_raw, upper)
    report = validate_thresholds(n, k, ThresholdPair(upper, lower))
    return _clamped(report, upper_raw, lower_raw) if degenerate else report
