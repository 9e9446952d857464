"""Saddle-point machinery and asymptotic counts for degree-constrained graphs.

The mean-degree function x * Set_{D-1}(x) / Set_D(x) is strictly increasing
from min(D) to max(D) on the positive axis whenever the set has at least two
members; its unique preimage of 2m/n is the saddle point driving every
asymptotic formula here.  Everything is computed in natural-log space since
the counts overflow doubles around n = 90.  Each Newton step and the
saddle-point bundle read log Set_D(x), Set_{D-1}/Set_D and Set_{D-2}/Set_D
once (:func:`_point`); the mean, its slope and L are formed from them.

:func:`resolve` decides each (D, n, m) instance once.  It is infeasible, or
forced (2m equals n*min(D) or n*max(D), which covers a one-member D, m = 0
and n = 0, so every degree takes one value and the closed regular form is
exact), or interior (2m/n strictly inside D's range, where the saddle point
exists).  An empty D-2 has egf_log -inf, so Set_{D-2}/Set_D reads 0.0 with
no special case: no loop or double edge can occur, and L = 0.
"""

from __future__ import annotations

import math

from .degree_sets import INFINITE, DegreeSet
from .records import Record
from .tables import infeasibility_reason

_LN2 = math.log(2.0)


class InfeasibleRegimeError(ValueError):
    """The package's one infeasibility error.

    Either no instance exists (no degree sequence from D sums to 2m over n
    vertices, or a Boltzmann law on n vertices can only draw an odd total),
    or no saddle point does (the target is not strictly between min(D) and
    max(D), or D has one member).
    """


def _point(degree_set: DegreeSet, x: float,
           slope: bool = True) -> tuple[float, float, float, float]:
    # (log Set_D(x), mean degree, its slope, Set_{D-2}/Set_D); slope=False
    # skips Set_{D-2} and leaves the last two 0.0, for steps that need the mean
    if degree_set.size < 2:
        raise InfeasibleRegimeError("mean-degree function is degenerate "
                                    "for a set with fewer than two members")
    log0 = degree_set.egf_log(x)
    r1 = math.exp(degree_set.shift(1).egf_log(x) - log0)
    mean = x * r1
    if not slope:
        return log0, mean, 0.0, 0.0
    r2 = math.exp(degree_set.shift(2).egf_log(x) - log0)
    return log0, mean, r1 + x * r2 - x * r1 * r1, r2


def _loop(n: int, m: int, x: float, ratio: float) -> float:
    return (n / (4.0 * m)) * x * x * ratio  # L from Set_{D-2}(x) / Set_D(x)


def mean_degree(degree_set: DegreeSet, x: float) -> float:
    """x * Set_{D-1}(x) / Set_D(x): the Boltzmann expected degree at x."""
    return _point(degree_set, x, slope=False)[1]


def mean_degree_slope(degree_set: DegreeSet, x: float) -> float:
    """Derivative of :func:`mean_degree`; positive on the whole axis."""
    return _point(degree_set, x)[2]


def solve_mean_degree(degree_set: DegreeSet, target: float) -> float:
    """Unique positive x with mean_degree(x) == target.

    Brackets the root geometrically from x = 1, bisects the bracket down to
    1e-3 relative width, then polishes with Newton to 1e-13 relative.  The
    mean-degree function is continuous and strictly increasing with range
    ]min(D), max(D)[, so the bracketing always succeeds for an in-range
    target.  If 60 Newton steps end without that step test firing, the last
    iterate is returned only when its residual is within 1e-12 relative of
    the target (near the ends of a finite set's range rounding can keep the
    steps from shrinking further); otherwise ArithmeticError is raised.  A
    target that is not finite raises ValueError.
    """
    if not math.isfinite(target):
        raise ValueError(f"target mean degree {target} is not finite")
    r = degree_set.valuation
    mx = degree_set.max_degree
    if not (r < target and (mx is INFINITE or target < mx)):
        raise InfeasibleRegimeError(
            f"target {target} outside the open range ]{r}, {mx}[")

    f = lambda x: mean_degree(degree_set, x) - target
    f1 = f(1.0)
    if f1 == 0.0:
        return 1.0
    # halve x while the mean is above the target, double it while below
    above = f1 > 0.0
    scale = 0.5 if above else 2.0
    x = 1.0
    for _ in range(200):
        prev, x = x, x * scale
        fx = f(x)
        if (fx < 0.0) if above else (fx > 0.0):
            break
    else:
        raise ArithmeticError("failed to bracket the saddle point "
                              f"{'below' if above else 'above'} 1")
    lo, hi = min(prev, x), max(prev, x)

    while hi - lo > 1e-3 * lo:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid

    x = 0.5 * (lo + hi)
    for _ in range(60):
        _, mean, slope, _ = _point(degree_set, x)
        fx = mean - target
        if fx < 0.0:
            lo = max(lo, x)
        elif fx > 0.0:
            hi = min(hi, x)
        nxt = x - fx / slope
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 1e-13 * x:
            return nxt
        x = nxt
    residual = f(x)
    if abs(residual) <= 1e-12 * target:
        return x
    raise ArithmeticError(
        f"Newton did not converge for target {target} on {degree_set}: "
        f"relative residual {abs(residual) / target:.3g} at x = {x!r}")


def loop_intensity(degree_set: DegreeSet, n: int, m: int, x: float) -> float:
    """(n / 4m) * x^2 * Set_{D-2}(x) / Set_D(x).

    At the saddle point this is the limiting expected number of loops in a
    random multigraph of the model; its square is the expected number of
    double edges.
    """
    log0 = degree_set.egf_log(x)
    return _loop(n, m, x, math.exp(degree_set.shift(2).egf_log(x) - log0))


class SaddlePoint(Record):
    """Saddle-point bundle for one (degree set, n, m) instance."""

    __slots__ = ("x", "mean_degree", "slope", "loop_intensity", "log_egf")

    def __init__(self, x: float, mean_degree: float, slope: float,
                 loop_intensity: float, log_egf: float):
        self._fill(x, mean_degree, slope, loop_intensity, log_egf)


def saddle_point(degree_set: DegreeSet, n: int, m: int) -> SaddlePoint:
    """Solve mean_degree(x) = 2m/n and evaluate the companion quantities."""
    if n <= 0 or m <= 0:
        raise InfeasibleRegimeError("need at least one vertex and one edge")
    x = solve_mean_degree(degree_set, 2.0 * m / n)
    log_egf, mean, slope, ratio = _point(degree_set, x)
    return SaddlePoint(x=x, mean_degree=mean, slope=slope,
                       loop_intensity=_loop(n, m, x, ratio), log_egf=log_egf)


class Regime(Record):
    """One of: infeasible (`reason`), forced to `degree`, interior (`saddle`).

    `loop_intensity` is L, the limiting expected number of loops, and
    `simple_reason` why a feasible instance has no simple graph, if so.
    """

    __slots__ = ("reason", "degree", "saddle", "loop_intensity",
                 "simple_reason")

    def __init__(self, reason: str | None = None, degree: int | None = None,
                 saddle: SaddlePoint | None = None,
                 loop_intensity: float = 0.0,
                 simple_reason: str | None = None):
        self._fill(reason, degree, saddle, loop_intensity, simple_reason)

    @property
    def acceptance(self) -> float:
        """exp(-L^2 - L), the limiting probability that a multigraph is simple."""
        lam = self.loop_intensity
        return math.exp(-lam * lam - lam)


def resolve(degree_set: DegreeSet, n: int, m: int) -> Regime:
    """Decide which regime (D, n, m) is in; the one place edge cases are met.

    Infeasible exactly when no degree sequence exists, with the reason from
    :func:`infeasibility_reason`.  Forced when n = 0 (the empty graph, with
    degree min(D), or 0 for the empty set) or when 2m equals n*min(D) or
    n*max(D), which covers a one-member D and m = 0: every degree is d and
    L = n d (d-1) / 4m, or 0 without edges.  Otherwise 2m/n lies
    strictly inside D's range and the saddle point is solved once.  Raises
    ValueError for negative n or m.  When max(D) >= n, a feasible instance
    also gets the test on degrees up to n - 1, the most a simple graph has.
    """
    reason = infeasibility_reason(degree_set, n, m)
    if reason is not None:
        return Regime(reason=reason)
    simple = None
    if degree_set.max_degree >= n:
        simple = infeasibility_reason(degree_set, n, m, top=n - 1)
        if simple is not None:
            simple = f"no simple graph on {n} vertices: {simple}"
    if n == 0:  # the empty graph (m = 0); the empty set has no min(D) to read
        return Regime(degree=degree_set.valuation if degree_set.size else 0,
                      simple_reason=simple)
    for d in (degree_set.valuation, degree_set.max_degree):
        if 2 * m == n * d:
            lam = n * d * (d - 1) / (4.0 * m) if m > 0 else 0.0
            return Regime(degree=d, loop_intensity=lam, simple_reason=simple)
    sp = saddle_point(degree_set, n, m)
    return Regime(saddle=sp, loop_intensity=sp.loop_intensity,
                  simple_reason=simple)


class AsymptoticCount(Record):
    """A count estimate in natural-log space, with the saddle point it used
    (None unless interior) or the reason it is infeasible."""

    __slots__ = ("log_value", "n", "m", "feasible", "saddle", "reason")

    def __init__(self, log_value: float, n: int, m: int, feasible: bool,
                 saddle: SaddlePoint | None = None, reason: str | None = None):
        self._fill(log_value, n, m, feasible, saddle, reason)

    @property
    def log10_value(self) -> float:
        return self.log_value / math.log(10.0)

    def mantissa_exponent(self) -> tuple[float, int]:
        """(mantissa in [1, 10), decimal exponent); (0.0, 0) if infeasible."""
        if not self.feasible or self.log_value == -math.inf:
            return (0.0, 0)
        l10 = self.log10_value
        e = math.floor(l10)
        return (10.0 ** (l10 - e), int(e))


def _estimate(degree_set: DegreeSet, n: int, m: int,
              simple: bool) -> AsymptoticCount:
    regime = resolve(degree_set, n, m)
    reason = regime.reason or (regime.simple_reason if simple else None)
    if reason is not None:
        return AsymptoticCount(-math.inf, n, m, False, reason=reason)
    log_value = math.lgamma(2 * m + 1) - m * _LN2 - math.lgamma(m + 1)
    sp = regime.saddle
    if sp is None:
        log_value -= n * math.lgamma(regime.degree + 1)
    else:
        log_value = (log_value + math.log(degree_set.periodicity)
                     - 0.5 * math.log(2.0 * math.pi * n * sp.x * sp.slope)
                     + n * sp.log_egf - 2 * m * math.log(sp.x))
    if simple:
        lam = regime.loop_intensity
        log_value = log_value - lam * lam - lam
    return AsymptoticCount(log_value, n, m, True, saddle=sp)


def multigraph_count_asymptotic(degree_set: DegreeSet, n: int, m: int) -> AsymptoticCount:
    """Saddle-point estimate of the total multigraph weight.

    (2m)!/(2^m m!) * p / sqrt(2 pi n x slope) * Set(x)^n / x^(2m), with x the
    saddle point and p the periodicity of D.  Its relative error is
    O(1/min(n, e/p)), where e is the half-edge excess from the nearer end of
    D's range, 2m - n*min(D) or n*max(D) - 2m: while e << n it is about
    +p/(12e), whatever n is, the Stirling error of (e/p)!, because the e/p
    extra units follow a law closer to Poisson than Gaussian.  Near-periodic
    finite sets such as 0,5,7 can err by tens of percent at practical n.
    A forced instance (every degree equal to d, see :func:`resolve`) returns
    its exact closed form (2m)!/(2^m m! d!^n) instead.  Infeasible (n, m)
    come back with feasible=False, log_value = -inf and the reason.
    """
    return _estimate(degree_set, n, m, simple=False)


def simple_graph_count_asymptotic(degree_set: DegreeSet, n: int, m: int) -> AsymptoticCount:
    """Saddle-point estimate of the number of simple graphs.

    The multigraph estimate times exp(-L^2 - L) where L is the loop
    intensity: at the saddle point, or n d (d-1) / (4m) for an instance
    forced to degree d.  So it carries the multigraph estimate's error,
    about +p/(12e) near an end of D's range (see
    :func:`multigraph_count_asymptotic`), on top of the error of that
    limiting acceptance.  An instance with multigraphs but no simple graph
    (`Regime.simple_reason`) comes back infeasible with that reason.
    """
    return _estimate(degree_set, n, m, simple=True)


def acceptance_probability(degree_set: DegreeSet, n: int, m: int) -> float:
    """Limiting probability that a model multigraph is simple.

    exp(-L^2 - L) with L the loop intensity of :func:`resolve`; the ratio of
    the simple-graph estimate to the multigraph estimate.  The expected
    number of pairing attempts per simple graph is its reciprocal.  Raises
    InfeasibleRegimeError for an infeasible instance.
    """
    regime = resolve(degree_set, n, m)
    if regime.reason is not None:
        raise InfeasibleRegimeError(regime.reason)
    return regime.acceptance
