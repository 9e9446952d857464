"""Degree sets: which vertex degrees are allowed, and their generating function.

A degree set is either an explicit finite list of nonnegative integers or one
of three structured infinite families: all integers at least some minimum, the
even numbers, or the odd numbers.  The infinite families have closed-form
exponential generating functions, so every quantity built on them can be
evaluated without tail-bound machinery.

Set_D(x), the sum of x**d / d! over D, is evaluated in one place and only in
log space, :meth:`DegreeSet.egf_log`; the saddle point and the Boltzmann law
both read it there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Marker for unbounded quantities (max of an infinite set, periodicity of a
#: singleton).  Compares correctly against any finite integer.
INFINITE = math.inf

_FINITE = "finite"
_MIN = "min"
_EVEN = "even"
_ODD = "odd"

# Largest x for which e**x fits in a double; beyond it only log-space works.
_EXP_OVERFLOW = 709.0


class DegenerateShiftError(ValueError):
    """Shifting dropped every member of a finite degree set."""


def _logsumexp(logs):
    top = max(logs)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum(math.exp(v - top) for v in logs))


@dataclass(frozen=True)
class DegreeSet:
    """An immutable set of allowed vertex degrees.

    Use the constructors :meth:`finite`, :meth:`min_degree`, :meth:`even`,
    :meth:`odd` or :func:`parse_degree_set` rather than calling the dataclass
    directly.
    """

    kind: str
    members: tuple[int, ...] = ()
    delta: int = 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def finite(cls, degrees) -> "DegreeSet":
        members = tuple(sorted(set(int(d) for d in degrees)))
        if not members:
            raise ValueError("a finite degree set needs at least one member")
        if members[0] < 0:
            raise ValueError("degrees must be nonnegative")
        return cls(_FINITE, members=members)

    @classmethod
    def min_degree(cls, delta: int) -> "DegreeSet":
        delta = int(delta)
        if delta < 0:
            raise ValueError("minimum degree must be nonnegative")
        return cls(_MIN, delta=delta)

    @classmethod
    def even(cls) -> "DegreeSet":
        return cls(_EVEN)

    @classmethod
    def odd(cls) -> "DegreeSet":
        return cls(_ODD)

    # -- basic structure ---------------------------------------------------

    def __contains__(self, d: int) -> bool:
        if d < 0:
            return False
        if self.kind == _FINITE:
            return d in self.members
        if self.kind == _MIN:
            return d >= self.delta
        if self.kind == _EVEN:
            return d % 2 == 0
        return d % 2 == 1

    @property
    def size(self):
        """Number of members; INFINITE for the structured families."""
        return len(self.members) if self.kind == _FINITE else INFINITE

    @property
    def valuation(self) -> int:
        """Smallest allowed degree."""
        if self.kind == _FINITE:
            return self.members[0]
        if self.kind == _MIN:
            return self.delta
        return 0 if self.kind == _EVEN else 1

    @property
    def max_degree(self):
        """Largest allowed degree; INFINITE for the structured families."""
        return self.members[-1] if self.kind == _FINITE else INFINITE

    @property
    def periodicity(self):
        """gcd of pairwise member differences; INFINITE for a singleton."""
        if self.kind == _FINITE:
            if len(self.members) == 1:
                return INFINITE
            g = 0
            base = self.members[0]
            for d in self.members[1:]:
                g = math.gcd(g, d - base)
            return g
        if self.kind == _MIN:
            return 1
        return 2

    def members_up_to(self, j: int):
        """Iterate the members not exceeding j, ascending."""
        if self.kind == _FINITE:
            return (d for d in self.members if d <= j)
        if self.kind == _MIN:
            return iter(range(self.delta, j + 1))
        if self.kind == _EVEN:
            return iter(range(0, j + 1, 2))
        return iter(range(1, j + 1, 2))

    def shift(self, i: int) -> "DegreeSet":
        """The set {d - i : d in self, d - i >= 0}.

        Raises DegenerateShiftError if nothing survives; the downstream
        formulas all divide by generating-function values, so an empty set
        is rejected rather than silently producing zeros.
        """
        if i < 0:
            raise ValueError("shift amount must be nonnegative")
        if i == 0:
            return self
        if self.kind == _FINITE:
            members = tuple(d - i for d in self.members if d >= i)
            if not members:
                raise DegenerateShiftError(
                    f"shifting {self} by {i} leaves no degrees")
            return DegreeSet(_FINITE, members=members)
        if self.kind == _MIN:
            return DegreeSet(_MIN, delta=max(self.delta - i, 0))
        if i % 2 == 0:
            return self
        return DegreeSet(_ODD) if self.kind == _EVEN else DegreeSet(_EVEN)

    # -- generating function -----------------------------------------------

    def _min_series(self, x: float) -> float:
        # Tail of e**x starting at degree delta; terms decay factorially
        # once d > x, so the stop rule is safe.
        d = self.delta
        term = x ** d / math.factorial(d)
        total = 0.0
        while True:
            total += term
            d += 1
            term *= x / d
            if d > x and term < total * 1e-17:
                return total

    def egf_log(self, x: float) -> float:
        """log Set_D(x), the log of the sum of x**d / d! over the members.

        Stable for any finite x > 0, far beyond where Set_D(x) overflows a
        double (near x = 709); any other x raises ValueError.
        """
        if not 0 < x < math.inf:
            raise ValueError("egf_log is only evaluated at finite positive points")
        lx = math.log(x)
        if self.kind == _FINITE:
            return _logsumexp([d * lx - math.lgamma(d + 1) for d in self.members])
        if self.kind == _EVEN:
            if x < 20:
                return math.log(math.cosh(x))
            return x - math.log(2.0) + math.log1p(math.exp(-2 * x))
        if self.kind == _ODD:
            if x < 20:
                return math.log(math.sinh(x))
            return x - math.log(2.0) + math.log1p(-math.exp(-2 * x))
        # minimum-degree family
        delta = self.delta
        if delta == 0:
            return x
        lead = delta * lx - math.lgamma(delta + 1)
        if x < _EXP_OVERFLOW and lead > -700.0:
            return math.log(self._min_series(x))
        if x > delta:
            # e**x minus a short polynomial head, all in log space
            head = _logsumexp([d * lx - math.lgamma(d + 1) for d in range(delta)])
            return x + math.log1p(-math.exp(head - x))
        # x below delta: sum the decaying tail in log space
        logs = []
        d, ld = delta, lead
        while ld > lead - 45.0:
            logs.append(ld)
            d += 1
            ld += lx - math.log(d)
        return _logsumexp(logs)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        if self.kind == _FINITE:
            return ",".join(str(d) for d in self.members)
        if self.kind == _MIN:
            return f"min={self.delta}"
        return self.kind


def parse_degree_set(text: str) -> DegreeSet:
    """Parse the CLI syntax: "d1,d2,...", "min=delta", "even" or "odd"."""
    spec = text.strip().lower()
    if not spec:
        raise ValueError("empty degree set specification")
    if spec == "even":
        return DegreeSet.even()
    if spec == "odd":
        return DegreeSet.odd()
    if spec.startswith("min="):
        body = spec[4:].strip()
        if not body.isdigit():
            raise ValueError(f"bad minimum degree in {text!r}")
        return DegreeSet.min_degree(int(body))
    parts = [p.strip() for p in spec.split(",")]
    if any(not p for p in parts):
        raise ValueError(f"malformed degree list {text!r}")
    degrees = []
    for p in parts:
        if not p.lstrip("-").isdigit():
            raise ValueError(f"bad degree {p!r} in {text!r}")
        d = int(p)
        if d < 0:
            raise ValueError(f"negative degree {d} in {text!r}")
        degrees.append(d)
    return DegreeSet.finite(degrees)
