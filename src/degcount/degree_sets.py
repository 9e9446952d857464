"""Degree sets: which vertex degrees are allowed, and their generating function.

A degree set has one normal form: an ascending tuple of members, or the
progression start, start + step, ...  A finite list has no progression;
min=delta is (delta, 1), even is (0, 2) and odd is (1, 2), and each
progression has a closed-form exponential generating function.  The form is
closed under :meth:`DegreeSet.shift`: a shift past every member gives the
empty set, whose egf_log is -inf, so Set_{D-i}(x) / Set_D(x) reads 0.0.

Set_D(x), the sum of x**d / d! over D, is evaluated in one place and only in
log space, :meth:`DegreeSet.egf_log`; the saddle point and the Boltzmann law
both read it there.
"""

from __future__ import annotations

import math

from .records import Record

#: Marker for unbounded quantities (max of an infinite set, periodicity of a
#: singleton).  Compares correctly against any finite integer.
INFINITE = math.inf

# Largest x for which e**x fits in a double; beyond it only log-space works.
_EXP_OVERFLOW = 709.0


def _logsumexp(logs):
    top = max(logs)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum(math.exp(v - top) for v in logs))


class DegreeSet(Record):
    """An immutable set of allowed vertex degrees, in its normal form.

    Either the ascending tuple `members` (step 0) or, with no members, the
    progression start, start + step, ... (step > 0).  The empty set, which
    only :meth:`shift` makes, has no members, valuation INFINITE and
    max_degree -INFINITE (the min and max of nothing).

    Use the constructors :meth:`finite`, :meth:`min_degree`, :meth:`even`,
    :meth:`odd` or :func:`parse_degree_set`: `DegreeSet(members, start,
    step)` takes its fields as given and does not check the normal form.
    """

    __slots__ = ("members", "start", "step")

    def __init__(self, members: tuple[int, ...] = (), start: int = 0,
                 step: int = 0):
        # the slots' own setters, a little faster than _fill: the saddle
        # solver makes about 60 shifted sets per query
        _set_members(self, members)
        _set_start(self, start)
        _set_step(self, step)

    # -- constructors ------------------------------------------------------

    @classmethod
    def finite(cls, degrees) -> "DegreeSet":
        members = tuple(sorted(set(int(d) for d in degrees)))
        if not members:
            raise ValueError("a finite degree set needs at least one member")
        if members[0] < 0:
            raise ValueError("degrees must be nonnegative")
        return cls(members)

    @classmethod
    def min_degree(cls, delta: int) -> "DegreeSet":
        delta = int(delta)
        if delta < 0:
            raise ValueError("minimum degree must be nonnegative")
        return cls(start=delta, step=1)

    @classmethod
    def even(cls) -> "DegreeSet":
        return cls(step=2)

    @classmethod
    def odd(cls) -> "DegreeSet":
        return cls(start=1, step=2)

    # -- basic structure ---------------------------------------------------

    def __contains__(self, d: int) -> bool:
        if self.step:
            return d >= self.start and (d - self.start) % self.step == 0
        return d in self.members

    @property
    def size(self):
        """Number of members; INFINITE for a progression."""
        return INFINITE if self.step else len(self.members)

    @property
    def valuation(self):
        """Smallest allowed degree; INFINITE for the empty set."""
        if self.step:
            return self.start
        return self.members[0] if self.members else INFINITE

    @property
    def max_degree(self):
        """Largest allowed degree; INFINITE for a progression, -INFINITE for
        the empty set."""
        if self.step:
            return INFINITE
        return self.members[-1] if self.members else -INFINITE

    @property
    def periodicity(self):
        """gcd of pairwise member differences; INFINITE for a singleton or
        the empty set."""
        g = self.step
        for d in self.members[1:]:
            g = math.gcd(g, d - self.members[0])
        return g or INFINITE

    def members_up_to(self, j: int):
        """Iterate the members not exceeding j, ascending."""
        if self.step:
            return iter(range(self.start, j + 1, self.step))
        return (d for d in self.members if d <= j)

    def shift(self, i: int) -> "DegreeSet":
        """The set {d - i : d in self, d - i >= 0}, possibly empty.

        Returns self whenever the shift leaves the set unchanged (i = 0,
        even and odd by an even amount, min=0, the empty set).
        """
        if i < 0:
            raise ValueError("shift amount must be nonnegative")
        if self.step:
            # the first member at or above i, less i
            start = (self.start - i if self.start >= i
                     else (self.start - i) % self.step)
            if start == self.start:
                return self
            return DegreeSet(start=start, step=self.step)
        members = tuple(d - i for d in self.members if d >= i)
        return self if members == self.members else DegreeSet(members)

    # -- generating function -----------------------------------------------

    def _min_series(self, x: float) -> float:
        # Tail of e**x starting at degree start; terms decay factorially
        # once d > x, so the stop rule is safe.
        d = self.start
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
        double (near x = 709); -inf for the empty set; any other x raises
        ValueError.
        """
        if not 0 < x < math.inf:
            raise ValueError("egf_log is only evaluated at finite positive points")
        lx = math.log(x)
        if not self.step:
            if not self.members:
                return -math.inf
            return _logsumexp([d * lx - math.lgamma(d + 1) for d in self.members])
        if self.step == 2:      # cosh for even, sinh for odd
            sign = 1 - 2 * self.start
            if x < 20:
                return math.log(math.cosh(x) if sign > 0 else math.sinh(x))
            return x - math.log(2.0) + math.log1p(sign * math.exp(-2 * x))
        # step 1: the tail of e**x from delta = start
        delta = self.start
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
        if not self.step:
            return ",".join(str(d) for d in self.members)
        if self.step == 1:
            return f"min={self.start}"
        return ("even", "odd")[self.start]


_set_members = DegreeSet.members.__set__
_set_start = DegreeSet.start.__set__
_set_step = DegreeSet.step.__set__


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
