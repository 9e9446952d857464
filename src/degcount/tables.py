"""Exact big-integer tables of scaled generating-function power coefficients.

The central object is the table T[i][j] = j! * [x^j] Set(x)^i, where Set is
the exponential generating function of a degree set.  Entry T[i][j] counts the
sequences of i disjoint labelled sets partitioning {1..j} with every block
size allowed, which is exactly the number of half-edge orderings of
multigraphs realised by i vertices carrying j half-edges.  All entries are
exact Python integers, and every division on the way is checked to leave no
remainder.

Full tables (:func:`build_table`, read by the sampler and the marked sums)
come from row recurrences that fill a row in O(1) big-integer operations per
cell instead of the generic O(|D|) convolution:

* finite lists use the defining convolution over the members,
* minimum-degree sets use (e^x - head)' = (e^x - head) + x^(delta-1)/(delta-1)!,
* even sets use (cosh^i)'' = i^2 cosh^i - i(i-1) cosh^(i-2),
* odd sets use (sinh^i)'' = i^2 sinh^i + i(i-1) sinh^(i-2).

A single entry (:func:`power_coefficient`, behind :func:`multigraph_weight`)
never sweeps the n x (j+1) grid.  Each family takes its cheapest exact route:

* min=0 is n^j,
* min=1 is the surjection sum sum_i (-1)^i C(n,i) (n-i)^j,
* even and odd expand cosh^n and sinh^n into exponentials,
  2^-n sum_k (+-1)^k C(n,k) (n-2k)^j, in about n/2 big powers,
* finite lists run J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2,
  4.7) from Set * (Set^n)' = n Set' * Set^n, with O(|D|) operations for
  each of the (j - n*min D)/periodicity steps; the step count does not
  depend on n,
* min=delta >= 2 runs the row recurrence restricted to the band of cells
  whose excess j' - delta*i is at most the target's, (n+1)(j - delta*n + 1)
  cells in all.

The generic convolution T[i][j] = sum_d C(j,d) T[i-1][j-d] remains the ground
truth; the test suite pins every fast path against it.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from .degree_sets import INFINITE, DegreeSet


def _rows_finite(members, j_max):
    row = [1] + [0] * j_max
    yield row
    comb = math.comb
    prev = row
    while True:
        new = [0] * (j_max + 1)
        for j in range(j_max + 1):
            s = 0
            for d in members:
                if d > j:
                    break
                w = prev[j - d]
                if w:
                    s += comb(j, d) * w
            new[j] = s
        yield new
        prev = new


def _rows_min(delta, j_max):
    row = [1] + [0] * j_max
    yield row
    comb = math.comb
    prev = row
    i = 1
    while True:
        new = [0] * (j_max + 1)
        if delta == 0:
            new[0] = 1
            for j in range(j_max):
                new[j + 1] = i * new[j]
        else:
            dm1 = delta - 1
            for j in range(j_max):
                t = i * new[j]
                if j >= dm1:
                    w = prev[j - dm1]
                    if w:
                        t += i * comb(j, dm1) * w
                new[j + 1] = t
        yield new
        prev = new
        i += 1


def _rows_parity(kind_odd, j_max):
    row0 = [1] + [0] * j_max
    yield row0
    if kind_odd:
        row1 = [1 if j % 2 == 1 else 0 for j in range(j_max + 1)]
    else:
        row1 = [1 if j % 2 == 0 else 0 for j in range(j_max + 1)]
    yield row1
    back2, i = row0, 2
    prev = row1
    sign = 1 if kind_odd else -1
    while True:
        new = [0] * (j_max + 1)
        start = i % 2 if kind_odd else 0
        if not kind_odd:
            new[0] = 1
        ii, cross = i * i, sign * i * (i - 1)
        for j in range(start, j_max - 1, 2):
            new[j + 2] = ii * new[j] + cross * back2[j]
        yield new
        back2, prev = prev, new
        i += 1


def _iter_rows(degree_set: DegreeSet, j_max: int):
    if degree_set.kind == "finite":
        return _rows_finite(degree_set.members, j_max)
    if degree_set.kind == "min":
        return _rows_min(degree_set.delta, j_max)
    return _rows_parity(degree_set.kind == "odd", j_max)


class CoefficientTable:
    """All rows T[0..n_max][0..j_max] for one degree set, built eagerly."""

    def __init__(self, degree_set: DegreeSet, n_max: int, j_max: int):
        if n_max < 0 or j_max < 0:
            raise ValueError("table bounds must be nonnegative")
        self.degree_set = degree_set
        self.n_max = n_max
        self.j_max = j_max
        gen = _iter_rows(degree_set, j_max)
        self._rows = [next(gen) for _ in range(n_max + 1)]

    def value(self, i: int, j: int) -> int:
        """T[i][j]; zero for j < 0, so shifted lookups need no guards."""
        if j < 0:
            return 0
        return self._rows[i][j]

    def row(self, i: int):
        return tuple(self._rows[i])


def build_table(degree_set: DegreeSet, n_max: int, j_max: int) -> CoefficientTable:
    """Build the full table of T[i][j] = j! * [x^j] Set(x)^i."""
    return CoefficientTable(degree_set, n_max, j_max)


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"{den} does not divide {num}: not an exact count")
    return q


def _parity_coefficient(odd: bool, n: int, j: int) -> int:
    # cosh^n, sinh^n = 2^-n sum_k (+-1)^k C(n,k) e^((n-2k)x).  On the support
    # (j = n*odd mod 2, and j >= n for odd) terms k and n-k are equal, so
    # half the sum is taken twice.
    low = n if odd else 0
    if j < low or (j - low) % 2:
        return 0
    comb = math.comb
    total = 0
    for k in range(n // 2 + 1):
        term = comb(n, k) * (n - 2 * k) ** j
        if 2 * k < n:
            term *= 2
        total += -term if odd and k % 2 else term
    return _exact_div(total, 1 << n)


def _surjections(n: int, j: int) -> int:
    # (e^x - 1)^n = sum_i (-1)^i C(n,i) e^((n-i)x)
    if j < n:
        return 0
    comb = math.comb
    total = 0
    for i in range(n + 1):
        term = comb(n, i) * (n - i) ** j
        total += -term if i % 2 else term
    return total


def _miller_coefficient(degree_set: DegreeSet, n: int, j: int) -> int:
    # With r = min D, p = periodicity and T_K = K! [x^K] Set^n, comparing
    # x^(K+r-1) in Set * (Set^n)' = n Set' * Set^n gives
    #   (K - nr) C(K+r, r) T_K = sum_{d > r} ((n+1)d - K - r) C(K+r, d) T_(K+r-d),
    # where only K = nr + p*e can be nonzero.
    members = degree_set.members
    r = members[0]
    base = n * r
    if j < base or j > n * members[-1]:
        return 0
    fact = math.factorial
    t0 = _exact_div(fact(base), fact(r) ** n)
    p = degree_set.periodicity
    if p is INFINITE:           # one member: the range test forced j = n*r
        return t0
    steps, rem = divmod(j - base, p)
    if rem:
        return 0
    backs = [((d - r) // p, d) for d in members[1:]]
    window = deque([t0], maxlen=backs[-1][0])  # T at e-1, e-2, ... from the right
    comb = math.comb
    n1 = n + 1
    for e in range(1, steps + 1):
        k = base + p * e
        s = 0
        for back, d in backs:
            if back > e:
                break
            s += (n1 * d - k - r) * comb(k + r, d) * window[-back]
        window.append(_exact_div(s, p * e * comb(k + r, r)))
    return window[-1]


def _min_band(delta: int, n: int, j: int) -> int:
    # The _rows_min recurrence in excess coordinates, divided through by i!
    # (T[i][j] is i! times an associated Stirling number), which keeps the
    # entries about log2(n!) bits shorter.  With S_i[e] = T[i][delta*i + e] / i!:
    #   S_i[e] = i * S_i[e-1] + C(delta*i + e - 1, delta - 1) * S_(i-1)[e].
    # Excess never falls along it, so the band e <= j - delta*n is closed.
    width = j - delta * n
    if width < 0:
        return 0
    comb = math.comb
    dm1 = delta - 1
    row = [1] + [0] * width
    for i in range(1, n + 1):
        col = delta * i - 1
        t = 0
        for e in range(width + 1):
            t = i * t + comb(col + e, dm1) * row[e]
            row[e] = t
    return math.factorial(n) * row[width]


def power_coefficient(degree_set: DegreeSet, n: int, j: int) -> int:
    """T[n][j] = j! [x^j] Set(x)^n alone, by the cheapest exact route.

    Costs, counted in big-integer operations on numbers of about j log n bits:

    * min=0: n^j, one power;
    * min=1: the surjection sum, n + 1 powers;
    * even, odd: the exponential expansion of cosh^n or sinh^n, n/2 + 1
      powers and one division by 2^n;
    * finite D: Miller's recurrence, |D| operations for each of the
      (j - n*min D)/periodicity steps, whatever n is;
    * min=delta >= 2: the banded row recurrence, (n+1)(j - delta*n + 1) cells.

    Memory is a few entries, or one band row of j - delta*n + 1 entries.
    Every division is checked and raises ArithmeticError on a remainder.
    """
    if n < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    kind = degree_set.kind
    if kind == "finite":
        return _miller_coefficient(degree_set, n, j)
    if kind == "min":
        if degree_set.delta == 0:
            return n ** j
        if degree_set.delta == 1:
            return _surjections(n, j)
        return _min_band(degree_set.delta, n, j)
    return _parity_coefficient(kind == "odd", n, j)


def infeasibility_reason(degree_set: DegreeSet, n: int, m: int) -> str | None:
    """Why no multigraph on n vertices and m edges can fit, or None.

    These are the necessary emptiness conditions: total degree out of range,
    or the degree-set periodicity not dividing the excess total degree.  A
    singleton set {d} is covered by the range checks, which then force
    2m = n*d exactly.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if n == 0:
        return None if m == 0 else "no vertices to carry the edges"
    total = 2 * m
    r = degree_set.valuation
    if total < r * n:
        return f"total degree {total} is below n*min(D) = {r * n}"
    mx = degree_set.max_degree
    if mx is not INFINITE and total > n * mx:
        return f"total degree {total} exceeds n*max(D) = {n * mx}"
    p = degree_set.periodicity
    if p is not INFINITE and p > 0 and (total - r * n) % p != 0:
        return (f"periodicity {p} does not divide 2m - n*min(D) = "
                f"{total - r * n}")
    return None


def no_sequence_reason(degree_set: DegreeSet, n: int, m: int) -> str:
    """Why an instance that passes infeasibility_reason still has weight 0."""
    return f"no degree sequence from {degree_set} on {n} vertices sums to {2 * m}"


def multigraph_weight(degree_set: DegreeSet, n: int, m: int,
                      table: CoefficientTable | None = None) -> Fraction:
    """Total orderings-compensated weight of multigraphs on n labelled
    vertices with m edges and every degree in the set.

    Equals T[n][2m] / (2^m m!), an exact rational.  Zero when no such
    multigraph exists.  A singleton set {d} short-circuits to the closed
    form (2m)! / (2^m m! d!^n).
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if degree_set.size == 1:
        d = degree_set.members[0]
        if 2 * m != n * d:
            return Fraction(0)
        return Fraction(math.factorial(2 * m),
                        (1 << m) * math.factorial(m) * math.factorial(d) ** n)
    if infeasibility_reason(degree_set, n, m) is not None:
        return Fraction(0)
    if table is not None and table.degree_set != degree_set:
        raise ValueError(f"table is for degree set {table.degree_set}, "
                         f"not {degree_set}")
    if table is not None and table.n_max >= n and table.j_max >= 2 * m:
        t = table.value(n, 2 * m)
    else:
        t = power_coefficient(degree_set, n, 2 * m)
    return Fraction(t, (1 << m) * math.factorial(m))


def mixed_table_coefficient(shifted_table: CoefficientTable,
                            base_table: CoefficientTable,
                            a: int, b: int, j: int) -> int:
    """j! * [x^j] ( Shifted(x)^a * Set(x)^b ) from rows a and b of two tables.

    The binomial convolution of the two rows, read in place.
    """
    row_a = shifted_table._rows[a]
    row_b = base_table._rows[b]
    comb = math.comb
    total = 0
    for k in range(j + 1):
        wa = row_a[k]
        if not wa:
            continue
        wb = row_b[j - k]
        if wb:
            total += comb(j, k) * wa * wb
    return total


def mixed_power_coefficient(degree_set: DegreeSet, a: int, b: int, j: int) -> int:
    """j! * [x^j] ( Set_{D-2}(x)^a * Set_D(x)^b ), exact.

    Computed as the binomial convolution of the tables of the twice-shifted
    and the original set.  Raises DegenerateShiftError if the shift empties
    the set.
    """
    if a < 0 or b < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    return mixed_table_coefficient(build_table(degree_set.shift(2), a, j),
                                   build_table(degree_set, b, j), a, b, j)
