"""Exact generating-function counts of multigraphs with marked defects.

A marking distinguishes a collection of single loops and double edges whose
vertices are pairwise disjoint.  Summing the compensated weights with u
tracking marked double edges and v tracking marked loops gives a bivariate
polynomial; evaluating it at (-1, -1) performs the inclusion-exclusion that
recovers (up to a vanishing correction) the number of simple graphs.

Two independent evaluation routes are provided.  The constructive sum walks
the bijective decomposition (choose marked vertices, wire the marked
structures, fill the rest from shifted degree sets).  The series form sums
the falling-factorial correction factors against powers of the loop-intensity
series.  They agree term by term; the tests hold them to exact equality.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .degree_sets import DegreeSet
from .tables import build_table, infeasibility_reason, mixed_table_coefficient


def _falling(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= n - t
    return out


def disjointness_factor(n: int, m: int, j: int) -> Fraction:
    """Correction for placing j vertex-disjoint marked structures.

    n!/((n-j)! n^j) * m!/((m-j)! m^j) * (2m-2j)! (2m)^(2j) / (2m)!,
    which is 1 at j = 0, tends to 1 for fixed j as n, m grow, and is 0 as
    soon as j exceeds min(n, m).
    """
    if n < 0 or m < 0 or j < 0:
        raise ValueError("arguments must be nonnegative")
    if j == 0:
        return Fraction(1)
    if j > min(n, m):
        return Fraction(0)
    num = _falling(n, j) * _falling(m, j) * (2 * m) ** (2 * j)
    den = n ** j * m ** j * _falling(2 * m, 2 * j)
    return Fraction(num, den)


def _term_tables(degree_set: DegreeSet, n: int, m: int):
    """(cap, D-2 table, D table), cap bounding the marked structures.

    An empty D-2 (max(D) below 2) admits no marked loop or double edge, so
    cap is 0; only row 0 of the D-2 table, the constant 1, is then read, and
    the D table's row 0 is that same row.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    base = build_table(degree_set, n, 2 * m)
    if degree_set.max_degree < 2:
        return 0, base, base
    cap = min(n, m)
    return cap, build_table(degree_set.shift(2), cap, 2 * m), base


def marked_multigraph_weight(degree_set: DegreeSet, n: int, m: int,
                             u, v) -> Fraction:
    """Weight polynomial of marked multigraphs, evaluated at (u, v).

    Constructive route.  The (k, l) term marks k double edges and l loops:
    pick the 2k + l vertices, pair up and orient the marked structures,
    choose their slots among the m edges, then fill the remaining
    2m - 4k - 2l half-edges with the marked vertices demoted to the
    twice-shifted degree set.  At (0, 0) this is exactly the total
    multigraph weight.  Every marked multigraph has all its degrees in the
    set, so when :func:`infeasibility_reason` gives a reason the value is 0
    and no table is built.
    """
    u = Fraction(u)
    v = Fraction(v)
    if infeasibility_reason(degree_set, n, m) is not None:
        return Fraction(0)
    cap, shifted_table, base_table = _term_tables(degree_set, n, m)
    comb = math.comb
    fact = math.factorial
    total = Fraction(0)
    for k in range(cap // 2 + 1):
        uk = u ** k
        for ell in range(cap - 2 * k + 1):
            a = 2 * k + ell
            b = n - a
            j = 2 * m - 4 * k - 2 * ell
            mixed = mixed_table_coefficient(shifted_table, base_table, a, b, j)
            if not mixed:
                continue
            ways = (comb(n, 2 * k) * comb(n - 2 * k, ell)          # marked labels
                    * fact(2 * k) // ((1 << k) * fact(k))          # pair them up
                    * fact(2 * k) * 4 ** k // (1 << k)             # order and orient
                    * fact(ell)                                    # order the loops
                    * comb(m, 2 * k) * comb(m - 2 * k, ell))       # slots among edges
            total += Fraction(ways * mixed) * uk * v ** ell
    return total / ((1 << m) * fact(m))


def marked_multigraph_weight_series(degree_set: DegreeSet, n: int, m: int,
                                    u, v) -> Fraction:
    """Same value via the falling-factorial series form.

    Sums disjointness_factor(n, m, 2k + l) against the expanded powers of
    the loop-intensity series; each power collapses to one mixed coefficient
    because the series is (n/4m) x^2 Set_{D-2}(x) / Set_D(x) times Set_D^n.
    Zero, with no table built, on an instance with no degree sequence.
    """
    u = Fraction(u)
    v = Fraction(v)
    if infeasibility_reason(degree_set, n, m) is not None:
        return Fraction(0)
    cap, shifted_table, base_table = _term_tables(degree_set, n, m)
    fact = math.factorial
    prefactor = Fraction(fact(2 * m), (1 << m) * fact(m))
    total = Fraction(0)
    for k in range(cap // 2 + 1):
        uk = u ** k
        for ell in range(cap - 2 * k + 1):
            j = 2 * k + ell
            a = disjointness_factor(n, m, j)
            if a == 0:
                continue
            deg = 2 * m - 2 * j
            mixed = mixed_table_coefficient(shifted_table, base_table, j, n - j, deg)
            if not mixed:
                continue
            w_factor = Fraction(n, 4 * m) ** j if j else Fraction(1)
            total += (a * uk * v ** ell / (fact(k) * fact(ell))
                      * w_factor * Fraction(mixed, fact(deg)))
    return prefactor * total
