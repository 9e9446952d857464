"""Exact generating-function counts of multigraphs with marked defects.

A marking distinguishes a collection of single loops and double edges whose
vertices are pairwise disjoint.  Summing the compensated weights with u
tracking marked double edges and v tracking marked loops gives a bivariate
polynomial; evaluating it at (-1, -1) performs the inclusion-exclusion that
recovers (up to a vanishing correction) the number of simple graphs.

The value is a constructive sum over the bijective decomposition: choose the
marked vertices, wire the marked structures, fill the rest from shifted
degree sets.  An independent series form, kept as a reference in the test
suite's oracle module, agrees with it exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .degree_sets import DegreeSet
from .tables import (build_table, infeasibility_reason, mixed_table_coefficient,
                     multigraph_weight_and_reason)


def marked_multigraph_weight(degree_set: DegreeSet, n: int, m: int,
                             u, v) -> Fraction:
    """Weight polynomial of marked multigraphs, evaluated at (u, v).

    Constructive route.  The (k, l) term marks k double edges and l loops:
    pick the 2k + l vertices, pair up and orient the marked structures,
    choose their slots among the m edges, then fill the remaining
    2m - 4k - 2l half-edges with the marked vertices demoted to the
    twice-shifted degree set.  At (0, 0) this is exactly the total
    multigraph weight, and so it is at every (u, v) when D-2 is empty (a
    subset of {0, 1}): nothing can be marked, and no table is built.  Every
    marked multigraph has all its degrees in the set, so when
    :func:`infeasibility_reason` gives a reason the value is 0 and no table
    is built either.
    """
    return marked_weight_and_reason(degree_set, n, m, u, v)[0]


def marked_weight_and_reason(degree_set: DegreeSet, n: int, m: int,
                             u, v) -> tuple[Fraction, str | None]:
    """(:func:`marked_multigraph_weight`, the reason the instance is empty,
    or None).

    The one routine behind the marked weight; it runs the feasibility test
    once.  A feasible instance can also give 0, with reason None.
    """
    u = Fraction(u)
    v = Fraction(v)
    if degree_set.max_degree < 2:
        return multigraph_weight_and_reason(degree_set, n, m)
    reason = infeasibility_reason(degree_set, n, m)
    if reason is not None:
        return Fraction(0), reason
    # at most min(n, m) disjoint structures fit; rows 0..cap of D-2 are read
    cap = min(n, m)
    base_table = build_table(degree_set, n, 2 * m)
    shifted_table = build_table(degree_set.shift(2), cap, 2 * m)
    comb = math.comb
    fact = math.factorial
    # u = p/q, v = r/s: u^k v^l = p^k q^(half-k) r^l s^(cap-l) / (q^half s^cap)
    # for every k <= half = cap // 2 and l <= cap, so the sum is over integers
    # and one Fraction is built at the end
    half = cap // 2
    p, q = u.numerator, u.denominator
    r, s = v.numerator, v.denominator
    u_pows = [p ** k * q ** (half - k) for k in range(half + 1)]
    v_pows = [r ** ell * s ** (cap - ell) for ell in range(cap + 1)]
    total = 0
    for a in range(cap + 1):
        # every (k, l) with 2k + l = a marked vertices fills the same
        # 2m - 2a half-edges, so it reads the same mixed coefficient
        mixed = mixed_table_coefficient(shifted_table, base_table,
                                        a, n - a, 2 * m - 2 * a)
        if not mixed:
            continue
        terms = 0
        for k in range(a // 2 + 1):
            ell = a - 2 * k
            ways = (comb(n, 2 * k) * comb(n - 2 * k, ell)          # marked labels
                    * fact(2 * k) // ((1 << k) * fact(k))          # pair them up
                    * fact(2 * k) * 4 ** k // (1 << k)             # order and orient
                    * fact(ell)                                    # order the loops
                    * comb(m, 2 * k) * comb(m - 2 * k, ell))       # slots among edges
            terms += ways * u_pows[k] * v_pows[ell]
        total += mixed * terms
    return Fraction(total, q ** half * s ** cap * (1 << m) * fact(m)), None
