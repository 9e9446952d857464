"""Exact generating-function counts of multigraphs with marked defects.

A marking distinguishes a collection of single loops and double edges whose
vertices are pairwise disjoint.  Summing the compensated weights with u
tracking marked double edges and v tracking marked loops gives a bivariate
polynomial; evaluating it at (-1, -1) performs the inclusion-exclusion that
recovers (up to a vanishing correction) the number of simple graphs.

The value is one sum over the number a of marked vertices,

    2^m m! W(u, v) = sum_(a <= min(n, m)) C(n, a) m!/(m-a)! H_a(u, v) M_a,

with M_a = (2m-2a)! [x^(2m-2a)] Set_(D-2)(x)^a Set_D(x)^(n-a) and
H_a = a! [z^a] e^(vz + uz^2), so H_0 = 1, H_1 = v and
H_(a+1) = v H_a + 2a u H_(a-1).  M_a reads rows a of D-2 and n-a of D on
[0, 2m-2a] only, from :func:`band_rows`: the memory is the D-2 triangle,
rows a <= min(n, m), plus three streamed D rows.  An independent series
form, kept in the test suite's oracle module, agrees with it exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .degree_sets import DegreeSet
from .tables import (_binomial_convolution, band_rows, infeasibility_reason,
                     multigraph_weight_and_reason)


def marked_multigraph_weight(degree_set: DegreeSet, n: int, m: int,
                             u, v) -> Fraction:
    """Weight polynomial of marked multigraphs, evaluated at (u, v).

    Marking k double edges and l loops takes a = 2k + l vertices: pick
    them, pair up and orient the double edges, order the loops, choose
    their slots among the m edges, and fill the other 2m - 2a half-edges
    with the marked vertices demoted to D-2.  That is n! m! / ((n-a)!
    (m-a)! k! l!) ways, so the pairs with one a sum to the term a of the
    module's one sum.  With u = p/q and v = r/s, G_a = q^(cap//2) s^cap H_a
    is an integer for a <= cap = min(n, m); a term u^k v^l of H_a has
    l <= a and 2k <= a, so G_(a+1) = r (G_a / s) + 2a p (G_(a-1) / q)
    divides exactly.  C(n, a) m!/(m-a)! steps by (n-a+1)(m-a+1)/a, and the
    sum over integers makes one Fraction at the end.

    At (0, 0) this is exactly the total multigraph weight, and so it is at
    every (u, v) when D-2 is empty (a subset of {0, 1}): nothing can be
    marked, and no row is computed.  Every marked multigraph has all its
    degrees in the set, so when :func:`infeasibility_reason` gives a reason
    the value is 0 and no row is computed either.
    """
    return marked_weight_and_reason(degree_set, n, m, u, v)[0]


def marked_weight_and_reason(degree_set: DegreeSet, n: int, m: int,
                             u, v) -> tuple[Fraction, str | None]:
    """(:func:`marked_multigraph_weight`, the reason the instance is empty,
    or None).

    The one routine behind the marked weight; it runs the feasibility test
    once.  A feasible instance can also give 0, with reason None.
    """
    u, v = Fraction(u), Fraction(v)
    if degree_set.max_degree < 2:
        return multigraph_weight_and_reason(degree_set, n, m)
    reason = infeasibility_reason(degree_set, n, m)
    if reason is not None:
        return Fraction(0), reason
    # at most min(n, m) disjoint structures fit; D rows below n-cap are unread
    cap = min(n, m)
    heads = [(0, 2 * m - 2 * a) for a in range(cap + 1)]
    shifted = list(band_rows(degree_set.shift(2), heads))
    rows = band_rows(degree_set, [(1, 0)] * (n - cap) + heads[::-1])
    mixed = [0] * (cap + 1)
    for a, row in zip(range(n, -1, -1), rows):
        if a <= cap:
            mixed[a] = _binomial_convolution(shifted[a], row, 2 * m - 2 * a)
    (p, q), (r, s) = u.as_integer_ratio(), v.as_integer_ratio()
    scale = q ** (cap // 2) * s ** cap
    before, g = 0, scale            # G_(a-1), G_a
    c = 1                           # C(n, a) m!/(m-a)!
    total = 0
    for a in range(cap + 1):
        if a:
            before, g = g, r * (g // s) + 2 * (a - 1) * p * (before // q)
            c = c * (n - a + 1) * (m - a + 1) // a
        total += c * g * mixed[a]
    return Fraction(total, scale * (1 << m) * math.factorial(m)), None
