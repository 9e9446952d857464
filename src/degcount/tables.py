"""Exact big-integer tables of scaled generating-function power coefficients.

The central object is the table T[i][j] = j! * [x^j] Set(x)^i, where Set is
the exponential generating function of a degree set.  Entry T[i][j] counts the
sequences of i disjoint labelled sets partitioning {1..j} with every block
size allowed, which is exactly the number of half-edge orderings of
multigraphs realised by i vertices carrying j half-edges.  All entries are
exact Python integers, and every division on the way is checked to leave no
remainder.

Rows come from one source, :func:`band_rows`, which streams row i as
the span T[i][lo..hi] its caller asks for and computes each row only on
the closure of those spans under the recurrence's reads
(:func:`row_spans`), holding two or three rows, as wide as the highest
span, at a time.  The marked sum asks for the head of each row, which it
joins by :func:`_binomial_convolution`; the exact sampler asks for a band
of each row only for even, whose recurrence subtracts, and keeps only
float logs of it (it computes the other families' bands in floats).
:func:`build_table` keeps whole rows as :class:`CoefficientTable`, which
no package code builds.  The recurrences fill a row in O(1) big-integer
operations per cell instead of the generic O(|D|) convolution, and skip
the cells they know are zero (outside [i*min D, i*max D] or off the
periodicity lattice):

* finite lists use the defining convolution over the members,
* minimum-degree sets use (e^x - head)' = (e^x - head) + x^(delta-1)/(delta-1)!,
* even sets use (cosh^i)'' = i^2 cosh^i - i(i-1) cosh^(i-2),
* odd sets use (sinh^i)'' = i^2 sinh^i + i(i-1) sinh^(i-2).

:func:`column_coefficients` gives the cells T[n][k] of a descending list of
k without a table, as the exact sampler's degree draw reads them, and is
the one place that picks a family's exact route; :func:`power_coefficient`,
behind :func:`multigraph_weight`, reads one cell of it and lists the
routes with their costs.

The generic convolution T[i][j] = sum_d C(j,d) T[i-1][j-d] remains the ground
truth; the test suite pins every fast path against it.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import islice

from .degree_sets import INFINITE, DegreeSet


def _rows_finite(members, step, j_max, need):
    # row i is zero off [i*min D, i*max D] and off the lattice
    # j = i*min D mod the periodicity step, so only those cells of its needed
    # span are summed; for the empty set every row past row 0 is zero
    low, high = (members[0], members[-1]) if members else (1, 0)
    row = [1] + [0] * j_max
    yield row
    comb = math.comb
    prev = row
    for i, (lo, hi) in enumerate(islice(need, 1, None), 1):
        new = [0] * (j_max + 1)
        first = i * low
        if lo > first:             # the first lattice cell at or above lo
            first += (lo - first + step - 1) // step * step
        for j in range(first, min(i * high, hi) + 1, step):
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


def _rows_min(delta, j_max, need):
    row = [1] + [0] * j_max
    yield row
    comb = math.comb
    prev = row
    for i, (_, hi) in enumerate(islice(need, 1, None), 1):
        new = [0] * (j_max + 1)
        if delta == 0:
            new[0] = 1
            for j in range(hi):
                new[j + 1] = i * new[j]
        else:
            # row i is zero below j = delta*i
            dm1 = delta - 1
            for j in range(delta * i - 1, hi):
                t = i * new[j]
                w = prev[j - dm1]
                if w:
                    t += i * comb(j, dm1) * w
                new[j + 1] = t
        yield new
        prev = new


def _rows_parity(odd, j_max, need):
    row0 = [1] + [0] * j_max
    yield row0
    if odd:
        row1 = [1 if j % 2 == 1 else 0 for j in range(j_max + 1)]
    else:
        row1 = [1 if j % 2 == 0 else 0 for j in range(j_max + 1)]
    yield row1
    back2, prev = row0, row1
    sign = 1 if odd else -1
    for i, (_, hi) in enumerate(islice(need, 2, None), 2):
        new = [0] * (j_max + 1)
        # sinh^i starts at x^i, so the odd rows are zero below j = i
        start = i - 2 if odd else 0
        if not odd:
            new[0] = 1
        ii, cross = i * i, sign * i * (i - 1)
        for j in range(start, hi - 1, 2):
            new[j + 2] = ii * new[j] + cross * back2[j]
        yield new
        back2, prev = prev, new


def _closure(spans, back: int, near: int, far: int) -> list:
    """The cells each row must compute so that every span is exact.

    Cell j of row i reads cells j - far .. j - near of row i - back, so
    a row's needed span grows by what the rows `back` below it read; an
    empty span (lo > hi) asks for nothing.  Lower ends below 0 are cut.
    """
    need = list(spans)
    for i in range(len(need) - 1, back - 1, -1):
        lo, hi = need[i]
        if lo > hi:
            continue
        lo, hi = max(lo - far, 0), hi - near
        if lo > hi:
            continue
        below_lo, below_hi = need[i - back]
        if below_lo <= below_hi:
            lo, hi = min(lo, below_lo), max(hi, below_hi)
        need[i - back] = (lo, hi)
    return need


def row_spans(degree_set: DegreeSet, spans) -> list:
    """The span of each row that the row recurrences compute so that every
    span of `spans` is exact: the closure of the spans under their reads
    (:func:`_closure`).  A minimum-degree or parity row runs from its first
    nonzero cell up to the span's hi, whatever its lo; a finite list's row
    only between the two ends.  :func:`band_rows` computes these spans in
    integers and the exact sampler's float memo in floats."""
    start, step = degree_set.start, degree_set.step
    if step == 1:
        # min=delta: cell j reads cell j - delta of the row below (none for
        # delta = 0) and the cells below it in its own row
        return list(spans) if start == 0 else _closure(spans, 1, start, start)
    if step == 2:
        return _closure(spans, 2, 2, 2)
    members = degree_set.members
    low, high = (members[0], members[-1]) if members else (0, 0)
    return _closure(spans, 1, low, high)


def band_rows(degree_set: DegreeSet, spans):
    """Rows 0, 1, ... of T, one per span: the list T[i][lo..hi] for the
    span (lo, hi) = spans[i], which must have lo >= 0 (lo > hi asks for no
    cell).

    The one integer row source of the tables, the marked sum and the exact
    sampler's even memo.  Its row recurrences fill a row in O(1)
    big-integer operations per cell instead of the generic O(|D|)
    convolution, skip the cells they know are zero (outside
    [i*min D, i*max D] or off the periodicity lattice), and compute each
    row only on :func:`row_spans`.  Two or three rows are alive at a time,
    each as wide as the highest span.
    """
    spans = list(spans)
    for lo, hi in spans:
        if lo < 0 and lo <= hi:
            raise ValueError(f"span ({lo}, {hi}) starts below 0")
    j_max = max((hi for lo, hi in spans if lo <= hi), default=0)
    start, step = degree_set.start, degree_set.step
    need = row_spans(degree_set, spans)
    if step == 1:
        rows = _rows_min(start, j_max, need)
    elif step == 2:
        rows = _rows_parity(start == 1, j_max, need)
    else:
        p = degree_set.periodicity     # INFINITE for one member: j = i*d
        rows = _rows_finite(degree_set.members, 1 if p is INFINITE else p,
                            j_max, need)
    for (lo, hi), row in zip(spans, rows):
        yield row[lo:hi + 1] if lo <= hi else []


class CoefficientTable:
    """Rows T[0..n_max][0..j_max] of one degree set, all held at once, made by
    :func:`build_table` for callers outside the package's exact paths (which
    stream theirs from :func:`band_rows`): rows[i] is the list T[i][0..j_max]."""

    def __init__(self, rows):
        self.rows = rows

    def value(self, i: int, j: int) -> int:
        """T[i][j]; zero for j < 0, so shifted lookups need no guards."""
        return self.rows[i][j] if j >= 0 else 0

    def row(self, i: int) -> tuple:
        return tuple(self.rows[i])


def build_table(degree_set: DegreeSet, n_max: int,
                j_max: int) -> CoefficientTable:
    """The full table of T[i][j] = j! * [x^j] Set(x)^i, i <= n_max,
    j <= j_max, streamed from :func:`band_rows`."""
    if n_max < 0 or j_max < 0:
        raise ValueError("table bounds must be nonnegative")
    return CoefficientTable(
        list(band_rows(degree_set, [(0, j_max)] * (n_max + 1))))


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"{den} does not divide {num}: not an exact count")
    return q


def _powers(limit: int, j: int):
    """x**j for x = 0, 1, ..., limit, in order, from about limit/log(limit)
    big powers.

    Only odd primes take a pow.  An even base is the half base's power
    shifted, (2y)^j = y^j << j, and an odd composite is a product of two
    smaller powers, p^j * (x/p)^j with p its least prime factor.  Powers
    above limit/2 are never factors, so only those up to it are kept.
    """
    keep = limit // 2
    kept = []
    least = [0] * (limit + 1)       # least prime factor of an odd composite
    for p in range(3, math.isqrt(limit) + 1, 2):
        if not least[p]:
            for q in range(p * p, limit + 1, 2 * p):
                if not least[q]:
                    least[q] = p
    for x in range(limit + 1):
        if x > 1 and not x % 2:
            w = kept[x >> 1] << j
        elif least[x]:
            w = kept[least[x]] * kept[x // least[x]]
        else:                       # 0, 1 and the odd primes
            w = x ** j
        if x <= keep:
            kept.append(w)
        yield w


def _parity_bases(n: int) -> range:
    # the bases of _parity_sum: the odd numbers up to an odd n, and for even
    # n the halves y of its even bases 2y, y = 0..n/2
    return range(1, n + 1, 2) if n % 2 else range(n // 2 + 1)


def _parity_powers(n: int, j: int):
    """b**j for the bases b of :func:`_parity_bases`, in order."""
    if n % 2:
        return islice(_powers(n, j), 1, None, 2)
    return _powers(n // 2, j)


def _parity_sum(odd: bool, n: int, j: int, powers) -> int:
    # cosh^n, sinh^n = 2^-n sum_k (+-1)^k C(n,k) e^((n-2k)x).  On the support
    # (j = n*odd mod 2, and j >= n for odd) terms k and n-k are equal, so
    # half the sum is taken twice.  The bases n - 2k share n's parity: for
    # odd n they are the odd numbers up to n, and for even n they are 2y
    # with y = n/2 - k, whose common factor 2^j is shifted in once at the end.
    # `powers` holds the powers of _parity_bases(n), b**j.
    half = n // 2
    c = math.comb(n, half)
    total = 0
    for k, w in zip(range(half, -1, -1), powers):
        term = c * w
        if 2 * k < n:
            term *= 2
        total += -term if odd and k % 2 else term
        c = c * k // (n - k + 1)        # C(n, k - 1), exactly
    return _exact_div(total << (0 if n % 2 else j), 1 << n)


def _surjection_sum(n: int, powers) -> int:
    # (e^x - 1)^n = sum_y (-1)^(n-y) C(n,y) e^(yx), from an iterator of y^j
    # for y = 0..n.  The bases y and n - y share C(n, y), so each base y
    # above n/2 is summed with n - y, whose power is among the first n/2 + 1
    # read, and their pair takes one product: C(n,y) (-1)^y (y^j + (n-y)^j)
    # for even n, C(n,y) (-1)^y ((n-y)^j - y^j) for odd n; even n leaves
    # y = n/2 alone.
    half, odd = divmod(n, 2)
    low = list(islice(powers, half + 1))    # y^j for y <= n/2
    c = math.comb(n, half)
    total = 0
    if not odd:
        total = -c * low[half] if half % 2 else c * low[half]
    for y, w in enumerate(powers, half + 1):
        c = c * (n - y + 1) // y            # C(n, y), exactly
        term = c * (low[n - y] - w if odd else low[n - y] + w)
        total += -term if y % 2 else term
    return total


def _miller_values(degree_set: DegreeSet, n: int, top: int):
    """(K, T[n][K]) for every K <= top that can hold a nonzero cell of a
    finite set, ascending, by J.C.P. Miller's power recurrence.

    With r = min D, p = periodicity and T_K = K! [x^K] Set^n, comparing
    x^(K+r-1) in Set * (Set^n)' = n Set' * Set^n gives
      (K - nr) C(K+r, r) T_K = sum_{d > r} ((n+1)d - K - r) C(K+r, d) T_(K+r-d),
    where only K = nr + p*e can be nonzero, up to n*max D.
    """
    members = degree_set.members
    if not members:             # the empty set: Set^n is 0, or 1 for n = 0
        if n == 0 <= top:
            yield 0, 1
        return
    r = members[0]
    base = n * r
    top = min(top, n * members[-1])
    if top < base:
        return
    fact = math.factorial
    t0 = _exact_div(fact(base), fact(r) ** n)
    yield base, t0
    p = degree_set.periodicity
    if p is INFINITE:           # one member: only K = n*r
        return
    backs = [((d - r) // p, d) for d in members[1:]]
    window = deque([t0], maxlen=backs[-1][0])  # T at e-1, e-2, ... from the right
    comb = math.comb
    n1 = n + 1
    for e in range(1, (top - base) // p + 1):
        k = base + p * e
        s = 0
        for back, d in backs:
            if back > e:
                break
            s += (n1 * d - k - r) * comb(k + r, d) * window[-back]
        window.append(_exact_div(s, p * e * comb(k + r, r)))
        yield k, window[-1]


def _product(values: list) -> int:
    """The product of small integers, multiplied pairwise in rounds so that
    big partial products meet others of their size."""
    while len(values) > 1:
        paired = [a * b for a, b in zip(values[::2], values[1::2])]
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0] if values else 1


def _band_row(row: list, i: int, delta: int, cells: int) -> None:
    # One row of the _rows_min recurrence in excess coordinates, divided
    # through by i! (T[i][j] is i! times an associated Stirling number), which
    # keeps the entries about log2(i!) bits shorter.  With
    # S_i[e] = T[i][delta*i + e] / i!, row[:cells] goes from S_(i-1) to S_i:
    #   S_i[e] = i * S_i[e-1] + C(delta*i + e - 1, delta - 1) * S_(i-1)[e].
    # Excess never falls along it, so both the band e <= w and the triangle
    # i + e <= w are closed.
    comb = math.comb
    dm1 = delta - 1
    col = delta * i - 1
    t = 0
    for e in range(cells):
        t = i * t + comb(col + e, dm1) * row[e]
        row[e] = t


def _binomial_convolution(row_a, row_b, j: int, low: int = 0) -> int:
    """The binomial convolution sum_e C(j, low + e) row_a[e] row_b[j-low-e]
    over e <= j - low and within row_a, C(j, k) stepped by
    C(j, k+1) = C(j, k)(j-k)/(k+1), which divides exactly."""
    c = math.comb(j, low)
    total = 0
    for k, wa in enumerate(islice(row_a, j - low + 1), low):
        if wa:
            wb = row_b[j - k]
            if wb:
                total += c * wa * wb
        c = c * (j - k) // (k + 1)
    return total


def _min_halves(delta: int, n: int, w: int) -> int:
    # The band e <= w up to row b = ceil(n/2), keeping row a = floor(n/2) on
    # the way, and Set^n = Set^a * Set^b joins the halves at j = delta*n + w:
    #   T[n][j] = a! b! sum_e C(j, delta*a + e) S_a[e] S_b[w - e],
    # with S_b shifted up by delta*b to its columns.
    a = n // 2
    b = n - a
    row = [1] + [0] * w
    half = row[:]
    for i in range(1, b + 1):
        _band_row(row, i, delta, w + 1)
        if i == a:
            half = row[:]
    total = _binomial_convolution(half, [0] * (delta * b) + row,
                                  delta * n + w, delta * a)
    return math.factorial(a) * math.factorial(b) * total


def _min_peel(delta: int, n: int, w: int) -> int:
    # Set_(>=delta) = x^delta/delta! + Set_(>=delta+1): choose the i vertices
    # of degree above delta, which carry J_i = delta*i + w half-edges, and
    #   T[n][j] = sum_(i <= top) n!/(n-i)! S_i[w - i] V_i,  top = min(n, w),
    # with S the excess rows of min=delta+1 (row i needs e <= w - i only) and
    # V_i = j! / (delta!^(n-i) J_i!), so V_n = 1 and V_(i-1) = V_i C(J_i, delta).
    # Horner upward, G_i = G_(i-1) C(J_i, delta) + n!/(n-i)! S_i[w - i], leaves
    # T[n][j] = G_top V_top, and V_top is the product of C(J_k, delta) over
    # k > top: no division at all.
    top = min(n, w)
    comb = math.comb
    row = [1] + [0] * w
    total = int(w == 0)
    falling = 1
    for i in range(1, top + 1):
        _band_row(row, i, delta + 1, w - i + 1)
        falling *= n - i + 1
        total = total * comb(delta * i + w, delta) + falling * row[w - i]
    return total * _product(
        [comb(delta * k + w, delta) for k in range(top + 1, n + 1)])


def _peel_is_cheaper(delta: int, n: int, w: int) -> bool:
    """Whether min=delta at excess w over n vertices takes _min_peel.

    The one routing rule: the cells of _band_row that each route fills,
    each weighted by the half-edges J its entry counts (an entry holds
    about J log J bits, and a cell multiplies it twice by a small number).
    The half sweep fills e <= w on rows i <= b = ceil(n/2) at J = delta*i
    + e; the peel fills e <= w - i on rows i <= t = min(n, w) at
    J = (delta+1)*i + e.  With W = w + 1 the two sums are
        halves = delta W b(b+1)/2 + b C(W, 2),
        peel = (delta+1)(W t(t+1)/2 - t(t+1)(2t+1)/6) + C(W, 3) - C(W-t, 3).
    They cross between w = 0.82n and 0.86n for delta from 2 to 10 and n
    from 40 to 2048.  Timed, the routes cross later as delta grows: at
    about w = 0.88-0.90n for delta = 2, 0.89-0.97n for delta = 3 (n = 512
    and 1024), 0.98n for delta = 5 and 1.03n for delta = 10 (n = 512), but
    near 0.83n for delta = 3 at n = 2048, so no single constant matches
    every point; BENCH_exact.json (min_delta_crossover) times both routes
    from w = 0.5n to 2n.
    """
    cols = w + 1
    b = (n + 1) // 2
    t = min(n, w)
    comb = math.comb
    halves = delta * cols * b * (b + 1) // 2 + b * comb(cols, 2)
    rows = cols * t * (t + 1) // 2 - t * (t + 1) * (2 * t + 1) // 6
    peel = (delta + 1) * rows + comb(cols, 3) - comb(cols - t, 3)
    return peel < halves


def _min_delta_cell(delta: int, n: int, j: int) -> int:
    # T[n][j] of min=delta >= 2 at excess w = j - delta*n, by the route
    # _peel_is_cheaper picks
    w = j - delta * n
    if w < 0:
        return 0
    if _peel_is_cheaper(delta, n, w):
        return _min_peel(delta, n, w)
    return _min_halves(delta, n, w)


def power_coefficient(degree_set: DegreeSet, n: int, j: int) -> int:
    """T[n][j] = j! [x^j] Set(x)^n alone, by the cheapest exact route.

    The one cell of a :func:`column_coefficients` read; a lone cell
    streams its powers.  The routes, with their costs counted in
    big-integer operations on numbers of about j log n bits:

    * min=0: n^j, one power;
    * min=1: the surjection sum sum_i (-1)^i C(n,i) (n-i)^j, n/2 + 1
      products with a binomial (the bases y and n - y share one), on
      powers that cost one pow per odd prime up to n and one shift or
      product per other base (:func:`_powers`);
    * even, odd: cosh^n and sinh^n expanded into exponentials,
      2^-n sum_k (+-1)^k C(n,k) (n-2k)^j, n/2 + 1 products on the powers
      of the odd bases up to n (odd n) or of the bases up to n/2 (even n),
      and one division by 2^n;
    * finite D: J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7)
      from Set * (Set^n)' = n Set' * Set^n, |D| operations for each of the
      (j - n*min D)/periodicity steps, whatever n is;
    * min=delta >= 2, at excess w = j - delta*n: the row recurrence in
      excess coordinates, on the cells whose excess over the row's least
      total is at most w.  Below about w = 0.83n the peel splits off the
      vertices of degree exactly delta, Set_(>=delta) = x^delta/delta! +
      Set_(>=delta+1), and reads one cell per row of min=delta+1 from the
      triangle i + e <= w: about w^2/2 cells whatever n is (exactly
      sum_(i <= min(n, w)) (w - i + 1)), min(n, w) Horner steps and one
      product of n - min(n, w) binomials C(., delta).  From there up the
      half sweep fills the band e <= w up to row ceil(n/2),
      ceil(n/2)(w + 1) cells, and joins rows floor(n/2) and ceil(n/2) by
      one convolution of w + 1 products.  :func:`_peel_is_cheaper`
      compares these cells weighted by entry size and is the only routing
      rule.

    Memory is a few entries, the powers up to n/2, two band rows of w + 1
    entries for the half sweep, or one row and the n - min(n, w) binomial
    factors for the peel.  A binomial stepped by
    C(j, k+1) = C(j, k)(j-k)/(k+1) divides exactly by that identity; every
    other division is checked and raises ArithmeticError on a remainder.
    """
    if n < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    return next(column_coefficients(degree_set, n, [j]))


def column_coefficients(degree_set: DegreeSet, n: int, ks):
    """T[n][k] for each k of the descending list ks, in that order: the
    cells a degree draw compares, T[n][j - d] for the members d up to j.

    The only code that picks a family's exact route; the routes and their
    costs are listed under :func:`power_coefficient`.  Lazy, so a caller
    that stops reading pays for the cells it read, and it keeps nothing
    between calls.  A finite list runs Miller's recurrence once, up to the
    largest k (:func:`_miller_values`); min=0 and min=delta >= 2 compute
    each cell on its own.  Min=1, even and odd share their powers b^k
    between the cells of a column: they take them once, at the first k
    that can be nonzero, and bring them down to each later k by exact
    division by b^gap.  A column of one cell streams its powers instead,
    so only the lower half of them is alive at once.
    """
    start, step = degree_set.start, degree_set.step
    if step == 0:
        found = dict.fromkeys(ks, 0)
        if found:
            for k, value in _miller_values(degree_set, n, max(found)):
                if k in found:
                    found[k] = value
        return (found[k] for k in ks)
    if step == 2:
        odd = start == 1
        return _power_sum_column(
            ks, n if odd else 0, 2, _parity_bases(n),
            lambda k: _parity_powers(n, k),
            lambda k, powers: _parity_sum(odd, n, k, powers))
    if start == 0:
        return (n ** k for k in ks)
    if start == 1:
        return _power_sum_column(
            ks, n, 1, range(n + 1), lambda k: _powers(n, k),
            lambda k, powers: _surjection_sum(n, iter(powers)))
    return (_min_delta_cell(start, n, k) for k in ks)


def _lower(powers, bases, gap: int, k: int) -> list:
    # b^(k + gap) to b^k for each base b, by exact division; 0^k is 0 or 1
    return [w // b ** gap if b else int(k == 0) for w, b in zip(powers, bases)]


def _power_sum_column(ks, low: int, period: int, bases, first, total):
    # The cells of column_coefficients for a sum over the powers b^k of
    # `bases`: zero below `low` and off its lattice of `period`, else
    # total(k, powers).  A lone cell streams its powers first(k); a longer
    # column lists them at its first such k and brings them down after.
    stream = len(ks) == 1
    powers = None
    for k in ks:
        if k < low or (k - low) % period:
            yield 0
        elif stream:
            yield total(k, first(k))
        else:
            powers = (list(first(k)) if powers is None
                      else _lower(powers, bases, last - k, k))
            last = k
            yield total(k, powers)


def _short_sum(steps, n: int, e: int) -> bool:
    """Whether e is a sum of at most n members of steps.

    steps are positive with gcd 1 and largest a.  Every e in the band
    (a-1)^2 <= e <= n*a - (a-1)^2 is such a sum: the steps below a reach each
    residue mod a with at most a-1 of them, summing to at most (a-1)^2, and
    copies of a pad that sum to e.  Nearer either end a fewest-parts search
    runs on a bitset of at most (a-1)^2 bits, level t holding the sums of at
    most t steps; the top end reflects every degree, s to a - s and e to
    n*a - e.  A fewest-parts sum uses at most a-1 steps below a, so the
    search stops within min(n, 2a) levels and costs O(|steps| a^3) bit
    operations.
    """
    a = steps[-1]
    deficit = n * a - e
    if min(e, deficit) >= (a - 1) ** 2:
        return True
    if deficit < e:
        steps = [a - s for s in steps[:-1]] + [a]
        e = deficit
    mask = (1 << (e + 1)) - 1
    reach = 1
    for _ in range(n):
        if reach >> e & 1:
            return True
        grown = reach
        for s in steps:
            grown |= reach << s
        grown &= mask
        if grown == reach:
            return False
        reach = grown
    return bool(reach >> e & 1)


def infeasibility_reason(degree_set: DegreeSet, n: int, m: int,
                         top: int | float = INFINITE) -> str | None:
    """Why no multigraph on n vertices and m edges can fit, or None.

    The test is exact: None if and only if some sequence of n degrees from
    the set sums to 2m, so T[n][2m] > 0.  It checks the total degree against
    n*min(D) and n*max(D) and the periodicity p against the excess
    2m - n*min(D).  Those decide every set but a finite one with two or more
    members; there degree r + p*s is step s from min(D) = r, and the excess
    over p must be a sum of at most n nonzero steps (:func:`_short_sum`).

    With `top`, the degrees are those of the set up to top (a simple graph
    on n vertices has none above n - 1).  A finite set is filtered.  An
    infinite family's members up to top run from min(D) in steps of p with
    none missing, so they are not listed: the largest of them stands in
    for max(D), and range and periodicity decide.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if n == 0:
        return None if m == 0 else "no vertices to carry the edges"
    total = 2 * m
    r = degree_set.valuation
    mx = degree_set.max_degree
    p = degree_set.periodicity
    capped = ""
    if mx > top:
        if top < r:
            return f"no degree in {degree_set} is at most {top}"
        if degree_set.members:
            degree_set = DegreeSet.finite(
                d for d in degree_set.members if d <= top)
            mx, p = degree_set.max_degree, degree_set.periodicity
        else:
            mx = top - (top - r) % p
            if mx == r:
                p = INFINITE
        capped = f" with degrees at most {top}"
    if total < r * n:
        return f"total degree {total} is below n*min(D) = {r * n}"
    if mx is not INFINITE and total > n * mx:
        return f"total degree {total} exceeds n*max(D) = {n * mx}{capped}"
    if p is INFINITE:           # one member: the range tests forced 2m = n*d
        return None
    excess = total - r * n
    if excess % p != 0:
        return (f"periodicity {p} does not divide 2m - n*min(D) = "
                f"{excess}{capped}")
    # an infinite family, capped or not, has every step from 1 up
    if degree_set.members and not _short_sum(
            [(d - r) // p for d in degree_set.members[1:]], n, excess // p):
        return (f"no degree sequence from {degree_set} on {n} vertices "
                f"sums to {total}")
    return None


def multigraph_weight(degree_set: DegreeSet, n: int, m: int) -> Fraction:
    """Total orderings-compensated weight of multigraphs on n labelled
    vertices with m edges and every degree in the set.

    Equals T[n][2m] / (2^m m!), an exact rational.  Zero exactly when
    :func:`infeasibility_reason` gives a reason; that test runs first because
    :func:`power_coefficient` can take far longer to reach the same 0.
    """
    return multigraph_weight_and_reason(degree_set, n, m)[0]


def multigraph_weight_and_reason(degree_set: DegreeSet, n: int,
                                 m: int) -> tuple[Fraction, str | None]:
    """(:func:`multigraph_weight`, the reason it is 0, or None).

    The one routine behind the weight: it runs the feasibility test once and
    hands its reason back with the zero, so a caller that reports the reason
    need not run the test again.
    """
    reason = infeasibility_reason(degree_set, n, m)
    if reason is not None:
        return Fraction(0), reason
    t = power_coefficient(degree_set, n, 2 * m)
    return Fraction(t, (1 << m) * math.factorial(m)), None
