"""Reference computations that pin down the formula-based code in tests.

Most of this recomputes, by direct exhaustion at tiny scale, quantities the
rest of the package obtains through generating functions: simple-graph
counts, total compensated multigraph weights, ordering counts and
marked-multigraph sums.  Clarity beats speed throughout; hard guards refuse
instances whose enumeration would blow past roughly 1e8 primitive steps.
The marked sums also get two exact routes that read whole coefficient
tables, the sum over marked vertices and the falling-factorial series form,
which the tests hold equal to the package's streamed sum.  This module is
part of the test suite, not of the installed package.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, permutations

from degcount import (DegreeSet, Multigraph, build_table, infeasibility_reason,
                      multigraph_weight)


@dataclass(frozen=True)
class EnumerationLimit:
    max_vertices: int = 10
    max_edges: int = 10
    max_candidate_sets: int = 5_000_000


DEFAULT_LIMIT = EnumerationLimit()


class EnumerationLimitExceeded(ValueError):
    """The requested instance is too large for exhaustive enumeration."""


class GraphClass(enum.Enum):
    """SIMPLE: no loop or repeated edge.  STAR: every non-simple edge is a
    single loop or a double edge, and no vertex touches two of them.
    NONSTAR: the rest (a double loop, a triple edge, a loop meeting a double
    edge, or two double edges sharing a vertex)."""

    SIMPLE = "simple"
    STAR = "star"
    NONSTAR = "nonstar"


def classify(graph: Multigraph) -> GraphClass:
    """Place the multigraph in the SIMPLE / STAR / NONSTAR partition."""
    if graph.is_simple():
        return GraphClass.SIMPLE
    loops, double_count = [], [0] * (graph.n + 1)
    for (a, b), c in graph.edge_items():
        if c >= (2 if a == b else 3):
            return GraphClass.NONSTAR
        if a == b:
            loops.append(a)
        elif c == 2:
            double_count[a] += 1
            double_count[b] += 1
    if max(double_count) >= 2 or any(double_count[v] for v in loops):
        return GraphClass.NONSTAR
    return GraphClass.STAR


def compensation_factor(graph: Multigraph) -> Fraction:
    """Weight of the multigraph under the random half-edge pairing: 1 over
    the product of 2^mult * mult! over distinct loops and of mult! over
    distinct non-loop edges, so 1 exactly for a simple graph."""
    return _marked_compensation(graph, {})


def multiplicity(graph: Multigraph, u: int, v: int) -> int:
    return dict(graph.edge_items()).get((min(u, v), max(u, v)), 0)


def edge_occurrences(graph: Multigraph) -> list[tuple[int, int]]:
    """Every edge occurrence as a sorted pair, repeats included, in order."""
    return [pair for pair, c in graph.edge_items() for _ in range(c)]


def _allowed_table(degree_set: DegreeSet, max_deg: int) -> list[bool]:
    return [d in degree_set for d in range(max_deg + 1)]


def count_simple_graphs(degree_set: DegreeSet, n: int, m: int,
                        limit: EnumerationLimit = DEFAULT_LIMIT) -> int:
    """Number of simple graphs on n labelled vertices with m edges and all
    degrees in the set, by iterating every m-subset of the possible edges."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if n > limit.max_vertices:
        raise EnumerationLimitExceeded(f"n = {n} exceeds {limit.max_vertices}")
    slots = n * (n - 1) // 2
    if m > slots:
        return 0
    if math.comb(slots, m) > limit.max_candidate_sets:
        raise EnumerationLimitExceeded(
            f"C({slots},{m}) candidate edge sets exceed the enumeration budget")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    allowed = _allowed_table(degree_set, max(n - 1, 0))
    count = 0
    deg = [0] * n
    for combo in combinations(pairs, m):
        for i in range(n):
            deg[i] = 0
        for u, v in combo:
            deg[u] += 1
            deg[v] += 1
        ok = True
        for i in range(n):
            if not allowed[deg[i]]:
                ok = False
                break
        if ok:
            count += 1
    return count


def iter_multigraphs(n: int, m: int,
                     limit: EnumerationLimit = DEFAULT_LIMIT):
    """Yield every multigraph on n labelled vertices with m edges, once each.

    Iterates multisets of the n(n+1)/2 loop-or-edge slots rather than raw
    half-edge sequences, which keeps the count polynomial at desk scale.
    """
    if n > limit.max_vertices or m > limit.max_edges:
        raise EnumerationLimitExceeded(
            f"multigraph enumeration capped at n <= {limit.max_vertices}, "
            f"m <= {limit.max_edges}")
    slots = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)]
    if m and math.comb(len(slots) + m - 1, m) > limit.max_candidate_sets:
        raise EnumerationLimitExceeded("too many edge multisets to enumerate")
    for combo in combinations_with_replacement(slots, m):
        yield Multigraph(n, combo)


def multigraph_weight_brute(degree_set: DegreeSet, n: int, m: int,
                            limit: EnumerationLimit = DEFAULT_LIMIT) -> Fraction:
    """Sum of compensation factors of every multigraph whose degrees fit."""
    allowed = _allowed_table(degree_set, 2 * m)
    total = Fraction(0)
    for graph in iter_multigraphs(n, m, limit):
        if all(allowed[d] for d in graph.degrees()):
            total += compensation_factor(graph)
    return total


def count_orderings(graph: Multigraph,
                    limit: EnumerationLimit = DEFAULT_LIMIT) -> int:
    """Number of sequences of oriented edges realising the edge multiset.

    Materialises every (permutation, orientation) variant and deduplicates,
    so the closed-form compensation factor can be checked against it.
    """
    m = graph.num_edges
    if math.factorial(m) * (1 << m) > limit.max_candidate_sets:
        raise EnumerationLimitExceeded(f"m = {m} is too many edges to order")
    occurrences = edge_occurrences(graph)
    seen = set()
    for perm in permutations(occurrences):
        for mask in range(1 << m):
            seq = tuple(
                (v, u) if (mask >> idx) & 1 else (u, v)
                for idx, (u, v) in enumerate(perm))
            seen.add(seq)
    return len(seen)


def contains_forbidden_configuration(graph: Multigraph) -> bool:
    """Search for any of the four dense-defect patterns.

    A repeated loop, a triple edge, a loop meeting a double edge, or two
    double edges sharing a vertex.  Independent of :func:`classify`, which
    checks the complementary membership conditions; the tests hold the two
    routes to exhaustive agreement.
    """
    n = graph.n
    mult = partial(multiplicity, graph)
    for v in range(1, n + 1):
        if mult(v, v) >= 2:
            return True
        for u in range(1, n + 1):
            if u == v:
                continue
            if mult(u, v) >= 3:
                return True
            if mult(v, v) >= 1 and mult(u, v) >= 2:
                return True
            for w in range(u + 1, n + 1):
                if w == v:
                    continue
                if mult(u, v) >= 2 and mult(v, w) >= 2:
                    return True
    return False


def _marking_structures(graph: Multigraph):
    loops, doubles = [], []
    for (a, b), c in graph.edge_items():
        if a == b:
            loops.append(((a, b), c))
        elif c >= 2:
            doubles.append(((a, b), c))
    return loops, doubles


def _marked_compensation(graph: Multigraph, marked: dict) -> Fraction:
    # 1 / (2^{loop occurrences} * prod mult-in-normal! * prod mult-in-marked!)
    denom = 1
    for (a, b), c in graph.edge_items():
        marked_copies = marked.get((a, b), 0)
        normal_copies = c - marked_copies
        if a == b:
            denom *= 1 << c
        denom *= math.factorial(normal_copies) * math.factorial(marked_copies)
    return Fraction(1, denom)


def marked_weight_brute(degree_set: DegreeSet, n: int, m: int, u, v,
                        classes=None,
                        limit: EnumerationLimit = DEFAULT_LIMIT) -> Fraction:
    """Evaluate the marked-multigraph weight polynomial by direct search.

    For every multigraph whose degrees fit (restricted to the given
    GraphClass values when `classes` is supplied), enumerates the valid
    markings: a marked loop takes one copy of a loop, a marked double edge
    takes two copies of a repeated edge, and all marked structures must be
    vertex-disjoint.  Accumulates marked-compensation * u^k * v^l with k the
    number of marked double edges and l the number of marked loops.
    """
    u = Fraction(u)
    v = Fraction(v)
    allowed = _allowed_table(degree_set, 2 * m)
    total = Fraction(0)
    for graph in iter_multigraphs(n, m, limit):
        if not all(allowed[d] for d in graph.degrees()):
            continue
        if classes is not None and classify(graph) not in classes:
            continue
        loops, doubles = _marking_structures(graph)
        structures = ([("loop", pair) for pair, _ in loops]
                      + [("double", pair) for pair, _ in doubles])
        for mask in range(1 << len(structures)):
            touched = set()
            marked = {}
            k = ell = 0
            ok = True
            for idx, (kind, (a, b)) in enumerate(structures):
                if not (mask >> idx) & 1:
                    continue
                verts = {a} if kind == "loop" else {a, b}
                if touched & verts:
                    ok = False
                    break
                touched |= verts
                if kind == "loop":
                    marked[(a, b)] = 1
                    ell += 1
                else:
                    marked[(a, b)] = 2
                    k += 1
            if not ok:
                continue
            total += (_marked_compensation(graph, marked)
                      * u ** k * v ** ell)
    return total


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
    num = math.perm(n, j) * math.perm(m, j) * (2 * m) ** (2 * j)
    den = n ** j * m ** j * math.perm(2 * m, 2 * j)
    return Fraction(num, den)


def table_mixed_coefficient(shifted_table, base_table, a: int, b: int,
                            j: int) -> int:
    """j! [x^j] Set_{D-2}^a Set_D^b: the binomial convolution of row a of
    the D-2 table with row b of the D table."""
    return sum(math.comb(j, k) * shifted_table.value(a, k)
               * base_table.value(b, j - k) for k in range(j + 1))


def marked_weight_tables(degree_set: DegreeSet, n: int, m: int,
                         u, v) -> Fraction:
    """The marked-multigraph weight by the sum over the number a of marked
    vertices, read from two whole tables: the full T_D up to row n and
    T_(D-2) up to row min(n, m), each to column 2m.

    The sum is 2^m m! W = sum_a C(n, a) m!/(m-a)! H_a M_a, with
    H_a = a! [z^a] e^(vz + uz^2) and M_a the mixed coefficient
    (2m-2a)! [x^(2m-2a)] Set_(D-2)^a Set_D^(n-a).  Zero, with no table
    built, on an instance with no degree sequence; the total weight when
    D-2 is empty.
    """
    u = Fraction(u)
    v = Fraction(v)
    if degree_set.max_degree < 2:
        return multigraph_weight(degree_set, n, m)
    if infeasibility_reason(degree_set, n, m) is not None:
        return Fraction(0)
    cap = min(n, m)
    base_table = build_table(degree_set, n, 2 * m)
    shifted_table = build_table(degree_set.shift(2), cap, 2 * m)
    hermite = [Fraction(1), v]          # H_a, by H_(a+1) = v H_a + 2a u H_(a-1)
    for a in range(1, cap):
        hermite.append(v * hermite[a] + 2 * a * u * hermite[a - 1])
    total = Fraction(0)
    for a in range(cap + 1):
        mixed = table_mixed_coefficient(shifted_table, base_table, a, n - a,
                                        2 * m - 2 * a)
        total += math.comb(n, a) * math.perm(m, a) * hermite[a] * mixed
    return total / ((1 << m) * math.factorial(m))


def marked_multigraph_weight_series(degree_set: DegreeSet, n: int, m: int,
                                    u, v) -> Fraction:
    """The marked-multigraph weight via the falling-factorial series form.

    Sums disjointness_factor(n, m, 2k + l) against the expanded powers of
    the loop-intensity series; each power collapses to one mixed coefficient
    because the series is (n/4m) x^2 Set_{D-2}(x) / Set_D(x) times Set_D^n.
    Zero, with no table built, on an instance with no degree sequence.
    """
    u = Fraction(u)
    v = Fraction(v)
    if infeasibility_reason(degree_set, n, m) is not None:
        return Fraction(0)
    # an empty D-2 marks nothing; row 0 of any table is the constant 1
    cap = min(n, m) if degree_set.max_degree >= 2 else 0
    base_table = build_table(degree_set, n, 2 * m)
    shifted_table = (build_table(degree_set.shift(2), cap, 2 * m) if cap
                     else base_table)
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
            mixed = table_mixed_coefficient(shifted_table, base_table, j,
                                            n - j, deg)
            if not mixed:
                continue
            w_factor = Fraction(n, 4 * m) ** j if j else Fraction(1)
            total += (a * uk * v ** ell / (fact(k) * fact(ell))
                      * w_factor * Fraction(mixed, fact(deg)))
    return prefactor * total
