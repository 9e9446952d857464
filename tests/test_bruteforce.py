import math
from fractions import Fraction

import pytest

from degcount import DegreeSet, Multigraph, multigraph_weight

from conftest import FAMILY, FAMILY_IDS
from oracle import (DEFAULT_LIMIT, EnumerationLimit, EnumerationLimitExceeded,
                    GraphClass, count_orderings, count_simple_graphs,
                    iter_multigraphs, marked_weight_brute,
                    multigraph_weight_brute)


class TestCountSimpleGraphs:
    def test_unconstrained_is_binomial(self):
        ds = DegreeSet.min_degree(0)
        for n in (3, 4, 5):
            for m in (0, 2, 4):
                assert count_simple_graphs(ds, n, m) == math.comb(
                    n * (n - 1) // 2, m)

    def test_triangle_is_unique_two_regular(self):
        assert count_simple_graphs(DegreeSet.finite([2]), 3, 3) == 1

    def test_no_even_graph_on_three_vertices_two_edges(self):
        assert count_simple_graphs(DegreeSet.even(), 3, 2) == 0

    def test_limit_enforced(self):
        tiny = EnumerationLimit(max_vertices=20, max_candidate_sets=10)
        with pytest.raises(EnumerationLimitExceeded):
            count_simple_graphs(DegreeSet.even(), 6, 7, limit=tiny)


class TestMultigraphEnumeration:
    def test_counts_all_multigraphs(self):
        # n = 2, m = 2: multisets of size 2 over 3 slots
        assert sum(1 for _ in iter_multigraphs(2, 2)) == 6

    def test_weight_unconstrained(self):
        assert multigraph_weight_brute(DegreeSet.min_degree(0), 2, 1) == 2

    def test_single_loop_weight(self):
        assert multigraph_weight_brute(DegreeSet.finite([2]), 1, 1) == Fraction(1, 2)

    def test_total_weight_closed_form(self):
        # sum of compensation factors over all of MG_{n,m} is n^{2m}/(2^m m!)
        for n in (1, 2, 3):
            for m in (0, 1, 2, 3):
                total = multigraph_weight_brute(DegreeSet.min_degree(0), n, m)
                assert total == Fraction(n ** (2 * m),
                                         2 ** m * math.factorial(m))

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_matches_table_counts(self, ds):
        for n in (1, 2, 3):
            for m in (0, 1, 2, 3):
                assert multigraph_weight_brute(ds, n, m) == \
                    multigraph_weight(ds, n, m)


class TestOrderings:
    def test_paper_style_example(self):
        assert count_orderings(Multigraph(2, [(1, 1), (1, 2), (1, 2)])) == 12

    def test_simple_graphs(self):
        g = Multigraph(4, [(1, 2), (3, 4), (1, 3)])
        assert count_orderings(g) == 2 ** 3 * math.factorial(3)

    def test_triple_edge(self):
        assert count_orderings(Multigraph(2, [(1, 2)] * 3)) == 8

    def test_limit(self):
        g = Multigraph(8, [(1, 2), (3, 4), (5, 6), (7, 8)] * 3)
        with pytest.raises(EnumerationLimitExceeded):
            count_orderings(g, limit=EnumerationLimit(max_candidate_sets=100))


class TestMarkedBrute:
    def test_origin_reduces_to_total_weight(self):
        for ds in FAMILY:
            for n in (1, 2, 3):
                for m in (0, 1, 2):
                    assert (marked_weight_brute(ds, n, m, 0, 0)
                            == multigraph_weight_brute(ds, n, m))

    def test_single_loop_polynomial(self):
        # one loop: unmarked or marked, each weight 1/2
        ds = DegreeSet.finite([2])
        assert marked_weight_brute(ds, 1, 1, 0, 0) == Fraction(1, 2)
        assert marked_weight_brute(ds, 1, 1, 0, 1) == 1
        assert marked_weight_brute(ds, 1, 1, 0, -1) == 0

    def test_marked_compensation_convention(self):
        # marking two of three parallel edges carries weight 1/(1! * 2!) = 1/2;
        # subtracting the unmarked total isolates that single marking
        ds = DegreeSet.finite([3])
        with_marks = marked_weight_brute(ds, 2, 3, 1, 0)
        without = marked_weight_brute(ds, 2, 3, 0, 0)
        assert with_marks - without == Fraction(1, 2)

    def test_marked_compensation_closed_form(self):
        from oracle import _marked_compensation
        triple = Multigraph(2, [(1, 2)] * 3)
        assert _marked_compensation(triple, {(1, 2): 2}) == Fraction(1, 2)
        assert _marked_compensation(triple, {}) == Fraction(1, 6)
        loop = Multigraph(1, [(1, 1)])
        assert _marked_compensation(loop, {(1, 1): 1}) == Fraction(1, 2)

    def test_marked_compensation_matches_tagged_orderings(self):
        # authority check: enumerate sequences of oriented edges carrying a
        # mark bit and compare the closed form against orderings/(2^m m!)
        from itertools import permutations

        from oracle import _marked_compensation

        def tagged_orderings(normal, marked):
            tagged = ([(u, v, 0) for u, v in normal]
                      + [(u, v, 1) for u, v in marked])
            m = len(tagged)
            seen = set()
            for perm in permutations(tagged):
                for mask in range(1 << m):
                    seq = tuple(
                        (v, u, t) if (mask >> i) & 1 else (u, v, t)
                        for i, (u, v, t) in enumerate(perm))
                    seen.add(seq)
            return len(seen)

        cases = [
            # (all occurrences, marked sub-multiset)
            ([(1, 2)] * 3, [(1, 2)] * 2),
            ([(1, 2)] * 3, []),
            ([(1, 1), (1, 2), (1, 2)], [(1, 2)] * 2),
            ([(1, 1), (2, 3)], [(1, 1)]),
            ([(1, 1), (1, 1)], [(1, 1)]),
            ([(1, 2), (1, 2), (3, 3)], [(3, 3)]),
        ]
        for occurrences, marked_list in cases:
            n = max(max(e) for e in occurrences)
            graph = Multigraph(n, occurrences)
            marked = {}
            for u, v in marked_list:
                key = (u, v) if u <= v else (v, u)
                marked[key] = marked.get(key, 0) + 1
            normal = list(occurrences)
            for u, v in marked_list:
                normal.remove((u, v))
            m = len(occurrences)
            expected = Fraction(tagged_orderings(normal, marked_list),
                                2 ** m * math.factorial(m))
            assert _marked_compensation(graph, marked) == expected

    def test_inclusion_exclusion_identity(self):
        # tame multigraphs at (-1,-1) count the simple graphs exactly
        for ds in FAMILY:
            for n in (1, 2, 3, 4):
                for m in (0, 1, 2, 3):
                    star_only = marked_weight_brute(
                        ds, n, m, -1, -1,
                        classes={GraphClass.SIMPLE, GraphClass.STAR})
                    assert star_only == count_simple_graphs(ds, n, m)

    def test_decomposition_identity(self):
        # total at (-1,-1) minus the dense class equals the simple count
        for ds in FAMILY:
            for n in (1, 2, 3):
                for m in (0, 1, 2, 3):
                    full = marked_weight_brute(ds, n, m, -1, -1)
                    dense = marked_weight_brute(ds, n, m, -1, -1,
                                                classes={GraphClass.NONSTAR})
                    assert full - dense == count_simple_graphs(ds, n, m)
