from collections import Counter
from fractions import Fraction

import pytest

from degcount import GraphClass, Multigraph
from degcount.bruteforce import (contains_forbidden_configuration,
                                 count_orderings, iter_multigraphs)


class TestDegrees:
    def test_loop_counts_twice(self):
        g = Multigraph(1, [(1, 1)])
        assert g.degree(1) == 2

    def test_double_edge(self):
        g = Multigraph(2, [(1, 2), (1, 2)])
        assert g.degree(1) == 2
        assert g.degree(2) == 2

    def test_empty(self):
        g = Multigraph(3)
        assert g.degrees() == [0, 0, 0]

    def test_degree_sum_is_twice_edges(self):
        for g in iter_multigraphs(3, 3):
            assert sum(g.degrees()) == 2 * g.num_edges

    def test_vertex_range_checked(self):
        with pytest.raises(ValueError):
            Multigraph(2, [(1, 3)])
        with pytest.raises(ValueError):
            Multigraph(2, [(0, 1)])
        g = Multigraph(2, [(1, 2)])
        with pytest.raises(ValueError):
            g.degree(3)

    def test_vertex_range_names_first_bad_edge_as_given(self):
        with pytest.raises(ValueError,
                           match=r"^edge \(4,1\) outside vertex range 1\.\.3$"):
            Multigraph(3, [(1, 2), (4, 1), (0, 2)])
        with pytest.raises(ValueError, match=r"^edge \(2,0\) outside"):
            Multigraph(3, iter([(1, 2), (2, 0), (4, 1)]))


class TestCompensationFactor:
    def test_loop_plus_double_edge(self):
        g = Multigraph(2, [(1, 1), (1, 2), (1, 2)])
        assert g.compensation_factor() == Fraction(1, 4)
        assert count_orderings(g) == 12

    def test_triple_edge(self):
        g = Multigraph(2, [(1, 2), (1, 2), (1, 2)])
        assert g.compensation_factor() == Fraction(1, 6)
        assert count_orderings(g) == 8

    def test_simple_graph_is_one(self):
        g = Multigraph(3, [(1, 2), (2, 3)])
        assert g.compensation_factor() == 1
        assert count_orderings(g) == 2 ** 2 * 2

    def test_double_loop(self):
        g = Multigraph(1, [(1, 1), (1, 1)])
        assert g.compensation_factor() == Fraction(1, 8)

    def test_matches_orderings_enumeration_exhaustively(self):
        # closed form vs direct enumeration over every multigraph, n <= 3, m <= 4
        factor = {1: 2, 2: 8, 3: 48, 4: 384}  # 2^m m!
        for n in (1, 2, 3):
            for m in (1, 2, 3, 4):
                for g in iter_multigraphs(n, m):
                    assert (g.compensation_factor()
                            == Fraction(count_orderings(g), factor[m]))


class TestSimplicity:
    def test_simple(self):
        assert Multigraph(3, [(1, 2), (2, 3)]).is_simple()

    def test_loop_not_simple(self):
        assert not Multigraph(1, [(1, 1)]).is_simple()

    def test_double_edge_not_simple(self):
        assert not Multigraph(2, [(1, 2), (1, 2)]).is_simple()


class TestClassify:
    def test_double_loop_is_dense(self):
        assert Multigraph(1, [(1, 1), (1, 1)]).classify() is GraphClass.NONSTAR

    def test_disjoint_defects_are_tame(self):
        g = Multigraph(3, [(1, 2), (1, 2), (3, 3)])
        assert g.classify() is GraphClass.STAR

    def test_two_incident_double_edges(self):
        g = Multigraph(3, [(1, 2), (1, 2), (1, 3), (1, 3)])
        assert g.classify() is GraphClass.NONSTAR

    def test_triple_edge(self):
        assert (Multigraph(2, [(1, 2)] * 3).classify()
                is GraphClass.NONSTAR)

    def test_loop_meeting_double_edge(self):
        g = Multigraph(2, [(1, 1), (1, 2), (1, 2)])
        assert g.classify() is GraphClass.NONSTAR

    def test_simple_class(self):
        assert Multigraph(2, [(1, 2)]).classify() is GraphClass.SIMPLE

    def test_classes_partition(self):
        seen = set()
        for g in iter_multigraphs(3, 3):
            seen.add(g.classify())
        assert seen == {GraphClass.SIMPLE, GraphClass.STAR, GraphClass.NONSTAR}

    def test_agrees_with_pattern_search_exhaustively(self):
        # membership conditions vs configuration search, all n <= 4, m <= 4
        for n in (1, 2, 3, 4):
            for m in range(5):
                for g in iter_multigraphs(n, m):
                    dense = g.classify() is GraphClass.NONSTAR
                    assert dense == contains_forbidden_configuration(g)


class TestTextFormat:
    def test_round_trip(self):
        g = Multigraph(3, [(1, 1), (2, 3), (2, 3)])
        assert Multigraph.from_text(g.to_text()) == g

    def test_header(self):
        g = Multigraph(2, [(1, 2)])
        assert g.to_text() == "2 1\n1 2\n"

    def test_multiplicity_encoded_by_repetition(self):
        text = "2 2\n1 2\n1 2\n"
        g = Multigraph.from_text(text)
        assert g.multiplicity(1, 2) == 2
        assert g.to_text() == text

    def test_bad_header(self):
        with pytest.raises(ValueError):
            Multigraph.from_text("3\n1 2\n")

    def test_wrong_edge_count(self):
        with pytest.raises(ValueError):
            Multigraph.from_text("2 2\n1 2\n")


class TestValueSemantics:
    EDGES = [(1, 1), (2, 3), (2, 3), (1, 4), (4, 4), (3, 4), (1, 2)]

    def variants(self):
        shuffled = [self.EDGES[i] for i in (4, 2, 6, 0, 5, 3, 1)]
        flipped = [(v, u) for u, v in self.EDGES]
        return [Multigraph(4, e) for e in (self.EDGES, shuffled, flipped,
                                           reversed(flipped))]

    def test_same_multiset_same_value(self):
        first, *others = self.variants()
        for g in others:
            assert g == first
            assert hash(g) == hash(first)
            assert g.edge_items() == first.edge_items()
            assert g.to_text() == first.to_text()
            assert repr(g) == repr(first)

    def test_edge_items_sorted(self):
        g = self.variants()[2]
        assert g.edge_items() == (((1, 1), 1), ((1, 2), 1), ((1, 4), 1),
                                  ((2, 3), 2), ((3, 4), 1), ((4, 4), 1))
        assert g.to_text() == "4 7\n1 1\n1 2\n1 4\n2 3\n2 3\n3 4\n4 4\n"

    def test_different_multisets_differ(self):
        g = Multigraph(4, self.EDGES)
        assert g != Multigraph(4, self.EDGES[1:])
        assert g != Multigraph(5, self.EDGES)
        assert g != Multigraph(4, self.EDGES + [(2, 3)])

    def test_counter_counts_equal_graphs_together(self):
        counts = Counter(self.variants())
        counts[Multigraph(4, [(1, 2)])] += 1
        assert sorted(counts.values()) == [1, 4]
