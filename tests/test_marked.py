import tracemalloc
from fractions import Fraction

import pytest

from degcount import (DegreeSet, infeasibility_reason, marked_multigraph_weight,
                      multigraph_weight, parse_degree_set)

from conftest import ALL_ROUTE_IDS, ALL_ROUTES, FAMILY, FAMILY_IDS
from oracle import (disjointness_factor, marked_multigraph_weight_series,
                    marked_weight_brute, marked_weight_tables)

UV_POINTS = [(0, 0), (1, 1), (-1, -1), (2, -1)]


class TestDisjointnessFactor:
    def test_zero_marks(self):
        assert disjointness_factor(5, 7, 0) == 1
        assert disjointness_factor(0, 0, 0) == 1

    def test_small_value(self):
        assert disjointness_factor(2, 2, 1) == Fraction(4, 3)

    def test_vanishes_past_min(self):
        assert disjointness_factor(3, 5, 6) == 0
        assert disjointness_factor(5, 3, 4) == 0

    def test_tends_to_one(self):
        prev_gap = None
        for scale in (10, 100, 1000):
            gap = abs(disjointness_factor(scale, scale, 2) - 1)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap


class TestMarkedWeight:
    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_at_origin_is_total_weight(self, ds):
        for n in range(1, 5):
            for m in range(0, 5):
                assert (marked_multigraph_weight(ds, n, m, 0, 0)
                        == multigraph_weight(ds, n, m))

    def test_unconstrained_inclusion_exclusion(self):
        # one edge on two vertices: the only simple graph survives at (-1,-1)
        assert marked_multigraph_weight(DegreeSet.min_degree(0), 2, 1, -1, -1) == 1

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_monotone_in_positive_marks(self, ds):
        for n in range(1, 4):
            for m in range(0, 4):
                base = marked_multigraph_weight(ds, n, m, 0, 0)
                assert marked_multigraph_weight(ds, n, m, 1, 1) >= base

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_series_form_agrees_exactly(self, ds):
        for n in range(0, 5):
            for m in range(0, 5):
                for u, v in UV_POINTS:
                    assert (marked_multigraph_weight(ds, n, m, u, v)
                            == marked_multigraph_weight_series(ds, n, m, u, v))

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_matches_brute_force(self, ds):
        for n in range(1, 4):
            for m in range(0, 4):
                for u, v in UV_POINTS:
                    expected = marked_weight_brute(ds, n, m, u, v)
                    assert marked_multigraph_weight(ds, n, m, u, v) == expected

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_gap_to_simple_count_is_the_dense_class(self, ds):
        # the inclusion-exclusion value misses the simple count by exactly
        # the marked weight of the dense-defect multigraphs
        from oracle import GraphClass, count_simple_graphs
        for n in range(1, 4):
            for m in range(0, 4):
                value = marked_multigraph_weight(ds, n, m, -1, -1)
                simple = count_simple_graphs(ds, n, m)
                dense = marked_weight_brute(ds, n, m, -1, -1,
                                            classes={GraphClass.NONSTAR})
                assert value - simple == dense

    def test_rational_arguments(self):
        ds = DegreeSet.even()
        value = marked_multigraph_weight(ds, 3, 2, Fraction(1, 2), Fraction(-1, 3))
        series = marked_multigraph_weight_series(ds, 3, 2, Fraction(1, 2),
                                                 Fraction(-1, 3))
        assert value == series
        assert isinstance(value, Fraction)

    # an odd cap = min(n, m), so cap // 2 rounds down, and denominators above
    # 1 in both u and v exercise the marked sum's integer scaling
    @pytest.mark.parametrize("ds, n, m, u, v", [
        (DegreeSet.min_degree(2), 20, 25, Fraction(-1, 2), Fraction(3, 7)),
        (DegreeSet.finite([2, 3]), 31, 40, Fraction(4, 9), Fraction(-7, 4)),
        (DegreeSet.odd(), 34, 33, Fraction(-5, 7), Fraction(2, 9)),
        (DegreeSet.even(), 40, 21, Fraction(3, 2), Fraction(-1, 3)),
    ], ids=["min=2", "2,3", "odd", "even"])
    def test_rational_arguments_at_larger_n(self, ds, n, m, u, v):
        value = marked_multigraph_weight(ds, n, m, u, v)
        assert value != 0
        assert value == marked_multigraph_weight_series(ds, n, m, u, v)


class TestTableRoute:
    """The streamed sum against the same sum read from two whole tables."""

    @pytest.mark.parametrize("ds", ALL_ROUTES, ids=ALL_ROUTE_IDS)
    def test_streamed_equals_tables(self, ds):
        half = Fraction(1, 2)
        points = [(u, v) for u in (-1, 0, half) for v in (-1, 0, half)]
        infeasible = 0
        for n in (0, 1, 2, 3, 5, 8, 13, 21, 34, 64):
            # m = 0 is infeasible for a set without 0 and 3n/2 + 1 for one
            # whose largest member is at most 3; 3n is feasible for min=5
            for m in sorted({0, n // 2, n, 3 * n // 2 + 1, 3 * n}):
                infeasible += infeasibility_reason(ds, n, m) is not None
                for u, v in points:
                    assert (marked_multigraph_weight(ds, n, m, u, v)
                            == marked_weight_tables(ds, n, m, u, v))
        assert infeasible


def _traced_peak(call):
    """call() and the tracemalloc peak it adds above what is already held."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        value = call()
        return value, tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()


class TestMemory:
    """The streamed rows take well under the two whole tables' memory."""

    @pytest.mark.parametrize("degrees, n, m", [
        ("min=2", 100, 150), ("even", 100, 100), ("2,3", 100, 125)])
    def test_peak_below_the_tables(self, degrees, n, m):
        ds = parse_degree_set(degrees)
        streamed, low = _traced_peak(
            lambda: marked_multigraph_weight(ds, n, m, -1, -1))
        tables, high = _traced_peak(
            lambda: marked_weight_tables(ds, n, m, -1, -1))
        assert streamed == tables
        assert low <= 0.4 * high


class TestMixedCoefficientReads:
    """Every (k, l) with the same 2k + l reads one mixed coefficient."""

    @pytest.mark.parametrize("degrees, n, m", [
        ("even", 9, 6), ("even", 6, 9), ("0,2,3", 8, 8), ("min=1", 7, 10)])
    def test_one_read_per_marked_vertex_count(self, monkeypatch, degrees,
                                              n, m):
        from degcount import marked, parse_degree_set

        reads = []

        def counted(row_a, row_b, j):
            reads.append(j)
            return convolution(row_a, row_b, j)
        convolution = marked._binomial_convolution
        monkeypatch.setattr(marked, "_binomial_convolution", counted)
        ds = parse_degree_set(degrees)
        value = marked_multigraph_weight(ds, n, m, Fraction(3, 2),
                                         Fraction(-1, 2))
        # M_a is read at j = 2m - 2a, once for each a <= min(n, m)
        assert sorted(reads) == [2 * m - 2 * a
                                 for a in range(min(n, m), -1, -1)]
        assert value == marked_multigraph_weight_series(
            ds, n, m, Fraction(3, 2), Fraction(-1, 2))


class TestInfeasible:
    @pytest.mark.parametrize("route", [marked_multigraph_weight,
                                       marked_multigraph_weight_series])
    def test_zero_without_tables(self, route, monkeypatch):
        import oracle
        from degcount import marked

        def no_table(*args):
            raise AssertionError("a table was built")

        def no_rows(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(marked, "band_rows", no_rows)
        monkeypatch.setattr(oracle, "build_table", no_table)
        # 2m = 1200 exceeds n*max(D) = 300: no degree sequence exists
        assert route(DegreeSet.finite([1, 3]), 100, 600, -1, -1) == 0
        # 0,5,7 passes the range and periodicity tests at n = 2, m = 1
        assert route(DegreeSet.finite([0, 5, 7]), 2, 1, 1, 1) == 0


class TestEmptyShift:
    """D = {0, 1}: D-2 is empty, so nothing can be marked at any (u, v)."""

    ds = DegreeSet.finite([0, 1])

    def test_marked_weight_is_total_weight(self):
        for n in range(0, 6):
            for m in range(0, 4):
                total = multigraph_weight(self.ds, n, m)
                for u, v in UV_POINTS:
                    assert marked_multigraph_weight(self.ds, n, m, u, v) == total
                    assert marked_multigraph_weight_series(
                        self.ds, n, m, u, v) == total
                    if n:
                        assert marked_weight_brute(self.ds, n, m, u, v) == total

    @pytest.mark.parametrize("members", [[0, 1], [0], [1]])
    def test_total_weight_without_tables(self, members, monkeypatch):
        from degcount import marked

        def no_rows(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(marked, "band_rows", no_rows)
        ds = DegreeSet.finite(members)
        # (5, 1) has no sequence for {0} or {1}, (4, 3) none for any of them
        for n, m in [(0, 0), (5, 1), (4, 3), (6, 3), (2000, 500)]:
            total = multigraph_weight(ds, n, m)
            for u, v in UV_POINTS + [(Fraction(3, 2), Fraction(-1, 3))]:
                assert marked_multigraph_weight(ds, n, m, u, v) == total

    def test_ten_vertices_three_edges(self):
        assert marked_multigraph_weight(self.ds, 10, 3, -1, -1) == 3150
