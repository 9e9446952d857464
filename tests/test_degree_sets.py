import math
from fractions import Fraction

import pytest

from degcount import (INFINITE, DegreeSequenceSampler, DegreeSet,
                      InfeasibleRegimeError, Multigraph,
                      acceptance_probability, build_table, make_rng,
                      marked_multigraph_weight, mean_degree,
                      multigraph_count_asymptotic, multigraph_weight,
                      parse_degree_set, power_coefficient, resolve,
                      simple_graph_count_asymptotic)
from degcount.tables import multigraph_weight_and_reason

from conftest import FAMILY, FAMILY_IDS


class TestParse:
    def test_singleton(self):
        ds = parse_degree_set("2")
        assert ds.members == (2,)

    def test_even(self):
        ds = parse_degree_set("even")
        assert ds.valuation == 0
        assert ds.periodicity == 2

    def test_finite_list(self):
        ds = parse_degree_set("1,3")
        assert ds.members == (1, 3)
        assert ds.valuation == 1
        assert ds.periodicity == 2

    def test_min(self):
        ds = parse_degree_set("min=3")
        assert ds.valuation == 3
        assert ds.max_degree == INFINITE

    def test_normalises_duplicates_and_order(self):
        assert parse_degree_set("3,1,3").members == (1, 3)

    @pytest.mark.parametrize("bad", ["", "  ", "-1", "1,,2", "min=", "min=x",
                                     "2,-4", "foo"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_degree_set(bad)

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_round_trip(self, ds):
        assert parse_degree_set(str(ds)) == ds


class TestStructure:
    def test_valuation_periodicity_even(self):
        assert DegreeSet.even().valuation == 0
        assert DegreeSet.even().periodicity == 2

    def test_singleton_periodicity_infinite(self):
        assert DegreeSet.finite([2]).periodicity == INFINITE

    def test_min_degree_three(self):
        ds = DegreeSet.min_degree(3)
        assert ds.valuation == 3
        assert ds.max_degree == INFINITE
        assert ds.periodicity == 1

    @pytest.mark.parametrize("members", [(0, 4), (1, 3), (2, 5), (0, 6, 9),
                                         (1, 4, 7, 10)])
    def test_periodicity_divides_differences(self, members):
        ds = DegreeSet.finite(members)
        p = ds.periodicity
        for a in members:
            for b in members:
                assert (a - b) % p == 0

    def test_membership(self):
        assert 4 in DegreeSet.even()
        assert 5 not in DegreeSet.even()
        assert 5 in DegreeSet.odd()
        assert 7 in DegreeSet.min_degree(3)
        assert 2 not in DegreeSet.min_degree(3)
        assert -1 not in DegreeSet.min_degree(0)


class TestShift:
    def test_even_shift_is_odd(self):
        assert DegreeSet.even().shift(1) == DegreeSet.odd()
        assert DegreeSet.odd().shift(1) == DegreeSet.even()

    def test_finite_drops_members(self):
        assert DegreeSet.finite([1, 3]).shift(2).members == (1,)

    def test_min_degree_clamps(self):
        assert DegreeSet.min_degree(2).shift(2) == DegreeSet.min_degree(0)

    def test_unchanged_shift_is_self(self):
        for ds in (DegreeSet.even(), DegreeSet.odd(), DegreeSet.min_degree(0),
                   DegreeSet.finite([1]).shift(2)):
            assert ds.shift(2) is ds
        ds = DegreeSet.finite([1, 3])
        assert ds.shift(0) is ds

    @pytest.mark.parametrize("members", [(4, 6), (5, 7, 9), (3, 8)])
    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1)])
    def test_shift_composes(self, members, a, b):
        ds = DegreeSet.finite(members)
        assert ds.shift(a).shift(b) == ds.shift(a + b)

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_shift_membership(self, ds):
        for i in range(0, 3):
            shifted = ds.shift(i)
            expected = sorted({d - i for d in ds.members_up_to(20) if d >= i})
            assert sorted(shifted.members_up_to(20 - i)) == expected

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_shift_structure_by_brute_force(self, ds):
        # no FAMILY set stops between 41 and 80, so members there mean unbounded
        for i in range(5):
            shifted = ds.shift(i)
            brute = [d - i for d in range(i, 41 + i) if d in ds]
            unbounded = any(d in ds for d in range(41 + i, 81 + i))
            assert [d for d in range(-2, 41) if d in shifted] == brute
            assert list(shifted.members_up_to(40)) == brute
            assert shifted.valuation == (brute[0] if brute else INFINITE)
            assert shifted.max_degree == (
                INFINITE if unbounded else brute[-1] if brute else -INFINITE)
            assert shifted.size == (INFINITE if unbounded else len(brute))
            g = 0
            for d in brute[1:]:
                g = math.gcd(g, d - brute[0])
            assert shifted.periodicity == (g or INFINITE)

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_shift_composes_on_every_set(self, ds):
        for a in range(5):
            for b in range(5):
                assert ds.shift(a).shift(b) == ds.shift(a + b)


class TestEmptySet:
    # the finite set with no members, made only by shifting past every member
    empty = DegreeSet.finite([1]).shift(2)

    def test_structure(self):
        empty = self.empty
        assert empty == DegreeSet.finite([1, 3]).shift(4)
        assert empty.size == 0
        assert not any(d in empty for d in range(-2, 10))
        assert list(empty.members_up_to(10)) == []
        assert empty.valuation == INFINITE
        assert empty.max_degree == -INFINITE
        for x in (1e-3, 1.0, 50.0, 1e4):
            assert empty.egf_log(x) == -math.inf

    def test_exact_paths(self):
        assert power_coefficient(self.empty, 0, 0) == 1
        assert power_coefficient(self.empty, 3, 4) == 0
        table = build_table(self.empty, 3, 4)
        assert [[table.value(i, j) for j in range(5)] for i in range(4)] == \
            [[1, 0, 0, 0, 0]] + [[0] * 5] * 3
        assert multigraph_weight(self.empty, 0, 0) == 1

    def test_every_entry_point_reports_infeasible(self):
        n, m = 3, 2
        weight, reason = multigraph_weight_and_reason(self.empty, n, m)
        assert weight == 0 and reason
        assert multigraph_weight(self.empty, n, m) == 0
        assert marked_multigraph_weight(self.empty, n, m, -1, -1) == 0
        assert resolve(self.empty, n, m).reason
        for estimate in (multigraph_count_asymptotic,
                         simple_graph_count_asymptotic):
            count = estimate(self.empty, n, m)
            assert not count.feasible and count.reason
        with pytest.raises(InfeasibleRegimeError, match="total degree"):
            DegreeSequenceSampler(self.empty, n, m)
        with pytest.raises(InfeasibleRegimeError):
            mean_degree(self.empty, 1.0)

    def test_empty_graph_without_vertices(self):
        # (0, 0) has one instance, the empty graph, whatever D is
        for estimate in (multigraph_count_asymptotic,
                         simple_graph_count_asymptotic):
            assert estimate(self.empty, 0, 0).log_value == 0.0
        assert acceptance_probability(self.empty, 0, 0) == 1.0
        sampler = DegreeSequenceSampler(self.empty, 0, 0)
        assert sampler.sample_simple(make_rng(1))[0] == Multigraph(0)


class TestEgf:
    # egf_log is the only evaluation of Set_D(x); a log-space tolerance abs=t
    # bounds the value's relative error by about t.

    def test_even_at_zero_limit(self):
        assert DegreeSet.even().egf_log(1e-12) == pytest.approx(0.0)

    def test_unconstrained_is_exp(self):
        ds = DegreeSet.min_degree(0)
        for x in (0.3, 1.0, 5.0, 40.0):
            assert ds.egf_log(x) == pytest.approx(x, abs=1e-14)

    def test_finite_polynomial(self):
        assert DegreeSet.finite([1, 3]).egf_log(2.0) == pytest.approx(
            math.log(10 / 3), abs=1e-14)

    def test_even_odd_closed_forms(self):
        for x in (0.1, 1.0, 3.7):
            assert DegreeSet.even().egf_log(x) == pytest.approx(
                math.log(math.cosh(x)), abs=1e-14)
            assert DegreeSet.odd().egf_log(x) == pytest.approx(
                math.log(math.sinh(x)), abs=1e-14)

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    @pytest.mark.parametrize("x", [0.25, 1.0, 2.5, 8.0])
    def test_matches_truncated_sum(self, ds, x):
        # direct summation until the factorial tail bound is negligible
        total = 0.0
        j = 0
        while True:
            if j in ds:
                total += x ** j / math.factorial(j)
            j += 1
            if j > x and x ** j / math.factorial(j) * math.exp(x) < 1e-15 * max(total, 1e-300):
                break
        assert ds.egf_log(x) == pytest.approx(math.log(total), abs=1e-13)

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    @pytest.mark.parametrize("x", [0.5, 1.5, 4.0])
    def test_derivative_is_shift(self, ds, x):
        # d/dx of the generating function equals the shifted set's, so the
        # slope of its log is Set_{D-1}(x) / Set_D(x)
        h = 1e-6 * x
        derivative = (ds.egf_log(x + h) - ds.egf_log(x - h)) / (2 * h)
        shifted = ds.shift(1)
        assert math.exp(shifted.egf_log(x) - ds.egf_log(x)) == pytest.approx(
            derivative, rel=1e-6)

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_log_matches_linear(self, ds):
        # against the exact rational sum of x**d / d!; past degree 400 the
        # terms at x = 50 are below e**-400 of the total
        for x in (0.5, 2.0, 10.0, 50.0):
            total = float(sum(Fraction(x) ** d / math.factorial(d)
                              for d in ds.members_up_to(400)))
            assert ds.egf_log(x) == pytest.approx(math.log(total), rel=1e-13, abs=1e-13)

    def test_log_survives_huge_arguments(self):
        assert DegreeSet.min_degree(0).egf_log(5000.0) == pytest.approx(5000.0)
        assert DegreeSet.even().egf_log(2000.0) == pytest.approx(
            2000.0 - math.log(2.0))
        assert DegreeSet.min_degree(2).egf_log(1500.0) == pytest.approx(
            1500.0 + math.log1p(-math.exp(
                DegreeSet.finite([0, 1]).egf_log(1500.0) - 1500.0)))

    def test_log_small_x_large_delta(self):
        ds = DegreeSet.min_degree(5)
        expected = math.log(sum(0.01 ** d / math.factorial(d)
                                for d in range(5, 25)))
        assert ds.egf_log(0.01) == pytest.approx(expected, rel=1e-12)

    def test_egf_rejects_nonpositive(self):
        for x in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                DegreeSet.even().egf_log(x)
