import math

import pytest

from degcount import (INFINITE, DegreeSet, InfeasibleRegimeError,
                      acceptance_probability, loop_intensity, mean_degree,
                      mean_degree_slope, multigraph_count_asymptotic,
                      multigraph_weight, parse_degree_set, resolve,
                      saddle_point, simple_graph_count_asymptotic,
                      solve_mean_degree)

from conftest import SADDLE_FAMILY, SADDLE_FAMILY_IDS
from oracle import count_simple_graphs


def log_fraction(f):
    return math.log(f.numerator) - math.log(f.denominator)


def grid_targets(ds, count=20):
    r = ds.valuation
    hi = min(ds.max_degree, r + 10)
    return [r + (hi - r) * (i + 0.5) / count for i in range(count)]


class TestMeanDegree:
    def test_unconstrained_is_identity(self):
        ds = DegreeSet.min_degree(0)
        for x in (0.2, 1.0, 7.5):
            assert mean_degree(ds, x) == pytest.approx(x, rel=1e-13)

    def test_even_is_x_tanh(self):
        ds = DegreeSet.even()
        for x in (0.4, 1.0, 3.0):
            assert mean_degree(ds, x) == pytest.approx(x * math.tanh(x), rel=1e-13)

    def test_one_three_at_two(self):
        assert mean_degree(DegreeSet.finite([1, 3]), 2.0) == pytest.approx(
            9 / 5, rel=1e-13)

    def test_singleton_rejected(self):
        with pytest.raises(InfeasibleRegimeError):
            mean_degree(DegreeSet.finite([2]), 1.0)

    @pytest.mark.parametrize("ds", SADDLE_FAMILY, ids=SADDLE_FAMILY_IDS)
    def test_strictly_increasing(self, ds):
        xs = [0.05 * k for k in range(1, 401)]
        values = [mean_degree(ds, x) for x in xs]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("ds", SADDLE_FAMILY, ids=SADDLE_FAMILY_IDS)
    def test_range_endpoints(self, ds):
        assert mean_degree(ds, 1e-6) == pytest.approx(ds.valuation, abs=1e-4)
        if ds.max_degree is not INFINITE:
            assert mean_degree(ds, 1e3) == pytest.approx(ds.max_degree, rel=1e-3)


class TestSlope:
    def test_unconstrained_slope_is_one(self):
        ds = DegreeSet.min_degree(0)
        for x in (0.3, 2.0, 9.0):
            assert mean_degree_slope(ds, x) == pytest.approx(1.0, rel=1e-12)

    def test_even_slope_closed_form(self):
        t = math.tanh(1.0)
        expected = t + 1.0 * (1 - t * t)
        assert mean_degree_slope(DegreeSet.even(), 1.0) == pytest.approx(
            expected, rel=1e-12)

    @pytest.mark.parametrize("ds", SADDLE_FAMILY, ids=SADDLE_FAMILY_IDS)
    @pytest.mark.parametrize("x", [0.35, 1.0, 2.2, 5.0])
    def test_matches_central_difference(self, ds, x):
        h = 1e-6 * x
        fd = (mean_degree(ds, x + h) - mean_degree(ds, x - h)) / (2 * h)
        assert mean_degree_slope(ds, x) == pytest.approx(fd, rel=1e-6)


class TestSolve:
    def test_unconstrained(self):
        ds = DegreeSet.min_degree(0)
        sp = saddle_point(ds, 100, 75)
        assert sp.x == pytest.approx(1.5, rel=1e-12)

    def test_even_target_one(self):
        x = solve_mean_degree(DegreeSet.even(), 1.0)
        assert x == pytest.approx(1.19968, abs=1e-5)
        assert x * math.tanh(x) == pytest.approx(1.0, rel=1e-12)

    def test_one_three_inverse(self):
        assert solve_mean_degree(DegreeSet.finite([1, 3]), 9 / 5) == pytest.approx(
            2.0, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(InfeasibleRegimeError):
            solve_mean_degree(DegreeSet.finite([1, 3]), 3.5)
        with pytest.raises(InfeasibleRegimeError):
            solve_mean_degree(DegreeSet.min_degree(2), 1.5)

    @pytest.mark.parametrize("ds", SADDLE_FAMILY, ids=SADDLE_FAMILY_IDS)
    def test_solver_tolerance_grid(self, ds):
        for target in grid_targets(ds):
            x = solve_mean_degree(ds, target)
            assert abs(mean_degree(ds, x) - target) <= 1e-12 * target

    @pytest.mark.parametrize("ds", SADDLE_FAMILY, ids=SADDLE_FAMILY_IDS)
    def test_round_trip_identity(self, ds):
        for x in (0.3, 0.8, 1.7, 3.1):
            target = mean_degree(ds, x)
            assert solve_mean_degree(ds, target) == pytest.approx(x, rel=1e-10)

    @pytest.mark.parametrize("ds,target", [(DegreeSet.finite([1, 3]), 2.99),
                                           (DegreeSet.finite([2, 3]), 2.0025)])
    def test_range_edge_ends_within_tolerance(self, ds, target):
        # near the ends of a finite range rounding keeps Newton's steps from
        # shrinking to 1e-13, yet the residual there is at rounding level
        x = solve_mean_degree(ds, target)
        assert abs(mean_degree(ds, x) - target) <= 1e-12 * target

    def test_unconverged_newton_raises(self, monkeypatch):
        from degcount import saddlepoint
        point = saddlepoint._point

        def steep(ds, x, slope=True):
            # a slope 1e3 too steep makes every Newton step 1e3 too short
            log_egf, mean, dm, ratio = point(ds, x, slope)
            return log_egf, mean, 1e3 * dm, ratio

        monkeypatch.setattr(saddlepoint, "_point", steep)
        with pytest.raises(ArithmeticError, match="did not converge"):
            solve_mean_degree(DegreeSet.even(), 1.0)


class TestLoopIntensity:
    def test_unconstrained_value(self):
        assert loop_intensity(DegreeSet.min_degree(0), 100, 75, 1.5) == \
            pytest.approx(0.75, rel=1e-12)

    def test_even_shift_invariance(self):
        # even - 2 = even makes the generating-function ratio equal 1
        n, m = 10, 7
        x = 1.3
        assert loop_intensity(DegreeSet.even(), n, m, x) == pytest.approx(
            (n / (4 * m)) * x * x, rel=1e-12)

    def test_positive(self):
        sp = saddle_point(DegreeSet.finite([2, 3]), 10, 12)
        assert sp.loop_intensity > 0


class TestSaddlePointBundle:
    @pytest.mark.parametrize("ds", SADDLE_FAMILY, ids=SADDLE_FAMILY_IDS)
    def test_invariants(self, ds):
        n = 30
        r = ds.valuation
        mx = min(ds.max_degree, r + 10)
        # pick a feasible m strictly inside the regime
        m = None
        for cand in range(1, 15 * n):
            if r < 2 * cand / n < mx and \
                    multigraph_weight(ds, n, cand) != 0:
                m = cand
                break
        assert m is not None
        sp = saddle_point(ds, n, m)
        assert abs(sp.mean_degree - 2 * m / n) <= 1e-12 * (2 * m / n)
        assert sp.slope > 0
        assert sp.loop_intensity > 0
        assert sp.log_egf == pytest.approx(ds.egf_log(sp.x))


class TestAsymptoticCounts:
    def test_infeasible_periodicity(self):
        res = multigraph_count_asymptotic(DegreeSet.finite([1, 3]), 3, 2)
        assert not res.feasible
        assert res.log_value == -math.inf

    def test_unconstrained_convergence(self):
        ds = DegreeSet.min_degree(0)
        n, m = 200, 150
        exact = multigraph_weight(ds, n, m)
        res = multigraph_count_asymptotic(ds, n, m)
        assert res.feasible
        assert abs(math.exp(res.log_value - log_fraction(exact)) - 1) < 0.02

    def test_even_convergence(self):
        ds = DegreeSet.even()
        n, m = 200, 100
        exact = multigraph_weight(ds, n, m)
        res = multigraph_count_asymptotic(ds, n, m)
        assert abs(math.exp(res.log_value - log_fraction(exact)) - 1) < 5 / n

    def test_regular_closed_form(self):
        ds = DegreeSet.finite([2])
        res = multigraph_count_asymptotic(ds, 10, 10)
        exact = multigraph_weight(ds, 10, 10)
        assert res.feasible
        assert res.log_value == pytest.approx(log_fraction(exact), abs=1e-10)
        assert not multigraph_count_asymptotic(ds, 10, 9).feasible

    def test_simple_below_multigraph(self):
        for ds, n, m in ((DegreeSet.even(), 100, 60),
                         (DegreeSet.min_degree(1), 80, 100),
                         (DegreeSet.finite([1, 3]), 60, 50)):
            mg = multigraph_count_asymptotic(ds, n, m)
            sg = simple_graph_count_asymptotic(ds, n, m)
            assert sg.log_value < mg.log_value

    def test_simple_vs_binomial_small(self):
        # against the unconstrained count C(C(n,2), m)
        n, m = 120, 120
        res = simple_graph_count_asymptotic(DegreeSet.min_degree(0), n, m)
        exact = math.comb(math.comb(n, 2), m)
        assert abs(math.exp(res.log_value - math.log(exact)) - 1) < 0.05

    def test_simple_vs_brute_force_tiny(self):
        ds = DegreeSet.min_degree(1)
        n, m = 6, 6
        res = simple_graph_count_asymptotic(ds, n, m)
        exact = count_simple_graphs(ds, n, m)
        assert abs(math.exp(res.log_value - math.log(exact)) - 1) < 0.5

    def test_regular_simple_matches_pairing_model(self):
        # 2-regular: correction exp(-W - W^2) with W = (d-1)/2
        ds = DegreeSet.finite([2])
        res = simple_graph_count_asymptotic(ds, 12, 12)
        base = multigraph_count_asymptotic(ds, 12, 12)
        assert res.log_value == pytest.approx(base.log_value - 0.75, abs=1e-12)

    def test_mantissa_exponent(self):
        res = multigraph_count_asymptotic(DegreeSet.even(), 100, 50)
        mant, expo = res.mantissa_exponent()
        assert 1.0 <= mant < 10.0
        assert math.log(mant) + expo * math.log(10) == pytest.approx(
            res.log_value, rel=1e-12)

    def test_error_shrinks_with_n(self):
        ds = DegreeSet.even()
        errs = []
        for n in (32, 128):
            m = n // 2
            exact = multigraph_weight(ds, n, m)
            res = multigraph_count_asymptotic(ds, n, m)
            errs.append(abs(math.exp(res.log_value - log_fraction(exact)) - 1))
        assert errs[1] < errs[0]

    # (degree set, end of its range, periodicity p)
    NEAR_ENDS = [("min=1", "low", 1), ("min=2", "low", 1), ("2,3", "low", 1),
                 ("2,3", "top", 1), ("0,1,2", "top", 1), ("even", "low", 2),
                 ("1,3", "top", 2)]

    @pytest.mark.parametrize("degrees, end, p", NEAR_ENDS,
                             ids=[f"{d}-{e}" for d, e, _ in NEAR_ENDS])
    def test_error_near_an_end_is_p_over_12e(self, degrees, end, p):
        # e half-edges from the nearer end of D's range, the first-order
        # estimate is high by about p/(12e) whatever n is
        ds = parse_degree_set(degrees)
        for n in (400, 1600):
            for e in (2, 4, 10, 40):
                total = (n * ds.valuation + e if end == "low"
                         else n * ds.max_degree - e)
                exact = multigraph_weight(ds, n, total // 2)
                res = multigraph_count_asymptotic(ds, n, total // 2)
                err = math.exp(res.log_value - log_fraction(exact)) - 1
                assert 0 < err and abs(err * 12 * e / p - 1) < 0.1, (n, e, err)


class TestAcceptanceProbability:
    def test_unconstrained_value(self):
        # loop intensity m/n = 1/2 gives exp(-1/4 - 1/2)
        p = acceptance_probability(DegreeSet.min_degree(0), 100, 50)
        assert p == pytest.approx(math.exp(-0.75), rel=1e-10)

    def test_small_intensity_limit(self):
        p = acceptance_probability(DegreeSet.min_degree(0), 10_000, 50)
        assert p > 0.98

    def test_matches_estimate_ratio(self):
        ds = DegreeSet.even()
        n, m = 500, 300
        mg = multigraph_count_asymptotic(ds, n, m)
        sg = simple_graph_count_asymptotic(ds, n, m)
        assert acceptance_probability(ds, n, m) == pytest.approx(
            math.exp(sg.log_value - mg.log_value), rel=1e-10)

    def test_singleton_rejected(self):
        # no longer rejected: {2} at 2m = 2n is forced, L = n d (d-1) / 4m
        lam = 0.5
        assert acceptance_probability(DegreeSet.finite([2]), 10, 10) == \
            pytest.approx(math.exp(-lam * lam - lam), rel=1e-15)


# (degree set, n, m, forced degree): 2m/n on an edge of D's range
BOUNDARY = [
    (DegreeSet.min_degree(3), 10, 15, 3),
    (DegreeSet.finite([1, 3]), 10, 5, 1),
    (DegreeSet.finite([1, 3]), 10, 15, 3),
    (DegreeSet.finite([2, 3]), 10, 10, 2),
    (DegreeSet.finite([2, 3]), 10, 15, 3),
]
BOUNDARY_IDS = [f"{ds}-n{n}-m{m}" for ds, n, m, _ in BOUNDARY]


class TestResolve:
    def test_infeasible_carries_reason(self):
        regime = resolve(DegreeSet.finite([1, 3]), 3, 2)
        assert regime.reason is not None and "periodicity" in regime.reason
        assert regime.degree is None and regime.saddle is None

    @pytest.mark.parametrize("ds,n,m,d", BOUNDARY, ids=BOUNDARY_IDS)
    def test_boundary_is_forced(self, ds, n, m, d):
        regime = resolve(ds, n, m)
        assert (regime.reason, regime.degree, regime.saddle) == (None, d, None)
        assert regime.loop_intensity == n * d * (d - 1) / (4.0 * m)

    def test_singleton_and_empty_instances_are_forced(self):
        assert resolve(DegreeSet.finite([2]), 10, 10).degree == 2
        assert resolve(DegreeSet.min_degree(0), 5, 0).degree == 0
        assert resolve(DegreeSet.even(), 0, 0).degree == 0
        assert resolve(DegreeSet.even(), 0, 0).loop_intensity == 0.0
        assert resolve(DegreeSet.even(), 0, 1).reason is not None
        assert resolve(DegreeSet.min_degree(1), 5, 0).reason is not None

    def test_interior_carries_saddle_point(self):
        ds = DegreeSet.even()
        regime = resolve(ds, 100, 60)
        assert regime.reason is None and regime.degree is None
        assert regime.saddle == saddle_point(ds, 100, 60)
        assert regime.loop_intensity == regime.saddle.loop_intensity

    def test_negative_sizes_raise(self):
        with pytest.raises(ValueError):
            resolve(DegreeSet.even(), -1, 0)

    def test_simple_reason(self):
        # K_10 has 45 edges; 46 fit only in a multigraph
        ds = DegreeSet.min_degree(1)
        assert resolve(ds, 10, 45).simple_reason is None
        assert resolve(DegreeSet.finite([1, 3]), 10, 12).simple_reason is None
        regime = resolve(ds, 10, 46)
        assert regime.reason is None and regime.saddle is not None
        assert regime.simple_reason == (
            "no simple graph on 10 vertices: total degree 92 exceeds "
            "n*max(D) = 90 with degrees at most 9")
        sg = simple_graph_count_asymptotic(ds, 10, 46)
        assert (sg.feasible, sg.log_value, sg.reason) == (
            False, -math.inf, regime.simple_reason)
        # the multigraph estimate and the acceptance stay as they were
        assert multigraph_count_asymptotic(ds, 10, 46).feasible
        assert acceptance_probability(ds, 10, 46) == regime.acceptance > 0.0
        forced = resolve(DegreeSet.finite([10]), 10, 50)
        assert forced.degree == 10
        assert forced.simple_reason == (
            "no simple graph on 10 vertices: no degree in 10 is at most 9")


class TestForcedEstimates:
    @pytest.mark.parametrize("ds,n,m,d", BOUNDARY, ids=BOUNDARY_IDS)
    def test_boundary_equals_singleton_form(self, ds, n, m, d):
        forced = DegreeSet.finite([d])
        for estimate in (multigraph_count_asymptotic, simple_graph_count_asymptotic):
            got, want = estimate(ds, n, m), estimate(forced, n, m)
            assert got.feasible and got.saddle is None
            assert got.log_value == want.log_value
        assert acceptance_probability(ds, n, m) == \
            acceptance_probability(forced, n, m)

    @pytest.mark.parametrize("ds,n,m,d", BOUNDARY, ids=BOUNDARY_IDS)
    def test_boundary_is_exact(self, ds, n, m, d):
        exact = multigraph_weight(ds, n, m)
        assert multigraph_count_asymptotic(ds, n, m).log_value == \
            pytest.approx(log_fraction(exact), rel=1e-12)

    def test_min_three_boundary_weight(self):
        res = multigraph_count_asymptotic(DegreeSet.min_degree(3), 10, 15)
        assert res.log_value == pytest.approx(
            math.log(943496929375 / 9216), rel=1e-12)

    def test_no_vertices_no_edges(self):
        res = multigraph_count_asymptotic(DegreeSet.even(), 0, 0)
        assert res.feasible and res.log_value == 0.0

    def test_infeasible_estimate_carries_reason(self):
        res = simple_graph_count_asymptotic(DegreeSet.finite([2]), 10, 9)
        assert not res.feasible
        assert "below" in res.reason
        with pytest.raises(InfeasibleRegimeError):
            acceptance_probability(DegreeSet.finite([2]), 10, 9)

    def test_interior_estimate_carries_saddle_point(self):
        ds = DegreeSet.finite([2, 3])
        res = simple_graph_count_asymptotic(ds, 10, 12)
        assert res.saddle == saddle_point(ds, 10, 12)


class TestEmptyShift:
    """D = {0, 1}: D-2 is empty, so no loop or double edge can occur."""

    ds = DegreeSet.finite([0, 1])

    def test_slope_and_loop_intensity(self):
        # mean degree x/(1+x), slope 1/(1+x)^2
        for x in (0.3, 1.5, 4.0):
            assert mean_degree_slope(self.ds, x) == pytest.approx(
                1.0 / (1.0 + x) ** 2, rel=1e-13)
            assert loop_intensity(self.ds, 10, 3, x) == 0.0

    def test_acceptance_is_one(self):
        assert acceptance_probability(self.ds, 10, 3) == 1.0

    def test_simple_estimate_equals_multigraph(self):
        mg = multigraph_count_asymptotic(self.ds, 10, 3)
        sg = simple_graph_count_asymptotic(self.ds, 10, 3)
        assert mg.feasible and sg.log_value == mg.log_value
        assert sg.saddle.x == pytest.approx(1.5, rel=1e-12)

    def test_estimate_converges(self):
        n, m = 400, 100
        exact = multigraph_weight(self.ds, n, m)
        res = multigraph_count_asymptotic(self.ds, n, m)
        assert abs(math.expm1(res.log_value - log_fraction(exact))) < 1.0 / n
