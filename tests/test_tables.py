import math
from fractions import Fraction

import pytest

from degcount import (INFINITE, DegreeSet, build_table, infeasibility_reason,
                      multigraph_weight, power_coefficient)
from degcount.tables import (band_rows, column_coefficients,
                             mixed_table_coefficient)

from conftest import FAMILY, FAMILY_IDS


def reference_table(ds, n_max, j_max):
    """The defining convolution, written independently of the library."""
    rows = [[1] + [0] * j_max]
    for _ in range(n_max):
        prev = rows[-1]
        row = [0] * (j_max + 1)
        for j in range(j_max + 1):
            row[j] = sum(math.comb(j, d) * prev[j - d]
                         for d in ds.members_up_to(j))
        rows.append(row)
    return rows


class TestTable:
    def test_row_zero(self):
        t = build_table(DegreeSet.even(), 3, 6)
        assert t.value(0, 0) == 1
        assert all(t.value(0, j) == 0 for j in range(1, 7))

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_matches_defining_recursion(self, ds):
        t = build_table(ds, 7, 14)
        ref = reference_table(ds, 7, 14)
        for i in range(8):
            assert list(t.row(i)) == ref[i]

    @pytest.mark.parametrize("ds", [DegreeSet.min_degree(3),
                                    DegreeSet.min_degree(5),
                                    DegreeSet.finite([0, 4, 7]),
                                    DegreeSet.finite([3, 6, 9])],
                             ids=str)
    def test_matches_defining_recursion_wider_sets(self, ds):
        t = build_table(ds, 6, 18)
        ref = reference_table(ds, 6, 18)
        for i in range(7):
            assert list(t.row(i)) == ref[i]

    @pytest.mark.parametrize("ds", FAMILY + [DegreeSet.finite([0, 5, 7]),
                                             DegreeSet.finite([3, 6, 9]),
                                             DegreeSet.min_degree(3)],
                             ids=str)
    def test_every_cell_matches_the_convolution(self, ds):
        # the row recurrences skip cells they know are zero; every cell,
        # zero or not, still equals the O(|D|) convolution
        t = build_table(ds, 40, 120)
        ref = reference_table(ds, 40, 120)
        for i in range(41):
            assert list(t.row(i)) == ref[i], i

    @pytest.mark.parametrize("span", [(-1, 3), (2, 15)])
    def test_span_leaving_the_row_raises(self, span):
        with pytest.raises(ValueError, match="span"):
            list(band_rows(DegreeSet.even(), 14, [(0, 14), span]))

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_banded_rows_equal_the_full_rows(self, ds):
        # spans at either end, inside and across the row, two empty
        # spans, and a last row that needs the low cells of those below
        spans = [(0, 14), (0, 2), (4, 9), (10, 14), (7, 6), (1, 0),
                 (14, 14), (0, 3)]
        rows = list(band_rows(ds, 14, spans))
        full = build_table(ds, 7, 14)
        assert rows[4] == rows[5] == []
        for i, (lo, hi) in enumerate(spans):
            assert rows[i] == full.rows[i][lo:hi + 1], i

    def test_unconstrained_powers(self):
        t = build_table(DegreeSet.min_degree(0), 6, 10)
        for i in range(7):
            for j in range(11):
                assert t.value(i, j) == i ** j

    def test_two_regular(self):
        t = build_table(DegreeSet.finite([2]), 4, 8)
        assert t.value(2, 4) == 6
        for n in range(5):
            for j in range(9):
                expected = math.factorial(j) // 2 ** n if j == 2 * n else 0
                assert t.value(n, j) == expected

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_support_constraints(self, ds):
        t = build_table(ds, 6, 12)
        r = ds.valuation
        mx = ds.max_degree
        p = ds.periodicity
        for i in range(7):
            for j in range(13):
                v = t.value(i, j)
                if j < i * r or (mx is not INFINITE and j > i * mx):
                    assert v == 0
                if v and p is not INFINITE:
                    assert (j - i * r) % p == 0

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_convolution_identity(self, ds):
        # Set^(i+i') = Set^i * Set^i' means the rows convolve binomially
        t = build_table(ds, 8, 12)
        for i in range(5):
            for i2 in range(5):
                for j in range(13):
                    direct = t.value(i + i2, j)
                    conv = sum(math.comb(j, k) * t.value(i, k) * t.value(i2, j - k)
                               for k in range(j + 1))
                    assert direct == conv

    def test_power_coefficient_matches_table(self):
        for ds in FAMILY:
            t = build_table(ds, 6, 9)
            for n in (0, 3, 6):
                for j in (0, 4, 9):
                    assert power_coefficient(ds, n, j) == t.value(n, j)


class TestFeasibility:
    def test_range_violations(self):
        assert infeasibility_reason(DegreeSet.min_degree(2), 4, 1) is not None
        assert infeasibility_reason(DegreeSet.finite([1, 3]), 2, 4) is not None

    def test_periodicity_violation(self):
        # 2m - n*min(D) = 4 - 3 = 1 is not divisible by the periodicity 2
        assert infeasibility_reason(DegreeSet.finite([1, 3]), 3, 2) is not None

    def test_feasible_cases(self):
        assert infeasibility_reason(DegreeSet.even(), 4, 2) is None
        assert infeasibility_reason(DegreeSet.finite([1, 3]), 2, 1) is None

    def test_empty_graph(self):
        assert infeasibility_reason(DegreeSet.even(), 0, 0) is None
        assert infeasibility_reason(DegreeSet.even(), 0, 1) is not None

    @pytest.mark.parametrize("ds", [DegreeSet.finite(members) for members in
                                    ((0, 5, 7), (1, 2, 8), (3, 10), (0, 9, 13),
                                     (0, 4, 9, 11), (2, 11, 12))], ids=str)
    def test_exact_on_grid(self, ds):
        # None exactly when some degree sequence exists, for every m in range
        for n in range(13):
            for m in range(n * ds.max_degree // 2 + 2):
                assert ((infeasibility_reason(ds, n, m) is None)
                        == (power_coefficient(ds, n, 2 * m) != 0)), (n, m)

    def test_band_edge_is_tight(self):
        # Steps 12 and 13 never sum to (13-1)^2 - 13 = 131, which a band
        # starting any lower than (a-1)^2 would call feasible from n = 20 on
        ds = DegreeSet.finite([1, 13, 14])
        table = build_table(ds, 30, 420)
        for n in range(13, 31):
            for m in range(n * 14 // 2 + 1):
                assert ((infeasibility_reason(ds, n, m) is None)
                        == (table.value(n, 2 * m) != 0)), (n, m)

    def test_middle_band_needs_no_search(self):
        assert infeasibility_reason(DegreeSet.finite([0, 5, 7]), 10 ** 6,
                                    3 * 10 ** 6) is None

    def test_top_end_reflects(self):
        # 7n - 2m is the total deficit below degree 7, a sum of 2s and 7s
        ds, n = DegreeSet.finite([0, 5, 7]), 10 ** 6 + 1
        for deficit in (1, 3, 5, 7, 9, 11):
            reason = infeasibility_reason(ds, n, (7 * n - deficit) // 2)
            assert (reason is None) == (deficit >= 7), deficit


    @pytest.mark.parametrize("ds", FAMILY + [DegreeSet.finite([0, 5, 7]),
                                             DegreeSet.min_degree(3)],
                             ids=str)
    def test_degrees_capped_at_top(self, ds):
        # with top, None exactly when some sequence of degrees from the set
        # up to top sums to 2m, which the listed capped set decides
        for n in range(1, 9):
            for top in range(n):
                kept = list(ds.members_up_to(top))
                for m in range(n * top // 2 + 3):
                    reason = infeasibility_reason(ds, n, m, top=top)
                    feasible = bool(kept) and power_coefficient(
                        DegreeSet.finite(kept), n, 2 * m) != 0
                    assert (reason is None) == feasible, (n, top, m)

    def test_cap_above_every_degree_changes_nothing(self):
        ds = DegreeSet.finite([1, 3])
        for n, m in ((2, 4), (3, 2), (2, 1), (3, 3)):
            assert (infeasibility_reason(ds, n, m, top=3)
                    == infeasibility_reason(ds, n, m))


class TestMultigraphWeight:
    def test_unconstrained_small(self):
        assert multigraph_weight(DegreeSet.min_degree(0), 2, 1) == 2

    def test_regular_closed_form(self):
        assert multigraph_weight(DegreeSet.finite([2]), 3, 3) == Fraction(15, 8)
        assert multigraph_weight(DegreeSet.finite([2]), 3, 2) == 0

    def test_one_three(self):
        assert multigraph_weight(DegreeSet.finite([1, 3]), 2, 1) == 1

    def test_feasibility_zeros(self):
        assert multigraph_weight(DegreeSet.finite([1, 3]), 3, 2) == 0
        assert multigraph_weight(DegreeSet.min_degree(3), 2, 1) == 0

    def test_unconstrained_closed_form_grid(self):
        ds = DegreeSet.min_degree(0)
        for n in range(1, 13):
            for m in range(0, 13):
                expected = Fraction(n ** (2 * m), 2 ** m * math.factorial(m))
                assert multigraph_weight(ds, n, m) == expected

    def test_empty_instances(self):
        for ds in FAMILY:
            assert multigraph_weight(ds, 0, 0) == 1
            assert multigraph_weight(ds, 0, 2) == 0


def mixed_coefficient(ds, a, b, j):
    """j! [x^j] Set_{D-2}^a Set_D^b from freshly built tables."""
    return mixed_table_coefficient(build_table(ds.shift(2), a, j),
                                   build_table(ds, b, j), a, b, j)


class TestMixedCoefficient:
    def test_empty_first_factor_reduces(self):
        ds = DegreeSet.finite([2, 3])
        for b in range(4):
            for j in range(7):
                assert (mixed_coefficient(ds, 0, b, j)
                        == power_coefficient(ds, b, j))

    def test_even_self_shift(self):
        # even - 2 = even, so the mixed power collapses to a plain power
        ds = DegreeSet.even()
        for a in range(3):
            for b in range(3):
                for j in range(9):
                    assert (mixed_coefficient(ds, a, b, j)
                            == power_coefficient(ds, a + b, j))

    def test_min_two_shift_is_exp(self):
        assert mixed_coefficient(DegreeSet.min_degree(2), 1, 0, 1) == 1


# Sets beyond FAMILY whose single-coefficient routes differ: deeper minimum
# degrees run the half band sweep joined by one convolution, 0,4,7 runs
# Miller's recurrence with a nonzero constant term, and 3,6,9 steps it by
# periodicity 3.
WIDER = [DegreeSet.min_degree(3), DegreeSet.min_degree(5),
         DegreeSet.finite([0, 4, 7]), DegreeSet.finite([3, 6, 9])]
ALL_ROUTES = FAMILY + WIDER
ALL_ROUTE_IDS = FAMILY_IDS + [str(d) for d in WIDER]


def zero_cell(ds, n, j):
    """Whether (n, j) lies off the support of Set_D^n."""
    r, mx, p = ds.valuation, ds.max_degree, ds.periodicity
    if j < n * r or (mx is not INFINITE and j > n * mx):
        return True
    return p is not INFINITE and (j - n * r) % p != 0


class TestPowerCoefficientRoutes:
    @pytest.mark.parametrize("ds", ALL_ROUTES, ids=ALL_ROUTE_IDS)
    def test_matches_reference_grid(self, ds):
        ref = reference_table(ds, 8, 24)
        for n in range(9):
            for j in range(25):
                assert power_coefficient(ds, n, j) == ref[n][j], (n, j)

    @pytest.mark.parametrize("ds", ALL_ROUTES, ids=ALL_ROUTE_IDS)
    def test_zero_cells(self, ds):
        for n in range(9):
            for j in range(25):
                if zero_cell(ds, n, j):
                    assert power_coefficient(ds, n, j) == 0, (n, j)
        assert power_coefficient(ds, 0, 0) == 1
        assert all(power_coefficient(ds, 0, j) == 0 for j in range(1, 25))

    @pytest.mark.parametrize("ds", ALL_ROUTES + [DegreeSet.finite([4])],
                             ids=ALL_ROUTE_IDS + ["4"])
    def test_columns_match_the_grid(self, ds):
        # a degree draw's column, T[n][j - d] over the members d <= j, and
        # columns with gaps, zero cells and k = 0
        ref = reference_table(ds, 8, 24)
        for n in range(9):
            for j in range(25):
                ks = [j - d for d in ds.members_up_to(j)]
                assert list(column_coefficients(ds, n, ks)) == \
                    [ref[n][k] for k in ks], (n, j)
            for ks in ([24, 23, 17, 16, 3, 0], [5], [], [20, 12, 11, 10, 2]):
                assert list(column_coefficients(ds, n, ks)) == \
                    [ref[n][k] for k in ks], (n, ks)

    def test_one_dispatch(self, monkeypatch):
        # power_coefficient reads one cell of a column, and a min=delta
        # column computes its cells without calling power_coefficient
        from degcount import tables
        column, power = tables.column_coefficients, tables.power_coefficient
        calls = {"column": 0, "power": 0}

        def counted(name, routine):
            def call(*args):
                calls[name] += 1
                return routine(*args)
            return call

        monkeypatch.setattr(tables, "column_coefficients",
                            counted("column", column))
        monkeypatch.setattr(tables, "power_coefficient",
                            counted("power", power))
        for ds in ALL_ROUTES:
            assert power(ds, 6, 14) == reference_table(ds, 6, 14)[6][14]
        assert calls == {"column": len(ALL_ROUTES), "power": 0}
        ds = DegreeSet.min_degree(2)
        ks = [30, 29, 28, 20, 16, 15]
        ref = reference_table(ds, 8, 30)
        assert list(column(ds, 8, ks)) == [ref[8][k] for k in ks]
        assert calls["power"] == 0

    @pytest.mark.parametrize("ds", ALL_ROUTES, ids=ALL_ROUTE_IDS)
    def test_columns_of_one_sequence_share_their_powers(self, ds):
        # the columns an exact degree draw reads, vertex by vertex, each
        # sharing its powers between its own cells; each stops at its
        # (1 + i % 3)-th nonzero cell or at its last one, and the next
        # vertex takes the cell read last
        n = 12
        ref = reference_table(ds, n, 72)
        j = next(j for j in (72, 30, 24) if ref[n][j])
        for i in range(n, 1, -1):
            ks = [j - d for d in ds.members_up_to(j)]
            read = []
            for k, cell in zip(ks, column_coefficients(ds, i - 1, ks)):
                assert cell == ref[i - 1][k], (i, k)
                if cell:
                    read.append(k)
                    if len(read) > i % 3:
                        break
            j = read[-1]

    @pytest.mark.parametrize("ds, n, j, mib", [
        (DegreeSet.min_degree(1), 1024, 3072, 3.0),
        (DegreeSet.even(), 1024, 2048, 1.2)], ids=["min=1", "even"])
    def test_lone_cell_streams_its_powers(self, ds, n, j, mib):
        # a one-cell column keeps only the lower half of its powers alive:
        # these peaked at 1.58 and 0.47 MiB under tracemalloc, where a
        # column that holds all its powers peaked at 6.93 and 2.06 MiB
        import tracemalloc
        tracemalloc.start()
        try:
            power_coefficient(ds, n, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2 ** 20

    @pytest.mark.parametrize("n", [40, 61])
    @pytest.mark.parametrize("ds", ALL_ROUTES, ids=ALL_ROUTE_IDS)
    def test_matches_full_table_at_larger_n(self, ds, n):
        low = n * ds.valuation
        js = set(range(max(low - 3, 0), low + 25)) | {2 * n - 1, 2 * n, 2 * n + 1}
        if ds.max_degree is not INFINITE:
            top = n * ds.max_degree
            js |= set(range(top - 3, top + 3))
        t = build_table(ds, n, max(js))
        nonzero = off = 0
        for j in sorted(js):
            value = power_coefficient(ds, n, j)
            assert value == t.value(n, j), j
            nonzero += value != 0
            off += zero_cell(ds, n, j)
        assert nonzero
        # n^j has no zero cells; every other set has some among these j
        assert off or ds == DegreeSet.min_degree(0)

    @pytest.mark.parametrize("n", [128, 129])
    @pytest.mark.parametrize("delta", [2, 3])
    def test_half_sweep_joins_both_halves(self, delta, n):
        # n = 128 joins two equal halves, n = 129 rows 64 and 65
        ds = DegreeSet.min_degree(delta)
        low = delta * n
        t = build_table(ds, n, low + 40)
        for j in range(low, low + 41):
            assert power_coefficient(ds, n, j) == t.value(n, j), j

    @pytest.mark.parametrize("j", [0, 1, 2, 63, 64, 1000])
    def test_shared_powers(self, j):
        from degcount.tables import _powers
        assert list(_powers(300, j)) == [x ** j for x in range(301)]
        assert list(_powers(0, j)) == [0 ** j]

    def test_inexact_division_raises(self):
        from degcount.tables import _exact_div
        assert _exact_div(12, 4) == 3
        with pytest.raises(ArithmeticError):
            _exact_div(13, 4)


def crossover(delta, n):
    """The least excess w at which min=delta takes the half sweep."""
    from degcount.tables import _peel_is_cheaper
    return next(w for w in range(3 * n + 3)
                if not _peel_is_cheaper(delta, n, w))


def row_n(delta, n, w_max):
    """Row n of min=delta by excess, T[n][delta*n + w] for w <= w_max."""
    low = delta * n
    rows = band_rows(DegreeSet.min_degree(delta), low + w_max,
                     [(1, 0)] * n + [(low, low + w_max)])
    return list(rows)[n]


class TestMinDeltaRoutes:
    @pytest.mark.parametrize("n", [40, 61, 128, 129])
    @pytest.mark.parametrize("delta", [2, 3, 5])
    def test_rule_weighs_each_cell_by_its_half_edges(self, delta, n):
        # the closed forms are the sums of J over the cells each route fills
        from degcount.tables import _peel_is_cheaper
        for w in range(0, 3 * n, 7):
            halves = sum(delta * i + e for i in range(1, (n + 1) // 2 + 1)
                         for e in range(w + 1))
            peel = sum((delta + 1) * i + e for i in range(1, min(n, w) + 1)
                       for e in range(w - i + 1))
            assert _peel_is_cheaper(delta, n, w) == (peel < halves), w
        c = crossover(delta, n)
        assert 0.8 * n < c < 0.9 * n
        assert all(_peel_is_cheaper(delta, n, w) for w in range(c))
        assert not any(_peel_is_cheaper(delta, n, w)
                       for w in range(c, 3 * n))

    @pytest.mark.parametrize("n", [40, 61, 128, 129])
    @pytest.mark.parametrize("delta", [2, 3, 5])
    def test_both_routes_match_full_table(self, delta, n):
        from degcount.tables import _min_halves, _min_peel
        c = crossover(delta, n)
        excesses = sorted({0, 1, c - 1, c, c + 1, n, n + n // 2})
        row = row_n(delta, n, excesses[-1])
        ds = DegreeSet.min_degree(delta)
        for w in excesses:
            j = delta * n + w
            expected = row[w]
            assert _min_peel(delta, n, w) == expected, w
            assert _min_halves(delta, n, w) == expected, w
            assert power_coefficient(ds, n, j) == expected, w

    @pytest.mark.parametrize("n", [128, 129])
    @pytest.mark.parametrize("delta", [2, 3])
    def test_half_sweep_at_excess_past_n(self, delta, n):
        from degcount.tables import _min_halves
        row = row_n(delta, n, n + 40)
        ds = DegreeSet.min_degree(delta)
        for w in range(n, n + 41):
            j = delta * n + w
            assert _min_halves(delta, n, w) == row[w], w
            assert power_coefficient(ds, n, j) == row[w], w

    @pytest.mark.parametrize("delta, n, w", [(2, 20_000, 40), (3, 10_000, 20)])
    def test_lower_end_at_large_n(self, delta, n, w):
        # T[n][delta*n + w] reads only the degrees up to delta + w, and on
        # that finite set power_coefficient takes Miller's recurrence
        j = delta * n + w
        value = power_coefficient(DegreeSet.min_degree(delta), n, j)
        finite = DegreeSet.finite(range(delta, delta + w + 1))
        assert value == power_coefficient(finite, n, j)


class TestMixedTableCoefficient:
    def test_marked_sums_share_the_tables_routine(self):
        from degcount import marked, tables
        assert marked.mixed_table_coefficient is tables.mixed_table_coefficient

    @pytest.mark.parametrize("ds", [d for d in ALL_ROUTES if str(d) != "2"],
                             ids=str)
    def test_matches_reference_convolution(self, ds):
        shifted = ds.shift(2)
        ref_a = reference_table(shifted, 4, 12)
        ref_b = reference_table(ds, 4, 12)
        ta, tb = build_table(shifted, 4, 12), build_table(ds, 4, 12)
        for a in range(5):
            for b in range(5):
                for j in range(13):
                    expected = sum(math.comb(j, k) * ref_a[a][k] * ref_b[b][j - k]
                                   for k in range(j + 1))
                    assert mixed_table_coefficient(ta, tb, a, b, j) == expected
