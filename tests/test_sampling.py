import hashlib
import json
import math
from array import array
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from degcount import (DegreeSet, DegreeSequenceSampler,
                      InfeasibleRegimeError, Multigraph, SampleReport,
                      SamplerExhausted, attempt_budget, boltzmann_degree_law,
                      boltzmann_sample, boltzmann_tune, build_table, make_rng,
                      mean_degree, pair_half_edges, parse_degree_set,
                      power_coefficient, resolve)
from degcount import sampling
from degcount.tables import band_rows
from degcount.sampling import (_WORD_BITS, _edge_codes, _is_simple_pairing,
                               _multigraph, _pair_endpoints)

from conftest import FAMILY, FAMILY_IDS
from oracle import GraphClass, classify, edge_occurrences

WORD = 1 << _WORD_BITS


def sequence_law(ds, n, m):
    """All degree sequences of the instance with their exact probabilities."""
    members = list(ds.members_up_to(2 * m))
    weights = {}
    for seq in product(members, repeat=n):
        if sum(seq) == 2 * m:
            w = Fraction(1)
            for d in seq:
                w /= math.factorial(d)
            weights[seq] = w
    total = sum(weights.values(), Fraction(0))
    return {seq: w / total for seq, w in weights.items()}


class StubRng:
    """Generator stand-in whose integers() hands out fixed 64-bit words.

    Its bit generator is no known 64-bit source, so the sampler reads every
    word through integers(), which counts them.
    """

    bit_generator = None

    def __init__(self, words):
        self.words = list(words)
        self.used = 0

    def integers(self, high, size=None, dtype=None):
        assert high == WORD and dtype == np.uint64
        if size is None:
            self.used += 1
            return np.uint64(self.words.pop(0))
        batch, self.words = self.words[:size], self.words[size:]
        self.used += size
        return np.array(batch, dtype=np.uint64)


class TestLazyDraw:
    # min=0, n=2, m=1: the last vertex has weights 1, 2, 1 over degrees 0, 1,
    # 2 out of T = 4, so u in [1/4, 3/4) gives degree 1
    def test_word_on_a_boundary_takes_the_upper_side(self):
        sampler = DegreeSequenceSampler(DegreeSet.min_degree(0), 2, 1)
        rng = StubRng([WORD // 4])  # a*T == c_0 * 2^64 exactly
        assert sampler.sample_degrees(rng) == [1, 1]
        assert rng.used == 1

    def test_word_just_below_a_boundary_takes_the_lower_side(self):
        sampler = DegreeSequenceSampler(DegreeSet.min_degree(0), 2, 1)
        rng = StubRng([WORD // 4 - 1])
        assert sampler.sample_degrees(rng) == [2, 0]
        assert rng.used == 1

    # {1,2}, n=3, m=2: the last vertex has weights 24, 12 over degrees 1, 2
    # out of T = 36, so the boundary u = 2/3 is no multiple of 2^-64 and the
    # word floor(2/3 * 2^64) straddles it
    STRADDLE = (2 * WORD) // 3

    @pytest.mark.parametrize("refine, degree", [(0, 1), (WORD - 1, 2)])
    def test_straddle_reads_exactly_one_more_word(self, refine, degree):
        sampler = DegreeSequenceSampler(DegreeSet.finite([1, 2]), 3, 2)
        total = power_coefficient(DegreeSet.finite([1, 2]), 3, 4)
        assert total == 36
        assert self.STRADDLE * total < 24 * WORD < (self.STRADDLE + 1) * total
        # the batch holds one word for each of vertices 3 and 2 (vertex 1
        # takes what is left); the refinement is read after it
        rng = StubRng([self.STRADDLE, 0, refine, 7])
        seq = sampler.sample_degrees(rng)
        assert seq[2] == degree
        assert sum(seq) == 4
        assert rng.used == 3
        assert rng.words == [7]

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_words_next_to_every_boundary(self, ds):
        # u just below a prefix-weight boundary c_d takes d, just above it
        # takes the next member; a word whose interval holds the boundary
        # reads one more word, and that word picks the side
        def no_refine():
            raise AssertionError("read a refinement word")

        n, m = 4, 4
        sampler = DegreeSequenceSampler(ds, n, m)
        table = build_table(ds, n, 2 * m)
        for i in range(2, n + 1):
            for j in range(2 * m + 1):
                total = table.value(i, j)
                if not total:
                    continue
                cums = []
                for d in ds.members_up_to(j):
                    w = math.comb(j, d) * table.value(i - 1, j - d)
                    if w:
                        cums.append((d, (cums[-1][1] if cums else 0) + w))
                def draw(word, one):
                    degree, cell = sampler._draw_degree(i, j, word, one,
                                                        None)
                    assert cell == table.value(i - 1, j - degree)
                    return degree

                for (d, c), (after, _) in zip(cums, cums[1:]):
                    a, rem = divmod(c * WORD, total)
                    assert draw(a - 1, no_refine) == d
                    if rem == 0:
                        assert draw(a, no_refine) == after
                    else:
                        assert draw(a, lambda: 0) == d
                        assert draw(a, lambda: WORD - 1) == after
                        assert draw(a + 1, no_refine) == after

    def test_rng_stream_is_one_word_per_drawn_vertex(self):
        # n - 1 words from the bit generator and nothing else
        sampler = DegreeSequenceSampler(DegreeSet.even(), 30, 20)
        rng = make_rng(3)
        twin = make_rng(3)
        sampler.sample_degrees(rng)
        twin.bit_generator.random_raw(29)
        assert rng.bit_generator.random_raw() == twin.bit_generator.random_raw()

    def test_32_bit_generator_reads_full_words(self):
        # MT19937's random_raw() yields 32-bit words, so its words come from
        # integers(), two raw outputs per word, in the same count
        sampler = DegreeSequenceSampler(DegreeSet.even(), 30, 20)
        rng = np.random.Generator(np.random.MT19937(3))
        twin = np.random.Generator(np.random.MT19937(3))
        sampler.sample_degrees(rng)
        twin.integers(WORD, size=29, dtype=np.uint64)
        assert rng.bit_generator.random_raw() == twin.bit_generator.random_raw()

    @pytest.mark.parametrize("bits", [np.random.MT19937, np.random.Philox,
                                      np.random.SFC64, np.random.PCG64DXSM])
    def test_exact_law_for_other_bit_generators(self, bits):
        # empirical frequencies against the enumerated law, 4 sigma slack
        ds, n, m = DegreeSet.min_degree(0), 3, 2
        law = sequence_law(ds, n, m)
        sampler = DegreeSequenceSampler(ds, n, m)
        rng = np.random.Generator(bits(11))
        trials = 20_000
        counts = Counter(tuple(sampler.sample_degrees(rng))
                         for _ in range(trials))
        assert set(counts) <= set(law)
        for seq, prob in law.items():
            p = float(prob)
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(counts[seq] / trials - p) <= 4 * sigma + 1e-9


def count_exact_draws(monkeypatch):
    """Wrap _draw_degree so that the returned Counter counts its calls."""
    calls = Counter()
    exact = DegreeSequenceSampler._draw_degree

    def counted(self, *args):
        calls["exact"] += 1
        return exact(self, *args)

    monkeypatch.setattr(DegreeSequenceSampler, "_draw_degree", counted)
    return calls


SCREENED = [("even", 500, 250), ("2,3", 300, 375), ("even", 200, 400)]
NARROW = [("even", 60, 30), ("2,3", 40, 50), ("min=2", 30, 45)]


class TestFloatScreen:
    @pytest.mark.parametrize("degrees, n, m", SCREENED,
                             ids=[f"{d}-{n}-{m}" for d, n, m in SCREENED])
    def test_exact_route_alone_gives_the_same_sequences(self, monkeypatch,
                                                        degrees, n, m):
        sampler = DegreeSequenceSampler(parse_degree_set(degrees), n, m)
        screened = [sampler.sample_degrees(make_rng(s)) for s in range(10)]
        calls = count_exact_draws(monkeypatch)
        # a margin of 1 leaves no u clear of the first prefix ratio
        monkeypatch.setattr(sampling, "_SCREEN_MARGIN", 1.0)
        exact = [sampler.sample_degrees(make_rng(s)) for s in range(10)]
        assert calls["exact"] == 10 * (n - 1)
        assert exact == screened

    @pytest.mark.parametrize("degrees, n, m", SCREENED[:2],
                             ids=[f"{d}-{n}-{m}" for d, n, m in SCREENED[:2]])
    def test_exact_route_is_rare(self, monkeypatch, degrees, n, m):
        sampler = DegreeSequenceSampler(parse_degree_set(degrees), n, m)
        calls = count_exact_draws(monkeypatch)
        for seed in range(20):
            sampler.sample_degrees(make_rng(seed))
        assert calls["exact"] < 20 * (n - 1) / 1000

    @pytest.mark.parametrize("degrees, n, m", SCREENED[:2],
                             ids=[f"{d}-{n}-{m}" for d, n, m in SCREENED[:2]])
    def test_outside_the_screen_limit_every_draw_is_exact(self, monkeypatch,
                                                          degrees, n, m):
        ds = parse_degree_set(degrees)
        screened = DegreeSequenceSampler(ds, n, m)
        expected = [screened.sample_degrees(make_rng(s)) for s in range(10)]
        monkeypatch.setattr(sampling, "_SCREEN_LIMIT", 1)
        unscreened = DegreeSequenceSampler(ds, n, m)
        calls = count_exact_draws(monkeypatch)
        assert [unscreened.sample_degrees(make_rng(s))
                for s in range(10)] == expected
        assert calls["exact"] == 10 * (n - 1)

    @pytest.mark.parametrize("degrees, n, m", NARROW[:2],
                             ids=[f"{d}-{n}-{m}" for d, n, m in NARROW[:2]])
    def test_every_cell_computed_exactly(self, monkeypatch, degrees, n, m):
        # with every vertex exact, _draw_degree computes each cell it needs,
        # and the draws are the screened ones: the first row total from
        # power_coefficient, the terms of each draw from one column pass,
        # and every later row total is the cell the draw before chose
        sampler = DegreeSequenceSampler(parse_degree_set(degrees), n, m)
        for seed in range(10):
            screened = sampler.sample_degrees(make_rng(seed))
            monkeypatch.setattr(sampling, "_SCREEN_MARGIN", 1.0)
            draws = count_exact_draws(monkeypatch)
            cells = count_power_coefficient_calls(monkeypatch)
            columns = Counter()
            column = sampling.column_coefficients

            def counted(*args):
                columns["passes"] += 1
                return column(*args)

            monkeypatch.setattr(sampling, "column_coefficients", counted)
            assert sampler.sample_degrees(make_rng(seed)) == screened
            assert draws["exact"] == columns["passes"] == n - 1
            assert cells["power_coefficient"] == 1
            monkeypatch.undo()

    def test_screen_term_matches_the_exact_ratio(self):
        # every term exp(L(i-1, j-d) - L(i, j) - ln d!) the draws can scan,
        # against comb(j, d) T[i-1][j-d] / T[i][j] in Fractions
        tolerance = Fraction(2e-9)
        for degrees, n, m in [("even", 200, 400), ("min=2", 200, 300)]:
            sampler = DegreeSequenceSampler(parse_degree_set(degrees), n, m)
            table = build_table(sampler.degree_set, n, 2 * m)
            cell = table.value
            checked = 0
            for seed in range(20):
                seq = sampler.sample_degrees(make_rng(seed))
                j = 2 * m
                for i in range(n, 1, -1):
                    top = cell_log(table, i, j)
                    for d in sampler._members:
                        if d > seq[i - 1]:
                            break
                        w = cell(i - 1, j - d)
                        if not w:
                            continue
                        term = math.exp(cell_log(table, i - 1, j - d) - top
                                        - math.log(math.factorial(d)))
                        exact = Fraction(math.comb(j, d) * w, cell(i, j))
                        assert abs(Fraction(term) - exact) <= tolerance * exact
                        checked += 1
                    j -= seq[i - 1]
            assert checked > 20 * n


def check_exact_law_on_tiny_instances(ds):
    # empirical frequencies against the enumerated law, 4 sigma slack
    for n, m in ((2, 2), (3, 2)):
        law = sequence_law(ds, n, m)
        if not law:
            continue
        sampler = DegreeSequenceSampler(ds, n, m)
        rng = make_rng(7)
        trials = 20_000
        counts = Counter(tuple(sampler.sample_degrees(rng))
                         for _ in range(trials))
        assert set(counts) <= set(law)
        for seq, prob in law.items():
            p = float(prob)
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(counts[seq] / trials - p) <= 4 * sigma + 1e-9


def count_power_coefficient_calls(monkeypatch):
    """Wrap power_coefficient, which computes the row total of an exact draw
    that no exact draw before it handed on."""
    calls = Counter()
    exact = sampling.power_coefficient

    def counted(*args):
        calls["power_coefficient"] += 1
        return exact(*args)

    monkeypatch.setattr(sampling, "power_coefficient", counted)
    return calls


class TestTableBand:
    @pytest.mark.parametrize("degrees, n, m", NARROW,
                             ids=[f"{d}-{n}-{m}" for d, n, m in NARROW])
    def test_slack_alone_gives_the_same_sequences(self, monkeypatch,
                                                  degrees, n, m):
        ds = parse_degree_set(degrees)
        wide = DegreeSequenceSampler(ds, n, m)
        expected = [wide.sample_degrees(make_rng(s)) for s in range(10)]
        monkeypatch.setattr(sampling, "_BAND_SIGMAS", 0)
        narrow = DegreeSequenceSampler(ds, n, m)
        assert [narrow.sample_degrees(make_rng(s))
                for s in range(10)] == expected
        # without the slack too, most vertices meet a cell off the band
        # and go to the exact draw
        monkeypatch.setattr(sampling, "_BAND_SLACK", 0)
        bare = DegreeSequenceSampler(ds, n, m)
        calls = count_exact_draws(monkeypatch)
        assert [bare.sample_degrees(make_rng(s))
                for s in range(10)] == expected
        assert calls["exact"] > 5 * (n - 1)
        # a second pass is decided in part from prefix slots that the first
        # filled
        for sampler in (narrow, bare):
            assert [sampler.sample_degrees(make_rng(s))
                    for s in range(10)] == expected

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_exact_law_with_the_slack_alone(self, monkeypatch, ds):
        monkeypatch.setattr(sampling, "_BAND_SIGMAS", 0)
        check_exact_law_on_tiny_instances(ds)

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_exact_law_with_no_band(self, monkeypatch, ds):
        monkeypatch.setattr(sampling, "_BAND_SIGMAS", 0)
        monkeypatch.setattr(sampling, "_BAND_SLACK", 0)
        check_exact_law_on_tiny_instances(ds)

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_cells_off_an_empty_band_are_exact(self, monkeypatch, ds):
        # with no band at all only each row's centre is kept, as the log of
        # its exact value; every cell off it is read by the exact draw
        # alone, so the draws are those of the default band
        n, m = 6, 6
        try:
            wide = DegreeSequenceSampler(ds, n, m)
        except InfeasibleRegimeError:
            pytest.skip("no degree sequence")
        monkeypatch.setattr(sampling, "_BAND_SIGMAS", 0)
        monkeypatch.setattr(sampling, "_BAND_SLACK", 0)
        sampler = DegreeSequenceSampler(ds, n, m)
        assert any(len(row) < 2 * m + 1 for row in sampler._log_cells)
        check_memo(sampler)
        assert [sampler.sample_degrees(make_rng(s)) for s in range(10)] == \
            [wide.sample_degrees(make_rng(s)) for s in range(10)]

    @pytest.mark.parametrize("slack", [0, 1])
    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_band_rows_equal_the_full_rows_on_a_narrow_band(self, monkeypatch,
                                                            ds, slack):
        # the row source computes each row only on the closure of the
        # band; with no sigmas and no slack some spans are empty
        monkeypatch.setattr(sampling, "_BAND_SIGMAS", 0)
        monkeypatch.setattr(sampling, "_BAND_SLACK", slack)
        n, m = 24, 20
        spans = sampling._band(n, 2 * m, 1.5)
        full = build_table(ds, n, 2 * m)
        rows = list(band_rows(ds, spans))
        assert len(rows) == n + 1
        for i, ((lo, hi), row) in enumerate(zip(spans, rows)):
            assert row == full.rows[i][lo:hi + 1], i

    @pytest.mark.parametrize("degrees, n, m", SCREENED,
                             ids=[f"{d}-{n}-{m}" for d, n, m in SCREENED])
    def test_draws_stay_on_the_band(self, monkeypatch, degrees, n, m):
        # a row total off the band would go to the exact draw, which
        # computes it with power_coefficient
        sampler = DegreeSequenceSampler(parse_degree_set(degrees), n, m)
        calls = count_power_coefficient_calls(monkeypatch)
        for seed in range(20):
            sampler.sample_degrees(make_rng(seed))
        assert calls["power_coefficient"] == 0

    @pytest.mark.parametrize("degrees, n, m, share",
                             [("even", 500, 250, 0.50), ("2,3", 300, 375, 0.15)])
    def test_band_keeps_a_fraction_of_the_cells(self, degrees, n, m, share):
        sampler = DegreeSequenceSampler(parse_degree_set(degrees), n, m)
        kept = sum(len(row) for row in sampler._log_cells)
        assert kept < share * (n + 1) * (2 * m + 1)


def cell_log(table, i, k):
    """L(i, k) = ln T[i][k] - ln k! from a full table, -inf for a zero cell."""
    w = table.value(i, k)
    return math.log(w) - math.log(math.factorial(k)) if w else -math.inf


def check_memo(sampler):
    """The memo has one slot per band cell, cell (i, k) in slot k - lo of
    row i, and every slot holds its cell's log."""
    n, m = sampler.n, sampler.m
    table = build_table(sampler.degree_set, n, 2 * m)
    spans = sampler._spans
    assert len(sampler._log_cells) == len(spans) == n + 1
    for i, ((lo, hi), memo) in enumerate(zip(spans, sampler._log_cells)):
        assert 0 <= lo and hi <= 2 * m
        assert len(memo) == max(hi - lo + 1, 0)
        assert list(memo) == [cell_log(table, i, k)
                              for k in range(lo, hi + 1)], i


class TestLogMemo:
    @pytest.mark.parametrize("degrees, n, m", SCREENED,
                             ids=[f"{d}-{n}-{m}" for d, n, m in SCREENED])
    def test_warm_memo_gives_the_same_sequences(self, degrees, n, m):
        ds = parse_degree_set(degrees)
        warm = DegreeSequenceSampler(ds, n, m)
        for seed in range(100, 150):
            warm.sample_degrees(make_rng(seed))
        fresh = DegreeSequenceSampler(ds, n, m)
        assert [warm.sample_degrees(make_rng(s)) for s in range(10)] == \
            [fresh.sample_degrees(make_rng(s)) for s in range(10)]

    @pytest.mark.parametrize("degrees, n, m", SCREENED,
                             ids=[f"{d}-{n}-{m}" for d, n, m in SCREENED])
    def test_filled_slots_hold_the_cell_logs(self, degrees, n, m):
        # every log slot is filled when the sampler is built, and draws
        # write none of them (they write only prefix slots)
        sampler = DegreeSequenceSampler(parse_degree_set(degrees), n, m)
        check_memo(sampler)
        before = [memo.tobytes() for memo in sampler._log_cells]
        for seed in range(20):
            sampler.sample_degrees(make_rng(seed))
        assert [memo.tobytes() for memo in sampler._log_cells] == before

    @pytest.mark.parametrize("degrees, n, m", NARROW,
                             ids=[f"{d}-{n}-{m}" for d, n, m in NARROW])
    def test_no_off_band_cell_is_stored(self, monkeypatch, degrees, n, m):
        monkeypatch.setattr(sampling, "_BAND_SIGMAS", 0)
        monkeypatch.setattr(sampling, "_BAND_SLACK", 0)
        sampler = DegreeSequenceSampler(parse_degree_set(degrees), n, m)
        calls = count_exact_draws(monkeypatch)
        first = [sampler.sample_degrees(make_rng(s)) for s in range(10)]
        assert calls["exact"] > 5 * (n - 1)
        check_memo(sampler)
        # the same draws again, whose exact draws compute cells off the
        # band, leave the memo as it was
        assert [sampler.sample_degrees(make_rng(s))
                for s in range(10)] == first
        check_memo(sampler)


    def test_build_keeps_floats_not_integers(self):
        # the rows are streamed and only their logs kept: building even
        # (1000, 500) peaked at 3.6 MiB under tracemalloc, where keeping
        # the band's integers as well peaked at 89.8 MiB
        import tracemalloc
        tracemalloc.start()
        try:
            DegreeSequenceSampler(DegreeSet.even(), 1000, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


def stored_prefixes(sampler):
    """(i, j, c, value) of every prefix slot a draw has filled: the screen's
    running sum for cell (i, j) after its first (c = 0) or second (c = 1)
    member."""
    for i, ((lo, _), slots) in enumerate(zip(sampler._spans,
                                             sampler._prefixes)):
        for slot, value in enumerate(slots):
            if not math.isnan(value):
                yield i, lo + slot // 2, slot % 2, value


class ScanSpy(tuple):
    """The sampler's members, counting each scan that iterates them or a
    slice of them (the exact draw's filter counts too)."""

    def __new__(cls, members, calls):
        spy = super().__new__(cls, members)
        spy.calls = calls
        return spy

    def __iter__(self):
        self.calls["scan"] += 1
        return super().__iter__()

    def __getitem__(self, key):
        item = super().__getitem__(key)
        return ScanSpy(item, self.calls) if isinstance(key, slice) else item


PREFIXED = SCREENED + [("min=2", 200, 300)]


def memo_log(sampler, i, k):
    """L(i, k) from the memo; the cell must lie on row i's band."""
    lo, hi = sampler._spans[i]
    assert lo <= k <= hi, (i, k)
    return sampler._log_cells[i][k - lo]


def check_stored_prefixes(sampler):
    """Every filled prefix slot holds the scan's float sum, term by term in
    the scan's order from math.exp, each term read from the memo; returns
    how many slots are filled."""
    stored = 0
    for i, j, c, value in stored_prefixes(sampler):
        top = memo_log(sampler, i, j)
        acc = 0.0
        for d in sampler._members[:c + 1]:
            acc += math.exp(memo_log(sampler, i - 1, j - d) - top
                            - sampler._log_fact[d])
        assert value == acc, (i, j, c)
        stored += 1
    return stored


class TestPrefixMemo:
    @pytest.mark.parametrize("degrees, n, m", PREFIXED,
                             ids=[f"{d}-{n}-{m}" for d, n, m in PREFIXED])
    def test_stored_prefixes_are_the_scans_floats(self, degrees, n, m):
        sampler = DegreeSequenceSampler(parse_degree_set(degrees), n, m)
        for seed in range(100):
            sampler.sample_degrees(make_rng(seed))
        assert check_stored_prefixes(sampler) > 1000

    @pytest.mark.parametrize("degrees, n, m", NARROW,
                             ids=[f"{d}-{n}-{m}" for d, n, m in NARROW])
    def test_screen_reads_only_the_memo(self, monkeypatch, degrees, n, m):
        # on a band of three cells a row most vertices meet a cell off it:
        # the screen computes none of them and hands those vertices to the
        # exact draw, the only caller of power_coefficient, and no slot
        # holds a sum that read a cell off the band
        ds = parse_degree_set(degrees)
        expected = [DegreeSequenceSampler(ds, n, m).sample_degrees(make_rng(s))
                    for s in range(20)]
        monkeypatch.setattr(sampling, "_BAND_SIGMAS", 0)
        monkeypatch.setattr(sampling, "_BAND_SLACK", 1)
        sampler = DegreeSequenceSampler(ds, n, m)
        calls = Counter()
        exact = DegreeSequenceSampler._draw_degree
        power = sampling.power_coefficient

        def draw(self, *args):
            calls["exact"] += 1
            calls["depth"] += 1
            try:
                return exact(self, *args)
            finally:
                calls["depth"] -= 1

        def coefficient(*args):
            calls["inside" if calls["depth"] else "outside"] += 1
            return power(*args)

        monkeypatch.setattr(DegreeSequenceSampler, "_draw_degree", draw)
        monkeypatch.setattr(sampling, "power_coefficient", coefficient)
        assert [sampler.sample_degrees(make_rng(s))
                for s in range(20)] == expected
        assert calls["outside"] == 0
        assert calls["inside"] > 0
        assert calls["exact"] > 20 * (n - 1) / 4
        assert check_stored_prefixes(sampler) > 0

    @pytest.mark.parametrize("degrees, n, m", SCREENED[:2],
                             ids=[f"{d}-{n}-{m}" for d, n, m in SCREENED[:2]])
    def test_warm_draws_rarely_scan(self, degrees, n, m):
        # the two samplers of the benchmark's sample workload: after 500
        # draws nearly every vertex is decided from its cell's two slots
        sampler = DegreeSequenceSampler(parse_degree_set(degrees), n, m)
        for seed in range(1000, 1500):
            sampler.sample_degrees(make_rng(seed))
        calls = Counter()
        sampler._members = ScanSpy(sampler._members, calls)
        for seed in range(20):
            sampler.sample_degrees(make_rng(seed))
        assert calls["scan"] < 0.1 * 20 * (n - 1)

    def test_threads_sharing_a_sampler_draw_as_alone(self):
        # concurrent draws fill the same slots, each with the same float,
        # so every thread draws what a lone sampler draws
        import sys
        import threading

        ds, n, m = parse_degree_set("2,3"), 60, 75
        alone = DegreeSequenceSampler(ds, n, m)
        expected = [alone.sample_degrees(make_rng(s)) for s in range(120)]
        shared = DegreeSequenceSampler(ds, n, m)
        got = {}

        def draw(first):
            for s in range(first, 120, 4):
                got[s] = shared.sample_degrees(make_rng(s))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(k,))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [got[s] for s in range(120)] == expected
        assert [slots.tobytes() for slots in shared._prefixes] == \
            [slots.tobytes() for slots in alone._prefixes]

    def test_unscreened_sampler_keeps_no_slots(self, monkeypatch):
        monkeypatch.setattr(sampling, "_SCREEN_LIMIT", 1)
        sampler = DegreeSequenceSampler(DegreeSet.even(), 60, 30)
        sampler.sample_degrees(make_rng(0))
        assert sampler._prefixes == []


class TestDegreeSequences:
    def test_unique_sequence(self):
        sampler = DegreeSequenceSampler(DegreeSet.finite([2]), 3, 3)
        rng = make_rng(5)
        for _ in range(10):
            assert sampler.sample_degrees(rng) == [2, 2, 2]

    @pytest.mark.parametrize("members, n, m", [((10,), 10, 50), ((2,), 2, 2)])
    def test_no_simple_graph_raises_before_drawing(self, members, n, m):
        sampler = DegreeSequenceSampler(DegreeSet.finite(members), n, m)

        class NoRng:
            bit_generator = None
        with pytest.raises(InfeasibleRegimeError, match="no simple graph"):
            sampler.sample_simple(NoRng(), max_attempts=5)
        # multigraphs still exist
        assert sum(sampler.sample_degrees(make_rng(0))) == 2 * m

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleRegimeError):
            DegreeSequenceSampler(DegreeSet.finite([1, 3]), 3, 2)

    @pytest.mark.parametrize("members, n, m",
                             [((1, 3), 2, 4), ((0, 5, 7), 2, 1)])
    def test_infeasible_builds_no_table(self, monkeypatch, members, n, m):
        def no_table(*args):
            raise AssertionError("built a table for an empty instance")
        monkeypatch.setattr("degcount.sampling.band_rows", no_table)
        with pytest.raises(InfeasibleRegimeError):
            DegreeSequenceSampler(DegreeSet.finite(members), n, m)

    def test_memo_comes_from_band_rows(self, monkeypatch):
        # the one row source, called once as (D, the band's spans)
        ds, n, m = DegreeSet.even(), 12, 9
        calls = []

        def recorded(*args):
            calls.append(args)
            return band_rows(*args)
        monkeypatch.setattr("degcount.sampling.band_rows", recorded)
        sampler = DegreeSequenceSampler(ds, n, m)
        assert calls == [(ds, sampler._spans)]
        check_memo(sampler)

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_sum_and_membership_invariants(self, ds):
        n = 5
        for m in range(1, 6):
            try:
                sampler = DegreeSequenceSampler(ds, n, m)
            except InfeasibleRegimeError:
                continue
            rng = make_rng(42 + m)
            for _ in range(40):
                seq = sampler.sample_degrees(rng)
                assert sum(seq) == 2 * m
                assert all(d in ds for d in seq)

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_step_weights_sum_to_row_total(self, ds):
        # the categorical normaliser is exactly the table entry
        for n in (1, 2, 3):
            for m in (1, 2, 3, 4):
                table = build_table(ds, n, 2 * m)
                if table.value(n, 2 * m) == 0:
                    continue
                for i in range(1, n + 1):
                    for j in range(2 * m + 1):
                        total = sum(math.comb(j, d) * table.value(i - 1, j - d)
                                    for d in ds.members_up_to(j))
                        assert total == table.value(i, j)

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_exact_law_on_tiny_instances(self, ds):
        check_exact_law_on_tiny_instances(ds)

    def test_two_point_law(self):
        # degrees (1,3) and (3,1) are equally likely
        sampler = DegreeSequenceSampler(DegreeSet.finite([1, 3]), 2, 2)
        law = sequence_law(DegreeSet.finite([1, 3]), 2, 2)
        assert law == {(1, 3): Fraction(1, 2), (3, 1): Fraction(1, 2)}

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_step_law_is_exact(self, ds):
        # the product of the per-step categorical ratios reproduces the
        # enumerated sequence law as exact rationals, no float involved
        for n, m in ((2, 2), (3, 3)):
            law = sequence_law(ds, n, m)
            if not law:
                continue
            table = build_table(ds, n, 2 * m)
            for seq, prob in law.items():
                p = Fraction(1)
                j = 2 * m
                for i in range(n, 0, -1):
                    d = seq[i - 1]
                    p *= Fraction(math.comb(j, d) * table.value(i - 1, j - d),
                                  table.value(i, j))
                    j -= d
                assert p == prob

    def test_degree_law_at_scale(self):
        # at n = 1000 the band and the float screen both act.  Each degree's
        # count over the draws against n * p_d per draw, with the exact
        # p_d = C(2m, d) T_{n-1}(2m - d) / T_n(2m) and the variance bound
        # n p_d (1 - p_d) per draw; degrees expected fewer than 25 times are
        # pooled with every degree above them, where a normal z means nothing
        ds, n, m, draws = DegreeSet.even(), 1000, 500, 400
        sampler = DegreeSequenceSampler(ds, n, m)
        rng = make_rng(17)
        counts = Counter()
        for _ in range(draws):
            counts.update(sampler.sample_degrees(rng))
        assert all(d in ds for d in counts)

        def z(observed, p):
            return (observed - draws * n * p) / math.sqrt(draws * n * p * (1 - p))

        j = 2 * m
        total = power_coefficient(ds, n, j)
        head = 0.0
        for d in ds.members_up_to(j):
            p = math.comb(j, d) * power_coefficient(ds, n - 1, j - d) / total
            if draws * n * p < 25:
                break
            assert abs(z(counts.pop(d, 0), p)) <= 5
            head += p
        assert abs(z(sum(counts.values()), 1.0 - head)) <= 5


def small_pairings(count=2000):
    """(n, degrees, pairing seed) on 2-6 vertices with degrees 0-4.

    Small enough that loops, double and triple edges all occur.
    """
    for seed in range(count):
        rng = make_rng(seed)
        n = int(rng.integers(2, 7))
        degrees = rng.integers(0, 5, size=n).tolist()
        degrees[0] += sum(degrees) % 2
        yield n, degrees, seed + 10 ** 6


class TestPairing:
    def test_single_edge(self):
        rng = make_rng(3)
        for _ in range(5):
            g = pair_half_edges([1, 1], rng)
            assert edge_occurrences(g) == [(1, 2)]

    def test_degree_four_vertex(self):
        rng = make_rng(4)
        expected = Multigraph(1, [(1, 1), (1, 1)])
        for _ in range(10):
            assert pair_half_edges([4], rng) == expected

    def test_two_two_frequencies(self):
        # 3 perfect matchings: 2 give the double edge, 1 gives two loops
        rng = make_rng(11)
        trials = 30_000
        double = Multigraph(2, [(1, 2), (1, 2)])
        loops = Multigraph(2, [(1, 1), (2, 2)])
        counts = Counter(pair_half_edges([2, 2], rng) for _ in range(trials))
        assert set(counts) == {double, loops}
        p = 2 / 3
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(counts[double] / trials - p) <= 4 * sigma

    def test_odd_sum_rejected(self):
        with pytest.raises(ValueError):
            pair_half_edges([1, 2], make_rng(0))

    def test_array_simplicity_check_matches_the_graph(self):
        seen = Counter()
        for n, degrees, seed in small_pairings():
            a, b = _pair_endpoints(degrees, make_rng(seed))
            codes = _edge_codes(degrees, make_rng(seed))
            graph = pair_half_edges(degrees, make_rng(seed))
            assert Multigraph(n, list(zip(a.tolist(), b.tolist()))) == graph
            simple = _is_simple_pairing(codes, n)
            assert simple == graph.is_simple()
            for (u, v), c in graph.edge_items():
                seen["loop" if u == v else c] += 1
            seen["simple" if simple else "not simple"] += 1
        assert seen["loop"] and seen[2] and seen[3]
        assert seen["simple"] > 100 and seen["not simple"] > 100

    def test_graph_from_sorted_codes_matches_the_public_constructor(self):
        # the sampler's trusted build against the checked one on the same
        # pairs, over pairings with loops, double and triple edges
        seen = Counter()
        for n, degrees, seed in small_pairings():
            a, b = _pair_endpoints(degrees, make_rng(seed))
            fast = _multigraph(n, _edge_codes(degrees, make_rng(seed)))
            checked = Multigraph(n, list(zip(a.tolist(), b.tolist())))
            assert fast == checked
            assert hash(fast) == hash(checked)
            assert fast.edge_items() == checked.edge_items()
            assert fast.to_text() == checked.to_text()
            assert fast.degrees() == checked.degrees() == degrees
            assert fast.is_simple() == checked.is_simple()
            seen[classify(fast)] += 1
            seen.update("loop" if u == v else c
                        for (u, v), c in fast.edge_items())
        assert all(seen[key] for key in (*GraphClass, "loop", 2, 3))

    def test_degree_sequence_preserved(self):
        rng = make_rng(9)
        degrees = [3, 1, 2, 0, 4]
        g = pair_half_edges(degrees, rng)
        assert g.degrees() == degrees


# seeded pairings as text: a change in the rng stream, the stub order or the
# output edge order shows up as a literal mismatch
PINNED_PAIRINGS = {
    (3, 1, 2, 2): ["4 4\n1 3\n1 3\n1 4\n2 4\n", "4 4\n1 3\n1 3\n1 4\n2 4\n",
                   "4 4\n1 1\n1 4\n2 3\n3 4\n", "4 4\n1 1\n1 2\n3 3\n4 4\n",
                   "4 4\n1 1\n1 4\n2 4\n3 3\n"],
    (4, 0, 2): ["3 3\n1 1\n1 1\n3 3\n", "3 3\n1 1\n1 3\n1 3\n",
                "3 3\n1 1\n1 3\n1 3\n", "3 3\n1 1\n1 3\n1 3\n",
                "3 3\n1 1\n1 3\n1 3\n"],
    (1, 1, 1, 1, 2): ["5 3\n1 2\n3 4\n5 5\n", "5 3\n1 5\n2 3\n4 5\n",
                      "5 3\n1 2\n3 5\n4 5\n", "5 3\n1 4\n2 5\n3 5\n",
                      "5 3\n1 5\n2 3\n4 5\n"],
}


def output_digest(outputs):
    """sha256 over each graph's text and, where given, its report."""
    h = hashlib.sha256()
    for graph, report in outputs:
        h.update(graph.to_text().encode())
        if report is not None:
            h.update(json.dumps(report.as_dict(), sort_keys=True).encode())
    return h.hexdigest()


class TestPinnedOutput:
    @pytest.mark.parametrize("degrees", sorted(PINNED_PAIRINGS))
    def test_pairing_text(self, degrees):
        texts = [pair_half_edges(list(degrees), make_rng(s)).to_text()
                 for s in range(5)]
        assert texts == PINNED_PAIRINGS[degrees]

    def test_boltzmann_text_digest(self):
        ds = DegreeSet.min_degree(2)
        g, _ = boltzmann_sample(ds, 200, boltzmann_tune(ds, 3.0), make_rng(7))
        digest = hashlib.sha256(g.to_text().encode()).hexdigest()
        assert digest == ("de9dad3a6065c7f4260c4e9eb7534e34"
                          "857a08171bca808f366951c718f823ec")

    @pytest.mark.parametrize("degrees, n, m, digest", [
        ("even", 60, 30,
         "0899201b9d0b4e4708649eb51332800c85cbaa8e209a900fab8e66d7b7b8a448"),
        ("2,3", 40, 50,
         "62a1f9264d73e1b79aacf476d3c4a81ba3fc717364b54e1931205bad01567b39"),
    ])
    def test_simple_sampler_digest(self, degrees, n, m, digest):
        # seeds 0-4 include rejected attempts, so the whole rejection loop's
        # rng stream is pinned, not only the accepted pairing
        sampler = DegreeSequenceSampler(parse_degree_set(degrees), n, m)
        assert output_digest(sampler.sample_simple(make_rng(seed))
                             for seed in range(5)) == digest

    def test_multigraph_sampler_digest(self):
        sampler = DegreeSequenceSampler(DegreeSet.min_degree(1), 20, 25)
        assert output_digest((sampler.sample_multigraph(make_rng(seed)), None)
                             for seed in range(5)) == (
            "3fece674afedf7941fb974545ca3d3e6fd97ea3d544250f5d1221c92fc9e0418")

    def test_boltzmann_digest_at_scale(self):
        ds = DegreeSet.min_degree(2)
        x = boltzmann_tune(ds, 3.0)
        assert output_digest(boltzmann_sample(ds, 2000, x, make_rng(seed))
                             for seed in range(3)) == (
            "dcb517576e0691b2e37e66fb5a5db591b7d0889050a357a3cf9b05607b9c6f68")

    def test_edge_items_strictly_increasing(self):
        rng = make_rng(5)
        degrees = [int(d) for d in rng.integers(1, 6, size=300)]
        degrees[0] += sum(degrees) % 2
        items = pair_half_edges(degrees, rng).edge_items()
        keys = [pair for pair, _ in items]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all(u <= v for u, v in keys)


class TestSimpleSampling:
    def test_triangle_is_only_outcome(self):
        sampler = DegreeSequenceSampler(DegreeSet.finite([2]), 3, 3)
        rng = make_rng(2)
        triangle = Multigraph(3, [(1, 2), (1, 3), (2, 3)])
        for _ in range(5):
            g, report = sampler.sample_simple(rng)
            assert g == triangle
            assert report.samples_produced == 1

    def test_acceptance_rate_two_vertices(self):
        # one edge vs either loop: the simple outcome has half the weight
        sampler = DegreeSequenceSampler(DegreeSet.min_degree(0), 2, 1)
        rng = make_rng(13)
        total = None
        for _ in range(4000):
            g, report = sampler.sample_simple(rng)
            assert edge_occurrences(g) == [(1, 2)]
            total = report if total is None else total.merge(report)
        assert abs(total.empirical_acceptance - 0.5) < 0.03

    def test_exhaustion_carries_report(self):
        # K_10 is the one simple 9-regular graph on ten vertices, and a
        # pairing gives it with probability about e^-20
        sampler = DegreeSequenceSampler(DegreeSet.finite([9]), 10, 45)
        rng = make_rng(1)
        with pytest.raises(SamplerExhausted) as err:
            sampler.sample_simple(rng, max_attempts=6)
        assert err.value.report.rejections == 6
        assert err.value.report.samples_produced == 0

    def test_exhaustion_survives_pickling(self):
        # process-pool workers hand their exceptions back by pickle
        import pickle
        report = SampleReport(samples_requested=1, rejections=4)
        exc = pickle.loads(pickle.dumps(SamplerExhausted("no luck", report)))
        assert type(exc) is SamplerExhausted
        assert str(exc) == "no luck"
        assert exc.report == report
        capped = pickle.loads(pickle.dumps(
            SamplerExhausted("too many", report, 8.5)))
        assert capped.log10_predicted_attempts == 8.5

    def test_automatic_budget_refuses_before_drawing(self):
        # K_10 predicts 4.9e8 attempts, past _AUTO_ATTEMPT_CAP
        sampler = DegreeSequenceSampler(DegreeSet.finite([9]), 10, 45)

        class NoRng:
            bit_generator = None
        with pytest.raises(SamplerExhausted) as err:
            sampler.sample_simple(NoRng())
        assert err.value.report.attempts == 0
        assert 10 ** err.value.log10_predicted_attempts > \
            sampling._AUTO_ATTEMPT_CAP

    def test_automatic_budget_below_the_cap(self):
        # 1,2,8 at (30, 83) predicts 3.8e5 attempts: slow, but it draws
        sampler = DegreeSequenceSampler(parse_degree_set("1,2,8"), 30, 83)
        budget = attempt_budget(sampler.regime)
        assert 3.5e6 < budget < 4e6

    def test_attempt_budget_raises_the_regime_reason(self):
        # no multigraph: no two of 0, 5, 7 sum to 2; an explicit budget
        # does not get round it
        regime = resolve(DegreeSet.finite([0, 5, 7]), 2, 1)
        with pytest.raises(InfeasibleRegimeError) as err:
            attempt_budget(regime, 5)
        assert str(err.value) == regime.reason

    def test_pickles_as_its_instance(self):
        # a spawned pool worker rebuilds the table instead of receiving it
        import pickle
        sampler = DegreeSequenceSampler(DegreeSet.even(), 200, 100)
        data = pickle.dumps(sampler)
        assert len(data) < 1024
        copy = pickle.loads(data)
        assert (copy.degree_set, copy.n, copy.m) == (
            sampler.degree_set, sampler.n, sampler.m)
        assert copy.regime == sampler.regime
        assert attempt_budget(copy.regime) == attempt_budget(sampler.regime)
        assert (copy.sample_degrees(make_rng(8))
                == sampler.sample_degrees(make_rng(8)))

    def test_construction_tests_feasibility_once(self, monkeypatch):
        from degcount import saddlepoint, sampling, tables
        calls = []
        reason = tables.infeasibility_reason

        def counted(*args):
            calls.append(args)
            return reason(*args)

        for module in (tables, saddlepoint, sampling):
            monkeypatch.setattr(module, "infeasibility_reason", counted,
                                raising=False)
        DegreeSequenceSampler(DegreeSet.finite([0, 5, 7]), 20, 40)
        assert len(calls) == 1

    def test_default_attempt_budget(self):
        sampler = DegreeSequenceSampler(DegreeSet.even(), 20, 10)
        assert attempt_budget(sampler.regime) >= 10

    def test_boundary_budget_is_the_forced_one(self):
        # 2m/n = min(D) forces every degree to 3: L = 1, ceil(e^2) = 8
        boundary = DegreeSequenceSampler(DegreeSet.min_degree(3), 10, 15)
        forced = DegreeSequenceSampler(DegreeSet.finite([3]), 10, 15)
        assert attempt_budget(boundary.regime) == 80
        assert attempt_budget(forced.regime) == 80

    def test_empty_shift_budget(self):
        # D-2 empty: every multigraph is simple, acceptance 1
        sampler = DegreeSequenceSampler(DegreeSet.finite([0, 1]), 10, 3)
        assert attempt_budget(sampler.regime) == 10

    def test_empty_instance_constructs(self):
        sampler = DegreeSequenceSampler(DegreeSet.even(), 0, 0)
        assert sampler.sample_degrees(make_rng(0)) == []
        assert attempt_budget(sampler.regime) == 10

    def test_drawing_leaves_sampler_state_unchanged(self):
        # draws write only prefix slots, each from NaN to the scan's float
        sampler = DegreeSequenceSampler(DegreeSet.finite([2, 3]), 12, 15)
        names = sorted(vars(sampler))
        logs = [row.tobytes() for row in sampler._log_cells]
        prefixes = [row.tobytes() for row in sampler._prefixes]
        kept = (list(sampler._spans), sampler._members,
                list(sampler._log_fact), sampler.regime)
        rng = make_rng(4)
        for _ in range(5):
            sampler.sample_simple(rng, max_attempts=10_000)
        assert sorted(vars(sampler)) == names
        assert [row.tobytes() for row in sampler._log_cells] == logs
        assert (sampler._spans, sampler._members, sampler._log_fact,
                sampler.regime) == kept
        assert len(sampler._prefixes) == len(prefixes)
        filled = 0
        for before, row in zip(prefixes, sampler._prefixes):
            old = array("d")
            old.frombytes(before)
            assert len(row) == len(old)
            for a, b in zip(old, row):
                if not math.isnan(a):
                    assert b == a
                filled += not math.isnan(b)
        assert filled == check_stored_prefixes(sampler) > 0

    def test_determinism(self):
        ds = DegreeSet.min_degree(1)
        runs = []
        for _ in range(2):
            sampler = DegreeSequenceSampler(ds, 6, 5)
            rng = make_rng(12345)
            runs.append([sampler.sample_multigraph(rng) for _ in range(8)])
        assert runs[0] == runs[1]


class TestBoltzmann:
    def test_even_never_retries(self):
        rng = make_rng(6)
        for _ in range(20):
            _, report = boltzmann_sample(DegreeSet.even(), 9, 1.3, rng)
            assert report.odd_sum_retries == 0

    def test_poisson_law_unconstrained(self):
        # degree law at parameter lam is Poisson(lam)
        lam = 2.5
        support, probs = boltzmann_degree_law(DegreeSet.min_degree(0), lam)
        for d in range(8):
            expected = math.exp(-lam) * lam ** d / math.factorial(d)
            assert probs[d] == pytest.approx(expected, rel=1e-10)

    def test_large_parameter(self):
        # x**d / d! overflows a double near d = x = 1000; the law does not
        ds = DegreeSet.min_degree(2)
        support, probs = boltzmann_degree_law(ds, 1000.0)
        assert probs.sum() == pytest.approx(1.0, rel=1e-12)
        assert float(support @ probs) == pytest.approx(
            mean_degree(ds, 1000.0), rel=1e-12)
        g, _ = boltzmann_sample(ds, 10, 1000.0, make_rng(3))
        assert 2 * g.num_edges / 10 == pytest.approx(1000.0, rel=0.05)

    def test_law_far_from_zero_skips_the_left_tail(self):
        import time
        start = time.perf_counter()
        support, probs = boltzmann_degree_law(DegreeSet.min_degree(2), 9e5)
        assert time.perf_counter() - start < 0.1
        assert support[0] > 8e5
        assert probs.sum() == pytest.approx(1.0, rel=1e-12)

    @staticmethod
    def full_scan_law(ds, x):
        """The law scanned from min(D), zero weights kept."""
        log_egf = ds.egf_log(x)
        support, probs, acc = [], [], 0.0
        for d in ds.members_up_to(10 ** 6):
            p = math.exp(d * math.log(x) - math.lgamma(d + 1) - log_egf)
            support.append(d)
            probs.append(p)
            acc += p
            if d > x and p < 1e-18 * acc:
                break
        return np.array(support), np.array(probs) / acc

    @pytest.mark.parametrize("x", [0.5, 2.1, 30.0, 400.0, 5e4])
    @pytest.mark.parametrize("ds", [DegreeSet.min_degree(0),
                                    DegreeSet.min_degree(2), DegreeSet.even(),
                                    DegreeSet.odd()], ids=str)
    def test_law_matches_a_full_scan(self, ds, x):
        support, probs = boltzmann_degree_law(ds, x)
        full_support, full_probs = self.full_scan_law(ds, x)
        nonzero, full_nonzero = probs > 0, full_probs > 0
        assert support[nonzero].tolist() == full_support[full_nonzero].tolist()
        assert probs[nonzero].tolist() == full_probs[full_nonzero].tolist()
        # the skipped points carry no mass, so seeded draws are unchanged
        assert (make_rng(5).choice(support, size=2000, p=probs).tolist()
                == make_rng(5).choice(full_support, size=2000,
                                      p=full_probs).tolist())

    def test_law_past_the_degree_cap_raises(self):
        # nearly all the mass sits on degree 2,000,000, past the 10**6 cap
        with pytest.raises(ValueError, match="reaches past degree"):
            boltzmann_degree_law(DegreeSet.finite([1, 2_000_000]), 2e6)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_parameter_is_a_value_error(self, x):
        with pytest.raises(ValueError) as info:
            boltzmann_degree_law(DegreeSet.min_degree(2), x)
        assert not isinstance(info.value, InfeasibleRegimeError)

    def test_empirical_mean_degree(self):
        ds = DegreeSet.min_degree(2)
        x = 1.7
        rng = make_rng(8)
        g, report = boltzmann_sample(ds, 100_000, x, rng)
        target = mean_degree(ds, x)
        mean = 2 * g.num_edges / 100_000
        assert abs(mean - target) / target < 0.01
        assert all(d in ds for d in g.degrees())

    @pytest.mark.parametrize("ds", [DegreeSet.odd(), DegreeSet.finite([1, 3])],
                             ids=["odd", "1,3"])
    def test_all_odd_degrees_on_odd_n_raise(self, ds):
        # every sum is odd; this used to redraw forever
        with pytest.raises(InfeasibleRegimeError):
            boltzmann_sample(ds, 5, 1.5, make_rng(0))

    def test_all_odd_degrees_on_even_n_sample(self):
        g, report = boltzmann_sample(DegreeSet.finite([1, 3]), 6, 1.5,
                                     make_rng(0))
        assert report.odd_sum_retries == 0
        assert all(d in (1, 3) for d in g.degrees())

    def test_tune_identity_for_exp(self):
        assert boltzmann_tune(DegreeSet.min_degree(0), 3.0) == pytest.approx(
            3.0, rel=1e-12)

    def test_tune_even(self):
        assert boltzmann_tune(DegreeSet.even(), 1.0) == pytest.approx(
            1.19968, abs=1e-5)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_tune_non_finite_target(self, target):
        # a usage error, not an instance without a saddle point
        with pytest.raises(ValueError, match="not finite") as info:
            boltzmann_tune(DegreeSet.min_degree(2), target)
        assert not isinstance(info.value, InfeasibleRegimeError)

    def test_tune_range_errors(self):
        from degcount import InfeasibleRegimeError
        with pytest.raises(InfeasibleRegimeError):
            boltzmann_tune(DegreeSet.min_degree(2), 2.0)
        with pytest.raises(InfeasibleRegimeError):
            boltzmann_tune(DegreeSet.finite([1, 3]), 3.0)
