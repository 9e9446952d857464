import hashlib
import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from degcount import (DegreeSet, DegreeSequenceSampler,
                      InfeasibleInstanceError, Multigraph, SamplerExhausted,
                      boltzmann_degree_law, boltzmann_sample, boltzmann_tune,
                      build_table, make_rng, mean_degree, pair_half_edges)
from degcount.sampling import _WORD_BITS

from conftest import FAMILY, FAMILY_IDS

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
        total = sampler.table.value(3, 4)
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
        table = sampler.table
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
                for (d, c), (after, _) in zip(cums, cums[1:]):
                    a, rem = divmod(c * WORD, total)
                    draw = sampler._draw_degree
                    assert draw(i, j, a - 1, no_refine) == d
                    if rem == 0:
                        assert draw(i, j, a, no_refine) == after
                    else:
                        assert draw(i, j, a, lambda: 0) == d
                        assert draw(i, j, a, lambda: WORD - 1) == after
                        assert draw(i, j, a + 1, no_refine) == after

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


class TestDegreeSequences:
    def test_unique_sequence(self):
        sampler = DegreeSequenceSampler(DegreeSet.finite([2]), 3, 3)
        rng = make_rng(5)
        for _ in range(10):
            assert sampler.sample_degrees(rng) == [2, 2, 2]

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleInstanceError):
            DegreeSequenceSampler(DegreeSet.finite([1, 3]), 3, 2)

    def test_table_of_another_set_rejected(self):
        table = build_table(DegreeSet.even(), 6, 8)
        with pytest.raises(ValueError, match="table was built for"):
            DegreeSequenceSampler(DegreeSet.odd(), 4, 2, table=table)

    def test_matching_table_reused(self):
        table = build_table(DegreeSet.odd(), 6, 8)
        sampler = DegreeSequenceSampler(DegreeSet.odd(), 4, 2, table=table)
        assert sampler.table is table
        assert sampler.sample_degrees(make_rng(1)) == [1, 1, 1, 1]

    @pytest.mark.parametrize("ds", FAMILY, ids=FAMILY_IDS)
    def test_sum_and_membership_invariants(self, ds):
        n = 5
        for m in range(1, 6):
            try:
                sampler = DegreeSequenceSampler(ds, n, m)
            except InfeasibleInstanceError:
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


class TestPairing:
    def test_single_edge(self):
        rng = make_rng(3)
        for _ in range(5):
            g = pair_half_edges([1, 1], rng)
            assert list(g.edge_occurrences()) == [(1, 2)]

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
            assert list(g.edge_occurrences()) == [(1, 2)]
            total = report if total is None else total.merge(report)
        assert abs(total.empirical_acceptance - 0.5) < 0.03

    def test_exhaustion_carries_report(self):
        # no simple 2-regular graph on two vertices exists
        sampler = DegreeSequenceSampler(DegreeSet.finite([2]), 2, 2)
        rng = make_rng(1)
        with pytest.raises(SamplerExhausted) as err:
            sampler.sample_simple(rng, max_attempts=6)
        assert err.value.report.rejections == 6
        assert err.value.report.samples_produced == 0

    def test_default_attempt_budget(self):
        sampler = DegreeSequenceSampler(DegreeSet.even(), 20, 10)
        assert sampler.default_max_attempts() >= 10

    def test_boundary_budget_is_the_forced_one(self):
        # 2m/n = min(D) forces every degree to 3: L = 1, ceil(e^2) = 8
        boundary = DegreeSequenceSampler(DegreeSet.min_degree(3), 10, 15)
        forced = DegreeSequenceSampler(DegreeSet.finite([3]), 10, 15)
        assert boundary.default_max_attempts() == 80
        assert forced.default_max_attempts() == 80

    def test_empty_shift_budget(self):
        # D-2 empty: every multigraph is simple, acceptance 1
        sampler = DegreeSequenceSampler(DegreeSet.finite([0, 1]), 10, 3)
        assert sampler.default_max_attempts() == 10

    def test_empty_instance_constructs(self):
        sampler = DegreeSequenceSampler(DegreeSet.even(), 0, 0)
        assert sampler.sample_degrees(make_rng(0)) == []
        assert sampler.default_max_attempts() == 10

    def test_drawing_leaves_sampler_state_unchanged(self):
        sampler = DegreeSequenceSampler(DegreeSet.finite([2, 3]), 12, 15)
        before = dict(vars(sampler))
        rng = make_rng(4)
        for _ in range(5):
            sampler.sample_simple(rng, max_attempts=10_000)
        assert vars(sampler) == before

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
        with pytest.raises(InfeasibleInstanceError):
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

    def test_tune_range_errors(self):
        from degcount import InfeasibleRegimeError
        with pytest.raises(InfeasibleRegimeError):
            boltzmann_tune(DegreeSet.min_degree(2), 2.0)
        with pytest.raises(InfeasibleRegimeError):
            boltzmann_tune(DegreeSet.finite([1, 3]), 3.0)
