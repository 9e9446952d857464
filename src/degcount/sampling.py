"""Random generation: exact degree sequences, half-edge pairing, rejection.

Two generators are provided.  The exact one draws a degree sequence with
probability proportional to prod 1/d_i! among all admissible sequences of
fixed total, using the big-integer coefficient table.  Each degree is chosen
by a uniform u in [0, 1) known only to its leading 64-bit words: the interval
those words pin u to is compared, in integers, against the exact prefix
weights, and another word is drawn only when a boundary falls inside it.  So
there is no floating-point bias at all.  The Boltzmann one draws degrees
i.i.d. with P(d) proportional to x^d/d!, giving a random edge count.

Both finish by pairing half-edges uniformly, which weights every multigraph
by its compensation factor; rejecting until simple therefore yields the
uniform distribution on simple graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degree_sets import DegreeSet
from .multigraph import Multigraph
from .saddlepoint import acceptance_probability, solve_mean_degree
from .tables import CoefficientTable, build_table, no_sequence_reason

# Bits per word; a degree draw reads one word, plus one more each time the
# uniform interval straddles a prefix-weight boundary.
_WORD_BITS = 64

# Bit generators whose random_raw() yields uniform 64-bit words.  Others
# (MT19937 yields 32-bit ones) are read through Generator.integers, which
# gives these the same stream but costs about 10 us more per call.
_RAW_WORD_SOURCES = frozenset({np.random.PCG64, np.random.PCG64DXSM,
                               np.random.Philox, np.random.SFC64})


class InfeasibleInstanceError(ValueError):
    """No degree sequence from the set sums to 2m over n vertices."""


class SamplerExhausted(RuntimeError):
    """Rejection sampling hit its attempt budget; carries the report."""

    def __init__(self, message: str, report: "SampleReport"):
        super().__init__(message)
        self.report = report


@dataclass
class SampleReport:
    """Counters for one sampling run; merge by adding fields."""

    samples_requested: int = 0
    samples_produced: int = 0
    rejections: int = 0
    odd_sum_retries: int = 0

    @property
    def attempts(self) -> int:
        return self.samples_produced + self.rejections

    @property
    def empirical_acceptance(self) -> float:
        return self.samples_produced / self.attempts if self.attempts else 0.0

    def merge(self, other: "SampleReport") -> "SampleReport":
        return SampleReport(
            self.samples_requested + other.samples_requested,
            self.samples_produced + other.samples_produced,
            self.rejections + other.rejections,
            self.odd_sum_retries + other.odd_sum_retries,
        )

    def as_dict(self) -> dict:
        return {
            "samples_requested": self.samples_requested,
            "samples_produced": self.samples_produced,
            "rejections": self.rejections,
            "odd_sum_retries": self.odd_sum_retries,
            "empirical_acceptance": self.empirical_acceptance,
        }


def _word_source(rng: np.random.Generator):
    """Readers of uniform 64-bit words: (batch(size) -> list, one() -> int)."""
    bits = rng.bit_generator
    if type(bits) in _RAW_WORD_SOURCES:
        raw = bits.random_raw
        return (lambda size: raw(size).tolist()), raw
    high = 1 << _WORD_BITS
    return ((lambda size: rng.integers(high, size=size, dtype=np.uint64).tolist()),
            (lambda: int(rng.integers(high, dtype=np.uint64))))


def make_rng(seed) -> np.random.Generator:
    """Seedable generator; spawn per-worker streams via numpy SeedSequence."""
    return np.random.default_rng(seed)


def pair_half_edges(degrees, rng: np.random.Generator) -> Multigraph:
    """Uniform random pairing of the half-edges attached per the degrees.

    Lists vertex v once per half-edge (its stubs) and pairs the stubs at
    consecutive positions of one uniform permutation, which induces the
    uniform perfect matching; each multigraph with the given degree sequence
    then appears with probability proportional to its compensation factor.
    """
    degrees = [int(d) for d in degrees]
    total = sum(degrees)
    if total % 2 != 0:
        raise ValueError("degree sum must be even to pair half-edges")
    n = len(degrees)
    stubs = [v for v, d in enumerate(degrees, 1) for _ in range(d)]
    perm = iter(rng.permutation(total).tolist())
    pairs = [(stubs[a], stubs[b]) for a, b in zip(perm, perm)]
    return Multigraph(n, pairs)


class DegreeSequenceSampler:
    """Exact sampler of degree sequences and multigraphs at fixed (n, m).

    Holds the coefficient table for its instance and its default attempt
    budget, all set in the constructor and never written afterwards, so one
    sampler can serve many concurrent generators as long as each worker owns
    its own rng stream.
    """

    def __init__(self, degree_set: DegreeSet, n: int, m: int,
                 table: CoefficientTable | None = None):
        if n < 0 or m < 0:
            raise ValueError("n and m must be nonnegative")
        if table is not None and table.degree_set != degree_set:
            raise ValueError(f"table was built for {table.degree_set}, "
                             f"not {degree_set}")
        self.degree_set = degree_set
        self.n = n
        self.m = m
        if table is None or table.n_max < n or table.j_max < 2 * m:
            table = build_table(degree_set, n, 2 * m)
        self.table = table
        if table.value(n, 2 * m) <= 0:
            raise InfeasibleInstanceError(no_sequence_reason(degree_set, n, m))
        acc = acceptance_probability(degree_set, n, m)
        self._default_attempts = (10 * math.ceil(1.0 / acc) if acc > 0.0
                                  else 10 ** 6)

    # -- degree sequences ---------------------------------------------------

    def _draw_degree(self, i: int, j: int, word: int, one) -> int:
        """Degree of vertex i when vertices 1..i carry j half-edges.

        The degree is the d with c_{d-1} <= u*T[i][j] < c_d, where c_d are
        the prefix sums of comb(j, d)*T[i-1][j-d] over the members d.  `word`
        holds the leading bits of u, so u*T lies in [lo, hi] after flooring;
        the scan returns at the first c_d above that interval and skips every
        c_d at or below it.  A c_d inside it appends the word `one()` to u.
        """
        total = self.table.value(i, j)
        value = self.table.value
        comb = math.comb
        bits = _WORD_BITS
        scaled = word * total
        lo, hi = scaled >> bits, (scaled + total - 1) >> bits
        acc = 0
        for d in self.degree_set.members_up_to(j):
            w = comb(j, d) * value(i - 1, j - d)
            if not w:
                continue
            acc += w
            while lo < acc <= hi:
                word = (word << _WORD_BITS) | one()
                bits += _WORD_BITS
                scaled = word * total
                lo, hi = scaled >> bits, (scaled + total - 1) >> bits
            if acc > hi:
                return d
        raise AssertionError("prefix weights did not reach the row total")

    def sample_degrees(self, rng: np.random.Generator) -> list[int]:
        """One sequence (d_1..d_n), every d_i allowed, summing to 2m.

        Drawn with probability proportional to prod 1/d_i! among all such
        sequences, exactly: the last degree is drawn from the table ratio law,
        then the remainder recursively, down to vertex 1, which takes what is
        left.  One call takes n - 1 uniform 64-bit words from the rng in one
        batch, plus one word per boundary straddle, which has probability
        below 2^-64 per boundary.
        """
        if self.n == 0:
            return []
        batch, one = _word_source(rng)
        words = batch(self.n - 1)
        degrees = [0] * self.n
        j = 2 * self.m
        for i in range(self.n, 1, -1):
            d = self._draw_degree(i, j, words[self.n - i], one)
            degrees[i - 1] = d
            j -= d
        # every draw kept T[i-1][j] > 0, and T[1][j] > 0 means j is allowed
        if j not in self.degree_set:
            raise AssertionError("the remaining total is not an allowed degree")
        degrees[0] = j
        return degrees

    # -- multigraphs ----------------------------------------------------------

    def sample_multigraph(self, rng: np.random.Generator) -> Multigraph:
        """One multigraph, weighted by its compensation factor."""
        return pair_half_edges(self.sample_degrees(rng), rng)

    def default_max_attempts(self) -> int:
        """Ten times the predicted attempts per simple graph."""
        return self._default_attempts

    def sample_simple(self, rng: np.random.Generator,
                      max_attempts: int | None = None) -> tuple[Multigraph, SampleReport]:
        """Redraw multigraphs until one is simple; uniform over simple graphs."""
        if max_attempts is None:
            max_attempts = self.default_max_attempts()
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        report = SampleReport(samples_requested=1)
        for _ in range(max_attempts):
            graph = self.sample_multigraph(rng)
            if graph.is_simple():
                report.samples_produced += 1
                return graph, report
            report.rejections += 1
        raise SamplerExhausted(
            f"no simple graph in {max_attempts} attempts", report)


# -- Boltzmann generator ------------------------------------------------------

def boltzmann_degree_law(degree_set: DegreeSet, x: float,
                         tail: float = 1e-18) -> tuple[np.ndarray, np.ndarray]:
    """Support and probabilities of the degree law P(d) = (x^d/d!) / Set(x).

    Infinite sets are truncated where the factorial tail drops below `tail`
    relative to the accumulated mass.
    """
    if x <= 0:
        raise ValueError("parameter must be positive")
    support, weights = [], []
    acc = 0.0
    lx = math.log(x)
    for d in degree_set.members_up_to(10 ** 6):
        w = math.exp(d * lx - math.lgamma(d + 1))
        support.append(d)
        weights.append(w)
        acc += w
        if d > x and w < tail * acc:
            break
    probs = np.array(weights) / acc
    return np.array(support), probs


def boltzmann_sample(degree_set: DegreeSet, n: int, x: float,
                     rng: np.random.Generator) -> tuple[Multigraph, SampleReport]:
    """n i.i.d. degrees from the Boltzmann law at x, then a uniform pairing.

    A sequence with odd total is discarded wholesale and redrawn; the report
    counts those retries.  The edge count of the output is random with mean
    n * mean_degree(x) / 2.  When every degree the law can draw is odd and n
    is odd, no sequence has an even total, and InfeasibleInstanceError is
    raised instead of redrawing forever.
    """
    support, probs = boltzmann_degree_law(degree_set, x)
    if n % 2 and (support[probs > 0] % 2).all():
        raise InfeasibleInstanceError(
            f"every degree the law on {degree_set} can draw is odd, so {n} "
            f"vertices cannot have an even degree sum")
    report = SampleReport(samples_requested=1)
    while True:
        degrees = rng.choice(support, size=n, p=probs)
        if int(degrees.sum()) % 2 == 0:
            break
        report.odd_sum_retries += 1
    graph = pair_half_edges(degrees, rng)
    report.samples_produced = 1
    return graph, report


def boltzmann_tune(degree_set: DegreeSet, target_mean_degree: float) -> float:
    """Parameter x making the Boltzmann mean degree equal the target.

    The expected degree at parameter x is exactly the mean-degree function,
    so this inverts it; the target must lie strictly between min(D) and
    max(D).
    """
    return solve_mean_degree(degree_set, target_mean_degree)
