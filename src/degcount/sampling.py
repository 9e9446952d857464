"""Random generation: exact degree sequences, half-edge pairing, rejection.

Two generators are provided.  The exact one draws a degree sequence with
probability proportional to prod 1/d_i! among all admissible sequences of
fixed total, from the ratios of the big-integer coefficients
T[i][j] = j! [x^j] Set(x)^i.  Each degree is chosen by a uniform u in
[0, 1) known only to its leading 64-bit words: the interval those words pin
u to is compared, in integers, against the exact prefix weights, and
another word is drawn only when a boundary falls inside it.  So there is no
floating-point bias at all.  A float screen in front of that comparison
decides nearly every vertex from float logs of the cells,
L(i, k) = ln T[i][k] - ln k!, so that a candidate degree costs one exp and
no big-integer work, with a proven error bound (_SCREEN_MARGIN) on a
checked range of instances (_SCREEN_LIMIT), and hands the rest to the
integer one; it never reads a word, so the draws are those of the integer
comparison alone, at word-size cost.  This is the floating-point filter
with exact fallback of Denise and Zimmermann (Theoret. Comput. Sci. 218,
1999).  The sampler keeps no integers: it streams the rows of T over a band
of each row, the part the draw can plausibly reach, a few standard
deviations around the remaining total's mean (_BAND_SIGMAS), and keeps
only L of each band cell, plus two prefix slots per band cell that any
scan of the cell fills with the screen's own running sums, so that a warm
cell decides most vertices without an exp.  The screen reads only that
memo: a vertex whose row total, or any term its scan reaches, lies off the
band goes to the exact comparison.  That one computes its cells from one
`column_coefficients` pass per vertex, which keeps nothing for the next,
and its row total with `power_coefficient` unless the exact draw before
handed it on; so the draws read the same integers as from the full table,
and memory is three floats per band cell.  The Boltzmann one draws degrees
i.i.d. with P(d) proportional to x^d/d!, giving a random edge count.

Both finish by pairing half-edges uniformly, which weights every multigraph
by its compensation factor; rejecting until simple therefore yields the
uniform distribution on simple graphs.  A pairing is sorted once, in numpy,
into Multigraph's edge codes; the rejection test reads that array and the
accepted graph is built from it without a second check or sort.

An instance that admits no degree sequence raises the package's one
infeasibility exception, :class:`InfeasibleRegimeError`: the exact sampler
before it computes any row, the Boltzmann one when n is odd and every degree
its law can draw is odd.  `attempt_budget` raises it too, from the instance's
`Regime` alone, when multigraphs exist but no simple graph does because no
degree sequence below n sums to 2m (`Regime.simple_reason`, which the
simple-graph estimate reads too).

numpy is loaded only by sampling: the functions that make generators and
seeds (`make_rng`, `spawn_seeds`), the word reader behind every exact draw,
the half-edge pairing and the Boltzmann degree law import it when called,
and the exact sampler's constructor imports `array` for its log memo.
So importing the package, or running a CLI command that only counts or
estimates, loads neither.
"""

from __future__ import annotations

import functools
import math

from .degree_sets import INFINITE, DegreeSet
from .multigraph import Multigraph
from .records import Record
from .saddlepoint import InfeasibleRegimeError, Regime, resolve, solve_mean_degree
from .tables import band_rows, column_coefficients, power_coefficient

# typing.TYPE_CHECKING without loading typing; the annotations are strings
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

# Bits per word; a degree draw reads one word, plus one more each time the
# uniform interval straddles a prefix-weight boundary.
_WORD_BITS = 64
_WORD_SCALE = 2.0 ** -_WORD_BITS

_SCREEN_MARGIN = 2.0 ** -27
"""How near u a float prefix ratio may fall before the exact draw decides.

`sample_degrees` compares u = word * 2^-64 against p_d, the float sum of
exp(L(i-1, j-e) - L(i, j) - ln e!) over the members e up to d, where
L(i, k) = ln T[i][k] - ln k!, so each term is comb(j, e) T[i-1][j-e] / T[i][j].
It skips d when p_d <= u - margin and returns d when p_d >= u + margin;
anything between goes to `_draw_degree`.  Both float decisions match the
exact ones whenever p_d is within margin - 2^-52 - 2^-64 of c_d / T (the
rounding of u and of u +- margin, and the word's width).

Error bound, inside _SCREEN_LIMIT (every cell and every k! for k <= 2m below
e^(2^20)): math.log of an int is log(x) + e*log(2) for its rounded 53-bit
mantissa x and bit length e < 2^21, so it errs by under 2^-52 + 2^-53 (the
mantissa and the float log) + 2^-33 (the error of the float ln 2, times e)
+ 2 * 2^-34 (rounding the product and the sum), that is 2^-32 (1 + 2^-19).
The exponent holds five such logs: T[i-1][j-e] and (j-e)! in one memo slot,
T[i][j] and j! in the other, and e!.  Each slot rounds one difference below
2^20 (2^-34 each), and the exponent rounds twice more below 2^21 (2^-33
each; a term whose exponent is below -2^21 is 0 either way).  So it errs by
under 6.5 * 2^-32 (1 + 2^-19) = 1.52e-9, and each exp term is off by that
much relative; the terms sum to at most 1, and adding up to 2^20 of them
costs 2^-33 = 1.2e-10 more.  So |p_d - c_d/T| < 1.7e-9, and the margin
2^-27 = 7.45e-9 leaves more than four times that.  A draw falls back with
probability about 2 * margin per prefix ratio it scans.  The prefix slots
hold p_d of the first two members as the scan computes them, so the bound
covers them as is.
"""

_SCREEN_LIMIT = 2 ** 20
"""Range of instances the float screen is proven on; see _SCREEN_MARGIN.

The constructor screens an instance only when 2m ln n and ln (2m)! are both
below it.  T[i][j] counts maps of j labelled half-edges to i vertices with
allowed fibre sizes, so every cell the memo holds is at most
i^j <= n^(2m), and every factorial it reads is at most (2m)!; then
no row has 2^20 members either.  Outside it (2m above 99,763 whatever n is,
or above 2^20 / ln n once n passes about 2m/e: 91,076 at n = 10^5) every
vertex goes to `_draw_degree`.
"""

_BAND_SIGMAS = 6
"""Half-width of the sampler's band, in standard deviations.

At vertex i the draw's remaining total j is the sum of i Boltzmann degrees
conditioned on the n of them summing to 2m, so it lies near 2m*i/n with
standard deviation sigma*sqrt(i(n-i)/n), where sigma^2 = x*slope at the
saddle point (0 for a forced instance).  The sampler keeps the logs of row
i within _BAND_SIGMAS such deviations plus _BAND_SLACK cells of that
centre.  The float screen reads nothing else: a vertex that meets a cell
off the band goes to the exact draw, so a band too narrow costs time but
never exactness.  Over 4,000 draws the walk strayed at most 5.08
deviations (even (500, 250)) and 4.65 (2,3 (300, 375)); at 6, eight
instances read no cell off the band in 2,000 draws each
(`BENCH_sample.json`, `prefix_memo`).
"""

_BAND_SLACK = 8

_AUTO_ATTEMPT_CAP = 10 ** 6
"""Most predicted attempts per graph the automatic budget takes on.

A simple graph predicts 1/acceptance = e^(L^2 + L) attempts.  Without an
explicit max_attempts, `attempt_budget` (for `sample_simple` and the CLI's
`sample`) raises SamplerExhausted from the instance's Regime, before any
row, when they pass this cap, instead of running for hours or for ever:
K_33 (min=2, n = 33, m = 528) predicts 1.3e118 attempts and K_10 (9,
n = 10, m = 45) 4.9e8.  At about 1 ms an attempt the cap allows some
twenty minutes; 1,2,8 at (30, 83), which predicts 3.8e5, still draws.  An
explicit max_attempts is never capped.  `boltzmann_sample`, which has no
max_attempts, refuses the same way when its predicted parity redraws pass
the cap.  The cap counts attempts and redraws, not their cost: each parity
redraw draws all n degrees, so a run below the cap can still take minutes.
`boltzmann --degrees 1,2 --n 2001 --x 2e-9` predicts 5.0e5 redraws, under
the cap; with --seed 1 it drew 128,426 of them in 5.3 s on a 2-core VM.
"""

# Past x the Boltzmann degree law stops at a weight below _TAIL times its mass.
_TAIL = 1e-18

# Below x - _LEFT_SIGMAS*sqrt(x) every Boltzmann log weight is under -800, so
# math.exp gives exactly 0.0 there and the law of an infinite set starts past it.
_LEFT_SIGMAS = 40


class SamplerExhausted(RuntimeError):
    """Rejection sampling hit its attempt budget; carries the report.

    `log10_predicted_attempts` is set when the automatic budget refused to
    start because the predicted attempts passed _AUTO_ATTEMPT_CAP: those
    of `attempt_budget`, or the parity redraws of `boltzmann_sample`.
    """

    def __init__(self, message: str, report: "SampleReport",
                 log10_predicted_attempts: float | None = None):
        super().__init__(message)
        self.report = report
        self.log10_predicted_attempts = log10_predicted_attempts

    def __reduce__(self):
        # a process-pool worker hands its exception back by pickle, and the
        # default pickles only args, which cannot rebuild this one
        return type(self), (self.args[0], self.report,
                            self.log10_predicted_attempts)


class SampleReport(Record):
    """Counters for one sampling run; merge by adding fields."""

    __slots__ = ("samples_requested", "samples_produced", "rejections",
                 "odd_sum_retries")

    def __init__(self, samples_requested: int = 0, samples_produced: int = 0,
                 rejections: int = 0, odd_sum_retries: int = 0):
        self._fill(samples_requested, samples_produced, rejections,
                   odd_sum_retries)

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


def _refuse_past_cap(log_attempts: float, per: str, advice: str = "") -> None:
    """The automatic refusal: SamplerExhausted, with the predicted attempts,
    when e^log_attempts attempts per `per` pass _AUTO_ATTEMPT_CAP."""
    if log_attempts > math.log(_AUTO_ATTEMPT_CAP):
        log10 = log_attempts / math.log(10)
        raise SamplerExhausted(
            f"about 10^{log10:.1f} attempts predicted per {per}, above the "
            f"automatic budget's cap of {_AUTO_ATTEMPT_CAP}{advice}",
            SampleReport(samples_requested=1), log10)


def attempt_budget(regime: Regime, max_attempts: int | None = None) -> int:
    """Pairing attempts per simple graph at `regime`, decided before any row:
    an explicit max_attempts, never capped (ValueError below 1), else ten
    times the predicted attempts 1/acceptance = e^(L^2 + L), or
    SamplerExhausted when those pass _AUTO_ATTEMPT_CAP.  Raises
    InfeasibleRegimeError for `regime.reason or regime.simple_reason`."""
    reason = regime.reason or regime.simple_reason
    if reason is not None:
        raise InfeasibleRegimeError(reason)
    if max_attempts is not None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        return max_attempts
    lam = regime.loop_intensity
    _refuse_past_cap(lam * lam + lam, "simple graph",
                     "; give max_attempts to draw anyway")
    return 10 * math.ceil(1.0 / regime.acceptance)


@functools.cache
def _raw_word_sources() -> frozenset:
    """Bit generators whose random_raw() yields uniform 64-bit words.

    Others (MT19937 yields 32-bit ones) are read through Generator.integers,
    which gives these the same stream but costs about 10 us more per call.
    Built once, on the first draw, so that importing this module does not
    load numpy.
    """
    import numpy as np

    return frozenset({np.random.PCG64, np.random.PCG64DXSM,
                      np.random.Philox, np.random.SFC64})


def _word_source(rng: np.random.Generator):
    """Readers of uniform 64-bit words: (batch(size) -> uint64 array,
    one() -> int)."""
    bits = rng.bit_generator
    if type(bits) in _raw_word_sources():
        raw = bits.random_raw
        return raw, raw
    import numpy as np

    high = 1 << _WORD_BITS
    return ((lambda size: rng.integers(high, size=size, dtype=np.uint64)),
            (lambda: int(rng.integers(high, dtype=np.uint64))))


def make_rng(seed) -> np.random.Generator:
    """Seedable generator from an int, a SeedSequence (see spawn_seeds) or None."""
    import numpy as np

    return np.random.default_rng(seed)


def spawn_seeds(seed, count: int) -> list:
    """`count` independent child SeedSequences of `seed`, one per stream."""
    import numpy as np

    return np.random.SeedSequence(seed).spawn(count)


def _pair_endpoints(degrees, rng: np.random.Generator):
    """Endpoint arrays (a, b) of a uniform pairing of the half-edges.

    Lists vertex v once per half-edge (its stubs) and pairs the stubs at
    consecutive positions of one uniform permutation, which induces the
    uniform perfect matching: the k-th edge joins a[k] and b[k].
    """
    import numpy as np

    stubs = np.repeat(np.arange(1, len(degrees) + 1), degrees)
    if stubs.size % 2 != 0:
        raise ValueError("degree sum must be even to pair half-edges")
    order = stubs[rng.permutation(stubs.size)]
    return order[0::2], order[1::2]


def _edge_codes(degrees, rng: np.random.Generator):
    """Sorted edge codes u*(n+1) + v, u <= v, of a uniform pairing.

    One numpy sort of the pairing's endpoint arrays: the rejection test and
    the accepted graph both read this array, in Multigraph's own encoding.
    """
    import numpy as np

    a, b = _pair_endpoints(degrees, rng)
    codes = np.minimum(a, b) * (len(degrees) + 1) + np.maximum(a, b)
    codes.sort()
    return codes


def _is_simple_pairing(codes, n: int) -> bool:
    """Whether sorted edge codes on vertices 1..n hold no loop and no repeat.

    A loop u-u has the code u*(n+2), the only codes that are 0 mod n+2.
    """
    return not ((codes % (n + 2) == 0).any()
                or (codes[1:] == codes[:-1]).any())


def _band(n: int, total: int, sigma: float) -> list[tuple[int, int]]:
    """Row bounds (lo, hi) of the sampler's band for rows 0..n, clipped to
    [0, total]; see _BAND_SIGMAS."""
    spans = []
    for i in range(n + 1):
        if n == 0:
            lo, hi = 0, _BAND_SLACK
        else:
            centre = total * i / n
            half = (_BAND_SIGMAS * sigma * math.sqrt(i * (n - i) / n)
                    + _BAND_SLACK)
            lo, hi = math.ceil(centre - half), math.floor(centre + half)
        spans.append((max(lo, 0), min(hi, total)))
    return spans


def _log_factorials(limit: int) -> list[float]:
    """ln k! for k = 0..limit, each math.log of the exact integer k!."""
    logs = [0.0]
    fact = 1
    for k in range(1, limit + 1):
        fact *= k
        logs.append(math.log(fact))
    return logs


def _multigraph(n: int, codes) -> Multigraph:
    return Multigraph._from_sorted_codes(n, tuple(codes.tolist()))


def pair_half_edges(degrees, rng: np.random.Generator) -> Multigraph:
    """Uniform random pairing of the half-edges attached per the degrees.

    Each multigraph with the given degree sequence appears with probability
    proportional to its compensation factor.
    """
    return _multigraph(len(degrees), _edge_codes(degrees, rng))


class DegreeSequenceSampler:
    """Exact sampler of degree sequences and multigraphs at fixed (n, m).

    Raises InfeasibleRegimeError, before computing any row, when
    :func:`~degcount.tables.infeasibility_reason` finds no degree sequence.
    The constructor sets everything the sampler keeps: the band `_spans`,
    one clipped span (lo, hi) per row i <= n holding the cells a draw can
    plausibly reach (_BAND_SIGMAS); the log memo, one array('d') per row
    with L(i, k) = ln T[i][k] - ln k! (-inf for a zero cell) in slot k - lo;
    the tuple of members up to 2m the draws scan; ln k! for k <= 2m; the
    `regime` that `attempt_budget` reads for `sample_simple`; and, for a
    screened instance, the prefix slots, two per band cell, NaN until a
    draw fills them.  The memo comes from
    :func:`~degcount.tables.band_rows`, which streams the rows of T on the
    closure of the band, so no more than the two or three rows its
    recurrence holds are ever alive as integers, and no integer is kept.
    Draws write only prefix slots, each with the one float every draw
    computes for that cell, so one sampler can serve many concurrent
    generators as long as each worker owns its own rng stream.

    The float screen reads only the memo.  Every integer a draw reads is
    computed on demand by the exact comparison `_draw_degree`: its terms
    from one :func:`~degcount.tables.column_coefficients` pass, its row
    total from :func:`~degcount.tables.power_coefficient` unless the exact
    draw before handed it on.  The screen hands it a vertex with
    probability about 2 * _SCREEN_MARGIN per prefix ratio it scans, and
    every vertex whose row total, or any term its scan reaches, lies off
    the band.  An instance outside _SCREEN_LIMIT is not screened, so
    every vertex takes the exact draw; such instances (2m above about
    10^5) are beyond the reach of the build anyway.  It pickles as
    (degree_set, n, m), never as its memo: a forked process-pool worker
    shares the parent's sampler, and any other worker rebuilds the memo.
    """

    def __init__(self, degree_set: DegreeSet, n: int, m: int):
        self.regime = regime = resolve(degree_set, n, m)
        if regime.reason is not None:
            raise InfeasibleRegimeError(regime.reason)
        self.degree_set = degree_set
        self.n = n
        self.m = m
        sp = regime.saddle
        sigma = math.sqrt(sp.x * sp.slope) if sp is not None else 0.0
        self._spans = _band(n, 2 * m, sigma)
        self._members = tuple(degree_set.members_up_to(2 * m))
        self._log_fact = log_fact = _log_factorials(2 * m)
        self._screened = (2 * m * math.log(max(n, 1)) < _SCREEN_LIMIT
                          and log_fact[-1] < _SCREEN_LIMIT)
        # like numpy, loaded only by sampling, not by the counting commands
        from array import array

        # one memo row per band row, cell (i, k) in slot k - lo; the rows
        # are streamed, so their integers die as soon as they are logged
        log, zero = math.log, -math.inf
        self._log_cells = [
            array("d", [log(w) - log_fact[k] if w else zero
                        for k, w in enumerate(row, lo)])
            for (lo, _), row in zip(self._spans,
                                    band_rows(degree_set, self._spans))]
        # two prefix slots per band cell, cell (i, k) in slots 2(k - lo) and
        # 2(k - lo) + 1, NaN until a draw scans the cell; none unscreened
        unset = array("d", [math.nan])
        self._prefixes = ([unset * (2 * len(row)) for row in self._log_cells]
                          if self._screened else [])

    def __reduce__(self):
        # the memo is a pure function of the instance and far larger than it
        return type(self), (self.degree_set, self.n, self.m)

    # -- degree sequences ---------------------------------------------------

    def _draw_degree(self, i: int, j: int, word: int, one,
                     total: int | None) -> tuple[int, int]:
        """(degree of vertex i, T[i-1][j-degree]) when vertices 1..i carry
        j half-edges.

        The one exact decision of the degree draw; `sample_degrees` hands
        it every vertex its float screen cannot decide, with the row total
        T[i][j] when the previous exact draw returned it (else None).  The
        degree is the d with c_{d-1} <= u*T[i][j] < c_d, where c_d are the
        prefix sums of comb(j, d)*T[i-1][j-d] over the members d, read from
        one :func:`~degcount.tables.column_coefficients` pass of its own.
        `word` holds the leading bits of u, so u*T lies in [lo, hi] after
        flooring; the scan returns at the first c_d above that interval and
        skips every c_d at or below it.  A c_d inside it appends the word
        `one()` to u.
        """
        if total is None:
            total = power_coefficient(self.degree_set, i, j)
        comb = math.comb
        bits = _WORD_BITS
        scaled = word * total
        lo, hi = scaled >> bits, (scaled + total - 1) >> bits
        members = [d for d in self._members if d <= j]
        cells = column_coefficients(self.degree_set, i - 1,
                                    [j - d for d in members])
        acc = 0
        for d, cell in zip(members, cells):
            if not cell:
                continue
            acc += comb(j, d) * cell if d else cell
            while lo < acc <= hi:
                word = (word << _WORD_BITS) | one()
                bits += _WORD_BITS
                scaled = word * total
                lo, hi = scaled >> bits, (scaled + total - 1) >> bits
            if acc > hi:
                return d, cell
        raise AssertionError("prefix weights did not reach the row total")

    def sample_degrees(self, rng: np.random.Generator) -> list[int]:
        """One sequence (d_1..d_n), every d_i allowed, summing to 2m.

        Drawn with probability proportional to prod 1/d_i! among all such
        sequences, exactly: the last degree is drawn from the ratio law of T,
        then the remainder recursively, down to vertex 1, which takes what is
        left.  One call takes n - 1 uniform 64-bit words from the rng in one
        batch, plus one word per boundary straddle, which has probability
        below 2^-64 per boundary.

        Each vertex is first screened in floats: u = word * 2^-64 against
        the prefix ratios c_d / T[i][j], whose terms are
        exp(L(i-1, j-d) - L(i, j) - ln d!) with L(i, k) = ln T[i][k] - ln k!
        read from the memo, as each vertex that scans reads L(i, j).  A
        full scan of a band cell stores its sums after the first and second
        members in the cell's prefix slots as it passes them; later visits
        test u against those and scan on from the third member only when
        u lies past both, and a scan that stops at the first member leaves
        the second slot to a later one.  `_draw_degree` decides in integers
        when u lies within _SCREEN_MARGIN of a ratio, when the row total
        L(i, j) lies off row i's band, when a term the scan reaches lies
        off row i-1's band (a slot the scan filled before it keeps its
        sum), or when the instance lies outside the proven range
        (_SCREEN_LIMIT), where the sampler keeps no slots.  The
        screen reads no word, and it decides only where the exact draw
        would return the same degree without one, so the words read and
        the sequence are those of the exact draw alone.  A zero cell adds
        exp(-inf) = 0 to the prefix.  An exact draw returns its chosen
        cell, which is the next vertex's row total T[i][j] if that vertex
        is exact too; nothing else passes from one vertex to the next.
        """
        n = self.n
        if n == 0:
            return []
        batch, one = _word_source(rng)
        words = batch(n - 1)
        # u -+ margin for u = word * 2^-64, in numpy with the roundings of
        # Python floats: the word to the nearest double, then one per sum
        u = words * _WORD_SCALE
        bounds = zip(range(n, 1, -1), (u - _SCREEN_MARGIN).tolist(),
                     (u + _SCREEN_MARGIN).tolist())
        memo = self._log_cells
        prefixes = self._prefixes
        spans = self._spans
        log_fact = self._log_fact
        members = self._members
        # the members the two prefix slots cover, and those a scan goes on to
        first, second = members[0], members[1] if len(members) > 1 else -1
        rest = members[2:]
        exp = math.exp
        degrees = [0] * n
        j = 2 * self.m
        total = None    # T[i][j] when the exact draw of vertex i+1 gave it
        for i, below, above in bounds:
            lo, hi = spans[i]
            chosen = -1
            # an unscreened sampler keeps no slots; a row total off the
            # band has none either, and goes to the exact draw unscanned
            if prefixes and lo <= j <= hi:
                # the sums after the first two members, once a scan has
                # stored them; NaN fails both tests and goes to the scan
                slots = prefixes[i]
                slot = 2 * (j - lo)
                p = slots[slot]
                if p > below:
                    chosen = first if p >= above else -1
                elif p <= below and (p := slots[slot + 1]) > below:
                    chosen = second if p >= above else -1
                else:
                    top = memo[i][j - lo]
                    if p <= below:
                        acc, fill, scan = p, -1, rest
                    else:
                        acc, fill, scan = 0.0, slot, members
                    lo, hi = spans[i - 1]
                    row = memo[i - 1]
                    for d in scan:
                        # a term off row i-1's band (or d > j, where
                        # k < 0 <= lo) stops the scan undecided
                        k = j - d
                        if not lo <= k <= hi:
                            break
                        acc += exp(row[k - lo] - top - log_fact[d])
                        if fill >= 0:
                            # its own sum after the first or second member
                            slots[fill] = acc
                            fill = fill + 1 if fill == slot else -1
                        if acc > below:
                            if acc >= above:
                                chosen = d
                            break
            if chosen < 0:
                chosen, total = self._draw_degree(i, j, int(words[n - i]),
                                                  one, total)
            else:
                total = None
            degrees[i - 1] = chosen
            j -= chosen
        # every draw kept T[i-1][j] > 0, and T[1][j] > 0 means j is allowed
        if j not in self.degree_set:
            raise AssertionError("the remaining total is not an allowed degree")
        degrees[0] = j
        return degrees

    # -- multigraphs ----------------------------------------------------------

    def sample_multigraph(self, rng: np.random.Generator) -> Multigraph:
        """One multigraph, weighted by its compensation factor."""
        return pair_half_edges(self.sample_degrees(rng), rng)

    def sample_simple(self, rng: np.random.Generator,
                      max_attempts: int | None = None) -> tuple[Multigraph, SampleReport]:
        """Redraw multigraphs until one is simple; uniform over simple graphs.

        Takes its budget, or its refusal, from :func:`attempt_budget`.
        """
        max_attempts = attempt_budget(self.regime, max_attempts)
        for rejections in range(max_attempts):
            # the same draws as sample_multigraph, but only an accepted
            # pairing is built into a graph
            codes = _edge_codes(self.sample_degrees(rng), rng)
            if _is_simple_pairing(codes, self.n):
                return _multigraph(self.n, codes), SampleReport(
                    samples_requested=1, samples_produced=1,
                    rejections=rejections)
        raise SamplerExhausted(
            f"no simple graph in {max_attempts} attempts",
            SampleReport(samples_requested=1, rejections=max_attempts))


# -- Boltzmann generator ------------------------------------------------------

def boltzmann_degree_law(degree_set: DegreeSet,
                         x: float) -> tuple[np.ndarray, np.ndarray]:
    """Support and probabilities of the degree law P(d) = (x^d/d!) / Set(x).

    x may be any finite positive value whose law lies below degree 10^6:
    each weight is divided by Set(x) in log space (:meth:`DegreeSet.egf_log`),
    so none overflows.  Infinite sets start at the first member at or above
    x - 40 sqrt(x), below which every weight underflows to 0.0, and are
    truncated past x, where the factorial tail drops below _TAIL relative to
    the accumulated mass.
    """
    if not 0 < x < math.inf:
        raise ValueError(f"Boltzmann parameter must be finite and positive, got {x}")
    log_egf = degree_set.egf_log(x)
    lx = math.log(x)
    degrees = degree_set.members_up_to(10 ** 6)
    if degree_set.max_degree is INFINITE:
        r, step = degree_set.valuation, degree_set.periodicity
        skip = max(0, math.ceil((x - _LEFT_SIGMAS * math.sqrt(x) - r) / step))
        degrees = range(r + step * skip, 10 ** 6 + 1, step)
    support, probs = [], []
    acc = 0.0
    for d in degrees:
        p = math.exp(d * lx - math.lgamma(d + 1) - log_egf)
        support.append(d)
        probs.append(p)
        acc += p
        if d > x and p < _TAIL * acc:
            break
    if not abs(acc - 1.0) < 1e-9:
        raise ValueError(f"the Boltzmann law at x = {x} reaches past degree 10^6")
    import numpy as np

    return np.array(support), np.array(probs) / acc


def boltzmann_sample(degree_set: DegreeSet, n: int, x: float,
                     rng: np.random.Generator) -> tuple[Multigraph, SampleReport]:
    """n i.i.d. degrees from the Boltzmann law at x, then a uniform pairing.

    A sequence with odd total is discarded wholesale and redrawn; the report
    counts those retries.  The edge count of the output is random with mean
    n * mean_degree(x) / 2.  When every degree the law can draw is odd and n
    is odd, no sequence has an even total, and InfeasibleRegimeError is
    raised instead of redrawing forever.  A total is even with probability
    P = (1 + (e - o)^n) / 2 for the law's even and odd masses e and o, and
    SamplerExhausted refuses before the first draw when the predicted draws
    1/P pass _AUTO_ATTEMPT_CAP.  P < 1/2 only for odd n and e < o, where it
    is (1 - (1 - 2e/(e + o))^n) / 2, computed so that a tiny e keeps its
    digits (0,5,7 at x = 10^6 has e = 5e-39, and P = 1.5e-38, not 0).  The
    cap counts redraws, not their cost: each draws all n degrees, so a run
    below it can still take minutes (see _AUTO_ATTEMPT_CAP).
    """
    support, probs = boltzmann_degree_law(degree_set, x)
    if n % 2:
        if (support[probs > 0] % 2).all():
            raise InfeasibleRegimeError(
                f"every degree the law on {degree_set} can draw is odd, so "
                f"{n} vertices cannot have an even degree sum")
        odd = support % 2 == 1
        even_mass = float(probs[~odd].sum())
        share = 2 * even_mass / (even_mass + float(probs[odd].sum()))
        if share < 1:
            p_even = -math.expm1(n * math.log1p(-share)) / 2
            _refuse_past_cap(-math.log(p_even), "sequence with an even sum")
    retries = 0
    while True:
        degrees = rng.choice(support, size=n, p=probs)
        if int(degrees.sum()) % 2 == 0:
            break
        retries += 1
    graph = pair_half_edges(degrees, rng)
    return graph, SampleReport(samples_requested=1, samples_produced=1,
                               odd_sum_retries=retries)


def boltzmann_tune(degree_set: DegreeSet, target_mean_degree: float) -> float:
    """Parameter x making the Boltzmann mean degree equal the target.

    The expected degree at parameter x is exactly the mean-degree function,
    so this inverts it; the target must lie strictly between min(D) and
    max(D).
    """
    return solve_mean_degree(degree_set, target_mean_degree)
