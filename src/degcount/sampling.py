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
1999).  The sampler keeps no integers: it keeps L of the cells of a band
of each row, the part the draw can plausibly reach, a few standard
deviations around the remaining total's mean (_BAND_SIGMAS), plus two
prefix slots per band cell that any scan of the cell fills with the
screen's own running sums, so that a warm cell decides most vertices
without an exp.  L comes from the rows of T streamed as integers for even,
whose row recurrence subtracts, and from the same recurrences run in
floats for every other family, with a bound on each cell's error
(_log_memo).  The screen reads only that
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
the half-edge pairing, the Boltzmann degree law and the float rows of the
exact sampler's memo import it when called, and the exact sampler's
constructor imports `array` for its log memo.
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
from .tables import (band_rows, column_coefficients, power_coefficient,
                     row_spans)

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
e^(2^20)): each memo slot lies within _MEMO_ERROR = 2^-29 of its L or holds
NaN (_log_memo), and 2^-29 (1 + 2^-8) covers what the float rows' bound
leaves out.  ln e! is math.log of an int, log(x) + e*log(2) for its rounded
53-bit mantissa x and bit length e < 2^21, so it errs by under 2^-52 +
2^-53 (the mantissa and the float log) + 2^-33 (the error of the float
ln 2, times e) + 2 * 2^-34 (rounding the product and the sum), that is
2^-32 (1 + 2^-19).  The exponent reads two slots and ln e!, and rounds
twice below 2^21 (2^-33 each; a term whose exponent is below -2^21 is 0
either way).  So it errs by under 2^-28 (1 + 2^-8) + 2^-32 (1 + 2^-19) +
2^-32 = 4.21e-9, and each exp term is off by that much relative; the terms
sum to at most 1, and adding up to 2^20 of them costs 2^-33 = 1.2e-10 more.
So |p_d - c_d/T| < 4.4e-9, and the margin 2^-27 = 7.45e-9 leaves more than
one and a half times that.  A NaN slot makes the scan's running sum NaN,
which passes neither test, so the scan ends undecided and the vertex goes
to the exact draw.  A draw falls back with probability about 2 * margin
per prefix ratio it scans.  The prefix slots hold p_d of the first two
members as the scan computes them, so the bound covers them as is.
"""

_MEMO_ERROR = 2.0 ** -29
"""Most a log memo slot may differ from L(i, k) = ln T[i][k] - ln k!; a
float-built cell whose bound passes it is stored as NaN (_log_memo)."""

_SCREEN_LIMIT = 2 ** 20
"""Range of instances the float screen is proven on; see _SCREEN_MARGIN.

The constructor screens an instance, and builds its memo, only when
2m ln n and ln (2m)! are both below it.  T[i][j] counts maps of j labelled
half-edges to i vertices with allowed fibre sizes, so every cell the memo
holds is at most i^j <= n^(2m), and every factorial it reads is at most
(2m)!; then no row has 2^20 members either, and a row has fewer than 2^17
cells.  Outside it (2m above 99,763 whatever n is, or above 2^20 / ln n
once n passes about 2m/e: 91,076 at n = 10^5) every vertex goes to
`_draw_degree`.  Inside it the float rows' bound grows with n for min=delta
and odd, about as n^2 (min=2 at mean degree 3: 2.5e-10 on the band at
n = 2000, 9.4e-10 at 4000), because their first-order recurrence carries
the rounding of a row's lower tail into later rows' bands; past about
n = 5500 at that mean degree it passes _MEMO_ERROR on the late rows, whose
vertices then take the exact draw (BENCH_sample.json, float_memo_build).
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


def _log_memo(degree_set: DegreeSet, spans, regime: Regime,
              log_fact: list[float]) -> list:
    """The sampler's log memo: for each row i, one array('d') holding
    L(i, k) = ln T[i][k] - ln k! for k = lo..hi of spans[i] (-inf for a
    zero cell), each within _MEMO_ERROR of L or NaN.

    The one place that picks a family's route.  even's row recurrence
    subtracts, so its rows come from :func:`~degcount.tables.band_rows` as
    exact integers, and each cell is math.log of its integer minus ln k!:
    two int logs and one rounding, 2^-31 (1 + 2^-19) + 2^-34 < _MEMO_ERROR
    (see _SCREEN_MARGIN).  Every other family's rows add only nonnegative
    terms and are computed in floats by :func:`_float_rows`, with a bound
    on each cell's error; a cell whose bound passes _MEMO_ERROR is NaN,
    which the screen never decides on.
    """
    from array import array

    if degree_set.step == 2 and degree_set.start == 0:
        log, zero = math.log, -math.inf
        return [array("d", [log(w) - log_fact[k] if w else zero
                            for k, w in enumerate(row, lo)])
                for (lo, _), row in zip(spans, band_rows(degree_set, spans))]
    return [array("d", logs.tobytes())
            for logs, _ in _float_rows(degree_set, spans, regime, log_fact)]


def _float_rows(degree_set: DegreeSet, spans, regime: Regime,
                log_fact: list[float]):
    """(L, bound) for each span (lo, hi) of `spans`: numpy arrays of
    L(i, k), k = lo..hi, computed in floats, and of a bound on each one's
    error (NaN for a zero cell); L is NaN where its bound passes
    _MEMO_ERROR.  For every family but even.

    The rows run on :func:`~degcount.tables.row_spans` in log space,
    tilted: R(i, k) = L(i, k) + k ln x - i ln Set(x), with x the saddle
    point (1 if forced), is the log of the chance that i Boltzmann degrees
    at x sum to k, near 0 on the band where rounding is least.  ln x and
    ln Set(x) are fixed floats, so the tilt is exact; min=0 is untilted,
    L(i, k) = k ln i - ln k!.  A finite list sums R(i-1, k-d) + d ln x -
    ln d! - ln Set(x) over its members with np.logaddexp.  min=delta >= 1
    and odd solve their recurrence along the row, y(j+s) = a(j) (y(j) +
    b(j)) (s = 1, a = x i/(j+1) and b from row i-1 at j - delta + 1 for
    min=delta; s = 2, a = (x i)^2/((j+1)(j+2)) and b from row i-2 at j for
    odd), as y(j) = A(j) sum_(t<j) b(t)/A(t), A = prod a: one np.cumsum of
    ln a from the band's centre and one np.logaddexp.accumulate.

    The bound is a first-order rounding analysis done in the same pass.
    It assumes +, -, * round to nearest (2^-53 relative), math.log errs by
    at most 1 ulp and numpy's exp, log and log1p by 2 (numpy's own tests
    allow 1 ulp from the correctly rounded value), so np.logaddexp(a, b) =
    max + log1p(exp(-|a-b|)) errs by at most 2^-53 |r| + 2^-50 for its
    result r; `tests/test_sampling.py` checks these on the ranges used
    here.  Each rounding enters the bound of each cell its sum feeds,
    weighted by its share of that sum (a log-sum-exp's derivative in a
    term), and each source cell passes on its bound with its share; a
    share w of a term t <= r weighs t's rounding 2^-53 |t| by at most
    2^-53 (|r| + 1).  Rows carry V = R + ln bound, which follows the rows'
    recurrence plus each step's rounding.  Untilting adds 2^-52 (|k ln x|
    + |i ln Set(x)| + |L|).  Products of two errors are left out: the
    rounding of the bound's own sums (a relative p 2^-50 (|V| + |R| + 8)
    after p terms) and shares read with their cells' errors; both stay
    below a relative 2^-8 while p (|V| + |R| + 8) < 2^42 and the bounds
    below 2^-9, and _SCREEN_MARGIN's bound takes each slot within
    2^-29 (1 + 2^-8).
    """
    import numpy as np

    if regime.saddle is not None:
        x = regime.saddle.x
        lx, ls = math.log(x), degree_set.egf_log(x)
    else:       # forced: the one degree d has weight 1/d! at x = 1
        lx, ls = 0.0, -math.lgamma(regime.degree + 1)
    need = row_spans(degree_set, spans)
    lf = np.array(log_fact)
    start, step = degree_set.start, degree_set.step
    with np.errstate(divide="ignore", invalid="ignore"):
        if step == 0:   # members above 2m reach no cell
            rows = _finite_rows([d for d in degree_set.members if d < len(lf)],
                                need, lx, ls, lf)
        elif start == 0 and step == 1:
            lx = ls = 0.0
            rows = _power_rows(need, lf)
        else:
            rows = _first_order_rows(start, step, need, spans, lx, ls, lf)
        drop = np.arange(max(hi for _, hi in spans) + 1) * lx
        bands, held = [], 0
        for i, ((lo, hi), (first, row)) in enumerate(zip(spans, rows)):
            end = first + row.shape[1]
            if first <= lo and hi < end:
                bands.append(row[:, lo - first:hi - first + 1])
            else:   # the band reaches past the row's stored cells
                band = np.full((2, hi - lo + 1), -np.inf)
                at, to = max(lo, first), min(hi + 1, end)
                band[:, at - lo:to - lo] = row[:, at - first:to - first]
                bands.append(band)
            # untilt in batches of rows: a few numpy calls per batch, not
            # per row, with at most about 2^17 stored cells held
            held += row.shape[1]
            if held >= 1 << 17 or i == len(spans) - 1:
                yield from _untilt(bands, spans[i + 1 - len(bands):i + 1],
                                   i + 1 - len(bands), drop, ls)
                bands, held = [], 0


def _untilt(bands, spans, first_row: int, drop, ls: float):
    """(L, bound) for the rows first_row, ... of `bands`, each [R; V] on
    its span: L = R - k ln x + i ln Set(x), plus the rounding of that."""
    import numpy as np

    tilted, carried = np.concatenate(bands, axis=1)
    lengths = [hi - lo + 1 for lo, hi in spans]
    lift = np.repeat(np.arange(first_row, first_row + len(spans)) * ls,
                     lengths)
    dropped = np.concatenate([drop[lo:hi + 1] for lo, hi in spans])
    logs = tilted + (lift - dropped)
    bound = np.exp(carried - tilted)
    bound += 2.0 ** -52 * (np.abs(dropped) + np.abs(lift) + np.abs(logs))
    logs[bound > _MEMO_ERROR] = np.nan
    at = 0
    for length in lengths:
        yield logs[at:at + length], bound[at:at + length]
        at += length


def _base_row(hi: int, pad: int = 0):
    """Row 0 as (first, [R; V]) on columns -pad..hi: R(0, 0) = 0 exactly."""
    import numpy as np

    row = np.full((2, pad + hi + 1), -np.inf)
    row[0, pad] = 0.0
    return -pad, row


def _power_rows(need, lf):
    """min=0: L(i, k) = k ln i - ln k!, within 2^-51 (k ln i + ln k! + 1)
    + 2^-53 |L| (math.log within 1 ulp, ln k! within 2^-51 (ln k! + 1))."""
    import numpy as np

    yield _base_row(need[0][1])
    for i, (lo, hi) in enumerate(need[1:], 1):
        rise = np.arange(lo, hi + 1) * math.log(i)
        logs = rise - lf[lo:hi + 1]
        bound = (2.0 ** -51 * (rise + lf[lo:hi + 1] + 1)
                 + 2.0 ** -53 * np.abs(logs))
        yield lo, np.array([logs, logs + np.log(bound)])


def _finite_rows(members, need, lx, ls, lf):
    """Tilted rows of a finite list, each cell R(i, k) the log-sum-exp over
    the members d of R(i-1, k-d) + q_d, as (first, [R; V]), every row
    padded by max D cells of zero on the left so that each read is a
    slice."""
    import numpy as np

    pad = members[-1] if members else 0     # none only for n = 0
    q = [(d, d * lx - lf[d] - ls) for d in members]
    # q_d's two roundings and ln d!'s error, and the rounding of the sum's
    # |D| logaddexps and adds, each weighted by its share
    q_err = 2.0 ** -51 * max((abs(d * lx) + lf[d] + abs(ls) + 1
                              for d in members), default=0.0)
    count = len(members) + 1
    first, prev = _base_row(need[0][1], pad)
    yield first, prev
    for lo, hi in need[1:]:
        width = hi - lo + 1
        row = np.empty((2, pad + width))
        row[:, :pad] = -np.inf
        sums = row[:, pad:]
        for d, qd in q:
            at = lo - d - first
            if d == q[0][0]:
                np.add(prev[:, at:at + width], qd, out=sums)
            else:
                np.logaddexp(sums, prev[:, at:at + width] + qd, out=sums)
        tilted, carried = sums
        # clipped, a zero cell's |R| = inf keeps its V at -inf
        local = np.minimum(np.abs(tilted), 2.0 ** 1000)
        local *= count * 2.0 ** -53
        local += count * 2.0 ** -50 + q_err
        np.logaddexp(carried, np.log(local) + tilted, out=carried)
        first, prev = lo - pad, row
        yield first, prev


def _first_order_rows(delta, step, need, spans, lx, ls, lf):
    """Tilted rows of min=delta >= 1 (step 1) or odd (step 2) as
    (first, [R; V]), each from its first-order recurrence along the row."""
    import numpy as np

    rows = [_base_row(need[0][1])]
    if step == 2 and len(need) > 1:     # row 1 of odd: x^k/k! / sinh x
        top = need[1][1]
        ks = np.arange(1, top + 1, 2)
        one = ks * lx - lf[ks] - ls
        bound = 2.0 ** -51 * (np.abs(ks * lx) + lf[ks] + abs(ls) + 1)
        row = np.full((2, top), -np.inf)
        row[:, ::2] = one, one + np.log(bound)
        rows.append((1, row))
    yield from rows
    ax = step * (abs(lx) + 1)
    for i in range(len(rows), len(need)):
        hi = need[i][1]
        first = delta * i - 1 if step == 1 else i - 2
        size = max((hi - first) // step, 0)
        cols = np.arange(first + 1, first + 1 + step * size, step)
        # ln a(j) = s ln x + ln(i^s/((j+1)...(j+s))) and the source's
        # constant: (delta-1) ln x - ln (delta-1)! - ln S for min=delta,
        # ln((i-1)/i) - 2 ln S for odd
        if step == 1:
            alpha = lx + np.log(i / cols)
            beta = (delta - 1) * lx - lf[delta - 1] - ls
            b_err = 2.0 ** -51 * ((delta - 1) * abs(lx) + 2 * lf[delta - 1]
                                  + abs(ls) + 1)
            shift = delta - 1
        else:
            alpha = 2 * lx + np.log(i / cols * (i / (cols + 1)))
            beta = math.log1p(-1 / i) - 2 * ls
            b_err = 2.0 ** -51 * (abs(beta) + 1)
            shift = 0
        src_first, src = rows[-step]
        at = first - shift - src_first
        source = src[:, at:at + step * size:step]
        # ln A(j) relative to the cell nearest the band's centre
        ref = min(max(round((sum(spans[i]) / 2 - first) / step), 0), size)
        lna = np.zeros(size + 1)
        lna[ref + 1:] = np.cumsum(alpha[ref:])
        lna[:ref] = -np.cumsum(alpha[:ref][::-1])[::-1]
        head, tail = lna[:-1], lna[1:]
        lnb = source[0] + beta
        c = lnb - head
        z = np.logaddexp.accumulate(c)
        tilted = tail + z
        # a source term's roundings (ln b, c = ln b - ln A and beta's),
        # weighted by its share, and each step's (ln a(j), ln A's cumsum,
        # the accumulate's and R = ln A + z's), by the partial sum's share
        own = np.where(c > -np.inf, c + np.log(
            2.0 ** -53 * (np.abs(lnb) + np.abs(c)) + b_err), -np.inf)
        per_step = 2.0 ** -53 * (np.maximum(np.abs(head), np.abs(tail))
                                 + np.abs(z) + np.abs(tilted))
        per_step += 2.0 ** -50 * (np.abs(alpha) + ax + 1)
        h = np.logaddexp.accumulate(np.logaddexp(
            np.logaddexp(source[1] + beta - head, own), z + np.log(per_step)))
        row = np.full((2, step * size + 1), -np.inf)
        row[0, step::step] = tilted
        row[1, step::step] = tail + h
        rows = rows[1:] + [(first, row)] if step == 2 else [(first, row)]
        yield first, row


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
    plausibly reach (_BAND_SIGMAS); for a screened instance, the log
    memo, one array('d') per row with L(i, k) = ln T[i][k] - ln k! (-inf
    for a zero cell) in slot k - lo, and the prefix slots, two per band
    cell, NaN until a draw fills them; the tuple of members up to 2m the
    draws scan; ln k! for k <= 2m; and the `regime` that `attempt_budget`
    reads for `sample_simple`.  The memo comes from :func:`_log_memo`:
    for even, :func:`~degcount.tables.band_rows` streams the rows of T on
    the closure of the band, so no more than the two or three rows its
    recurrence holds are ever alive as integers; every other family's rows
    are computed in floats on the same closure, each cell within
    _MEMO_ERROR of L or NaN.  No integer is kept.
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
    the band or reads a NaN slot.  An instance outside _SCREEN_LIMIT
    (2m above about 10^5) is not screened and builds no memo, so every
    vertex takes the exact draw.  It pickles as
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
        # one memo row per band row, cell (i, k) in slot k - lo; only the
        # screen reads it, so an unscreened sampler builds none
        self._log_cells = (_log_memo(degree_set, self._spans, regime,
                                     log_fact) if self._screened else [])
        # like numpy, loaded only by sampling, not by the counting commands
        from array import array

        # two prefix slots per band cell, cell (i, k) in slots 2(k - lo) and
        # 2(k - lo) + 1, NaN until a draw scans the cell
        unset = array("d", [math.nan])
        self._prefixes = [unset * (2 * len(row)) for row in self._log_cells]

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
        sum), when the scan reads a NaN slot (its sum turns NaN and passes
        no test), or when the instance lies outside the proven range
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
