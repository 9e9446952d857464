"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from degcount import (DegreeSet, DegreeSequenceSampler, acceptance_probability,
                      boltzmann_degree_law, boltzmann_sample, boltzmann_tune,
                      build_table, make_rng, marked_multigraph_weight,
                      mean_degree, mean_degree_slope,
                      multigraph_count_asymptotic, multigraph_weight,
                      simple_graph_count_asymptotic, solve_mean_degree)

from conftest import FAMILY, SADDLE_FAMILY
from oracle import (GraphClass, compensation_factor, count_simple_graphs,
                    iter_multigraphs, marked_weight_brute,
                    multigraph_weight_brute)

GRID_NM = [(n, m) for n in range(0, 6) for m in range(0, 6)]


def record(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {label} {detail}"


def log_fraction(f: Fraction) -> float:
    return math.log(f.numerator) - math.log(f.denominator)


def test_criterion_01_exact_counts_match_oracle():
    start = time.time()
    checked = 0
    for ds in FAMILY:
        for n, m in GRID_NM:
            assert multigraph_weight(ds, n, m) == multigraph_weight_brute(ds, n, m), \
                f"mismatch for {ds} n={n} m={m}"
            checked += 1
    elapsed = time.time() - start
    record(1, "exact count equals brute-force oracle on the full grid",
           elapsed < 300, f"{checked} instances, {elapsed:.1f}s")


def test_criterion_02_unconstrained_closed_form():
    ds = DegreeSet.min_degree(0)
    for n in range(0, 41):
        for m in range(0, 41):
            expected = Fraction(n ** (2 * m), 2 ** m * math.factorial(m))
            assert multigraph_weight(ds, n, m) == expected, f"n={n} m={m}"
    record(2, "unconstrained weight equals n^(2m)/(2^m m!) for n, m <= 40", True)


def test_criterion_03_marked_formula_equivalence():
    points = [(0, 0), (1, 1), (-1, -1), (2, -1)]
    for ds in FAMILY:
        for n in range(1, 5):
            for m in range(0, 5):
                for u, v in points:
                    exact = marked_multigraph_weight(ds, n, m, u, v)
                    brute = marked_weight_brute(ds, n, m, u, v)
                    assert exact == brute, f"{ds} n={n} m={m} ({u},{v})"
                tame = marked_weight_brute(
                    ds, n, m, -1, -1,
                    classes={GraphClass.SIMPLE, GraphClass.STAR})
                assert tame == count_simple_graphs(ds, n, m), \
                    f"inclusion-exclusion broke for {ds} n={n} m={m}"
    record(3, "marked weights match the oracle; tame class recovers simple counts", True)


def _relative_errors(ds, ratio_num, ratio_den, sizes):
    errs = []
    for n in sizes:
        m = n * ratio_num // ratio_den
        exact = multigraph_weight(ds, n, m)
        estimate = multigraph_count_asymptotic(ds, n, m)
        errs.append(abs(math.exp(estimate.log_value - log_fraction(exact)) - 1.0))
    return errs


def test_criterion_04_multigraph_asymptotic_convergence():
    start = time.time()
    sizes = (64, 128, 256, 512)
    results = {}
    for ds, num, den in ((DegreeSet.even(), 1, 2), (DegreeSet.min_degree(2), 3, 2)):
        errs = _relative_errors(ds, num, den, sizes)
        assert all(a > b for a, b in zip(errs, errs[1:])), f"{ds}: {errs}"
        assert errs[-1] < 0.02, f"{ds}: err(512) = {errs[-1]}"
        assert errs[1] / errs[3] >= 2.5, f"{ds}: decay ratio {errs[1] / errs[3]}"
        results[str(ds)] = errs[-1]
    elapsed = time.time() - start
    record(4, "multigraph estimate converges at the 1/n rate",
           elapsed < 60,
           f"err(512): even={results['even']:.2e} min=2 at 3 degrees/vertex="
           f"{results['min=2']:.2e}, {elapsed:.1f}s")


def test_criterion_05_simple_asymptotic_vs_brute_force():
    start = time.time()
    ds = DegreeSet.min_degree(1)
    errs = []
    for n in (6, 8):
        exact = count_simple_graphs(ds, n, n)
        estimate = simple_graph_count_asymptotic(ds, n, n)
        errs.append(abs(math.exp(estimate.log_value - math.log(exact)) - 1.0))
    elapsed = time.time() - start
    ok = errs[1] < errs[0] and errs[1] < 0.35 and elapsed < 60
    record(5, "simple-graph estimate approaches the brute-force count",
           ok, f"err(6)={errs[0]:.3f} err(8)={errs[1]:.3f}, {elapsed:.1f}s")


def test_criterion_06_unconstrained_simple_graph_check():
    n = m = 300
    estimate = simple_graph_count_asymptotic(DegreeSet.min_degree(0), n, m)
    exact_log = math.log(math.comb(math.comb(n, 2), m))
    err = abs(math.exp(estimate.log_value - exact_log) - 1.0)
    record(6, "estimate matches C(C(300,2), 300)", err < 0.02, f"err={err:.4f}")


def test_criterion_07_sampler_laws():
    # (a) multigraph frequencies proportional to the compensation factor
    ds = DegreeSet.min_degree(0)
    n, m = 2, 2
    law = {}
    total_weight = Fraction(0)
    for g in iter_multigraphs(n, m):
        w = compensation_factor(g)
        law[g] = w
        total_weight += w
    law = {g: w / total_weight for g, w in law.items()}

    sampler = DegreeSequenceSampler(ds, n, m)
    rng = make_rng(20240501)
    trials = 1_000_000
    counts = Counter()
    for _ in range(trials):
        g = sampler.sample_multigraph(rng)
        assert g.num_edges == m
        counts[g] += 1
    assert set(counts) <= set(law)
    worst = 0.0
    for g, prob in law.items():
        p = float(prob)
        sigma = math.sqrt(p * (1 - p) / trials)
        dev = abs(counts[g] / trials - p) / sigma
        worst = max(worst, dev)
    record(7, "(a) multigraph frequencies track the compensation factors",
           worst <= 4.0, f"worst deviation {worst:.2f} sigma over {len(law)} outcomes")

    # (b) rejection sampling is uniform on simple graphs
    ds = DegreeSet.min_degree(1)
    n, m = 4, 3
    sampler = DegreeSequenceSampler(ds, n, m)
    rng = make_rng(777)
    accepted = 1_000_000
    counts = Counter()
    # the default attempt budget is sized for one-shot use; a million draws
    # will see ~1-in-2^20 streaks, so give the loop real headroom
    for _ in range(accepted):
        g, _ = sampler.sample_simple(rng, max_attempts=100_000)
        # (c) every sample is on spec: m edges, all degrees allowed
        assert g.num_edges == m
        assert all(d in ds for d in g.degrees())
        counts[g] += 1
    outcomes = count_simple_graphs(ds, n, m)
    assert len(counts) == outcomes
    expected = accepted / outcomes
    statistic = sum((c - expected) ** 2 / expected for c in counts.values())
    threshold = chi2.ppf(1 - 1e-3, df=outcomes - 1)
    record(7, "(b) chi-square keeps uniformity over all labelled simple graphs",
           statistic < threshold,
           f"chi2={statistic:.1f} < {threshold:.1f} with {outcomes} outcomes")
    record(7, "(c) every sample had m edges and admissible degrees", True)


def test_criterion_08_acceptance_rate_prediction():
    start = time.time()
    ds = DegreeSet.even()
    n, m = 1000, 500
    predicted = acceptance_probability(ds, n, m)

    sampler = DegreeSequenceSampler(ds, n, m)
    rng = make_rng(31337)
    sequences = 2000
    pairings_per_sequence = 100
    simple = 0
    for _ in range(sequences):
        degrees = np.array(sampler.sample_degrees(rng), dtype=np.int64)
        stubs = np.repeat(np.arange(1, n + 1, dtype=np.int64), degrees)
        for _ in range(pairings_per_sequence):
            order = stubs[rng.permutation(2 * m)]
            a = order[0::2]
            b = order[1::2]
            if (a == b).any():
                continue
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            codes = lo * np.int64(n + 1) + hi
            if np.unique(codes).size == m:
                simple += 1
    fraction = simple / (sequences * pairings_per_sequence)
    elapsed = time.time() - start
    record(8, "empirical simple fraction matches exp(-L^2 - L)",
           abs(fraction - predicted) < 0.01 and elapsed < 120,
           f"empirical={fraction:.4f} predicted={predicted:.4f}, {elapsed:.1f}s")


def test_criterion_09_boltzmann_calibration():
    ds = DegreeSet.min_degree(2)
    x = boltzmann_tune(ds, 3.0)
    support, probs = boltzmann_degree_law(ds, x)
    rng = make_rng(2024)
    draws = rng.choice(support, size=100_000, p=probs)
    mean = float(draws.mean())
    ok_mean = abs(mean - 3.0) / 3.0 < 0.01

    rng = make_rng(99)
    retries = 0
    for _ in range(200):
        _, report = boltzmann_sample(DegreeSet.even(), 9, 1.3, rng)
        retries += report.odd_sum_retries
    record(9, "tuned Boltzmann mean degree hits the target; even sets never retry",
           ok_mean and retries == 0, f"mean={mean:.4f}, retries={retries}")


def test_criterion_10_saddle_solver_grid():
    worst_gap = 0.0
    worst_slope = 0.0
    for ds in SADDLE_FAMILY:
        r = ds.valuation
        hi = min(ds.max_degree, r + 10)
        targets = [r + (hi - r) * (i + 0.5) / 20 for i in range(20)]
        for target in targets:
            x = solve_mean_degree(ds, target)
            gap = abs(mean_degree(ds, x) - target) / target
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-12, f"{ds} target {target}: gap {gap}"
            h = 1e-6 * x
            fd = (mean_degree(ds, x + h) - mean_degree(ds, x - h)) / (2 * h)
            slope_err = abs(mean_degree_slope(ds, x) - fd) / fd
            worst_slope = max(worst_slope, slope_err)
            assert slope_err <= 1e-6, f"{ds} target {target}: slope err {slope_err}"
    record(10, "saddle solver and slope meet their tolerances on every grid point",
           True, f"worst gap {worst_gap:.1e}, worst slope err {worst_slope:.1e}")
