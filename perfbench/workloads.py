"""The four workloads: op lists made from a seed, the ops, and their checks.

An op list is a pure function of (workload, seed, scale).  Op i draws its
parameters from child i of a ``SeedSequence`` keyed on the seed and the
workload, so no op depends on the ops before it.  Slot patterns stratify the
draws (degree set, size band) so that a run of a hundred ops covers the same
mix whichever seed made it.

Every call into degcount goes through the package namespace
(``dc.multigraph_weight``), never a name bound at import time, so the tracer
in ``tracing.py`` sees it.  Checks run after an op's timer has stopped and
return None when the output is right, or a message saying why it is not.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import degcount as dc

REFS_DIR = Path(__file__).resolve().parent / "refs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

_TAGS = {"exact": 1, "sample": 2, "saddle": 3, "cli": 4}


class KnownRegimeDefect(Exception):
    """An edge-of-regime saddle query raised the error it raises today."""


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    degrees: str
    n: int
    m: int
    rng_seed: int = 0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def fraction_digest(value: Fraction) -> str:
    return digest(f"{value.numerator}/{value.denominator}")


def load_refs(refs_dir: Path = REFS_DIR) -> dict:
    return {p.stem: json.loads(p.read_text())
            for p in sorted(refs_dir.glob("*.json"))}


def _children(seed: int, workload: str, count: int):
    return np.random.SeedSequence([seed, _TAGS[workload]]).spawn(count)


def _rng_seed(child) -> int:
    return int.from_bytes(child.generate_state(4).tobytes(), "little")


def _even_between(rng, lo: int, hi: int) -> int:
    """Uniform even integer in [lo, hi]; lo and hi are even."""
    return 2 * int(rng.integers(lo // 2, hi // 2 + 1))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _rotation(seed: int, workload: str, stream: int) -> float:
    """A uniform offset in [0, 1) fixed by (seed, workload, stream)."""
    ss = np.random.SeedSequence([seed, _TAGS[workload], 1000 + stream])
    return float(np.random.default_rng(ss).random())


def _spread_even(lo: int, hi: int, offset: float, t: int) -> int:
    """The t-th even size of a randomly rotated golden-ratio sequence.

    Any run of consecutive t covers [lo, hi] almost evenly, so a run of a
    hundred ops meets the same size mix whatever the rotation.
    """
    u = (offset + t * _GOLDEN) % 1.0
    return lo + 2 * int(u * ((hi - lo) // 2 + 1))


def _edges_for_mean(n: int, mean: tuple[int, int]) -> int:
    return n * mean[0] // (2 * mean[1])


def _rel_close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * abs(ref)


def _degree_set(text: str, cache: dict):
    if text not in cache:
        cache[text] = dc.parse_degree_set(text)
    return cache[text]


class Workload:
    """Defaults: no state to build, nothing to observe in the traced pass."""

    name = ""
    trace_ops = 0  # ops in each pass of the traced run

    def setup(self):
        return None

    def observe(self, op: Op, out, latency_s: float):
        """Record per-layer figures from a checked op of the traced pass."""

    def layer_metrics(self) -> dict:
        return {}


# -- exact ---------------------------------------------------------------------

# Interior mean degree 2m/n per set, as a fraction; m = n * p / (2 q).
EXACT_MEANS = {"even": (1, 1), "odd": (2, 1), "min=1": (3, 2),
               "min=2": (5, 2), "1,3": (2, 1), "2,3": (5, 2)}
EXACT_SETS = list(EXACT_MEANS)
EXACT_SIZES = {"full": {"n": (128, 512), "marked_n": (32, 64)},
               "tiny": {"n": (16, 32), "marked_n": (8, 12)}}


def exact_closed_form(degrees: str, n: int, m: int) -> Fraction | None:
    """Weight from the closed forms of ROADMAP item 4, or None for other sets.

    even: T = 2^-n sum_k C(n,k) (n-2k)^j;  odd: the same with (-1)^k;
    min=1: T = sum_i (-1)^i C(n,i) (n-i)^j, the surjection count.
    """
    j = 2 * m
    comb = math.comb
    if degrees in ("even", "odd"):
        sign = -1 if degrees == "odd" else 1
        total = sum(sign ** k * comb(n, k) * (n - 2 * k) ** j
                    for k in range(n + 1))
        t, rem = divmod(total, 1 << n)
        if rem:
            raise ArithmeticError("closed-form sum not divisible by 2^n")
    elif degrees == "min=1":
        t = sum((-1) ** i * comb(n, i) * (n - i) ** j for i in range(n + 1))
    else:
        return None
    return Fraction(t, (1 << m) * math.factorial(m))


class ExactWorkload(Workload):
    """One op is one exact count: multigraph_weight, or 1 in 10 marked."""

    name = "exact"
    trace_ops = 60

    def __init__(self, scale: str, refs: dict):
        self.sizes = EXACT_SIZES[scale]
        self.refs = refs
        self.sets: dict = {}

    def ops(self, seed: int, count: int = 800) -> list[Op]:
        # Rounds of 20 slots: 18 multigraph_weight ops (each set three
        # times) and 2 marked ops at slots 9 and 19.  The t-th weight op on
        # a set takes the t-th size of that set's rotated sequence.
        offsets = [_rotation(seed, self.name, k) for k in range(len(EXACT_SETS))]
        out = []
        for i, child in enumerate(_children(seed, self.name, count)):
            rng = np.random.default_rng(child)
            rnd, slot = divmod(i, 20)
            if slot in (9, 19):
                degrees = EXACT_SETS[(2 * rnd + slot // 10) % len(EXACT_SETS)]
                n = _even_between(rng, *self.sizes["marked_n"])
                kind = "marked"
            else:
                q = slot - (slot > 9)
                k = q % len(EXACT_SETS)
                degrees = EXACT_SETS[k]
                n = _spread_even(*self.sizes["n"], offsets[k], 3 * rnd + q // 6)
                kind = "weight"
            out.append(Op(i, kind, degrees, n,
                          _edges_for_mean(n, EXACT_MEANS[degrees])))
        return out

    def run(self, state, op: Op):
        degree_set = _degree_set(op.degrees, self.sets)
        if op.kind == "marked":
            return dc.marked_multigraph_weight(degree_set, op.n, op.m, -1, -1)
        return dc.multigraph_weight(degree_set, op.n, op.m)

    def check(self, op: Op, out) -> str | None:
        if not isinstance(out, Fraction):
            return f"not a Fraction: {type(out).__name__}"
        key = f"{op.degrees}|{op.n}|{op.m}"
        if op.kind == "marked":
            ref = self.refs["marked"].get(key)
            if ref is None:
                return f"no pinned marked weight for {key}"
            if fraction_digest(out) != ref:
                return f"marked weight digest differs from the pin for {key}"
            degree_set = _degree_set(op.degrees, self.sets)
            at_zero = dc.marked_multigraph_weight(degree_set, op.n, op.m, 0, 0)
            if at_zero != dc.multigraph_weight(degree_set, op.n, op.m):
                return f"marked(0, 0) != multigraph_weight for {key}"
            return None
        closed = exact_closed_form(op.degrees, op.n, op.m)
        if closed is not None:
            return None if out == closed else f"differs from closed form: {key}"
        ref = self.refs["exact"].get(key)
        if ref is None:
            return f"no pinned weight for {key}"
        return None if fraction_digest(out) == ref else f"digest differs: {key}"


# -- saddle --------------------------------------------------------------------

SADDLE_SETS = ["even", "odd", "min=2", "min=3", "1,3", "2,3", "1,2,5",
               "0,2,4,7"]
# Mean-degree window for the infinite families: (min D, min D + 4).
SADDLE_WINDOW = 4
SADDLE_N = [2 * round(10 ** (2 + k / 6) / 2) for k in range(25)]
SADDLE_T = [0.1, 0.3, 0.5, 0.7, 0.9]
# 2m/n = min D or max D: every degree is forced to that value.
BOUNDARY_CASES = [("min=3", 3), ("1,3", 1), ("1,3", 3), ("2,3", 2),
                  ("2,3", 3)]
EMPTY_SHIFT_N = list(range(100, 401, 4))


def saddle_mean(degrees: str, t: float) -> float:
    degree_set = dc.parse_degree_set(degrees)
    lo = degree_set.valuation
    hi = degree_set.max_degree
    if hi == dc.INFINITE:
        hi = lo + SADDLE_WINDOW
    return lo + t * (hi - lo)


def saddle_grid():
    """Every interior (degrees, n, m) the saddle workload can draw."""
    for degrees in SADDLE_SETS:
        for t in SADDLE_T:
            mean = saddle_mean(degrees, t)
            for n in SADDLE_N:
                yield degrees, n, round(mean * n / 2)


class SaddleWorkload(Workload):
    """One op is one instance query: three estimates on one (D, n, m).

    One slot in 20 is a regime-edge query (2m/n on the edge of D's range,
    or D-2 empty).  While such a query raises the regime error it raises at
    the seed commit, it is counted as a known defect, apart from the timed
    ops; once it returns, it is timed and checked like any other op.
    """

    name = "saddle"
    trace_ops = 1000

    def __init__(self, scale: str, refs: dict):
        self.refs = refs
        self.sets: dict = {}
        self._residual_ok: dict = {}
        self._exact_log: dict = {}

    def ops(self, seed: int, count: int = 4000) -> list[Op]:
        out = []
        for i, child in enumerate(_children(seed, self.name, count)):
            rng = np.random.default_rng(child)
            rnd, slot = divmod(i, 20)
            if slot == 19 and rnd % 2 == 0:
                degrees, d = BOUNDARY_CASES[int(rng.integers(len(BOUNDARY_CASES)))]
                n = SADDLE_N[int(rng.integers(len(SADDLE_N)))]
                out.append(Op(i, "boundary", degrees, n, n * d // 2))
            elif slot == 19:
                n = EMPTY_SHIFT_N[int(rng.integers(len(EMPTY_SHIFT_N)))]
                out.append(Op(i, "empty-shift", "0,1", n, n // 4))
            else:
                j = 19 * rnd + slot
                degrees = SADDLE_SETS[j % len(SADDLE_SETS)]
                t = SADDLE_T[(j // len(SADDLE_SETS)) % len(SADDLE_T)]
                n = SADDLE_N[int(rng.integers(len(SADDLE_N)))]
                m = round(saddle_mean(degrees, t) * n / 2)
                out.append(Op(i, "interior", degrees, n, m))
        return out

    def run(self, state, op: Op):
        degree_set = _degree_set(op.degrees, self.sets)
        try:
            return (dc.multigraph_count_asymptotic(degree_set, op.n, op.m),
                    dc.simple_graph_count_asymptotic(degree_set, op.n, op.m),
                    dc.acceptance_probability(degree_set, op.n, op.m))
        except (dc.InfeasibleRegimeError, dc.DegenerateShiftError) as exc:
            if op.kind == "interior":
                raise
            raise KnownRegimeDefect(str(exc)) from exc

    def check(self, op: Op, out) -> str | None:
        multi, simple, acc = out
        key = f"{op.degrees}|{op.n}|{op.m}"
        if not (multi.feasible and simple.feasible):
            return f"estimate reported infeasible for {key}"
        if op.kind == "boundary":
            return self._check_boundary(op, multi, simple, acc)
        if op.kind == "empty-shift":
            return self._check_empty_shift(op, multi, simple, acc)
        ref = self.refs["saddle"].get(key)
        if ref is None:
            return f"no pinned estimate for {key}"
        for value, pinned, what in zip(
                (multi.log_value, simple.log_value, acc), ref,
                ("multigraph log", "simple log", "acceptance")):
            if not _rel_close(value, pinned, 1e-9):
                return f"{what} {value!r} differs from the pin {pinned!r} ({key})"
        if key not in self._residual_ok:
            degree_set = _degree_set(op.degrees, self.sets)
            target = 2.0 * op.m / op.n
            x = dc.saddle_point(degree_set, op.n, op.m).x
            residual = abs(dc.mean_degree(degree_set, x) - target)
            self._residual_ok[key] = residual <= 1e-12 * target
        if not self._residual_ok[key]:
            return f"solver residual above 1e-12 relative for {key}"
        return None

    def _check_boundary(self, op, multi, simple, acc):
        d = 2 * op.m // op.n
        forced = dc.DegreeSet.finite([d])
        lam = (d - 1) / 2.0
        expected = (dc.multigraph_count_asymptotic(forced, op.n, op.m).log_value,
                    dc.simple_graph_count_asymptotic(forced, op.n, op.m).log_value,
                    math.exp(-lam * lam - lam))
        for value, ref in zip((multi.log_value, simple.log_value, acc), expected):
            if not _rel_close(value, ref, 1e-9):
                return f"boundary estimate {value!r} != forced {{{d}}} form {ref!r}"
        return None

    def _check_empty_shift(self, op, multi, simple, acc):
        key = (op.n, op.m)
        if key not in self._exact_log:
            w = dc.multigraph_weight(_degree_set(op.degrees, self.sets),
                                     op.n, op.m)
            self._exact_log[key] = math.log(w.numerator) - math.log(w.denominator)
        if abs(math.expm1(multi.log_value - self._exact_log[key])) > 1.0 / op.n:
            return f"D-2-empty estimate off by more than 1/n at n={op.n}"
        if acc != 1.0:
            return f"D-2-empty acceptance {acc!r} != 1"
        if not _rel_close(simple.log_value, multi.log_value, 1e-12):
            return "D-2-empty simple estimate differs from the multigraph one"
        return None


# -- sample --------------------------------------------------------------------

SAMPLE_SIZES = {
    "full": {"even": (500, 250), "2,3": (300, 375), "boltzmann_n": (2000, 8000)},
    "tiny": {"even": (40, 20), "2,3": (30, 37), "boltzmann_n": (200, 800)},
}
BOLTZMANN_SET = "min=2"
BOLTZMANN_MEAN = 3.0


class SampleWorkload(Workload):
    """One op is one graph, cycling: exact even, exact 2,3, Boltzmann.

    The even sampler's candidate lists are longer than the sampler's row
    cache width, so its draws take the linear scan; the 2,3 sampler's lists
    are short, so its draws take the cached-row bisect.
    """

    name = "sample"
    trace_ops = 60

    def __init__(self, scale: str, refs: dict):
        self.sizes = SAMPLE_SIZES[scale]
        self.sets: dict = {}
        self.attempts = self.graphs = self.odd_sum_retries = 0
        self.predicted: list[float] = []
        self._acceptance: dict = {}

    def ops(self, seed: int, count: int = 1200) -> list[Op]:
        out = []
        offset = _rotation(seed, self.name, 0)
        for i, child in enumerate(_children(seed, self.name, count)):
            rnd, slot = divmod(i, 3)
            if slot == 2:
                n = _spread_even(*self.sizes["boltzmann_n"], offset, rnd)
                out.append(Op(i, "boltzmann", BOLTZMANN_SET, n, 0,
                              _rng_seed(child)))
            else:
                degrees = ("even", "2,3")[slot]
                n, m = self.sizes[degrees]
                out.append(Op(i, "exact", degrees, n, m, _rng_seed(child)))
        return out

    def setup(self):
        """The two retained tables; this is the workload's set-up cost."""
        return {degrees: dc.DegreeSequenceSampler(
                    _degree_set(degrees, self.sets), *self.sizes[degrees])
                for degrees in ("even", "2,3")}

    def run(self, samplers, op: Op):
        rng = dc.make_rng(op.rng_seed)
        if op.kind == "exact":
            return samplers[op.degrees].sample_simple(rng)
        degree_set = _degree_set(op.degrees, self.sets)
        x = dc.boltzmann_tune(degree_set, BOLTZMANN_MEAN)
        return dc.boltzmann_sample(degree_set, op.n, x, rng)

    def check(self, op: Op, out) -> str | None:
        graph, report = out
        degree_set = _degree_set(op.degrees, self.sets)
        if graph.n != op.n:
            return f"graph has {graph.n} vertices, expected {op.n}"
        if report.samples_produced != 1:
            return "report does not count exactly one graph"
        if any(d not in degree_set for d in graph.degrees()):
            return f"a degree outside {op.degrees}"
        if op.kind == "exact":
            if graph.num_edges != op.m:
                return f"{graph.num_edges} edges, expected {op.m}"
            if not graph.is_simple():
                return "sample_simple returned a non-simple graph"
        return None

    def observe(self, op: Op, out, latency_s: float):
        report = out[1]
        if op.kind == "boltzmann":
            self.odd_sum_retries += report.odd_sum_retries
            return
        self.attempts += report.attempts
        self.graphs += report.samples_produced
        if op.degrees not in self._acceptance:
            self._acceptance[op.degrees] = dc.acceptance_probability(
                _degree_set(op.degrees, self.sets), op.n, op.m)
        self.predicted.append(1.0 / self._acceptance[op.degrees])

    def layer_metrics(self) -> dict:
        """Exact draws only: attempts per graph against 1/acceptance."""
        return {
            "sampling.attempts_per_graph": self.attempts / max(self.graphs, 1),
            "sampling.predicted_attempts":
                statistics.fmean(self.predicted) if self.predicted else 0.0,
            "sampling.odd_sum_retries": self.odd_sum_retries,
        }


# -- cli -------------------------------------------------------------------------

# (entry name, argv, expected exit code, output kind)
CLI_SCRIPT = [
    ("count-exact", ["count-exact", "--degrees", "1,3", "--n", "200",
                     "--m", "200"], 0, "json"),
    ("count-asymptotic", ["count-asymptotic", "--degrees", "min=2",
                          "--n", "100000", "--m", "150000"], 0, "json"),
    ("sg-estimate", ["sg-estimate", "--degrees", "even", "--n", "1000",
                     "--m", "500"], 0, "json"),
    ("marked", ["marked", "--degrees", "even", "--n", "40", "--m", "20",
                "--u", "-1", "--v", "-1"], 0, "json"),
    ("sample-serial", ["sample", "--degrees", "even", "--n", "300",
                       "--m", "150", "--samples", "8", "--format", "json"],
     0, "samples-json"),
    ("sample-jobs2", ["sample", "--degrees", "even", "--n", "300",
                      "--m", "150", "--samples", "8", "--format", "json",
                      "--jobs", "2"], 0, "samples-json"),
    ("boltzmann", ["boltzmann", "--degrees", "min=2", "--n", "20000",
                   "--mean-degree", "3", "--samples", "2"], 0, "edgelist"),
    ("report", ["report", "--degrees", "even", "--n", "16", "--m", "8"],
     0, "text"),
    ("count-exact-infeasible", ["count-exact", "--degrees", "3", "--n", "3",
                                "--m", "4"], 2, "json"),
]
CLI_ENTRIES = {name: (argv, code, kind) for name, argv, code, kind in CLI_SCRIPT}
SEEDED_ENTRIES = ("sample-serial", "sample-jobs2", "boltzmann")
# Per-cycle --seed values come from this pool, so seeded outputs can be pinned.
CLI_SEED_POOL = 32
CLI_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def cli_argv(op: Op) -> list[str]:
    argv = list(CLI_ENTRIES[op.kind][0])
    if op.kind in SEEDED_ENTRIES:
        argv += ["--seed", str(op.rng_seed)]
    return [sys.executable, "-m", "degcount.cli"] + argv


def run_cli(op: Op) -> tuple[int, str]:
    proc = subprocess.run(cli_argv(op), env=child_env(), cwd=SRC_DIR.parent,
                          capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def _graph_problem(text: str, degree_set, n: int, m: int | None,
                   simple: bool) -> str | None:
    graph = dc.Multigraph.from_text(text)
    if graph.n != n:
        return f"{graph.n} vertices, expected {n}"
    if m is not None and graph.num_edges != m:
        return f"{graph.num_edges} edges, expected {m}"
    if any(d not in degree_set for d in graph.degrees()):
        return "a degree outside the set"
    if simple and not graph.is_simple():
        return "graph is not simple"
    return None


class CliWorkload(Workload):
    """One op is one ``python -m degcount.cli`` run; the script cycles."""

    name = "cli"
    trace_ops = 18

    def __init__(self, scale: str, refs: dict):
        import jsonschema

        schema_path = SRC_DIR / "degcount" / "schemas" / "cli_output.schema.json"
        self.validator = jsonschema.Draft202012Validator(
            json.loads(schema_path.read_text()))
        self.refs = refs
        self.sets: dict = {}
        self.serial_out: dict[int, str] = {}
        self.seeded_changed = 0
        self.wall_s: dict[str, list[float]] = {}

    def ops(self, seed: int, count: int = 360) -> list[Op]:
        cycles = -(-count // len(CLI_SCRIPT))
        out = []
        for c, child in enumerate(_children(seed, self.name, cycles)):
            cli_seed = int(np.random.default_rng(child).integers(CLI_SEED_POOL))
            for name, _, _, _ in CLI_SCRIPT:
                out.append(Op(len(out), name, "", 0, 0, cli_seed))
        return out[:count]

    def run(self, state, op: Op):
        return run_cli(op)

    def _json(self, text: str):
        payload = json.loads(text)
        self.validator.validate(payload)
        return payload

    def check(self, op: Op, out) -> str | None:
        code, text = out
        _, expected_code, kind = CLI_ENTRIES[op.kind]
        if code != expected_code:
            return f"{op.kind}: exit code {code}, expected {expected_code}"
        try:
            problem = self._check_output(op, kind, text)
        except Exception as exc:  # a malformed output is a failed op
            problem = f"{op.kind}: {type(exc).__name__}: {exc}"
        if problem:
            return problem
        if op.kind in SEEDED_ENTRIES:
            return None  # compared with its pin in observe(), not a failure
        if digest(text) != self.refs["cli"]["deterministic"][op.kind]:
            return f"{op.kind}: output differs from the pinned golden"
        return None

    def observe(self, op: Op, out, latency_s: float):
        self.wall_s.setdefault(op.kind, []).append(latency_s)
        if op.kind in SEEDED_ENTRIES:
            pinned = self.refs["cli"]["seeded"][op.kind.split("-")[0]]
            if pinned.get(str(op.rng_seed)) != digest(out[1]):
                self.seeded_changed += 1

    def layer_metrics(self) -> dict:
        metrics = {f"cli.{name}.wall_ms": 1000.0 * statistics.median(times)
                   for name, times in self.wall_s.items()}
        metrics["cli.seeded_output_changed"] = self.seeded_changed
        return metrics

    def _check_output(self, op, kind, text):
        if kind == "json":
            self._json(text)
        elif kind == "samples-json":
            payload = self._json(text)
            degree_set = _degree_set(payload["degrees"], self.sets)
            for lines in payload["samples"]:
                problem = _graph_problem("\n".join(lines), degree_set,
                                         300, 150, simple=True)
                if problem:
                    return f"{op.kind}: {problem}"
            if op.kind == "sample-serial":
                self.serial_out[op.rng_seed] = text
            elif self.serial_out.get(op.rng_seed, text) != text:
                return "sample --jobs 2 output differs from the serial output"
        elif kind == "edgelist":
            *blocks, trailer = text.split("\n\n")
            self._json(trailer)
            degree_set = _degree_set("min=2", self.sets)
            if len(blocks) != 2:
                return f"{op.kind}: {len(blocks)} graphs, expected 2"
            for block in blocks:
                problem = _graph_problem(block, degree_set, 20000, None,
                                         simple=False)
                if problem:
                    return f"{op.kind}: {problem}"
        return None


def cli_child_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in
             (ExactWorkload, SampleWorkload, SaddleWorkload, CliWorkload)}
