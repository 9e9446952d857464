"""degcount benchmark: one seeded workload per run, one JSON line at the end.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` beside this directory, never from an installed copy.  With
``--trace 0`` the run times a closed loop of ops (one caller, the next op
after the previous one returns) for ``--seconds`` of busy time and at least
MIN_OPS ops, and prints the end-to-end metrics named in BENCHMARK.json.  With
``--trace 1`` it runs the first ``trace_ops`` ops of the same list twice,
untraced and then inside spans, and prints the per-layer metrics.  Every op's
output is checked after its timer stops; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# Floor on a timed run's op count, on top of --seconds: with 100 ops at
# least ten lie beyond p90.  Tiny runs are the self-test's.
MIN_OPS = {"full": 100, "tiny": 10}
IMPORT_REPS = 5
STATE_REPS = 3
# A run gives up rather than exceed the 180 s a run may take.
WALL_LIMIT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


class Speedometer:
    """Tracks the machine's speed by timing a fixed loop between ops.

    On a shared machine the same code was seen to run up to 1.6 times slower
    for seconds at a time.  Each end-to-end timing is divided by the speed
    factor around it: the loop's median time over the nearby samples, as a
    share of its time at reference speed.  Runs then compare as if each ran
    at the reference speed.  The loop runs outside every op's timer.  A
    change that slows this whole process, such as a busy background thread,
    slows the loop too and would not show.
    """

    LOOP = 20000
    REFERENCE_S = 0.0011  # the loop's time on an unloaded 2-vCPU Xeon
    EVERY_S = 0.05  # of busy time between two samples
    WINDOW = 5  # samples on each side of an op

    def __init__(self):
        self.samples: list[float] = []
        self.marks: list[int] = []  # samples taken when each op ended
        self._last_busy = -self.EVERY_S

    def sample(self):
        start = time.perf_counter()
        total = 0
        for i in range(self.LOOP):
            total += i * i
        self.samples.append(time.perf_counter() - start)

    def tick(self, busy_s: float):
        """Called after each timed op, with the busy time so far."""
        if busy_s - self._last_busy >= self.EVERY_S:
            self._last_busy = busy_s
            self.sample()
        self.marks.append(len(self.samples))

    def factor(self, lo: int = 0, hi: int | None = None) -> float:
        return statistics.median(self.samples[lo:hi]) / self.REFERENCE_S

    def op_factors(self, first: int) -> list[float]:
        """Speed factor around each op, from samples `first` onwards."""
        return [self.factor(max(first, k - self.WINDOW), k + self.WINDOW)
                for k in self.marks]


def import_program():
    """Import degcount from ROOT/src, refusing any other copy."""
    init = ROOT / "src" / "degcount" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no degcount sources at {init.parent}")
    sys.path.insert(0, str(ROOT / "src"))
    import degcount

    if Path(degcount.__file__).resolve() != init.resolve():
        raise BenchError(f"imported degcount from {degcount.__file__}")


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path.name}")
    return json.loads(path.read_text())


# -- set-up ----------------------------------------------------------------------

def _child(code: str) -> tuple[float, str]:
    from workloads import CLI_TIMEOUT_S, SRC_DIR, child_env

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          cwd=SRC_DIR.parent, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S, check=True)
    return time.perf_counter() - start, proc.stdout


def import_seconds(speed: Speedometer | None = None) -> float:
    """Median time a fresh interpreter spends in ``import degcount``."""
    code = ("import time; t = time.perf_counter(); import degcount; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPS):
        if speed is not None:
            speed.sample()
        times.append(float(_child(code)[1]))
    return statistics.median(times)


def cli_import_seconds(speed: Speedometer | None = None) -> float:
    """Median wall time of a child running ``import degcount.cli``."""
    times = []
    for _ in range(IMPORT_REPS):
        if speed is not None:
            speed.sample()
        times.append(_child("import degcount.cli")[0])
    return statistics.median(times)


def measure_setup(wl, speed: Speedometer) -> tuple[float, object]:
    """(setup seconds, state): fresh import plus the median state build."""
    if wl.name == "cli":
        return cli_import_seconds(speed), wl.setup()
    builds = []
    state = None
    for _ in range(STATE_REPS if wl.name == "sample" else 1):
        state = None  # free the previous tables before building again
        speed.sample()
        start = time.perf_counter()
        state = wl.setup()
        builds.append(time.perf_counter() - start)
    return import_seconds(speed) + statistics.median(builds), state


# -- the closed loop -----------------------------------------------------------

class Outcome:
    """Latencies and failures of one pass over the op list."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.known_defects = 0
        self.busy_s = 0.0
        self.messages: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def throughput(self) -> float:
        return (self.attempted - self.failed) / self.busy_s if self.busy_s else 0.0

    def fail(self, message: str):
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


def run_ops(wl, state, ops, outcome: Outcome, *, seconds=None, min_ops=0,
            tracer=None, observe=False, speed=None) -> Outcome:
    """Run ops in order (cycling) until the time and count floors are met.

    Without `seconds`, runs each op of `ops` once.  The known regime defect
    of the saddle workload is counted apart and not timed as an op.
    """
    from workloads import KnownRegimeDefect

    wall_start = time.perf_counter()
    i = 0
    while True:
        if seconds is None:
            if i == len(ops):
                break
        elif ((outcome.busy_s >= seconds and outcome.attempted >= min_ops)
              or time.perf_counter() - wall_start > WALL_LIMIT_S):
            break
        op = ops[i % len(ops)]
        i += 1
        if tracer is not None:
            tracer.op_id = op.index
            tracer.active = True
        error = None
        start = time.perf_counter()
        try:
            out = wl.run(state, op)
        except KnownRegimeDefect:
            outcome.known_defects += 1
            continue
        except Exception as exc:
            error = exc
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        outcome.latencies.append(elapsed)
        outcome.busy_s += elapsed
        if speed is not None:
            speed.tick(outcome.busy_s)
        if error is not None:
            outcome.fail(f"op {op.index} ({op.kind} {op.degrees}): "
                         f"{type(error).__name__}: {error}")
            continue
        try:
            problem = wl.check(op, out)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            outcome.fail(f"op {op.index}: {problem}")
        elif observe:
            wl.observe(op, out, elapsed)
    return outcome


def percentile_ms(latencies, q: float) -> float:
    import numpy as np

    return float(np.percentile(latencies, q)) * 1000.0


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, ops, seconds: float, min_ops: int):
    speed = Speedometer()
    setup_s, state = measure_setup(wl, speed)
    first = len(speed.samples)
    setup_factor = speed.factor(0, first)
    outcome = run_ops(wl, state, ops, Outcome(), seconds=seconds,
                      min_ops=min_ops, speed=speed)
    scaled = [t / f for t, f in zip(outcome.latencies, speed.op_factors(first))]
    completed = outcome.attempted - outcome.failed
    metrics = {
        "throughput_ops_s": completed / sum(scaled),
        "latency_p50_ms": percentile_ms(scaled, 50),
        "latency_p90_ms": percentile_ms(scaled, 90),
        "setup_s": setup_s / setup_factor,
        "peak_rss_mb": peak_rss_mb(wl),
        "error_rate": outcome.failed / max(outcome.attempted, 1),
    }
    notes = {
        "ops": outcome.attempted,
        "busy_s": outcome.busy_s,
        "speed_factor": speed.factor(first),
        "unscaled_throughput_ops_s": outcome.throughput,
        "unscaled_latency_p50_ms": percentile_ms(outcome.latencies, 50),
        "unscaled_latency_p90_ms": percentile_ms(outcome.latencies, 90),
        "unscaled_setup_s": setup_s,
    }
    if wl.name == "saddle":
        notes["edge_queries_failed"] = outcome.known_defects
        notes["edge_query_share"] = round(
            outcome.known_defects / (outcome.attempted + outcome.known_defects), 4)
    return metrics, outcome, notes


# -- the traced run ------------------------------------------------------------

def _layer_defaults() -> set:
    from workloads import CLI_SCRIPT

    names = {"sampling.attempts_per_graph", "sampling.predicted_attempts",
             "sampling.odd_sum_retries", "cli.import_s",
             "cli.child_peak_rss_mb", "cli.seeded_output_changed"}
    return names | {f"cli.{name}.wall_ms" for name, _, _, _ in CLI_SCRIPT}


def _span_names() -> set:
    from tracing import FUNCTIONS, METHODS, span_name

    return ({span_name(mod, attr) for mod, attr in FUNCTIONS}
            | {span_name(mod, cls, meth) for mod, cls, meth in METHODS})


def table_memory(tracer) -> dict:
    """Cells, computed entry bytes and tracemalloc peak of the built tables.

    Each distinct table is built again here, outside every span, so that
    tracemalloc never slows a timed or traced call.
    """
    import degcount as dc

    cells = entry_bytes = peak = 0
    for (degree_set, n_max, j_max), count in tracer.table_builds.items():
        cells += count * (n_max + 1) * (j_max + 1)
        tracemalloc.start()
        table = dc.build_table(degree_set, n_max, j_max)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        entry_bytes += count * sum(sys.getsizeof(v) for i in range(n_max + 1)
                                   for v in table.row(i))
        del table
    mib = 1024.0 * 1024.0
    return {"tables.table_cells": cells,
            "tables.table_mb_computed": entry_bytes / mib,
            "tables.build_table.peak_alloc_mb": peak / mib}


def traced(wl, ops, seed: int, spec: dict):
    """Per-layer metrics from the first `trace_ops` ops, untraced then traced."""
    from tracing import Tracer
    from workloads import cli_child_peak_rss_mb

    ops = ops[:wl.trace_ops]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        state = wl.setup()
        tracer.active = False
        base = run_ops(wl, state, ops, Outcome())
        outcome = run_ops(wl, state, ops, Outcome(), tracer=tracer,
                          observe=True)
        del state
        derived = table_memory(tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}-seed{seed}.tsv.gz")

    counted = outcome.attempted
    derived.update({
        "saddlepoint.solves_per_query":
            tracer.calls["saddlepoint.solve_mean_degree"] / max(counted, 1),
        "saddlepoint.edge_queries_failed": outcome.known_defects,
        "trace.throughput_ops_s": outcome.throughput,
        "trace.untraced_throughput_ops_s": base.throughput,
        "trace.overhead_ratio": (base.throughput / outcome.throughput
                                 if outcome.throughput else 0.0),
    })
    derived.update(wl.layer_metrics())
    if wl.name == "cli":
        derived["cli.import_s"] = cli_import_seconds()
        derived["cli.child_peak_rss_mb"] = cli_child_peak_rss_mb()
    span_names, defaults = _span_names(), _layer_defaults()
    metrics = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        prefix, _, field = name.rpartition(".")
        if name in derived:
            metrics[name] = derived[name]
        elif field == "calls" and prefix in span_names:
            metrics[name] = tracer.calls[prefix]
        elif field == "self_s" and prefix in span_names:
            metrics[name] = tracer.self_s(prefix)
        elif name in defaults:
            metrics[name] = 0  # the layer does no work on this workload
        else:
            raise BenchError(f"per-layer metric {name} is not measured")
    total = Outcome()
    total.latencies = base.latencies + outcome.latencies
    total.failed = base.failed + outcome.failed
    total.messages = base.messages + outcome.messages
    notes = {"ops": counted, "trace_overhead_ratio":
             round(derived["trace.overhead_ratio"], 4)}
    return metrics, total, notes


# -- main ------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["exact", "sample", "saddle", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny sizes for the benchmark's self-test")
    return parser.parse_args(argv)


def run(args, refs=None) -> dict:
    """Run one workload and return the result object (and its notes)."""
    spec = load_spec()
    import_program()
    import workloads

    wl = workloads.WORKLOADS[args.workload](
        args.scale, refs if refs is not None else workloads.load_refs())
    ops = wl.ops(args.seed)
    if args.trace:
        metrics, outcome, notes = traced(wl, ops, args.seed, spec)
        wanted = spec["per_layer"]
    else:
        metrics, outcome, notes = end_to_end(wl, ops, args.seconds,
                                             MIN_OPS[args.scale])
        wanted = spec["end_to_end"]
    for message in outcome.messages:
        print(f"FAILED {message}", file=sys.stderr)
    summary = dict(notes, **{k: v for k, v in metrics.items()})
    return {
        "summary": summary,
        "result": {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {e["name"]: {"value": metrics[e["name"]],
                                    "unit": e["unit"]} for e in wanted},
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        report = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for key, value in report["summary"].items():
        print(f"# {args.workload} {key} = {value}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
