"""Command-line interface: counting, asymptotics, marked sums and sampling.

Exit codes: 0 success, 1 usage, parse or numerical error, 2 infeasible
instance, 3 sampler attempt budget exhausted.  Commands raise; only
:func:`main` turns an exception into an exit code and its payload.  All
numeric output that can exceed double range is emitted as exact decimal
strings or in log space, never as floats.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from functools import reduce

from .degree_sets import parse_degree_set
from .marked import marked_weight_and_reason
from .sampling import (DegreeSequenceSampler, SampleReport, SamplerExhausted,
                       attempt_budget, boltzmann_sample, boltzmann_tune,
                       make_rng, spawn_seeds)
from .saddlepoint import (InfeasibleRegimeError, multigraph_count_asymptotic,
                          resolve, simple_graph_count_asymptotic)
from .tables import multigraph_weight, multigraph_weight_and_reason

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_EXHAUSTED = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict):
    _emit(args, json.dumps(payload, sort_keys=True) + "\n")


def _instance(args) -> dict:
    """The payload fields naming the command and instance; boltzmann has no m."""
    return {key: getattr(args, key)
            for key in ("command", "degrees", "n", "m") if key in args}


def _infeasible_payload(args, reason: str) -> dict:
    return {**_instance(args), "feasible": False, "reason": reason}


def _cmd_count_exact(args) -> int:
    degree_set = parse_degree_set(args.degrees)
    weight, reason = multigraph_weight_and_reason(degree_set, args.n, args.m)
    if reason is None:
        payload = {**_instance(args), "feasible": True}
    else:
        payload = _infeasible_payload(args, reason)
    payload["weight"] = _fraction_str(weight)
    _emit_json(args, payload)
    return EXIT_OK if reason is None else EXIT_INFEASIBLE


def _cmd_estimate(args, simple: bool) -> int:
    degree_set = parse_degree_set(args.degrees)
    compute = (simple_graph_count_asymptotic if simple
               else multigraph_count_asymptotic)
    estimate = compute(degree_set, args.n, args.m)
    if not estimate.feasible:
        raise InfeasibleRegimeError(estimate.reason)
    mantissa, exponent = estimate.mantissa_exponent()
    sp = estimate.saddle
    _emit_json(args, {
        **_instance(args),
        "feasible": True,
        "log_natural": estimate.log_value,
        "log10": estimate.log10_value,
        "mantissa": mantissa,
        "exponent": exponent,
        "saddle_point": None if sp is None else sp.x,
        "saddle_slope": None if sp is None else sp.slope,
        "loop_intensity": None if sp is None else sp.loop_intensity,
    })
    return EXIT_OK


def _rational(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} {text} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"{flag} {text} is not a rational number") from None


def _cmd_marked(args) -> int:
    degree_set = parse_degree_set(args.degrees)
    u = _rational("--u", args.u)
    v = _rational("--v", args.v)
    value, reason = marked_weight_and_reason(degree_set, args.n, args.m, u, v)
    if reason is not None:
        raise InfeasibleRegimeError(reason)
    _emit_json(args, {
        **_instance(args),
        "u": _fraction_str(u),
        "v": _fraction_str(v),
        "marked": _fraction_str(value),
    })
    return EXIT_OK


# -- sampling commands --------------------------------------------------------

_WORKER_SAMPLER = None


def _init_worker(sampler: DegreeSequenceSampler):
    global _WORKER_SAMPLER
    _WORKER_SAMPLER = sampler


def _run_one_sample(task, sampler=None):
    # pool workers pass no sampler and use the one _init_worker received
    seed_seq, allow_multi, max_attempts = task
    rng = make_rng(seed_seq)
    if sampler is None:
        sampler = _WORKER_SAMPLER
    if allow_multi:
        graph = sampler.sample_multigraph(rng)
        report = SampleReport(samples_requested=1, samples_produced=1)
    else:
        graph, report = sampler.sample_simple(rng, max_attempts)
    return graph.to_text(), report


def _collect_samples(args, sampler, max_attempts) -> tuple[list[str], SampleReport]:
    seeds = spawn_seeds(args.seed, args.samples)
    tasks = [(seed, args.allow_multi, max_attempts) for seed in seeds]
    # a pool starts all its workers up front, so start none that would idle
    workers = min(args.jobs, args.samples, os.cpu_count() or 1)
    if workers > 1:
        # imported here so that commands which never sample do not load it
        from concurrent.futures import ProcessPoolExecutor

        # a forked worker inherits this sampler, float logs and all; any
        # other unpickles it, which rebuilds the logs from (D, n, m)
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(sampler,)) as pool:
            results = list(pool.map(_run_one_sample, tasks))
    else:
        results = [_run_one_sample(task, sampler) for task in tasks]
    blocks, reports = zip(*results)
    return list(blocks), reduce(SampleReport.merge, reports, SampleReport())


def _render_samples(args, blocks: list[str], report: SampleReport,
                    extra: dict | None = None) -> str:
    payload_report = report.as_dict()
    if extra:
        payload_report.update(extra)
    if args.format == "json":
        return json.dumps({
            **_instance(args),
            "samples": [block.rstrip("\n").split("\n") for block in blocks],
            "report": payload_report,
        }, sort_keys=True) + "\n"
    out = []
    for block in blocks:
        out.append(block)
        out.append("\n")
    out.append(json.dumps(payload_report, sort_keys=True) + "\n")
    return "".join(out)


def _cmd_sample(args) -> int:
    degree_set = parse_degree_set(args.degrees)
    # decided from the regime alone, before any row; multigraphs need none
    max_attempts = None if args.allow_multi else attempt_budget(
        resolve(degree_set, args.n, args.m), args.max_attempts or None)
    sampler = DegreeSequenceSampler(degree_set, args.n, args.m)
    blocks, report = _collect_samples(args, sampler, max_attempts)
    _emit(args, _render_samples(args, blocks, report))
    return EXIT_OK


def _cmd_boltzmann(args) -> int:
    degree_set = parse_degree_set(args.degrees)
    x = (args.x if args.x is not None
         else boltzmann_tune(degree_set, args.mean_degree))
    seeds = spawn_seeds(args.seed, args.samples)
    blocks = []
    total = SampleReport()
    degree_total = 0
    for i in range(args.samples):
        rng = make_rng(seeds[i])
        graph, report = boltzmann_sample(degree_set, args.n, x, rng)
        blocks.append(graph.to_text())
        total = total.merge(report)
        degree_total += 2 * graph.num_edges
    mean = degree_total / (args.n * args.samples) if args.n * args.samples else 0.0
    _emit(args, _render_samples(args, blocks, total, extra={
        "x": x, "empirical_mean_degree": mean}))
    return EXIT_OK


def _cmd_report(args) -> int:
    degree_set = parse_degree_set(args.degrees)
    lines = ["n\tm\tlog_exact\tlog_asymptotic\tratio\trel_error"]
    n, m = args.n, args.m
    for _ in range(args.steps):
        estimate = multigraph_count_asymptotic(degree_set, n, m)
        if not estimate.feasible:
            lines.append(f"{n}\t{m}\tNA\tNA\tNA\tNA")
        else:
            weight = multigraph_weight(degree_set, n, m)
            log_exact = math.log(weight.numerator) - math.log(weight.denominator)
            ratio = math.exp(estimate.log_value - log_exact)
            lines.append(
                f"{n}\t{m}\t{log_exact:.12g}\t{estimate.log_value:.12g}"
                f"\t{ratio:.12g}\t{abs(ratio - 1.0):.6g}")
        n *= args.factor
        m *= args.factor
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="degcount",
        description=("Count, estimate and sample graphs whose vertex degrees "
                     "lie in a prescribed set."))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_m=True):
        p.add_argument("--degrees", required=True,
                       help='degree set: "d1,d2,...", "min=k", "even" or "odd"')
        p.add_argument("--n", type=int, required=True, help="number of vertices")
        if need_m:
            p.add_argument("--m", type=int, required=True, help="number of edges")
        p.add_argument("--output", help="write to this path instead of stdout")

    p = sub.add_parser("count-exact", help="exact total multigraph weight")
    common(p)
    p.set_defaults(func=_cmd_count_exact)

    p = sub.add_parser("count-asymptotic",
                       help="saddle-point estimate of the multigraph weight")
    common(p)
    p.set_defaults(func=lambda a: _cmd_estimate(a, simple=False))

    p = sub.add_parser("sg-estimate",
                       help="saddle-point estimate of the simple-graph count")
    common(p)
    p.set_defaults(func=lambda a: _cmd_estimate(a, simple=True))

    p = sub.add_parser("marked", help="exact marked-multigraph weight at (u, v)")
    # argparse reads a word that starts with "-" as an option unless it
    # looks like a negative number; let "-1/2" pass as one too
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    common(p)
    p.add_argument("--u", default="0", help="rational, e.g. -1 or 3/2")
    p.add_argument("--v", default="0", help="rational, e.g. -1 or 3/2")
    p.set_defaults(func=_cmd_marked)

    p = sub.add_parser("sample", help="uniform simple graphs (or multigraphs)")
    common(p)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-multi", action="store_true",
                   help="emit multigraphs without rejection")
    p.add_argument("--max-attempts", type=int, default=0,
                   help="rejection budget per sample (0 = automatic)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel sampling processes")
    p.add_argument("--format", choices=("edgelist", "json"), default="edgelist")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("boltzmann",
                       help="Boltzmann-distributed multigraphs (random edge count)")
    common(p, need_m=False)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--x", type=float, help="Boltzmann parameter")
    group.add_argument("--mean-degree", type=float,
                       help="tune the parameter to this expected degree")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("edgelist", "json"), default="edgelist")
    p.set_defaults(func=_cmd_boltzmann)

    p = sub.add_parser("report",
                       help="exact vs asymptotic weights over a geometric ladder")
    common(p)
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--factor", type=int, default=2)
    p.set_defaults(func=_cmd_report)

    return parser


# (flag, attribute, least allowed value) for the integer options that have one
_LOWER_BOUNDS = (
    ("--samples", "samples", 1),
    ("--jobs", "jobs", 1),
    ("--max-attempts", "max_attempts", 0),
    ("--steps", "steps", 1),
    ("--factor", "factor", 1),
)


def _out_of_bounds(args) -> str | None:
    for flag, name, least in _LOWER_BOUNDS:
        value = getattr(args, name, None)
        if value is not None and value < least:
            return f"{flag} must be at least {least}, got {value}"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    problem = _out_of_bounds(args)
    if problem is not None:
        sys.stderr.write(f"degcount: {problem}\n")
        return EXIT_USAGE
    try:
        try:
            return args.func(args)
        except InfeasibleRegimeError as exc:
            _emit_json(args, _infeasible_payload(args, str(exc)))
            return EXIT_INFEASIBLE
        except SamplerExhausted as exc:
            payload = {**_instance(args), "feasible": True,
                       "error": "sampler attempts exhausted",
                       "report": exc.report.as_dict()}
            if exc.log10_predicted_attempts is not None:
                payload["error"] = "predicted attempts exceed the automatic budget"
                payload["log10_predicted_attempts"] = exc.log10_predicted_attempts
            _emit_json(args, payload)
            return EXIT_EXHAUSTED
    except (ValueError, ArithmeticError, OSError) as exc:
        # OSError: an --output that cannot be written, whatever the payload
        sys.stderr.write(f"degcount: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
