"""Command-line interface: counting, asymptotics, marked sums and sampling.

Exit codes: 0 success, 1 usage or parse error, 2 infeasible instance,
3 sampler attempt budget exhausted.  All numeric output that can exceed
double range is emitted as exact decimal strings or in log space, never as
floats.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import reduce

import numpy as np

from .degree_sets import parse_degree_set
from .marked import marked_multigraph_weight
from .sampling import (DegreeSequenceSampler, InfeasibleInstanceError,
                       SampleReport, SamplerExhausted, boltzmann_sample,
                       boltzmann_tune, make_rng)
from .saddlepoint import (InfeasibleRegimeError, RegularDegreeSetError,
                          multigraph_count_asymptotic,
                          simple_graph_count_asymptotic)
from .tables import (infeasibility_reason, multigraph_weight,
                     no_sequence_reason)

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


def _infeasible_payload(command: str, args, reason: str) -> dict:
    return {
        "command": command,
        "degrees": args.degrees,
        "n": args.n,
        "m": args.m,
        "feasible": False,
        "reason": reason,
    }


def _cmd_count_exact(args) -> int:
    degree_set = parse_degree_set(args.degrees)
    reason = infeasibility_reason(degree_set, args.n, args.m)
    weight = (Fraction(0) if reason
              else multigraph_weight(degree_set, args.n, args.m))
    if weight == 0:
        reason = reason or no_sequence_reason(degree_set, args.n, args.m)
        payload = _infeasible_payload("count-exact", args, reason)
    else:
        payload = {"command": "count-exact", "degrees": args.degrees,
                   "n": args.n, "m": args.m, "feasible": True}
    payload["weight"] = _fraction_str(weight)
    _emit_json(args, payload)
    return EXIT_OK if weight else EXIT_INFEASIBLE


def _cmd_estimate(args, simple: bool) -> int:
    command = "sg-estimate" if simple else "count-asymptotic"
    degree_set = parse_degree_set(args.degrees)
    compute = (simple_graph_count_asymptotic if simple
               else multigraph_count_asymptotic)
    estimate = compute(degree_set, args.n, args.m)
    if not estimate.feasible:
        _emit_json(args, _infeasible_payload(command, args, estimate.reason))
        return EXIT_INFEASIBLE
    mantissa, exponent = estimate.mantissa_exponent()
    sp = estimate.saddle
    _emit_json(args, {
        "command": command,
        "degrees": args.degrees,
        "n": args.n,
        "m": args.m,
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


def _cmd_marked(args) -> int:
    degree_set = parse_degree_set(args.degrees)
    try:
        u = Fraction(args.u)
        v = Fraction(args.v)
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"bad rational argument: {exc}\n")
        return EXIT_USAGE
    value = marked_multigraph_weight(degree_set, args.n, args.m, u, v)
    _emit_json(args, {
        "command": "marked",
        "degrees": args.degrees,
        "n": args.n,
        "m": args.m,
        "u": _fraction_str(u),
        "v": _fraction_str(v),
        "marked": _fraction_str(value),
    })
    return EXIT_OK


# -- sampling commands --------------------------------------------------------

_WORKER_SAMPLER = None


def _init_worker(degrees_text: str, n: int, m: int):
    global _WORKER_SAMPLER
    _WORKER_SAMPLER = DegreeSequenceSampler(parse_degree_set(degrees_text), n, m)


def _run_one_sample(task, sampler=None):
    # pool workers pass no sampler and use the one _init_worker built
    seed_seq, allow_multi, max_attempts = task
    rng = np.random.default_rng(seed_seq)
    if sampler is None:
        sampler = _WORKER_SAMPLER
    if allow_multi:
        graph = sampler.sample_multigraph(rng)
        report = SampleReport(samples_requested=1, samples_produced=1)
    else:
        graph, report = sampler.sample_simple(rng, max_attempts)
    return graph.to_text(), report


def _collect_samples(args, sampler) -> tuple[list[str], SampleReport]:
    seeds = np.random.SeedSequence(args.seed).spawn(args.samples)
    max_attempts = args.max_attempts or sampler.default_max_attempts()
    tasks = [(seed, args.allow_multi, max_attempts) for seed in seeds]
    if args.jobs > 1:
        with ProcessPoolExecutor(
                max_workers=args.jobs, initializer=_init_worker,
                initargs=(args.degrees, args.n, args.m)) as pool:
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
            "command": args.command,
            "degrees": args.degrees,
            "n": args.n,
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
    try:
        sampler = DegreeSequenceSampler(degree_set, args.n, args.m)
    except InfeasibleInstanceError as exc:
        reason = infeasibility_reason(degree_set, args.n, args.m) or str(exc)
        _emit_json(args, _infeasible_payload("sample", args, reason))
        return EXIT_INFEASIBLE
    try:
        blocks, report = _collect_samples(args, sampler)
    except SamplerExhausted as exc:
        payload = {
            "command": "sample",
            "degrees": args.degrees,
            "n": args.n,
            "m": args.m,
            "feasible": True,
            "error": "sampler attempts exhausted",
            "report": exc.report.as_dict(),
        }
        _emit_json(args, payload)
        return EXIT_EXHAUSTED
    _emit(args, _render_samples(args, blocks, report))
    return EXIT_OK


def _boltzmann_infeasible(args, reason: str) -> dict:
    return {
        "command": "boltzmann",
        "degrees": args.degrees,
        "n": args.n,
        "feasible": False,
        "reason": reason,
    }


def _cmd_boltzmann(args) -> int:
    degree_set = parse_degree_set(args.degrees)
    if args.x is not None:
        x = args.x
    else:
        try:
            x = boltzmann_tune(degree_set, args.mean_degree)
        except (InfeasibleRegimeError, RegularDegreeSetError) as exc:
            _emit_json(args, _boltzmann_infeasible(args, str(exc)))
            return EXIT_INFEASIBLE
    seeds = np.random.SeedSequence(args.seed).spawn(args.samples)
    blocks = []
    total = SampleReport()
    degree_total = 0
    for i in range(args.samples):
        rng = np.random.default_rng(seeds[i])
        try:
            graph, report = boltzmann_sample(degree_set, args.n, x, rng)
        except InfeasibleInstanceError as exc:
            _emit_json(args, _boltzmann_infeasible(args, str(exc)))
            return EXIT_INFEASIBLE
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
        weight = multigraph_weight(degree_set, n, m)
        estimate = multigraph_count_asymptotic(degree_set, n, m)
        if weight == 0 or not estimate.feasible:
            lines.append(f"{n}\t{m}\tNA\tNA\tNA\tNA")
        else:
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
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"degcount: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
