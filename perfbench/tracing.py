"""Spans around the public functions of degcount, installed from outside.

The tracer replaces each traced function with a wrapper that records a span
(op id, span id, parent span id, name, start, end) and adds its self time,
the span's duration minus the time its child spans cover, to a per-name
total.  Spans stay in memory until :meth:`Tracer.write` is called at the end
of the run.

A function imported by value (``from .tables import build_table``) lives on
in every module that imported it, so each wrapper is set on every degcount
module whose attribute is the original object; otherwise calls made through
those names would escape the span.  Methods are patched on their class.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter

# (module, attribute) pairs of public functions, by their defining module.
FUNCTIONS = [
    ("degcount.degree_sets", "parse_degree_set"),
    ("degcount.saddlepoint", "mean_degree"),
    ("degcount.saddlepoint", "mean_degree_slope"),
    ("degcount.saddlepoint", "solve_mean_degree"),
    ("degcount.saddlepoint", "loop_intensity"),
    ("degcount.saddlepoint", "saddle_point"),
    ("degcount.saddlepoint", "multigraph_count_asymptotic"),
    ("degcount.saddlepoint", "simple_graph_count_asymptotic"),
    ("degcount.saddlepoint", "acceptance_probability"),
    ("degcount.tables", "build_table"),
    ("degcount.tables", "power_coefficient"),
    ("degcount.tables", "multigraph_weight"),
    ("degcount.marked", "marked_multigraph_weight"),
    ("degcount.sampling", "pair_half_edges"),
    ("degcount.sampling", "boltzmann_degree_law"),
    ("degcount.sampling", "boltzmann_sample"),
    ("degcount.sampling", "boltzmann_tune"),
]

# (module, class, method) triples patched on the class itself.
METHODS = [
    ("degcount.degree_sets", "DegreeSet", "egf_log"),
    ("degcount.degree_sets", "DegreeSet", "shift"),
    ("degcount.sampling", "DegreeSequenceSampler", "__init__"),
    ("degcount.sampling", "DegreeSequenceSampler", "sample_degrees"),
    ("degcount.sampling", "DegreeSequenceSampler", "sample_multigraph"),
    ("degcount.sampling", "DegreeSequenceSampler", "sample_simple"),
    ("degcount.multigraph", "Multigraph", "__init__"),
    ("degcount.multigraph", "Multigraph", "is_simple"),
    ("degcount.multigraph", "Multigraph", "to_text"),
]


def span_name(module: str, *attrs: str) -> str:
    """Metric prefix of a traced callable.

    ``tables.build_table`` for a function, ``degree_sets.egf_log`` for a
    method, and ``multigraph.Multigraph.init`` for a constructor.
    """
    if len(attrs) == 2 and attrs[1] != "__init__":
        attrs = attrs[1:]
    return ".".join([module.split(".", 1)[1]] + [a.strip("_") for a in attrs])


class Tracer:
    """Records spans while :attr:`active`; a no-op pass-through otherwise."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.table_builds: Counter = Counter()  # (degree_set, n_max, j_max)
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        is_build_table = name == "tables.build_table"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0]  # id, nanoseconds covered by children
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append((tracer.op_id, span_id, parent, name,
                                     start, end))
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[1]
                if is_build_table:
                    tracer.table_builds[tuple(args[:3])] += 1

        return wrapper

    def install(self):
        """Patch every traced callable; :meth:`uninstall` restores them."""
        modules = [m for k, m in list(sys.modules.items())
                   if (k == "degcount" or k.startswith("degcount."))
                   and m is not None]
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span_name(mod_name, attr), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth,
                    self._wrap(span_name(mod_name, cls_name, meth), original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def write(self, path):
        """Write the recorded spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(str(v) for v in span) + "\n")
