"""Labelled multigraphs: loops, edge multiplicities, orderings weight.

Vertices are labelled 1..n.  Edges form a multiset of unordered pairs held
in one dict, pair (u <= v) -> multiplicity, so multiplicity queries are O(1).
The edge order is made only on output, which keeps serialisation
deterministic without charging every sampled graph for a sort.
"""

from __future__ import annotations

import enum
import math
from collections import _count_elements
from fractions import Fraction
from operator import itemgetter

_second = itemgetter(1)


class GraphClass(enum.Enum):
    """Partition of multigraphs by how tame their non-simple edges are.

    SIMPLE: no loops, no repeated edges.
    STAR: every non-simple edge is a single loop or a double edge, and no
        vertex touches two of them.
    NONSTAR: everything else (a double loop, a triple edge, a loop meeting a
        double edge, or two double edges sharing a vertex).
    """

    SIMPLE = "simple"
    STAR = "star"
    NONSTAR = "nonstar"


class Multigraph:
    """Immutable multigraph on vertices 1..n with a multiset of edges.

    Its one edge dict is compared and hashed as an unordered mapping;
    edge_items() sorts it on each call, for to_text and repr.
    """

    __slots__ = ("n", "_mult")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)  # the range fallback reads them a second time
        pairs = [(u, v) if u <= v else (v, u) for u, v in edges]
        if pairs and (min(pairs)[0] < 1 or max(map(_second, pairs)) > n):
            for u, v in edges:  # name the first bad edge as it was given
                if not (1 <= u <= n and 1 <= v <= n):
                    raise ValueError(
                        f"edge ({u},{v}) outside vertex range 1..{n}")
        # Counter's C counting loop without Counter's per-call overhead
        self._mult = {}
        _count_elements(self._mult, pairs)

    @property
    def num_edges(self) -> int:
        return sum(self._mult.values())

    def multiplicity(self, u: int, v: int) -> int:
        return self._mult.get((u, v) if u <= v else (v, u), 0)

    def edge_items(self):
        """Sorted ((u, v), multiplicity) pairs, u <= v, made on each call."""
        w = self.n + 1
        return tuple(sorted(self._mult.items(),
                            key=lambda item: item[0][0] * w + item[0][1]))

    def edge_occurrences(self):
        """Every edge occurrence as a sorted pair, repeats included."""
        for pair, c in self.edge_items():
            yield from (pair,) * c

    def degree(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside range 1..{self.n}")
        return self.degrees()[v - 1]

    def degrees(self) -> list[int]:
        deg = [0] * (self.n + 1)
        for (a, b), c in self._mult.items():
            deg[a] += c
            deg[b] += c
        return deg[1:]

    def is_simple(self) -> bool:
        return all(a != b and c == 1 for (a, b), c in self._mult.items())

    def classify(self) -> GraphClass:
        """Place the multigraph in the SIMPLE / STAR / NONSTAR partition."""
        if self.is_simple():
            return GraphClass.SIMPLE
        loops, double_count = [], [0] * (self.n + 1)
        for (a, b), c in self._mult.items():
            if c >= (2 if a == b else 3):
                return GraphClass.NONSTAR
            if a == b:
                loops.append(a)
            elif c == 2:
                double_count[a] += 1
                double_count[b] += 1
        if max(double_count) >= 2 or any(double_count[v] for v in loops):
            return GraphClass.NONSTAR
        return GraphClass.STAR

    def compensation_factor(self) -> Fraction:
        """Weight of this multigraph under the random half-edge pairing.

        1 / (prod over distinct loops of 2^mult * mult!  *  prod over
        distinct non-loop edges of mult!).  Equals 1 exactly for simple
        graphs; validated against the orderings enumerator in the tests.
        """
        denom = 1
        for (a, b), c in self._mult.items():
            if a == b:
                denom *= (1 << c) * math.factorial(c)
            else:
                denom *= math.factorial(c)
        return Fraction(1, denom)

    # -- text form ----------------------------------------------------------

    def to_text(self) -> str:
        """Edge-list format: header "n m", then one "u v" line per occurrence."""
        return f"{self.n} {self.num_edges}\n" + "".join(
            f"{u} {v}\n" * c for (u, v), c in self.edge_items())

    @classmethod
    def from_text(cls, text: str) -> "Multigraph":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty edge-list text")
        header = lines[0].split()
        if len(header) != 2:
            raise ValueError(f"bad header line {lines[0]!r}")
        n, m = int(header[0]), int(header[1])
        if len(lines) - 1 != m:
            raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
        edges = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"bad edge line {ln!r}")
            edges.append((int(parts[0]), int(parts[1])))
        return cls(n, edges)

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Multigraph)
                and self.n == other.n and self._mult == other._mult)

    def __hash__(self):
        return hash((self.n, frozenset(self._mult.items())))

    def __repr__(self):
        return f"Multigraph(n={self.n}, edges={list(self.edge_occurrences())})"
