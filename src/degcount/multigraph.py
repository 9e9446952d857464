"""Labelled multigraphs: loops, edge multiplicities, orderings weight.

Vertices are labelled 1..n.  Edges form a multiset of unordered pairs held
as one sorted tuple of edge codes u*(n+1) + v, u <= v, once per occurrence.
Sorting the codes sorts the pairs, so equal multisets have equal tuples and
every output (edge_items, to_text, repr) reads the edges in order without a
sort of its own.  The samplers sort their codes once, as an array, and hand
them to a trusted constructor that skips the checks.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from collections import _count_elements
from fractions import Fraction
from operator import itemgetter, lt

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

    Holds n and the sorted tuple of edge codes u*(n+1) + v (u <= v), one
    per occurrence; equality and hashing read that tuple.  The public
    constructor checks the vertex range and sorts the codes itself.
    """

    __slots__ = ("n", "_codes")

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
        w = n + 1
        self._codes = tuple(sorted([u * w + v for u, v in pairs]))

    @classmethod
    def _from_sorted_codes(cls, n: int, codes: tuple) -> "Multigraph":
        """The graph whose edge codes are `codes`, trusted as they are.

        The caller guarantees an ascending tuple of ints u*(n+1) + v with
        1 <= u <= v <= n; nothing is checked or copied.
        """
        graph = object.__new__(cls)
        graph.n = n
        graph._codes = codes
        return graph

    @property
    def num_edges(self) -> int:
        return len(self._codes)

    def multiplicity(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        if u < 1 or v > self.n:
            return 0  # its code would name another pair
        code = u * (self.n + 1) + v
        return bisect_right(self._codes, code) - bisect_left(self._codes, code)

    def edge_items(self):
        """((u, v), multiplicity) pairs, u <= v, in increasing order."""
        counts = {}
        _count_elements(counts, self._codes)  # keeps the codes' order
        w = self.n + 1
        return tuple((divmod(code, w), c) for code, c in counts.items())

    def edge_occurrences(self):
        """Every edge occurrence as a sorted pair, repeats included."""
        w = self.n + 1
        for code in self._codes:
            yield divmod(code, w)

    def degree(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside range 1..{self.n}")
        return self.degrees()[v - 1]

    def degrees(self) -> list[int]:
        w = self.n + 1
        deg = [0] * w
        for code in self._codes:
            deg[code // w] += 1
            deg[code % w] += 1
        return deg[1:]

    def is_simple(self) -> bool:
        # strictly increasing codes repeat no edge, and a code is a loop
        # u*(n+2) exactly when it is 0 mod n+2 (u*(n+1) + v is v-u mod n+2)
        codes = self._codes
        return (all(map(lt, codes, codes[1:]))
                and all(map((self.n + 2).__rmod__, codes)))

    def classify(self) -> GraphClass:
        """Place the multigraph in the SIMPLE / STAR / NONSTAR partition."""
        if self.is_simple():
            return GraphClass.SIMPLE
        loops, double_count = [], [0] * (self.n + 1)
        for (a, b), c in self.edge_items():
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
        for (a, b), c in self.edge_items():
            if a == b:
                denom *= (1 << c) * math.factorial(c)
            else:
                denom *= math.factorial(c)
        return Fraction(1, denom)

    # -- text form ----------------------------------------------------------

    def to_text(self) -> str:
        """Edge-list format: header "n m", then one "u v" line per occurrence."""
        w = self.n + 1
        return f"{self.n} {len(self._codes)}\n" + "".join(
            [f"{code // w} {code % w}\n" for code in self._codes])

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
                and self.n == other.n and self._codes == other._codes)

    def __hash__(self):
        return hash((self.n, self._codes))

    def __repr__(self):
        return f"Multigraph(n={self.n}, edges={list(self.edge_occurrences())})"
