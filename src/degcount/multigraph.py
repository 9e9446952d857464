"""Labelled multigraphs: loops and edge multiplicities.

Vertices are labelled 1..n.  Edges form a multiset of unordered pairs kept
as one sorted tuple of edge codes u*(n+1) + v, u <= v, once per occurrence.
Sorting the codes sorts the pairs, so equal multisets have equal tuples and
every output (edge_items, to_text, repr) reads the edges in order without a
sort of its own.  The samplers sort their codes once, as an array, and hand
them to a trusted constructor that skips the checks.
"""

from __future__ import annotations

from collections import _count_elements
from operator import itemgetter, lt

_second = itemgetter(1)


class Multigraph:
    """Immutable multigraph on vertices 1..n with a multiset of edges.

    Holds n, read-only as the codes are decoded by it, and the sorted tuple
    of edge codes u*(n+1) + v (u <= v), one per occurrence; equality and
    hashing read both.  The public constructor checks the vertex range and
    sorts the codes itself.
    """

    __slots__ = ("_n", "_codes")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self._n = n
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
        graph._n = n
        graph._codes = codes
        return graph

    @property
    def n(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return len(self._codes)

    def edge_items(self):
        """((u, v), multiplicity) pairs, u <= v, in increasing order."""
        counts = {}
        _count_elements(counts, self._codes)  # keeps the codes' order
        w = self._n + 1
        return tuple((divmod(code, w), c) for code, c in counts.items())

    def degrees(self) -> list[int]:
        w = self._n + 1
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
                and all(map((self._n + 2).__rmod__, codes)))

    # -- text form ----------------------------------------------------------

    def to_text(self) -> str:
        """Edge-list format: header "n m", then one "u v" line per occurrence."""
        w = self._n + 1
        return f"{self._n} {len(self._codes)}\n" + "".join(
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
                and self._n == other._n and self._codes == other._codes)

    def __hash__(self):
        return hash((self._n, self._codes))

    def __repr__(self):
        w = self._n + 1
        return (f"Multigraph(n={self._n}, "
                f"edges={[divmod(code, w) for code in self._codes]})")
