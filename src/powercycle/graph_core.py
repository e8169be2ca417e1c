"""Immutable bitset-backed graphs, multipartite views, and exact canonical-clique
enumeration.

A ``Graph`` stores its adjacency twice: as a read-only numpy boolean matrix
(for vectorized density and sampling work) and as one Python integer bitmask
per vertex (for the tight intersection loops that clique enumeration and the
expansion dynamic run millions of times). Vertex ids are dense integers fixed
at construction, so every iteration order in this module is deterministic and
trials are replayable.

A canonical clique is represented as a plain tuple ``(v_1, ..., v_k)`` with
``v_j`` drawn from the j-th part of the window it is anchored to; ``CliqueSet``
carries the anchoring window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

# A canonical copy of K_k in a window of parts: one vertex per part, in window
# order. Kept as a bare tuple for speed; the window lives on the CliqueSet.
CanonicalClique = tuple

__all__ = [
    "Graph",
    "TupleView",
    "CliqueSet",
    "CanonicalClique",
    "complete_graph",
    "empty_graph",
    "complete_multipartite",
    "enumerate_canonical_cliques",
    "count_canonical_cliques",
    "expected_clique_count",
    "common_neighborhood",
    "min_degree",
    "bit_indices",
    "mask_of",
    "save_graph",
    "load_graph",
    "save_parts",
    "load_parts",
]


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Iterable[int]) -> int:
    """Pack vertex ids into an integer bitmask."""
    m = 0
    for v in ids:
        m |= 1 << int(v)
    return m


def _pack_bool_row(row: np.ndarray) -> int:
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


class Graph:
    """Simple undirected graph on vertex ids ``0..n-1``, immutable after construction."""

    __slots__ = ("n", "adj", "_rows")

    def __init__(self, adj: np.ndarray):
        adj = np.asarray(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square boolean matrix")
        if adj.diagonal().any():
            raise ValueError("adjacency must be irreflexive")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        adj = adj.copy()
        adj.setflags(write=False)
        self.n = int(adj.shape[0])
        self.adj = adj
        self._rows: Optional[tuple] = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple]) -> "Graph":
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u, v] = adj[v, u] = True
        return cls(adj)

    @property
    def rows(self) -> tuple:
        """Adjacency rows as integer bitmasks, built once on first use."""
        if self._rows is None:
            packed = np.packbits(self.adj, axis=1, bitorder="little")
            self._rows = tuple(
                int.from_bytes(packed[v].tobytes(), "little") for v in range(self.n)
            )
        return self._rows

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u, v])

    def degree(self, v: int) -> int:
        return int(self.adj[v].sum())

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1)

    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

    def edges(self) -> np.ndarray:
        """All edges as an (m, 2) int64 array of rows (u, v) with u < v, in
        lexicographic order."""
        return np.argwhere(np.triu(self.adj, 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and np.array_equal(
            self.adj, other.adj
        )

    def __hash__(self):
        return hash((self.n, self.adj.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def complete_graph(n: int) -> Graph:
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return Graph(adj)


def empty_graph(n: int) -> Graph:
    return Graph(np.zeros((n, n), dtype=bool))


def complete_multipartite(part_sizes: Sequence[int]) -> tuple:
    """Complete multipartite graph; returns ``(graph, view)`` with parts laid out
    consecutively in the given size order."""
    sizes = [int(s) for s in part_sizes]
    if any(s <= 0 for s in sizes):
        raise ValueError("part sizes must be positive")
    n = sum(sizes)
    adj = np.ones((n, n), dtype=bool)
    start = 0
    parts = []
    for s in sizes:
        adj[start : start + s, start : start + s] = False
        parts.append(np.arange(start, start + s))
        start += s
    graph = Graph(adj)
    return graph, TupleView(graph, parts)


class TupleView:
    """An ordered list of pairwise-disjoint vertex sets inside a graph.

    Pair densities are exact rationals, computed lazily and cached. Parts are
    stored as sorted id arrays so iteration order is deterministic.
    """

    __slots__ = ("graph", "parts", "sizes", "_masks", "_density_cache")

    def __init__(self, graph: Graph, parts: Sequence):
        arrays = []
        for part in parts:
            arr = np.unique(np.asarray(part, dtype=np.int64))
            if arr.size == 0:
                raise ValueError("parts must be nonempty")
            if len(arr) != len(np.asarray(part)):
                raise ValueError("part contains duplicate vertex ids")
            if arr[0] < 0 or arr[-1] >= graph.n:
                raise ValueError("part contains vertex ids outside the graph")
            arrays.append(arr)
        total = np.concatenate(arrays)
        if len(np.unique(total)) != len(total):
            raise ValueError("parts must be pairwise disjoint")
        self.graph = graph
        self.parts = tuple(arrays)
        self.sizes = tuple(int(a.size) for a in arrays)
        self._masks: dict = {}
        self._density_cache: dict = {}

    @property
    def t(self) -> int:
        return len(self.parts)

    def part_mask(self, i: int) -> int:
        m = self._masks.get(i)
        if m is None:
            m = mask_of(self.parts[i])
            self._masks[i] = m
        return m

    def cross_edges(self, i: int, j: int) -> int:
        """Exact number of edges between parts i and j."""
        if i == j:
            raise IndexError("pair density requires two distinct parts")
        a, b = self.parts[i], self.parts[j]
        return int(self.graph.adj[np.ix_(a, b)].sum())

    def density(self, i: int, j: int) -> Fraction:
        """Exact pair density e(V_i, V_j) / (|V_i| |V_j|)."""
        key = (i, j) if i < j else (j, i)
        d = self._density_cache.get(key)
        if d is None:
            e = self.cross_edges(key[0], key[1])
            d = Fraction(e, self.sizes[key[0]] * self.sizes[key[1]])
            self._density_cache[key] = d
        return d

    def subview(self, indices: Sequence[int]) -> "TupleView":
        return TupleView(self.graph, [self.parts[i] for i in indices])

    def __repr__(self) -> str:
        return f"TupleView(t={self.t}, sizes={self.sizes})"


@dataclass(frozen=True)
class CliqueSet:
    """A set of canonical cliques sharing a window of a TupleView."""

    window_start: int
    order: int
    members: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        for m in self.members:
            if len(m) != self.order:
                raise ValueError("all members must have the window's order")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, clique) -> bool:
        return clique in self.members

    def sorted(self) -> list:
        return sorted(self.members)


def _window_masks(view: TupleView, window_start: int, order: int) -> list:
    if order < 1:
        raise ValueError("clique order must be at least 1")
    if window_start < 0 or window_start + order > view.t:
        raise IndexError(
            f"window [{window_start}, {window_start + order}) out of range for t={view.t}"
        )
    return [view.part_mask(window_start + d) for d in range(order)]


def enumerate_canonical_cliques(view: TupleView, window_start: int, order: int) -> CliqueSet:
    """Exactly enumerate canonical copies of K_order in the window starting at
    ``window_start``, intersecting adjacency bitsets front to back over the
    window order."""
    masks = _window_masks(view, window_start, order)
    rows = view.graph.rows
    out = []

    def extend(prefix: tuple, common: int, depth: int):
        cand = common & masks[depth]
        if depth == order - 1:
            for v in bit_indices(cand):
                out.append(prefix + (v,))
            return
        for v in bit_indices(cand):
            extend(prefix + (v,), common & rows[v], depth + 1)

    if order == 1:
        out = [(v,) for v in bit_indices(masks[0])]
    else:
        for v in bit_indices(masks[0]):
            extend((v,), rows[v], 1)
    return CliqueSet(window_start, order, frozenset(out))


def count_canonical_cliques(view: TupleView, window_start: int, order: int) -> int:
    """Exact count of canonical copies of K_order; same recursion as
    enumeration but closes the last level with a popcount."""
    masks = _window_masks(view, window_start, order)
    rows = view.graph.rows
    if order == 1:
        return masks[0].bit_count()
    last = masks[order - 1]

    def count(common: int, depth: int) -> int:
        if depth == order - 1:
            return (common & last).bit_count()
        total = 0
        for v in bit_indices(common & masks[depth]):
            total += count(common & rows[v], depth + 1)
        return total

    total = 0
    for v in bit_indices(masks[0]):
        total += count(rows[v], 1)
    return total


def expected_clique_count(view: TupleView, indices: Sequence[int]) -> float:
    """Canonical-clique count on the parts ``indices`` that the measured
    densities predict: the product of the part sizes, then of the pair
    densities for a < b. Callers compare these floats bit for bit, so the
    multiplication order is fixed."""
    expected = 1.0
    for i in indices:
        expected *= view.sizes[i]
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            expected *= float(view.density(indices[a], indices[b]))
    return expected


def common_neighborhood(graph: Graph, seed_vertices, target) -> np.ndarray:
    """Vertices of ``target`` adjacent to every vertex of ``seed_vertices``.

    An empty seed set imposes no constraint and returns the target itself.
    """
    m = mask_of(target)
    for v in seed_vertices:
        m &= graph.rows[int(v)]
    return np.fromiter(bit_indices(m), dtype=np.int64)


def min_degree(graph: Graph) -> int:
    if graph.n < 1:
        raise ValueError("graph must have at least one vertex")
    return int(graph.degrees().min())


# Line-oriented text serialization: header "n m", then one "u v" per edge with
# u < v, edges sorted lexicographically. The sidecar for a view is one line per
# part listing its vertex ids in increasing order.


def save_graph(graph: Graph, path) -> None:
    lines = [f"{graph.n} {graph.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges().tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _int_pair(tokens: list, where: str) -> tuple:
    if len(tokens) == 2:
        try:
            return int(tokens[0]), int(tokens[1])
        except ValueError:
            pass
    raise ValueError(f"{where}: expected two integers, got {' '.join(tokens)!r}")


def load_graph(path) -> Graph:
    """Read a file written by ``save_graph``. Raises ValueError naming the line
    for a malformed header or edge line, a duplicate edge, or an edge count
    that differs from the header's."""
    with open(path) as fh:
        lines = [(no, line.split()) for no, line in enumerate(fh, 1) if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file, expected a header 'n m'")
    header_no, header = lines[0]
    n, m = _int_pair(header, f"{path} line {header_no} (header)")
    if n < 0 or m < 0:
        raise ValueError(f"{path} line {header_no} (header): n and m must be non-negative")
    edges = []
    seen = set()
    no = header_no
    for no, tokens in lines[1:]:
        if len(edges) == m:
            raise ValueError(f"{path} line {no}: more edge lines than the header's m={m}")
        u, v = _int_pair(tokens, f"{path} line {no}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"{path} line {no}: duplicate edge {key}")
        seen.add(key)
        edges.append((u, v))
    if len(edges) < m:
        raise ValueError(
            f"{path} line {no + 1}: file ends after {len(edges)} of the header's m={m} edges"
        )
    return Graph.from_edges(n, edges)


def save_parts(view: TupleView, path) -> None:
    with open(path, "w") as fh:
        for part in view.parts:
            fh.write(" ".join(str(v) for v in part.tolist()) + "\n")


def load_parts(graph: Graph, path) -> TupleView:
    parts = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                parts.append([int(tok) for tok in line.split()])
    return TupleView(graph, parts)
