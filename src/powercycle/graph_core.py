"""Immutable graphs, multipartite views, and exact canonical-clique sets.

A ``Graph`` holds its adjacency once, as a read-only numpy boolean matrix.
``Graph.rows``, one Python integer bitmask per vertex, is built when first
read. No pipeline module or oracle reads it; it stays only because the
benchmark's tracer times its first build.
Vertex ids are dense integers fixed at construction, so every iteration order
in this module is deterministic and trials are replayable.

The constructor checks symmetry exactly, comparing each 256-square tile with
its mirror tile, and ``mirror_upper`` builds a symmetric matrix in place tile
by tile: neither transposes the whole matrix, whose strided reads miss the
cache at the acceptance size. A graph never changes, so ``degrees()`` is
summed once and shared read-only.

A canonical clique is a plain tuple ``(v_1, ..., v_k)`` with ``v_j`` drawn
from the j-th part of its window. A set of them has one form: a dense bool
array over the window's sorted parts, True at the positions of its members.
``window_cliques`` builds a window's cliques in this form, with the expansion
kernel's broadcast AND (``and_part_blocks``); ``pick_frontier`` builds a
subset from C-order positions; ``frontier_members`` reads tuples from such an
array in C order, which is lexicographic.

Two primitives serve every hot caller: ``Graph.submatrix``, the one gather of
an adjacency block (rows, then columns), and ``exact_product``, the one
product of 0/1 matrices, float32 counts that are exact below 2**24 terms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "Graph",
    "TupleView",
    "complete_graph",
    "empty_graph",
    "complete_multipartite",
    "window_cliques",
    "and_part_blocks",
    "exact_product",
    "pick_frontier",
    "frontier_members",
    "enumerate_canonical_cliques",
    "count_canonical_cliques",
    "expected_clique_count",
    "common_neighborhood",
    "min_degree",
    "mirror_upper",
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


# Side of the square tiles in which symmetric matrices are checked and mirrored.
_TILE = 256


def _upper_tiles(n: int) -> Iterator[tuple]:
    """Slice pairs (a, b) of the _TILE-square tiles on and above the diagonal
    of an n x n matrix; tile [a, b] mirrors tile [b, a]."""
    for lo in range(0, n, _TILE):
        a = slice(lo, lo + _TILE)
        for hi in range(lo, n, _TILE):
            yield a, slice(hi, hi + _TILE)


def mirror_upper(adj: np.ndarray) -> np.ndarray:
    """Make a square bool matrix the symmetric, irreflexive adjacency of its
    strict upper triangle, in place, and return it; the diagonal and lower
    triangle it held are overwritten."""
    for a, b in _upper_tiles(adj.shape[0]):
        if a == b:
            upper = np.triu(adj[a, a], 1)
            np.bitwise_or(upper, upper.T, out=adj[a, a])
        else:
            adj[b, a] = adj[a, b].T
    return adj


class Graph:
    """Simple undirected graph on vertex ids ``0..n-1``, immutable after construction."""

    __slots__ = ("n", "adj", "_rows", "_degrees")

    def __init__(self, adj: np.ndarray):
        adj = np.asarray(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square boolean matrix")
        if adj.diagonal().any():
            raise ValueError("adjacency must be irreflexive")
        if not all(np.array_equal(adj[a, b], adj[b, a].T) for a, b in _upper_tiles(adj.shape[0])):
            raise ValueError("adjacency must be symmetric")
        adj = adj.copy()
        adj.setflags(write=False)
        self.n = int(adj.shape[0])
        self.adj = adj
        self._rows: Optional[tuple] = None
        self._degrees: Optional[np.ndarray] = None

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
        """Read-only int64 degree array, summed once on first use."""
        if self._degrees is None:
            degrees = self.adj.sum(axis=1, dtype=np.int64)
            degrees.setflags(write=False)
            self._degrees = degrees
        return self._degrees

    def submatrix(self, rows, cols) -> np.ndarray:
        """Fresh bool block ``adj[rows][:, cols]`` for int id arrays in any
        order, repeats allowed, gathered rows first, then columns (half the
        time of one broadcast gather); an id out of range is an IndexError."""
        return self.adj.take(rows, 0).take(cols, 1)

    def edge_count(self) -> int:
        return int(self.degrees().sum()) // 2

    def edges(self) -> np.ndarray:
        """All edges as an (m, 2) int64 array of rows (u, v) with u < v, in
        lexicographic order, read from the flat positions of the strict upper
        triangle's entries with ``divmod``. The array is column-major, so
        ``edges[:, 0]`` and ``edges[:, 1]`` are contiguous."""
        flat = np.flatnonzero(np.triu(self.adj, 1))
        out = np.empty((2, flat.size), dtype=np.int64)
        np.divmod(flat, self.n, out=(out[0], out[1]))
        return out.T

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

    __slots__ = ("graph", "parts", "sizes", "_blocks", "_density_cache")

    def __init__(self, graph: Graph, parts: Sequence):
        arrays = []
        for part in parts:
            arr = np.sort(np.asarray(part, dtype=np.int64), axis=None)
            if arr.size == 0:
                raise ValueError("parts must be nonempty")
            if (arr[1:] == arr[:-1]).any():
                raise ValueError("part contains duplicate vertex ids")
            if arr[0] < 0 or arr[-1] >= graph.n:
                raise ValueError("part contains vertex ids outside the graph")
            arrays.append(arr)
        # Each part is duplicate-free, so the parts are pairwise disjoint
        # exactly when marking all of them marks as many vertices as they hold.
        seen = np.zeros(graph.n, dtype=bool)
        seen[np.concatenate(arrays)] = True
        if np.count_nonzero(seen) != sum(a.size for a in arrays):
            raise ValueError("parts must be pairwise disjoint")
        self.graph = graph
        self.parts = tuple(arrays)
        self.sizes = tuple(int(a.size) for a in arrays)
        self._blocks: dict = {}
        self._density_cache: dict = {}

    @property
    def t(self) -> int:
        return len(self.parts)

    def block(self, i: int, j: int) -> np.ndarray:
        """Read-only bool adjacency block between parts i and j, rows and
        columns in the parts' sorted order; built once per pair."""
        b = self._blocks.get((i, j))
        if b is None:
            b = self.graph.submatrix(self.parts[i], self.parts[j])
            b.setflags(write=False)
            self._blocks[(i, j)] = b
        return b

    def cross_edges(self, i: int, j: int) -> int:
        """Exact number of edges between parts i and j."""
        if i == j:
            raise IndexError("pair density requires two distinct parts")
        return int(self.block(i, j).sum())

    def density(self, i: int, j: int) -> Fraction:
        """Exact pair density e(V_i, V_j) / (|V_i| |V_j|)."""
        key = (i, j) if i < j else (j, i)
        d = self._density_cache.get(key)
        if d is None:
            e = self.cross_edges(key[0], key[1])
            d = Fraction(e, self.sizes[key[0]] * self.sizes[key[1]])
            self._density_cache[key] = d
        return d

    def __repr__(self) -> str:
        return f"TupleView(t={self.t}, sizes={self.sizes})"


def exact_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two bool arrays as float32 counts: entry (i, j) is the
    number of positions l with a[i, l] and b[l, j]. Every partial sum is a
    whole number of at most ``a.shape[-1]`` ones, and float32 holds each
    integer up to 2**24 exactly, so the counts are exact whatever the summation
    order, the BLAS thread count or the platform. An inner dimension of 2**24
    or more is a ValueError."""
    if a.shape[-1] >= 2**24:
        raise ValueError(
            f"inner dimension {a.shape[-1]} is not below 2**24, float32 counts could round"
        )
    return np.matmul(a, b, dtype=np.float32)


def and_part_blocks(view: TupleView, out: np.ndarray, first: int) -> np.ndarray:
    """AND into ``out``, a bool array over the consecutive parts first, ...,
    first + out.ndim - 1 of the view, the adjacency block of each of its parts
    against the last one, broadcast along the other axes; return ``out``."""
    last = first + out.ndim - 1
    for a in range(out.ndim - 1):
        shape = [1] * out.ndim
        shape[a], shape[-1] = view.sizes[first + a], view.sizes[last]
        out &= view.block(first + a, last).reshape(shape)
    return out


def window_cliques(view: TupleView, window_start: int, order: int) -> np.ndarray:
    """Read-only bool array of shape ``view.sizes[window_start:window_start +
    order]``, True exactly at the positions, in the parts' sorted order, of the
    canonical copies of K_order in the window; built one part at a time."""
    if order < 1:
        raise ValueError("clique order must be at least 1")
    if window_start < 0 or window_start + order > view.t:
        raise IndexError(
            f"window [{window_start}, {window_start + order}) out of range for t={view.t}"
        )
    cliques = np.ones(view.sizes[window_start], dtype=bool)
    for d in range(1, order):
        cliques = np.repeat(cliques[..., None], view.sizes[window_start + d], axis=-1)
        and_part_blocks(view, cliques, window_start)
    cliques.flags.writeable = False
    return cliques


def pick_frontier(shape: tuple, positions: tuple, picks) -> np.ndarray:
    """Dense bool array of ``shape``, True at the copies at ``positions``
    (per-axis arrays in C order, as ``np.nonzero`` gives them) that ``picks``,
    a slice or an index array, selects."""
    frontier = np.zeros(shape, dtype=bool)
    frontier[tuple(p[picks] for p in positions)] = True
    return frontier


def frontier_members(view: TupleView, frontier: np.ndarray, window: int) -> list:
    """Tuples of vertex ids, in lexicographic order, of the copies marked in a
    dense bool array whose axes are the view's parts from ``window`` on."""
    idx = np.nonzero(frontier)
    return list(zip(*(view.parts[window + a][i].tolist() for a, i in enumerate(idx))))


def enumerate_canonical_cliques(view: TupleView, window_start: int, order: int) -> list:
    """Exactly enumerate the canonical copies of K_order in the window starting
    at ``window_start``: the members of ``window_cliques``, in lexicographic
    order."""
    return frontier_members(view, window_cliques(view, window_start, order), window_start)


def count_canonical_cliques(view: TupleView, window_start: int, order: int) -> int:
    """Exact count of canonical copies of K_order: the ``count_nonzero`` of
    ``window_cliques``."""
    return int(np.count_nonzero(window_cliques(view, window_start, order)))


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
    """Vertices of ``target`` adjacent to every vertex of ``seed_vertices``,
    as ascending, duplicate-free int64 ids read from the adjacency matrix.

    An empty seed set imposes no constraint and returns the target itself.
    """
    target = np.asarray(target, dtype=np.int64)
    if target.size > 1 and not (target[1:] > target[:-1]).all():
        target = np.unique(target)
    seeds = np.asarray(seed_vertices, dtype=np.int64)
    return target[graph.submatrix(seeds, target).all(axis=0)]


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
