"""Seeded random graph generators and degree-budgeted adversaries.

All randomness flows through Philox, a counter-based generator with a fixed,
documented algorithm, so a (seed, path) pair identifies the same stream on
every platform and regardless of thread schedule. Sub-streams are derived by
extending the entropy path rather than by drawing from a parent stream, which
keeps parallel trials bit-identical to serial ones.

Every draw of the package comes from ``stream(seed, tag, ...)`` with one tag
per call site and no arithmetic on seeds:

    0  gen_gnp                      37  typical_vertices (v, j, l)
    1  gen_blowup                   41  embedder reserves, targets
    2  adversary_partite            43  embedder extend draws (s, attempt, m)
    3  adversary_random             47  embedder closing draws (attempt, m)
   11  build_nice_partition         53  count-audit vertex sets
   13  chunk_partition              59  expansion-audit start sets
   17  inheritance_stats samples    61  oracle-compare instances
   19  pair survey (round, i, j)    67  typical clique copy (*copy)
   23  one-step audit start         71  super-typical tuple pair (i, j)
   29  halving audit splits
   31  inheritance_stats check (s)

Paths that differ only by trailing zeros name the same stream (the entropy is
a word list, so ``stream(5, 17) == stream(5, 17, 0)``), and an entry of 2^32 or
more spills into a second word. Hence each tag keeps a fixed path length, its
entries stay below 2^32, and the bare ``stream(seed)`` is never used: it is
``gen_gnp``'s ``stream(seed, 0)``.

Every adversary returns a spanning subgraph of its input together with an
``AdversaryReport`` recording what was deleted and whether a per-vertex
deletion budget was respected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph_core import Graph, TupleView, min_degree

__all__ = [
    "ModelParams",
    "AdversaryReport",
    "stream",
    "gen_gnp",
    "gen_blowup",
    "adversary_partite",
    "adversary_triangle_killer",
    "adversary_random",
    "partite_blocker_sizes",
    "extremal_blocker",
]


def stream(seed: int, *path: int) -> np.random.Generator:
    """Philox stream addressed by a seed and an integer sub-stream path."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *map(int, path)])))


@dataclass(frozen=True)
class ModelParams:
    """Host-model parameters: N vertices, edge probability p, power order k,
    resilience margin alpha, and the trial seed."""

    N: int
    p: float
    k: int = 2
    alpha: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0,1], got {self.p}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.N < 1:
            raise ValueError(f"N must be positive, got {self.N}")


@dataclass
class AdversaryReport:
    """What a thinning strategy did: total deletions, per-vertex deletion
    counts, resulting minimum degree, and (when the strategy promises one)
    the per-vertex budget floor(r * d_G(v))."""

    deleted_edges: int
    per_vertex_deleted: np.ndarray
    min_degree_after: int
    budget: Optional[np.ndarray] = None
    # Planted structure, when the strategy has one (the partite adversary).
    parts: Optional[list] = None

    def budget_respected(self) -> Optional[bool]:
        if self.budget is None:
            return None
        return bool(np.all(self.per_vertex_deleted <= self.budget))

    def to_dict(self) -> dict:
        return {
            "deleted_edges": int(self.deleted_edges),
            "min_degree_after": int(self.min_degree_after),
            "max_vertex_deleted": int(self.per_vertex_deleted.max(initial=0)),
            "budget_respected": self.budget_respected(),
        }


def gen_gnp(params: ModelParams) -> Graph:
    """Binomial random graph: each unordered pair is an edge independently
    with probability p. Identical seed, identical graph."""
    rng = stream(params.seed, 0)
    n = params.N
    draws = rng.random((n, n))
    adj = np.triu(draws < params.p, 1)
    adj = adj | adj.T
    return Graph(adj)


def gen_blowup(pattern: Graph, n: int, p: float, seed: int) -> tuple:
    """Blow-up of a pattern graph: one part of size n per pattern vertex, and
    an independent p-random bipartite graph on every pattern edge. Non-edges
    of the pattern carry no edges; parts are internally empty."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0,1], got {p}")
    t = pattern.n
    rng = stream(seed, 1)
    N = t * n
    adj = np.zeros((N, N), dtype=bool)
    # Fixed pattern-edge order makes the draw order part of the contract.
    for i, j in pattern.edges().tolist():
        block = rng.random((n, n)) < p
        adj[i * n : (i + 1) * n, j * n : (j + 1) * n] = block
        adj[j * n : (j + 1) * n, i * n : (i + 1) * n] = block.T
    graph = Graph(adj)
    parts = [np.arange(i * n, (i + 1) * n) for i in range(t)]
    return graph, TupleView(graph, parts)


def _report(before: Graph, after_adj: np.ndarray, budget=None) -> tuple:
    after = Graph(after_adj)
    per_vertex = (before.degrees() - after.degrees()).astype(np.int64)
    deleted = int(per_vertex.sum()) // 2
    return after, AdversaryReport(
        deleted_edges=deleted,
        per_vertex_deleted=per_vertex,
        min_degree_after=min_degree(after) if after.n else 0,
        budget=budget,
    )


def adversary_partite(graph: Graph, k: int, skew: float, seed: int) -> tuple:
    """Delete every edge inside the k+1 parts of a random partition with one
    part of size about (1+skew) N/(k+1) and k equal smaller parts (the large
    part absorbs rounding). The planted parts are recorded on the report."""
    N = graph.n
    if k + 1 > N:
        raise ValueError(f"need k+1 <= N, got k={k}, N={N}")
    large = int(round((1.0 + skew) * N / (k + 1)))
    if large > N - k or large < 1:
        raise ValueError(f"skew {skew} leaves no room for {k} nonempty small parts")
    small = (N - large) // k
    if small < 1:
        raise ValueError(f"skew {skew} makes the small parts empty")
    large = N - k * small
    rng = stream(seed, 2)
    perm = rng.permutation(N)
    parts = [perm[:large]]
    for i in range(k):
        parts.append(perm[large + i * small : large + (i + 1) * small])
    adj = graph.adj.copy()
    for part in parts:
        adj[np.ix_(part, part)] = False
    after, report = _report(graph, adj)
    report.parts = [np.sort(p) for p in parts]
    return after, report


def adversary_triangle_killer(graph: Graph, victims: Sequence[int]) -> tuple:
    """For each victim v, delete every edge with both endpoints in N(v), so no
    victim lies in a triangle afterwards. Neighborhoods are taken in the input
    graph, so the result is independent of victim order."""
    adj = graph.adj.copy()
    for v in victims:
        nbrs = np.nonzero(graph.adj[int(v)])[0]
        adj[np.ix_(nbrs, nbrs)] = False
    return _report(graph, adj)


# Segments at or below this many live edges are settled by the sequential rule.
_LEAF_EDGES = 256


def adversary_random(graph: Graph, r: float, seed: int) -> tuple:
    """Delete edges in uniformly random order, skipping any edge whose
    endpoints' budgets floor(r * d_G(v)) are exhausted. Deletion never exceeds
    the budget at any vertex, by construction.

    The rule is greedy and order-dependent, but most of it is settled on
    arrays (``_settle``) with exactly the sequential outcome, using two facts.
    Deletion counts only rise, so an edge with an exhausted endpoint stays
    undeletable. And within a segment of the order, a vertex whose count plus
    its live edges in the segment is at most its budget ("safe") cannot run
    out there, so a live edge with two safe endpoints is deleted whatever the
    order. ``oracles.sequential_random_adversary`` is the edge-by-edge rule."""
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0,1], got {r}")
    rng = stream(seed, 3)
    edges = graph.edges()
    budget = np.floor(r * graph.degrees()).astype(np.int64)
    order = rng.permutation(len(edges))
    us, vs = np.take(edges[:, 0], order), np.take(edges[:, 1], order)
    deleted: list = []
    _settle(us, vs, np.zeros(graph.n, dtype=np.int64), budget, deleted)
    du, dv = (np.concatenate(side) for side in zip(*deleted))
    adj = graph.adj.copy()
    adj[du, dv] = False
    adj[dv, du] = False
    return _report(graph, adj, budget)


def _settle(us, vs, cnt, budget, deleted: list) -> None:
    """Apply the greedy budgeted rule to the edges (us[i], vs[i]) in order,
    given the deletion counts ``cnt`` of all edges before them: append the
    deleted edges to ``deleted`` as (u array, v array) and raise ``cnt``.

    Deleting the safe-safe edges of a segment up front raises only safe
    vertices' counts, and a safe vertex stays below its budget for every later
    edge of the segment, so the rest of the segment and its halves see the
    same decisions as the sequential rule."""
    below = cnt < budget
    live = below[us] & below[vs]
    us, vs = us[live], vs[live]
    if len(us) <= _LEAF_EDGES:
        du, dv = [], []
        for u, v in zip(us.tolist(), vs.tolist()):
            if cnt[u] < budget[u] and cnt[v] < budget[v]:
                cnt[u] += 1
                cnt[v] += 1
                du.append(u)
                dv.append(v)
        deleted.append((np.array(du, dtype=np.int64), np.array(dv, dtype=np.int64)))
        return
    n = len(cnt)
    safe = cnt + np.bincount(us, minlength=n) + np.bincount(vs, minlength=n) <= budget
    free = safe[us] & safe[vs]
    if free.any():
        fu, fv = us[free], vs[free]
        cnt += np.bincount(fu, minlength=n) + np.bincount(fv, minlength=n)
        deleted.append((fu, fv))
        rest = ~free
        us, vs = us[rest], vs[rest]
    half = len(us) // 2
    _settle(us[:half], vs[:half], cnt, budget, deleted)
    _settle(us[half:], vs[half:], cnt, budget, deleted)


def partite_blocker_sizes(N: int, k: int) -> list:
    """Part sizes of the complete (k+1)-partite graph that blocks a spanning
    k-th power of a Hamilton cycle: a balanced split of N, with one vertex
    shifted between parts when the split would be perfectly balanced (a
    balanced complete multipartite graph stops being a blocker exactly when
    k+1 divides N)."""
    if k + 1 > N:
        raise ValueError(f"need k+1 <= N, got k={k}, N={N}")
    base, rem = divmod(N, k + 1)
    sizes = [base + 1] * rem + [base] * (k + 1 - rem)
    if rem == 0:
        sizes[0] -= 1
        sizes[1] += 1
    if min(sizes) < 1:
        raise ValueError(f"N={N} too small for a (k+1)-partite blocker with k={k}")
    return sorted(sizes)


def extremal_blocker(N: int, k: int) -> tuple:
    """The complete (k+1)-partite blocker graph on N vertices; returns
    (graph, view) with the parts of partite_blocker_sizes."""
    from .graph_core import complete_multipartite

    return complete_multipartite(partite_blocker_sizes(N, k))
