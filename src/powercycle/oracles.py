"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's fast paths: enumeration is nested
loops over part products, expansion is projection of naively enumerated
(k+1)-cliques, regularity is literal subset-pair enumeration, the random
adversary is its greedy rule one edge at a time. Keep them dumb.

An expansion start is a dense bool frontier anchored at window 0, as the
library takes it; the oracles read its members as vertex tuples themselves,
with ``_start_members``, and return reached copies as tuples.
"""

import itertools
from fractions import Fraction

import numpy as np

from .models import _report, stream


def naive_canonical_cliques(view, window_start, order):
    parts = [view.parts[window_start + d].tolist() for d in range(order)]
    adj = view.graph.adj
    out = []
    for combo in itertools.product(*parts):
        if all(adj[combo[a], combo[b]] for a in range(order) for b in range(a + 1, order)):
            out.append(tuple(combo))
    return out


def _start_members(view, start):
    """Vertex tuples, in lexicographic order, of the copies a dense start
    anchored at window 0 marks."""
    return [
        tuple(int(view.parts[a][i]) for a, i in enumerate(pos)) for pos in np.argwhere(start)
    ]


def naive_expand_step(view, start):
    members = set(_start_members(view, start))
    bigger = naive_canonical_cliques(view, 0, start.ndim + 1)
    return frozenset(c[1:] for c in bigger if c[:-1] in members)


def naive_density(graph, V1, V2):
    e = sum(1 for u in V1 for v in V2 if graph.adj[u, v])
    return Fraction(e, len(V1) * len(V2))


def naive_max_deviation(graph, V1, V2, eps):
    """Largest |d(V1', V2') - d(V1, V2)| over all qualifying subset pairs,
    by literal enumeration. Only viable for |Vi| up to about 10."""
    import math

    V1, V2 = list(V1), list(V2)
    d = naive_density(graph, V1, V2)
    m1 = max(1, math.ceil(eps * len(V1)))
    m2 = max(1, math.ceil(eps * len(V2)))
    worst = Fraction(0)
    for q1 in range(m1, len(V1) + 1):
        for sub1 in itertools.combinations(V1, q1):
            for q2 in range(m2, len(V2) + 1):
                for sub2 in itertools.combinations(V2, q2):
                    dev = abs(naive_density(graph, sub1, sub2) - d)
                    if dev > worst:
                        worst = dev
    return worst


def triangles_at(graph, v):
    """All triangles through v, by exhaustive scan."""
    nbrs = [u for u in range(graph.n) if graph.adj[v, u]]
    out = []
    for i in range(len(nbrs)):
        for j in range(i + 1, len(nbrs)):
            if graph.adj[nbrs[i], nbrs[j]]:
                out.append((v, nbrs[i], nbrs[j]))
    return out


def sequential_random_adversary(graph, r, seed):
    """``models.adversary_random`` edge by edge: walk the permuted edge order
    and delete each edge whose endpoints are both below budget."""
    rng = stream(seed, 3)
    edges = graph.edges().tolist()
    budget = np.floor(r * graph.degrees()).astype(np.int64)
    order = rng.permutation(len(edges))
    adj = graph.adj.copy()
    bud = budget.tolist()
    cnt = [0] * graph.n
    for idx in order.tolist():
        u, v = edges[idx]
        if cnt[u] < bud[u] and cnt[v] < bud[v]:
            adj[u, v] = adj[v, u] = False
            cnt[u] += 1
            cnt[v] += 1
    return _report(graph, adj, budget)


def literal_expand_once(view, start):
    """One window step of ``start`` by the expansion kernel's own rule, in
    nested loops: a member c reaches c[1:] + (w,) for each w of the next part
    adjacent to every vertex of c. Adjacency inside c is not rechecked, as the
    kernel inherits it. Returns the reached copies and, for each, its
    predecessor: the first member in sorted order that reaches it."""
    adj = view.graph.adj
    nxt = view.parts[start.ndim].tolist()
    bp = {}
    for c in _start_members(view, start):
        for w in nxt:
            if all(adj[v, w] for v in c):
                bp.setdefault(c[1:] + (w,), c)
    return frozenset(bp), bp
