"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's fast paths: enumeration is nested
loops over part products, expansion is projection of naively enumerated
(k+1)-cliques, regularity is literal subset-pair enumeration, the random
adversary is its greedy rule one edge at a time. Keep them dumb. The one
exception is ``bitset_expand_once``, the dict-and-bitmask expansion step that
the dense kernel in ``expansion`` replaced: unlike the projection oracle it
also yields the predecessor of every reached copy, so the tests hold the dense
back pointers to it.
"""

import itertools
from fractions import Fraction

import numpy as np

from .graph_core import bit_indices, mask_of
from .models import _report, stream


def naive_canonical_cliques(view, window_start, order):
    parts = [view.parts[window_start + d].tolist() for d in range(order)]
    adj = view.graph.adj
    out = []
    for combo in itertools.product(*parts):
        if all(adj[combo[a], combo[b]] for a in range(order) for b in range(a + 1, order)):
            out.append(tuple(combo))
    return out


def naive_expand_step(view, start):
    k = start.order
    bigger = naive_canonical_cliques(view, start.window_start, k + 1)
    return frozenset(c[1:] for c in bigger if c[:-1] in start.members)


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


def bitset_expand_once(view, start):
    """One window step of ``start`` with the frontier as a map from
    (k-1)-suffix to bitmask of heads. Returns the reached copies and, for each,
    its predecessor with the lowest valid head."""
    k = start.order
    frontier = {}
    for c in start.members:
        frontier[c[1:]] = frontier.get(c[1:], 0) | (1 << c[0])
    rows = view.graph.rows
    next_mask = mask_of(view.parts[start.window_start + k])
    new = {}
    bp = {}
    for suffix, heads in frontier.items():
        cand = next_mask
        for v in suffix:
            cand &= rows[v]
        for w in bit_indices(cand):
            valid = heads & rows[w]
            if valid:
                grown = suffix + (w,)
                new[grown[1:]] = new.get(grown[1:], 0) | (1 << grown[0])
                if grown not in bp:
                    bp[grown] = ((valid & -valid).bit_length() - 1,) + suffix
    reached = frozenset((h,) + suffix for suffix, heads in new.items() for h in bit_indices(heads))
    return reached, bp
