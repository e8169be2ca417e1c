"""Regularity certification, refutation, and partition construction.

The exact checker settles small pairs completely: a complete bipartite pair
certifies at any tolerance, while a half-dense pair (all edges between the
first halves) is refuted with an explicit witness. The sampled refuter finds
the same planted irregularity by random search. Finally a random graph gets
its nice partition: one random equipartition whose pairs of density >= d*p
are each surveyed once by the sampled refuter (a sparser pair is never
refuted, and its stream is never built); here every pair is dense and
unrefuted.
"""

import numpy as np

from powercycle import (
    Graph,
    ModelParams,
    RegularityParams,
    build_nice_partition,
    check_regular_exact,
    check_regular_sampled,
    complete_multipartite,
    gen_gnp,
    inheritance_stats,
    stream,
)

g, view = complete_multipartite([10, 10])
verdict = check_regular_exact(g, view.parts[0], view.parts[1], 0.4, 1.0)
print(f"complete bipartite 10+10 at eps=0.4: {verdict.status}")

n = 10
adj = np.zeros((2 * n, 2 * n), dtype=bool)
adj[: n // 2, n : n + n // 2] = True
adj = np.triu(adj, 1)
half = Graph(adj | adj.T)
verdict = check_regular_exact(half, range(n), range(n, 2 * n), 0.4, 1.0)
w1, w2 = verdict.witness
print(
    f"half-dense pair: {verdict.status}, deviation {verdict.deviation:.3f}, "
    f"witness sizes ({len(w1)}, {len(w2)})"
)
V1, V2 = np.arange(n), np.arange(n, 2 * n)
sampled = check_regular_sampled(half.submatrix(V1, V2), V1, V2, 0.4, 1.0, trials=10_000, rng=stream(0, 7))
print(f"same pair, sampled refuter with 10^4 trials: {sampled.status}")

print()
print("nice partition of G(2000, 0.3) into 4 classes:")
host = gen_gnp(ModelParams(N=2000, p=0.3, seed=1))
params = RegularityParams(epsilon=0.25, p=0.3, d=0.9, mu=0.6, trials=200)
partition = build_nice_partition(host, params, m=4, seed=1)
print(f"  class size {partition.class_size}, useful pairs {sorted(partition.useful_pairs)},")
print(f"  dense partners per class {partition.partner_counts()}, property holds: {partition.partner_ok}")

frac = inheritance_stats(
    host, partition.classes[0], partition.classes[1], 60, 60, 0.3, 0.3, samples=200, seed=2
)
print(f"  fraction of random 60+60 subsets inheriting regularity: {frac:.3f}")
