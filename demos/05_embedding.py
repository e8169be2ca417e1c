"""End-to-end embedding of the square of an almost-spanning cycle.

Pipeline: generate a random host, thin it with a budgeted random adversary,
build the nice partition and its reduced graph, find a square-cycle ordering
of the clusters by exact search, then grow the cycle window by window and
close it through the reserve sets. The output is verified edge by edge.

With N = 1200 this runs in a couple of seconds; the acceptance suite runs the
same pipeline at N = 3000 over 100 seeds.
"""

import time

from powercycle import (
    EmbedParams,
    ModelParams,
    PowerCycle,
    RegularityParams,
    adversary_random,
    build_nice_partition,
    build_reduced,
    embed_power_cycle,
    find_cluster_power_cycle,
    gen_gnp,
    verify_power_cycle,
)

N, p, k, seed = 1200, 0.5, 2, 0
eps = 0.15

t0 = time.time()
host = gen_gnp(ModelParams(N=N, p=p, seed=seed))
thinned, adv = adversary_random(host, 0.1, seed)
print(f"host G({N}, {p}): {host.edge_count()} edges; adversary deleted {adv.deleted_edges} "
      f"(budget respected: {adv.budget_respected()}), min degree {adv.min_degree_after}")

reg = RegularityParams(epsilon=0.25, p=p, d=2 / 3, mu=k / (k + 1), trials=200)
partition = build_nice_partition(thinned, reg, m=6, seed=seed)
reduced = build_reduced(partition)
cycle = find_cluster_power_cycle(reduced, k)
print(f"partition into {partition.k} classes of {partition.class_size}; "
      f"reduced graph has {reduced.edge_count()} edges; cluster ordering {cycle.vertices}")

params = EmbedParams(k=k, xi=0.045, delta=0.0225, eps=eps, seed=seed)
result = embed_power_cycle(thinned, partition, cycle, params)
if isinstance(result, PowerCycle):
    ok, _ = verify_power_cycle(thinned, result)
    print(f"embedded a verified square cycle on {len(result)} of {N} vertices "
          f"(coverage {len(result) / N:.3f}, need {1 - eps}) in {time.time() - t0:.1f}s")
else:
    print(f"embedding failed at stage {result.stage}: {result.detail}")
