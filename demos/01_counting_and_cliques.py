"""Canonical clique counting in multipartite blow-ups.

Builds a triangle blow-up, counts canonical triangles exactly with the bitset
enumerator, and compares against the product of part sizes and measured pair
densities - the count concentrates tightly around that expectation. Also
shows the upper-bound audit on random vertex subsets of a binomial random
graph.
"""

from powercycle import (
    ModelParams,
    TupleView,
    clique_count_upper_check,
    complete_graph,
    count_canonical_cliques,
    gen_blowup,
    gen_gnp,
    stream,
)

n, p = 80, 0.5
print(f"triangle blow-up with parts of size {n}, edge probability {p}")
print(f"{'seed':>4} {'count':>8} {'expected':>10} {'ratio':>7}")
for seed in range(8):
    _, view = gen_blowup(complete_graph(3), n, p, seed)
    count = count_canonical_cliques(view, 0, 3)
    expected = n**3 * float(view.density(0, 1) * view.density(0, 2) * view.density(1, 2))
    print(f"{seed:>4} {count:>8} {expected:>10.0f} {count / expected:>7.4f}")

print()
print("upper-bound audit: triangles in three random disjoint 150-sets of G(600, 1/2)")
print("must stay below (1 + 0.2) * 150^3 * (1/2)^3")
for seed in range(5):
    host = gen_gnp(ModelParams(N=600, p=0.5, seed=seed))
    perm = stream(seed, 53).permutation(600)
    view = TupleView(host, [perm[:150], perm[150:300], perm[300:450]])
    count = count_canonical_cliques(view, 0, 3)
    bound = 1.2 * 150**3 * 0.125
    print(f"  seed {seed}: {count} <= {bound:.0f}: {clique_count_upper_check(view, 3, 0.2, 0.5)}")
