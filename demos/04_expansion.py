"""The clique-expansion dynamic.

A small fraction of the edges in the first window block of a path-power
blow-up expands, window by window, to nearly all edges of the far block; the
trace below shows the reach fraction recovering from 5% to ~100% in two
steps. The halving search then isolates a single well-expanding clique, and
the one-step audit measures the expansion of a random start set on a
certified tuple.
"""

import math

import numpy as np

from powercycle import (
    ExpansionParams,
    Graph,
    TypicalityParams,
    complete_graph,
    expand_through,
    find_expander,
    gen_blowup,
    one_step_expansion_audit,
    stream,
)
from powercycle.expansion import reference_count
from powercycle.graph_core import pick_frontier, window_cliques


def path_power(windows, k):
    edges = [(i, j) for i in range(windows) for j in range(i + 1, min(i + k, windows - 1) + 1)]
    return Graph.from_edges(windows, edges)


k, n, p, delta = 2, 50, 0.6, 0.05
_, view = gen_blowup(path_power(2 * k, k), n, p, seed=3)
x_start = reference_count(view, 0, k)
full = window_cliques(view, 0, k)
positions = np.nonzero(full)
picks = stream(3, 99).choice(len(positions[0]), size=math.ceil(delta * x_start), replace=False)
start = pick_frontier(full.shape, positions, picks)
trace = expand_through(start, view, k)
print(f"main expansion on a {2 * k}-window blow-up, start = {np.count_nonzero(start)} edges (delta = {delta}):")
for m, (c, f) in enumerate(zip(trace.counts, trace.fractions)):
    print(f"  window {m}: {c:5d} copies, fraction {f:.3f}")
print(f"target 1 - 10 delta = {1 - 10 * delta}: reached {trace.final_fraction:.3f}")

print()
windows = 100  # ~ 3 k^2 log N at this host size
_, long_view = gen_blowup(path_power(windows, k), 40, 0.7, seed=5)
exp = ExpansionParams(k=k, delta=0.02)
x0 = reference_count(long_view, 0, k)
full = window_cliques(long_view, 0, k)
positions = np.nonzero(full)
picks = stream(5, 99).choice(len(positions[0]), size=math.ceil(0.02 * x0), replace=False)
start = pick_frontier(full.shape, positions, picks)
res = find_expander(start, long_view, windows, exp)
print(f"halving search over {windows} windows: found={res.found} after "
      f"{res.bisection_rounds} halvings and {res.scanned} scans")
if res.found:
    print(f"clique {res.clique} reaches {res.trace.final_fraction:.3f} of the far block")

print()
_, tuple_view = gen_blowup(complete_graph(k + 1), 60, 0.6, seed=11)
frac = one_step_expansion_audit(
    tuple_view,
    0.3,
    ExpansionParams(k=k, delta=0.1),
    TypicalityParams(epsilon=0.45, delta=0.45, p=0.6, trials=200),
    seed=11,
)
print(f"one-step audit on a certified (k+1)-tuple, kappa=0.3: measured fraction {frac:.3f}")
