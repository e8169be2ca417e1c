"""Window-by-window embedding of the k-th power of an almost-spanning cycle,
plus the exact small-instance oracles that keep it honest.

The pipeline: build a reduced graph on partition classes (edges for unrefuted
pairs of density at least d*p), find a power-cycle ordering of the classes by
exact backtracking, lay the chunked classes out as t cyclic windows, then grow
a k-path one window-round at a time. Each round draws fresh target sets, asks
the expansion engine for one clique of the current frontier that expands well
into them, and realizes one new vertex per window from the stored predecessor
layers. A round ends on the last k fresh target sets, which open the next
round's view, so the frontier is carried from round to round as the dense
array the search returned. A reserve tuple drawn at the start is spent at the
end to close the path into a cycle through an anchor clique that was chosen,
back at step one, to expand well both forward and backward. The closing
scans the last frontier's copies as one-hot frontiers and meets each reach
with the anchor's backward reach as one AND of dense arrays: both end on the
first k reserves, the backward one with its axes in reverse order.

The extend rounds and the closing share one seeded draw-with-redraws loop for
their target tuples, and the anchor and closing share one test of a single
clique's reach against the success fraction of the reference count.

Failures (an expander coming up empty after redraws, pools running dry) are
reported as data, not exceptions: an EmbedFailure names the first failing
stage and carries the live set sizes and reach fractions. Broken invariants
of the induction itself raise RuntimeError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .graph_core import (
    CliqueSet,
    Graph,
    TupleView,
    bit_indices,
    enumerate_canonical_cliques,
)
from .models import stream
from .regularity import RegularPartition
from .expansion import (
    ExpansionParams,
    expand_through,
    find_expander,
    reconstruct_path,
    reference_count,
)

__all__ = [
    "ReducedGraph",
    "ClusterCycle",
    "EmbedParams",
    "PowerCycle",
    "EmbedFailure",
    "build_reduced",
    "find_cluster_power_cycle",
    "embed_power_cycle",
    "verify_power_cycle",
    "exact_longest_power_cycle",
]


@dataclass(frozen=True)
class PowerCycle:
    """A cyclic vertex sequence claimed to span the k-th power of a cycle.
    The empty sequence stands for "no such cycle" (cycles shorter than k+2
    vertices are cliques, not cycles, and are never reported)."""

    vertices: tuple
    k: int

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass
class ReducedGraph:
    """Cluster graph of a partition: one node per non-exceptional class, an
    edge for every unrefuted pair of density at least d*p."""

    t0: int
    edges: frozenset

    def adjacent(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges


@dataclass(frozen=True)
class ClusterCycle:
    """Cyclic ordering of all clusters in which every k+1 consecutive ones are
    pairwise adjacent in the reduced graph."""

    ordering: tuple
    k: int

    def validate(self, reduced: ReducedGraph) -> bool:
        t0 = len(self.ordering)
        if sorted(self.ordering) != list(range(reduced.t0)):
            return False
        for i in range(t0):
            for off in range(1, self.k + 1):
                if not reduced.adjacent(self.ordering[i], self.ordering[(i + off) % t0]):
                    return False
        return True


@dataclass(frozen=True)
class EmbedParams:
    """k: power order; xi: target-set fraction of the window size; delta:
    expansion slack; eps: admissible leftover fraction; retries: redraws
    allowed per stage."""

    k: int
    xi: float
    delta: float
    eps: float
    retries: int = 5
    seed: int = 0

    def expansion(self) -> ExpansionParams:
        return ExpansionParams(k=self.k, delta=self.delta)


@dataclass
class EmbedFailure:
    stage: str
    step: Optional[int] = None
    window: Optional[int] = None
    detail: str = ""
    sizes: dict = field(default_factory=dict)
    fraction: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "schema": "powercycle/embed-failure-v1",
            "stage": self.stage,
            "step": self.step,
            "window": self.window,
            "detail": self.detail,
            "sizes": self.sizes,
            "fraction": self.fraction,
        }


def build_reduced(partition: RegularPartition) -> ReducedGraph:
    """Reduced graph on the partition classes: its edges are the partition's
    useful pairs."""
    if partition.k < 3:
        raise ValueError(f"need at least 3 classes, got {partition.k}")
    return ReducedGraph(t0=partition.k, edges=frozenset(partition.useful_pairs))


def find_cluster_power_cycle(
    reduced: ReducedGraph, k: int, cap: int = 16
) -> Optional[ClusterCycle]:
    """Exact backtracking search for a cyclic ordering of all clusters whose
    k-th power is contained in the reduced graph. Exhaustive: a None return
    means no such ordering exists."""
    t0 = reduced.t0
    if t0 > cap:
        raise ValueError(f"{t0} clusters exceed the exact-search cap {cap}")
    if t0 < k + 2:
        raise ValueError(f"a k-power cycle ordering needs at least k+2={k + 2} clusters")
    rows = [0] * t0
    for i, j in reduced.edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i

    seq = [0]
    used = 1

    def closable() -> bool:
        for x in range(1, k + 1):
            for y in range(0, k - x + 1):
                u, v = seq[-x], seq[y]
                if not (rows[u] >> v) & 1:
                    return False
        return True

    def dfs() -> Optional[list]:
        if len(seq) == t0:
            if seq[1] < seq[-1] and closable():
                return list(seq)
            return None
        nonlocal used
        cand = ((1 << t0) - 1) & ~used
        for v in seq[-min(k, len(seq)) :]:
            cand &= rows[v]
        for w in bit_indices(cand):
            seq.append(w)
            used |= 1 << w
            hit = dfs()
            if hit is not None:
                return hit
            seq.pop()
            used &= ~(1 << w)
        return None

    found = dfs()
    if found is None:
        return None
    cycle = ClusterCycle(tuple(found), k)
    if not cycle.validate(reduced):
        raise RuntimeError(f"cluster ordering {cycle.ordering} fails its own validation")
    return cycle


def verify_power_cycle(graph: Graph, candidate: PowerCycle) -> tuple:
    """(True, None) iff the vertices are distinct, the sequence is long enough
    to be a cycle rather than a clique, and every pair at cyclic distance at
    most k is adjacent; otherwise (False, first_violating_pair)."""
    verts = candidate.vertices
    n_c = len(verts)
    k = candidate.k
    if n_c < k + 2:
        return False, None
    seen = set()
    for v in verts:
        if v in seen:
            return False, (v, v)
        seen.add(v)
    for i in range(n_c):
        for off in range(1, min(k, n_c - 1) + 1):
            u, v = verts[i], verts[(i + off) % n_c]
            if not graph.has_edge(u, v):
                return False, (u, v)
    return True, None


def exact_longest_power_cycle(graph: Graph, k: int, cap: int = 12) -> PowerCycle:
    """Brute-force maximum-length k-th power of a cycle, by branch and bound
    over vertex sequences with the running k-window clique constraint.
    Sequences shorter than k+2 vertices do not count; with none above that
    length the result has length 0."""
    n = graph.n
    if n > cap:
        raise ValueError(f"exact search capped at {cap} vertices, graph has {n}")
    rows = graph.rows
    best: list = []

    def closable(seq: list) -> bool:
        for x in range(1, k + 1):
            for y in range(0, k - x + 1):
                if x + y >= len(seq):
                    continue
                if not (rows[seq[-x]] >> seq[y]) & 1:
                    return False
        return True

    for anchor in range(n):
        if n - anchor <= len(best):
            break
        allowed = 0
        for v in range(anchor + 1, n):
            allowed |= 1 << v

        seq = [anchor]
        used = 1 << anchor

        def dfs():
            nonlocal used, best
            if len(seq) >= k + 2 and len(seq) > len(best):
                if (len(seq) < 3 or seq[1] < seq[-1]) and closable(seq):
                    best = list(seq)
            free = allowed & ~used
            if len(seq) + free.bit_count() <= len(best):
                return
            cand = free
            for v in seq[-min(k, len(seq)) :]:
                cand &= rows[v]
            for w in bit_indices(cand):
                seq.append(w)
                used |= 1 << w
                dfs()
                seq.pop()
                used &= ~(1 << w)

        dfs()
    return PowerCycle(tuple(best), k)


def _draw(rng, pool: np.ndarray, taken: np.ndarray, count: int) -> Optional[np.ndarray]:
    """Seeded draw of ``count`` vertices from the pool's vertices that the
    vertex-indexed mask ``taken`` leaves free, in pool order."""
    cand = pool[~taken[pool]]
    if len(cand) < count:
        return None
    return np.sort(cand[rng.permutation(len(cand))[:count]])


def _layout_windows(partition: RegularPartition, cycle: ClusterCycle) -> list:
    """Window pools along the cluster cycle: one pool per chunk, round-major
    (round j visits chunk j of every cluster in cycle order)."""
    if partition.parent is None:
        groups = {i: [cls] for i, cls in enumerate(partition.classes)}
    else:
        groups = {}
        for idx, par in enumerate(partition.parent):
            groups.setdefault(par, []).append(partition.classes[idx])
    t0 = len(cycle.ordering)
    if sorted(groups) != list(range(t0)):
        raise ValueError("cluster cycle does not match the partition's classes")
    rounds = {len(g) for g in groups.values()}
    if len(rounds) != 1:
        raise ValueError("all clusters must carry the same number of chunks")
    r = rounds.pop()
    pools = []
    for j in range(r):
        for pos in range(t0):
            pools.append(groups[cycle.ordering[pos]][j])
    sizes = {len(p) for p in pools}
    if len(sizes) != 1:
        raise ValueError("window pools must have a common size")
    every = np.concatenate(pools)
    if len(np.unique(every)) != len(every):
        raise ValueError("window pools must be disjoint")
    return pools


def embed_power_cycle(
    graph: Graph,
    partition: RegularPartition,
    cycle: ClusterCycle,
    params: EmbedParams,
) -> Union[PowerCycle, EmbedFailure]:
    """Run the full induction and return a verified PowerCycle on at least
    (1 - eps) N vertices, or an EmbedFailure naming the first failing stage.
    """
    k = params.k
    pools = _layout_windows(partition, cycle)
    t = len(pools)
    n_prime = len(pools[0])
    n_tilde = max(k, int(params.xi * n_prime))
    exp_params = params.expansion()
    threshold = exp_params.success_fraction
    rng = stream(params.seed, 41)

    # The induction runs while every window pool can still supply a reserve
    # set, the used path prefix, the live targets, and a fresh draw.
    s_final = min(int((1 - 2 * params.xi) * n_prime), n_prime - 3 * n_tilde)
    if s_final < 1:
        return EmbedFailure(
            stage="layout",
            detail=f"window size {n_prime} cannot host targets of size {n_tilde}",
            sizes={"t": t, "n_prime": n_prime, "n_tilde": n_tilde},
        )

    # Live induction state: per-window reserve sets, live targets and used
    # path vertices, the trace whose final frontier of canonical k-cliques the
    # next round starts from, and the path. ``taken`` marks reserve, path and
    # live target vertices. The window pools are disjoint, so one
    # vertex-indexed mask serves every window's draw.
    taken = np.zeros(graph.n, dtype=bool)
    reserve = [_draw(rng, pools[m], taken, n_tilde) for m in range(t)]
    taken[np.concatenate(reserve)] = True
    targets = [_draw(rng, pools[m], taken, n_tilde) for m in range(t)]
    taken[np.concatenate(targets)] = True
    used = [set() for _ in range(t)]
    pool_grid = np.stack(pools)
    last = None
    path: list = []

    def failure(stage: str, step: Optional[int], detail: str, fraction=None) -> EmbedFailure:
        sizes = {
            "step": 0 if step is None else step,
            "reserve": [len(r) for r in reserve],
            "targets": [len(x) for x in targets],
            "used": [len(u) for u in used],
            "frontier": 0 if last is None else last.counts[-1],
        }
        return EmbedFailure(stage=stage, step=step, detail=detail, sizes=sizes, fraction=fraction)

    def expands_well(start, view: TupleView, to_window: int):
        """The trace of a single-clique ``start`` (a CliqueSet or a one-hot
        frontier) expanded to ``to_window`` when its reach there is at least
        the success fraction of the reference count, else None."""
        trace = expand_through(start, view, to_window)
        x_ref = reference_count(view, to_window, k)
        return trace if trace.counts[-1] >= threshold * x_ref else None

    def target_draws(labels: tuple, tail: list):
        """Up to retries + 1 fresh target tuples, window m drawn from
        stream(seed, *labels, attempt, m) outside its reserve, path and live
        targets; each comes with the view of the last k live targets, the
        fresh tuple and ``tail``. Yields (None, None) and stops when a window
        pool runs dry."""
        for attempt in range(params.retries + 1):
            fresh = [
                _draw(stream(params.seed, *labels, attempt, m), pools[m], taken, n_tilde)
                for m in range(t)
            ]
            if any(f is None for f in fresh):
                yield None, None
                return
            yield fresh, TupleView(graph, [targets[t - k + j] for j in range(k)] + fresh + tail)

    # Anchor: one clique expanding forward to the last target block and
    # backward through the reserve tuple.
    fwd_view = TupleView(graph, targets)
    bwd_parts = [targets[k - 1 - j] for j in range(k)] + [reserve[t - 1 - j] for j in range(t)]
    bwd_view = TupleView(graph, bwd_parts)
    for cand in enumerate_canonical_cliques(fwd_view, 0, k).sorted():
        fwd = expands_well(CliqueSet(0, k, frozenset([cand])), fwd_view, t - k)
        if fwd is None:
            continue
        bwd = expands_well(CliqueSet(0, k, frozenset([cand[::-1]])), bwd_view, t)
        if bwd is not None:
            break
    else:
        return failure("anchor", None, "no clique expands both ways")

    # The forward trace ends on the last k targets, which are the first k
    # parts of the next round's view, so its dense frontier starts that round.
    last = fwd

    def append_round(chosen: tuple, skip: int) -> None:
        """Realize the round ending at ``chosen`` from the last trace's
        predecessor layers; the first ``skip`` reconstructed vertices are
        already on the path."""
        verts = reconstruct_path(last.back_pointers, chosen)
        new = verts[skip:]
        if len(new) != t:
            raise RuntimeError(f"round realized {len(new)} vertices, expected {t}")
        for m, v in enumerate(new):
            if v in used[m]:
                raise RuntimeError(f"vertex {v} reused in window {m}")
            used[m].add(v)
            taken[v] = True
        path.extend(new)

    def audit(step: int) -> None:
        # Reserve, targets and path lie in the window's pool, so ``taken``
        # marks exactly their total there. Fewer marks mean two of them
        # overlap (or a mark is missing), more mean a stale mark; an overlap
        # and a stale mark in the same window cancel out.
        marked = np.count_nonzero(taken[pool_grid], axis=1)
        for m in range(t):
            expected = len(reserve[m]) + len(targets[m]) + len(used[m])
            if marked[m] < expected:
                raise RuntimeError(
                    f"window {m}: reserve/targets/path overlap at step {step} "
                    f"({marked[m]} taken marks for {expected} vertices)"
                )
            if marked[m] > expected:
                raise RuntimeError(
                    f"window {m}: stale taken mark at step {step} "
                    f"({marked[m]} taken marks for {expected} vertices)"
                )
            if len(used[m]) != step - 1:
                raise RuntimeError(f"window {m}: {len(used[m])} path vertices at step {step}")

    for s in range(1, s_final):
        audit(s)
        for fresh, view in target_draws((43, s), []):
            if fresh is None:
                return failure("extend", s, "window pool exhausted")
            try:
                res = find_expander(last.frontier, view, k + t, exp_params)
            except ValueError as err:
                return failure("extend", s, str(err))
            if res.found:
                break
        else:
            return failure(
                "extend", s, f"no expander after {params.retries + 1} target draws", res.best_fraction
            )
        taken[np.concatenate(targets)] = False
        append_round(res.clique, 0 if s == 1 else k)
        targets = fresh
        taken[np.concatenate(targets)] = True
        last = res.trace

    # Closing: connect the frontier through a fresh tuple into the reserves
    # and splice with the anchor's backward reach. The closing view opens on
    # the last k targets, where the last frontier lives, so its C-order
    # positions scan the frontier's copies in lexicographic order.
    audit(s_final)
    closing = None
    for fresh, view in target_draws((47,), reserve[:k]):
        if fresh is None:
            return failure("closing", s_final, "window pool exhausted")
        for pos in np.argwhere(last.frontier):
            one_hot = np.zeros(last.frontier.shape, dtype=bool)
            one_hot[tuple(pos)] = True
            trace = expands_well(one_hot, view, t + k)
            if trace is None:
                continue
            # The closing trace ends on reserve[0..k-1] and the backward trace
            # on reserve[k-1..0], the same sorted arrays in reverse order, so
            # reversing the backward frontier's axes lines their positions
            # up. The first row of argwhere is the lexicographically smallest
            # copy in both reaches.
            meet = np.argwhere(trace.frontier & bwd.frontier.transpose())
            if len(meet):
                closing = (pos, meet[0], trace, view)
                break
        if closing is not None:
            break
    if closing is None:
        return failure("closing", s_final, "no frontier clique reaches the anchor's backward set")

    pos, meet, trace, view = closing
    chosen = tuple(int(view.parts[a][i]) for a, i in enumerate(pos))
    q = tuple(int(view.parts[t + k + a][i]) for a, i in enumerate(meet))
    append_round(chosen, 0 if s_final == 1 else k)
    close_verts = reconstruct_path(trace.back_pointers, q)
    path.extend(close_verts[k:])  # one vertex per fresh window, then q itself
    back_verts = reconstruct_path(bwd.back_pointers, q[::-1])
    tail = back_verts[k : k + (t - k)]
    path.extend(reversed(tail))

    cycle_out = PowerCycle(tuple(int(v) for v in path), k)
    ok, violation = verify_power_cycle(graph, cycle_out)
    if not ok:
        return failure("verify", s_final, f"violating pair {violation}")
    if len(cycle_out) < (1 - params.eps) * graph.n:
        return failure(
            "length", s_final, f"cycle on {len(cycle_out)} of {graph.n} vertices misses (1-eps)N"
        )
    return cycle_out
