"""Window-by-window embedding of the k-th power of an almost-spanning cycle,
plus the exact small-instance oracles that keep it honest.

The pipeline: build a reduced graph on partition classes (edges for unrefuted
pairs of density at least d*p), find a power-cycle ordering of the classes
with the exact search of the longest-cycle oracle and check it with the
verifier of the host cycle, lay the classes out as t cyclic windows, then grow
a k-path one window-round at a time. Each round draws fresh target sets, asks
the expansion engine for one clique of the current frontier that expands well
into them, and realizes one new vertex per window by walking that clique's
positions back through the stored frontiers. A round ends on the last k fresh
target sets, which open the next round's view, so the frontier is carried from
round to round as the dense array the search returned. A reserve tuple drawn
at the start is spent at the end to close the path into a cycle through an
anchor clique that was chosen, back at step one, to expand well both forward
and backward. The anchor scans the first window's ``window_cliques`` and the
closing the last frontier, in C order, which is lexicographic. The closing
meets each reach with the anchor's backward reach as one AND of dense arrays:
both end on the first k reserves, the backward one with its axes in reverse
order.

The extend rounds and the closing share one seeded draw-with-redraws loop for
their target tuples. The anchor (both ways), every extend round and the
closing test single cliques with one scan, ``expansion.scan_copies``: a
clique passes when its reach is at least the success fraction of the
reference count, and never when that count is 0. Each draw takes every
window's set at once from one stream, window by window in turn: the reserves
and first targets from stream(seed, 41), each extend attempt's tuple from
stream(seed, 43, s, attempt) and each closing attempt's from
stream(seed, 47, attempt).

Every view the embedder builds holds only its own draws: sorted, read-only
int64 rows of the window pools, drawn outside the vertices the ``taken`` mask
marks. It builds them with ``TupleView._trusted``, which checks nothing, so
the checks live here: ``_layout_windows`` refuses overlapping pools, and
``audit``, run before the anchor and after every round, is the per-round
check that the reserve, the live targets and the path are pairwise disjoint;
each fresh draw avoids all three through ``taken``, so the parts of every
view are disjoint.

Failures (an expander coming up empty after redraws, pools running dry) are
reported as data, not exceptions: an EmbedFailure names the first failing
stage, its step and what went wrong. Broken invariants of the induction
itself raise RuntimeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .graph_core import Graph, TupleView, bit_indices, mask_of, window_cliques
from .models import stream
from .regularity import RegularPartition
from .expansion import ExpansionParams, find_expander, reconstruct_path, scan_copies

__all__ = [
    "EmbedParams",
    "PowerCycle",
    "EmbedFailure",
    "build_reduced",
    "find_cluster_power_cycle",
    "embed_power_cycle",
    "verify_power_cycle",
    "exact_longest_power_cycle",
]

# Most clusters the exact cluster-ordering search accepts.
CLUSTER_SEARCH_CAP = 16
# Most vertices the brute-force longest-cycle oracle accepts.
EXACT_SEARCH_CAP = 12
# Target redraws allowed per induction stage.
RETRIES = 5


@dataclass(frozen=True)
class PowerCycle:
    """A cyclic vertex sequence claimed to span the k-th power of a cycle.
    The empty sequence stands for "no such cycle" (cycles shorter than k+2
    vertices are cliques, not cycles, and are never reported)."""

    vertices: tuple
    k: int

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class EmbedParams:
    """k: power order; xi: target-set fraction of the window size; delta:
    expansion slack; eps: admissible leftover fraction."""

    k: int
    xi: float
    delta: float
    eps: float
    seed: int = 0

    def __post_init__(self):
        # At xi >= 1/2 the 1 - 2*xi share of a window left for the induction
        # is empty; at eps >= 1 every cycle length is admissible; at delta >=
        # 1/(20k) the expander search refuses, so every trial would end in
        # its first extend round.
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if not (0.0 < self.xi < 0.5):
            raise ValueError(f"xi must lie in (0,1/2), got {self.xi}")
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0,1), got {self.eps}")
        bound = 1.0 / (20 * self.k)
        if not (0.0 < self.delta < bound):
            raise ValueError(f"delta must lie in (0,1/(20k)) = (0,{bound:.4g}), got {self.delta}")

    def expansion(self) -> ExpansionParams:
        return ExpansionParams(k=self.k, delta=self.delta)


@dataclass
class EmbedFailure:
    """The first failing stage of an embedding, the induction step it failed
    at (None before the first round) and what went wrong."""

    stage: str
    step: Optional[int]
    detail: str


def build_reduced(partition: RegularPartition) -> Graph:
    """Reduced graph on the partition classes: one vertex per class, and its
    edges are the partition's useful pairs."""
    if partition.k < 3:
        raise ValueError(f"need at least 3 classes, got {partition.k}")
    return Graph.from_edges(partition.k, partition.useful_pairs)


def find_cluster_power_cycle(reduced: Graph, k: int) -> Optional[PowerCycle]:
    """Cyclic ordering of all clusters whose k-th power lies in the reduced
    graph, by the exact search of ``exact_longest_power_cycle``, checked with
    ``verify_power_cycle``. Exhaustive: a None return means no such ordering
    exists."""
    t0 = reduced.n
    if t0 > CLUSTER_SEARCH_CAP:
        raise ValueError(f"{t0} clusters exceed the exact-search cap {CLUSTER_SEARCH_CAP}")
    if t0 < k + 2:
        raise ValueError(f"a k-power cycle ordering needs at least k+2={k + 2} clusters")
    cycle = _longest_power_cycle(reduced, k)
    if len(cycle) < t0:
        return None
    if not verify_power_cycle(reduced, cycle)[0]:
        raise RuntimeError(f"cluster ordering {cycle.vertices} fails its own validation")
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


def exact_longest_power_cycle(graph: Graph, k: int) -> PowerCycle:
    """Brute-force maximum-length k-th power of a cycle. Sequences shorter
    than k+2 vertices do not count; with none above that length the result
    has length 0."""
    if graph.n > EXACT_SEARCH_CAP:
        raise ValueError(f"exact search capped at {EXACT_SEARCH_CAP} vertices, graph has {graph.n}")
    return _longest_power_cycle(graph, k)


def _longest_power_cycle(graph: Graph, k: int) -> PowerCycle:
    """Branch and bound over vertex sequences with the running k-window
    clique constraint, each anchored at its smallest vertex and tried in
    increasing vertex order. Only a strictly longer sequence replaces the
    best one, so a spanning result is the first spanning ordering in that
    order, and once one is found every later node and anchor is pruned."""
    if k < 1:
        raise ValueError(f"power order k must be at least 1, got {k}")
    n = graph.n
    rows = [mask_of(np.flatnonzero(graph.adj[v])) for v in range(n)]
    best: list = []

    def closable(seq: list) -> bool:
        # Called only at len(seq) >= k+2, so x + y <= k never wraps around.
        for x in range(1, k + 1):
            for y in range(0, k - x + 1):
                if not (rows[seq[-x]] >> seq[y]) & 1:
                    return False
        return True

    for anchor in range(n):
        if n - anchor <= len(best):
            break
        allowed = mask_of(range(anchor + 1, n))
        seq = [anchor]
        used = 1 << anchor

        def dfs():
            nonlocal used, best
            if len(seq) >= k + 2 and len(seq) > len(best):
                if seq[1] < seq[-1] and closable(seq):
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


def _draw_rows(rng, pool_grid: np.ndarray, taken: np.ndarray, count: int) -> Optional[np.ndarray]:
    """Seeded draw of ``count`` vertices per window, one sorted row per row of
    the int64 window pool grid, from the vertices the vertex-indexed mask
    ``taken`` leaves free, in pool order; the result is a read-only int64
    array, so the views built on its rows share it unchecked. Each row is a
    permutation of its free vertices drawn in turn from the one ``rng``;
    None when a row has fewer than ``count`` free. The free vertices are
    read as one grid, so every window must have as many free as the first."""
    free_mask = ~taken[pool_grid]
    sizes = np.count_nonzero(free_mask, axis=1)
    unequal = np.flatnonzero(sizes != sizes[0])
    if len(unequal):
        m = int(unequal[0])
        raise RuntimeError(f"window {m} has {sizes[m]} free vertices, window 0 has {sizes[0]}")
    if sizes[0] < count:
        return None
    free = pool_grid[free_mask].reshape(len(pool_grid), -1)
    rows = np.sort(rng.permuted(free, axis=1)[:, :count], axis=1)
    rows.setflags(write=False)
    return rows


def _layout_windows(partition: RegularPartition, cycle: PowerCycle) -> list:
    """Window pools along the cluster cycle: one pool per cluster, the
    partition's classes in cycle order."""
    if sorted(cycle.vertices) != list(range(partition.k)):
        raise ValueError("cluster cycle does not match the partition's classes")
    pools = [partition.classes[v] for v in cycle.vertices]
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
    cycle: PowerCycle,
    params: EmbedParams,
) -> Union[PowerCycle, EmbedFailure]:
    """Run the full induction and return a verified PowerCycle on at least
    (1 - eps) N vertices, or an EmbedFailure naming the first failing stage.
    A layout whose closed cycle would be shorter is refused at ``layout``
    before any draw.
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
            "layout", None, f"window size {n_prime} cannot host targets of size {n_tilde}"
        )
    # A closed cycle has s_final rounds of t vertices, then t + k through the
    # closing tuple and t - k back along the anchor's backward reach.
    length = (s_final + 2) * t
    if length < (1 - params.eps) * graph.n:
        return EmbedFailure(
            "layout", None, f"a closed cycle has {length} of {graph.n} vertices, below (1-eps)N"
        )

    # Live induction state: per-window reserve sets and live targets (one
    # row per window), used path vertices, and the path. ``taken`` marks
    # reserve, path and live target vertices. The window pools are disjoint,
    # so one vertex-indexed mask serves every window's draw.
    taken = np.zeros(graph.n, dtype=bool)
    pool_grid = np.stack(pools).astype(np.int64, copy=False)
    reserve = _draw_rows(rng, pool_grid, taken, n_tilde)
    taken[reserve] = True
    targets = _draw_rows(rng, pool_grid, taken, n_tilde)
    taken[targets] = True
    used = [set() for _ in range(t)]
    path: list = []

    def target_draws(labels: tuple, tail: list):
        """Up to RETRIES + 1 fresh target tuples, each drawn for every window
        at once from stream(seed, *labels, attempt) outside the reserve, path
        and live targets; each comes with the view of the last k live
        targets, the fresh tuple and ``tail``. Yields (None, None) and stops
        when the window pools run dry."""
        for attempt in range(RETRIES + 1):
            fresh = _draw_rows(stream(params.seed, *labels, attempt), pool_grid, taken, n_tilde)
            if fresh is None:
                yield None, None
                return
            yield fresh, TupleView._trusted(graph, [*targets[t - k :], *fresh, *tail])

    def audit(step: int) -> None:
        # Run before the anchor and after every round, so before any view is
        # built on the reserve, the live targets or a fresh draw beside them.
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

    audit(1)

    # Anchor: one clique expanding forward to the last target block and
    # backward through the reserve tuple. The backward view opens on the first
    # k targets in reverse order, so the clique's positions there are reversed.
    fwd_view = TupleView._trusted(graph, targets)
    bwd_view = TupleView._trusted(graph, [*targets[k - 1 :: -1], *reserve[::-1]])
    anchors = np.nonzero(window_cliques(fwd_view, 0, k))
    for i, fwd in scan_copies(anchors, fwd_view, t - k, threshold, range(len(anchors[0]))):
        if fwd is None:
            continue
        reversed_clique = tuple(p[i : i + 1] for p in anchors[::-1])
        _, bwd = next(scan_copies(reversed_clique, bwd_view, t, threshold, range(1)))
        if bwd is not None:
            break
    else:
        return EmbedFailure("anchor", None, "no clique expands both ways")

    # The forward trace ends on the last k targets, which are the first k
    # parts of the next round's view, so its dense frontier starts that round.
    # From here on ``last`` is the trace the next round starts from.
    last = fwd

    def append_round(position: tuple, skip: int) -> None:
        """Realize the round ending at the copy at ``position`` of the last
        trace's final frontier; the first ``skip`` reconstructed vertices are
        already on the path."""
        verts = reconstruct_path(last, position)
        new = verts[skip:]
        if len(new) != t:
            raise RuntimeError(f"round realized {len(new)} vertices, expected {t}")
        for m, v in enumerate(new):
            if v in used[m]:
                raise RuntimeError(f"vertex {v} reused in window {m}")
            used[m].add(v)
            taken[v] = True
        path.extend(new)

    for s in range(1, s_final):
        for fresh, view in target_draws((43, s), []):
            if fresh is None:
                return EmbedFailure("extend", s, "window pool exhausted")
            try:
                res = find_expander(last.frontier, view, k + t, exp_params)
            except ValueError as err:
                return EmbedFailure("extend", s, str(err))
            if res.found:
                break
        else:
            return EmbedFailure("extend", s, f"no expander after {RETRIES + 1} target draws")
        taken[targets] = False
        append_round(res.position, 0 if s == 1 else k)
        targets = fresh
        taken[targets] = True
        last = res.trace
        audit(s + 1)

    # Closing: connect the frontier through a fresh tuple into the reserves
    # and splice with the anchor's backward reach. The closing view opens on
    # the last k targets, where the last frontier lives, so its C-order
    # positions scan the frontier's copies in lexicographic order.
    closing = None
    copies = np.nonzero(last.frontier)
    for fresh, view in target_draws((47,), reserve[:k]):
        if fresh is None:
            return EmbedFailure("closing", s_final, "window pool exhausted")
        for i, trace in scan_copies(copies, view, t + k, threshold, range(len(copies[0]))):
            if trace is None:
                continue
            # The closing trace ends on reserve[0..k-1] and the backward trace
            # on reserve[k-1..0], the same sorted arrays in reverse order, so
            # reversing the backward frontier's axes lines their positions
            # up. The first row of argwhere is the lexicographically smallest
            # copy in both reaches.
            meet = np.argwhere(trace.frontier & bwd.frontier.transpose())
            if len(meet):
                closing = (i, meet[0], trace)
                break
        if closing is not None:
            break
    if closing is None:
        return EmbedFailure("closing", s_final, "no frontier clique reaches the anchor's backward set")

    i, meet, trace = closing
    append_round(tuple(p[i] for p in copies), 0 if s_final == 1 else k)
    close_verts = reconstruct_path(trace, meet)
    path.extend(close_verts[k:])  # one vertex per fresh window, then the meeting copy
    back_verts = reconstruct_path(bwd, meet[::-1])
    tail = back_verts[k : k + (t - k)]
    path.extend(reversed(tail))

    cycle_out = PowerCycle(tuple(int(v) for v in path), k)
    ok, violation = verify_power_cycle(graph, cycle_out)
    if not ok:
        return EmbedFailure("verify", s_final, f"violating pair {violation}")
    if len(cycle_out) != length:
        raise RuntimeError(f"closed a cycle on {len(cycle_out)} vertices, the layout gives {length}")
    return cycle_out
