import dataclasses
import hashlib

import numpy as np
import pytest

from powercycle.graph_core import Graph, TupleView, complete_graph, complete_multipartite, empty_graph
from powercycle.models import (
    ModelParams,
    adversary_triangle_killer,
    extremal_blocker,
    gen_gnp,
    partite_blocker_sizes,
    stream,
)
from powercycle import embedder, graph_core, harness
from powercycle.regularity import RegularityParams, build_nice_partition, chunk_partition
from powercycle.embedder import (
    CLUSTER_SEARCH_CAP,
    EmbedFailure,
    EmbedParams,
    PowerCycle,
    _draw,
    build_reduced,
    embed_power_cycle,
    exact_longest_power_cycle,
    find_cluster_power_cycle,
    verify_power_cycle,
)

from powercycle.oracles import naive_canonical_cliques


def circulant(N, k):
    adj = np.zeros((N, N), dtype=bool)
    for i in range(N):
        for off in range(1, k + 1):
            adj[i, (i + off) % N] = adj[(i + off) % N, i] = True
    return Graph(adj)


def nice_partition(graph, p, d, m, seed, trials=100):
    params = RegularityParams(epsilon=0.25, p=p, d=d, mu=2 / 3, trials=trials)
    return build_nice_partition(graph, params, m=m, seed=seed)


class TestReducedGraph:
    def test_all_dense_pairs_complete(self):
        part = nice_partition(complete_graph(60), 1.0, 0.9, 4, seed=1)
        assert build_reduced(part) == complete_graph(4)

    def test_empty_graph_edgeless(self):
        part = nice_partition(empty_graph(40), 0.5, 0.5, 4, seed=1)
        assert build_reduced(part).edge_count() == 0

    def test_density_threshold_filters(self):
        # At d = 1 the threshold d*p is the graph's own density, so only the
        # pairs that came out denser than 0.5 stay.
        graph = gen_gnp(ModelParams(N=120, p=0.5, seed=2))
        assert build_reduced(nice_partition(graph, 0.5, 0.5, 4, seed=2)).edge_count() == 6
        strict = nice_partition(graph, 0.5, 1.0, 4, seed=2)
        view = TupleView(graph, strict.classes)
        dense = {(i, j) for i in range(4) for j in range(i + 1, 4) if view.density(i, j) >= 0.5}
        reduced_edges = {(i, j) for i, j in build_reduced(strict).edges().tolist()}
        assert reduced_edges == dense == {(0, 2), (1, 3), (2, 3)}


class TestClusterCycleSearch:
    def test_complete_reduced_natural_order(self):
        red = complete_graph(6)
        cyc = find_cluster_power_cycle(red, 2)
        assert cyc.vertices == (0, 1, 2, 3, 4, 5)
        assert verify_power_cycle(red, cyc) == (True, None)

    def test_plain_hamilton_cycle_for_k1(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
        cyc = find_cluster_power_cycle(Graph.from_edges(6, edges), 1)
        assert cyc is not None and cyc.vertices[0] == 0

    def test_exhaustive_not_found(self):
        # A path of clusters has no Hamilton cycle at all.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        assert find_cluster_power_cycle(Graph.from_edges(6, edges), 1) is None

    def test_square_cycle_on_tripartite_reduced(self):
        # Complete 3-partite reduced graph with parts {0,1},{2,3},{4,5}: a
        # square Hamilton ordering exists (every 3 consecutive clusters
        # rainbow) and the backtracker finds one.
        edges = set()
        parts = [(0, 1), (2, 3), (4, 5)]
        for a in range(6):
            for b in range(a + 1, 6):
                if not any(a in p and b in p for p in parts):
                    edges.add((a, b))
        red = Graph.from_edges(6, edges)
        cyc = find_cluster_power_cycle(red, 2)
        assert cyc is not None and verify_power_cycle(red, cyc) == (True, None)

    def test_cap_refusal(self):
        with pytest.raises(ValueError, match="cap"):
            find_cluster_power_cycle(empty_graph(20), 2)

    def test_invalid_result_raises(self, monkeypatch):
        monkeypatch.setattr(embedder, "verify_power_cycle", lambda graph, cycle: (False, (0, 1)))
        with pytest.raises(RuntimeError, match="fails its own validation"):
            find_cluster_power_cycle(complete_graph(6), 2)

    def test_power_order_zero_refused(self):
        # At k = 0 the window slice seq[-0:] would take the whole sequence.
        with pytest.raises(ValueError, match="at least 1"):
            find_cluster_power_cycle(complete_graph(6), 0)


# sha256 over every (t0, k, ordering) of the cluster-search grid and every
# (n, k, vertices) of the oracle grid in TestSearchPinned.
CLUSTER_GRID_SHA256 = "44865bde60de9fe55529e559a75ae76bc61398d3ef5f10dfd536f0e9a83500e9"
ORACLE_GRID_SHA256 = "3a9d0e7d5d7c433580452f3de98c5627f6e734060ca4f4a4a422f2e1cd4dc0ea"


def _random_edges(rng, n):
    q = rng.uniform(0.3, 1.0)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < q]


class TestSearchPinned:
    def test_cluster_orderings_are_pinned(self):
        # Which ordering the search returns decides the window layout of every
        # embed trial, so it is pinned, a None included, on 600 random
        # reduced graphs.
        rng = stream(1515)
        h = hashlib.sha256()
        spanning = 0
        for _ in range(600):
            t0 = int(rng.integers(4, 11))
            k = int(rng.integers(1, min(3, t0 - 2) + 1))
            edges = _random_edges(rng, t0)
            cyc = find_cluster_power_cycle(Graph.from_edges(t0, edges), k)
            spanning += cyc is not None
            h.update(repr((t0, k, None if cyc is None else dataclasses.astuple(cyc))).encode())
        assert spanning == 229
        assert h.hexdigest() == CLUSTER_GRID_SHA256

    def test_oracle_cycles_are_pinned(self):
        rng = stream(1516)
        h = hashlib.sha256()
        nonempty = 0
        for _ in range(200):
            n = int(rng.integers(3, 11))
            k = int(rng.integers(1, 4))
            result = exact_longest_power_cycle(Graph.from_edges(n, _random_edges(rng, n)), k)
            nonempty += len(result) > 0
            h.update(repr((n, k, result.vertices)).encode())
        assert nonempty == 107
        assert h.hexdigest() == ORACLE_GRID_SHA256


class TestVerify:
    def test_circulant_natural_order(self):
        g = circulant(14, 3)
        ok, violation = verify_power_cycle(g, PowerCycle(tuple(range(14)), 3))
        assert ok and violation is None

    def test_missing_chord_detected(self):
        g = circulant(14, 2)
        adj = g.adj.copy()
        adj[3, 5] = adj[5, 3] = False
        ok, violation = verify_power_cycle(Graph(adj), PowerCycle(tuple(range(14)), 2))
        assert not ok and violation == (3, 5)

    def test_k1_hamilton_semantics(self):
        g = circulant(8, 1)
        ok, _ = verify_power_cycle(g, PowerCycle(tuple(range(8)), 1))
        assert ok
        ok, violation = verify_power_cycle(g, PowerCycle((0, 2, 4, 6, 1, 3, 5, 7), 1))
        assert not ok

    def test_duplicates_rejected(self):
        g = complete_graph(8)
        ok, violation = verify_power_cycle(g, PowerCycle((0, 1, 2, 3, 2, 5), 2))
        assert not ok and violation == (2, 2)

    def test_too_short_is_not_a_cycle(self):
        g = complete_graph(5)
        ok, _ = verify_power_cycle(g, PowerCycle((0, 1, 2), 2))
        assert not ok


class TestExactOracle:
    def test_complete_graph_spans(self):
        assert len(exact_longest_power_cycle(complete_graph(6), 2)) == 6

    def test_balanced_tripartite_spans(self):
        g, _ = complete_multipartite([2, 2, 2])
        result = exact_longest_power_cycle(g, 2)
        assert len(result) == 6
        ok, _ = verify_power_cycle(g, result)
        assert ok

    def test_triangle_killer_leaves_star_no_square_cycle(self):
        # Deleting every edge inside N(v) in K_6 leaves a star: no triangles
        # anywhere, so no square cycle of any admissible length.
        thinned, _ = adversary_triangle_killer(complete_graph(6), [0])
        assert len(exact_longest_power_cycle(thinned, 2)) == 0

    def test_blockers_never_span(self):
        for N in range(7, 13):
            g, _ = extremal_blocker(N, 2)
            assert len(exact_longest_power_cycle(g, 2)) < N

    def test_result_verifies_when_nonempty(self):
        g = gen_gnp(ModelParams(N=10, p=0.7, seed=3))
        result = exact_longest_power_cycle(g, 2)
        if len(result):
            ok, _ = verify_power_cycle(g, result)
            assert ok

    def test_cap_refusal(self):
        with pytest.raises(ValueError, match="cap"):
            exact_longest_power_cycle(complete_graph(13), 2)

    def test_k1_longest_cycle(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
        assert len(exact_longest_power_cycle(g, 1)) == 3

    def test_power_order_zero_refused(self):
        with pytest.raises(ValueError, match="at least 1"):
            exact_longest_power_cycle(complete_graph(6), 0)


class TestEmbed:
    def _embed_complete(self, N=60, seed=5, xi=0.2, eps=0.4):
        g = complete_graph(N)
        part = nice_partition(g, 1.0, 2 / 3, 6, seed=seed)
        red = build_reduced(part)
        cyc = find_cluster_power_cycle(red, 2)
        params = EmbedParams(k=2, xi=xi, delta=0.02, eps=eps, seed=seed)
        return g, embed_power_cycle(g, part, cyc, params)

    def test_complete_host_succeeds_verified(self):
        g, result = self._embed_complete()
        assert isinstance(result, PowerCycle)
        ok, _ = verify_power_cycle(g, result)
        assert ok
        assert len(result) >= (1 - 0.4) * 60

    def test_rejected_cycle_is_a_verify_failure(self, monkeypatch):
        # The embedder returns a cycle only after verify_power_cycle passes
        # it, so a rejection is its failure and the harness records it as such.
        # The cluster search checks its ordering with the same verifier, so
        # only host cycles are rejected.
        verify = embedder.verify_power_cycle

        def reject_host_cycles(graph, cycle):
            return (False, (0, 1)) if graph.n > CLUSTER_SEARCH_CAP else verify(graph, cycle)

        monkeypatch.setattr(embedder, "verify_power_cycle", reject_host_cycles)
        _, result = self._embed_complete()
        assert isinstance(result, EmbedFailure) and result.stage == "verify"
        params = {"N": 120, "p": 1.0, "k": 2, "d": 2 / 3, "eps": 0.5, "clusters": 6, "xi": 0.2}
        measured, ok = harness._run_embed(params, 0)
        assert not ok and not measured["success"] and measured["stage"] == "verify"

    def test_embedding_never_builds_bitset_rows(self):
        # The partition, anchor, extend rounds and closing all read the matrix.
        g, result = self._embed_complete()
        assert isinstance(result, PowerCycle)
        assert g._rows is None

    def test_only_the_oracles_read_bitset_rows(self, monkeypatch):
        # An embed trial, the cluster search and the exact oracle all run with
        # Graph.rows raising: no pipeline module reads it.
        def refuse(graph):
            raise AssertionError("Graph.rows read")

        monkeypatch.setattr(graph_core.Graph, "rows", property(refuse))
        params = {"N": 120, "p": 1.0, "k": 2, "d": 2 / 3, "eps": 0.5, "clusters": 6, "xi": 0.2}
        measured, ok = harness._run_embed(params, 0)
        assert ok and measured["stage"] == "ok"
        assert len(exact_longest_power_cycle(complete_graph(6), 2)) == 6
        part = nice_partition(complete_graph(60), 1.0, 2 / 3, 6, seed=5)
        assert len(find_cluster_power_cycle(build_reduced(part), 2)) == 6

    def test_same_seed_same_cycle(self):
        _, a = self._embed_complete(seed=9)
        _, b = self._embed_complete(seed=9)
        assert a.vertices == b.vertices

    def test_output_never_beats_exact_oracle(self):
        # The exact oracle on the complete host would report N itself, so the
        # embedded cycle can never exceed it: it must be a simple cycle on at
        # most N distinct vertices.
        g, result = self._embed_complete(N=60, seed=2)
        assert isinstance(result, PowerCycle)
        assert len(set(result.vertices)) == len(result)
        assert len(result) <= g.n

    def test_chunked_layout_r2(self):
        g = complete_graph(120)
        part = nice_partition(g, 1.0, 2 / 3, 6, seed=3)
        red = build_reduced(part)
        cyc = find_cluster_power_cycle(red, 2)
        chunked = chunk_partition(part, part.class_size // 2, seed=3)
        params = EmbedParams(k=2, xi=0.2, delta=0.02, eps=0.5, seed=3)
        result = embed_power_cycle(g, chunked, cyc, params)
        assert isinstance(result, PowerCycle)
        ok, _ = verify_power_cycle(g, result)
        assert ok

    def test_blocked_host_returns_failure_report(self):
        # Beyond the resilience threshold the pipeline must fail with a
        # report, and the exact oracle confirms on a tiny analogue that no
        # near-spanning square cycle exists at all.
        g, view = extremal_blocker(12, 2)
        classes = [part[:3] for part in view.parts]
        leftovers = np.concatenate([part[3:] for part in view.parts])
        from powercycle.regularity import RegularPartition

        part = RegularPartition(
            exceptional=leftovers,
            classes=classes,
            useful_pairs=frozenset(),
        )
        cyc = PowerCycle((0, 1, 2), 2)
        params = EmbedParams(k=2, xi=0.34, delta=0.02, eps=0.15, seed=1)
        result = embed_power_cycle(g, part, cyc, params)
        assert isinstance(result, EmbedFailure)
        assert result.stage in ("layout", "anchor", "extend", "closing", "length")
        assert len(exact_longest_power_cycle(g, 2)) < (1 - 0.15) * 12

    def test_acceptance_size_cycle_is_pinned(self, monkeypatch):
        # The golden configs only reach windows of a few vertices; this pins
        # the cycle of one trial at the acceptance size (N=3000, p=0.35, no
        # adversary, trial seed 0), captured from the harness's own call.
        params = {"N": 3000, "p": 0.35, "k": 2, "d": 2 / 3, "eps": 0.15, "clusters": 6,
                  "xi": 0.045, "delta": 0.0225, "adversary": {"kind": "none"}}
        results = []

        def capture(*args, **kwargs):
            results.append(embed_power_cycle(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(embedder, "embed_power_cycle", capture)
        measured, ok = harness._run_embed(params, 0)
        assert ok and measured["cycle_length"] == 2616
        digest = hashlib.sha256(repr(results[0].vertices).encode()).hexdigest()
        assert digest == "c243f78bde05fadccc20f61924a7397b169e057f42be8226bbc72c0e04fed329"

    def test_overlapping_window_pools_rejected(self):
        # One vertex-indexed mask serves every window's draw only because the
        # pools are disjoint; a partition whose classes overlap is refused.
        from powercycle.regularity import RegularPartition

        g = complete_graph(12)
        classes = [np.array([0, 1, 2]), np.array([2, 3, 4]), np.array([5, 6, 7])]
        part = RegularPartition(
            exceptional=np.array([8, 9, 10, 11]),
            classes=classes,
            useful_pairs=frozenset(),
        )
        params = EmbedParams(k=2, xi=0.34, delta=0.02, eps=0.15, seed=1)
        with pytest.raises(ValueError, match="disjoint"):
            embed_power_cycle(g, part, PowerCycle((0, 1, 2), 2), params)

    @pytest.mark.parametrize("seed,step", [(0, 1), (11, 2)])
    def test_audit_catches_draws_that_ignore_the_mask(self, monkeypatch, seed, step):
        # With a draw that ignores ``taken``, a target lands on a reserve
        # vertex (seed 0, before the first round) or on a reserve or path
        # vertex (seed 11, one round in); the audit must name the overlap.
        draw = embedder._draw
        monkeypatch.setattr(
            embedder, "_draw", lambda rng, pool, taken, count: draw(rng, pool, np.zeros_like(taken), count)
        )
        with pytest.raises(RuntimeError, match=f"reserve/targets/path overlap at step {step}"):
            self._embed_complete(seed=seed)

    def test_audit_catches_old_targets_left_marked(self, monkeypatch):
        # Every vertex drawn so far is marked again before the next draw, so
        # the targets a round retires stay marked; the audit must name the
        # stale mark, not an overlap.
        draw = embedder._draw
        drawn = []

        def sticky(rng, pool, taken, count):
            for old in drawn:
                taken[old] = True
            got = draw(rng, pool, taken, count)
            if got is not None:
                drawn.append(got)
            return got

        monkeypatch.setattr(embedder, "_draw", sticky)
        with pytest.raises(RuntimeError, match="stale taken mark at step 3"):
            self._embed_complete(seed=11)


class TestDraw:
    def test_mask_draw_equals_set_difference_draw(self):
        # The mask keeps the pool's order, so the same permutation picks the
        # same vertices as drawing from the pool minus the excluded set.
        rng = stream(73)
        for trial in range(60):
            n = int(rng.integers(1, 50))
            pool = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            excluded = set(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
            taken = np.zeros(n, dtype=bool)
            taken[list(excluded)] = True
            count = int(rng.integers(0, len(pool) + 2))
            cand = np.array([v for v in pool.tolist() if v not in excluded], dtype=np.int64)
            got = _draw(stream(trial, 43, 1, 0), pool, taken, count)
            if len(cand) < count:
                assert got is None
            else:
                ref = stream(trial, 43, 1, 0)
                assert np.array_equal(got, np.sort(cand[ref.permutation(len(cand))[:count]]))

class TestBlockerGeometry:
    def test_window_coloring_obstruction(self):
        # Any square Hamilton cycle in a 3-partite graph forces a proper
        # 3-coloring of the squared cycle, so the vertex count must be
        # divisible by 3 and the parts balanced; the blocker sizes never are.
        for N in range(7, 13):
            sizes = partite_blocker_sizes(N, 2)
            assert N % 3 != 0 or max(sizes) > N // 3
