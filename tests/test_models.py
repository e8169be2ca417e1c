import ast
import hashlib
import importlib
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from powercycle.graph_core import (
    Graph,
    complete_graph,
    empty_graph,
    min_degree,
    save_graph,
)
from powercycle import models
from powercycle.models import (
    ModelParams,
    adversary_partite,
    adversary_random,
    adversary_triangle_killer,
    extremal_blocker,
    gen_blowup,
    gen_gnp,
    partite_blocker_sizes,
    stream,
)

from powercycle.embedder import exact_longest_power_cycle, verify_power_cycle
from powercycle.oracles import sequential_random_adversary, triangles_at


# The path 0 - 1 - 2, a blow-up pattern with two edges and a non-edge.
_PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])


class TestParams:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            ModelParams(N=10, p=1.5)


class TestGnp:
    def test_p_one_is_complete(self):
        assert gen_gnp(ModelParams(N=12, p=1.0, seed=1)) == complete_graph(12)

    def test_p_zero_is_empty(self):
        assert gen_gnp(ModelParams(N=12, p=0.0, seed=1)) == empty_graph(12)

    def test_seed_replay_byte_identical(self, tmp_path):
        a = gen_gnp(ModelParams(N=80, p=0.4, seed=123))
        b = gen_gnp(ModelParams(N=80, p=0.4, seed=123))
        pa, pb = tmp_path / "a", tmp_path / "b"
        save_graph(a, pa)
        save_graph(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert gen_gnp(ModelParams(N=80, p=0.4, seed=124)) != a

    # 1 << 20 holds every draw below in one block.
    @pytest.mark.parametrize("block", [50, 300, models._DRAW_BLOCK, 1 << 20])
    @pytest.mark.parametrize("N", [1, 7, 37, 80, 2 * 256 + 37])
    def test_row_blocks_give_the_single_draw_graph(self, monkeypatch, N, block):
        # Drawing the doubles a block of rows at a time must give the graph
        # of one (N, N) draw from the same stream.
        monkeypatch.setattr(models, "_DRAW_BLOCK", block)
        once = np.triu(stream(11, 0).random((N, N)) < 0.4, 1)
        assert gen_gnp(ModelParams(N=N, p=0.4, seed=11)) == Graph(once | once.T)

    @staticmethod
    def _single_draw_graph(N: int, p: float) -> Graph:
        """The graph of one (N, N) draw of ``random() < p`` from stream(11, 0)."""
        once = np.triu(stream(11, 0).random((N, N)) < p, 1)
        return Graph(once | once.T)

    # A threshold of 1 draws every row on its own; 1 and 2 reach a start in
    # the block already made (row 1 of N = 37 and 549, where N % 4 = 1), and
    # together the thresholds skip to every start % 4.
    @pytest.mark.parametrize("skip", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("N", [1, 2, 7, 37, 80, 549])
    def test_skipped_gaps_give_the_single_draw_graph(self, monkeypatch, N, skip):
        monkeypatch.setattr(models, "_SKIP_WORDS", skip)
        for p in (0.0, 2.0**-53, 0.4, 1 - 2.0**-53, 1.0):
            assert gen_gnp(ModelParams(N=N, p=p, seed=11)) == self._single_draw_graph(N, p)

    def test_skip_cases_reach_every_branch(self, monkeypatch):
        # The cases above run the in-block branch (the stream stays where it
        # is) and the advance branch at each start % 4.
        seen = set()
        skip_to = models._skip_to

        def spy(bit_generator, pos, start):
            # The words up to the next multiple of 4 after pos are made.
            seen.add("in-block" if start < -(-pos // 4) * 4 else start % 4)
            return skip_to(bit_generator, pos, start)

        monkeypatch.setattr(models, "_skip_to", spy)
        for skip in (1, 2, 3, 4, 5, 8):
            monkeypatch.setattr(models, "_SKIP_WORDS", skip)
            for N in (1, 2, 7, 37, 80, 549):
                gen_gnp(ModelParams(N=N, p=0.4, seed=11))
        assert seen == {"in-block", 0, 1, 2, 3}

    def test_default_skip_gives_the_single_draw_graph(self):
        # At N = 1100 the rows from _SKIP_WORDS - 1 on skip their gaps.
        assert models._SKIP_WORDS - 1 < 1100 - 1
        assert gen_gnp(ModelParams(N=1100, p=0.4, seed=11)) == self._single_draw_graph(1100, 0.4)

    @pytest.mark.parametrize("d", [0, 1, 3])
    @pytest.mark.parametrize("pos", [0, 1, 2, 3, 4, 5, 9])
    def test_philox_advance_skips_whole_blocks(self, pos, d):
        # _skip_to relies on Philox making its words four at a time: after
        # pos words, advance(d) drops the rest of the block made and skips d
        # blocks. A numpy that changes the counter or the buffer fails here
        # rather than silently moving every host.
        plain = stream(11, 0).bit_generator.random_raw(64)
        bit_generator = stream(11, 0).bit_generator
        bit_generator.random_raw(pos)
        bit_generator.advance(d)
        assert bit_generator.random_raw(1)[0] == plain[4 * (-(-pos // 4) + d)]

    @staticmethod
    def _double_graphs(seed: int, N: int, p: float) -> tuple:
        """The graphs of ``random() < p``: gen_gnp's from one (N, N) draw of
        stream(seed, 0), and gen_blowup's of _PATH3 with parts of N from one
        (N, N) draw of stream(seed, 1) per pattern edge."""
        once = np.triu(stream(seed, 0).random((N, N)) < p, 1)
        rng = stream(seed, 1)
        adj = np.zeros((3 * N, 3 * N), dtype=bool)
        for i, j in _PATH3.edges().tolist():
            block = rng.random((N, N)) < p
            adj[i * N : (i + 1) * N, j * N : (j + 1) * N] = block
            adj[j * N : (j + 1) * N, i * N : (i + 1) * N] = block.T
        return Graph(once | once.T), Graph(adj)

    @pytest.mark.parametrize("p", [0.0, 2.0**-53, 0.25, 0.5, 1 - 2.0**-53, 1.0])
    def test_word_test_is_the_double_test(self, p):
        # gen_gnp and gen_blowup compare raw words with ceil(p * 2**53); the
        # graphs are those of random() < p on the same streams.
        gnp, blowup = self._double_graphs(5, 24, p)
        assert gen_gnp(ModelParams(N=24, p=p, seed=5)) == gnp
        assert gen_blowup(_PATH3, 24, p, seed=5)[0] == blowup

    @pytest.mark.parametrize("up", [False, True], ids=["drawn", "next-up"])
    def test_word_test_at_a_drawn_double(self, up):
        # At p equal to the double drawn for a pair that pair is no edge, and
        # at the next double up it is one, as random() < p decides. Both
        # doubles (0.056 and 0.077) lie below 1/4, where the next double up
        # is less than 2**-53 away, so only the ceiling of p * 2**53 gives
        # the edge.
        N, seed, (u, v) = 24, 5, (1, 11)
        draws = (stream(seed, 0).random((N, N))[u, v], stream(seed, 1).random((N, N))[u, v])
        p_gnp, p_blowup = (float(np.nextafter(d, 1.0)) if up else float(d) for d in draws)
        host = gen_gnp(ModelParams(N=N, p=p_gnp, seed=seed))
        assert host.adj[u, v] == up and host == self._double_graphs(seed, N, p_gnp)[0]
        # The first pattern edge (0, 1) reads the first block: vertex u of
        # part 0 against vertex v of part 1.
        blown, _ = gen_blowup(_PATH3, N, p_blowup, seed)
        assert blown.adj[u, N + v] == up and blown == self._double_graphs(seed, N, p_blowup)[1]

    @pytest.mark.parametrize(
        "p, flips", [(0.0, [0, 0]), (2.0**-53, [1, 0]), (1 - 2.0**-53, [1, 0]), (1.0, [1, 1])]
    )
    def test_coin_flips_at_the_extreme_words(self, p, flips):
        # The smallest and largest words, whose doubles are 0 and 1 - 2**-53.
        words = np.array([0, 2**64 - 1], dtype=np.uint64)
        rng = SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda count: words.copy()))
        assert models._coin_flips(rng, p, np.empty(2, dtype=bool)).tolist() == [bool(f) for f in flips]

    def test_draw_buffer_is_block_sized(self, traced_peak):
        # Besides the matrix it returns, the draw holds one block of doubles
        # (0.5 MB at N=3000; 7.9 MB with 8 MB blocks). A small first graph
        # keeps numpy's one-time allocations out of the measurement.
        gen_gnp(ModelParams(N=50, p=0.35, seed=0))
        host, peak = traced_peak(lambda: gen_gnp(ModelParams(N=3000, p=0.35, seed=0)))
        assert peak - host.adj.nbytes <= 2**20

    def test_edge_count_concentration(self):
        # Binomial(C(N,2), 1/2): every draw within 4 standard deviations.
        N, p, pairs = 2000, 0.5, 2000 * 1999 // 2
        sd = math.sqrt(pairs * p * (1 - p))
        for seed in range(50):
            m = gen_gnp(ModelParams(N=N, p=p, seed=seed)).edge_count()
            assert abs(m - pairs * p) < 4 * sd


class TestBlowup:
    def test_k2_p1_is_complete_bipartite(self):
        g, view = gen_blowup(complete_graph(2), 5, 1.0, seed=0)
        assert view.density(0, 1) == 1
        assert g.edge_count() == 25

    def test_edgeless_pattern(self):
        g, _ = gen_blowup(empty_graph(3), 4, 0.9, seed=0)
        assert g.edge_count() == 0

    def test_no_intra_part_edges(self):
        g, view = gen_blowup(complete_graph(3), 10, 0.8, seed=5)
        for part in view.parts:
            assert not g.adj[np.ix_(part, part)].any()

    def test_non_pattern_pairs_empty(self):
        pattern = Graph.from_edges(3, [(0, 1)])
        g, view = gen_blowup(pattern, 6, 0.7, seed=2)
        assert view.cross_edges(0, 2) == 0 and view.cross_edges(1, 2) == 0
        assert view.cross_edges(0, 1) > 0

    def test_seed_replay(self):
        a, _ = gen_blowup(complete_graph(3), 20, 0.5, seed=77)
        b, _ = gen_blowup(complete_graph(3), 20, 0.5, seed=77)
        assert a == b

    def test_triangle_count_concentration(self):
        # Canonical triangles within (1 +/- 0.2) n^3 p^3 on nearly all seeds.
        from powercycle.graph_core import count_canonical_cliques

        n, p, hits = 50, 0.4, 0
        expect = n**3 * p**3
        for seed in range(100):
            _, view = gen_blowup(complete_graph(3), n, p, seed)
            count = count_canonical_cliques(view, 0, 3)
            hits += 0.8 * expect <= count <= 1.2 * expect
        assert hits >= 90


class TestAdversaryPartite:
    def test_extremal_point_on_k10(self):
        thinned, report = adversary_partite(complete_graph(10), 2, 0.0, seed=1)
        assert min_degree(thinned) == 6
        assert sorted(len(p) for p in report.parts) == [3, 3, 4]

    def test_empty_graph_unchanged(self):
        thinned, report = adversary_partite(empty_graph(9), 2, 0.0, seed=1)
        assert report.deleted_edges == 0 and thinned.edge_count() == 0

    def test_min_degree_concentration(self):
        # Cross-part degrees at skew 0.1 stay above the pilot-calibrated
        # floor 0.40 N p (the large part has cross-degree about 0.63 N p,
        # minus an extreme-value dip of roughly 2.5 standard deviations).
        hits = 0
        for seed in range(100):
            g = gen_gnp(ModelParams(N=200, p=0.5, seed=seed))
            _, report = adversary_partite(g, 2, 0.1, seed)
            hits += report.min_degree_after >= 0.40 * 200 * 0.5
        assert hits >= 95

    def test_skew_bounds(self):
        with pytest.raises(ValueError):
            adversary_partite(complete_graph(10), 2, 5.0, seed=0)

    def test_spanning_subgraph(self):
        g = gen_gnp(ModelParams(N=40, p=0.5, seed=3))
        thinned, _ = adversary_partite(g, 2, 0.0, seed=3)
        assert thinned.n == g.n
        assert not (thinned.adj & ~g.adj).any()

    def test_k1_balanced_bipartite_min_degree(self):
        thinned, report = adversary_partite(complete_graph(11), 1, 0.0, seed=4)
        largest = max(len(p) for p in report.parts)
        assert min_degree(thinned) == 11 - largest

    def test_cycle_bound_is_recorded_for_planted_parts_only(self):
        _, report = adversary_partite(complete_graph(10), 2, 0.0, seed=1)
        assert report.cycle_bound == 9 and report.to_dict()["cycle_bound"] == 9
        _, report = adversary_random(complete_graph(10), 0.2, seed=1)
        assert report.cycle_bound is None and "cycle_bound" not in report.to_dict()

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("N", [10, 12])
    def test_power_cycles_meet_the_cycle_bound(self, k, N):
        # The parts are independent, so a longest k-th power of a cycle
        # repeats them with period k+1: its length is a multiple of k+1 and
        # at most the bound, at any p and skew.
        rng = np.random.default_rng([N, k])
        for seed in range(4):
            host = gen_gnp(ModelParams(N=N, p=float(rng.uniform(0.5, 1.0)), seed=seed))
            thinned, report = adversary_partite(host, k, 0.2 * (seed % 2), seed)
            cycle = exact_longest_power_cycle(thinned, k)
            if len(cycle):
                assert verify_power_cycle(thinned, cycle)[0]
            assert len(cycle) <= report.cycle_bound and len(cycle) % (k + 1) == 0

    @pytest.mark.parametrize("k, N, skew", [(1, 10, 0.0), (1, 11, 0.2), (2, 10, 0.0), (2, 12, 0.2)])
    def test_complete_host_reaches_the_cycle_bound(self, k, N, skew):
        thinned, report = adversary_partite(complete_graph(N), k, skew, seed=N)
        cycle = exact_longest_power_cycle(thinned, k)
        assert verify_power_cycle(thinned, cycle)[0]
        assert len(cycle) == report.cycle_bound


class TestTriangleKiller:
    def test_star_untouched(self):
        star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
        thinned, report = adversary_triangle_killer(star, [0])
        assert report.deleted_edges == 0 and thinned == star

    def test_single_triangle(self):
        tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        thinned, report = adversary_triangle_killer(tri, [0])
        assert report.deleted_edges == 1
        assert thinned.has_edge(0, 1) and thinned.has_edge(0, 2)
        assert not thinned.has_edge(1, 2)
        assert triangles_at(thinned, 0) == []

    def test_victim_in_no_triangle_random_host(self):
        g = gen_gnp(ModelParams(N=100, p=0.3, seed=8))
        thinned, _ = adversary_triangle_killer(g, [17])
        assert triangles_at(thinned, 17) == []

    def test_victim_keeps_its_degree(self):
        g = gen_gnp(ModelParams(N=60, p=0.4, seed=9))
        thinned, _ = adversary_triangle_killer(g, [5])
        assert thinned.degree(5) == g.degree(5)

    def test_multiple_victims_order_independent(self):
        g = gen_gnp(ModelParams(N=50, p=0.4, seed=10))
        a, _ = adversary_triangle_killer(g, [3, 30, 7])
        b, _ = adversary_triangle_killer(g, [7, 3, 30])
        assert a == b
        for v in (3, 7, 30):
            assert triangles_at(a, v) == []


class TestAdversaryRandom:
    def test_r_zero_deletes_nothing(self):
        g = gen_gnp(ModelParams(N=50, p=0.5, seed=1))
        thinned, report = adversary_random(g, 0.0, seed=2)
        assert thinned == g and report.deleted_edges == 0

    def test_r_one_on_complete_budget_vacuous(self):
        thinned, report = adversary_random(complete_graph(20), 1.0, seed=3)
        assert report.budget_respected()
        assert int(report.per_vertex_deleted.max()) <= 19

    def test_budget_respected_exhaustively(self):
        g = gen_gnp(ModelParams(N=500, p=0.5, seed=4))
        thinned, report = adversary_random(g, 0.2, seed=5)
        budgets = np.floor(0.2 * g.degrees()).astype(int)
        lost = g.degrees() - thinned.degrees()
        assert (lost <= budgets).all()
        assert report.budget_respected()

    def test_spanning_subgraph_and_replay(self):
        g = gen_gnp(ModelParams(N=80, p=0.5, seed=6))
        a, _ = adversary_random(g, 0.3, seed=7)
        b, _ = adversary_random(g, 0.3, seed=7)
        assert a == b
        assert not (a.adj & ~g.adj).any()

    @pytest.mark.parametrize(
        "make, r",
        [
            (lambda: empty_graph(1), 0.5),
            (lambda: empty_graph(12), 0.5),
            (lambda: complete_graph(20), 1.0),
            (lambda: gen_gnp(ModelParams(N=200, p=0.35, seed=8)), 0.0),
            # Vertices 4..19 have degree 1 and 20..29 are isolated, so their
            # budgets floor(0.5 * d) are 0; vertices 0..3 have budget 1.
            (lambda: Graph.from_edges(30, [(u, u + 1) for u in range(0, 20, 2)] + [(0, 2), (1, 3)]), 0.5),
            (lambda: gen_gnp(ModelParams(N=1200, p=0.35, seed=9)), 0.1),
            (lambda: gen_gnp(ModelParams(N=1200, p=0.35, seed=9)), 0.45),
        ],
        ids=["one-vertex", "empty", "K20-r1", "r0", "budget-zero-vertices", "gnp1200-r0.1", "gnp1200-r0.45"],
    )
    def test_matches_sequential_oracle(self, make, r):
        graph = make()
        fast, fast_report = adversary_random(graph, r, seed=11)
        slow, slow_report = sequential_random_adversary(graph, r, seed=11)
        assert fast == slow
        assert np.array_equal(fast_report.per_vertex_deleted, slow_report.per_vertex_deleted)
        assert fast_report.to_dict() == slow_report.to_dict()

    @pytest.fixture(scope="class")
    def gnp1200(self):
        return gen_gnp(ModelParams(N=1200, p=0.35, seed=9))

    # Blocks below, at and above _LEAF_EDGES put block boundaries inside
    # leaves, at them and inside the array levels of _settle. On K20 at r=1
    # every edge is deleted, so a block left out of the walk shows.
    @pytest.mark.parametrize("block", [1, 7, 300])
    @pytest.mark.parametrize("host, r", [("K20", 1.0), ("gnp1200", 0.1), ("gnp1200", 0.45)])
    def test_block_walk_matches_sequential_oracle(self, monkeypatch, request, host, r, block):
        graph = complete_graph(20) if host == "K20" else request.getfixturevalue(host)
        slow, slow_report = sequential_random_adversary(graph, r, seed=11)
        monkeypatch.setattr(models, "_SETTLE_BLOCK", block)
        fast, fast_report = adversary_random(graph, r, seed=11)
        assert fast == slow
        assert np.array_equal(fast_report.per_vertex_deleted, slow_report.per_vertex_deleted)
        assert fast_report.to_dict() == slow_report.to_dict()

    def test_never_builds_the_edge_list(self, monkeypatch):
        # The adversary reads edge positions only; the (m, 2) list is never made.
        graph = gen_gnp(ModelParams(N=300, p=0.35, seed=12))
        slow, slow_report = sequential_random_adversary(graph, 0.3, seed=13)

        def refuse(graph):
            raise AssertionError("Graph.edges called")

        monkeypatch.setattr(Graph, "edges", refuse)
        fast, fast_report = adversary_random(graph, 0.3, seed=13)
        assert fast == slow
        assert np.array_equal(fast_report.per_vertex_deleted, slow_report.per_vertex_deleted)

    @pytest.mark.parametrize("m", [0, 1, 2, 257, 10_000])
    def test_shuffle_is_the_permutation_gather(self, m):
        # The adversary's order rests on this numpy contract: an in-place
        # shuffle of a 1-d array of either width equals its gather by
        # permutation(len), and leaves the stream where the permutation
        # leaves it.
        for dtype in (np.int32, np.int64):
            x = np.arange(m, dtype=dtype) * 7 + 3
            rng, twin = stream(5, 3), stream(5, 3)
            expected = x[twin.permutation(m)]
            rng.shuffle(x)
            assert np.array_equal(x, expected)
            assert rng.integers(2**62) == twin.integers(2**62)

    # sha256 of the thinned adjacency bytes and of per_vertex_deleted, and the
    # report, at the acceptance size; these pin the deletion order exactly.
    PINNED = {
        0.1: (
            "0384e5b603f37128b504d851a16c6d85a78cd0f31d7d0c29748cf65d2d5c6f03",
            "589d97a8cf57ce782c773b701828d8e80d8a26caeca6ebf8f1088c56d0a869e3",
            {"deleted_edges": 156708, "min_degree_after": 877, "max_vertex_deleted": 113, "budget_respected": True},
        ),
        0.45: (
            "e4cc4731544fc4a495b810059f6dd5c9fff58b722e8ca5cb78e9eafc210fc470",
            "0e01a872e5f1628ad5e0d8040c3a56104ace69ac593b70287092e5ffc42e3669",
            {"deleted_edges": 707510, "min_degree_after": 536, "max_vertex_deleted": 511, "budget_respected": True},
        ),
    }

    # sha256 of the acceptance host's adjacency, edges() and degrees() bytes.
    HOST_PINNED = [
        "8c6638a21e9fa71b6aa19839c1a38bc66efe5457c227da970ece1b67e45901dd",
        "962a0132fe986af413e34f7170376aaf9cf70ff88efde30284affa4cf98ebd1b",
        "81b2d902bef45169b89babe2f2fb4143cd1496cd7d68131613a57e73eadb87e8",
    ]

    def test_host_pinned_at_acceptance_size(self, acceptance_host):
        arrays = (acceptance_host.adj, acceptance_host.edges(), acceptance_host.degrees())
        assert [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays] == self.HOST_PINNED

    @pytest.mark.parametrize("r", sorted(PINNED))
    def test_pinned_at_acceptance_size(self, acceptance_host, r):
        adj_sha, per_vertex_sha, report_dict = self.PINNED[r]
        thinned, report = adversary_random(acceptance_host, r, seed=0)
        assert hashlib.sha256(thinned.adj.tobytes()).hexdigest() == adj_sha
        assert hashlib.sha256(report.per_vertex_deleted.tobytes()).hexdigest() == per_vertex_sha
        assert report.to_dict() == report_dict

    @pytest.mark.parametrize("r", sorted(PINNED))
    def test_traced_peak_at_acceptance_size(self, acceptance_host, traced_peak, r):
        # numpy reports its buffers to tracemalloc, so this peak repeats
        # exactly where the process RSS does not. Measured with numpy 2.4 at
        # r = 0.1 / 0.45: 116 / 124 MB while Graph checked symmetry against
        # the whole transpose, edges() used argwhere and the edge array lived
        # through _settle; 80 / 88 MB with tiled checks, the flatnonzero edge
        # scan and the edge array freed first; 60 / 64 MB once the permuted
        # endpoint arrays are dropped at _settle's first filter; 30.3 / 36.8 MB
        # with edge positions shuffled in place and split into the endpoint
        # arrays, no copy of an all-live segment, no segment mask kept through
        # _settle's recursion and the deleted pieces freed once concatenated;
        # 18.1 / 18.0 MB with the order held as int32 and walked in blocks,
        # deletions cleared straight in the one adjacency copy, which the
        # thinned graph adopts (the peak is the int64 -> int32 conversion);
        # 17.7 / 17.8 MB with the positions written as int32 straight away.
        _, peak = traced_peak(lambda: adversary_random(acceptance_host, r, seed=0))
        assert peak < 20 * 2**20


class TestExtremalBlocker:
    def test_sizes_and_min_degree(self):
        for N in range(7, 13):
            sizes = partite_blocker_sizes(N, 2)
            assert sum(sizes) == N and len(sizes) == 3
            g, _ = extremal_blocker(N, 2)
            assert min_degree(g) == round(2 * (N - 1) / 3)

    def test_never_balanced_at_divisible_sizes(self):
        for N in (9, 12, 15):
            sizes = partite_blocker_sizes(N, 2)
            assert max(sizes) > N / 3


class TestStreams:
    """Every draw of the package comes through ``stream(seed, tag, ...)`` with
    a tag listed in the ``models`` docstring table."""

    SOURCES = sorted(Path(models.__file__).parent.glob("*.py"))

    def _trees(self):
        return [(path.name, ast.parse(path.read_text())) for path in self.SOURCES]

    @staticmethod
    def _table():
        """Tag -> the number of path entries after it that its table row
        gives."""
        table = {}
        for line in models.__doc__.splitlines():
            if not re.match(r"\s+\d+  ", line):
                continue
            for tag, name in re.findall(r"(?<!\S)(\d+)  +([a-z](?:\S| (?! ))*)", line):
                path = re.search(r"\(([^)]*)\)$", name)
                table[int(tag)] = len(path.group(1).split(", ")) if path else 0
        return table

    def test_every_literal_tag_is_in_the_table(self):
        table = self._table()
        assert {0, 19, 71} <= table.keys()
        tags = []
        for name, tree in self._trees():
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call) or len(node.args) < 2:
                    continue
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                tag = node.args[1]
                if called == "stream" and isinstance(tag, ast.Constant) and isinstance(tag.value, int):
                    tags.append((name, node.lineno, tag.value))
        assert len(tags) >= 15
        assert [t for t in tags if t[2] not in table] == []

    def test_every_runtime_tag_is_in_the_table(self, monkeypatch):
        # The embedder's extend and closing tags reach ``stream`` through a
        # labels tuple, out of sight of the literal check above, so record
        # every tag actually drawn from by a toy embed that closes its cycle
        # and a small typicality audit.
        from powercycle.embedder import EmbedParams, PowerCycle, build_reduced
        from powercycle.embedder import embed_power_cycle, find_cluster_power_cycle
        from powercycle.regularity import RegularityParams, build_nice_partition
        from powercycle.typicality import TypicalityParams, check_super_typical

        real = models.stream
        seen = []

        def spy(seed, *path):
            seen.append((path[0], len(path) - 1))
            return real(seed, *path)

        for path in self.SOURCES:
            name = "powercycle" if path.stem == "__init__" else f"powercycle.{path.stem}"
            module = importlib.import_module(name)
            if vars(module).get("stream") is real:
                monkeypatch.setattr(module, "stream", spy)

        g = complete_graph(60)
        partition = build_nice_partition(g, RegularityParams(epsilon=0.25, p=1.0, d=2 / 3), m=6, seed=5)
        cycle = find_cluster_power_cycle(build_reduced(partition), 2)
        result = embed_power_cycle(g, partition, cycle, EmbedParams(k=2, xi=0.2, delta=0.02, eps=0.4, seed=5))
        assert isinstance(result, PowerCycle)
        _, view = gen_blowup(complete_graph(4), 30, 0.6, seed=4)
        check_super_typical(view, TypicalityParams(epsilon=0.4, delta=0.4, p=0.6, trials=60), seed=4)
        # Paths that differ only by trailing zeros alias, so each tag is drawn
        # at exactly the path length its row gives.
        table = self._table()
        assert (table[19], table[43], table[47], table[67]) == (3, 2, 1, 0)
        lengths = {}
        for tag, length in seen:
            lengths.setdefault(tag, set()).add(length)
        assert sorted(set(lengths) - table.keys()) == []
        assert {37, 41, 43, 47, 67, 71} <= lengths.keys()
        assert {tag: got for tag, got in lengths.items() if got != {table[tag]}} == {}

    @staticmethod
    def _list_stream(seed, *path):
        # The entropy as a plain word list, the form SeedSequence documents.
        return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *map(int, path)])))

    @pytest.mark.parametrize(
        "seed, path",
        [
            (0, ()),
            (0, (0,)),
            (5, (17,)),
            (5, (17, 0, 0)),
            (7, (2**32 - 1, 3)),
            (2**32 - 1, (41,)),
            (7, (2**32,)),
            (3, (43, 2**40 + 5, 0)),
            (2**32, (19, 0, 1, 2)),
            (5, (11,)),
            (5, (43, 2, 1, 0)),
            (4, (1,)),
            (4, (37, 3, 1, 2)),
        ],
    )
    def test_array_entropy_is_the_word_list(self, seed, path):
        fast, slow = stream(seed, *path), self._list_stream(seed, *path)
        for key in ("counter", "key"):
            assert np.array_equal(fast.bit_generator.state["state"][key], slow.bit_generator.state["state"][key])
        assert np.array_equal(fast.random(4), slow.random(4))
        assert np.array_equal(fast.integers(0, 2**63, 3), slow.integers(0, 2**63, 3))

    def test_trailing_zeros_and_negative_entries(self):
        assert np.array_equal(stream(5, 17).random(3), stream(5, 17, 0).random(3))
        for path in ((-1,), (3, -2)):
            with pytest.raises(ValueError):
                stream(1, *path)
            with pytest.raises(ValueError):
                self._list_stream(1, *path)

    def test_no_other_source_of_randomness(self):
        banned = {"default_rng", "RandomState", "seed"}
        found = []
        for name, tree in self._trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    found += [(name, node.lineno, a.name) for a in node.names if a.name == "random"]
                elif isinstance(node, ast.ImportFrom):
                    if node.module == "random":
                        found.append((name, node.lineno, "random"))
                    if node.module == "numpy.random":
                        found += [(name, node.lineno, a.name) for a in node.names if a.name in banned]
                elif isinstance(node, ast.Attribute) and node.attr in banned:
                    owner = node.value
                    if node.attr != "seed" or getattr(owner, "attr", None) == "random":
                        found.append((name, node.lineno, node.attr))
        assert found == []
