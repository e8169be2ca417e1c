import numpy as np
import pytest
from fractions import Fraction

from powercycle.graph_core import (
    CliqueSet,
    Graph,
    TupleView,
    common_neighborhood,
    complete_graph,
    complete_multipartite,
    count_canonical_cliques,
    empty_graph,
    enumerate_canonical_cliques,
    load_graph,
    load_parts,
    min_degree,
    save_graph,
    save_parts,
)
from powercycle.models import ModelParams, gen_blowup, gen_gnp, stream

from powercycle.oracles import naive_canonical_cliques


def random_multipartite(rng, t, sizes, p):
    _, view = gen_blowup(complete_graph(t), max(sizes), p, int(rng.integers(0, 2**31)))
    return TupleView(view.graph, [view.parts[i][: sizes[i]] for i in range(t)])


class TestGraph:
    def test_rejects_self_loops(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[1, 1] = True
        with pytest.raises(ValueError):
            Graph(adj)

    def test_rejects_asymmetric(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError):
            Graph(adj)

    def test_from_edges_bounds(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_degree_sum_is_twice_edges(self):
        g = gen_gnp(ModelParams(N=60, p=0.4, seed=3))
        assert int(g.degrees().sum()) == 2 * g.edge_count()

    @pytest.mark.parametrize("n, p", [(0, 0.5), (1, 0.5), (7, 0.0), (40, 0.3), (25, 1.0)])
    def test_edges_array_is_lexicographic(self, n, p):
        g = gen_gnp(ModelParams(N=n, p=p, seed=n)) if n else empty_graph(0)
        edges = g.edges()
        assert edges.dtype == np.int64 and edges.shape == (g.edge_count(), 2)
        expected = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u, v]]
        assert [tuple(e) for e in edges.tolist()] == expected

    def test_adjacency_immutable(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            g.adj[0, 1] = False

    def test_rows_match_matrix(self):
        g = gen_gnp(ModelParams(N=40, p=0.5, seed=9))
        for v in range(g.n):
            mask = g.rows[v]
            nbrs = {u for u in range(g.n) if (mask >> u) & 1}
            assert nbrs == set(np.nonzero(g.adj[v])[0].tolist())


class TestDensity:
    def test_complete_bipartite_density_one(self):
        _, view = complete_multipartite([3, 4])
        assert view.density(0, 1) == 1

    def test_no_edges_density_zero(self):
        g = empty_graph(7)
        view = TupleView(g, [range(3), range(3, 7)])
        assert view.density(0, 1) == 0

    def test_single_edge_exact_quarter(self):
        g = Graph.from_edges(4, [(0, 2)])
        view = TupleView(g, [[0, 1], [2, 3]])
        assert view.density(0, 1) == Fraction(1, 4)

    def test_symmetric_and_relabel_invariant(self):
        rng = stream(11)
        for _ in range(10):
            view = random_multipartite(rng, 2, [5, 6], 0.5)
            assert view.density(0, 1) == view.density(1, 0)
            shuffled = TupleView(
                view.graph,
                [view.parts[0][rng.permutation(5)], view.parts[1][rng.permutation(6)]],
            )
            assert shuffled.density(0, 1) == view.density(0, 1)

    def test_invalid_index(self):
        _, view = complete_multipartite([2, 2])
        with pytest.raises(IndexError):
            view.density(0, 0)
        with pytest.raises(IndexError):
            view.cross_edges(0, 2)


class TestTupleView:
    def test_rejects_overlapping_parts(self):
        g = complete_graph(5)
        with pytest.raises(ValueError):
            TupleView(g, [[0, 1], [1, 2]])

    def test_rejects_empty_part(self):
        g = complete_graph(5)
        with pytest.raises(ValueError):
            TupleView(g, [[0, 1], []])

    def test_rejects_out_of_range(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            TupleView(g, [[0], [5]])


class TestEnumeration:
    def test_complete_tripartite_2x2x2(self):
        _, view = complete_multipartite([2, 2, 2])
        cliques = enumerate_canonical_cliques(view, 0, 3)
        assert len(cliques) == 8
        assert count_canonical_cliques(view, 0, 3) == 8

    def test_order_two_equals_edge_count(self):
        rng = stream(13)
        for _ in range(5):
            view = random_multipartite(rng, 3, [6, 5, 4], 0.5)
            assert len(enumerate_canonical_cliques(view, 0, 2)) == view.cross_edges(0, 1)
            assert len(enumerate_canonical_cliques(view, 1, 2)) == view.cross_edges(1, 2)

    def test_one_missing_cross_edge(self):
        g, view = complete_multipartite([2, 2, 2])
        adj = g.adj.copy()
        adj[0, 2] = adj[2, 0] = False
        trimmed = TupleView(Graph(adj), view.parts)
        expected = len(naive_canonical_cliques(trimmed, 0, 3))
        assert expected == 6
        assert count_canonical_cliques(trimmed, 0, 3) == expected

    def test_matches_brute_force_oracle(self):
        rng = stream(17)
        for _ in range(25):
            t = int(rng.integers(2, 5))
            sizes = [int(rng.integers(2, 7)) for _ in range(t)]
            view = random_multipartite(rng, t, sizes, float(rng.uniform(0.2, 0.9)))
            fast = enumerate_canonical_cliques(view, 0, t)
            slow = naive_canonical_cliques(view, 0, t)
            assert fast.members == frozenset(slow)
            assert count_canonical_cliques(view, 0, t) == len(slow)

    def test_window_out_of_range(self):
        _, view = complete_multipartite([2, 2])
        with pytest.raises(IndexError):
            enumerate_canonical_cliques(view, 1, 2)
        with pytest.raises(IndexError):
            count_canonical_cliques(view, 0, 3)

    def test_cliqueset_validates_order(self):
        with pytest.raises(ValueError):
            CliqueSet(0, 2, frozenset([(1, 2, 3)]))


class TestCommonNeighborhood:
    def test_empty_seed_returns_target(self):
        g = empty_graph(6)
        out = common_neighborhood(g, [], [1, 3, 5])
        assert out.tolist() == [1, 3, 5]

    def test_single_seed_is_neighborhood_restriction(self):
        g = gen_gnp(ModelParams(N=30, p=0.5, seed=5))
        target = list(range(10, 25))
        out = set(common_neighborhood(g, [4], target).tolist())
        assert out == {u for u in target if g.adj[4, u]}

    def test_path_endpoints_share_middle(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        out = common_neighborhood(g, [0, 2], [1])
        assert out.tolist() == [1]

    def test_antitone_in_seed(self):
        rng = stream(23)
        g = gen_gnp(ModelParams(N=40, p=0.5, seed=7))
        for _ in range(20):
            seeds = rng.choice(40, size=int(rng.integers(1, 4)), replace=False).tolist()
            extra = int(rng.integers(0, 40))
            target = range(40)
            small = set(common_neighborhood(g, seeds + [extra], target).tolist())
            big = set(common_neighborhood(g, seeds, target).tolist())
            assert small <= big


class TestMinDegree:
    def test_complete(self):
        assert min_degree(complete_graph(5)) == 4

    def test_isolated_vertex(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        assert min_degree(g) == 0

    def test_extremal_tripartite(self):
        g, _ = complete_multipartite([3, 3, 4])
        assert min_degree(g) == 6


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        g = gen_gnp(ModelParams(N=25, p=0.4, seed=21))
        path = tmp_path / "g.txt"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_parts_sidecar_roundtrip(self, tmp_path):
        _, view = complete_multipartite([3, 2, 4])
        path = tmp_path / "parts.txt"
        save_parts(view, path)
        back = load_parts(view.graph, path)
        assert all(np.array_equal(a, b) for a, b in zip(back.parts, view.parts))

    def test_save_text_is_pinned(self, tmp_path):
        g = Graph.from_edges(6, [(3, 1), (0, 4), (5, 2), (1, 2), (0, 1), (4, 5)])
        path = tmp_path / "g.txt"
        save_graph(g, path)
        assert path.read_bytes() == b"6 6\n0 1\n0 4\n1 2\n1 3\n2 5\n4 5\n"
        save_graph(empty_graph(3), path)
        assert path.read_bytes() == b"3 0\n"

    def test_save_is_byte_stable(self, tmp_path):
        g = gen_gnp(ModelParams(N=30, p=0.5, seed=2))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_graph(g, p1)
        save_graph(g, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("3\n0 1\n", 1, "two integers"),
            ("3 -1\n", 1, "non-negative"),
            ("4 x\n0 1\n", 1, "two integers"),
            ("4 3\n0 1\n1 2\n", 4, "file ends after 2"),
            ("4 1\n0 1\n1 2\n", 3, "more edge lines"),
            ("4 2\n0 1\n1 2 3\n", 3, "two integers"),
            ("4 2\n0 1\n1 0\n", 3, "duplicate edge"),
        ],
        ids=[
            "header-one-field",
            "header-negative",
            "header-not-int",
            "too-few-edges",
            "too-many-edges",
            "edge-not-two-ints",
            "duplicate-edge",
        ],
    )
    def test_malformed_file_names_line(self, tmp_path, text, line, reason):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}\\b.*{reason}"):
            load_graph(path)
