import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from powercycle import graph_core
from powercycle.graph_core import (
    Graph,
    TupleView,
    bit_indices,
    common_neighborhood,
    complete_graph,
    complete_multipartite,
    count_canonical_cliques,
    empty_graph,
    enumerate_canonical_cliques,
    exact_product,
    load_graph,
    load_parts,
    mask_of,
    min_degree,
    save_graph,
    save_parts,
    window_cliques,
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

    # Symmetry is checked in 256-square tiles: at 2 * 256 + 37 vertices one
    # flipped entry lands in a diagonal tile, a tile above or below the
    # diagonal, or one of the partial tiles of the last tile row and column.
    @pytest.mark.parametrize(
        "u, v",
        [(3, 200), (40, 300), (300, 40), (520, 530), (10, 540), (540, 300)],
        ids=["diagonal", "above", "below", "last-diagonal", "last-column", "last-row"],
    )
    def test_rejects_asymmetric_in_every_tile(self, u, v):
        adj = gen_gnp(ModelParams(N=2 * 256 + 37, p=0.3, seed=1)).adj.copy()
        adj[u, v] = not adj[u, v]
        with pytest.raises(ValueError, match="adjacency must be symmetric"):
            Graph(adj)

    @pytest.mark.parametrize("n", [0, 1, 2 * 256 + 37])
    def test_degrees_are_read_only_row_sums(self, n):
        g = Graph(np.zeros((0, 0), dtype=bool)) if n == 0 else gen_gnp(ModelParams(N=n, p=0.3, seed=2))
        degrees = g.degrees()
        assert degrees.dtype == np.int64 and np.array_equal(degrees, g.adj.sum(axis=1))
        assert g.degrees() is degrees
        with pytest.raises(ValueError, match="read-only"):
            degrees[...] = 0

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

    def test_rejects_duplicate_ids_within_a_part(self):
        g = complete_graph(5)
        with pytest.raises(ValueError, match="duplicate vertex ids"):
            TupleView(g, [[0, 1], [2, 3, 2]])

    def test_rejects_negative_id(self):
        g = complete_graph(5)
        with pytest.raises(ValueError, match="outside the graph"):
            TupleView(g, [[0, 1], [-1, 3]])

    def test_rejects_overlap_between_parts_that_are_not_adjacent(self):
        g = complete_graph(6)
        with pytest.raises(ValueError, match="pairwise disjoint"):
            TupleView(g, [[0, 1], [2, 3], [4, 1]])

    def test_unsorted_input_comes_back_sorted(self):
        g = complete_graph(8)
        view = TupleView(g, [np.array([5, 1, 3]), [7, 0]])
        assert [p.tolist() for p in view.parts] == [[1, 3, 5], [0, 7]]
        assert view.sizes == (3, 2)


    def test_block_is_the_sorted_adjacency_block_read_only(self):
        g = gen_gnp(ModelParams(N=30, p=0.5, seed=4))
        view = TupleView(g, [[7, 2, 9], [20, 11, 5, 14]])
        block = view.block(0, 1)
        assert block is view.block(0, 1)
        assert np.array_equal(block, g.adj[np.ix_([2, 7, 9], [5, 11, 14, 20])])
        with pytest.raises(ValueError):
            block[0, 0] = not block[0, 0]

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
        # The window starts at part 1, so its positions index parts 1.. of the view.
        rng = stream(17)
        for _ in range(25):
            t = int(rng.integers(2, 5))
            sizes = [int(rng.integers(2, 7)) for _ in range(t + 1)]
            view = random_multipartite(rng, t + 1, sizes, float(rng.uniform(0.2, 0.9)))
            fast = enumerate_canonical_cliques(view, 1, t)
            slow = naive_canonical_cliques(view, 1, t)
            assert fast == slow
            assert count_canonical_cliques(view, 1, t) == len(slow)
            cliques = window_cliques(view, 1, t)
            assert not cliques.flags.writeable
            rows = [
                tuple(int(view.parts[1 + a][i]) for a, i in enumerate(pos))
                for pos in np.argwhere(cliques)
            ]
            assert rows == fast

    def test_window_out_of_range(self):
        _, view = complete_multipartite([2, 2])
        with pytest.raises(IndexError):
            enumerate_canonical_cliques(view, 1, 2)
        with pytest.raises(IndexError):
            count_canonical_cliques(view, 0, 3)
        with pytest.raises(ValueError):
            enumerate_canonical_cliques(view, 0, 0)
        with pytest.raises(ValueError):
            count_canonical_cliques(view, 0, 0)


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

    def test_unsorted_target_gives_ascending_unique_ids(self):
        g = complete_graph(8)
        assert common_neighborhood(g, [], [5, 1, 3, 1, 5]).tolist() == [1, 3, 5]
        assert common_neighborhood(g, [0], [7, 2, 2, 6]).tolist() == [2, 6, 7]
        assert common_neighborhood(g, [0], [0, 4, 0]).tolist() == [4]
        out = common_neighborhood(g, [], [])
        assert out.dtype == np.int64 and out.size == 0

    def test_matches_bitmask_reference(self):
        rng = stream(29)
        for trial in range(30):
            n = int(rng.integers(1, 25))
            g = gen_gnp(ModelParams(N=n, p=float(rng.uniform(0.2, 0.9)), seed=trial))
            seeds = rng.choice(n, size=int(rng.integers(0, min(n, 4) + 1)), replace=False).tolist()
            target = rng.integers(0, n, size=int(rng.integers(0, 2 * n))).tolist()
            m = mask_of(target)
            for v in seeds:
                m &= g.rows[v]
            out = common_neighborhood(g, seeds, target)
            assert out.dtype == np.int64
            assert out.tolist() == list(bit_indices(m))

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


class TestExactProduct:
    # The kernel's shapes: a flattened k=3 frontier (13 x 11 x 9) against its
    # head block, square k=2 steps, and an inner dimension of 300.
    SHAPES = {
        "square": ((22, 22), (22, 22)),
        "inner-300": ((5, 300), (300, 7)),
        "k3-flattened": ((13, 11, 9), (13, 10)),
    }

    @pytest.mark.parametrize("density", [0.0, 1.0, 0.1], ids=["all-false", "all-true", "sparse"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_matches_bool_product(self, shape, density):
        a_shape, b_shape = self.SHAPES[shape]
        rng = stream(41)
        a = rng.random(a_shape) < density
        b = rng.random(b_shape) < density
        if a.ndim == 3:
            a = a.reshape(a.shape[0], -1).T
        counts = exact_product(a, b)
        assert counts.dtype == np.float32
        assert np.array_equal(counts, a.astype(np.int64) @ b.astype(np.int64))
        assert np.array_equal(counts > 0, a @ b)

    def test_refuses_inner_dimension_of_two_to_the_24(self):
        # Zero-stride views: nothing of the 2**24 inner dimension is allocated.
        a = np.broadcast_to(np.False_, (1, 2**24))
        b = np.broadcast_to(np.False_, (2**24, 1))
        with pytest.raises(ValueError, match=r"2\*\*24"):
            exact_product(a, b)


def _names_adj(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "adj") or (
        isinstance(node, ast.Name) and node.id == "adj"
    )


def _is_column(node) -> bool:
    """Is ``node`` an ``x[:, None]`` subscript?"""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)):
        return False
    elts = node.slice.elts
    return (
        len(elts) == 2
        and isinstance(elts[0], ast.Slice)
        and elts[0].lower is elts[0].upper is elts[0].step is None
        and isinstance(elts[1], ast.Constant)
        and elts[1].value is None
    )


class TestSubmatrix:
    @pytest.mark.parametrize(
        "rows, cols",
        [
            ([31, 2, 17, 2], [5, 39, 0, 5, 5]),
            (list(range(39, -1, -1)), list(range(40))),
            ([], [1, 2]),
            ([3, 4], []),
        ],
        ids=["unsorted-repeated", "all", "no-rows", "no-columns"],
    )
    def test_matches_ix_gather(self, rows, cols):
        g = gen_gnp(ModelParams(N=40, p=0.5, seed=3))
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        block = g.submatrix(rows, cols)
        assert block.dtype == bool and block.shape == (len(rows), len(cols))
        assert np.array_equal(block, g.adj[np.ix_(rows, cols)])
        assert block.flags.writeable and not np.shares_memory(block, g.adj)

    def test_id_out_of_range(self):
        g = complete_graph(6)
        with pytest.raises(IndexError):
            g.submatrix(np.array([0, 6]), np.array([1]))
        with pytest.raises(IndexError):
            g.submatrix(np.array([0]), np.array([2, 6]))

    def test_no_broadcast_gather_outside_graph_core(self):
        # Every adjacency block outside graph_core is read through
        # Graph.submatrix, not gathered as adj[rows[:, None], cols].
        offenders = []
        for path in sorted(Path(graph_core.__file__).parent.glob("*.py")):
            if path.name == "graph_core.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Subscript) and _names_adj(node.value):
                    if any(_is_column(sub) for sub in ast.walk(node.slice)):
                        offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


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
