import ast
import hashlib
import importlib
import math
import re
from pathlib import Path

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

from powercycle.oracles import sequential_random_adversary, triangles_at


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

    @pytest.mark.parametrize("block", [50, 300, models._DRAW_BLOCK])
    @pytest.mark.parametrize("N", [1, 7, 37, 80])
    def test_row_blocks_give_the_single_draw_graph(self, monkeypatch, N, block):
        # Drawing the doubles a block of rows at a time must give the graph
        # of one (N, N) draw from the same stream.
        monkeypatch.setattr(models, "_DRAW_BLOCK", block)
        once = np.triu(stream(11, 0).random((N, N)) < 0.4, 1)
        assert gen_gnp(ModelParams(N=N, p=0.4, seed=11)) == Graph(once | once.T)

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

    @pytest.fixture(scope="class")
    def acceptance_host(self):
        return gen_gnp(ModelParams(N=3000, p=0.35, seed=0))

    @pytest.mark.parametrize("r", sorted(PINNED))
    def test_pinned_at_acceptance_size(self, acceptance_host, r):
        adj_sha, per_vertex_sha, report_dict = self.PINNED[r]
        thinned, report = adversary_random(acceptance_host, r, seed=0)
        assert hashlib.sha256(thinned.adj.tobytes()).hexdigest() == adj_sha
        assert hashlib.sha256(report.per_vertex_deleted.tobytes()).hexdigest() == per_vertex_sha
        assert report.to_dict() == report_dict


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
        return {
            int(tag)
            for line in models.__doc__.splitlines()
            if re.match(r"\s+\d+  ", line)
            for tag in re.findall(r"(?<!\S)(\d+)  +[a-z]", line)
        }

    def test_every_literal_tag_is_in_the_table(self):
        table = self._table()
        assert {0, 19, 71} <= table
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
        # labels tuple and typicality's through a path tuple, out of sight of
        # the literal check above, so record every tag actually drawn from
        # by a toy embed that closes its cycle and a small typicality audit.
        from powercycle.embedder import EmbedParams, PowerCycle, build_reduced
        from powercycle.embedder import embed_power_cycle, find_cluster_power_cycle
        from powercycle.regularity import RegularityParams, build_nice_partition
        from powercycle.typicality import TypicalityParams, check_super_typical

        real = models.stream
        seen = []

        def spy(seed, *path):
            seen.append(path[0])
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
        assert sorted(set(seen) - self._table()) == []
        assert {37, 41, 43, 47, 67, 71} <= set(seen)

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
