import pytest

from powercycle.graph_core import (
    Graph,
    TupleView,
    complete_graph,
    complete_multipartite,
    count_canonical_cliques,
    empty_graph,
)
from powercycle import typicality
from powercycle.models import ModelParams, gen_blowup, gen_gnp, stream
from powercycle.oracles import naive_canonical_cliques
from powercycle.typicality import (
    TypicalityParams,
    check_super_typical,
    clique_count_upper_check,
    typical_vertices,
)


def params(eps=0.3, delta=0.3, p=0.5, trials=120):
    return TypicalityParams(epsilon=eps, delta=delta, p=p, trials=trials)


class TestTypicalVertices:
    def test_complete_tripartite_everyone_typical(self):
        _, view = complete_multipartite([6, 6, 6])
        for eps in (0.1, 0.4):
            typ = typical_vertices(view, params(eps=eps, p=1.0), seed=1)
            assert all(len(typ[i]) == 6 for i in range(3))

    def test_vertex_with_empty_neighborhood_not_typical(self):
        g, view = complete_multipartite([5, 5, 5])
        adj = g.adj.copy()
        adj[0, 5:10] = adj[5:10, 0] = False  # vertex 0 loses part 1 entirely
        cut = TupleView(Graph(adj), view.parts)
        typ = typical_vertices(cut, params(eps=0.3, p=1.0), seed=1)
        assert 0 not in typ[0]

    def test_blowup_fraction_mostly_typical(self):
        hits = 0
        for seed in range(5):
            _, view = gen_blowup(complete_graph(3), 80, 0.5, seed)
            typ = typical_vertices(view, params(eps=0.3, p=0.5, trials=150), seed=seed)
            hits += all(len(typ[i]) >= (1 - 0.3) * 80 for i in range(3))
        assert hits >= 4

    def test_needs_three_parts(self):
        _, view = complete_multipartite([4, 4])
        with pytest.raises(ValueError):
            typical_vertices(view, params(), seed=0)


class TestTypicalCliques:
    """The ledger's per-copy verdicts, read from ``typical_clique_count``: the
    copies of K_{t-2} on the middle parts judged toward the outer two."""

    def test_complete_multipartite_all_copies_typical(self):
        _, view = complete_multipartite([4, 4, 4, 4])
        report = check_super_typical(view, params(p=1.0), seed=2)
        assert report.typical_clique_count == count_canonical_cliques(view, 1, 2) == 16

    def test_empty_common_neighborhood_fails(self):
        # Parts 0-3, 4-23 and 24-27: copy (4,) sees nothing in part 2. The wide
        # middle part keeps the measured densities close enough that every
        # other copy stays inside its window.
        g, view = complete_multipartite([4, 20, 4])
        adj = g.adj.copy()
        adj[4, 24:28] = adj[24:28, 4] = False
        cut = TupleView(Graph(adj), view.parts)
        assert check_super_typical(cut, params(p=1.0), seed=3).typical_clique_count == 19

    def test_blowup_middle_edges_mostly_typical(self):
        # Copies on (V2, V3), targets V1 and V4.
        hits = 0
        for seed in range(3):
            _, view = gen_blowup(complete_graph(4), 60, 0.6, seed)
            report = check_super_typical(view, params(eps=0.3, delta=0.3, p=0.6), seed=seed)
            hits += report.typical_clique_count >= (1 - 0.3) * count_canonical_cliques(view, 1, 2)
        assert hits >= 2


class TestSuperTypical:
    def test_complete_multipartite_true_any_delta(self):
        _, view = complete_multipartite([5, 5, 5])
        for delta in (0.05, 0.3):
            report = check_super_typical(view, params(eps=0.2, delta=delta, p=1.0), seed=1)
            assert report.super_typical
            assert report.clique_counts["left"] == 25
            assert report.clique_counts["right"] == 25

    def test_degenerate_middle_window_t3(self):
        _, view = complete_multipartite([4, 7, 4])
        report = check_super_typical(view, params(p=1.0), seed=1)
        assert report.clique_counts["middle"] == 7
        assert report.expected_counts["middle"] == 7
        assert report.typical_clique_count == 7

    def test_counts_come_from_enumeration(self):
        _, view = gen_blowup(complete_graph(4), 30, 0.6, seed=4)
        report = check_super_typical(view, params(eps=0.4, delta=0.4, p=0.6, trials=60), seed=4)
        assert report.clique_counts["middle"] == len(naive_canonical_cliques(view, 1, 2))
        assert report.clique_counts["left"] == len(naive_canonical_cliques(view, 0, 3))
        assert report.clique_counts["right"] == len(naive_canonical_cliques(view, 1, 3))

    def test_audit_never_builds_bitset_rows(self):
        graph, view = gen_blowup(complete_graph(4), 12, 0.7, seed=0)
        check_super_typical(view, params(eps=0.4, delta=0.4, p=0.7, trials=20), seed=0)
        assert graph._rows is None

    def test_blowup_mostly_super_typical(self):
        hits = 0
        for seed in range(5):
            _, view = gen_blowup(complete_graph(3), 70, 0.6, seed)
            report = check_super_typical(view, params(eps=0.35, delta=0.35, p=0.6, trials=150), seed=seed)
            hits += report.super_typical
        assert hits >= 4

    def test_monotone_in_tolerances(self):
        rng = stream(43)
        for seed in range(4):
            n = int(rng.integers(25, 45))
            _, view = gen_blowup(complete_graph(3), n, 0.6, seed)
            tight = check_super_typical(view, params(eps=0.25, delta=0.25, p=0.6, trials=100), seed=seed)
            loose = check_super_typical(view, params(eps=0.45, delta=0.45, p=0.6, trials=100), seed=seed)
            if tight.super_typical:
                assert loose.super_typical

    def test_report_serializes(self):
        import json

        _, view = complete_multipartite([4, 4, 4])
        report = check_super_typical(view, params(p=1.0), seed=1)
        blob = json.dumps(report.to_dict(), sort_keys=True)
        assert "super_typical" in blob

    def test_every_sampled_check_has_its_own_stream(self, monkeypatch):
        # Two consecutive audit seeds must never hand two regularity checks
        # the same stream: record each check's entropy path and Philox key.
        paths, keys = [], []
        original = typicality.check_regular_sampled

        def recording(*args, rng, **kwargs):
            paths.append(tuple(rng.bit_generator.seed_seq.entropy))
            keys.append(tuple(rng.bit_generator.state["state"]["key"]))
            return original(*args, rng=rng, **kwargs)

        monkeypatch.setattr(typicality, "check_regular_sampled", recording)
        for seed in (0, 1):
            _, view = gen_blowup(complete_graph(4), 40, 0.5, seed)
            check_super_typical(view, params(), seed=seed)
        assert len(paths) > 1000
        assert len(set(paths)) == len(paths)
        assert len(set(keys)) == len(keys)


class TestCountUpperCheck:
    def test_empty_graph_trivially_true(self):
        g = empty_graph(9)
        view = TupleView(g, [range(3), range(3, 6), range(6, 9)])
        assert clique_count_upper_check(view, 3, 0.2, 0.5)

    def test_complete_multipartite_at_p_one(self):
        _, view = complete_multipartite([4, 5, 6])
        assert clique_count_upper_check(view, 3, 0.0, 1.0)

    def test_gnp_random_sets(self):
        hits = 0
        for seed in range(5):
            host = gen_gnp(ModelParams(N=600, p=0.5, seed=seed))
            rng = stream(seed, 53)
            perm = rng.permutation(600)
            view = TupleView(host, [perm[:150], perm[150:300], perm[300:450]])
            hits += clique_count_upper_check(view, 3, 0.2, 0.5)
        assert hits == 5

    def test_part_count_must_match(self):
        _, view = complete_multipartite([3, 3])
        with pytest.raises(ValueError):
            clique_count_upper_check(view, 3, 0.2, 0.5)
