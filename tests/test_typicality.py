import hashlib
import json

import pytest

from powercycle.graph_core import (
    Graph,
    TupleView,
    complete_graph,
    complete_multipartite,
    count_canonical_cliques,
    empty_graph,
)
from powercycle import regularity, typicality
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


class TestParams:
    @pytest.mark.parametrize(
        "field, value",
        [("p", 0.0), ("p", -0.1), ("p", 1.5), ("trials", -1), ("epsilon", 1.0), ("delta", 0.0)],
    )
    def test_impossible_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            TypicalityParams(**{"epsilon": 0.3, "delta": 0.3, "p": 0.5, field: value})

    @pytest.mark.parametrize("field, value", [("p", 1.0), ("trials", 0)])
    def test_boundary_values_accepted(self, field, value):
        TypicalityParams(**{"epsilon": 0.3, "delta": 0.3, "p": 0.5, field: value})


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
        _, view = complete_multipartite([4, 4, 4])
        report = check_super_typical(view, params(p=1.0), seed=1)
        blob = json.dumps(report.to_dict(), sort_keys=True)
        assert "super_typical" in blob

    def test_one_stream_per_ledger_level(self, monkeypatch):
        # The vertex, copy and tuple levels each build one stream, whose
        # subset tables all of the level's pairs share; two consecutive
        # audit seeds share none of them.
        paths, keys = [], []
        real = typicality.stream

        def spy(seed, *path):
            rng = real(seed, *path)
            paths.append((seed, *path))
            keys.append(tuple(rng.bit_generator.state["state"]["key"]))
            return rng

        monkeypatch.setattr(typicality, "stream", spy)
        for seed in (0, 1):
            _, view = gen_blowup(complete_graph(4), 40, 0.5, seed)
            report = check_super_typical(view, params(eps=0.4, delta=0.4), seed=seed)
            assert report.verdicts["tuple_typical"]
        assert sorted(paths) == [(0, 37), (0, 67), (0, 71), (1, 37), (1, 67), (1, 71)]
        assert len(set(keys)) == 6


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


def ledger_sha256(t, n, p, eps, delta, trials, seed):
    """sha256 of the canonical JSON of check_super_typical's report on a
    seeded blow-up of K_t."""
    _, view = gen_blowup(complete_graph(t), n, p, seed)
    report = check_super_typical(view, params(eps=eps, delta=delta, p=p, trials=trials), seed=seed)
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


class TestLedgerPinned:
    """The whole ledger's report, pinned byte for byte: at the typicality-ledger
    workload's size (t=4, n=100, p=0.5, eps=delta=0.3, 200 trials), and
    small at t=3 and t=5, where the middle window has order 1 and 3. An
    optimisation of the ledger must leave every constant as it is."""

    @pytest.mark.parametrize(
        "t, n, p, tol, trials, seed, digest",
        [
            (4, 100, 0.5, 0.3, 200, 0, "f91cf9a1fd74ab0d121ceec1a84169ecc337062f98df44dd2a0b949671190341"),
            (4, 100, 0.5, 0.3, 200, 1, "cbd6ba843b68783267b9f7aaababa346b3b3ded19e1c676fc7f8dc94f0282509"),
            (3, 30, 0.6, 0.3, 60, 0, "da9e36ae27db351cc36c89233a2c04802ceaf66be5ad76da78cc968e8e326f2e"),
            (3, 30, 0.6, 0.3, 60, 1, "afff4b0f5a94ddc121587293e314611e5e567bebeb8da6c2754000467aa16e2c"),
            # Seed 0 passes every check, seed 1 fails typical_cliques only;
            # both keep tuple_typical, so the tuple-level refuter runs.
            (5, 20, 0.7, 0.4, 40, 0, "68dc8310731cbe13ddfb5a117d784b89680dcc47603ad5ddb2242c80a6dba1a8"),
            (5, 20, 0.7, 0.4, 40, 1, "f61ac7141981c21e5d83a64b41f3b0e6cb2967f999eb7d4aceded5b0edc2c226"),
        ],
        ids=["t4-workload-0", "t4-workload-1", "t3-0", "t3-1", "t5-0", "t5-1"],
    )
    def test_report_is_pinned(self, t, n, p, tol, trials, seed, digest):
        assert ledger_sha256(t, n, p, tol, tol, trials, seed) == digest

    @pytest.mark.parametrize("cells", [1, 1001, 5000])
    def test_refuter_stacks_do_not_move_the_report(self, monkeypatch, cells):
        # Every pair counted alone, about three pairs a stack, and about
        # twelve, where the stacks of 15 side-1 widths fill and are counted
        # while other widths are held: the t=5 report stays the pinned one.
        monkeypatch.setattr(regularity, "_STACK_CELLS", cells)
        digest = "68dc8310731cbe13ddfb5a117d784b89680dcc47603ad5ddb2242c80a6dba1a8"
        assert ledger_sha256(5, 20, 0.7, 0.4, 0.4, 40, 0) == digest

    def test_copy_blocks_do_not_move_the_report(self, monkeypatch):
        # Seven copies a block, a size that divides no copy count here, so
        # the last block is ragged: the t=5 report stays the pinned one.
        monkeypatch.setattr(typicality, "_COPY_CELLS", 7 * 20)
        digest = "68dc8310731cbe13ddfb5a117d784b89680dcc47603ad5ddb2242c80a6dba1a8"
        assert ledger_sha256(5, 20, 0.7, 0.4, 0.4, 40, 0) == digest


class TestGathers:
    def test_one_gather_per_pair_that_reaches_its_density_test(self, monkeypatch, gathers):
        # The view's blocks are built first; after that, a neighbourhood pair
        # is gathered only for its density test, and its refuter reads that
        # block. The tuple-level checks read the view's blocks.
        _, view = gen_blowup(complete_graph(4), 30, 0.6, seed=2)
        for i in range(4):
            for j in range(4):
                if i != j:
                    view.density(i, j)
                    view.block(i, j)
        del gathers[:]
        tested = []
        pair_ok = typicality._pair_ok

        def counting_pair_ok(graph, ids_a, ids_b, *args):
            tested.append(len(ids_a) > 0 and len(ids_b) > 0)
            return pair_ok(graph, ids_a, ids_b, *args)

        monkeypatch.setattr(typicality, "_pair_ok", counting_pair_ok)
        report = check_super_typical(view, params(eps=0.4, delta=0.4, p=0.6, trials=30), seed=2)
        assert report.verdicts["tuple_typical"]
        assert sum(tested) > 100
        assert len(gathers) <= sum(tested)
