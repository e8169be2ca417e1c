import hashlib
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from powercycle.graph_core import Graph, TupleView, complete_graph, complete_multipartite, empty_graph, exact_product
from powercycle import regularity
from powercycle.models import ModelParams, adversary_partite, adversary_random, gen_blowup, gen_gnp, stream
from powercycle.regularity import (
    RegularityParams,
    RegularityVerdict,
    build_nice_partition,
    check_regular_exact,
    check_regular_sampled,
    inheritance_stats,
)

from powercycle.oracles import naive_density, naive_max_deviation


def half_dense_pair(n):
    """All edges join the first halves of two n-sets: density 1/4 overall,
    deviation 3/4 on the dense quarter."""
    adj = np.zeros((2 * n, 2 * n), dtype=bool)
    adj[: n // 2, n : n + n // 2] = True
    adj = np.triu(adj, 1)
    return Graph(adj | adj.T), list(range(n)), list(range(n, 2 * n))


class TestExact:
    def test_complete_bipartite_certified(self):
        g, view = complete_multipartite([8, 9])
        verdict = check_regular_exact(g, view.parts[0], view.parts[1], 0.4, 1.0)
        assert verdict.status == "certified-regular"

    def test_empty_pair_certified(self):
        g = empty_graph(12)
        verdict = check_regular_exact(g, range(6), range(6, 12), 0.3, 1.0)
        assert verdict.status == "certified-regular"

    def test_half_dense_refuted_with_witness(self):
        g, V1, V2 = half_dense_pair(10)
        verdict = check_regular_exact(g, V1, V2, 0.4, 1.0)
        assert verdict.refuted
        w1, w2 = verdict.witness
        assert len(w1) >= math.ceil(0.4 * 10) and len(w2) >= math.ceil(0.4 * 10)
        dev = abs(naive_density(g, w1.tolist(), w2.tolist()) - naive_density(g, V1, V2))
        assert float(dev) > 0.4
        assert verdict.deviation == pytest.approx(float(dev))

    def test_matches_subset_enumeration_oracle(self):
        rng = stream(31)
        for trial in range(8):
            n1, n2 = int(rng.integers(4, 8)), int(rng.integers(4, 8))
            g = gen_gnp(ModelParams(N=n1 + n2, p=float(rng.uniform(0.2, 0.8)), seed=trial))
            V1, V2 = list(range(n1)), list(range(n1, n1 + n2))
            eps = float(rng.uniform(0.25, 0.6))
            verdict = check_regular_exact(g, V1, V2, eps, 1.0)
            worst = float(naive_max_deviation(g, V1, V2, eps))
            assert verdict.deviation == pytest.approx(worst)
            assert verdict.refuted == (worst > eps * 1.0 + 1e-12)

    def test_envelope_refusal_points_to_sampled(self):
        g = gen_gnp(ModelParams(N=44, p=0.5, seed=1))
        with pytest.raises(ValueError, match="sampled"):
            check_regular_exact(g, range(22), range(22, 44), 0.3, 0.5)

    def test_near_full_subsets_allowed_above_16(self):
        g = gen_gnp(ModelParams(N=40, p=0.5, seed=2))
        verdict = check_regular_exact(g, range(20), range(20, 40), 0.9, 0.5)
        assert verdict.mode == "exact"


class TestSampled:
    def test_complete_bipartite_never_refuted(self):
        g, view = complete_multipartite([20, 20])
        V1, V2 = view.parts
        verdict = check_regular_sampled(g.submatrix(V1, V2), V1, V2, 0.3, 1.0, trials=500, rng=stream(1, 7))
        assert verdict.status == "undetermined"

    def test_zero_trials_undetermined(self):
        g, view = complete_multipartite([10, 10])
        V1, V2 = view.parts
        verdict = check_regular_sampled(g.submatrix(V1, V2), V1, V2, 0.3, 1.0, trials=0, rng=stream(1, 7))
        assert verdict.status == "undetermined"

    def test_half_dense_refuted_reliably(self):
        g, V1, V2 = half_dense_pair(8)
        for seed in range(5):
            verdict = check_regular_sampled(g.submatrix(V1, V2), V1, V2, 0.4, 1.0, trials=10_000, rng=stream(seed, 7))
            assert verdict.refuted

    def test_witness_is_qualifying_and_violating(self):
        g, V1, V2 = half_dense_pair(8)
        verdict = check_regular_sampled(g.submatrix(V1, V2), V1, V2, 0.4, 1.0, trials=10_000, rng=stream(3, 7))
        w1, w2 = verdict.witness
        assert len(w1) >= math.ceil(0.4 * 8) and len(w2) >= math.ceil(0.4 * 8)
        dev = abs(naive_density(g, w1.tolist(), w2.tolist()) - naive_density(g, V1, V2))
        assert float(dev) > 0.4

    def test_never_contradicts_exact(self):
        rng = stream(37)
        for trial in range(6):
            n = int(rng.integers(6, 9))
            g = gen_gnp(ModelParams(N=2 * n, p=float(rng.uniform(0.3, 0.7)), seed=trial + 50))
            V1, V2 = list(range(n)), list(range(n, 2 * n))
            eps = 0.4
            sampled = check_regular_sampled(g.submatrix(V1, V2), V1, V2, eps, 1.0, trials=5000, rng=stream(trial, 7))
            if sampled.refuted:
                assert check_regular_exact(g, V1, V2, eps, 1.0).refuted

    def test_block_of_another_shape_refused(self):
        g, V1, V2 = half_dense_pair(8)
        with pytest.raises(ValueError, match="block"):
            check_regular_sampled(g.submatrix(V1, V2[:7]), V1, V2, 0.4, 1.0, trials=10, rng=stream(0, 7))

    def test_certify_requires_exact_mode(self):
        with pytest.raises(ValueError):
            RegularityVerdict("certified-regular", 0.0, "sampled")

    def test_tied_draws_still_give_subsets_of_q(self):
        # Each row's 4th smallest draw is tied three ways, so a threshold at
        # it would select six positions; the subsets must still have q = 4.
        class TiedDraws:
            def random(self, shape):
                return np.tile(np.array([0, 0, 0, 1, 1, 1, 2, 2], dtype=float), (shape[0], 1))

        g, V1, V2 = half_dense_pair(8)
        verdict = check_regular_sampled(g.submatrix(V1, V2), V1, V2, 0.4, 0.5, trials=3, rng=TiedDraws())
        assert verdict.refuted
        w1, w2 = verdict.witness
        assert len(w1) == len(w2) == 4
        assert {0, 1, 2} <= set(w1.tolist()) <= {0, 1, 2, 3, 4, 5}
        assert {8, 9, 10} <= set(w2.tolist()) <= {8, 9, 10, 11, 12, 13}
        dev = abs(naive_density(g, w1.tolist(), w2.tolist()) - naive_density(g, V1, V2))
        assert verdict.deviation == pytest.approx(float(dev))


def per_pair_refuter(A, V1, V2, eps, p, trials, rng):
    """The sampled refuter as it ran one pair at a time, each pair drawing
    its own two arrays: the reference a stack of one must reproduce."""
    V1, V2 = np.asarray(V1, dtype=np.int64), np.asarray(V2, dtype=np.int64)
    n1, n2 = len(V1), len(V2)
    q1 = min(n1, max(math.ceil(regularity.SUBSET_FRACTION * n1), math.ceil(eps * n1), 1))
    q2 = min(n2, max(math.ceil(regularity.SUBSET_FRACTION * n2), math.ceil(eps * n2), 1))
    d = float(np.count_nonzero(A)) / (n1 * n2)
    S1 = regularity._smallest(rng.random((trials, n1)), q1)
    S2 = regularity._smallest(rng.random((trials, n2)), q2)
    counts = np.einsum("ij,ij->i", np.matmul(S1, A, dtype=np.float32), S2)
    dev = np.abs(counts / (q1 * q2) - d)
    worst = int(np.argmax(dev))
    if dev[worst] > eps * p + regularity.TOL:
        first = int(np.nonzero(dev > eps * p + regularity.TOL)[0][0])
        witness = (np.sort(V1[S1[first]]), np.sort(V2[S2[first]]))
        return RegularityVerdict("refuted", float(dev[first]), "sampled", witness)
    return RegularityVerdict("undetermined", float(dev[worst]), "sampled")


def verdict_key(v):
    return v.status, repr(v.deviation), None if v.witness is None else tuple(w.tolist() for w in v.witness)


class TestStack:
    def test_stack_of_one_is_the_per_pair_refuter(self):
        # Same verdict, deviation and witness, and the same draws: both
        # streams stand at the same place afterwards.
        rng = stream(59)
        tally = Counter()
        for case in range(60):
            n1, n2 = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            g, V1, V2 = planted_pair(n1, n2, 7000 + case)
            A = g.submatrix(V1, V2)
            eps, p, trials = float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.05, 0.5)), int(rng.integers(1, 120))
            ours, theirs = stream(case, 7), stream(case, 7)
            got = check_regular_sampled(A, V1, V2, eps, p, trials=trials, rng=ours)
            assert verdict_key(got) == verdict_key(per_pair_refuter(A, V1, V2, eps, p, trials, theirs))
            assert np.array_equal(ours.random(4), theirs.random(4))
            tally[got.status] += 1
        assert tally["refuted"] > 5 and tally["undetermined"] > 5

    def test_stack_of_one_is_the_per_pair_refuter_on_tied_draws(self):
        class TiedDraws:
            def random(self, shape):
                return np.tile(np.array([0, 0, 0, 1, 1, 1, 2, 2], dtype=float), (shape[0], 1))

        g, V1, V2 = half_dense_pair(8)
        A = g.submatrix(V1, V2)
        got = check_regular_sampled(A, V1, V2, 0.4, 0.5, trials=3, rng=TiedDraws())
        assert got.refuted
        assert verdict_key(got) == verdict_key(per_pair_refuter(A, V1, V2, 0.4, 0.5, 3, TiedDraws()))

    @staticmethod
    def _mixed_stack():
        """Blocks of many shapes, some sharing a width: a complete or empty
        block (deviation 0 in every subset pair) or one with a planted dense
        quarter at shuffled positions, which a trial refutes with
        probability about 0.07 at n = 8."""
        rng = stream(61)
        blocks, planted = [], []
        for k in range(40):
            n1, n2 = int(rng.integers(6, 11)), int(rng.integers(6, 11))
            kind = int(rng.integers(0, 3))
            A = np.full((n1, n2), kind == 1)
            if kind == 2:
                A[: n1 // 2, : n2 // 2] = True
                A = A[rng.permutation(n1)][:, rng.permutation(n2)]
            blocks.append((A, np.arange(n1), np.arange(100, 100 + n2)))
            planted.append(kind == 2)
        return blocks, planted

    def _refute(self, blocks):
        refuter = regularity.SampledRefuter(0.4, 0.5, 200, stream(3, 7))
        for A, V1, V2 in blocks:
            refuter.add(A, V1, V2)
        return refuter

    def test_mixed_stack_refutes_exactly_the_planted_pairs(self, monkeypatch):
        blocks, planted = self._mixed_stack()
        assert 5 < sum(planted) < len(planted) - 5
        refuter = self._refute(blocks)
        assert refuter.refuted().tolist() == planted
        verdicts = [refuter.verdict(k) for k in range(len(blocks))]
        for (A, V1, V2), verdict in zip(blocks, verdicts):
            if not verdict.refuted:
                assert verdict.deviation == 0.0
                continue
            # The witness is a violating subset pair of the sizes drawn.
            rows, cols = (np.isin(V, w) for V, w in zip((V1, V2), verdict.witness))
            assert rows.sum() == max(math.ceil(0.5 * len(V1)), math.ceil(0.4 * len(V1)))
            assert cols.sum() == max(math.ceil(0.5 * len(V2)), math.ceil(0.4 * len(V2)))
            dev = abs(A[rows][:, cols].mean() - A.mean())
            assert dev > 0.4 * 0.5 and verdict.deviation == pytest.approx(dev, abs=1e-6)
        # Counting each pair on its own moves no verdict.
        monkeypatch.setattr(regularity, "_STACK_CELLS", 1)
        alone = self._refute(blocks)
        assert [verdict_key(alone.verdict(k)) for k in range(len(blocks))] == list(map(verdict_key, verdicts))

    def test_each_side1_width_fills_its_own_stack(self, monkeypatch):
        # Pairs of side-1 widths 6 and 9, interleaved, with the stack size
        # set so that each width's held cells reach it once, at that width's
        # last pair: one product per width, both before a verdict is read.
        rng = stream(62)
        blocks = []
        for k, (n1, n2) in enumerate(zip([6, 9] * 4, [5, 7, 7, 5, 8, 6, 6, 8])):
            A = np.full((n1, n2), k == 4)
            if k % 4 in (1, 2):
                A[: n1 // 2, : n2 // 2] = True
                A = A[rng.permutation(n1)][:, rng.permutation(n2)]
            blocks.append((A, np.arange(n1), np.arange(100, 100 + n2)))
        cells = Counter()
        for A, _, _ in blocks:
            cells[A.shape[0]] += A.size + 200 * A.shape[1]
        monkeypatch.setattr(regularity, "_STACK_CELLS", min(cells.values()))
        products = []

        def spy(a, b):
            products.append(a.shape)
            return exact_product(a, b)

        monkeypatch.setattr(regularity, "exact_product", spy)
        refuter = self._refute(blocks)
        assert sorted(products) == [(200, 6), (200, 9)]
        verdicts = [refuter.verdict(k) for k in range(len(blocks))]
        assert len(products) == 2
        assert [v.refuted for v in verdicts] == [k % 4 in (1, 2) for k in range(len(blocks))]
        monkeypatch.setattr(regularity, "_STACK_CELLS", 1)
        alone = self._refute(blocks)
        assert [verdict_key(alone.verdict(k)) for k in range(len(blocks))] == list(map(verdict_key, verdicts))

    def test_empty_side_refused(self):
        refuter = regularity.SampledRefuter(0.4, 0.5, 10, stream(0, 7))
        with pytest.raises(ValueError, match="no subset"):
            refuter.add(np.zeros((0, 3), dtype=bool), [], [1, 2, 3])
        assert len(refuter) == 0


def planted_pair(n1, n2, seed):
    """G(n1+n2, 0.3) with a complete block planted between the first thirds
    of the two sides; each side is handed over in shuffled order."""
    rng = stream(seed, 5)
    n = n1 + n2
    adj = np.triu(rng.random((n, n)) < 0.3, 1)
    adj[: max(1, n1 // 3), n1 : n1 + max(1, n2 // 3)] = True
    adj = adj | adj.T
    return Graph(adj), np.arange(n1)[rng.permutation(n1)], np.arange(n1, n)[rng.permutation(n2)]


# sha256 over (status, repr(deviation), witness ids) of every call in the grid
# below. Pins the sampled refuter's draws, subsets, counts and witnesses, so an
# optimisation of it must leave this constant as it is.
SAMPLED_GRID_SHA256 = "8a26fb5960c3a70f5edbecdd0bb7a26882189c55e066e41b890f384c39b2fb59"


class TestSampledPinned:
    def test_grid_is_pinned(self):
        h = hashlib.sha256()
        tally = Counter()
        for n1, n2 in [(1, 1), (3, 7), (25, 25), (50, 40), (120, 90)]:
            g, V1, V2 = planted_pair(n1, n2, n1 * 1000 + n2)
            A = g.submatrix(V1, V2)
            # At eps = 0.7 the subset size comes from eps, not SUBSET_FRACTION.
            for eps in (0.3, 0.7):
                for trials in (1, 200):
                    for seed in range(20):
                        v = check_regular_sampled(A, V1, V2, eps, 0.1, trials=trials, rng=stream(seed, 7, n1, n2))
                        w = None if v.witness is None else (v.witness[0].tolist(), v.witness[1].tolist())
                        h.update(repr((v.status, repr(v.deviation), w)).encode())
                        tally[eps, v.status] += 1
        # Both verdicts occur at both eps, so witnesses are covered.
        assert min(tally.values()) > 0 and len(tally) == 4
        assert h.hexdigest() == SAMPLED_GRID_SHA256


class TestLargeSubsetInheritance:
    def test_certified_pair_passes_down(self):
        # A pair certified at eps1 leaves every pair of subsets of fractional
        # size at least eps2 unrefuted at eps1/eps2, with density within
        # eps1 * p of the parent's. Exhausted on near-complete 6+6 pairs,
        # which certify at eps1 = 0.4.
        import itertools

        rng = stream(41)
        eps1, eps2 = 0.4, 0.5
        n = 6
        for missing in (0, 1, 2):
            adj = np.ones((2 * n, 2 * n), dtype=bool)
            adj[:n, :n] = adj[n:, n:] = False
            np.fill_diagonal(adj, False)
            for _ in range(missing):
                u, v = int(rng.integers(0, n)), int(rng.integers(n, 2 * n))
                adj[u, v] = adj[v, u] = False
            g = Graph(adj)
            V1, V2 = list(range(n)), list(range(n, 2 * n))
            verdict = check_regular_exact(g, V1, V2, eps1, 1.0)
            assert verdict.status == "certified-regular"
            d = float(naive_density(g, V1, V2))
            for q1 in range(math.ceil(eps2 * n), n + 1):
                for sub1 in itertools.combinations(V1, q1):
                    for q2 in range(math.ceil(eps2 * n), n + 1):
                        for sub2 in itertools.combinations(V2, q2):
                            subd = float(naive_density(g, sub1, sub2))
                            assert abs(subd - d) <= eps1 * 1.0 + 1e-12
                            inner = check_regular_exact(g, sub1, sub2, eps1 / eps2, 1.0)
                            assert not inner.refuted


class TestNicePartition:
    def test_complete_graph_all_pairs_dense(self):
        params = RegularityParams(epsilon=0.25, p=1.0, d=0.9, mu=0.6, trials=100)
        part = build_nice_partition(complete_graph(60), params, m=4, seed=1)
        assert part.partner_ok
        assert len(part.useful_pairs) == 6

    def test_random_graph_first_equipartition_suffices(self):
        params = RegularityParams(epsilon=0.25, p=0.3, d=0.9, mu=0.6, trials=150)
        for seed in range(3):
            g = gen_gnp(ModelParams(N=2000, p=0.3, seed=seed))
            part = build_nice_partition(g, params, m=4, seed=seed)
            assert part.partner_ok
            assert len(part.useful_pairs) == 6

    def test_covers_vertex_set(self):
        params = RegularityParams(epsilon=0.25, p=0.5, d=0.5, trials=50)
        g = gen_gnp(ModelParams(N=103, p=0.5, seed=5))
        part = build_nice_partition(g, params, m=4, seed=5)
        assert len(part.exceptional) + sum(len(c) for c in part.classes) == 103
        assert len(part.exceptional) == 103 % 4

    def test_planted_partite_structure_visible(self):
        # Classes aligned with the adversary's parts are dense only across
        # parts; the reduced structure over aligned classes misses the
        # intra-part pairs.
        g = gen_gnp(ModelParams(N=240, p=0.5, seed=9))
        thinned, report = adversary_partite(g, 2, 0.0, seed=9)
        classes = []
        size = min(len(p) for p in report.parts) // 2
        for part in report.parts:
            classes.append(part[:size])
            classes.append(part[size : 2 * size])
        view = TupleView(thinned, classes)
        same_part = {(0, 1), (2, 3), (4, 5)}
        for i in range(6):
            for j in range(i + 1, 6):
                dens = float(view.density(i, j))
                if (i, j) in same_part:
                    assert dens == 0.0
                else:
                    assert dens > 0.9 * 0.5 * 0.5

    def test_refuted_pairs_leave_the_equipartition_as_drawn(self):
        # The golden regularity-partition config, where the survey refutes
        # pairs: the classes stay the m drawn ones, and the useful pairs are
        # the unrefuted ones of density at least d*p.
        N, p, m, seed = 80, 0.5, 4, 0
        params = RegularityParams(epsilon=0.2, p=p, d=0.5, trials=30)
        g = gen_gnp(ModelParams(N=N, p=p, seed=seed))
        part = build_nice_partition(g, params, m=m, seed=seed)
        assert [len(c) for c in part.classes] == [N // m] * m
        assert len(part.exceptional) == N % m
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        refuted = {
            (i, j)
            for i, j in pairs
            if check_regular_sampled(
                g.submatrix(part.classes[i], part.classes[j]),
                part.classes[i],
                part.classes[j],
                0.2,
                p,
                trials=30,
                rng=stream(seed, 19, 0, i, j),
            ).refuted
        }
        assert refuted
        assert not refuted & part.useful_pairs
        view = TupleView(g, part.classes)
        dense = {pair for pair in pairs if view.density(*pair) >= params.d * p}
        assert part.useful_pairs == dense - refuted

    def test_survey_holds_one_block_at_a_time(self, acceptance_host, traced_peak):
        # The acceptance trial's survey of the r = 0.1 thinned host holds one
        # class-pair gather and the refuter's draws at a time (2.2 MB); with
        # the 15 blocks cached in a TupleView it peaked at 5.8 MB.
        thinned, _ = adversary_random(acceptance_host, 0.1, seed=0)
        params = RegularityParams(epsilon=0.25, p=0.35, d=2 / 3, mu=2 / 3)
        part, peak = traced_peak(lambda: build_nice_partition(thinned, params, m=6, seed=0))
        assert part.partner_ok
        assert peak <= 4 * 2**20

    def test_int_quotient_is_the_exact_density_rounded(self):
        # The survey compares edges / size**2, a correctly rounded int
        # quotient, where it compared float(Fraction(edges, size**2)): both
        # are the double nearest the exact density, so no decision moves.
        rng = stream(3, 0)
        for size in (1, 7, 500, 2000, 46340):
            for edges in rng.integers(0, size * size + 1, size=200).tolist() + [0, size * size]:
                assert edges / (size * size) == float(Fraction(edges, size * size))

    def test_one_gather_per_class_pair(self, gathers):
        # Every pair is dense here, and its refuter reads the block its
        # density was counted from, so the survey gathers each of the
        # m(m-1)/2 pairs once.
        g = gen_gnp(ModelParams(N=120, p=0.5, seed=3))
        part = build_nice_partition(g, RegularityParams(epsilon=0.25, p=0.5, d=0.5, trials=30), m=5, seed=3)
        assert len(part.useful_pairs) == 10
        assert gathers == [(24, 24)] * 10

    def test_requires_enough_vertices(self):
        params = RegularityParams(epsilon=0.3, p=0.5)
        with pytest.raises(ValueError):
            build_nice_partition(complete_graph(3), params, m=5, seed=0)

    @staticmethod
    def _record_refuter_calls(monkeypatch):
        """Route the survey's refuter through a recorder of its (V1, V2) pairs."""
        calls = []
        refute = regularity.check_regular_sampled

        def recorder(A, V1, V2, *args, **kwargs):
            calls.append((tuple(V1), tuple(V2)))
            return refute(A, V1, V2, *args, **kwargs)

        monkeypatch.setattr(regularity, "check_regular_sampled", recorder)
        return calls

    def test_only_dense_pairs_are_refuted(self, monkeypatch):
        # d*p sits strictly between the smallest and the largest pair density
        # of the drawn classes, so the survey meets both kinds of pair.
        N, p, m, seed = 120, 0.5, 5, 4
        g = gen_gnp(ModelParams(N=N, p=p, seed=seed))
        classes = build_nice_partition(g, RegularityParams(epsilon=0.25, p=p, trials=30), m=m, seed=seed).classes
        view = TupleView(g, classes)
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        dens = {pair: float(view.density(*pair)) for pair in pairs}
        lo, hi = min(dens.values()), max(dens.values())
        assert lo < hi
        params = RegularityParams(epsilon=0.25, p=p, d=(lo + hi) / 2 / p, trials=30)
        calls = self._record_refuter_calls(monkeypatch)
        part = build_nice_partition(g, params, m=m, seed=seed)
        dense = [pair for pair in pairs if dens[pair] >= params.d * p]
        assert 0 < len(dense) < len(pairs)
        assert calls == [(tuple(classes[i]), tuple(classes[j])) for i, j in dense]
        assert part.useful_pairs <= set(dense)

    def test_knee_host_makes_no_refuter_call(self, monkeypatch):
        # At r = 0.45 every pair density falls near p*(1 - r) < d*p, so the
        # survey refuses the partition without drawing a single refuter stream.
        p = 0.35
        thinned, _ = adversary_random(gen_gnp(ModelParams(N=600, p=p, seed=0)), 0.45, seed=0)
        calls = self._record_refuter_calls(monkeypatch)
        params = RegularityParams(epsilon=0.25, p=p, d=2 / 3, mu=2 / 3)
        part = build_nice_partition(thinned, params, m=6, seed=0)
        assert calls == []
        assert part.useful_pairs == frozenset()
        assert part.partner_ok is False


class TestParams:
    @pytest.mark.parametrize(
        "field, value",
        [("p", 0.0), ("p", -0.1), ("p", 1.5), ("mu", -0.1), ("mu", 1.1), ("trials", -1)],
    )
    def test_impossible_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            RegularityParams(**{"epsilon": 0.2, "p": 0.5, field: value})

    @pytest.mark.parametrize("field, value", [("p", 1.0), ("mu", 0.0), ("mu", 1.0), ("trials", 0)])
    def test_boundary_values_accepted(self, field, value):
        RegularityParams(**{"epsilon": 0.2, "p": 0.5, field: value})


class TestInheritanceStats:
    def test_complete_parent_fraction_one(self):
        g, view = complete_multipartite([30, 30])
        frac = inheritance_stats(g, view.parts[0], view.parts[1], 10, 10, 0.3, 1.0, samples=50, seed=1)
        assert frac == 1.0

    def test_empty_parent_fraction_one(self):
        g = empty_graph(40)
        frac = inheritance_stats(g, range(20), range(20, 40), 8, 8, 0.3, 1.0, samples=50, seed=1)
        assert frac == 1.0

    def test_no_sample_refused(self):
        # samples = 0 used to return a fraction of 1.0: a pass that tested
        # nothing.
        g, view = complete_multipartite([30, 30])
        with pytest.raises(ValueError, match="^samples must be at least 1, got 0"):
            inheritance_stats(g, view.parts[0], view.parts[1], 10, 10, 0.3, 1.0, samples=0, seed=1)

    def test_dense_random_parent_mostly_inherits(self):
        g, view = gen_blowup(complete_graph(2), 200, 0.5, seed=11)
        frac = inheritance_stats(
            g, view.parts[0], view.parts[1], 60, 60, 0.3, 0.5, samples=200, seed=2
        )
        assert frac >= 0.9

    def test_inherited_chunk_pairs_rarely_refuted(self):
        # Chunks of a dense random bipartite pair stay unrefuted at eps'.
        refuted = total = 0
        for seed in range(10):
            g, view = gen_blowup(complete_graph(2), 120, 0.5, seed)
            rng = stream(seed, 71)
            for _ in range(3):
                q1 = view.parts[0][rng.permutation(120)[:40]]
                q2 = view.parts[1][rng.permutation(120)[:40]]
                verdict = check_regular_sampled(g.submatrix(q1, q2), q1, q2, 0.25, 0.5, trials=300, rng=stream(seed, 7))
                total += 1
                refuted += verdict.refuted
        assert refuted / total <= 0.05
