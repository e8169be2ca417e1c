import hashlib
import itertools
import math

import numpy as np
import pytest

from powercycle.graph_core import (
    CliqueSet,
    Graph,
    TupleView,
    complete_graph,
    complete_multipartite,
    enumerate_canonical_cliques,
)
from powercycle.models import gen_blowup, stream
from powercycle.typicality import TypicalityParams
from powercycle.expansion import (
    ExpansionParams,
    PreconditionError,
    expand_step,
    expand_through,
    find_expander,
    halving_audit,
    one_step_expansion_audit,
    reconstruct_path,
    reference_count,
)

from powercycle.oracles import bitset_expand_once, naive_expand_step


def path_power_blowup(windows, k, n, p, seed):
    edges = [
        (i, j) for i in range(windows) for j in range(i + 1, min(i + k, windows - 1) + 1)
    ]
    pattern = Graph.from_edges(windows, edges)
    return gen_blowup(pattern, n, p, seed)


def unequal_blowup(parts, seed):
    """Blow-up of K_parts with part sizes drawn from 2..6, so no two window
    axes of a frontier need have the same length."""
    rng = stream(seed, 89)
    sizes = [int(x) for x in rng.integers(2, 7, size=parts)]
    _, view = gen_blowup(complete_graph(parts), max(sizes), float(rng.uniform(0.4, 0.9)), seed)
    return TupleView(view.graph, [view.parts[i][: sizes[i]] for i in range(parts)])


def random_start(view, k, count, seed):
    full = enumerate_canonical_cliques(view, 0, k).sorted()
    rng = stream(seed, 97)
    picks = rng.choice(len(full), size=min(count, len(full)), replace=False)
    return CliqueSet(0, k, frozenset(full[int(i)] for i in picks))


class TestExpandStep:
    def test_empty_start(self):
        _, view = complete_multipartite([3, 3, 3])
        assert len(expand_step(CliqueSet(0, 2, frozenset()), view)) == 0

    def test_complete_window_reaches_everything(self):
        _, view = complete_multipartite([3, 3, 3])
        start = enumerate_canonical_cliques(view, 0, 2)
        reached = expand_step(start, view)
        assert reached.members == enumerate_canonical_cliques(view, 1, 2).members

    def test_single_missing_edge_instance(self):
        # Parts {a,b},{c,d},{e,f} with the c-e edge removed: from start {(a,c)}
        # the only reached pair is (c,f).
        g, view = complete_multipartite([2, 2, 2])
        adj = g.adj.copy()
        adj[2, 4] = adj[4, 2] = False
        cut = TupleView(Graph(adj), view.parts)
        reached = expand_step(CliqueSet(0, 2, frozenset([(0, 2)])), cut)
        oracle = naive_expand_step(cut, CliqueSet(0, 2, frozenset([(0, 2)])))
        assert reached.members == oracle == frozenset([(2, 5)])

    def test_matches_brute_force_projection(self):
        rng = stream(61)
        for trial in range(25):
            k = int(rng.integers(1, 4))
            t = k + 1 + int(rng.integers(0, 2))
            n = int(rng.integers(2, 6))
            _, view = gen_blowup(complete_graph(t), n, float(rng.uniform(0.3, 0.9)), trial)
            full = enumerate_canonical_cliques(view, 0, k).sorted()
            if not full:
                continue
            picks = rng.choice(len(full), size=max(1, len(full) // 2), replace=False)
            start = CliqueSet(0, k, frozenset(full[int(i)] for i in picks))
            assert expand_step(start, view).members == naive_expand_step(view, start)

    def test_monotone_in_start_set(self):
        rng = stream(67)
        _, view = gen_blowup(complete_graph(3), 12, 0.5, seed=5)
        full = enumerate_canonical_cliques(view, 0, 2).sorted()
        for _ in range(10):
            large = rng.choice(len(full), size=len(full) // 2, replace=False)
            small = large[: len(large) // 2]
            big_set = CliqueSet(0, 2, frozenset(full[int(i)] for i in large))
            small_set = CliqueSet(0, 2, frozenset(full[int(i)] for i in small))
            assert expand_step(small_set, view).members <= expand_step(big_set, view).members

    def test_never_exceeds_next_window_ceiling(self):
        _, view = gen_blowup(complete_graph(4), 10, 0.7, seed=6)
        start = enumerate_canonical_cliques(view, 0, 3)
        reached = expand_step(start, view)
        assert reached.members <= enumerate_canonical_cliques(view, 1, 3).members

    def test_window_overflow(self):
        _, view = complete_multipartite([3, 3])
        with pytest.raises(IndexError):
            expand_step(CliqueSet(0, 2, frozenset([(0, 3)])), view)

    @pytest.mark.parametrize("bad", [(4, 6), (0, 12), (-1, 3)])
    def test_member_outside_its_part_raises(self, bad):
        # Parts {0,1,2}, {3,4,5}, {6,7,8}, {9,10,11}: each bad member has a
        # vertex outside its window's part (another part, or no part at all).
        _, view = complete_multipartite([3] * 4)
        start = CliqueSet(0, 2, frozenset([(0, 3), bad]))
        with pytest.raises(IndexError):
            expand_step(start, view)
        with pytest.raises(IndexError):
            expand_through(start, view, 2)
        with pytest.raises(IndexError):
            find_expander(start, view, 4, ExpansionParams(k=2, delta=0.02))


class TestDenseKernelAgainstBitsetStep:
    """The dense frontier step against the dict-and-bitmask step it replaced:
    the same reached copies, and for each the same predecessor (lowest valid
    head)."""

    @pytest.mark.parametrize(
        "k,kind",
        [
            (k, kind)
            for k in (1, 2, 3, 4)
            for kind in ("empty", "single", "full", "half", "non-clique")
            if (k, kind) != (1, "non-clique")  # a single vertex is always a clique
        ],
    )
    def test_same_reach_and_predecessors(self, k, kind):
        rng = stream(83, k)
        for seed in range(4):
            window = seed % 2
            view = unequal_blowup(k + 2, seed)
            full = enumerate_canonical_cliques(view, window, k).sorted()
            if kind == "empty":
                members = []
            elif kind == "single":
                members = full[:1]
            elif kind == "full":
                members = full
            else:
                members = [full[int(i)] for i in rng.permutation(len(full))[: len(full) // 2]]
            if kind == "non-clique":
                cliques = set(full)
                product = itertools.product(*(view.parts[window + a].tolist() for a in range(k)))
                members.append(next(c for c in product if c not in cliques))
            start = CliqueSet(window, k, frozenset(members))
            reached, predecessor = bitset_expand_once(view, start)
            trace = expand_through(start, view, window + 1, keep_bp=True)
            assert trace.final.members == reached == expand_step(start, view).members
            for c in reached:
                path = reconstruct_path(window, trace.back_pointers, c)
                assert tuple(path[:k]) == predecessor[c]


class TestExpandThrough:
    def test_zero_steps_returns_start(self):
        _, view = complete_multipartite([3, 3, 3])
        start = enumerate_canonical_cliques(view, 0, 2)
        trace = expand_through(start, view, 0)
        assert trace.final.members == start.members
        assert trace.counts == [len(start)]

    def test_complete_multipartite_full_reach(self):
        _, view = complete_multipartite([3] * 6)
        start = enumerate_canonical_cliques(view, 0, 2)
        trace = expand_through(start, view, 4)
        assert trace.fractions == [1.0] * 5

    def test_main_expansion_bound_on_blowups(self):
        # 2k-window path-power blow-ups: a delta fraction of the first block
        # reaches at least 1 - 10 delta of the last.
        k, n, p, delta = 2, 50, 0.6, 0.05
        params = ExpansionParams(k=k, delta=delta)
        hits = 0
        for seed in range(10):
            _, view = path_power_blowup(2 * k, k, n, p, seed)
            x_start = reference_count(view, 0, k)
            start = random_start(view, k, math.ceil(delta * x_start), seed)
            trace = expand_through(start, view, k)
            hits += trace.final_fraction >= 1 - 10 * delta
        assert hits >= 9

    def test_back_pointers_give_valid_power_path(self):
        k = 3
        g, view = path_power_blowup(2 * k, k, 12, 0.8, seed=9)
        start = random_start(view, k, 10, seed=9)
        trace = expand_through(start, view, k, keep_bp=True)
        assert trace.final.members
        final = trace.final.sorted()[0]
        path = reconstruct_path(0, trace.back_pointers, final)
        assert len(path) == 2 * k
        assert tuple(path[:k]) in start.members
        assert tuple(path[-k:]) == final
        for i in range(len(path) - k):
            chunk = path[i : i + k + 1]
            for a in range(len(chunk)):
                for b in range(a + 1, len(chunk)):
                    assert g.has_edge(chunk[a], chunk[b])

    def test_unreached_final_clique_raises_key_error(self):
        # A copy of the final window that is a clique but that the start set
        # does not reach has no predecessor chain, one step or several back.
        g, view = complete_multipartite([2, 2, 2])
        adj = g.adj.copy()
        adj[2, 4] = adj[4, 2] = False
        cut = TupleView(Graph(adj), view.parts)
        one = expand_through(CliqueSet(0, 2, frozenset([(0, 2)])), cut, 1, keep_bp=True)
        assert one.final.members == frozenset([(2, 5)])
        with pytest.raises(KeyError):
            reconstruct_path(0, one.back_pointers, (3, 5))
        k = 3
        _, view = path_power_blowup(2 * k, k, 12, 0.8, seed=9)
        trace = expand_through(random_start(view, k, 10, seed=9), view, k, keep_bp=True)
        missed = enumerate_canonical_cliques(view, k, k).members - trace.final.members
        assert missed
        with pytest.raises(KeyError):
            reconstruct_path(0, trace.back_pointers, min(missed))


class TestFindExpander:
    def test_complete_multipartite_first_clique_works(self):
        _, view = complete_multipartite([4] * 6)
        start = enumerate_canonical_cliques(view, 0, 2)
        res = find_expander(start, view, 6, ExpansionParams(k=2, delta=0.02), keep_bp=True)
        assert res.found and res.fraction == 1.0
        assert res.clique == start.sorted()[0]

    def test_singleton_start_returns_it(self):
        _, view = complete_multipartite([3] * 4)
        only = enumerate_canonical_cliques(view, 0, 2).sorted()[0]
        res = find_expander(CliqueSet(0, 2, frozenset([only])), view, 4, ExpansionParams(k=2, delta=0.02))
        assert res.found and res.clique == only

    def test_not_found_carries_best(self):
        # Sever the last window: nothing can reach it.
        g, view = complete_multipartite([3] * 4)
        adj = g.adj.copy()
        last = view.parts[3]
        adj[:, last] = False
        adj[last, :] = False
        dead = TupleView(Graph(adj), view.parts)
        start = enumerate_canonical_cliques(dead, 0, 2)
        res = find_expander(start, dead, 4, ExpansionParams(k=2, delta=0.02))
        assert not res.found
        assert res.best_fraction == 0.0 and res.clique is None

    def test_blowup_run_at_logarithmic_window_count(self):
        # windows = ceil(3 k^2 log N) solves to 100 for n = 40 per window,
        # which is the regime where the halving search bottoms out to a
        # singleton before the scan.
        k, n, p, delta, windows = 2, 40, 0.7, 0.02, 100
        params = ExpansionParams(k=k, delta=delta)
        assert windows >= 3 * k * k * math.log(n * windows)
        hits = 0
        for seed in range(3):
            _, view = path_power_blowup(windows, k, n, p, seed)
            x_start = reference_count(view, 0, k)
            start = random_start(view, k, math.ceil(delta * x_start), seed)
            res = find_expander(start, view, windows, params)
            assert not res.warn_short_ell
            hits += res.found and res.fraction >= 1 - 20 * k * delta
        assert hits == 3

    # (windows, k, n, p, delta, seed) -> (clique, scanned, bisection_rounds,
    # fraction, sha256 of repr(reach.sorted()), reconstructed path of the first
    # reach member); a not-found case pins best_fraction in place of fraction.
    PINNED = [
        (
            (8, 2, 22, 0.35, 0.006, 1),
            ((0, 32), 6, 2, 0.7619047619047619,
             "db12b233aace6b2d6a49acb70c0cffd12a50ed537df8f33cdef85af64eed8e05",
             [0, 32, 53, 73, 108, 113, 132, 156]),
        ),
        (
            (12, 3, 10, 0.6, 0.01, 1),
            ((0, 11, 23), 1, 2, 0.6729056298474488,
             "b35833d67be7f53725e0df2e9f135602d58950324d705ced718ed982d6faf866",
             [0, 11, 23, 32, 41, 50, 66, 72, 81, 90, 101, 110]),
        ),
        ((12, 3, 10, 0.5, 0.01, 4), (None, 79, 1, 0.24707996406109609, None, None)),
    ]

    @pytest.mark.parametrize("config,expected", PINNED)
    def test_pinned_search(self, config, expected):
        windows, k, n, p, delta, seed = config
        clique, scanned, rounds, fraction, digest, path = expected
        _, view = path_power_blowup(windows, k, n, p, seed)
        start = enumerate_canonical_cliques(view, 0, k)
        params = ExpansionParams(k=k, delta=delta)
        res = find_expander(start, view, windows, params, keep_bp=True)
        assert (res.clique, res.scanned, res.bisection_rounds) == (clique, scanned, rounds)
        if clique is None:
            assert not res.found and res.best_fraction == fraction
            return
        assert res.found and res.fraction == fraction
        members = res.reach.sorted()
        assert hashlib.sha256(repr(members).encode()).hexdigest() == digest
        assert reconstruct_path(0, res.back_pointers, members[0]) == path

    @pytest.mark.parametrize("config", [c for c, _ in PINNED])
    def test_dense_start_equals_clique_set_start(self, config):
        # The dense frontier a zero-step trace hands back is a start of its
        # own: the search, its counters and its reach are the same.
        windows, k, n, p, delta, seed = config
        _, view = path_power_blowup(windows, k, n, p, seed)
        start = enumerate_canonical_cliques(view, 0, k)
        dense = expand_through(start, view, 0).frontier
        assert dense.dtype == bool and dense.shape == view.sizes[:k]
        params = ExpansionParams(k=k, delta=delta)
        a = find_expander(start, view, windows, params, keep_bp=True)
        b = find_expander(dense, view, windows, params, keep_bp=True)
        fields = ("found", "clique", "scanned", "bisection_rounds", "fraction", "best_fraction")
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
        if not a.found:
            assert a.reach is b.reach is None and a.frontier is b.frontier is None
            return
        assert np.array_equal(a.frontier, b.frontier)
        assert a.reach.members == b.reach.members
        first = a.reach.sorted()[0]
        assert reconstruct_path(0, a.back_pointers, first) == reconstruct_path(0, b.back_pointers, first)

    def test_dense_start_checks_order_dtype_and_shape(self):
        _, view = complete_multipartite([3, 4, 3, 4, 3, 4])
        params = ExpansionParams(k=2, delta=0.02)
        dense = expand_through(enumerate_canonical_cliques(view, 0, 2), view, 0).frontier
        assert find_expander(dense, view, 6, params).found
        with pytest.raises(ValueError, match="order 3, params expect 2"):
            find_expander(dense[..., None], view, 6, params)
        with pytest.raises(ValueError, match="order 1, params expect 2"):
            find_expander(dense[0], view, 6, params)
        with pytest.raises(TypeError, match="bool"):
            find_expander(dense.astype(np.uint8), view, 6, params)
        with pytest.raises(IndexError, match="shape"):
            find_expander(dense.T, view, 6, params)
        with pytest.raises(IndexError, match="shape"):
            find_expander(dense[:2], view, 6, params)
        with pytest.raises(IndexError, match="shape"):
            expand_through(dense[:, :3], view, 2)

    def test_frontiers_are_read_only(self):
        # A found result's frontier is also its last predecessor layer's
        # reach and the next round's start, so writing to it must fail
        # rather than change a path reconstructed later.
        _, view = complete_multipartite([3, 4, 3, 4, 3, 4])
        start = enumerate_canonical_cliques(view, 0, 2)
        res = find_expander(start, view, 6, ExpansionParams(k=2, delta=0.02), keep_bp=True)
        assert res.frontier is res.back_pointers[-1][3]
        with pytest.raises(ValueError, match="read-only"):
            res.frontier[0, 0] = False
        dense = np.ones(view.sizes[:2], dtype=bool)
        with pytest.raises(ValueError, match="read-only"):
            expand_through(dense, view, 0).frontier[0, 0] = False
        assert dense.flags.writeable

    def test_requires_search_regime_delta(self):
        _, view = complete_multipartite([3] * 4)
        start = enumerate_canonical_cliques(view, 0, 2)
        with pytest.raises(ValueError, match="1/\\(20k\\)"):
            find_expander(start, view, 4, ExpansionParams(k=2, delta=0.1))

    def test_requires_enough_windows(self):
        _, view = complete_multipartite([3] * 3)
        start = enumerate_canonical_cliques(view, 0, 2)
        with pytest.raises(ValueError, match="windows"):
            find_expander(start, view, 3, ExpansionParams(k=2, delta=0.02))

    def test_short_run_flagged(self):
        _, view = complete_multipartite([4] * 6)
        start = enumerate_canonical_cliques(view, 0, 2)
        res = find_expander(start, view, 6, ExpansionParams(k=2, delta=0.02))
        assert res.warn_short_ell  # 6 windows is far below 3 k^2 log N


class TestHalving:
    def test_split_always_has_good_half(self):
        # Reach is a union over the halves, so the better half of any split
        # carries at least half the start's reach.
        k, delta = 2, 0.01
        params = ExpansionParams(k=k, delta=delta)
        qualifying = 0
        for seed in range(12):
            _, view = path_power_blowup(2 * k, k, 50, 0.6, seed)
            x_start = reference_count(view, 0, k)
            start = random_start(view, k, max(2, math.ceil(delta * x_start)), seed)
            audit = halving_audit(start, view, params, n_splits=4, seed=seed)
            if audit["start_qualifies"]:
                qualifying += 1
                assert audit["all_ok"]
        assert qualifying >= 10


class TestOneStepAudit:
    def _typ(self, p):
        return TypicalityParams(epsilon=0.45, delta=0.45, p=p, trials=100)

    def test_full_start_full_reach(self):
        _, view = complete_multipartite([5, 5, 5])
        frac = one_step_expansion_audit(view, 1.0, ExpansionParams(k=2, delta=0.1), self._typ(1.0), seed=1)
        assert frac == 1.0

    def test_empty_start(self):
        _, view = complete_multipartite([5, 5, 5])
        frac = one_step_expansion_audit(view, 0.0, ExpansionParams(k=2, delta=0.1), self._typ(1.0), seed=1)
        assert frac == 0.0

    def test_lemma_bound_on_blowups(self):
        k, n, p, kappa, delta = 2, 60, 0.6, 0.3, 0.1
        bound = kappa - 3 * kappa * delta - 6 * delta
        hits = 0
        for seed in range(10):
            _, view = gen_blowup(complete_graph(k + 1), n, p, seed)
            frac = one_step_expansion_audit(
                view, kappa, ExpansionParams(k=k, delta=delta), self._typ(p), seed=seed
            )
            hits += frac >= bound
        assert hits >= 9

    def test_refuses_damaged_tuple_naming_condition(self):
        g, view = complete_multipartite([6, 6, 6])
        adj = g.adj.copy()
        adj[np.ix_(view.parts[0], view.parts[1])] = False
        adj[np.ix_(view.parts[1], view.parts[0])] = False
        damaged = TupleView(Graph(adj), view.parts)
        with pytest.raises(PreconditionError) as err:
            one_step_expansion_audit(
                damaged, 0.5, ExpansionParams(k=2, delta=0.1), self._typ(1.0), seed=1
            )
        assert err.value.failing

    def test_wrong_tuple_size(self):
        _, view = complete_multipartite([4, 4, 4, 4])
        with pytest.raises(ValueError):
            one_step_expansion_audit(view, 0.5, ExpansionParams(k=2, delta=0.1), self._typ(1.0), seed=1)


class TestParamsAndFormats:
    def test_delta_range(self):
        with pytest.raises(ValueError):
            ExpansionParams(k=2, delta=0.0)
        with pytest.raises(ValueError):
            ExpansionParams(k=2, delta=1.0)

    def test_reference_count_is_the_measured_count(self):
        _, view = complete_multipartite([4, 5, 6])
        assert reference_count(view, 0, 2) == 20.0
