import hashlib
import math

import numpy as np
import pytest

from powercycle.graph_core import (
    Graph,
    TupleView,
    complete_graph,
    complete_multipartite,
    enumerate_canonical_cliques,
    frontier_members,
    pick_frontier,
    window_cliques,
)
from powercycle.models import gen_blowup, stream
from powercycle.typicality import TypicalityParams
from powercycle import expansion
from powercycle.expansion import (
    ExpansionParams,
    PreconditionError,
    expand_through,
    find_expander,
    halving_audit,
    one_step_expansion_audit,
    reconstruct_path,
    reference_count,
)

from powercycle.oracles import literal_expand_once, naive_expand_step


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
    full = window_cliques(view, 0, k)
    positions = np.nonzero(full)
    size = len(positions[0])
    picks = stream(seed, 97).choice(size, size=min(count, size), replace=False)
    return pick_frontier(full.shape, positions, picks)


def one_step(view, start):
    """The copies a dense start reaches in one window step, as vertex tuples."""
    return frozenset(frontier_members(view, expand_through(start, view, 1).frontier, 1))


class TestExpandStep:
    def test_empty_start(self):
        _, view = complete_multipartite([3, 3, 3])
        assert one_step(view, np.zeros(view.sizes[:2], dtype=bool)) == frozenset()

    def test_complete_window_reaches_everything(self):
        _, view = complete_multipartite([3, 3, 3])
        reached = expand_through(window_cliques(view, 0, 2), view, 1).frontier
        assert np.array_equal(reached, window_cliques(view, 1, 2))

    def test_single_missing_edge_instance(self):
        # Parts {a,b},{c,d},{e,f} with the c-e edge removed: from start {(a,c)}
        # the only reached pair is (c,f).
        g, view = complete_multipartite([2, 2, 2])
        adj = g.adj.copy()
        adj[2, 4] = adj[4, 2] = False
        cut = TupleView(Graph(adj), view.parts)
        start = np.zeros((2, 2), dtype=bool)
        start[0, 0] = True  # the copy (0, 2)
        assert one_step(cut, start) == naive_expand_step(cut, start) == frozenset([(2, 5)])

    def test_matches_brute_force_projection(self):
        rng = stream(61)
        for trial in range(25):
            k = int(rng.integers(1, 4))
            t = k + 1 + int(rng.integers(0, 2))
            n = int(rng.integers(2, 6))
            _, view = gen_blowup(complete_graph(t), n, float(rng.uniform(0.3, 0.9)), trial)
            full = window_cliques(view, 0, k)
            positions = np.nonzero(full)
            size = len(positions[0])
            if not size:
                continue
            picks = rng.choice(size, size=max(1, size // 2), replace=False)
            start = pick_frontier(full.shape, positions, picks)
            assert one_step(view, start) == naive_expand_step(view, start)

    def test_monotone_in_start_set(self):
        rng = stream(67)
        _, view = gen_blowup(complete_graph(3), 12, 0.5, seed=5)
        full = window_cliques(view, 0, 2)
        positions = np.nonzero(full)
        size = len(positions[0])
        for _ in range(10):
            large = rng.choice(size, size=size // 2, replace=False)
            small = large[: len(large) // 2]
            big_set = pick_frontier(full.shape, positions, large)
            small_set = pick_frontier(full.shape, positions, small)
            assert one_step(view, small_set) <= one_step(view, big_set)

    def test_never_exceeds_next_window_ceiling(self):
        _, view = gen_blowup(complete_graph(4), 10, 0.7, seed=6)
        reached = expand_through(window_cliques(view, 0, 3), view, 1).frontier
        assert not (reached & ~window_cliques(view, 1, 3)).any()

    def test_window_overflow(self):
        _, view = complete_multipartite([3, 3])
        start = np.zeros(view.sizes, dtype=bool)
        start[0, 0] = True
        with pytest.raises(IndexError):
            expand_through(start, view, 1)

    @pytest.mark.parametrize("bad", [(3, 0), (0, 3), (-1, 0), (0, -1), (0,), (0, 0, 0)])
    def test_member_outside_its_part_raises(self, bad):
        # The one-step trace ends on parts {0,1,2}, {3,4,5}, a frontier of
        # shape (3, 3): each bad copy has a position past the end of its part
        # on one axis, a negative one (which numpy would read from the end),
        # or the wrong number of axes.
        g, view = complete_multipartite([3] * 4)
        shifted = TupleView(g, [view.parts[3], view.parts[0], view.parts[1]])
        trace = expand_through(window_cliques(shifted, 0, 2), shifted, 1)
        assert reconstruct_path(trace, (0, 0)) == [9, 0, 3]
        assert reconstruct_path(trace, (2, 2)) == [9, 2, 5]
        with pytest.raises(IndexError):
            reconstruct_path(trace, bad)


class TestDenseKernelAgainstBitsetStep:
    """The dense frontier step against the same rule in plain loops,
    ``literal_expand_once``: the same reached copies, and for each the same
    predecessor (lowest valid head). The class is named for the bitmask step
    of that rule, the oracle before this one."""

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
            view = unequal_blowup(k + 2, seed)
            if seed % 2:
                # Odd seeds drop the first part, so the start's window is
                # parts 1..k of the blow-up.
                view = TupleView(view.graph, view.parts[1:])
            cliques = window_cliques(view, 0, k)
            positions = np.nonzero(cliques)
            size = len(positions[0])
            if kind == "empty":
                picks = slice(0)
            elif kind == "single":
                picks = slice(1)
            elif kind == "full":
                picks = slice(None)
            else:
                picks = rng.permutation(size)[: size // 2]
            start = pick_frontier(cliques.shape, positions, picks)
            if kind == "non-clique":
                start[tuple(np.argwhere(~cliques)[0])] = True
            reached, predecessor = literal_expand_once(view, start)
            trace = expand_through(start, view, 1)
            assert frozenset(frontier_members(view, trace.frontier, 1)) == reached
            # The projection oracle rechecks adjacency inside each member and
            # the kernel does not, so the two oracles differ only on non-clique
            # members: that is why both exist.
            if kind != "non-clique":
                assert reached == naive_expand_step(view, start)
            members = frontier_members(view, trace.frontier, 1)
            for position, c in zip(np.argwhere(trace.frontier), members):
                path = reconstruct_path(trace, position)
                assert tuple(path[1:]) == c
                assert tuple(path[:k]) == predecessor[c]


class TestExpandThrough:
    def test_zero_steps_returns_start(self):
        _, view = complete_multipartite([3, 3, 3])
        start = window_cliques(view, 0, 2)
        trace = expand_through(start, view, 0)
        assert np.array_equal(trace.frontier, start)
        assert len(trace.frontiers) == 1
        assert trace.counts == [np.count_nonzero(start)]
        first = enumerate_canonical_cliques(view, 0, 2)[0]
        assert reconstruct_path(trace, (0, 0)) == list(first)
        assert reconstruct_path(trace, (2, 1)) == [2, 4]
        # With no step to walk back, the copy is returned only when the
        # start holds it.
        only = expand_through(pick_frontier(start.shape, np.nonzero(start), slice(1)), view, 0)
        assert reconstruct_path(only, (0, 0)) == list(first)
        with pytest.raises(KeyError):
            reconstruct_path(only, (2, 1))

    def test_complete_multipartite_full_reach(self):
        _, view = complete_multipartite([3] * 6)
        start = window_cliques(view, 0, 2)
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

    @pytest.mark.parametrize("k", [2, 3])
    def test_reconstructed_paths_are_power_paths(self, k):
        # Every reached copy, on a few seeds: its path is a k-th power of a
        # path that starts in the start set and ends on the copy.
        for seed in (7, 8, 9):
            g, view = path_power_blowup(2 * k, k, 12, 0.8, seed=seed)
            start = random_start(view, k, 10, seed=seed)
            trace = expand_through(start, view, k)
            starts = set(frontier_members(view, start, 0))
            members = frontier_members(view, trace.frontier, k)
            assert members
            for position, final in zip(np.argwhere(trace.frontier), members):
                path = reconstruct_path(trace, position)
                assert len(path) == 2 * k
                assert tuple(path[:k]) in starts
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
        start = np.zeros((2, 2), dtype=bool)
        start[0, 0] = True  # the copy (0, 2)
        one = expand_through(start, cut, 1)
        assert frontier_members(cut, one.frontier, 1) == [(2, 5)]
        assert reconstruct_path(one, (0, 1)) == [0, 2, 5]
        with pytest.raises(KeyError):
            reconstruct_path(one, (1, 1))  # the clique (3, 5)
        k = 3
        _, view = path_power_blowup(2 * k, k, 12, 0.8, seed=9)
        trace = expand_through(random_start(view, k, 10, seed=9), view, k)
        missed = np.argwhere(window_cliques(view, k, k) & ~trace.frontier)
        assert len(missed)
        with pytest.raises(KeyError):
            reconstruct_path(trace, missed[0])


class TestFindExpander:
    def test_complete_multipartite_first_clique_works(self):
        _, view = complete_multipartite([4] * 6)
        res = find_expander(window_cliques(view, 0, 2), view, 6, ExpansionParams(k=2, delta=0.02))
        assert res.found and res.trace.final_fraction == 1.0
        assert res.position == (0, 0)

    def test_singleton_start_returns_it(self):
        _, view = complete_multipartite([3] * 4)
        full = window_cliques(view, 0, 2)
        only = pick_frontier(full.shape, np.nonzero(full), slice(1))
        res = find_expander(only, view, 4, ExpansionParams(k=2, delta=0.02))
        assert res.found and res.position == (0, 0)

    def test_not_found_keeps_no_trace(self):
        # Sever the last window: nothing can reach it.
        g, view = complete_multipartite([3] * 4)
        adj = g.adj.copy()
        last = view.parts[3]
        adj[:, last] = False
        adj[last, :] = False
        dead = TupleView(Graph(adj), view.parts)
        start = window_cliques(dead, 0, 2)
        res = find_expander(start, dead, 4, ExpansionParams(k=2, delta=0.02))
        assert not res.found
        assert res.position is None and res.trace is None

    def test_start_refusal_names_a_zero_reference_count(self):
        # With the first block edgeless the refusal used to read "start set
        # of 0 copies is below delta * x = 0.0".
        g, view = complete_multipartite([3] * 6)
        params = ExpansionParams(k=2, delta=0.02)
        empty = np.zeros_like(window_cliques(view, 0, 2))
        with pytest.raises(ValueError, match=r"^start set of 0 copies is below delta \* x = 0\.2$"):
            find_expander(empty, view, 6, params)
        adj = g.adj.copy()
        adj[np.ix_(view.parts[0], view.parts[1])] = False
        adj[np.ix_(view.parts[1], view.parts[0])] = False
        severed = TupleView(Graph(adj), view.parts)
        assert reference_count(severed, 0, 2) == 0
        with pytest.raises(ValueError, match=r"^the first block's reference count is 0\.0, so no start set"):
            find_expander(window_cliques(severed, 0, 2), severed, 6, params)

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
            hits += res.found and res.trace.final_fraction >= 1 - 20 * k * delta
        assert hits == 3

    # (windows, k, n, p, delta, seed) -> (winner's vertex ids, scanned, bisection_rounds,
    # trace.final_fraction, sha256 of the repr of the final frontier's members
    # in lexicographic order, reconstructed path of the first reach member);
    # a not-found case pins only the first three.
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
        ((12, 3, 10, 0.5, 0.01, 4), (None, 79, 1, None, None, None)),
    ]

    @pytest.mark.parametrize("config,expected", PINNED)
    def test_pinned_search(self, config, expected):
        windows, k, n, p, delta, seed = config
        clique, scanned, rounds, fraction, digest, path = expected
        _, view = path_power_blowup(windows, k, n, p, seed)
        params = ExpansionParams(k=k, delta=delta)
        res = find_expander(window_cliques(view, 0, k), view, windows, params)
        ids = None if res.position is None else tuple(int(view.parts[a][p]) for a, p in enumerate(res.position))
        assert (ids, res.scanned, res.bisection_rounds) == (clique, scanned, rounds)
        if clique is None:
            assert not res.found and res.trace is None
            return
        assert res.found and res.trace.final_fraction == fraction
        members = frontier_members(view, res.trace.frontier, windows - k)
        assert hashlib.sha256(repr(members).encode()).hexdigest() == digest
        assert reconstruct_path(res.trace, np.argwhere(res.trace.frontier)[0]) == path

    def test_dense_start_checks_order_dtype_and_shape(self):
        _, view = complete_multipartite([3, 4, 3, 4, 3, 4])
        params = ExpansionParams(k=2, delta=0.02)
        dense = window_cliques(view, 0, 2)
        assert find_expander(dense, view, 6, params).found
        with pytest.raises(ValueError, match="order 3, params expect 2"):
            find_expander(dense[..., None], view, 6, params)
        with pytest.raises(ValueError, match="order 3, params expect 2"):
            halving_audit(dense[..., None], view, params, n_splits=1, seed=0)
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
        # A found result's frontier is also the last of the frontiers its
        # paths are walked back through and the next round's start, so
        # writing to any of them must fail rather than change a path
        # reconstructed later.
        _, view = complete_multipartite([3, 4, 3, 4, 3, 4])
        res = find_expander(window_cliques(view, 0, 2), view, 6, ExpansionParams(k=2, delta=0.02))
        assert res.trace.frontier is res.trace.frontiers[-1]
        assert not any(f.flags.writeable for f in res.trace.frontiers)
        with pytest.raises(ValueError, match="read-only"):
            res.trace.frontier[0, 0] = False
        dense = np.ones(view.sizes[:2], dtype=bool)
        with pytest.raises(ValueError, match="read-only"):
            expand_through(dense, view, 0).frontier[0, 0] = False
        assert dense.flags.writeable

    def test_requires_search_regime_delta(self):
        _, view = complete_multipartite([3] * 4)
        start = window_cliques(view, 0, 2)
        with pytest.raises(ValueError, match="1/\\(20k\\)"):
            find_expander(start, view, 4, ExpansionParams(k=2, delta=0.1))

    def test_requires_enough_windows(self):
        _, view = complete_multipartite([3] * 3)
        start = window_cliques(view, 0, 2)
        with pytest.raises(ValueError, match="windows"):
            find_expander(start, view, 3, ExpansionParams(k=2, delta=0.02))


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

    def test_no_split_refused(self):
        # n_splits = 0 used to return no splits with all_ok true: a pass
        # that tested nothing.
        _, view = complete_multipartite([3, 4, 3, 4, 3, 4])
        with pytest.raises(ValueError, match="^n_splits must be at least 1, got 0"):
            halving_audit(window_cliques(view, 0, 2), view, ExpansionParams(k=2, delta=0.02), n_splits=0, seed=0)


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

    def test_start_fraction_checked_before_certifying(self, monkeypatch):
        # On a tuple that is not super-typical, a start fraction of 2.0 used
        # to run the whole ledger and then raise PreconditionError.
        g, view = complete_multipartite([6, 6, 6])
        adj = g.adj.copy()
        adj[np.ix_(view.parts[0], view.parts[1])] = False
        adj[np.ix_(view.parts[1], view.parts[0])] = False
        damaged = TupleView(Graph(adj), view.parts)

        def refuse(*args, **kwargs):
            raise AssertionError("the ledger ran")

        monkeypatch.setattr(expansion, "check_super_typical", refuse)
        with pytest.raises(ValueError, match=r"^start fraction must lie in \[0,1\]") as err:
            one_step_expansion_audit(damaged, 2.0, ExpansionParams(k=2, delta=0.1), self._typ(1.0), seed=1)
        assert type(err.value) is ValueError

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
