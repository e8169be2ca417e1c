"""Certifiers for typical vertices and super-typical tuples, whose ledger
judges the typical clique copies, plus count audits against product
expectations.

Expected counts and neighbourhood windows are centred on the measured pair
densities of the view rather than nominal model densities: that removes
generator variance from verdicts, and the multiplicative tolerance windows
absorb exactly the remaining per-vertex fluctuation. Regularity sub-checks use
the sampled refuter with a fixed trial budget; "regular" here always means
"not refuted within budget". Each sub-check draws from its own named stream
of the audit seed: tags 37 (vertex), 67 (clique copy) and 71 (tuple pair).

All counts and copies are read from windows of the view's ``window_cliques``
in graph_core; nothing in this module counts cliques on its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graph_core import (
    TupleView,
    common_neighborhood,
    count_canonical_cliques,
    expected_clique_count,
    frontier_members,
    window_cliques,
)
from .models import stream
from .regularity import check_regular_sampled

__all__ = [
    "TypicalityParams",
    "TypicalityReport",
    "typical_vertices",
    "check_super_typical",
    "clique_count_upper_check",
]

# Slack added to every window and count threshold.
TOL = 1e-9


@dataclass(frozen=True)
class TypicalityParams:
    """epsilon drives the per-vertex windows and tuple-level regularity,
    delta the count windows and per-copy typicality; trials is the budget for
    each sampled regularity sub-check."""

    epsilon: float
    delta: float
    p: float
    trials: int = 200

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")


@dataclass
class TypicalityReport:
    typical_fraction: list
    clique_counts: dict
    expected_counts: dict
    typical_clique_count: int
    typical_clique_expected: float
    verdicts: dict
    trials: int

    @property
    def super_typical(self) -> bool:
        return self.verdicts["super_typical"]

    def failing_conditions(self) -> list:
        return sorted(k for k, ok in self.verdicts.items() if k != "super_typical" and not ok)

    def to_dict(self) -> dict:
        return {
            "schema": "powercycle/typicality-v1",
            "typical_fraction": [float(f) for f in self.typical_fraction],
            "clique_counts": {k: int(v) for k, v in self.clique_counts.items()},
            "expected_counts": {k: float(v) for k, v in self.expected_counts.items()},
            "typical_clique_count": int(self.typical_clique_count),
            "typical_clique_expected": float(self.typical_clique_expected),
            "verdicts": dict(self.verdicts),
            "trials": self.trials,
        }


def _within(value: float, center: float, rel: float) -> bool:
    return (1 - rel) * center - TOL <= value <= (1 + rel) * center + TOL


def _pair_ok(
    graph, ids_a, ids_b, eps: float, params: TypicalityParams, center: float, path: tuple
) -> bool:
    """Sampled check, drawn from stream(*path), that a neighbourhood pair is
    unrefuted at (eps, p) and has density within (1 +/- eps) of the given centre."""
    if len(ids_a) == 0 or len(ids_b) == 0:
        # Degenerate pair: density 0; acceptable only when nothing is expected.
        return _within(0.0, center, eps)
    d = float(np.count_nonzero(graph.submatrix(ids_a, ids_b))) / (len(ids_a) * len(ids_b))
    if not _within(d, center, eps):
        return False
    verdict = check_regular_sampled(
        graph, ids_a, ids_b, eps, params.p, trials=params.trials, rng=stream(*path)
    )
    return not verdict.refuted


def typical_vertices(view: TupleView, params: TypicalityParams, seed: int) -> list:
    """Per-part arrays of vertices that are typical at epsilon: every
    neighbourhood in another part has size within (1 +/- eps) of its measured
    mean, and every pair of those neighbourhoods is an unrefuted pair of
    density within the (1 +/- eps) window."""
    if view.t < 3:
        raise ValueError(f"typical vertices need at least 3 parts, got {view.t}")
    graph = view.graph
    eps = params.epsilon
    t = view.t
    # counts[i][j] = |N(v, V_j)| for each v in part i, vectorized per pair.
    counts = {
        (i, j): view.block(i, j).sum(axis=1) for i in range(t) for j in range(t) if i != j
    }
    out = []
    for i in range(t):
        others = [j for j in range(t) if j != i]
        size_ok = np.ones(view.sizes[i], dtype=bool)
        for j in others:
            center = float(view.density(i, j)) * view.sizes[j]
            col = counts[(i, j)]
            size_ok &= (col >= (1 - eps) * center - TOL) & (col <= (1 + eps) * center + TOL)
        good = []
        for local in np.nonzero(size_ok)[0]:
            v = int(view.parts[i][local])
            nbrs = {j: common_neighborhood(graph, (v,), view.parts[j]) for j in others}
            if all(
                _pair_ok(
                    graph, nbrs[j], nbrs[l], eps, params, float(view.density(j, l)), (seed, 37, v, j, l)
                )
                for j, l in itertools.combinations(others, 2)
            ):
                good.append(v)
        out.append(np.asarray(good, dtype=np.int64))
    return out


def _typical_copy(view: TupleView, copy: tuple, params: TypicalityParams, seed: int) -> bool:
    """Is a canonical copy of K_{t-2} on the middle parts delta-typical toward
    the outer parts 0 and t-1? Both common neighbourhoods must hit their
    measured size windows and span an unrefuted pair of density within the
    window."""
    graph = view.graph
    t = view.t
    nbrs = []
    for a in (0, t - 1):
        ids = common_neighborhood(graph, copy, view.parts[a])
        expected = view.sizes[a]
        for j in range(1, t - 1):
            expected *= float(view.density(j, a))
        if not _within(len(ids), expected, params.delta):
            return False
        nbrs.append(ids)
    ids_a, ids_b = nbrs
    center = float(view.density(0, t - 1))
    return _pair_ok(graph, ids_a, ids_b, params.delta, params, center, (seed, 67, *copy))


def check_super_typical(view: TupleView, params: TypicalityParams, seed: int) -> TypicalityReport:
    """Evaluate the full super-typicality ledger of a t-tuple: the middle
    K_{t-2} count and both K_{t-1} counts within (1 +/- delta) of their
    measured expectations, at least a (1 - delta) fraction of the middle
    copies delta-typical toward the outer parts, and the tuple itself typical
    at epsilon. For t = 3 the middle window has order 1 and its copies are
    the vertices of the middle part."""
    t = view.t
    if t < 3:
        raise ValueError(f"super-typicality needs at least 3 parts, got {t}")
    delta = params.delta
    middle = list(range(1, t - 1))
    left = list(range(0, t - 1))
    right = list(range(1, t))

    clique_counts = {
        "middle": count_canonical_cliques(view, 1, t - 2),
        "left": count_canonical_cliques(view, 0, t - 1),
        "right": count_canonical_cliques(view, 1, t - 1),
    }
    expected_counts = {
        "middle": expected_clique_count(view, middle),
        "left": expected_clique_count(view, left),
        "right": expected_clique_count(view, right),
    }
    verdicts = {
        name: _within(clique_counts[name], expected_counts[name], delta)
        for name in ("middle", "left", "right")
    }

    n_typ = 0
    for copy in frontier_members(view, window_cliques(view, 1, t - 2), 1):
        if _typical_copy(view, copy, params, seed):
            n_typ += 1
    typ_expected = expected_counts["middle"]
    verdicts["typical_cliques"] = n_typ >= (1 - delta) * typ_expected - TOL

    typ_vertices = typical_vertices(view, params, seed)
    fractions = [len(typ_vertices[i]) / view.sizes[i] for i in range(t)]
    tuple_ok = all(f >= 1 - params.epsilon - TOL for f in fractions)
    if tuple_ok:
        for i in range(t):
            for j in range(i + 1, t):
                verdict = check_regular_sampled(
                    view.graph,
                    view.parts[i],
                    view.parts[j],
                    params.epsilon,
                    params.p,
                    trials=params.trials,
                    rng=stream(seed, 71, i, j),
                )
                if verdict.refuted:
                    tuple_ok = False
                    break
            if not tuple_ok:
                break
    verdicts["tuple_typical"] = tuple_ok
    verdicts["super_typical"] = all(verdicts.values())

    return TypicalityReport(
        typical_fraction=fractions,
        clique_counts=clique_counts,
        expected_counts=expected_counts,
        typical_clique_count=n_typ,
        typical_clique_expected=typ_expected,
        verdicts=verdicts,
        trials=params.trials,
    )


def clique_count_upper_check(view: TupleView, t: int, eps: float, p: float) -> bool:
    """Audit that the exact canonical K_t count does not exceed
    (1 + eps) * (prod |S_i|) * p^{C(t,2)} at the nominal density p."""
    if t != view.t:
        raise ValueError(f"view has {view.t} parts, expected t={t}")
    count = count_canonical_cliques(view, 0, t)
    bound = 1.0
    for s in view.sizes:
        bound *= s
    bound *= p ** (t * (t - 1) // 2)
    return count <= (1 + eps) * bound + TOL
