"""Certifiers for typical vertices and super-typical tuples, whose ledger
judges the typical clique copies, plus count audits against product
expectations.

Expected counts and neighbourhood windows are centred on the measured pair
densities of the view rather than nominal model densities: that removes
generator variance from verdicts, and the multiplicative tolerance windows
absorb exactly the remaining per-vertex fluctuation. Regularity sub-checks use
the sampled refuter with a fixed trial budget; "regular" here always means
"not refuted within budget". Each level of the ledger hands all of its pairs
to one ``SampledRefuter`` drawing from one stream of the audit seed, tags 37
(vertices), 67 (clique copies) and 71 (the tuple): every pair sees
independent uniform subsets, and the pairs of one level and width share
them.

All counts and copies are read from windows of the view's ``window_cliques``
in graph_core; nothing in this module counts cliques on its own. Every
neighbourhood is read from the view's cached part blocks: a vertex's is a
row of a block, a middle copy's is an AND of block rows, built and
size-checked for many copies at once. A neighbourhood pair that reaches its
density test is gathered once, and the sampled refuter holds that block
until it counts it; the tuple-level checks hand it the view's blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graph_core import (
    TupleView,
    count_canonical_cliques,
    expected_clique_count,
    window_cliques,
)
from .models import stream
from .regularity import SampledRefuter

__all__ = [
    "TypicalityParams",
    "TypicalityReport",
    "typical_vertices",
    "check_super_typical",
    "clique_count_upper_check",
]

# Slack added to every window and count threshold.
TOL = 1e-9
# Cells of each outer part's neighbourhood array, copies by part size, that
# the ledger builds at a time for the middle copies (256 KB of bools).
_COPY_CELLS = 1 << 18


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
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p must lie in (0,1], got {self.p}")
        if self.trials < 0:
            raise ValueError(f"trials must be non-negative, got {self.trials}")


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


def _pair_ok(graph, ids_a, ids_b, eps: float, center: float, refuter: SampledRefuter) -> bool:
    """Whether a neighbourhood pair has density within (1 +/- eps) of the
    given centre; a nonempty pair inside the window is handed, as the block
    gathered for its density, to ``refuter``, whose verdict decides whether
    it is also unrefuted."""
    if len(ids_a) == 0 or len(ids_b) == 0:
        # Degenerate pair: density 0; acceptable only when nothing is expected.
        return _within(0.0, center, eps)
    block = graph.submatrix(ids_a, ids_b)
    d = float(np.count_nonzero(block)) / (len(ids_a) * len(ids_b))
    if not _within(d, center, eps):
        return False
    refuter.add(block, ids_a, ids_b)
    return True


def _unrefuted(refuter: SampledRefuter, spans: list) -> list:
    """For each (start, stop) span of the pairs added to ``refuter``, whether
    none of them is refuted."""
    refuted = np.concatenate(([0], np.cumsum(refuter.refuted())))
    starts, stops = np.array(spans, dtype=np.int64).reshape(-1, 2).T
    return (refuted[starts] == refuted[stops]).tolist()


def typical_vertices(view: TupleView, params: TypicalityParams, seed: int) -> list:
    """Per-part arrays of vertices that are typical at epsilon: every
    neighbourhood in another part has size within (1 +/- eps) of its measured
    mean, and every pair of those neighbourhoods is an unrefuted pair of
    density within the (1 +/- eps) window. The pairs are refuted against
    subset tables drawn from stream(seed, 37)."""
    if view.t < 3:
        raise ValueError(f"typical vertices need at least 3 parts, got {view.t}")
    graph = view.graph
    eps = params.epsilon
    t = view.t
    refuter = SampledRefuter(eps, params.p, params.trials, stream(seed, 37))
    # counts[i][j] = |N(v, V_j)| for each v in part i, vectorized per pair.
    counts = {
        (i, j): view.block(i, j).sum(axis=1) for i in range(t) for j in range(t) if i != j
    }
    candidates, spans = [], []
    for i in range(t):
        others = [j for j in range(t) if j != i]
        size_ok = np.ones(view.sizes[i], dtype=bool)
        for j in others:
            center = float(view.density(i, j)) * view.sizes[j]
            col = counts[(i, j)]
            size_ok &= (col >= (1 - eps) * center - TOL) & (col <= (1 + eps) * center + TOL)
        for local in np.nonzero(size_ok)[0]:
            nbrs = {j: view.parts[j][view.block(i, j)[local]] for j in others}
            start = len(refuter)
            if all(
                _pair_ok(graph, nbrs[j], nbrs[l], eps, float(view.density(j, l)), refuter)
                for j, l in itertools.combinations(others, 2)
            ):
                candidates.append((i, int(view.parts[i][local])))
                spans.append((start, len(refuter)))
    good = [[] for _ in range(t)]
    for (i, v), ok in zip(candidates, _unrefuted(refuter, spans)):
        if ok:
            good[i].append(v)
    return [np.asarray(vertices, dtype=np.int64) for vertices in good]


def _typical_copy_count(view: TupleView, params: TypicalityParams, seed: int) -> int:
    """Number of canonical copies of K_{t-2} on the middle parts that are
    delta-typical toward the outer parts 0 and t-1: both common
    neighbourhoods hit their measured size windows and span an unrefuted
    pair of density within the window. Only copies inside both windows reach
    the density test, and the pairs inside it are refuted against subset
    tables drawn from stream(seed, 67).

    The neighbourhoods of a block of copies in an outer part are one AND of
    the rows of the middle parts' blocks against it at the copies'
    positions, an array of at most _COPY_CELLS cells."""
    t = view.t
    delta = params.delta
    outer = (0, t - 1)
    windows = []
    for a in outer:
        expected = view.sizes[a]
        for j in range(1, t - 1):
            expected *= float(view.density(j, a))
        windows.append(((1 - delta) * expected - TOL, (1 + delta) * expected + TOL))
    center = float(view.density(0, t - 1))
    refuter = SampledRefuter(delta, params.p, params.trials, stream(seed, 67))
    positions = np.nonzero(window_cliques(view, 1, t - 2))
    step = max(1, _COPY_CELLS // max(view.sizes[a] for a in outer))
    spans = []
    for lo in range(0, len(positions[0]), step):
        at = [pos[lo : lo + step] for pos in positions]
        inside = np.ones(len(at[0]), dtype=bool)
        nbrs = []
        for a, (low, high) in zip(outer, windows):
            nbr = view.block(1, a)[at[0]]
            for j in range(2, t - 1):
                nbr &= view.block(j, a)[at[j - 1]]
            size = np.count_nonzero(nbr, axis=1)
            inside &= (size >= low) & (size <= high)
            nbrs.append(nbr)
        for c in np.flatnonzero(inside):
            ids_a = view.parts[0][nbrs[0][c]]
            ids_b = view.parts[t - 1][nbrs[1][c]]
            start = len(refuter)
            if _pair_ok(view.graph, ids_a, ids_b, delta, center, refuter):
                spans.append((start, len(refuter)))
    return sum(_unrefuted(refuter, spans))


def check_super_typical(view: TupleView, params: TypicalityParams, seed: int) -> TypicalityReport:
    """Evaluate the full super-typicality ledger of a t-tuple: the middle
    K_{t-2} count and both K_{t-1} counts within (1 +/- delta) of their
    measured expectations, at least a (1 - delta) fraction of the middle
    copies delta-typical toward the outer parts, and the tuple itself typical
    at epsilon: typical fractions of at least 1 - epsilon, and every pair of
    parts unrefuted against subset tables drawn from stream(seed, 71). For
    t = 3 the middle window has order 1 and its copies are the vertices of
    the middle part."""
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

    n_typ = _typical_copy_count(view, params, seed)
    typ_expected = expected_counts["middle"]
    verdicts["typical_cliques"] = n_typ >= (1 - delta) * typ_expected - TOL

    typ_vertices = typical_vertices(view, params, seed)
    fractions = [len(typ_vertices[i]) / view.sizes[i] for i in range(t)]
    tuple_ok = all(f >= 1 - params.epsilon - TOL for f in fractions)
    if tuple_ok:
        refuter = SampledRefuter(params.epsilon, params.p, params.trials, stream(seed, 71))
        for i, j in itertools.combinations(range(t), 2):
            refuter.add(view.block(i, j), view.parts[i], view.parts[j])
        tuple_ok = not refuter.refuted().any()
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
