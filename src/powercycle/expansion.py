"""The clique-expansion dynamic: multi-window reachability of clique sets,
and the bisection search for a single well-expanding clique.

A frontier of canonical K_k copies anchored at window w expands to window
w+1: the copy (v_{w+1}, ..., v_{w+k}) is reached when some v_w in the frontier
extends it to a canonical K_{k+1} on the (k+1)-window. A frontier is a dense
bool array of shape ``view.sizes[w:w+k]``, indexed by position in the view's
sorted parts, like ``graph_core.window_cliques``. One step to part j = w+k
counts, for each suffix, the frontier heads adjacent to each vertex of j: the
``exact_product`` of the flattened frontier with the head block
``view.block(w, j)``, a float32 BLAS product of 0/1 matrices. Each count sums
at most |V_w| < 2**24 ones, and float32 holds every integer up to 2**24, so
``count > 0`` is the same bool reach on every summation order, BLAS thread
count and platform. Then ``and_part_blocks`` ANDs in the broadcast block of
each suffix part against j. Suffix adjacency is inherited from the frontier,
not rechecked. One frontier-advance loop serves ``expand_through``, which
keeps every frontier, and the bisection rounds of ``find_expander`` and the
audits, which need only the reach count at one window.

A trace keeps the dense frontier at each window and its view, which
caches the head blocks, so a single connecting k-path is reconstructed on
demand from them alone. Frontiers are read-only, so a caller holding one
cannot change a path reconstructed later. ``reconstruct_path`` takes one
copy of the final frontier by its positions, one per axis, and walks back to
its lowest valid head one window at a time; the view's parts turn positions
into vertex ids only for the path it returns.

Every start is a dense bool frontier anchored at window 0, its order the
number of its axes. The bisection halves and one-hot candidates of
``find_expander``, and the audits' random picks, are frontiers built with
``graph_core.pick_frontier`` from the start's C-order positions, which are
its lexicographic order. The winner of a search is named by its positions
in the start, and the final frontier is handed back dense, so the embedder
carries the reach from one round to the next;
``graph_core.frontier_members`` makes tuples of it only when read.

Reach fractions are reported against the reference count of a window block:
the product of the window sizes and the measured pair densities, read
through ``reach_fraction``, which is 0.0 when that count is 0, so no
threshold is met vacuously. ``scan_copies`` is the one test of single
cliques, run by ``find_expander``'s scan and the embedder's anchor and
closing. A trace computes its counts and fractions when they are first
read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

from .graph_core import (
    TupleView,
    and_part_blocks,
    count_canonical_cliques,
    exact_product,
    expected_clique_count,
    pick_frontier,
    window_cliques,
)
from .models import stream
from .typicality import TypicalityParams, check_super_typical

__all__ = [
    "ExpansionParams",
    "ExpansionTrace",
    "ExpanderResult",
    "PreconditionError",
    "expand_through",
    "find_expander",
    "one_step_expansion_audit",
    "halving_audit",
    "reach_fraction",
    "reference_count",
    "reconstruct_path",
    "scan_copies",
]


class PreconditionError(ValueError):
    """Raised when an audit's certified hypothesis does not hold; carries the
    failing conditions."""

    def __init__(self, message: str, failing: list):
        super().__init__(message)
        self.failing = failing


@dataclass(frozen=True)
class ExpansionParams:
    """k is the clique order of the dynamic; delta the slack driving the
    thresholds. The one-step and multi-window audits accept any delta in
    (0,1); the expander search additionally requires delta < 1/(20k), below
    which its success and halving thresholds are meaningful, and enforces
    that itself."""

    k: int
    delta: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")

    def require_search_regime(self) -> None:
        if not self.delta < 1.0 / (20 * self.k):
            raise ValueError(
                f"expander search needs delta < 1/(20k) = {1.0 / (20 * self.k):.4g}, "
                f"got {self.delta}"
            )

    @property
    def success_fraction(self) -> float:
        return 1.0 - 20 * self.k * self.delta

    @property
    def half_fraction(self) -> float:
        return 0.5 - 5 * self.k * self.delta


def reference_count(view: TupleView, window_start: int, k: int) -> float:
    """Reference count for the K_k block at a window: the window sizes times
    the measured pair densities."""
    return expected_clique_count(view, range(window_start, window_start + k))


def reach_fraction(count: int, x: float) -> float:
    """``count`` as a fraction of the reference count ``x``; 0.0 when ``x`` is
    not positive, so no threshold is met against an empty block."""
    return count / x if x > 0 else 0.0


def _frontier_of(view: TupleView, start: np.ndarray, k: int) -> np.ndarray:
    """Read-only view of a dense start, checked for order k, for dtype and for
    the shape of the view's first k parts, and used without a copy."""
    if start.ndim != k:
        raise ValueError(f"start has order {start.ndim}, params expect {k}")
    if start.dtype != bool:
        raise TypeError(f"dense start must be a bool array, got dtype {start.dtype}")
    if start.shape != view.sizes[:k]:
        raise IndexError(
            f"dense start of shape {start.shape} does not match the window's "
            f"part sizes {view.sizes[:k]}"
        )
    frontier = start.view()
    frontier.flags.writeable = False
    return frontier


def _frontier_size(frontier: np.ndarray) -> int:
    return int(np.count_nonzero(frontier))


def _advance(view: TupleView, frontier: np.ndarray, to_window: int, k: int):
    """Step a frontier anchored at window 0 one window at a time up to
    ``to_window``, yielding the reach of each step. A suffix reaches a vertex
    of part w+k when its count of adjacent frontier heads, an exact float32
    product (``exact_product``) with the head block ``view.block(w, w+k)``,
    is positive. Traces share their frontiers with the caller, so each reach
    is made read-only."""
    for w in range(to_window):
        j = w + k
        flat = frontier.reshape(frontier.shape[0], -1)
        reach = (exact_product(flat.T, view.block(w, j)) > 0).reshape(
            frontier.shape[1:] + (view.sizes[j],)
        )
        and_part_blocks(view, reach, w + 1)
        reach.flags.writeable = False
        yield reach
        frontier = reach


def _reach_count(view: TupleView, frontier: np.ndarray, to_window: int, k: int) -> int:
    """Size of a frontier's reach at ``to_window``, keeping no frontiers."""
    for frontier in _advance(view, frontier, to_window, k):
        pass
    return _frontier_size(frontier)


@dataclass(eq=False)
class ExpansionTrace:
    """The dense frontier at each window of an expansion and its view:
    ``frontiers[m]`` is the frontier at window m, the start at m = 0. Its
    per-window counts and its fractions, each count normalized by the
    reference count of its window block, are computed when first read."""

    frontiers: list
    view: TupleView

    @property
    def frontier(self) -> np.ndarray:
        return self.frontiers[-1]

    @cached_property
    def counts(self) -> list:
        return [_frontier_size(f) for f in self.frontiers]

    @cached_property
    def fractions(self) -> list:
        k = self.frontier.ndim
        refs = (reference_count(self.view, m, k) for m in range(len(self.frontiers)))
        return [reach_fraction(c, x) for c, x in zip(self.counts, refs)]

    @property
    def final_fraction(self) -> float:
        return self.fractions[-1]


def expand_through(start: np.ndarray, view: TupleView, to_window: int) -> ExpansionTrace:
    """Step the dense frontier ``start``, anchored at window 0, one window at a
    time until it is anchored at ``to_window``, keeping every frontier."""
    k = start.ndim
    if to_window < 0:
        raise IndexError(f"target window {to_window} precedes start window 0")
    if to_window + k > view.t:
        raise IndexError(f"target window {to_window} overflows view of {view.t} parts")
    first = _frontier_of(view, start, k)
    return ExpansionTrace([first, *_advance(view, first, to_window, k)], view)


def reconstruct_path(trace: ExpansionTrace, final: tuple) -> list:
    """Vertex sequence of one canonical k-path ending in the copy at
    positions ``final``, one per axis, of the trace's final frontier, walked
    back to the start window (a zero-step trace gives the copy itself). Each
    head is the lowest position in the frontier before its step that extends
    the current copy. A wrong arity or a position outside its part is an
    IndexError, a copy the final frontier does not hold a KeyError."""
    frontiers, view, shape = trace.frontiers, trace.view, trace.frontier.shape
    k, walk = len(shape), [int(p) for p in final]
    if len(walk) != k or not all(0 <= p < n for p, n in zip(walk, shape)):
        raise IndexError(f"positions {walk} name no copy of a frontier of shape {shape}")
    if not trace.frontier[tuple(walk)]:
        raise KeyError(f"positions {walk} name no copy of the final frontier")
    # Each head lies in the frontier before its step, so the check above
    # covers the whole walk; the head and the copy's first k-1 positions
    # index the frontier one window back.
    for w in range(len(frontiers) - 2, -1, -1):
        pos = walk[:k]
        head = np.argmax(frontiers[w][(slice(None), *pos[:-1])] & view.block(w, w + k)[:, pos[-1]])
        walk.insert(0, int(head))
    return [int(view.parts[m][p]) for m, p in enumerate(walk)]


def scan_copies(positions: tuple, view: TupleView, to_window: int, fraction: float, order):
    """For each index i in ``order`` of the copies at ``positions`` (per-axis
    arrays in C order, which is lexicographic, as ``np.nonzero`` of a dense
    frontier on the view's first parts gives them), yield (i, trace) when the
    one-hot frontier of copy i, expanded to ``to_window``, reaches at least
    ``fraction`` of the reference count there, and (i, None) otherwise."""
    k = len(positions)
    x_ref = reference_count(view, to_window, k)
    for i in order:
        trace = expand_through(pick_frontier(view.sizes[:k], positions, slice(i, i + 1)), view, to_window)
        yield i, trace if reach_fraction(_frontier_size(trace.frontier), x_ref) >= fraction else None


@dataclass(eq=False)
class ExpanderResult:
    """Outcome of ``find_expander``. A found result keeps the winner's
    positions in the start's parts and its trace, whose ``frontier`` is its
    dense reach at the final window and whose ``final_fraction`` is its reach
    fraction; a not-found result has neither."""

    position: Optional[tuple]
    bisection_rounds: int
    scanned: int
    trace: Optional[ExpansionTrace]

    @property
    def found(self) -> bool:
        return self.trace is not None


def find_expander(
    start: np.ndarray,
    view: TupleView,
    ell: int,
    params: ExpansionParams,
) -> ExpanderResult:
    """Search ``start`` for a single clique that expands to at least
    (1 - 20 k delta) of the reference count at the final block of an
    ell-window stretch from window 0.

    Strategy: repeated halving - keep the half whose reach one block ahead is
    at least (1/2 - 5 k delta), preferring the lexicographically first half
    when both qualify - until the candidate set is a singleton or no window
    room remains, then scan candidates with ``scan_copies``, starting with
    the survivors. The winner is named by its positions in the start.
    ``start`` is a dense bool frontier anchored at window 0, such as the
    ``trace.frontier`` of an earlier result.
    """
    k = params.k
    params.require_search_regime()
    if ell < 2 * k:
        raise ValueError(f"need at least 2k={2 * k} windows, got {ell}")
    if ell > view.t:
        raise IndexError(f"{ell} windows overflow view of {view.t} parts")
    # The candidates are always the slice [lo, hi) of the start's C-order
    # positions, which are its lexicographic order.
    positions = np.nonzero(_frontier_of(view, start, k))
    size = len(positions[0])
    x_start = reference_count(view, 0, k)
    if reach_fraction(size, x_start) < params.delta:
        raise ValueError(
            f"start set of {size} copies is below delta * x = {params.delta * x_start:.1f}"
            if x_start > 0
            else f"the first block's reference count is {x_start}, so no start set reaches delta of it"
        )

    def reaches_half(lo: int, hi: int, block: int) -> bool:
        frontier = pick_frontier(view.sizes[:k], positions, slice(lo, hi))
        count = _reach_count(view, frontier, block * k, k)
        return reach_fraction(count, reference_count(view, block * k, k)) >= params.half_fraction

    lo, hi = 0, size
    rounds = 0
    max_block = ell // k - 2
    block = 1
    while hi - lo > 1 and block <= max_block:
        mid = lo + (hi - lo + 1) // 2
        if reaches_half(lo, mid, block):
            hi = mid
        elif reaches_half(mid, hi, block):
            lo = mid
        else:
            break
        rounds += 1
        block += 1

    order = chain(range(lo, hi), range(lo), range(hi, size))
    scanned, position, trace = 0, None, None
    for i, trace in scan_copies(positions, view, ell - k, params.success_fraction, order):
        scanned += 1
        if trace is not None:
            position = tuple(int(p[i]) for p in positions)
            break
    return ExpanderResult(position=position, bisection_rounds=rounds, scanned=scanned, trace=trace)


def one_step_expansion_audit(
    view: TupleView,
    start_fraction: float,
    params: ExpansionParams,
    typ_params: TypicalityParams,
    seed: int,
) -> float:
    """Measure one-step expansion from a random start set on a certified
    (k+1)-tuple: sample ceil(kappa * count) copies in the first k windows and
    return the fraction of the next window block they reach. Refuses when the
    tuple is not super-typical at the given certification parameters."""
    k = params.k
    if view.t != k + 1:
        raise ValueError(f"audit needs a (k+1)-tuple, got {view.t} parts for k={k}")
    if not (0.0 <= start_fraction <= 1.0):
        raise ValueError(f"start fraction must lie in [0,1], got {start_fraction}")
    report = check_super_typical(view, typ_params, seed=seed)
    if not report.super_typical:
        raise PreconditionError(
            f"tuple is not super-typical; failing conditions: {report.failing_conditions()}",
            report.failing_conditions(),
        )
    # The C-order positions of the window's cliques are their lexicographic order.
    all_start = window_cliques(view, 0, k)
    positions = np.nonzero(all_start)
    target_count = count_canonical_cliques(view, 1, k)
    m = math.ceil(start_fraction * len(positions[0]))
    if m == 0:
        return 0.0
    rng = stream(seed, 23)
    picks = rng.choice(len(positions[0]), size=m, replace=False)
    reached = _reach_count(view, pick_frontier(all_start.shape, positions, picks), 1, k)
    return reach_fraction(reached, target_count)


def halving_audit(
    start: np.ndarray,
    view: TupleView,
    params: ExpansionParams,
    n_splits: int,
    seed: int,
) -> dict:
    """Check the halving step on a concrete instance: given that ``start``, a
    dense bool frontier anchored at window 0, reaches at least
    (1 - 10 k delta) of the block k windows ahead, every tested equipartition
    must have a half reaching (1/2 - 5 k delta). Returns the observed
    fractions per split; fewer than one split is a ValueError, since zero
    splits test nothing."""
    if n_splits < 1:
        raise ValueError(f"n_splits must be at least 1, got {n_splits}")
    k = params.k
    params.require_search_regime()
    x_target = reference_count(view, k, k)
    # The C-order positions of the start are its lexicographic order.
    frontier = _frontier_of(view, start, k)
    positions = np.nonzero(frontier)
    size = len(positions[0])
    start_fraction = reach_fraction(_reach_count(view, frontier, k, k), x_target)
    rng = stream(seed, 29)
    splits = []
    for s in range(n_splits):
        perm = rng.permutation(size)
        half = (size + 1) // 2
        fr1, fr2 = (
            reach_fraction(_reach_count(view, pick_frontier(frontier.shape, positions, picks), k, k), x_target)
            for picks in (perm[:half], perm[half:])
        )
        splits.append(
            {
                "best_half_fraction": max(fr1, fr2),
                "ok": max(fr1, fr2) >= params.half_fraction - 1e-12,
            }
        )
    return {
        "start_qualifies": start_fraction >= 1 - 10 * k * params.delta,
        "start_fraction": start_fraction,
        "splits": splits,
        "all_ok": all(s["ok"] for s in splits),
    }

