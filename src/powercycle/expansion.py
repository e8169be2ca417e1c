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
records per-window counts, and the bisection rounds of ``find_expander`` and
the audits, which need only the reach count at one window.

Each step yields one predecessor layer, and ``expand_through`` keeps them
all, for reconstructing a single connecting k-path on demand. A layer holds
references, not copies: the parts of windows w..w+k, the frontier before the
step, the head block and the reach. Frontiers are read-only, so a caller
holding one cannot change a path reconstructed later. ``reconstruct_path``
finds one copy's lowest valid head from them when asked, one layer at a time.

Every start is a dense bool frontier anchored at window 0, its order the
number of its axes. The bisection halves and one-hot candidates of
``find_expander``, and the audits' random picks, are frontiers built with
``graph_core.pick_frontier`` from the start's C-order positions, which are
its lexicographic order. The final frontier is handed back dense, so the
embedder carries the reach from one round to the next;
``graph_core.frontier_members`` makes tuples of it only when read.

Reach fractions are reported against the reference count of a window block:
the product of the window sizes and the measured pair densities. A trace
computes its fractions when they are first read; its per-window counts are
recorded as it goes.
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
    "reference_count",
    "reconstruct_path",
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


def _positions(parts, ids: np.ndarray) -> tuple:
    """Per-axis positions of the vertices in ``ids`` (one row per copy, one
    column per part) in the sorted ``parts``. A vertex outside its part is an
    IndexError, like a window outside the view."""
    pos = []
    for a, (part, col) in enumerate(zip(parts, ids.T)):
        idx = np.searchsorted(part, col)
        if (part[np.minimum(idx, len(part) - 1)] != col).any():
            raise IndexError(f"clique vertex outside its part (axis {a} of the window)")
        pos.append(idx)
    return tuple(pos)


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
    ``to_window``, yielding one predecessor layer (parts of windows w..w+k,
    frontier before the step, head block, reach) per step. A suffix reaches a
    vertex of part w+k when its count of adjacent frontier heads, an exact
    float32 product (``exact_product``), is positive. Layers share their
    frontiers with the caller, so each reach is made read-only."""
    for w in range(to_window):
        j = w + k
        flat = frontier.reshape(frontier.shape[0], -1)
        head_block = view.block(w, j)
        reach = (exact_product(flat.T, head_block) > 0).reshape(
            frontier.shape[1:] + (view.sizes[j],)
        )
        and_part_blocks(view, reach, w + 1)
        reach.flags.writeable = False
        yield view.parts[w : j + 1], frontier, head_block, reach
        frontier = reach


def _reach_count(view: TupleView, frontier: np.ndarray, to_window: int, k: int) -> int:
    """Size of a frontier's reach at ``to_window``, keeping no layers."""
    for *_, frontier in _advance(view, frontier, to_window, k):
        pass
    return _frontier_size(frontier)


@dataclass(eq=False)
class ExpansionTrace:
    """Reach counts window by window. ``counts[m]`` is the frontier size at
    window m, ``frontier`` the dense frontier at the last window, and
    ``back_pointers`` the predecessor layers, one per step (none for a
    zero-step trace). The fractions normalize each count by the reference
    count of its window block and are computed when first read."""

    counts: list
    frontier: np.ndarray
    view: TupleView
    back_pointers: list

    @cached_property
    def fractions(self) -> list:
        k = self.frontier.ndim
        refs = (reference_count(self.view, m, k) for m in range(len(self.counts)))
        return [c / x if x > 0 else 0.0 for c, x in zip(self.counts, refs)]

    @property
    def final_fraction(self) -> float:
        return self.fractions[-1]


def expand_through(start: np.ndarray, view: TupleView, to_window: int) -> ExpansionTrace:
    """Step the dense frontier ``start``, anchored at window 0, one window at a
    time until it is anchored at ``to_window``, recording per-window counts and
    keeping every predecessor layer."""
    k = start.ndim
    if to_window < 0:
        raise IndexError(f"target window {to_window} precedes start window 0")
    if to_window + k > view.t:
        raise IndexError(f"target window {to_window} overflows view of {view.t} parts")
    first = _frontier_of(view, start, k)
    layers = list(_advance(view, first, to_window, k))
    frontiers = [first] + [reach for *_, reach in layers]
    return ExpansionTrace(
        counts=[_frontier_size(f) for f in frontiers],
        frontier=frontiers[-1],
        view=view,
        back_pointers=layers,
    )


def reconstruct_path(back_pointers: list, final_clique: tuple) -> list:
    """Vertex sequence of one canonical k-path ending in ``final_clique``,
    walked back through the predecessor layers to their start window; with
    no layers it is the clique itself. At each layer the head is the lowest
    position in the frontier before the step that extends the current copy;
    a copy the layer did not reach is a KeyError."""
    # Consecutive layers share their windows, so the head's position and the
    # copy's first k-1 positions index the next layer back directly.
    heads_out = []
    if back_pointers:
        ids = np.array([final_clique], dtype=np.int64)
        pos = tuple(int(p[0]) for p in _positions(back_pointers[-1][0][1:], ids))
    for parts, before, head_block, reach in reversed(back_pointers):
        if not reach[pos]:
            raise KeyError(f"{tuple(final_clique)} has no predecessor chain in these layers")
        head = int(np.argmax(before[(slice(None),) + pos[:-1]] & head_block[:, pos[-1]]))
        heads_out.append(int(parts[0][head]))
        pos = (head,) + pos[:-1]
    return heads_out[::-1] + list(final_clique)


@dataclass(eq=False)
class ExpanderResult:
    """Outcome of ``find_expander``. A found result keeps the winner's
    trace, whose ``frontier`` is its dense reach at the final window, whose
    ``final_fraction`` is its reach fraction and whose ``back_pointers`` are
    its predecessor layers; a not-found result has none."""

    found: bool
    clique: Optional[tuple]
    bisection_rounds: int
    scanned: int
    trace: Optional[ExpansionTrace] = None


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
    room remains, then scan candidates by exhaustive per-clique reach,
    starting with the survivors. Each candidate is scanned as a one-hot
    dense frontier, and only the winner is turned into a vertex tuple.
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
    if size < params.delta * x_start:
        raise ValueError(
            f"start set of {size} copies is below delta * x = {params.delta * x_start:.1f}"
        )
    final_window = ell - k
    x_final = reference_count(view, final_window, k)

    def frontier_of_range(lo: int, hi: int) -> np.ndarray:
        return pick_frontier(view.sizes[:k], positions, slice(lo, hi))

    lo, hi = 0, size
    rounds = 0
    max_block = ell // k - 2
    block = 1
    while hi - lo > 1 and block <= max_block:
        mid = lo + (hi - lo + 1) // 2
        x_block = reference_count(view, block * k, k)
        need = params.half_fraction * x_block
        if _reach_count(view, frontier_of_range(lo, mid), block * k, k) >= need:
            hi = mid
        elif _reach_count(view, frontier_of_range(mid, hi), block * k, k) >= need:
            lo = mid
        else:
            break
        rounds += 1
        block += 1

    scanned = 0
    for i in chain(range(lo, hi), range(lo), range(hi, size)):
        scanned += 1
        trace = expand_through(frontier_of_range(i, i + 1), view, final_window)
        fraction = trace.counts[-1] / x_final if x_final > 0 else 0.0
        if fraction >= params.success_fraction:
            clique = tuple(int(view.parts[a][p[i]]) for a, p in enumerate(positions))
            return ExpanderResult(
                found=True,
                clique=clique,
                bisection_rounds=rounds,
                scanned=scanned,
                trace=trace,
            )
    return ExpanderResult(found=False, clique=None, bisection_rounds=rounds, scanned=scanned)


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
    report = check_super_typical(view, typ_params, seed=seed)
    if not report.super_typical:
        raise PreconditionError(
            f"tuple is not super-typical; failing conditions: {report.failing_conditions()}",
            report.failing_conditions(),
        )
    if not (0.0 <= start_fraction <= 1.0):
        raise ValueError(f"start fraction must lie in [0,1], got {start_fraction}")
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
    return reached / target_count if target_count else 0.0


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
    fractions per split."""
    k = params.k
    params.require_search_regime()
    x_target = reference_count(view, k, k)
    # The C-order positions of the start are its lexicographic order.
    frontier = _frontier_of(view, start, k)
    positions = np.nonzero(frontier)
    size = len(positions[0])
    full = _reach_count(view, frontier, k, k)
    qualifies = full >= (1 - 10 * k * params.delta) * x_target
    rng = stream(seed, 29)
    splits = []
    for s in range(n_splits):
        perm = rng.permutation(size)
        half = (size + 1) // 2
        fr1, fr2 = (
            _reach_count(view, pick_frontier(frontier.shape, positions, picks), k, k) / x_target
            for picks in (perm[:half], perm[half:])
        )
        splits.append(
            {
                "best_half_fraction": max(fr1, fr2),
                "ok": max(fr1, fr2) >= params.half_fraction - 1e-12,
            }
        )
    return {
        "start_qualifies": bool(qualifies),
        "start_fraction": full / x_target if x_target else 0.0,
        "splits": splits,
        "all_ok": all(s["ok"] for s in splits),
    }

