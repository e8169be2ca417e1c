"""Density-regularity certification and partition machinery.

A pair (V1, V2) is refuted when some pair of subsets with |Vi'| >= eps*|Vi|
has density differing from the pair density by more than eps*p. The exact
checker settles every qualifying subset pair; the sampled checker is a
one-sided Monte Carlo refuter that can never certify. A partition is one
random equipartition surveyed once: only the pairs of density >= d*p are
refuted with the sampled refuter (a sparser pair is never useful, and its
sub-stream is never built), a refuted pair is left out of the useful pairs,
and no class is refined. The survey holds one class-pair block at a time:
each pair is gathered once, its edges are counted from that block, and a
dense pair's refuter reads the same block.

The sampled refuter reads the block its caller gathered and gathers
nothing itself, so every caller pays one gather per pair it tests. It
takes a stack of pairs that share subset tables, one per side and side
width, drawn from one stream, and holds the pairs of each side-1 width apart:
a width is counted with one product when its own held cells reach
_STACK_CELLS, and every width when a verdict is read.
``check_regular_sampled`` is a stack of one, whose two tables are the two
arrays a pair has always drawn from its own stream.

All densities are exact rationals; floats appear only at decision thresholds,
always with an explicit tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph_core import Graph, exact_product
from .models import stream

__all__ = [
    "RegularityParams",
    "RegularityVerdict",
    "RegularPartition",
    "check_regular_exact",
    "check_regular_sampled",
    "SampledRefuter",
    "build_nice_partition",
    "inheritance_stats",
]

EXACT_SIDE_CAP = 24
EXACT_FULL_ENUM_CAP = 16
EXACT_MISSING_CAP = 4
# The sampled refuter draws subsets of this fraction of each side (and never
# fewer than eps of it).
SUBSET_FRACTION = 0.5
# Slack added to every deviation and density threshold.
TOL = 1e-12
# Trial budget of the sampled check on each inheritance sample.
INHERITANCE_TRIALS = 60
# Cells of the held pair blocks of one side-1 width and of their float32
# product (trials by side-2 width) at which the sampled refuter counts that
# width; no verdict depends on it. Held cells stay below the number of
# distinct side-1 widths times this, plus one pair per width.
_STACK_CELLS = 1 << 17


@dataclass(frozen=True)
class RegularityParams:
    """Knobs shared by the partition pipeline: deviation scale eps*p, density
    threshold d*p for a pair to count as useful, the partner fraction mu, and
    the trial budget of each sampled pair check."""

    epsilon: float
    p: float
    d: float = 0.5
    mu: float = 0.5
    trials: int = 200

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p must lie in (0,1], got {self.p}")
        if not (0.0 < self.d <= 1.0):
            raise ValueError(f"d must lie in (0,1], got {self.d}")
        if not (0.0 <= self.mu <= 1.0):
            raise ValueError(f"mu must lie in [0,1], got {self.mu}")
        if self.trials < 0:
            raise ValueError(f"trials must be non-negative, got {self.trials}")


@dataclass(frozen=True)
class RegularityVerdict:
    status: str  # "certified-regular" | "refuted" | "undetermined"
    deviation: float
    mode: str  # "exact" | "sampled"
    witness: Optional[tuple] = None  # (ids in V1, ids in V2) when refuted

    def __post_init__(self):
        if self.status not in ("certified-regular", "refuted", "undetermined"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "refuted" and self.witness is None:
            raise ValueError("a refutation must carry a witness")
        if self.status == "certified-regular" and self.mode != "exact":
            raise ValueError("only exact mode can certify")

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"


def _qualifying_subset_count(n: int, m: int) -> int:
    return sum(math.comb(n, j) for j in range(m, n + 1))


def _subset_matrix(n: int, m: int) -> np.ndarray:
    """Boolean matrix whose rows are all subsets of [n] with size >= m,
    smallest-mask order. Requires the exact-mode envelope."""
    if n <= EXACT_FULL_ENUM_CAP:
        masks = np.arange(1 << n, dtype=np.uint32)
        bits = ((masks[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1).astype(bool)
        keep = bits.sum(axis=1) >= m
        return bits[keep]
    rows = []
    base = [True] * n
    for miss in range(0, n - m + 1):
        for removed in itertools.combinations(range(n), miss):
            row = base.copy()
            for i in removed:
                row[i] = False
            rows.append(row)
    return np.asarray(rows, dtype=bool)


def check_regular_exact(
    graph: Graph,
    V1: Sequence[int],
    V2: Sequence[int],
    eps: float,
    p: float,
) -> RegularityVerdict:
    """Settle regularity of a pair by exhausting every qualifying subset pair.

    Subsets of one side are enumerated explicitly; for each of them and each
    target size on the other side, the extreme densities over that side are
    exact (the maximizing subset takes the vertices with the most neighbours
    in the fixed subset, the minimizing one the fewest), so every subset pair
    is covered without materializing the product space.
    """
    V1 = np.asarray(sorted(int(v) for v in V1), dtype=np.int64)
    V2 = np.asarray(sorted(int(v) for v in V2), dtype=np.int64)
    n1, n2 = len(V1), len(V2)
    for n in (n1, n2):
        m = math.ceil(eps * n)
        if n > EXACT_SIDE_CAP or (n > EXACT_FULL_ENUM_CAP and n - m > EXACT_MISSING_CAP):
            raise ValueError(
                f"pair of sizes ({n1},{n2}) at eps={eps} is outside the exact-mode "
                "envelope; use check_regular_sampled instead"
            )
    m1, m2 = math.ceil(eps * n1), math.ceil(eps * n2)
    m1, m2 = max(m1, 1), max(m2, 1)
    A = graph.submatrix(V1, V2)
    d = A.sum() / (n1 * n2)
    threshold = eps * p + TOL

    # Enumerate on the side with fewer qualifying subsets.
    swap = _qualifying_subset_count(n2, m2) < _qualifying_subset_count(n1, m1)
    if swap:
        V1, V2, n1, n2, m1, m2, A = V2, V1, n2, n1, m2, m1, A.T

    subsets = _subset_matrix(n1, m1)
    sizes1 = subsets.sum(axis=1).astype(np.float64)
    counts = subsets.astype(np.float64) @ A.astype(np.float64)  # (nsub, n2)
    asc = np.sort(counts, axis=1)
    cum_lo = np.cumsum(asc, axis=1)
    cum_hi = np.cumsum(asc[:, ::-1], axis=1)

    best_dev = 0.0
    best = None  # (subset_row, q2, "hi"|"lo")
    for q2 in range(m2, n2 + 1):
        denom = sizes1 * q2
        hi = cum_hi[:, q2 - 1] / denom - d
        lo = d - cum_lo[:, q2 - 1] / denom
        for dev, tag in ((hi, "hi"), (lo, "lo")):
            i = int(np.argmax(dev))
            if dev[i] > best_dev:
                best_dev = float(dev[i])
                best = (i, q2, tag)

    if best is None or best_dev <= threshold:
        return RegularityVerdict("certified-regular", best_dev, "exact")

    i, q2, tag = best
    sub1 = V1[subsets[i]]
    c = counts[i]
    # Deterministic extreme subset: order by count then vertex id.
    order = np.lexsort((V2, -c if tag == "hi" else c))
    sub2 = np.sort(V2[order[:q2]])
    witness = (np.sort(sub1), sub2) if not swap else (sub2, np.sort(sub1))
    return RegularityVerdict("refuted", best_dev, "exact", witness)


def _smallest(draws: np.ndarray, q: int) -> np.ndarray:
    """Bool mask of the q smallest draws of each row, below or at the q-th
    smallest value of the row read from its sort (on rows of a few dozen
    draws a full sort is faster than ``np.partition``, and the value is the
    same). A row whose q-th smallest value is tied would select more than q,
    so then every row takes argpartition's q indices instead."""
    mask = draws <= np.sort(draws, axis=1)[:, q - 1, None]
    if np.count_nonzero(mask) != len(draws) * q:
        idx = np.argpartition(draws, q - 1, axis=1)[:, :q]
        mask = np.zeros(draws.shape, dtype=bool)
        mask[np.arange(len(draws))[:, None], idx] = True
    return mask


class SampledRefuter:
    """One-sided Monte Carlo refuter of a stack of pairs judged at one (eps,
    p) and trial budget: each trial of a pair samples a qualifying subset
    pair of one size, and the first deviation beyond eps*p refutes the pair.
    Never certifies; a pair no sample refutes is undetermined.

    ``add`` takes the caller's bool block of a pair, rows V1 and columns V2
    in the order given (``graph.submatrix(V1, V2)`` or a block the caller
    holds), and gathers nothing; V1 and V2 only name the witness's vertices.
    ``refuted`` and ``verdict`` read the verdicts.

    Replay contract: the pairs share subset tables drawn from ``rng``, one
    per side and side width n, each on first use, side 1 before side 2: a
    (trials, n) array of uniforms whose row r takes the positions of its q
    smallest draws, below or at the q-th smallest read from its sort. So
    each pair sees ``trials`` independent uniform subset pairs, and a stack
    of one draws a (trials, |V1|) array, then a (trials, |V2|) array.

    Held pairs are kept per side-1 width, and a width's pairs are counted
    with one ``exact_product`` once their blocks and product pass
    _STACK_CELLS cells; every width is counted when a verdict is read. So
    the held cells are at most the number of distinct side-1 widths times
    _STACK_CELLS, plus one pair per width. A pair's count in trial r sums
    row r of its product columns over its V2 subset, float32 counts of at
    most q1 ones over at most q2 terms, exact while q1*q2 < 2**24, so no
    verdict rests on the summation order, the BLAS thread count or the
    stacking. Deviations are float32, and the witness is the first refuting
    trial's subsets, sorted."""

    def __init__(self, eps: float, p: float, trials: int, rng: np.random.Generator):
        self.eps, self.threshold, self.trials, self.rng = eps, eps * p + TOL, trials, rng
        self._tables = {}  # (side, width) -> (q, (trials, width) bool subset table)
        self._held = {}  # side-1 width -> (index, block, V1, V2) of each pair not yet counted
        self._cells = {}  # side-1 width -> cells of its held blocks and product
        # Each added pair's deviation and, when it is refuted, its witness.
        self._deviation = []
        self._witness = []

    def __len__(self) -> int:
        return len(self._deviation)

    def _table(self, side: int, n: int) -> tuple:
        if (side, n) not in self._tables:
            q = min(n, max(math.ceil(SUBSET_FRACTION * n), math.ceil(self.eps * n), 1))
            self._tables[side, n] = q, _smallest(self.rng.random((self.trials, n)), q)
        return self._tables[side, n]

    def add(self, A: np.ndarray, V1: Sequence[int], V2: Sequence[int]) -> None:
        V1 = np.asarray(V1, dtype=np.int64)
        V2 = np.asarray(V2, dtype=np.int64)
        n1, n2 = len(V1), len(V2)
        if A.shape != (n1, n2):
            raise ValueError(f"block of shape {A.shape} is not the ({n1}, {n2}) block of the pair")
        if self.trials > 0 and not (n1 and n2):
            raise ValueError(f"pair of sides ({n1}, {n2}) has no subset to sample")
        self._deviation.append(0.0)
        self._witness.append(None)
        if self.trials <= 0:
            return
        self._table(1, n1)
        self._table(2, n2)
        self._held.setdefault(n1, []).append((len(self) - 1, A, V1, V2))
        self._cells[n1] = self._cells.get(n1, 0) + A.size + self.trials * n2
        if self._cells[n1] >= _STACK_CELLS:
            self._count([n1])

    def refuted(self) -> np.ndarray:
        """Bool array: whether each added pair is refuted, in the order added."""
        self._count(list(self._held))
        return np.array([w is not None for w in self._witness], dtype=bool)

    def verdict(self, k: int) -> RegularityVerdict:
        """The verdict of the k-th added pair."""
        self._count(list(self._held))
        if self._witness[k] is None:
            return RegularityVerdict("undetermined", self._deviation[k], "sampled")
        return RegularityVerdict("refuted", self._deviation[k], "sampled", self._witness[k])

    def _count(self, widths: list) -> None:
        """Count the held pairs of each side-1 width in ``widths`` with one
        product, and record each pair's deviation and witness."""
        for n1 in widths:
            group = self._held.pop(n1)
            del self._cells[n1]
            q1, S1 = self._tables[1, n1]
            tables = [self._tables[2, A.shape[1]] for _, A, _, _ in group]
            n2 = np.array([A.shape[1] for _, A, _, _ in group])
            starts = np.cumsum(n2) - n2
            blocks = np.concatenate([A for _, A, _, _ in group], axis=1)
            # Trial r's count of pair k sums row r of its columns of the
            # product over the pair's V2 subset of trial r.
            product = exact_product(S1, blocks)
            S2 = np.concatenate([S2 for _, S2 in tables], axis=1)
            counts = np.add.reduceat(np.multiply(product, S2, out=product), starts, axis=1).T
            # float32 throughout, as a float32 count over an int less a float
            # density gives: the quota cast is exact, the density's rounds once.
            quotas = np.array([q1 * q2 for q2, _ in tables], dtype=np.float32)[:, None]
            densities = np.add.reduceat(np.count_nonzero(blocks, axis=0), starts) / (n1 * n2)
            dev = np.abs(counts / quotas - densities.astype(np.float32)[:, None])
            over = dev > self.threshold
            refuted = over.any(axis=1)
            pick = np.where(refuted, over.argmax(axis=1), dev.argmax(axis=1))
            picked = dev[np.arange(len(group)), pick].tolist()
            for (index, *_), deviation in zip(group, picked):
                self._deviation[index] = deviation
            for k in np.flatnonzero(refuted):
                index, _, V1, V2 = group[k]
                self._witness[index] = (np.sort(V1[S1[pick[k]]]), np.sort(V2[tables[k][1][pick[k]]]))


def check_regular_sampled(
    A: np.ndarray,
    V1: Sequence[int],
    V2: Sequence[int],
    eps: float,
    p: float,
    trials: int,
    rng: np.random.Generator,
) -> RegularityVerdict:
    """The sampled refuter's verdict on one pair, a stack of one: ``rng``,
    the caller's own named stream, draws one (trials, |V1|) array of uniforms,
    then one (trials, |V2|) array (see ``SampledRefuter``)."""
    refuter = SampledRefuter(eps, p, trials, rng)
    refuter.add(A, V1, V2)
    return refuter.verdict(0)


@dataclass
class RegularPartition:
    """An equipartition with an exceptional class. ``classes`` excludes the
    exceptional set; ``useful_pairs`` are the pairs that are unrefuted and of
    density >= d*p, the edges of the reduced graph."""

    exceptional: np.ndarray
    classes: list
    useful_pairs: frozenset = frozenset()
    partner_ok: Optional[bool] = None

    @property
    def k(self) -> int:
        return len(self.classes)

    @property
    def class_size(self) -> int:
        return len(self.classes[0]) if self.classes else 0

    def partner_counts(self) -> list:
        counts = [0] * self.k
        for i, j in self.useful_pairs:
            counts[i] += 1
            counts[j] += 1
        return counts


def build_nice_partition(graph: Graph, params: RegularityParams, m: int, seed: int) -> RegularPartition:
    """Random equipartition into m classes from stream(seed, 11), surveyed
    once: a pair is useful when its exact density is at least d*p and the
    sampled refuter, drawing from stream(seed, 19, 0, i, j), does not refute
    it. Only the dense pairs are refuted; a sparser pair is never useful, so
    its stream is never built, and no other pair's draws move. The partition
    is marked good when every class has at least mu*k useful partners.

    Each pair's edges are counted from one uncached gather of its block,
    which a dense pair's refuter then reads, so each pair is gathered once
    and no more than one block is held at a time. The density is the int
    quotient ``edges / size**2``, which Python rounds correctly, so it is the
    float of the exact rational density and every decision is the one the
    exact ``Fraction`` gives."""
    N = graph.n
    if N < m:
        raise ValueError(f"need at least m={m} vertices, graph has {N}")
    rng = stream(seed, 11)
    perm = rng.permutation(N)
    size = N // m
    classes = [np.sort(perm[i * size : (i + 1) * size]) for i in range(m)]
    useful = set()
    for i in range(m):
        for j in range(i + 1, m):
            block = graph.submatrix(classes[i], classes[j])
            if int(np.count_nonzero(block)) / (size * size) < params.d * params.p - TOL:
                continue
            verdict = check_regular_sampled(
                block,
                classes[i],
                classes[j],
                params.epsilon,
                params.p,
                trials=params.trials,
                # The 0 stood for a refinement round; each pair keeps the
                # sub-stream it has always drawn from, so records replay.
                rng=stream(seed, 19, 0, i, j),
            )
            if not verdict.refuted:
                useful.add((i, j))

    partition = RegularPartition(
        exceptional=np.sort(perm[m * size :]),
        classes=classes,
        useful_pairs=frozenset(useful),
    )
    counts = partition.partner_counts()
    need = params.mu * partition.k
    partition.partner_ok = all(c >= need for c in counts)
    return partition


def inheritance_stats(
    graph: Graph,
    V1: Sequence[int],
    V2: Sequence[int],
    q1: int,
    q2: int,
    eps_prime: float,
    p: float,
    samples: int,
    seed: int,
) -> float:
    """Fraction of random (Q1, Q2) with |Qi| = qi that inherit regularity:
    unrefuted at eps' and of density within (1 +/- eps') of the parent pair.
    Samples come from stream(seed, 17), the check of sample s from stream(seed, 31, s).
    Fewer than one sample is a ValueError, since zero samples test nothing."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    V1 = np.asarray(V1, dtype=np.int64)
    V2 = np.asarray(V2, dtype=np.int64)
    if q1 > len(V1) or q2 > len(V2):
        raise ValueError("sample sizes exceed the parent parts")
    d_parent = float(graph.submatrix(V1, V2).sum()) / (len(V1) * len(V2))
    rng = stream(seed, 17)
    good = 0
    for s in range(samples):
        Q1 = V1[rng.permutation(len(V1))[:q1]]
        Q2 = V2[rng.permutation(len(V2))[:q2]]
        block = graph.submatrix(Q1, Q2)
        d_sub = float(block.sum()) / (q1 * q2)
        lo = (1 - eps_prime) * d_parent - TOL
        hi = (1 + eps_prime) * d_parent + TOL
        if not (lo <= d_sub <= hi):
            continue
        verdict = check_regular_sampled(
            block, Q1, Q2, eps_prime, p, trials=INHERITANCE_TRIALS, rng=stream(seed, 31, s)
        )
        if not verdict.refuted:
            good += 1
    return good / samples
