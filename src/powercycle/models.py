"""Seeded random graph generators and degree-budgeted adversaries.

All randomness flows through Philox, a counter-based generator with a fixed,
documented algorithm, so a (seed, path) pair identifies the same stream on
every platform and regardless of thread schedule. Sub-streams are derived by
extending the entropy path rather than by drawing from a parent stream, which
keeps parallel trials bit-identical to serial ones. The hosts of
``gen_gnp`` and ``gen_blowup`` and the random adversary's order are decided
on Philox's raw words alone (``bit_generator.random_raw``); the other draws
still go through numpy's ``Generator`` samplers, whose algorithms numpy
does not freeze across versions, and a test lists every such call.

Every draw of the package comes from ``stream(seed, tag, ...)`` with one tag
per call site and no arithmetic on seeds. A row's parentheses give the path
entries after its tag (none without them); a retired tag is never reused:

    0  gen_gnp                      37  typical vertex pair tables
    1  gen_blowup                   41  embedder reserves, targets
    2  adversary_partite            43  embedder extend draws (s, attempt)
    3  adversary_random             47  embedder closing draws (attempt)
   11  build_nice_partition         53  count-audit vertex sets
   13  [retired]                    59  expansion-audit start sets
   17  inheritance_stats samples    61  [retired]
   19  dense-pair survey (0, i, j)  67  typical copy pair tables
   23  one-step audit start         71  super-typical tuple tables
   29  halving audit splits
   31  inheritance_stats check (s)

Paths that differ only by trailing zeros name the same stream (the entropy is
a sequence of uint32 words, passed as an array when every entry fits in one,
so ``stream(5, 17) == stream(5, 17, 0)``), and an entry of 2^32 or more spills
into a second word. Hence each tag keeps a fixed path length, its
entries stay below 2^32, and the bare ``stream(seed)`` is never used: it is
``gen_gnp``'s ``stream(seed, 0)``.

Every adversary returns a spanning subgraph of its input together with an
``AdversaryReport`` recording what was deleted and whether a per-vertex
deletion budget was respected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph_core import Graph, TupleView, min_degree, mirror_upper

__all__ = [
    "ModelParams",
    "AdversaryReport",
    "stream",
    "gen_gnp",
    "gen_blowup",
    "adversary_partite",
    "adversary_triangle_killer",
    "adversary_random",
    "partite_large_part",
    "partite_blocker_sizes",
    "extremal_blocker",
]


def stream(seed: int, *path: int) -> np.random.Generator:
    """Philox stream addressed by a seed and an integer sub-stream path."""
    words = [int(seed), *map(int, path)]
    # SeedSequence takes a uint32 array as its words unchanged: the words it
    # would convert these ints into one at a time, without that conversion.
    # An entry outside [0, 2^32) keeps the list, so spills and errors stay.
    if all(0 <= w < 1 << 32 for w in words):
        words = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


@dataclass(frozen=True)
class ModelParams:
    """Host-model parameters: N vertices, edge probability p, and the trial
    seed."""

    N: int
    p: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0,1], got {self.p}")
        if self.N < 1:
            raise ValueError(f"N must be positive, got {self.N}")


@dataclass
class AdversaryReport:
    """What a thinning strategy did: total deletions, per-vertex deletion
    counts, resulting minimum degree, and (when the strategy promises one)
    the per-vertex budget floor(r * d_G(v))."""

    deleted_edges: int
    per_vertex_deleted: np.ndarray
    min_degree_after: int
    budget: Optional[np.ndarray] = None
    # Planted structure, when the strategy has one (the partite adversary).
    parts: Optional[list] = None

    def budget_respected(self) -> Optional[bool]:
        if self.budget is None:
            return None
        return bool(np.all(self.per_vertex_deleted <= self.budget))

    @property
    def cycle_bound(self) -> Optional[int]:
        """The most vertices a k-th power of a cycle can have in the thinned
        graph when it holds planted parts, the k+1 independent sets of the
        partite adversary, else None. Any k+1 consecutive cycle vertices are
        a clique, so they lie in distinct parts, and the cycle meets the
        parts in turn with period k+1: its length is a multiple of k+1 and at
        most (k+1) times the smallest part."""
        if self.parts is None:
            return None
        return len(self.parts) * min(len(p) for p in self.parts)

    def to_dict(self) -> dict:
        out = {
            "deleted_edges": int(self.deleted_edges),
            "min_degree_after": int(self.min_degree_after),
            "max_vertex_deleted": int(self.per_vertex_deleted.max(initial=0)),
            "budget_respected": self.budget_respected(),
        }
        if self.parts is not None:
            out["cycle_bound"] = self.cycle_bound
        return out


# Words per row block of gen_gnp's draw (512 KB). The block is the only
# buffer besides the matrix, 6% of it at N = 3000 (an 8 MB block was 90%),
# and each block draw there still fills 63,000 words, so the calls cost
# nothing measurable.
_DRAW_BLOCK = 1 << 16

# Lower-triangle gap, in words, from which gen_gnp skips a row's unread words
# instead of drawing them: a short gap costs more to skip than to draw. Median
# host draw at N = 3000 on a shared 2-vCPU x86-64 VM (numpy 2.4.6): 79 ms at
# 1024, 79-80 ms from 512 to 1536, 84 ms skipping every gap, 93 ms with none.
_SKIP_WORDS = 1024


def _coin_flips(rng: np.random.Generator, p: float, out: np.ndarray) -> np.ndarray:
    """Fill the bool array ``out`` with ``rng.random(out.shape) < p`` and
    return it, without the doubles. Philox's ``random()`` is ``(w >> 11) *
    2**-53`` of its next 64-bit word w, so it falls below p exactly when
    ``w >> 11`` falls below c = ceil(p * 2**53), an exact integer bound (2**53
    at p = 1, 0 at p = 0), that is when w <= c * 2**11 - 1. Each word is
    tested with that one compare (all False when c = 0), so the stream moves
    on by the same words."""
    words = rng.bit_generator.random_raw(out.size).reshape(out.shape)
    cut = math.ceil(p * 2**53)
    if cut == 0:
        out.fill(False)
        return out
    return np.less_equal(words, np.uint64((cut << 11) - 1), out=out)


def _skip_to(bit_generator, pos: int, start: int) -> int:
    """Move a Philox bit generator that has handed out ``pos`` words towards
    word ``start`` >= pos of its stream, and return the index of the word it
    hands out next, at most 3 words before start. Philox makes its words four
    at a time, one counter block each, so the words up to the next multiple of
    4 are already made: when start is among them, the stream stays at pos.
    Otherwise ``advance`` drops the made words and skips the whole blocks
    before start's, so the next word is the first of start's block."""
    made = -(-pos // 4) * 4
    if start < made:
        return pos
    bit_generator.advance((start - made) // 4)
    return start - start % 4


def gen_gnp(params: ModelParams) -> Graph:
    """Binomial random graph: each unordered pair is an edge independently
    with probability p. Identical seed, identical graph.

    The graph is the upper triangle of one (N, N) draw of ``random() < p``
    from stream(seed, 0), mirrored: the pair u < v is an edge when the top
    53 bits of its word u * N + v fall below ceil(p * 2**53). Only the top
    rows, whose lower-triangle gap of u + 1 words is below _SKIP_WORDS, are
    drawn whole. Each later row skips (``_skip_to``) to within 3 words of its
    first upper-triangle word and is drawn from there on, so most words of
    the lower triangle are never made."""
    rng = stream(params.seed, 0)
    n = params.N
    # Every word drawn is tested into its own cell of the flat matrix. The
    # top rows are drawn _DRAW_BLOCK // n rows at a time: the generator hands
    # the words out in the same order whatever the block, so the graph is the
    # one a single draw gives, without holding n*n words at once. The cells
    # on and below the diagonal, tested or never written, are overwritten by
    # the mirror image.
    adj = np.empty((n, n), dtype=bool)
    flat = adj.reshape(-1)
    top = min(n, _SKIP_WORDS - 1)
    rows = max(1, _DRAW_BLOCK // n)
    for r in range(0, top, rows):
        _coin_flips(rng, params.p, adj[r : min(r + rows, top)])
    for u in range(top, n - 1):
        pos = _skip_to(rng.bit_generator, u * n, u * n + u + 1)
        _coin_flips(rng, params.p, flat[pos : (u + 1) * n])
    return Graph._trusted(mirror_upper(adj))


def gen_blowup(pattern: Graph, n: int, p: float, seed: int) -> tuple:
    """Blow-up of a pattern graph: one part of size n per pattern vertex, and
    an independent p-random bipartite graph on every pattern edge. Non-edges
    of the pattern carry no edges; parts are internally empty.

    Each pattern edge (i, j), in ``pattern.edges()`` order, takes one (n, n)
    draw of ``random() < p`` from stream(seed, 1), decided on the raw words
    as in ``gen_gnp``: entry (a, b) is the pair of vertex a of part i and
    vertex b of part j."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0,1], got {p}")
    t = pattern.n
    rng = stream(seed, 1)
    N = t * n
    adj = np.zeros((N, N), dtype=bool)
    block = np.empty((n, n), dtype=bool)
    # Fixed pattern-edge order makes the draw order part of the contract.
    for i, j in pattern.edges().tolist():
        _coin_flips(rng, p, block)
        adj[i * n : (i + 1) * n, j * n : (j + 1) * n] = block
        adj[j * n : (j + 1) * n, i * n : (i + 1) * n] = block.T
    graph = Graph._adopt(adj)
    parts = [np.arange(i * n, (i + 1) * n) for i in range(t)]
    return graph, TupleView(graph, parts)


def _report(before: Graph, after_adj: np.ndarray, budget=None) -> tuple:
    """The thinned graph, adopting ``after_adj`` (the adversary's own copy
    of ``before``'s matrix with each deletion cleared in both triangles, so
    symmetric and irreflexive without a check), and its report against
    ``before``."""
    after = Graph._trusted(after_adj)
    per_vertex = before.degrees() - after.degrees()
    deleted = int(per_vertex.sum()) // 2
    return after, AdversaryReport(
        deleted_edges=deleted,
        per_vertex_deleted=per_vertex,
        min_degree_after=min_degree(after) if after.n else 0,
        budget=budget,
    )


def partite_large_part(N: int, k: int, skew: float) -> int:
    """Size round((1+skew) N/(k+1)) of ``adversary_partite``'s large part
    before it absorbs rounding; a ValueError unless k >= 1 and it leaves
    room for k nonempty small parts of the N vertices."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    size = (1.0 + skew) * N / (k + 1)
    if not math.isfinite(size) or not 1 <= round(size) <= N - k:
        raise ValueError(f"skew {skew} leaves no room for {k} nonempty small parts of N={N}")
    return round(size)


def adversary_partite(graph: Graph, k: int, skew: float, seed: int) -> tuple:
    """Delete every edge inside the k+1 parts of a random partition with one
    part of size about (1+skew) N/(k+1) and k equal smaller parts (the large
    part absorbs rounding). The planted parts are recorded on the report."""
    N = graph.n
    if k + 1 > N:
        raise ValueError(f"need k+1 <= N, got k={k}, N={N}")
    large = partite_large_part(N, k, skew)
    small = (N - large) // k
    large = N - k * small
    rng = stream(seed, 2)
    perm = rng.permutation(N)
    parts = [perm[:large]]
    for i in range(k):
        parts.append(perm[large + i * small : large + (i + 1) * small])
    adj = graph.adj.copy()
    for part in parts:
        adj[np.ix_(part, part)] = False
    after, report = _report(graph, adj)
    report.parts = [np.sort(p) for p in parts]
    return after, report


def adversary_triangle_killer(graph: Graph, victims: Sequence[int]) -> tuple:
    """For each victim v, delete every edge with both endpoints in N(v), so no
    victim lies in a triangle afterwards. Neighborhoods are taken in the input
    graph, so the result is independent of victim order."""
    adj = graph.adj.copy()
    for v in victims:
        nbrs = np.nonzero(graph.adj[int(v)])[0]
        adj[np.ix_(nbrs, nbrs)] = False
    return _report(graph, adj)


# Segments at or below this many live edges are settled by the sequential rule.
_LEAF_EDGES = 256

# Positions of the random order per block of adversary_random's walk.
_SETTLE_BLOCK = 1 << 16


def adversary_random(graph: Graph, r: float, seed: int) -> tuple:
    """Delete edges in uniformly random order, skipping any edge whose
    endpoints' budgets floor(r * d_G(v)) are exhausted. Deletion never exceeds
    the budget at any vertex, by construction.

    The rule is greedy and order-dependent, but most of it is settled on
    arrays (``_settle``) with exactly the sequential outcome, using two facts.
    Deletion counts only rise, so an edge with an exhausted endpoint stays
    undeletable. And within a segment of the order, a vertex whose count plus
    its live edges in the segment is at most its budget ("safe") cannot run
    out there, so a live edge with two safe endpoints is deleted whatever the
    order. ``oracles.sequential_random_adversary`` is the edge-by-edge rule.

    The random order (``_rank_edges``) ranks one raw Philox word of
    stream(seed, 3) per edge, and is walked in consecutive blocks of
    _SETTLE_BLOCK flat positions. ``_settle`` gives the sequential outcome on
    any segment from the counts of every edge before it, and consecutive
    blocks taken in order are such segments, so the walk is exact. A block is
    short enough for vertices to be safe in it, where the first levels of a
    whole-order segment only build masks that decide nothing. Each block is
    split into int64 endpoints, so no endpoint array is longer than a block.

    One uint64 buffer of max(8m, n*n + 4m) bytes (n*n + 8m when n * n >
    2**31, where the order is the int64 keys) holds the whole transient:
    ``_rank_edges`` sorts the keys in its tail and leaves the order in its
    last 4m bytes, the adjacency is copied into its first n*n bytes and
    thinned there, and the buffer, shrunk to those bytes, is the thinned
    graph's matrix. So the adversary maps and returns one block of memory
    and frees nothing larger than an N x N matrix, which leaves glibc's
    dynamic mmap threshold where the host's matrix put it. Two other layouts
    raised the benchmark's peak RSS: an m-entry key array freed after the
    sort lifted the threshold and pushed later N x N matrices onto the heap
    (embed-accept 68 -> 78-80 MB), and a key buffer shrunk to the order
    beside a heap copy of the adjacency was mapped on top of heap memory
    glibc had kept from the previous trial in about half the runs
    (embed-knee 66 -> 72 MB)."""
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0,1], got {r}")
    n, m = graph.n, graph.edge_count()
    budget = np.floor(r * graph.degrees()).astype(np.int64)
    tail = m if n * n > 1 << 31 else -(-m // 2)
    buf = np.empty(max(m, -(-(n * n) // 8) + tail), dtype=np.uint64)
    order = _rank_edges(graph, stream(seed, 3), buf)
    adj = buf.view(bool)[: n * n].reshape(n, n)
    np.copyto(adj, graph.adj)
    cnt = np.zeros(n, dtype=np.int64)
    for lo in range(0, m, _SETTLE_BLOCK):
        us, vs = np.divmod(order[lo : lo + _SETTLE_BLOCK].astype(np.int64), n)
        _settle(us, vs, cnt, budget, adj)
    # No view of the buffer is left; a reference check would also count the
    # ones a debugger or a profiler holds on this frame.
    del order, adj
    buf.resize(-(-(n * n) // 8), refcheck=False)
    return _report(graph, buf.view(bool)[: n * n].reshape(n, n), budget)


def _rank_edges(graph: Graph, rng: np.random.Generator, buf: np.ndarray) -> np.ndarray:
    """The flat positions u * n + v of the edges u < v in the random
    adversary's order, as the int32 view of the last 4m bytes of ``buf``, a
    uint64 array of at least m entries (the int64 view of its last m entries
    when n * n > 2**31), drawing exactly one raw word of ``rng`` per edge.
    Edge i in lexicographic order takes word i, and its key is that word
    with its low ``bits = (n*n - 1).bit_length()`` bits replaced by its
    position; the edges go by ascending key, that is by (word >> bits,
    position). Keys are distinct, so any sort gives this one order, on every
    platform, from Philox's words alone (numpy does not freeze ``shuffle``
    across versions).

    The keys are the last m entries of ``buf``: the positions are scanned
    into them (``Graph._scan_positions``), the masked words are ORed in
    _DRAW_BLOCK at a time, and they are sorted in place and masked back to
    positions, which are then compacted as int32 into the last 4m bytes."""
    n, m = graph.n, graph.edge_count()
    low = np.uint64((1 << (n * n - 1).bit_length()) - 1)
    keys = buf[buf.size - m :]
    graph._scan_positions(keys.view(np.int64))
    for lo in range(0, m, _DRAW_BLOCK):
        words = rng.bit_generator.random_raw(min(_DRAW_BLOCK, m - lo))
        words &= ~low
        keys[lo : lo + words.size] |= words
    keys.sort()
    keys &= low
    if n * n > 1 << 31:
        return keys.view(np.int64)
    # Position i goes to the int32 slot over keys[(m + i) // 2], at or past
    # keys[i], so copied back to front, a chunk overwrites only keys already
    # copied and its own, which numpy reads before it writes.
    order = buf.view(np.int32)[2 * buf.size - m :]
    for hi in range(m, 0, -_DRAW_BLOCK):
        lo = max(0, hi - _DRAW_BLOCK)
        order[lo:hi] = keys[lo:hi]
    return order


def _settle(us, vs, cnt, budget, adj) -> None:
    """Apply the greedy budgeted rule to the edges (us[i], vs[i]) in order,
    given the deletion counts ``cnt`` of all edges before them: clear each
    deleted edge in ``adj`` (both triangles) and raise ``cnt``.

    Deleting the safe-safe edges of a segment up front raises only safe
    vertices' counts, and a safe vertex stays below its budget for every later
    edge of the segment, so the rest of the segment and its halves see the
    same decisions as the sequential rule."""
    below = cnt < budget
    live = below[us] & below[vs]
    if not live.all():
        us, vs = us[live], vs[live]
    if len(us) <= _LEAF_EDGES:
        du, dv = [], []
        for u, v in zip(us.tolist(), vs.tolist()):
            if cnt[u] < budget[u] and cnt[v] < budget[v]:
                cnt[u] += 1
                cnt[v] += 1
                du.append(u)
                dv.append(v)
        adj[du, dv] = False
        adj[dv, du] = False
        return
    n = len(cnt)
    safe = cnt + np.bincount(us, minlength=n) + np.bincount(vs, minlength=n) <= budget
    free = safe[us] & safe[vs]
    if free.any():
        fu, fv = us[free], vs[free]
        cnt += np.bincount(fu, minlength=n) + np.bincount(fv, minlength=n)
        adj[fu, fv] = False
        adj[fv, fu] = False
        us, vs = us[~free], vs[~free]
    half = len(us) // 2
    _settle(us[:half], vs[:half], cnt, budget, adj)
    _settle(us[half:], vs[half:], cnt, budget, adj)


def partite_blocker_sizes(N: int, k: int) -> list:
    """Part sizes of the complete (k+1)-partite graph that blocks a spanning
    k-th power of a Hamilton cycle: a balanced split of N, with one vertex
    shifted between parts when the split would be perfectly balanced (a
    balanced complete multipartite graph stops being a blocker exactly when
    k+1 divides N)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if k + 1 > N:
        raise ValueError(f"need k+1 <= N, got k={k}, N={N}")
    base, rem = divmod(N, k + 1)
    sizes = [base + 1] * rem + [base] * (k + 1 - rem)
    if rem == 0:
        sizes[0] -= 1
        sizes[1] += 1
    if min(sizes) < 1:
        raise ValueError(f"N={N} too small for a (k+1)-partite blocker with k={k}")
    return sorted(sizes)


def extremal_blocker(N: int, k: int) -> tuple:
    """The complete (k+1)-partite blocker graph on N vertices; returns
    (graph, view) with the parts of partite_blocker_sizes."""
    from .graph_core import complete_multipartite

    return complete_multipartite(partite_blocker_sizes(N, k))
