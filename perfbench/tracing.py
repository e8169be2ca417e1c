"""Spans and counters recorded from outside the program.

``Tracer.installed()`` rebinds the public functions of each layer in every
``powercycle`` module that holds them, so the pipeline calls through a
wrapper that records a span (name, start, end, parent span, trial seed) and
counts taken from the return value. Nothing under ``src/`` changes; leaving
the context restores the original functions. Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from workloads import EMBED_FAILURE_STAGES

# (module, attribute, span name). Every module of the package whose attribute
# is the same function object gets the wrapper, so calls through a name
# imported with ``from .x import f`` are traced too.
FUNCTIONS = (
    ("models", "gen_gnp", "models.gen_gnp"),
    ("models", "adversary_random", "models.adversary_random"),
    ("models", "gen_blowup", "models.gen_blowup"),
    ("graph_core", "count_canonical_cliques", "graph_core.count_canonical_cliques"),
    ("graph_core", "enumerate_canonical_cliques", "graph_core.enumerate_canonical_cliques"),
    ("regularity", "build_nice_partition", "regularity.build_nice_partition"),
    ("regularity", "check_regular_sampled", "regularity.check_regular_sampled"),
    ("typicality", "check_super_typical", "typicality.check_super_typical"),
    ("typicality", "typical_vertices", "typicality.typical_vertices"),
    ("expansion", "find_expander", "expansion.find_expander"),
    ("expansion", "expand_through", "expansion.expand_through"),
    ("embedder", "embed_power_cycle", "embedder.embed_power_cycle"),
    ("embedder", "build_reduced", "embedder.build_reduced"),
    ("embedder", "find_cluster_power_cycle", "embedder.find_cluster_power_cycle"),
    ("embedder", "verify_power_cycle", "embedder.verify_power_cycle"),
    ("harness", "_persist", "harness.persist"),
    ("harness", "_run_trial", "harness.trial"),
)

# Layers whose self time is reported under "<span name>.s".
SELF_TIMED = (
    "models.gen_gnp",
    "models.adversary_random",
    "models.gen_blowup",
    "graph_core.Graph.edges",
    "graph_core.Graph.rows",
    "graph_core.TupleView",
    "graph_core.count_canonical_cliques",
    "graph_core.enumerate_canonical_cliques",
    "regularity.build_nice_partition",
    "regularity.check_regular_sampled",
    "typicality.check_super_typical",
    "typicality.typical_vertices",
    "expansion.find_expander",
    "expansion.expand_through",
    "embedder.build_reduced",
    "embedder.find_cluster_power_cycle",
    "embedder.verify_power_cycle",
)

COUNTERS = (
    "models.adversary_random.deleted",
    "models.adversary_random.edges_scanned",
    "graph_core.TupleView.calls",
    "regularity.check_regular_sampled.calls",
    "regularity.refuted_pairs",
    "expansion.find_expander.calls",
    "expansion.find_expander.scanned",
    "expansion.find_expander.bisection_rounds",
    "expansion.find_expander.not_found",
    "expansion.expand_through.calls",
    "expansion.frontier_peak",
) + tuple(f"embedder.failure.{stage}" for stage in EMBED_FAILURE_STAGES)

EMBEDDER_PHASES = ("embedder.anchor.s", "embedder.extend.s", "embedder.closing.s")

# Every per-layer metric with its unit, in print order. Each is a mean per
# traced trial, except the two tracing wall times, which cover the whole run.
PER_LAYER = {
    **{f"{name}.s": "s" for name in SELF_TIMED},
    **dict.fromkeys(COUNTERS, "count"),
    "expansion.find_expander.scan_yield": "ratio",
    "embedder.embed_power_cycle.s": "s",
    **dict.fromkeys(EMBEDDER_PHASES, "s"),
    "embedder.self.s": "s",
    "harness.persist.s": "s",
    "harness.persist.bytes": "bytes",
    "harness.overhead.s": "s",
    "tracing.wall_s": "s",
    "tracing.untraced_wall_s": "s",
}


class Tracer:
    """Span and counter sink for one traced run."""

    def __init__(self):
        self.origin = time.perf_counter()
        # Spans as [name, start, end, parent index or None, trial seed or None].
        self.spans: list = []
        self.counts: dict = defaultdict(Counter)
        # (trial seed, graph, PowerCycle, eps) for every embedded cycle.
        self.cycles: list = []
        self.embed_failures: Counter = Counter()
        self._stack: list = []
        self._trial = None

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter() - self.origin, None, parent, self._trial])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter() - self.origin
        self._stack.pop()

    def _parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _count(self, name: str, value=1) -> None:
        self.counts[self._trial][name] += value

    def _wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    # -- counters taken from return values ------------------------------------

    def _after_adversary(self, result, *args, **kwargs):
        self._count("models.adversary_random.deleted", result[1].deleted_edges)

    def _after_edges(self, edges, *args, **kwargs):
        # The random adversary scans every edge of the list it asks for.
        if self._parent_name() == "models.adversary_random":
            self._count("models.adversary_random.edges_scanned", len(edges))

    def _after_view(self, result, *args, **kwargs):
        self._count("graph_core.TupleView.calls")

    def _after_regular(self, verdict, *args, **kwargs):
        self._count("regularity.check_regular_sampled.calls")
        self._count("regularity.refuted_pairs", int(verdict.refuted))

    def _after_expander(self, res, *args, **kwargs):
        self._count("expansion.find_expander.calls")
        self._count("expansion.find_expander.scanned", res.scanned)
        self._count("expansion.find_expander.bisection_rounds", res.bisection_rounds)
        self._count("expansion.find_expander.not_found", int(not res.found))
        self._count("expansion.find_expander.found", int(res.found))

    def _after_expand(self, trace, *args, **kwargs):
        self._count("expansion.expand_through.calls")
        counts = self.counts[self._trial]
        counts["expansion.frontier_peak"] = max(counts["expansion.frontier_peak"], max(trace.counts))

    def _after_embed(self, result, graph, partition, cycle, params):
        from powercycle.embedder import EmbedFailure

        if isinstance(result, EmbedFailure):
            self.embed_failures[result.stage] += 1
            self._count(f"embedder.failure.{result.stage}")
        else:
            self.cycles.append((self._trial, graph, result, params.eps))

    def _after_persist(self, result, config, summary, out_dir):
        written = sum(f.stat().st_size for f in Path(out_dir).iterdir() if f.is_file())
        self._count("harness.persist.bytes", written)

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Rebind every traced function and method for the duration."""
        import powercycle
        from powercycle import graph_core

        modules = {
            name: getattr(powercycle, name)
            for name in ("graph_core", "models", "regularity", "typicality", "expansion", "embedder", "harness")
        }
        hooks = {
            "models.adversary_random": self._after_adversary,
            "regularity.check_regular_sampled": self._after_regular,
            "expansion.find_expander": self._after_expander,
            "expansion.expand_through": self._after_expand,
            "embedder.embed_power_cycle": self._after_embed,
            "harness.persist": self._after_persist,
        }
        restore = []
        for module_name, attr, span in FUNCTIONS:
            original = getattr(modules[module_name], attr)
            wrapper = self._wrap(original, span, hooks.get(span))
            if span == "harness.trial":
                wrapper = self._trial_entry(wrapper)
            for owner in (powercycle, *modules.values()):
                for name, value in list(vars(owner).items()):
                    if value is original:
                        restore.append((owner, name, value))
                        setattr(owner, name, wrapper)

        graph_cls, view_cls = graph_core.Graph, graph_core.TupleView
        rows = graph_cls.__dict__["rows"]
        restore += [
            (graph_cls, "edges", graph_cls.edges),
            (graph_cls, "rows", rows),
            (view_cls, "__init__", view_cls.__init__),
        ]
        graph_cls.edges = self._wrap(graph_cls.edges, "graph_core.Graph.edges", self._after_edges)
        view_cls.__init__ = self._wrap(view_cls.__init__, "graph_core.TupleView", self._after_view)
        graph_cls.rows = property(self._first_rows(rows.fget), doc=rows.__doc__)
        try:
            yield self
        finally:
            for owner, name, value in reversed(restore):
                setattr(owner, name, value)

    def _trial_entry(self, traced):
        @functools.wraps(traced)
        def entry(task):
            self._trial = task[2]
            try:
                return traced(task)
            finally:
                self._trial = None

        return entry

    def _first_rows(self, fget):
        """Time only the access that builds the bitset rows."""

        def rows(graph):
            if graph._rows is not None:
                return fget(graph)
            idx = self._open("graph_core.Graph.rows")
            try:
                return fget(graph)
            finally:
                self._close(idx)

        return rows

    # -- results ---------------------------------------------------------------

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, trial in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "trial": trial})
                    + "\n"
                )

    def per_trial(self) -> dict:
        """Per-layer metrics of every traced trial, keyed by trial seed."""
        duration = [end - start for _, start, end, _, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        children = defaultdict(list)
        for idx, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                child_time[parent] += duration[idx]
                children[parent].append(idx)

        trials: dict = {}
        for idx, (name, start, end, _, trial) in enumerate(self.spans):
            if name == "harness.trial":
                trials[trial] = dict.fromkeys(PER_LAYER, 0.0)
        for idx, (name, start, end, _, trial) in enumerate(self.spans):
            if trial not in trials:
                continue
            row = trials[trial]
            self_s = duration[idx] - child_time[idx]
            if name == "harness.trial":
                row["harness.overhead.s"] += self_s
            elif name == "embedder.embed_power_cycle":
                row["embedder.embed_power_cycle.s"] += duration[idx]
                row["embedder.self.s"] += self_s
                searches = [
                    self.spans[c] for c in children[idx] if self.spans[c][0] == "expansion.find_expander"
                ]
                first = searches[0][1] if searches else end
                last = searches[-1][2] if searches else end
                row["embedder.anchor.s"] += first - start
                row["embedder.extend.s"] += last - first
                row["embedder.closing.s"] += end - last
            else:
                row[f"{name}.s"] += self_s
        for trial, row in trials.items():
            counts = self.counts[trial]
            for name in COUNTERS:
                row[name] = counts[name]
            scanned = counts["expansion.find_expander.scanned"]
            row["expansion.find_expander.scan_yield"] = (
                counts["expansion.find_expander.found"] / scanned if scanned else 0.0
            )
        return trials

    def persist_totals(self) -> tuple:
        """(seconds, bytes) spent persisting, over all run_experiment calls."""
        seconds = sum(end - start for name, start, end, _, _ in self.spans if name == "harness.persist")
        return seconds, self.counts[None]["harness.persist.bytes"]
