"""Experiment harness: declarative configs, seeded trial sweeps, JSONL/JSON
persistence, and exact replay.

A config names one experiment kind, its parameter dict, and a seed list. One
table, ``_EXPERIMENTS``, gives each kind's modes (the first is the default)
and each mode's trial runner, params keys and parameter builders;
``_ADVERSARIES`` gives each adversary's spec keys, and ``_VALUES`` each key's
type and bound. A config is checked against them when it is built, so a
missing or unknown key, mode or adversary, a malformed value, a parameter its
builders refuse, or parts larger than the host (a partite skew included) is
a ValueError naming it before any trial runs; values no config sets are
module constants. The config hash covers params as given, never their
defaults.

Every kind runs through one path. A resilience sweep runs one trial per
(grid point r, seed) and any other kind one per seed; ``_point`` gives a
trial's params at its point, and every sweep record names its r, a crashed
trial's included, so its point is counted and replayed. Each (kind, params,
seed) trial is a pure function of its arguments - all randomness is drawn
from counter-based streams keyed by the trial seed - so parallel and serial
sweeps produce identical records and any stored record can be replayed
bit-exactly. Timings are recorded but never compared.

Every trial, serial, in a forked pool worker or replayed, runs with the
OpenBLAS that numpy loaded set to one thread (``_run_trial``), and the
process's thread count is restored after it. The sampled refuter's stacked
products are large enough for OpenBLAS to split over two threads, which on a
small host costs time and CPU; every count they produce is an exact integer
below 2^24, so no record depends on the thread count. Where no OpenBLAS
thread setter is found (no /proc, another BLAS) trials run as they are.

A run has two settings, each from one source: its worker count, the config's
``workers``, and its output directory, ``run_experiment``'s ``out_dir``, else
the config's (the CLI's ``--workers`` and ``--out`` set the config's).

Outputs: one TrialRecord per line (JSONL) and one JSON summary: the config
and every tally of its records, pooled and, for a sweep, per grid point
(``points``), all recomputable from the JSONL.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from multiprocessing import get_context
from pathlib import Path
from typing import Optional

import numpy as np

from . import graph_core, models, regularity, typicality, expansion, embedder

CONFIG_SCHEMA = "powercycle/config-v1"
TRIAL_SCHEMA = "powercycle/trial-v4"
SUMMARY_SCHEMA = "powercycle/summary-v2"

TRIALS = 200  # sampled-refuter trials of a check whose config sets none
PARTITION_MU = 0.5  # mu of the regularity-audit partition mode
CERT_EPSILON = CERT_DELTA = 0.45  # the one-step expansion audit's typicality certificate
REG_EPSILON = 0.25  # epsilon of the partition an embed trial builds

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "ExperimentSummary",
    "run_experiment",
    "resilience_sweep",
    "replay",
    "check_replayable",
    "canonical_json",
    "config_hash",
    "summarize_records",
    "load_records",
    "KINDS",
]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(kind: str, params: dict) -> str:
    return hashlib.sha256(canonical_json({"kind": kind, "params": params}).encode()).hexdigest()[:16]


def _is_count(value, least: int) -> bool:
    """True for an int (not a bool) of at least ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _is_number(value) -> bool:
    """True for an int or float (not a bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_fraction(value) -> bool:
    """True for an int or float (not a bool) in [0, 1]."""
    return _is_number(value) and 0 <= value <= 1


# Params, adversary-spec and assertion key -> (test of its value, what the
# test asks for). ``_check_keys`` applies it to every key it admits; ranges
# and bounds between keys are left to the builders and to validate.
_VALUES = {
    "clusters": (lambda v: _is_count(v, 3), "an integer of at least 3"),
    **dict.fromkeys("N n t k m q set_size samples n_splits".split(),
                    (lambda v: _is_count(v, 1), "an integer of at least 1")),
    "trials": (lambda v: _is_count(v, 0), "a non-negative integer"),
    **dict.fromkeys("p r kappa min_ok_fraction max_ok_fraction".split(), (_is_fraction, "a fraction in [0,1]")),
    **dict.fromkeys("delta eps eps_prime epsilon d xi min_fraction start_fraction skew".split(),
                    (_is_number, "a number")),
    "r_grid": (
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_fraction, v)) and 0 < len(set(v)) == len(v),
        "a nonempty list of distinct fractions in [0,1]",
    ),
    "victims": (lambda v: isinstance(v, (list, tuple)) and all(_is_count(x, 0) for x in v), "a list of vertex ids"),
}


def _named_params(cls, **fields):
    """``cls(**fields)`` for a parameter dataclass whose refusals are
    ValueErrors opening with the field's name, which is also its params key;
    a refusal is re-raised naming ``params.<field>``."""
    try:
        return cls(**fields)
    except ValueError as err:
        field, _, reason = str(err).partition(" ")
        raise ValueError(f"params.{field}: {reason}") from None


def _check_out_dir(out_dir) -> None:
    if out_dir is not None and not isinstance(out_dir, (str, os.PathLike)):
        raise ValueError(f"out_dir: must be a directory path, got {out_dir!r}")


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    seeds: list
    out_dir: Optional[str] = None
    workers: int = 1
    assertions: list = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _lookup(_EXPERIMENTS, "kind", self.kind)
        if not isinstance(self.seeds, (list, tuple)) or not self.seeds:
            raise ValueError("seeds: must be a nonempty list of integers")
        for seed in self.seeds:
            if not _is_count(seed, 0):
                raise ValueError(f"seeds: every seed must be a non-negative integer, got {seed!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds: a seed is repeated in {list(self.seeds)}, so its trial would run twice")
        if not _is_count(self.workers, 1):
            raise ValueError(f"workers: must be a positive integer, got {self.workers!r}")
        _check_out_dir(self.out_dir)
        if not isinstance(self.params, dict):
            raise ValueError("params: must be a mapping")
        _, required, optional, builders = _entry(self.kind, self.params)
        _check_keys("params.", self.params, required, optional + " mode")
        if "adversary" in self.params:
            spec = self.params["adversary"]
            adversary = spec.get("kind") if isinstance(spec, dict) else None
            _, spec_required, spec_optional = _lookup(_ADVERSARIES, "params.adversary.kind", adversary)
            _check_keys("params.adversary.", spec, spec_required, spec_optional + " kind")
        for build in builders:
            build(self.params)
        for key, need, size in _host_demands(self.params):
            if need > self.params[size]:
                raise ValueError(f"params.{key}: needs {need} host vertices; params.{size} is {self.params[size]}")
        spec = self.params["adversary"] if "adversary" in self.params else {}
        if spec.get("kind") == "partite":
            try:
                models.partite_large_part(self.params["N"], spec["k"], spec.get("skew", 0.0))
            except ValueError as err:
                raise ValueError(f"params.adversary.skew: {err}") from None
        if not isinstance(self.assertions, (list, tuple)):
            raise ValueError("assertions: must be a list of rules")
        for rule in self.assertions:
            _check_keys("assertions.", rule, "", "min_ok_fraction max_ok_fraction r")
            if "r" in rule and rule["r"] not in self.params.get("r_grid", ()):
                raise ValueError(f"assertions.r: {rule['r']!r} is not in a resilience-sweep's params.r_grid")
            # A rule with no bound always passes, and one whose bounds cross
            # never does.
            if not {"min_ok_fraction", "max_ok_fraction"} & rule.keys():
                raise ValueError("assertions.min_ok_fraction: required when a rule has no max_ok_fraction")
            if rule.get("min_ok_fraction", 0) > rule.get("max_ok_fraction", 1):
                raise ValueError(f"assertions.min_ok_fraction: {rule['min_ok_fraction']!r} exceeds max_ok_fraction")

    @property
    def hash(self) -> str:
        return config_hash(self.kind, self.params)

    def to_dict(self) -> dict:
        return {
            "schema": CONFIG_SCHEMA,
            "kind": self.kind,
            "params": self.params,
            "seeds": list(self.seeds),
            "out_dir": self.out_dir,
            "workers": self.workers,
            "assertions": self.assertions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _check_keys("", data, "kind params seeds", "schema out_dir workers assertions")
        if data.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
            raise ValueError(f"schema: expected {CONFIG_SCHEMA!r}, got {data['schema']!r}")
        return cls(**{key: value for key, value in data.items() if key != "schema"})


@dataclass
class TrialRecord:
    config_hash: str
    kind: str
    seed: int
    measured: dict
    ok: bool
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "schema": TRIAL_SCHEMA,
            "config_hash": self.config_hash,
            "kind": self.kind,
            "seed": self.seed,
            "measured": self.measured,
            "ok": self.ok,
            "elapsed": self.elapsed,
        }

    def measured_bytes(self) -> bytes:
        """Canonical serialization of everything replay must reproduce."""
        return canonical_json(
            {"config_hash": self.config_hash, "seed": self.seed, "measured": self.measured, "ok": self.ok}
        ).encode()

    @classmethod
    def from_dict(cls, data: dict) -> "TrialRecord":
        return cls(
            config_hash=data["config_hash"],
            kind=data["kind"],
            seed=int(data["seed"]),
            measured=data["measured"],
            ok=bool(data["ok"]),
            elapsed=float(data["elapsed"]),
        )


# ---------------------------------------------------------------------------
# Trial runners, one per experiment kind and mode. Each is a pure function of
# (params, seed) returning (measured, ok); it reads its required keys with
# params[key] and gives each optional key its default where it reads it.


def _count_blowup(params: dict, seed: int) -> tuple:
    t, n, p, delta = params["t"], params["n"], params["p"], params["delta"]
    pattern = graph_core.complete_graph(t)
    _, view = models.gen_blowup(pattern, n, p, seed)
    count = graph_core.count_canonical_cliques(view, 0, t)
    expected = graph_core.expected_clique_count(view, range(t))
    ratio = count / expected if expected else math.inf
    ok = (1 - delta) <= ratio <= (1 + delta)
    return {"count": count, "expected": expected, "ratio": ratio}, ok


def _count_gnp_sets(params: dict, seed: int) -> tuple:
    N, p, t, n_set, eps = params["N"], params["p"], params["t"], params["set_size"], params["eps"]
    host = models.gen_gnp(models.ModelParams(N=N, p=p, seed=seed))
    rng = models.stream(seed, 53)
    perm = rng.permutation(N)
    parts = [perm[i * n_set : (i + 1) * n_set] for i in range(t)]
    view = graph_core.TupleView(host, parts)
    ok = typicality.clique_count_upper_check(view, t, eps, p)
    count = graph_core.count_canonical_cliques(view, 0, t)
    bound = (1 + eps) * (n_set**t) * p ** (t * (t - 1) // 2)
    return {"count": count, "bound": bound}, ok


def _regularity_params(params: dict) -> regularity.RegularityParams:
    """The RegularityParams of a regularity-audit partition config, at mu =
    PARTITION_MU and TRIALS sampled trials where it sets none; a value
    RegularityParams refuses is a ValueError naming its params key."""
    return _named_params(
        regularity.RegularityParams,
        epsilon=params["epsilon"], p=params["p"], d=params["d"], mu=PARTITION_MU, trials=params.get("trials", TRIALS),
    )


def _regularity_partition(params: dict, seed: int) -> tuple:
    N, p = params["N"], params["p"]
    reg = _regularity_params(params)
    host = models.gen_gnp(models.ModelParams(N=N, p=p, seed=seed))
    part = regularity.build_nice_partition(host, reg, m=params["m"], seed=seed)
    measured = {
        "classes": part.k,
        "class_size": part.class_size,
        "useful_pairs": len(part.useful_pairs),
        "partner_ok": bool(part.partner_ok),
    }
    return measured, bool(part.partner_ok)


def _regularity_inheritance(params: dict, seed: int) -> tuple:
    n, p, q = params["n"], params["p"], params["q"]
    pattern = graph_core.complete_graph(2)
    host, view = models.gen_blowup(pattern, n, p, seed)
    frac = regularity.inheritance_stats(
        host,
        view.parts[0],
        view.parts[1],
        q,
        q,
        params["eps_prime"],
        p,
        samples=params.get("samples", 100),
        seed=seed,
    )
    ok = frac >= params.get("min_fraction", 0.9)
    return {"fraction_regular": frac}, ok


def _typicality_params(params: dict) -> typicality.TypicalityParams:
    """The TypicalityParams of a typicality-audit config, with TRIALS sampled
    trials where it sets none. A part count t below 3 or a value
    TypicalityParams refuses is a ValueError naming its params key."""
    if params["t"] < 3:
        raise ValueError(f"params.t: must be at least 3, got {params['t']!r}")
    return _named_params(
        typicality.TypicalityParams,
        epsilon=params["epsilon"], delta=params["delta"], p=params["p"], trials=params.get("trials", TRIALS),
    )


def _run_typicality_audit(params: dict, seed: int) -> tuple:
    typ = _typicality_params(params)
    pattern = graph_core.complete_graph(params["t"])
    _, view = models.gen_blowup(pattern, params["n"], params["p"], seed)
    report = typicality.check_super_typical(view, typ, seed=seed)
    measured = report.to_dict()
    measured.pop("schema")
    return measured, report.super_typical


def _sample_start(view, k: int, fraction: float, least: int, seed: int) -> np.ndarray:
    """Dense start of max(least, ceil(fraction * x)) canonical K_k copies in
    the first window, x its measured reference count, picked from their
    lexicographic order with stream(seed, 59)."""
    all_start = graph_core.window_cliques(view, 0, k)
    positions = np.nonzero(all_start)
    size = len(positions[0])
    x_start = expansion.reference_count(view, 0, k)
    m = max(least, math.ceil(fraction * x_start))
    rng = models.stream(seed, 59)
    picks = rng.choice(size, size=min(m, size), replace=False)
    return graph_core.pick_frontier(all_start.shape, positions, picks)


def _expansion_params(params: dict) -> expansion.ExpansionParams:
    """The ExpansionParams of an expansion-audit config; a value
    ExpansionParams refuses is a ValueError naming its params key."""
    return _named_params(expansion.ExpansionParams, k=params["k"], delta=params["delta"])


def _certificate_params(params: dict) -> typicality.TypicalityParams:
    """The typicality certificate of a one-step expansion audit: CERT_EPSILON,
    CERT_DELTA and TRIALS at the config's p; a p TypicalityParams refuses is
    a ValueError naming params.p."""
    return _named_params(
        typicality.TypicalityParams, epsilon=CERT_EPSILON, delta=CERT_DELTA, p=params["p"], trials=TRIALS
    )


def _one_step_kappa(params: dict) -> float:
    """The one-step audit's start fraction; 0, an empty start that tests
    nothing, is a ValueError naming params.kappa."""
    if params["kappa"] == 0:
        raise ValueError("params.kappa: must be in (0, 1], got 0: an empty start set tests nothing")
    return params["kappa"]


def _expansion_one_step(params: dict, seed: int) -> tuple:
    k, n, p, delta, kappa = params["k"], params["n"], params["p"], params["delta"], _one_step_kappa(params)
    typ = _certificate_params(params)
    _, view = models.gen_blowup(graph_core.complete_graph(k + 1), n, p, seed)
    exp = _expansion_params(params)
    try:
        frac = expansion.one_step_expansion_audit(view, kappa, exp, typ, seed)
    except expansion.PreconditionError as err:
        return {"refused": True, "failing": err.failing}, False
    bound = kappa - 3 * kappa * delta - 6 * delta
    return {"fraction": frac, "bound": bound}, frac >= bound


def _expansion_main(params: dict, seed: int) -> tuple:
    exp = _expansion_params(params)
    k, delta = exp.k, exp.delta
    _, view = models.gen_blowup(_path_power_pattern(2 * k, k), params["n"], params["p"], seed)
    start = _sample_start(view, k, delta, 1, seed)
    trace = expansion.expand_through(start, view, k)
    bound = 1 - 10 * delta
    return {
        "start_size": int(np.count_nonzero(start)),
        "final_fraction": trace.final_fraction,
        "bound": bound,
    }, trace.final_fraction >= bound


def _expansion_halving(params: dict, seed: int) -> tuple:
    k, delta = params["k"], params["delta"]
    _, view = models.gen_blowup(_path_power_pattern(2 * k, k), params["n"], params["p"], seed)
    least = 2
    start = _sample_start(view, k, params.get("start_fraction", delta), least, seed)
    exp = _expansion_params(params)
    audit = expansion.halving_audit(start, view, exp, params.get("n_splits", 3), seed)
    measured = {
        "start_qualifies": audit["start_qualifies"],
        "start_fraction": audit["start_fraction"],
        "splits_ok": audit["all_ok"],
        "best_half_fractions": [s["best_half_fraction"] for s in audit["splits"]],
    }
    # A start that does not qualify, or has fewer than two copies to halve,
    # tests nothing: the trial fails as its own outcome.
    if not audit["start_qualifies"] or np.count_nonzero(start) < least:
        measured["stage"] = "vacuous"
        return measured, False
    return measured, audit["all_ok"]


def _path_power_pattern(length: int, k: int) -> graph_core.Graph:
    edges = [(i, j) for i in range(length) for j in range(i + 1, min(i + k, length - 1) + 1)]
    return graph_core.Graph.from_edges(length, edges)


# Adversary kind -> (its call on (host g, spec s, seed) returning the thinned
# host and its report, required spec keys, optional spec keys).
_ADVERSARIES = {
    "none": (lambda g, s, seed: (g, None), "", ""),
    "random": (lambda g, s, seed: models.adversary_random(g, s["r"], seed), "r", ""),
    "partite": (lambda g, s, seed: models.adversary_partite(g, s["k"], s.get("skew", 0.0), seed), "k", "skew"),
    "triangle-killer": (lambda g, s, seed: models.adversary_triangle_killer(g, s["victims"]), "victims", ""),
}


def _embed_params(params: dict, seed: int) -> embedder.EmbedParams:
    """The EmbedParams of an embed or resilience-sweep config, with xi = eps/4
    and delta = 0.0225 where it sets none; a value EmbedParams refuses is a
    ValueError naming its params key."""
    return _named_params(
        embedder.EmbedParams,
        k=params["k"],
        xi=params.get("xi", params["eps"] / 4),
        delta=params.get("delta", 0.0225),
        eps=params["eps"],
        seed=seed,
    )


def _partition_params(params: dict) -> regularity.RegularityParams:
    """The RegularityParams of the partition an embed trial builds: epsilon
    REG_EPSILON, mu = k/(k+1) and TRIALS at the config's p and d. A value they
    refuse, or a cluster count no ordering search can order (above
    CLUSTER_SEARCH_CAP or below k+2), is a ValueError naming its params key."""
    k, clusters = params["k"], params["clusters"]
    if clusters > embedder.CLUSTER_SEARCH_CAP:
        raise ValueError(f"params.clusters: {clusters} exceed the exact-search cap {embedder.CLUSTER_SEARCH_CAP}")
    if clusters < k + 2:
        raise ValueError(f"params.clusters: a k-power cycle ordering needs at least k+2={k + 2}, got {clusters}")
    return _named_params(
        regularity.RegularityParams, epsilon=REG_EPSILON, p=params["p"], d=params["d"], mu=k / (k + 1), trials=TRIALS
    )


def _run_embed(params: dict, seed: int) -> tuple:
    N, p, k = params["N"], params["p"], params["k"]
    host = models.gen_gnp(models.ModelParams(N=N, p=p, seed=seed))
    spec = params.get("adversary", {"kind": "none"})
    thinned, adv_report = _ADVERSARIES[spec["kind"]][0](host, spec, seed)
    # Only the thinned graph is read from here on (it is the host when
    # nothing was deleted), so the host's matrix is not held through the
    # partition and the embedding.
    del host
    measured: dict = {}
    if adv_report is not None:
        measured["adversary"] = adv_report.to_dict()

    part = regularity.build_nice_partition(thinned, _partition_params(params), m=params["clusters"], seed=seed)
    measured["partner_ok"] = bool(part.partner_ok)
    red = embedder.build_reduced(part)
    measured["reduced_edges"] = red.edge_count()
    cyc = embedder.find_cluster_power_cycle(red, k)
    if cyc is None:
        measured.update({"success": False, "stage": "cluster-cycle"})
        return measured, False

    result = embedder.embed_power_cycle(thinned, part, cyc, _embed_params(params, seed))
    if isinstance(result, embedder.PowerCycle):
        # embed_power_cycle returns a cycle only after verify_power_cycle passed it.
        measured.update(
            {
                "success": True,
                "stage": "ok",
                "cycle_length": len(result),
                "coverage": len(result) / N,
            }
        )
        return measured, True
    measured.update(
        {"success": False, "stage": result.stage, "detail": result.detail, "step": result.step}
    )
    return measured, False


def _run_resilience_point(params: dict, seed: int) -> tuple:
    return _run_embed({**params, "adversary": {"kind": "random", "r": params["r"]}}, seed)


# Experiment kind -> mode -> (trial runner, required params keys, optional
# params keys, the parameter builders the runner shares with
# ExperimentConfig.validate, so a value their dataclasses refuse is refused
# before any trial). A kind's first mode is its default, and a kind of one
# mode names it None; "mode" itself is allowed for every kind.
_EMBED_PARAMS = (partial(_embed_params, seed=0), _partition_params)
_EXPERIMENTS = {
    "count-audit": {
        "blowup": (_count_blowup, "t n p delta", "", ()),
        "gnp-sets": (_count_gnp_sets, "N p t set_size eps", "", ()),
    },
    "regularity-audit": {
        "partition": (_regularity_partition, "N p epsilon d m", "trials", (_regularity_params,)),
        "inheritance": (_regularity_inheritance, "n p q eps_prime", "samples min_fraction", ()),
    },
    "typicality-audit": {None: (_run_typicality_audit, "t n p epsilon delta", "trials", (_typicality_params,))},
    "expansion-audit": {
        "one-step": (
            _expansion_one_step, "k n p delta kappa", "", (_expansion_params, _certificate_params, _one_step_kappa)
        ),
        "main": (_expansion_main, "k n p delta", "", (_expansion_params,)),
        "halving": (_expansion_halving, "k n p delta", "start_fraction n_splits", (_expansion_params,)),
    },
    "embed": {None: (_run_embed, "N p k d eps clusters", "adversary xi delta", _EMBED_PARAMS)},
    "resilience-sweep": {None: (_run_resilience_point, "N p k d eps clusters r_grid", "xi delta", _EMBED_PARAMS)},
}

KINDS = tuple(_EXPERIMENTS)


def _lookup(table: dict, path: str, name):
    """table[name], or a ValueError naming ``path`` and the choices."""
    if name not in tuple(table):
        raise ValueError(f"{path}: unknown {name!r}; choose from {tuple(table)}")
    return table[name]


def _entry(kind: str, params: dict) -> tuple:
    """(runner, required keys, optional keys, builders) of a config's kind and mode."""
    return _lookup(_EXPERIMENTS[kind], "params.mode", params.get("mode", next(iter(_EXPERIMENTS[kind]))))


def _check_keys(path: str, given, required: str, optional: str) -> None:
    """Refuse a ``given`` mapping that lacks a required key, holds a key that
    is neither required nor optional, or holds a value its ``_VALUES`` rule
    refuses; errors name ``path + key``."""
    if not isinstance(given, dict):
        raise ValueError(f"{path.rstrip('.') or 'config'}: must be a mapping")
    for key in required.split():
        if key not in given:
            raise ValueError(f"{path}{key}: required")
    allowed = required.split() + optional.split()
    for key in given:
        if key not in allowed:
            raise ValueError(f"{path}{key}: unknown key; allowed: {', '.join(allowed)}")
        if key in _VALUES and not _VALUES[key][0](given[key]):
            raise ValueError(f"{path}{key}: must be {_VALUES[key][1]}, got {given[key]!r}")


def _host_demands(params: dict):
    """(key, host vertices its value asks for, params key of the host size) of
    each key of a checked params whose parts or victims the host must hold."""
    for key, size in (("m", "N"), ("clusters", "N"), ("q", "n")):
        if key in params:
            yield key, params[key], size
    if "set_size" in params:
        yield "set_size", params["t"] * params["set_size"], "N"
    spec = params["adversary"] if "adversary" in params else {}
    if "k" in spec:
        yield "adversary.k", spec["k"] + 1, "N"
    if "victims" in spec:
        yield "adversary.victims", max(spec["victims"], default=-1) + 1, "N"


def _point(params: dict, r) -> dict:
    """A trial's params at sweep grid point ``r``; ``params`` when r is None."""
    return params if r is None else {**params, "r": r}


# The (set, get) thread-count symbols of an OpenBLAS build: the one numpy's
# wheels bundle, a 64-bit-integer build, and a plain one.
_BLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads")


@cache
def _blas_threads():
    """(set, get) of the thread count of the OpenBLAS this process loaded,
    found through /proc/self/maps on first use, or None when there is none
    (no /proc, or numpy built on another BLAS)."""
    try:
        with open("/proc/self/maps") as fh:
            maps = [line.split(None, 5) for line in fh if "openblas" in line.lower()]
    except OSError:
        return None
    for path in sorted({parts[5].strip() for parts in maps if len(parts) == 6}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_SYMBOLS:
            setter, getter = (getattr(lib, symbol.format(verb), None) for verb in ("set", "get"))
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype, getter.restype = [ctypes.c_int], None, ctypes.c_int
                return setter, getter
    return None


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread and restore the count after it."""
    found = _blas_threads()
    if found is None:
        yield
        return
    set_threads, get_threads = found
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def _run_trial(args: tuple) -> dict:
    """The record of one (kind, params, seed) trial, run on one BLAS thread;
    every trial, serial, pooled or replayed, runs through here."""
    kind, params, seed, chash = args
    start = time.perf_counter()
    try:
        with _one_blas_thread():
            measured, ok = _entry(kind, params)[0](params, seed)
    except Exception as err:  # trial-level failure: recorded, not fatal
        measured, ok = {"error": f"{type(err).__name__}: {err}"}, False
    if "r_grid" in params:  # a sweep record names its point, crashed or not
        measured["r"] = params["r"]
    elapsed = time.perf_counter() - start
    return TrialRecord(
        config_hash=chash, kind=kind, seed=seed, measured=measured, ok=ok, elapsed=elapsed
    ).to_dict()


@dataclass(eq=False)
class ExperimentSummary:
    """A run's config and its records. Every tally is computed from the
    records once, when first read."""

    config: ExperimentConfig
    records: list

    @cached_property
    def stats(self) -> dict:
        return summarize_records(self.records)

    @cached_property
    def assertions_passed(self) -> bool:
        return _check_assertions(self.config, self.stats)

    @property
    def n_trials(self) -> int:
        return self.stats["n_trials"]

    @property
    def ok_fraction(self) -> float:
        return self.stats["ok_fraction"]

    @property
    def metrics(self) -> dict:
        return self.stats["metrics"]

    def to_dict(self) -> dict:
        return {
            "schema": SUMMARY_SCHEMA,
            "config_hash": self.config.hash,
            "kind": self.config.kind,
            **self.stats,
            "assertions_passed": self.assertions_passed,
            "config": self.config.to_dict(),
        }


def _numeric_metrics(records: list) -> dict:
    metrics: dict = {}
    for rec in records:
        for key, value in rec["measured"].items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            metrics.setdefault(key, []).append(float(value))
    return {
        key: {"mean": sum(vals) / len(vals), "min": min(vals), "max": max(vals)}
        for key, vals in sorted(metrics.items())
    }


def _tally(records: list) -> dict:
    """The trial count, the ok fraction (0.0 with no trials), the tally of
    stages (``measured["stage"]``: an embed trial's, or a vacuous halving
    audit's) and the number of crashed trials (records with an ``error``)."""
    stages = Counter(rec["measured"]["stage"] for rec in records if "stage" in rec["measured"])
    return {
        "n_trials": len(records),
        "ok_fraction": sum(1 for rec in records if rec["ok"]) / len(records) if records else 0.0,
        "stages": dict(sorted(stages.items())),
        "errors": sum(1 for rec in records if "error" in rec["measured"]),
    }


def summarize_records(records: list) -> dict:
    """The pooled ``_tally`` and per-metric mean/min/max of any stream of
    trial records; records that name their grid point (``measured["r"]``)
    add ``points``, one ``{"r", **_tally}`` per r in first-seen order."""
    stats = {**_tally(records), "metrics": _numeric_metrics(records)}
    points: dict = {}
    for rec in records:
        if "r" in rec["measured"]:
            points.setdefault(rec["measured"]["r"], []).append(rec)
    if points:
        stats["points"] = [{"r": r, **_tally(subset)} for r, subset in points.items()]
    return stats


def _check_assertions(config: ExperimentConfig, stats: dict) -> bool:
    """Every rule holds for the pooled tally, or for its r's point."""
    points = {point["r"]: point for point in stats.get("points", ())}
    for rule in config.assertions:
        tally = points.get(rule["r"], {}) if "r" in rule else stats
        if not tally.get("n_trials"):
            return False
        if not rule.get("min_ok_fraction", 0) <= tally["ok_fraction"] <= rule.get("max_ok_fraction", 1):
            return False
    return True


def run_experiment(config: ExperimentConfig, out_dir=None) -> ExperimentSummary:
    """Execute one trial per seed at each grid point (a kind with no r_grid
    has the one point None) on ``config.workers`` processes and persist the
    JSONL records and the JSON summary to ``out_dir``, else the config's
    (None: nothing is written). An ``out_dir`` that is not a path, or that
    cannot be made, is a ValueError before the first trial."""
    out_dir = out_dir or config.out_dir
    _check_out_dir(out_dir)
    if out_dir is not None:
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ValueError(f"out_dir: cannot make {str(out_dir)!r}: {err.strerror or err}") from None
    chash = config.hash
    grid = config.params["r_grid"] if "r_grid" in config.params else [None]
    tasks = [(config.kind, _point(config.params, r), seed, chash) for r in grid for seed in config.seeds]

    if config.workers > 1:
        with get_context("fork").Pool(config.workers) as pool:
            records = pool.map(_run_trial, tasks)
    else:
        records = [_run_trial(task) for task in tasks]

    summary = ExperimentSummary(config=config, records=records)
    if out_dir is not None:
        _persist(config, summary, Path(out_dir))
    return summary


def resilience_sweep(config: ExperimentConfig) -> dict:
    """Success-fraction curve over the r grid of a resilience-sweep config."""
    if config.kind != "resilience-sweep":
        raise ValueError(f"kind: expected resilience-sweep, got {config.kind!r}")
    summary = run_experiment(config)
    curve = {point["r"]: point["ok_fraction"] for point in summary.stats["points"]}
    return {"curve": curve, "summary": summary}


def _persist(config: ExperimentConfig, summary: ExperimentSummary, out_dir: Path) -> None:
    stem = f"{config.kind}-{config.hash}"
    with open(out_dir / f"{stem}.jsonl", "w") as fh:
        for rec in summary.records:
            fh.write(canonical_json(rec) + "\n")
    with open(out_dir / f"{stem}.json", "w") as fh:
        fh.write(canonical_json(summary.to_dict()) + "\n")


def load_records(path) -> list:
    """The trial records of a JSONL file. The first line that is not JSON,
    else the first that is not an object with a config_hash and a seed, is a
    ValueError naming it."""
    lines = []
    with open(path) as fh:
        for no, line in enumerate(fh, 1):
            try:
                if line.strip():
                    lines.append((no, json.loads(line)))
            except json.JSONDecodeError as err:
                raise ValueError(f"{path} line {no}: not a JSON record ({err.msg} at column {err.colno})") from None
    for no, record in lines:
        if not isinstance(record, dict) or not {"config_hash", "seed"} <= record.keys():
            raise ValueError(f"{path} line {no}: not a trial record (an object with a config_hash and a seed)")
    return [record for _, record in lines]


# Record field past its schema and config hash that replay reads -> (test of
# its value, what the test asks for); measured first, the field compared.
_RECORD_FIELDS = {
    "measured": (lambda v: isinstance(v, dict), "an object"),
    "seed": (lambda v: _is_count(v, 0), "a non-negative integer"),
    "kind": (lambda v: isinstance(v, str), "a string"),
    "ok": (lambda v: isinstance(v, bool), "a bool"),
    "elapsed": (_is_number, "a number"),
}


def check_replayable(config: ExperimentConfig, record: dict) -> None:
    """Raise a ValueError naming the record's seed unless it is of this
    code's trial schema (else its draws are not this code's), of the
    config's hash (else it belongs to another config), with every field
    ``TrialRecord.from_dict`` reads, each of its type (``_RECORD_FIELDS``;
    else there is no record to compare) and, for a sweep, at a point of the
    config's r_grid (else replay cannot rebuild its params)."""
    if record.get("schema") != TRIAL_SCHEMA:
        raise ValueError(
            f"record of seed {record['seed']}: trial schema mismatch: "
            f"record {record.get('schema')!r} vs this code's {TRIAL_SCHEMA!r}"
        )
    if record["config_hash"] != config.hash:
        raise ValueError(
            f"record of seed {record['seed']}: config hash mismatch: "
            f"record {record['config_hash']} vs config {config.hash}"
        )
    for key, (test, wanted) in _RECORD_FIELDS.items():
        if not test(record.get(key)):
            got = json.dumps(record[key]) if key in record else f"no {key}"
            raise ValueError(f"record of seed {record['seed']}: {key}: expected {wanted}, got {got}")
    measured = record["measured"]
    if "r_grid" in config.params and measured.get("r") not in config.params["r_grid"]:
        got = f"r = {measured['r']!r}" if "r" in measured else "no r"
        raise ValueError(
            f"record of seed {record['seed']}: grid point: expected an r of params.r_grid "
            f"{config.params['r_grid']}, got {got}"
        )


def replay(config: ExperimentConfig, record: dict) -> tuple:
    """Re-run one stored trial at its grid point (a sweep record's r) and
    compare everything but timing, bit-exactly. A record ``check_replayable``
    refuses is its ValueError."""
    check_replayable(config, record)
    params = _point(config.params, record["measured"].get("r"))
    fresh = _run_trial((config.kind, params, record["seed"], config.hash))
    old = TrialRecord.from_dict(record).measured_bytes()
    new = TrialRecord.from_dict(fresh).measured_bytes()
    return old == new, fresh
