"""Experiment harness: declarative configs, seeded trial sweeps, JSONL/CSV
persistence, and exact replay.

A config names one experiment kind, its parameter dict, and a seed list. Each
(kind, params, seed) trial is a pure function of its arguments - all
randomness is drawn from counter-based streams keyed by the trial seed - so
parallel and serial sweeps produce identical records and any stored record
can be replayed bit-exactly. Timings are recorded but never compared.

Outputs: one TrialRecord per line (JSONL), a per-metric summary (CSV), and
for sweeps a plot-ready TSV of success fraction against the swept parameter.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Optional

import numpy as np

from . import graph_core, models, oracles, regularity, typicality, expansion, embedder

TRIAL_SCHEMA = "powercycle/trial-v2"
SUMMARY_SCHEMA = "powercycle/summary-v1"

KINDS = (
    "count-audit",
    "regularity-audit",
    "typicality-audit",
    "expansion-audit",
    "embed",
    "resilience-sweep",
    "oracle-compare",
)

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "ExperimentSummary",
    "run_experiment",
    "resilience_sweep",
    "replay",
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
        if self.kind not in KINDS:
            raise ValueError(f"kind: unknown experiment kind {self.kind!r}; choose from {KINDS}")
        if not self.seeds:
            raise ValueError("seeds: must be a nonempty list of integers")
        if not isinstance(self.params, dict):
            raise ValueError("params: must be a mapping")
        required = _REQUIRED_FIELDS[self.kind]
        for name in required:
            if name not in self.params:
                raise ValueError(f"params.{name}: required for kind {self.kind!r}")
        if self.kind == "resilience-sweep":
            grid = self.params["r_grid"]
            if not grid or any(not (0.0 <= r <= 1.0) for r in grid):
                raise ValueError("params.r_grid: must be a nonempty list of fractions in [0,1]")

    @property
    def hash(self) -> str:
        return config_hash(self.kind, self.params)

    def to_dict(self) -> dict:
        return {
            "schema": "powercycle/config-v1",
            "kind": self.kind,
            "params": self.params,
            "seeds": list(self.seeds),
            "out_dir": self.out_dir,
            "workers": self.workers,
            "assertions": self.assertions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return cls(
            kind=data["kind"],
            params=data["params"],
            seeds=list(data["seeds"]),
            out_dir=data.get("out_dir"),
            workers=int(data.get("workers", 1)),
            assertions=list(data.get("assertions", [])),
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


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
# Trial runners, one per experiment kind. Each is a pure function of
# (params, seed) returning (measured, ok).


def _run_count_audit(params: dict, seed: int) -> tuple:
    mode = params.get("mode", "blowup")
    if mode == "blowup":
        t, n, p, delta = params["t"], params["n"], params["p"], params["delta"]
        pattern = graph_core.complete_graph(t)
        _, view = models.gen_blowup(pattern, n, p, seed)
        count = graph_core.count_canonical_cliques(view, 0, t)
        expected = graph_core.expected_clique_count(view, range(t))
        ratio = count / expected if expected else math.inf
        ok = (1 - delta) <= ratio <= (1 + delta)
        return {"count": count, "expected": expected, "ratio": ratio}, ok
    if mode == "gnp-sets":
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
    raise ValueError(f"params.mode: unknown count-audit mode {mode!r}")


def _run_regularity_audit(params: dict, seed: int) -> tuple:
    mode = params.get("mode", "partition")
    if mode == "partition":
        N, p = params["N"], params["p"]
        reg = regularity.RegularityParams(
            epsilon=params["epsilon"],
            p=p,
            d=params["d"],
            mu=params.get("mu", 0.5),
            trials=params.get("trials", 200),
        )
        host = models.gen_gnp(models.ModelParams(N=N, p=p, seed=seed))
        part = regularity.build_nice_partition(host, reg, m=params["m"], seed=seed)
        measured = {
            "classes": part.k,
            "class_size": part.class_size,
            "useful_pairs": len(part.useful_pairs),
            "partner_ok": bool(part.partner_ok),
        }
        return measured, bool(part.partner_ok)
    if mode == "inheritance":
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
    raise ValueError(f"params.mode: unknown regularity-audit mode {mode!r}")


def _run_typicality_audit(params: dict, seed: int) -> tuple:
    t, n, p = params["t"], params["n"], params["p"]
    typ = typicality.TypicalityParams(
        epsilon=params["epsilon"],
        delta=params["delta"],
        p=p,
        trials=params.get("trials", 200),
    )
    pattern = graph_core.complete_graph(t)
    _, view = models.gen_blowup(pattern, n, p, seed)
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


def _run_expansion_audit(params: dict, seed: int) -> tuple:
    mode = params.get("mode", "one-step")
    if mode not in ("one-step", "main", "halving"):
        raise ValueError(f"params.mode: unknown expansion-audit mode {mode!r}")
    k, n, p = params["k"], params["n"], params["p"]
    delta = params["delta"]
    exp = expansion.ExpansionParams(k=k, delta=delta)
    if mode == "one-step":
        typ = typicality.TypicalityParams(
            epsilon=params.get("cert_epsilon", 0.45),
            delta=params.get("cert_delta", 0.45),
            p=p,
            trials=params.get("trials", 200),
        )
        pattern = graph_core.complete_graph(k + 1)
        _, view = models.gen_blowup(pattern, n, p, seed)
        kappa = params["kappa"]
        try:
            frac = expansion.one_step_expansion_audit(view, kappa, exp, typ, seed)
        except expansion.PreconditionError as err:
            return {"refused": True, "failing": err.failing}, False
        bound = kappa - 3 * kappa * delta - 6 * delta
        return {"fraction": frac, "bound": bound}, frac >= bound
    _, view = models.gen_blowup(_path_power_pattern(2 * k, k), n, p, seed)
    if mode == "main":
        start = _sample_start(view, k, delta, 1, seed)
        trace = expansion.expand_through(start, view, k)
        bound = 1 - 10 * delta
        return {
            "start_size": int(np.count_nonzero(start)),
            "final_fraction": trace.final_fraction,
            "bound": bound,
        }, trace.final_fraction >= bound
    start = _sample_start(view, k, params.get("start_fraction", delta), 2, seed)
    audit = expansion.halving_audit(start, view, exp, params.get("n_splits", 3), seed)
    ok = (not audit["start_qualifies"]) or audit["all_ok"]
    return {
        "start_qualifies": audit["start_qualifies"],
        "start_fraction": audit["start_fraction"],
        "splits_ok": audit["all_ok"],
        "best_half_fractions": [s["best_half_fraction"] for s in audit["splits"]],
    }, ok


def _path_power_pattern(length: int, k: int) -> graph_core.Graph:
    edges = [(i, j) for i in range(length) for j in range(i + 1, min(i + k, length - 1) + 1)]
    return graph_core.Graph.from_edges(length, edges)


def _apply_adversary(host, spec: dict, seed: int) -> tuple:
    kind = spec.get("kind", "none")
    if kind == "none":
        return host, None
    if kind == "random":
        thinned, report = models.adversary_random(host, spec["r"], seed)
        return thinned, report
    if kind == "partite":
        thinned, report = models.adversary_partite(host, spec["k"], spec.get("skew", 0.0), seed)
        return thinned, report
    if kind == "triangle-killer":
        thinned, report = models.adversary_triangle_killer(host, spec["victims"])
        return thinned, report
    raise ValueError(f"params.adversary.kind: unknown adversary {kind!r}")


def _run_embed(params: dict, seed: int) -> tuple:
    N, p, k = params["N"], params["p"], params["k"]
    host = models.gen_gnp(models.ModelParams(N=N, p=p, seed=seed))
    thinned, adv_report = _apply_adversary(host, params.get("adversary", {"kind": "none"}), seed)
    measured: dict = {}
    if adv_report is not None:
        measured["adversary"] = adv_report.to_dict()

    reg = regularity.RegularityParams(
        epsilon=params.get("reg_epsilon", 0.25),
        p=p,
        d=params["d"],
        mu=k / (k + 1),
        trials=params.get("trials", 200),
    )
    part = regularity.build_nice_partition(thinned, reg, m=params["clusters"], seed=seed)
    measured["partner_ok"] = bool(part.partner_ok)
    red = embedder.build_reduced(part)
    measured["reduced_edges"] = red.edge_count()
    try:
        cyc = embedder.find_cluster_power_cycle(red, k)
    except ValueError as err:
        measured.update({"success": False, "stage": "cluster-cycle", "detail": str(err)})
        return measured, False
    if cyc is None:
        measured.update({"success": False, "stage": "cluster-cycle"})
        return measured, False

    r_chunks = params.get("r_chunks", 1)
    if r_chunks > 1:
        part = regularity.chunk_partition(part, part.class_size // r_chunks, seed)
    ep = embedder.EmbedParams(
        k=k,
        xi=params.get("xi", params["eps"] / 4),
        delta=params.get("delta", 0.0225),
        eps=params["eps"],
        retries=params.get("retries", 5),
        seed=seed,
    )
    result = embedder.embed_power_cycle(thinned, part, cyc, ep)
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
    inner = dict(params)
    inner.pop("r_grid", None)
    r = inner.pop("r")
    inner["adversary"] = {"kind": "random", "r": r}
    measured, ok = _run_embed(inner, seed)
    measured["r"] = r
    return measured, ok


def _run_oracle_compare(params: dict, seed: int) -> tuple:
    mode = params.get("mode", "enumeration")
    rng = models.stream(seed, 61)
    if mode == "enumeration":
        mismatches = 0
        checks = 0
        for _ in range(params.get("instances", 5)):
            t = int(rng.integers(2, params.get("max_parts", 5) + 1))
            sizes = [int(rng.integers(2, params.get("max_size", 8) + 1)) for _ in range(t)]
            _, view = models.gen_blowup(
                graph_core.complete_graph(t),
                max(sizes),
                params.get("p", 0.5),
                int(rng.integers(0, 2**31)),
            )
            view = graph_core.TupleView(
                view.graph, [view.parts[i][: sizes[i]] for i in range(t)]
            )
            fast = graph_core.count_canonical_cliques(view, 0, t)
            slow = len(oracles.naive_canonical_cliques(view, 0, t))
            checks += 1
            mismatches += fast != slow
        return {"checks": checks, "mismatches": mismatches}, mismatches == 0
    if mode == "expansion":
        k = params.get("k", 2)
        mismatches = 0
        checks = 0
        for _ in range(params.get("instances", 5)):
            t = k + 1
            n = int(rng.integers(2, params.get("max_size", 6) + 1))
            _, view = models.gen_blowup(
                graph_core.complete_graph(t), n, params.get("p", 0.5), int(rng.integers(0, 2**31))
            )
            full = graph_core.window_cliques(view, 0, k)
            positions = np.nonzero(full)
            size = len(positions[0])
            if not size:
                continue
            picks = rng.choice(size, size=max(1, size // 2), replace=False)
            start = graph_core.pick_frontier(full.shape, positions, picks)
            reach = expansion.expand_through(start, view, 1).frontier
            fast = frozenset(graph_core.frontier_members(view, reach, 1))
            slow = oracles.naive_expand_step(view, start)
            checks += 1
            mismatches += fast != slow
        return {"checks": checks, "mismatches": mismatches}, mismatches == 0
    raise ValueError(f"params.mode: unknown oracle-compare mode {mode!r}")


_RUNNERS = {
    "count-audit": _run_count_audit,
    "regularity-audit": _run_regularity_audit,
    "typicality-audit": _run_typicality_audit,
    "expansion-audit": _run_expansion_audit,
    "embed": _run_embed,
    "resilience-sweep": _run_resilience_point,
    "oracle-compare": _run_oracle_compare,
}

_REQUIRED_FIELDS = {
    "count-audit": ("p",),
    "regularity-audit": ("p", "epsilon", "d"),
    "typicality-audit": ("t", "n", "p", "epsilon", "delta"),
    "expansion-audit": ("k", "n", "p", "delta"),
    "embed": ("N", "p", "k", "d", "eps", "clusters"),
    "resilience-sweep": ("N", "p", "k", "d", "eps", "clusters", "r_grid"),
    "oracle-compare": (),
}


def _run_trial(args: tuple) -> dict:
    kind, params, seed, chash = args
    start = time.perf_counter()
    try:
        measured, ok = _RUNNERS[kind](params, seed)
    except Exception as err:  # trial-level failure: recorded, not fatal
        measured, ok = {"error": f"{type(err).__name__}: {err}"}, False
    elapsed = time.perf_counter() - start
    return TrialRecord(
        config_hash=chash, kind=kind, seed=seed, measured=measured, ok=ok, elapsed=elapsed
    ).to_dict()


@dataclass
class ExperimentSummary:
    config_hash: str
    kind: str
    stats: dict  # summarize_records(records)
    assertions_passed: bool
    records: list

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
            "config_hash": self.config_hash,
            "kind": self.kind,
            **self.stats,
            "assertions_passed": self.assertions_passed,
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


def summarize_records(records: list) -> dict:
    """Per-metric mean/min/max, the ok fraction, the tally of embed stages
    (``measured["stage"]``) and the number of crashed trials (records with an
    ``error``), recomputable from any JSONL stream of trial records."""
    n = len(records)
    ok_fraction = sum(1 for r in records if r["ok"]) / n if n else 0.0
    stages = Counter(r["measured"]["stage"] for r in records if "stage" in r["measured"])
    return {
        "n_trials": n,
        "ok_fraction": ok_fraction,
        "metrics": _numeric_metrics(records),
        "stages": dict(sorted(stages.items())),
        "errors": sum(1 for r in records if "error" in r["measured"]),
    }


def _check_assertions(config: ExperimentConfig, records: list) -> bool:
    for rule in config.assertions:
        subset = records
        if "r" in rule:
            subset = [r for r in records if r["measured"].get("r") == rule["r"]]
        if not subset:
            return False
        frac = sum(1 for r in subset if r["ok"]) / len(subset)
        if "min_ok_fraction" in rule and frac < rule["min_ok_fraction"]:
            return False
        if "max_ok_fraction" in rule and frac > rule["max_ok_fraction"]:
            return False
    return True


def run_experiment(config: ExperimentConfig, out_dir=None) -> ExperimentSummary:
    """Execute one trial per seed (per grid point for sweeps), persist JSONL
    records plus a CSV summary, and evaluate the configured assertions."""
    out_dir = out_dir or config.out_dir or os.environ.get("POWERCYCLE_OUT")
    workers = int(os.environ.get("POWERCYCLE_WORKERS", config.workers))
    chash = config.hash

    if config.kind == "resilience-sweep":
        tasks = [
            (config.kind, {**config.params, "r": r}, seed, chash)
            for r in config.params["r_grid"]
            for seed in config.seeds
        ]
    else:
        tasks = [(config.kind, config.params, seed, chash) for seed in config.seeds]

    if workers > 1:
        with get_context("fork").Pool(workers) as pool:
            records = pool.map(_run_trial, tasks)
    else:
        records = [_run_trial(task) for task in tasks]

    summary = ExperimentSummary(
        config_hash=chash,
        kind=config.kind,
        stats=summarize_records(records),
        assertions_passed=_check_assertions(config, records),
        records=records,
    )
    if out_dir is not None:
        _persist(config, summary, Path(out_dir))
    return summary


def resilience_sweep(config: ExperimentConfig, out_dir=None) -> dict:
    """Success-fraction curve over the r grid of a resilience-sweep config."""
    if config.kind != "resilience-sweep":
        raise ValueError(f"kind: expected resilience-sweep, got {config.kind!r}")
    summary = run_experiment(config, out_dir=out_dir)
    curve = {r: frac for r, frac, _ in _ok_curve(config, summary.records)}
    return {"curve": curve, "summary": summary}


def _ok_curve(config: ExperimentConfig, records: list) -> list:
    """(r, ok fraction, trials) for each r of a sweep's grid, in grid order."""
    curve = []
    for r in config.params["r_grid"]:
        subset = [rec for rec in records if rec["measured"].get("r") == r]
        frac = sum(1 for rec in subset if rec["ok"]) / len(subset) if subset else 0.0
        curve.append((r, frac, len(subset)))
    return curve


def _persist(config: ExperimentConfig, summary: ExperimentSummary, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{config.kind}-{summary.config_hash}"
    with open(out_dir / f"{stem}.jsonl", "w") as fh:
        for rec in summary.records:
            fh.write(canonical_json(rec) + "\n")
    with open(out_dir / f"{stem}.summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "mean", "min", "max"])
        writer.writerow(["ok_fraction", repr(summary.ok_fraction), "", ""])
        for name, stats in summary.metrics.items():
            writer.writerow([name, repr(stats["mean"]), repr(stats["min"]), repr(stats["max"])])
    with open(out_dir / f"{stem}.json", "w") as fh:
        fh.write(canonical_json({**summary.to_dict(), "config": config.to_dict()}) + "\n")
    if config.kind == "resilience-sweep":
        with open(out_dir / f"{stem}.curve.tsv", "w") as fh:
            fh.write("r\tok_fraction\tn\n")
            for r, frac, n in _ok_curve(config, summary.records):
                fh.write(f"{r}\t{frac}\t{n}\n")


def load_records(path) -> list:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def replay(config: ExperimentConfig, record: dict) -> tuple:
    """Re-run one stored trial and compare everything but timing, bit-exactly.
    Raises on a record of another trial schema (its draws are not this code's)
    and on a config-hash mismatch (the stored record belongs to another
    config)."""
    if record.get("schema") != TRIAL_SCHEMA:
        raise ValueError(
            f"trial schema mismatch: record {record.get('schema')!r} vs this code's {TRIAL_SCHEMA!r}"
        )
    if record["config_hash"] != config.hash:
        raise ValueError(
            f"config hash mismatch: record {record['config_hash']} vs config {config.hash}"
        )
    params = config.params
    if config.kind == "resilience-sweep":
        params = {**config.params, "r": record["measured"]["r"]}
    fresh = _run_trial((config.kind, params, record["seed"], config.hash))
    old = TrialRecord.from_dict(record).measured_bytes()
    new = TrialRecord.from_dict(fresh).measured_bytes()
    return old == new, fresh
