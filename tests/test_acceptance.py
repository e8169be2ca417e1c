"""Acceptance gate: every criterion at its pinned tolerance, one printed
pass/fail line each (run with ``pytest -s tests/test_acceptance.py`` to see
them live). Timings are printed for orientation but never asserted.

Criterion 9 is expected to fail and is marked strict-xfail: the adversary it
exercises deletes every edge inside the victim's neighbourhood, which in K_6
is the whole K_5 on the other vertices, so the thinned graph is a star with
no square cycle at all; the criterion's expected value 5 would require an
adversary that instead isolates the victim. See the decisions ledger.
"""

import math
import os
import time

import numpy as np
import pytest

from powercycle.graph_core import (
    TupleView,
    complete_graph,
    count_canonical_cliques,
    enumerate_canonical_cliques,
    frontier_members,
    min_degree,
    pick_frontier,
    window_cliques,
)
from powercycle.models import (
    ModelParams,
    adversary_triangle_killer,
    extremal_blocker,
    gen_blowup,
    gen_gnp,
    stream,
)
from powercycle.typicality import TypicalityParams, clique_count_upper_check
from powercycle.expansion import (
    ExpansionParams,
    PreconditionError,
    expand_through,
    halving_audit,
    one_step_expansion_audit,
    reference_count,
)
from powercycle.embedder import exact_longest_power_cycle
from powercycle.harness import ExperimentConfig, TrialRecord, replay, run_experiment

from powercycle.oracles import naive_canonical_cliques, naive_expand_step

WORKERS = max(1, min(2, os.cpu_count() or 1))

EMBED_PARAMS = {
    "N": 3000,
    "p": 0.35,
    "k": 2,
    "d": 2 / 3,
    "eps": 0.15,
    "clusters": 6,
    "xi": 0.045,
    "delta": 0.0225,
    "adversary": {"kind": "random", "r": 0.1},
}


def report(num: int, ok: bool, detail: str, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {verdict} - {detail} ({time.time() - started:.1f}s)")


def test_criterion_01_enumeration_oracle():
    started = time.time()
    rng = stream(1001)
    mismatches = 0
    for _ in range(200):
        t = int(rng.integers(2, 6))
        while True:
            sizes = [int(rng.integers(2, 11)) for _ in range(t)]
            if math.prod(sizes) <= 100_000:
                break
        _, raw = gen_blowup(
            complete_graph(t), max(sizes), float(rng.uniform(0.2, 0.9)), int(rng.integers(0, 2**31))
        )
        view = TupleView(raw.graph, [raw.parts[i][: sizes[i]] for i in range(t)])
        fast = frozenset(enumerate_canonical_cliques(view, 0, t))
        slow = frozenset(naive_canonical_cliques(view, 0, t))
        mismatches += fast != slow
    report(1, mismatches == 0, f"200 instances, {mismatches} mismatches vs nested-loop oracle", started)
    assert mismatches == 0


def test_criterion_02_expansion_oracle():
    started = time.time()
    rng = stream(1002)
    mismatches = 0
    for _ in range(200):
        t = int(rng.integers(3, 6))
        k = int(rng.integers(1, t))
        n = int(rng.integers(2, 7))
        _, view = gen_blowup(
            complete_graph(t), n, float(rng.uniform(0.3, 0.9)), int(rng.integers(0, 2**31))
        )
        full = window_cliques(view, 0, k)
        positions = np.nonzero(full)
        if not len(positions[0]):
            continue
        picks = rng.choice(len(positions[0]), size=max(1, len(positions[0]) // 2), replace=False)
        start = pick_frontier(full.shape, positions, picks)
        reached = frontier_members(view, expand_through(start, view, 1).frontier, 1)
        mismatches += frozenset(reached) != naive_expand_step(view, start)
    report(2, mismatches == 0, f"200 instances, {mismatches} mismatches vs projection oracle", started)
    assert mismatches == 0


def test_criterion_03_counting_lemma():
    started = time.time()
    hits = 0
    for seed in range(100):
        _, view = gen_blowup(complete_graph(3), 80, 0.5, seed)
        count = count_canonical_cliques(view, 0, 3)
        expected = 80**3 * float(view.density(0, 1) * view.density(0, 2) * view.density(1, 2))
        hits += 0.8 * expected <= count <= 1.2 * expected
    report(3, hits >= 95, f"{hits}/100 seeds inside the (1 +/- 0.2) count window (need >= 95)", started)
    assert hits >= 95


def test_criterion_04_clique_count_upper_bound():
    started = time.time()
    hits = 0
    for seed in range(100):
        host = gen_gnp(ModelParams(N=600, p=0.5, seed=seed))
        perm = stream(seed, 53).permutation(600)
        view = TupleView(host, [perm[:150], perm[150:300], perm[300:450]])
        hits += clique_count_upper_check(view, 3, 0.2, 0.5)
    report(4, hits >= 98, f"{hits}/100 seeds below (1+0.2) n^3 p^3 (need >= 98)", started)
    assert hits >= 98


def test_criterion_05_one_step_expansion():
    started = time.time()
    kappa, delta = 0.3, 0.1
    # Pinned acceptance threshold. (The literal lemma bound kappa - 3 kappa
    # delta - 6 delta is negative at delta = 0.1; the stated 0.15 is what the
    # measured fraction must clear.)
    bound = 0.15
    exp = ExpansionParams(k=2, delta=delta)
    cert = TypicalityParams(epsilon=0.45, delta=0.45, p=0.6, trials=200)
    hits = 0
    for seed in range(100):
        _, view = gen_blowup(complete_graph(3), 60, 0.6, seed)
        try:
            frac = one_step_expansion_audit(view, kappa, exp, cert, seed)
        except PreconditionError:
            continue
        hits += frac >= bound
    report(5, hits >= 90, f"{hits}/100 seeds with measured fraction >= {bound} (need >= 90)", started)
    assert hits >= 90


def _square_path_pattern(windows, k):
    from powercycle.graph_core import Graph

    edges = [(i, j) for i in range(windows) for j in range(i + 1, min(i + k, windows - 1) + 1)]
    return Graph.from_edges(windows, edges)


def test_criterion_06_main_expansion():
    started = time.time()
    k, n, p, delta = 2, 50, 0.6, 0.05
    params = ExpansionParams(k=k, delta=delta)
    hits = 0
    for seed in range(100):
        _, view = gen_blowup(_square_path_pattern(2 * k, k), n, p, seed)
        x_start = reference_count(view, 0, k)
        full = window_cliques(view, 0, k)
        positions = np.nonzero(full)
        m = min(len(positions[0]), math.ceil(delta * x_start))
        picks = stream(seed, 59).choice(len(positions[0]), size=m, replace=False)
        start = pick_frontier(full.shape, positions, picks)
        trace = expand_through(start, view, k)
        hits += trace.final_fraction >= 1 - 10 * delta
    report(6, hits >= 85, f"{hits}/100 seeds reaching >= {1 - 10 * delta} of the far block (need >= 85)", started)
    assert hits >= 85


def test_criterion_07_halving():
    started = time.time()
    k, n, p, delta = 2, 50, 0.6, 0.01
    params = ExpansionParams(k=k, delta=delta)
    qualifying = good = 0
    seed = 0
    while qualifying < 50 and seed < 200:
        _, view = gen_blowup(_square_path_pattern(2 * k, k), n, p, seed)
        x_start = reference_count(view, 0, k)
        full = window_cliques(view, 0, k)
        positions = np.nonzero(full)
        m = min(len(positions[0]), max(2, math.ceil(delta * x_start)))
        picks = stream(seed, 59).choice(len(positions[0]), size=m, replace=False)
        start = pick_frontier(full.shape, positions, picks)
        audit = halving_audit(start, view, params, n_splits=4, seed=seed)
        if audit["start_qualifies"]:
            qualifying += 1
            good += audit["all_ok"]
        seed += 1
    report(7, qualifying == 50 and good == 50, f"{good}/{qualifying} qualifying instances with a good half in every split (need 50/50)", started)
    assert qualifying == 50 and good == 50


def test_criterion_08_extremal_blockers():
    started = time.time()
    ok = True
    for N in range(7, 13):
        g, _ = extremal_blocker(N, 2)
        longest = len(exact_longest_power_cycle(g, 2))
        degree_ok = min_degree(g) == round(2 * (N - 1) / 3)
        ok = ok and longest < N and degree_ok
    report(8, ok, "N in 7..12: no spanning square cycle, min degree = round(k(N-1)/(k+1))", started)
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: deleting all edges inside N(v) in K_6 leaves a star "
    "(longest square cycle 0, not 5); see the decisions ledger",
)
def test_criterion_09_triangle_killer():
    started = time.time()
    thinned, _ = adversary_triangle_killer(complete_graph(6), [0])
    longest = len(exact_longest_power_cycle(thinned, 2))
    report(9, longest == 5, f"longest square cycle after one victim in K_6: {longest} (criterion expects 5)", started)
    assert longest == 5


def test_criterion_10_end_to_end_embedding():
    started = time.time()
    cfg = ExperimentConfig(kind="embed", params=EMBED_PARAMS, seeds=list(range(100)), workers=WORKERS)
    summary = run_experiment(cfg)
    hits = sum(
        1
        for r in summary.records
        if r["ok"] and r["measured"].get("coverage", 0.0) >= 1 - EMBED_PARAMS["eps"]
    )
    report(10, hits >= 80, f"{hits}/100 seeds with a verified cycle on >= 0.85 N vertices (need >= 80)", started)
    assert hits >= 80


def test_criterion_11_resilience_knee():
    started = time.time()
    params = {k: v for k, v in EMBED_PARAMS.items() if k != "adversary"}
    params["r_grid"] = [0.05, 0.25, 0.45]
    cfg = ExperimentConfig(kind="resilience-sweep", params=params, seeds=list(range(25)), workers=WORKERS)
    from powercycle.harness import resilience_sweep

    curve = resilience_sweep(cfg)["curve"]
    ok = curve[0.05] >= 0.8 and curve[0.45] <= 0.2
    report(11, ok, f"success fraction {curve[0.05]:.2f} at r=0.05 (need >= 0.8), {curve[0.45]:.2f} at r=0.45 (need <= 0.2)", started)
    assert ok


def test_criterion_12_determinism():
    started = time.time()
    configs = [
        ExperimentConfig(
            kind="count-audit",
            params={"mode": "blowup", "t": 3, "n": 40, "p": 0.5, "delta": 0.2},
            seeds=list(range(8)),
        ),
        ExperimentConfig(
            kind="expansion-audit",
            params={"mode": "one-step", "k": 2, "n": 40, "p": 0.6, "kappa": 0.3, "delta": 0.1},
            seeds=list(range(6)),
        ),
        ExperimentConfig(
            kind="embed",
            params={
                "N": 120, "p": 1.0, "k": 2, "d": 2 / 3, "eps": 0.5,
                "clusters": 6, "xi": 0.2, "adversary": {"kind": "none"},
            },
            seeds=list(range(6)),
        ),
    ]
    total = mismatches = 0
    for cfg in configs:
        records = run_experiment(cfg).records
        for record in records:
            match, _ = replay(cfg, record)
            total += 1
            mismatches += not match
        parallel = run_experiment(
            ExperimentConfig(kind=cfg.kind, params=cfg.params, seeds=cfg.seeds, workers=2)
        ).records
        for a, b in zip(records, parallel):
            if TrialRecord.from_dict(a).measured_bytes() != TrialRecord.from_dict(b).measured_bytes():
                mismatches += 1
    ok = total >= 20 and mismatches == 0
    report(12, ok, f"{total} records replayed bit-identically, parallel == serial ({mismatches} mismatches)", started)
    assert ok
