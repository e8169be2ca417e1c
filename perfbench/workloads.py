"""Benchmark workloads: the experiment config each one runs, the verdict a
trial of it is expected to reach, and the structural checks every record must
pass.

Each workload is a closed loop with one client: the harness runs the next
trial only after the previous one finished, serially, in one process. The
number of trials in a run is fixed by the run length and a per-workload
nominal trial cost, never by a clock reading, so two commits given the same
``--seconds`` do the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The acceptance configuration (ROADMAP's unit of work). Criterion 10 of the
# acceptance gate runs the same parameters.
ACCEPT = {
    "N": 3000,
    "p": 0.35,
    "k": 2,
    "d": 2 / 3,
    "eps": 0.15,
    "clusters": 6,
    "xi": 0.045,
    "delta": 0.0225,
}

# A complete host small enough for the smoke test; the harness tests use it.
TOY_EMBED = {
    "N": 120,
    "p": 1.0,
    "k": 2,
    "d": 2 / 3,
    "eps": 0.5,
    "clusters": 6,
    "xi": 0.2,
}

# Stages an honest refusal can name: the harness's cluster-cycle refusal and
# every EmbedFailure stage of the embedder.
REFUSAL_STAGES = ("cluster-cycle", "layout", "anchor", "extend", "closing", "verify", "length")
EMBED_FAILURE_STAGES = REFUSAL_STAGES[1:]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str
    params: dict
    toy_params: dict
    expect: str  # "cycle", "refusal" or "super_typical"
    nominal_trial_s: float  # sizes the seed list from --seconds

    def trial_seeds(self, seed: int, seconds: float, toy: bool) -> list:
        count = 2 if toy else max(1, round(seconds / self.nominal_trial_s))
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.randrange(2**31) for _ in range(count)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="embed-accept",
            why="acceptance embed trial with a random adversary at r=0.1: adversary, "
            "partition and embedder all carry weight",
            kind="embed",
            params={**ACCEPT, "adversary": {"kind": "random", "r": 0.1}},
            toy_params={**TOY_EMBED, "adversary": {"kind": "random", "r": 0.05}},
            expect="cycle",
            nominal_trial_s=4.5,
        ),
        Workload(
            name="embed-intact",
            why="same trial with no adversary: expansion and the embedder dominate, "
            "an adversary change must not move it",
            kind="embed",
            params={**ACCEPT, "adversary": {"kind": "none"}},
            toy_params={**TOY_EMBED, "adversary": {"kind": "none"}},
            expect="cycle",
            nominal_trial_s=2.2,
        ),
        Workload(
            name="embed-knee",
            why="random adversary at r=0.45: every trial is refused before the embedder, "
            "so the adversary dominates and the refusal path runs",
            kind="embed",
            params={**ACCEPT, "adversary": {"kind": "random", "r": 0.45}},
            toy_params={**TOY_EMBED, "adversary": {"kind": "random", "r": 1.0}},
            expect="refusal",
            nominal_trial_s=3.0,
        ),
        Workload(
            name="typicality-ledger",
            why="super-typicality audit of a 4-part blow-up: thousands of small-pair "
            "regularity checks and clique counts, no embedder",
            kind="typicality-audit",
            params={"t": 4, "n": 100, "p": 0.5, "epsilon": 0.3, "delta": 0.3, "trials": 200},
            toy_params={"t": 4, "n": 24, "p": 0.9, "epsilon": 0.3, "delta": 0.3, "trials": 20},
            expect="super_typical",
            nominal_trial_s=2.5,
        ),
    )
}


def verdict_ok(expect: str, params: dict, record: dict) -> bool:
    """Whether a trial reached the verdict expected of its workload."""
    measured = record["measured"]
    if expect == "cycle":
        return (
            record["ok"]
            and measured.get("stage") == "ok"
            and measured.get("coverage", 0.0) >= 1 - params["eps"]
        )
    if expect == "refusal":
        return not record["ok"] and measured.get("stage") in REFUSAL_STAGES
    return bool(measured.get("verdicts", {}).get("super_typical"))


def record_problems(kind: str, params: dict, record: dict) -> list:
    """Structural checks of one harness record, independent of the verdict:
    a crashed trial, a record that contradicts itself, or an outcome the
    harness should never produce. An empty list means the record is sound."""
    measured = record["measured"]
    if "error" in measured:
        return [f"trial crashed: {measured['error']}"]
    problems = []
    if kind == "embed":
        adversary = measured.get("adversary")
        if adversary is not None and adversary.get("budget_respected") is not True:
            problems.append("adversary exceeded its per-vertex budget")
        stage = measured.get("stage")
        if stage == "ok":
            length = measured.get("cycle_length", 0)
            if not record["ok"] or measured.get("success") is not True:
                problems.append("stage ok but the trial is not marked successful")
            if measured.get("coverage") != length / params["N"]:
                problems.append("coverage disagrees with cycle_length / N")
            if length < (1 - params["eps"]) * params["N"]:
                problems.append(f"cycle on {length} vertices misses (1-eps)N")
        elif stage in REFUSAL_STAGES:
            if record["ok"] or measured.get("success") is not False:
                problems.append(f"refusal at {stage} but the trial is marked successful")
        else:
            problems.append(f"unknown stage {stage!r}")
    elif kind == "typicality-audit":
        verdicts = measured.get("verdicts", {})
        parts = [v for name, v in verdicts.items() if name != "super_typical"]
        if verdicts.get("super_typical") != all(parts):
            problems.append("super_typical disagrees with the individual verdicts")
        if record["ok"] != verdicts.get("super_typical"):
            problems.append("record ok disagrees with the super_typical verdict")
    return problems
