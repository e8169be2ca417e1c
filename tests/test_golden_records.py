"""Golden trial records: sha256 over the replayable bytes of every record of a
set of small configs, one per experiment kind and mode and one per embedder
outcome. The constants pin the records across commits, so a refactor that is
meant to change no behaviour must leave them all unchanged; a deliberate
change of records updates them together with the trial schema."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from powercycle.graph_core import complete_graph, count_canonical_cliques, enumerate_canonical_cliques
from powercycle.harness import ExperimentConfig, TrialRecord, _path_power_pattern, run_experiment
from powercycle.models import gen_blowup

TOY = {"N": 120, "p": 1.0, "k": 2, "d": 2 / 3, "eps": 0.5, "clusters": 6, "xi": 0.2}

# name: (kind, params, seeds, outcomes, sha256 of the concatenated records)
GOLDEN = {
    "embed-ok": (
        "embed",
        {**TOY, "adversary": {"kind": "random", "r": 0.05}},
        [0, 1, 2],
        {"ok": 3},
        "efc8ac588a699900ace2cad4e3acb4fc6e7bdf9af31f097d07a01455d5d17a8e",
    ),
    "embed-random-knee": (
        "embed",
        {**TOY, "N": 400, "p": 0.5, "adversary": {"kind": "random", "r": 0.45}},
        [0, 1],
        {"cluster-cycle": 2},
        "b293bb53cd4c84b12520a729b79b1dcdb6d3e9441fdb153b2f49ec4b96abca6f",
    ),
    "embed-chunked": (
        "embed",
        {**TOY, "r_chunks": 2},
        [0, 1],
        {"ok": 2},
        "4b213337cdf630d36541637a3806baf30d11dab2ceb5bf0365d7a3806a7dfa83",
    ),
    "embed-length": (
        "embed",
        {**TOY, "N": 180, "p": 0.7},
        [0, 1, 2, 3],
        {"length": 4},
        "8e46ce6a2efb19d6c21571670cf414fdcfe2f764e96c51c0eae8b5130c6b2215",
    ),
    "embed-anchor-extend": (
        "embed",
        {**TOY, "N": 300, "p": 0.5, "xi": 0.1, "eps": 0.3, "delta": 0.02},
        [0, 1, 2, 3],
        {"anchor": 3, "extend": 1},
        "fa4a5c4e554c82a76719f72b69f47ef0e20400b597a8635347dc0953fed7a3d4",
    ),
    "expansion-main-below-bound": (
        "expansion-audit",
        {"mode": "main", "k": 2, "n": 12, "p": 0.6, "delta": 0.02},
        [0, 1],
        {False: 2},
        "587c419eb63a1a1b3c4495ef826baa7d9c2347caecc1e9a846c863333f74ac03",
    ),
    "expansion-main": (
        "expansion-audit",
        {"mode": "main", "k": 2, "n": 30, "p": 0.6, "delta": 0.02},
        [0, 1],
        {True: 2},
        "276e84f2dc5be11e511b275bc537652397b069fdf07110869bf6461170e4e074",
    ),
    "expansion-halving": (
        "expansion-audit",
        {"mode": "halving", "k": 2, "n": 12, "p": 0.6, "delta": 0.02, "start_fraction": 0.5, "n_splits": 3},
        [0, 1],
        {True: 2},
        "dab4451d5dd22ec4a014e2404b71c0330c9c8e7f323ca8bf570af31a52d27b2a",
    ),
    "oracle-enumeration": (
        "oracle-compare",
        {"mode": "enumeration", "instances": 4},
        [0, 1],
        {True: 2},
        "95cb1fce850792f6f42553be929d9c4c0bd274438249e8d2bcb49be53965de7b",
    ),
    "oracle-expansion": (
        "oracle-compare",
        {"mode": "expansion", "instances": 4},
        [0, 1],
        {True: 2},
        "014e8d2170004686fb44c40e7f60946633e850d099b5c69d21ee9fab2f38f098",
    ),
    "count-blowup": (
        "count-audit",
        {"mode": "blowup", "t": 3, "n": 20, "p": 0.5, "delta": 0.3},
        [0, 1],
        {True: 2},
        "5b20c810ed81586dfd9808971862b6eb06c8ebdc3882e97ca0b347bf75db0f89",
    ),
    "count-gnp-sets": (
        "count-audit",
        {"mode": "gnp-sets", "N": 60, "p": 0.5, "t": 3, "set_size": 10, "eps": 0.5},
        [0, 1],
        {True: 2},
        "11030dd1d1478023768422c8796a5be05ab074fd4572fa10a242d238d9bd21bd",
    ),
    "regularity-partition": (
        "regularity-audit",
        {"mode": "partition", "N": 80, "p": 0.5, "epsilon": 0.2, "d": 0.5, "m": 4, "trials": 30},
        [0, 1],
        {False: 2},
        "1d2c907ed3b27033b3373bb37cf4aa3d9249efc28e9ae0f31efd5a1f610e8932",
    ),
    "regularity-inheritance": (
        "regularity-audit",
        {"mode": "inheritance", "n": 40, "p": 0.5, "q": 16, "eps_prime": 0.3, "samples": 20, "min_fraction": 0.5, "epsilon": 0.3, "d": 0.5},
        [0, 1],
        {True: 2},
        "c43d3cb9414b48d116412252e343966526eda04a20e51642de5253c95f728d36",
    ),
    "typicality": (
        "typicality-audit",
        {"t": 3, "n": 12, "p": 0.7, "epsilon": 0.4, "delta": 0.4, "trials": 20},
        [0, 1],
        {True: 2},
        "c4f5c827339bf5f730b0c76e62cc21236af883a2e2eef47293d9b10b062247e8",
    ),
    "typicality-four-parts": (
        "typicality-audit",
        {"t": 4, "n": 10, "p": 0.7, "epsilon": 0.4, "delta": 0.4, "trials": 20},
        [0, 1],
        {False: 2},
        "e69a45f06d28e6a6226ac9ad9d328d22b7ccac6fb47f39ef1e7f4f230636865d",
    ),
}


def _outcome(record: dict):
    measured = record["measured"]
    return measured["stage"] if "stage" in measured else record["ok"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_records_match_golden_hash(name):
    kind, params, seeds, outcomes, expected = GOLDEN[name]
    summary = run_experiment(ExperimentConfig(kind=kind, params=params, seeds=seeds))
    assert not any("error" in r["measured"] for r in summary.records)
    tally: dict = {}
    for record in summary.records:
        tally[_outcome(record)] = tally.get(_outcome(record), 0) + 1
    assert tally == outcomes
    blob = b"".join(TrialRecord.from_dict(r).measured_bytes() for r in summary.records)
    assert hashlib.sha256(blob).hexdigest() == expected


SRC = Path(__file__).resolve().parents[1] / "src"

# Prints the records' sha256 of each (kind, params, seeds) config in argv[1].
HASH_SCRIPT = """
import hashlib, json, sys
from powercycle.harness import ExperimentConfig, TrialRecord, run_experiment
for kind, params, seeds in json.loads(sys.argv[1]):
    summary = run_experiment(ExperimentConfig(kind=kind, params=params, seeds=seeds))
    blob = b"".join(TrialRecord.from_dict(r).measured_bytes() for r in summary.records)
    print(hashlib.sha256(blob).hexdigest())
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blas_thread_count_leaves_records_alone(threads):
    # Golden configs whose verdicts rest on a float32 BLAS product: the
    # sampled refuter's counts (the first two) and the expansion kernel's
    # reach (the last two), each run in a fresh interpreter at a set BLAS
    # thread count.
    names = ["regularity-partition", "typicality-four-parts", "embed-anchor-extend", "expansion-main"]
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    }
    configs = json.dumps([GOLDEN[name][:3] for name in names])
    out = subprocess.run(
        [sys.executable, "-c", HASH_SCRIPT, configs],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.split() == [GOLDEN[name][4] for name in names]


def _golden_views(name: str) -> list:
    """The views the golden typicality and expansion audits build, one per seed."""
    _, params, seeds, _, _ = GOLDEN[name]
    if name.startswith("typicality"):
        pattern = complete_graph(params["t"])
    else:
        pattern = _path_power_pattern(2 * params["k"], params["k"])
    return [gen_blowup(pattern, params["n"], params["p"], seed)[1] for seed in seeds]


def _clique_digest(view) -> list:
    """Every window's sorted canonical cliques and count, then the three
    counts of the super-typicality ledger, each read from its window."""
    out = []
    for w in range(view.t):
        for order in range(1, view.t - w + 1):
            members = enumerate_canonical_cliques(view, w, order)
            out.append([w, order, count_canonical_cliques(view, w, order), members])
    t = view.t
    for idx in (range(1, t - 1), range(0, t - 1), range(1, t)):
        out.append(count_canonical_cliques(view, idx.start, len(idx)))
    return out


# sha256 of the JSON of _clique_digest over the seeds of each golden config.
CLIQUES_PINNED = {
    "typicality": "89dfa9f459f3432f1baea0fbd51442534af3dc78ca17c754289b91afb11b8c1a",
    "typicality-four-parts": "697cc9db9eb9c0e2351b78607568c5eaf34652e8af6fd84f910528260a71612a",
    "expansion-main-below-bound": "9073a7871adb1827c3b6d1056de466fa7f253c48c7f04121636224ab464f43af",
    "expansion-main": "c176c0969dc25fe6466f87a4e79a395ce092df4ba72326345b4f2d82a639d9ca",
    "expansion-halving": "9073a7871adb1827c3b6d1056de466fa7f253c48c7f04121636224ab464f43af",
}


@pytest.mark.parametrize("name", sorted(CLIQUES_PINNED))
def test_clique_sets_match_golden_views(name):
    digest = [_clique_digest(view) for view in _golden_views(name)]
    blob = json.dumps(digest).encode()
    assert hashlib.sha256(blob).hexdigest() == CLIQUES_PINNED[name]
