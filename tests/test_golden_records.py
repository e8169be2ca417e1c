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

from powercycle import embedder, harness
from powercycle.embedder import PowerCycle, embed_power_cycle
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
    "embed-length": (
        "embed",
        {**TOY, "N": 180, "p": 0.7},
        [0, 1, 2, 3],
        {"layout": 4},
        "54c87f3a39a5850c71dc1ed28ec9b7607764fedf210e4b8959d9ac503a058c7c",
    ),
    "embed-anchor-extend": (
        "embed",
        {**TOY, "N": 300, "p": 0.5, "xi": 0.1, "eps": 0.3, "delta": 0.02},
        [0, 1, 2, 3],
        {"anchor": 3, "extend": 1},
        "6b8b3662939519e9a3e9a284e40f8ac9a79bc507b7db47170ccdc52b82109e13",
    ),
    "resilience-sweep": (
        "resilience-sweep",
        {**TOY, "r_grid": [0.0, 1.0]},
        [0],
        {"ok": 1, "cluster-cycle": 1},
        "0a570add312d9ac698f66d2096b63ec2afa34b513722c450a32d3966747006d8",
    ),
    "expansion-one-step": (
        "expansion-audit",
        {"mode": "one-step", "k": 2, "n": 20, "p": 0.6, "kappa": 0.5, "delta": 0.02},
        [0, 1],
        {True: 2},
        "30a52ce25efaac70337c3ca9480ad9f67143b2db65512a9f4edc12e65310015b",
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
        {"mode": "inheritance", "n": 40, "p": 0.5, "q": 16, "eps_prime": 0.3, "samples": 20, "min_fraction": 0.5},
        [0, 1],
        {True: 2},
        "39431cfd60f4ac87038cb83ed6631e3431f9c24df182f5ab05e3bc944d3f43f8",
    ),
    "typicality": (
        "typicality-audit",
        {"t": 3, "n": 12, "p": 0.7, "epsilon": 0.4, "delta": 0.4, "trials": 20},
        [0, 1],
        {False: 1, True: 1},
        "be94ad17e85870beea8d6af0f4a1af9f4b0a6c887e2df5745abb97989c8367e2",
    ),
    "typicality-four-parts": (
        "typicality-audit",
        {"t": 4, "n": 10, "p": 0.7, "epsilon": 0.4, "delta": 0.4, "trials": 20},
        [0, 1],
        {False: 2},
        "19cf9b31fa3d27024df22b34b89afcb21e0426600af7184a5de5b4338066db50",
    ),
}


def test_every_kind_and_mode_has_a_golden():
    modes = {(kind, mode) for kind, table in harness._EXPERIMENTS.items() for mode in table}
    covered = {
        (kind, params.get("mode", next(iter(harness._EXPERIMENTS[kind])))) for kind, params, *_ in GOLDEN.values()
    }
    assert covered == modes


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


def test_layout_length_is_every_ok_cycle_length(monkeypatch):
    # A closed cycle has (s_final + 2) * t vertices, the length the layout
    # check compares with (1 - eps) N before any draw.
    seen = []

    def capture(graph, partition, cycle, params):
        result = embed_power_cycle(graph, partition, cycle, params)
        seen.append((partition, params, result))
        return result

    monkeypatch.setattr(embedder, "embed_power_cycle", capture)
    for kind, params, seeds, _, _ in GOLDEN.values():
        for seed in seeds if kind == "embed" else ():
            harness._run_embed(params, seed)
    ok = [(part, params, len(res)) for part, params, res in seen if isinstance(res, PowerCycle)]
    assert len(ok) == 3
    for part, params, length in ok:
        t, n_prime = len(part.classes), len(part.classes[0])
        n_tilde = max(params.k, int(params.xi * n_prime))
        s_final = min(int((1 - 2 * params.xi) * n_prime), n_prime - 3 * n_tilde)
        assert length == (s_final + 2) * t


@pytest.mark.parametrize("kind, extra", [("embed", {}), ("resilience-sweep", {"r_grid": [0.1]})])
def test_chunked_config_refused(kind, extra):
    # Each cluster is one window pool; a config that still asks for chunks is
    # refused before any trial, not run with the key ignored.
    with pytest.raises(ValueError, match=r"^params\.r_chunks: unknown key"):
        ExperimentConfig(kind=kind, params={**TOY, **extra, "r_chunks": 2}, seeds=[0])


class _ReadKeys(dict):
    """A params mapping that records every key looked up in it."""

    def __init__(self, data):
        super().__init__(data)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _declared(entry: tuple, *always: str) -> set:
    """The keys a config table entry (runner or call, required, optional) declares."""
    return set(entry[1].split()) | set(entry[2].split()) | set(always)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_runners_read_only_declared_keys(name, monkeypatch):
    # A key a runner reads but the table does not declare could never be
    # set: the config check refuses it as unknown.
    kind, params, seeds, _, _ = GOLDEN[name]
    watched = _ReadKeys(params)
    spec = _ReadKeys(params.get("adversary", {}))
    if "adversary" in params:
        watched["adversary"] = spec
    # A sweep hands each grid point's copy of its params to _run_embed, with
    # the point's own random adversary, so those reads are watched there.
    points = []
    run_embed = harness._run_embed

    def watch_point(point, seed):
        points.append(_ReadKeys(point))
        return run_embed(points[-1], seed)

    monkeypatch.setattr(harness, "_run_embed", watch_point)
    summary = run_experiment(ExperimentConfig(kind=kind, params=watched, seeds=seeds))
    assert not any("error" in r["measured"] for r in summary.records)
    assert len(points) == (len(summary.records) if kind == "resilience-sweep" else 0)
    read = watched.read.union(*(point.read - {"adversary"} for point in points))
    assert watched.read and read <= _declared(harness._entry(kind, params), "mode")
    if spec:
        assert spec.read <= _declared(harness._ADVERSARIES[spec["kind"]], "kind")


SRC = Path(__file__).resolve().parents[1] / "src"

# Prints the records' sha256 of each (kind, params, seeds) config in argv[1],
# calling each trial runner directly: ``_run_trial`` runs every trial on one
# BLAS thread, and the thread count of the environment must reach the products.
HASH_SCRIPT = """
import hashlib, json, sys
from powercycle import harness
for kind, params, seeds in json.loads(sys.argv[1]):
    config = harness.ExperimentConfig(kind=kind, params=params, seeds=seeds)
    runner = harness._entry(kind, config.params)[0]
    blob = b"".join(
        harness.TrialRecord(config.hash, kind, seed, *runner(config.params, seed), 0.0).measured_bytes()
        for seed in seeds
    )
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
