"""Golden trial records: sha256 over the replayable bytes of every record of a
set of small configs, one per experiment kind and mode and one per embedder
outcome. The constants pin the records across commits, so a refactor that is
meant to change no behaviour must leave them all unchanged; a deliberate
change of records updates them together with the trial schema."""

import hashlib

import pytest

from powercycle.harness import ExperimentConfig, TrialRecord, run_experiment

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
        "e86a18e533e5b7f076e4763562eaa1fcb47603727a99c4ab2e30ae3059e6f09f",
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
