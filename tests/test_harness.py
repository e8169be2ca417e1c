import csv
import json
import os

import pytest

from powercycle.harness import (
    ExperimentConfig,
    TrialRecord,
    canonical_json,
    config_hash,
    load_records,
    replay,
    resilience_sweep,
    run_experiment,
    summarize_records,
)
from powercycle.cli import main as cli_main


def tiny_embed_params(**overrides):
    params = {
        "N": 120,
        "p": 1.0,
        "k": 2,
        "d": 2 / 3,
        "eps": 0.5,
        "clusters": 6,
        "xi": 0.2,
        "adversary": {"kind": "none"},
    }
    params.update(overrides)
    return params


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentConfig(kind="nope", params={}, seeds=[1])

    def test_empty_seeds(self):
        with pytest.raises(ValueError, match="seeds"):
            ExperimentConfig(kind="oracle-compare", params={}, seeds=[])

    def test_missing_field_names_path(self):
        with pytest.raises(ValueError, match="params.N"):
            ExperimentConfig(kind="embed", params={"p": 0.5}, seeds=[1])

    def test_hash_depends_on_params_only(self):
        a = ExperimentConfig(kind="oracle-compare", params={"instances": 3}, seeds=[1])
        b = ExperimentConfig(kind="oracle-compare", params={"instances": 3}, seeds=[5, 6])
        c = ExperimentConfig(kind="oracle-compare", params={"instances": 4}, seeds=[1])
        assert a.hash == b.hash != c.hash

    def test_roundtrip_through_file(self, tmp_path):
        cfg = ExperimentConfig(kind="count-audit", params={"t": 3, "n": 20, "p": 0.5, "delta": 0.2}, seeds=[0, 1])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        back = ExperimentConfig.from_file(path)
        assert back.hash == cfg.hash and back.seeds == cfg.seeds


class TestRunExperiment:
    def test_count_audit_smoke(self):
        cfg = ExperimentConfig(
            kind="count-audit",
            params={"mode": "blowup", "t": 3, "n": 30, "p": 0.5, "delta": 0.2},
            seeds=[0, 1, 2],
        )
        summary = run_experiment(cfg)
        assert summary.n_trials == 3 and summary.ok_fraction == 1.0
        assert "ratio" in summary.metrics

    def test_trial_error_recorded_not_fatal(self):
        cfg = ExperimentConfig(
            kind="count-audit",
            params={"mode": "blowup", "t": 3, "n": -5, "p": 0.5, "delta": 0.2},
            seeds=[0],
        )
        summary = run_experiment(cfg)
        assert summary.ok_fraction == 0.0
        assert "error" in summary.records[0]["measured"]
        assert summary.to_dict()["errors"] == 1 and summary.to_dict()["stages"] == {}

    def test_summary_tallies_stages_and_errors(self):
        records = [
            {"ok": True, "measured": {"stage": "ok", "coverage": 0.9}},
            {"ok": False, "measured": {"stage": "extend", "coverage": 0.0}},
            {"ok": False, "measured": {"stage": "extend"}},
            {"ok": False, "measured": {"error": "RuntimeError: audit failed"}},
        ]
        stats = summarize_records(records)
        assert stats["stages"] == {"extend": 2, "ok": 1}
        assert stats["errors"] == 1
        assert stats["n_trials"] == 4 and stats["ok_fraction"] == 0.25

    def test_embed_smoke_on_complete_host(self):
        cfg = ExperimentConfig(kind="embed", params=tiny_embed_params(), seeds=[0, 1])
        summary = run_experiment(cfg)
        assert summary.ok_fraction == 1.0
        assert all(r["measured"]["coverage"] >= 0.5 for r in summary.records)
        assert summary.to_dict()["stages"] == {"ok": 2} and summary.to_dict()["errors"] == 0

    def test_assertions_drive_pass_flag(self):
        cfg = ExperimentConfig(
            kind="embed",
            params=tiny_embed_params(),
            seeds=[0],
            assertions=[{"min_ok_fraction": 0.9}],
        )
        assert run_experiment(cfg).assertions_passed
        cfg2 = ExperimentConfig(
            kind="embed",
            params=tiny_embed_params(adversary={"kind": "random", "r": 1.0}),
            seeds=[0],
            assertions=[{"min_ok_fraction": 0.9}],
        )
        assert not run_experiment(cfg2).assertions_passed

    def test_persisted_outputs_consistent(self, tmp_path):
        cfg = ExperimentConfig(
            kind="count-audit",
            params={"mode": "blowup", "t": 3, "n": 25, "p": 0.5, "delta": 0.2},
            seeds=[0, 1, 2, 3],
            out_dir=str(tmp_path),
        )
        summary = run_experiment(cfg)
        jsonl = next(p for p in tmp_path.iterdir() if p.suffix == ".jsonl")
        records = load_records(jsonl)
        stats = summarize_records(records)
        assert stats["ok_fraction"] == summary.ok_fraction
        csv_path = next(p for p in tmp_path.iterdir() if p.name.endswith(".summary.csv"))
        with open(csv_path) as fh:
            rows = {row["metric"]: row for row in csv.DictReader(fh)}
        assert float(rows["ok_fraction"]["mean"]) == summary.ok_fraction
        for name, st in stats["metrics"].items():
            assert float(rows[name]["mean"]) == st["mean"]
            assert float(rows[name]["min"]) == st["min"]
            assert float(rows[name]["max"]) == st["max"]

    def test_parallel_equals_serial(self):
        params = tiny_embed_params()
        serial = run_experiment(ExperimentConfig(kind="embed", params=params, seeds=[0, 1, 2]))
        parallel = run_experiment(
            ExperimentConfig(kind="embed", params=params, seeds=[0, 1, 2], workers=3)
        )
        for a, b in zip(serial.records, parallel.records):
            assert TrialRecord.from_dict(a).measured_bytes() == TrialRecord.from_dict(b).measured_bytes()

    def test_env_overrides_out_dir_and_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POWERCYCLE_OUT", str(tmp_path / "envout"))
        monkeypatch.setenv("POWERCYCLE_WORKERS", "2")
        cfg = ExperimentConfig(
            kind="count-audit",
            params={"mode": "blowup", "t": 3, "n": 20, "p": 0.5, "delta": 0.2},
            seeds=[0, 1],
        )
        summary = run_experiment(cfg)
        assert summary.ok_fraction == 1.0
        assert any((tmp_path / "envout").glob("*.jsonl"))


class TestReplay:
    def _config_and_records(self):
        cfg = ExperimentConfig(
            kind="count-audit",
            params={"mode": "blowup", "t": 3, "n": 30, "p": 0.5, "delta": 0.2},
            seeds=[0, 1, 2, 3, 4],
        )
        return cfg, run_experiment(cfg).records

    def test_replay_matches(self):
        cfg, records = self._config_and_records()
        for record in records:
            match, _ = replay(cfg, record)
            assert match

    def test_tampered_seed_detected(self):
        cfg, records = self._config_and_records()
        tampered = dict(records[0])
        tampered["seed"] = 999
        match, _ = replay(cfg, tampered)
        assert not match

    def test_config_drift_raises(self):
        cfg, records = self._config_and_records()
        drifted = ExperimentConfig(
            kind="count-audit",
            params={"mode": "blowup", "t": 3, "n": 31, "p": 0.5, "delta": 0.2},
            seeds=[0],
        )
        with pytest.raises(ValueError, match="hash"):
            replay(drifted, records[0])

    def test_other_schema_raises(self):
        cfg, records = self._config_and_records()
        stale = {**records[0], "schema": "powercycle/trial-v1"}
        with pytest.raises(ValueError, match="powercycle/trial-v1.*powercycle/trial-v2"):
            replay(cfg, stale)


class TestResilienceSweep:
    def test_r_zero_matches_no_adversary_baseline(self):
        base = run_experiment(
            ExperimentConfig(kind="embed", params=tiny_embed_params(), seeds=[0, 1])
        )
        sweep_cfg = ExperimentConfig(
            kind="resilience-sweep",
            params={**tiny_embed_params(), "r_grid": [0.0, 1.0]},
            seeds=[0, 1],
        )
        out = resilience_sweep(sweep_cfg)
        assert out["curve"][0.0] == base.ok_fraction == 1.0
        assert out["curve"][1.0] == 0.0

    def test_curve_tsv_written(self, tmp_path):
        sweep_cfg = ExperimentConfig(
            kind="resilience-sweep",
            params={**tiny_embed_params(), "r_grid": [0.0]},
            seeds=[0],
            out_dir=str(tmp_path),
        )
        resilience_sweep(sweep_cfg)
        tsv = next(p for p in tmp_path.iterdir() if p.suffix == ".tsv")
        lines = tsv.read_text().strip().splitlines()
        assert lines[0] == "r\tok_fraction\tn"
        assert lines[1].startswith("0.0\t")


class TestCli:
    def test_run_and_exit_status(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "kind": "count-audit",
                    "params": {"mode": "blowup", "t": 3, "n": 25, "p": 0.5, "delta": 0.2},
                    "seeds": [0, 1],
                    "assertions": [{"min_ok_fraction": 0.9}],
                }
            )
        )
        code = cli_main(["count-audit", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["ok_fraction"] == 1.0
        assert printed["stages"] == {} and printed["errors"] == 0

    def test_seed_range_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "kind": "oracle-compare",
                    "params": {"mode": "enumeration", "instances": 2},
                    "seeds": [0],
                }
            )
        )
        out = tmp_path / "out"
        code = cli_main(
            ["oracle-compare", "--config", str(cfg_path), "--seeds", "0:4", "--out", str(out)]
        )
        assert code == 0
        jsonl = next(p for p in out.iterdir() if p.suffix == ".jsonl")
        assert len(load_records(jsonl)) == 4

    def test_replay_subcommand(self, tmp_path):
        cfg = {
            "kind": "count-audit",
            "params": {"mode": "blowup", "t": 3, "n": 25, "p": 0.5, "delta": 0.2},
            "seeds": [0, 1, 2],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli_main(["count-audit", "--config", str(cfg_path), "--out", str(out)]) == 0
        jsonl = next(p for p in out.iterdir() if p.suffix == ".jsonl")
        assert cli_main(["replay", "--config", str(cfg_path), "--records", str(jsonl)]) == 0


class TestCanonicalForms:
    def test_canonical_json_stable(self):
        assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'

    def test_config_hash_deterministic(self):
        h1 = config_hash("embed", {"N": 100, "p": 0.5})
        h2 = config_hash("embed", {"p": 0.5, "N": 100})
        assert h1 == h2
