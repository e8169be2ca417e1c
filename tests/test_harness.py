import dataclasses
import json
import re

import numpy as np
import pytest

from powercycle.harness import (
    ExperimentConfig,
    ExperimentSummary,
    TrialRecord,
    canonical_json,
    config_hash,
    load_records,
    replay,
    resilience_sweep,
    run_experiment,
    summarize_records,
)
from powercycle import harness
from powercycle.cli import main as cli_main
from powercycle.models import ModelParams, adversary_partite, adversary_triangle_killer, gen_gnp


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


# A sweep sets its own random adversary at each grid point, so its params
# name none.
SWEEP_PARAMS = {key: value for key, value in tiny_embed_params().items() if key != "adversary"}
PARTITION_PARAMS = {"mode": "partition", "N": 80, "p": 0.5, "epsilon": 0.2, "d": 0.5, "m": 4}
ONE_STEP_PARAMS = {"mode": "one-step", "k": 2, "n": 40, "p": 0.6, "kappa": 0.3, "delta": 0.1}
# The cheapest kind, for tests of a config's other fields, its hash, the run
# settings and the CLI. Its params are complete, because a config's params are
# checked before its assertions.
BLOWUP_PARAMS = {"mode": "blowup", "t": 3, "n": 8, "p": 0.5, "delta": 0.9}


@pytest.fixture
def refused_before_any_trial(monkeypatch, tmp_path, capsys):
    """A check that a (kind, params, assertions) config is refused before any
    trial runs: a ValueError naming params.<key> (assertions.<key> when the
    config holds assertion rules) when built, and exit 2 with that message in
    the CLI."""

    def refuse(task):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_run_trial", refuse)

    def check(kind: str, params: dict, key: str, assertions: list = ()) -> None:
        name = f"assertions.{key}" if assertions else f"params.{key}"
        with pytest.raises(ValueError, match=rf"^{re.escape(name)}: "):
            ExperimentConfig(kind=kind, params=params, seeds=[0, 1], assertions=list(assertions))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": params, "seeds": [0, 1], "assertions": list(assertions)}))
        with pytest.raises(SystemExit) as exit_info:
            cli_main([kind, "--config", str(cfg_path)])
        assert exit_info.value.code == 2
        assert f"error: {name}: " in capsys.readouterr().err.splitlines()[-1]

    return check


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentConfig(kind="nope", params={}, seeds=[1])

    def test_oracle_compare_is_not_a_kind(self):
        # The tests compare the fast kernels with the oracles; no trial does.
        with pytest.raises(ValueError, match="^kind: unknown 'oracle-compare'; choose from"):
            ExperimentConfig(kind="oracle-compare", params={}, seeds=[0])

    def test_empty_seeds(self):
        with pytest.raises(ValueError, match="seeds"):
            ExperimentConfig(kind="count-audit", params=BLOWUP_PARAMS, seeds=[])

    @pytest.mark.parametrize("seed", [1.5, -1, True, "3"])
    def test_bad_seed_names_seeds(self, seed):
        # 1.5 would replay seed 1's trial under another label, -1 would crash
        # the trial instead of the config, and True is the seed 1 in disguise.
        with pytest.raises(ValueError, match="^seeds: "):
            ExperimentConfig(kind="count-audit", params=BLOWUP_PARAMS, seeds=[0, seed])

    def test_repeated_seed_names_seeds(self):
        # [0, 0] used to run seed 0's trial twice and count it twice in
        # ok_fraction and the assertions.
        with pytest.raises(ValueError, match=r"^seeds: a seed is repeated in \[0, 1, 0\]"):
            ExperimentConfig(kind="count-audit", params=BLOWUP_PARAMS, seeds=[0, 1, 0])

    @pytest.mark.parametrize("workers", [0, -2, 1.5, True])
    def test_bad_workers_names_workers(self, workers):
        with pytest.raises(ValueError, match="^workers: "):
            ExperimentConfig(kind="count-audit", params=BLOWUP_PARAMS, seeds=[0], workers=workers)

    def test_bad_workers_in_file_names_workers(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "count-audit", "params": BLOWUP_PARAMS, "seeds": [0], "workers": 0}))
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["count-audit", "--config", str(path)])
        assert exit_info.value.code == 2
        assert "error: workers: " in capsys.readouterr().err.splitlines()[-1]

    def test_missing_field_names_path(self):
        with pytest.raises(ValueError, match="params.N"):
            ExperimentConfig(kind="embed", params={"p": 0.5}, seeds=[1])

    @pytest.mark.parametrize(
        "kind, params, key",
        [
            ("count-audit", {"n": 20, "p": 0.5, "delta": 0.2}, "t"),
            ("count-audit", {"mode": "blowpu", "t": 3, "n": 20, "p": 0.5, "delta": 0.2}, "mode"),
            ("regularity-audit", {"mode": "partition", "p": 0.5, "epsilon": 0.2, "d": 0.5, "m": 4}, "N"),
            ("embed", tiny_embed_params(adversary={"kind": "random"}), "adversary.r"),
            ("embed", tiny_embed_params(adversary={"kind": "randon", "r": 0.1}), "adversary.kind"),
            ("embed", tiny_embed_params(retires=9), "retires"),
            ("typicality-audit", {"mode": "main", "t": 3, "n": 12, "p": 0.7, "epsilon": 0.4, "delta": 0.4}, "mode"),
        ],
    )
    def test_malformed_params_refused_before_any_trial(self, kind, params, key):
        # Each of these used to build, then run every seed as a crashed
        # record (or, for the typo and the mode of another kind, run with the
        # key ignored).
        with pytest.raises(ValueError, match=rf"^params\.{key}: "):
            ExperimentConfig(kind=kind, params=params, seeds=[0, 1])

    @pytest.mark.parametrize("kind", ["embed", "resilience-sweep"])
    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"xi": 0}, "xi"),
            ({"eps": 1.0}, "eps"),
            ({"delta": 0.1}, "delta"),
            ({"delta": 0}, "delta"),
            ({"k": 0}, "k"),
            # k = 3 with the default delta 0.0225, which is not below 1/60.
            ({"k": 3}, "delta"),
            ({"eps": "0.5"}, "eps"),
            ({"clusters": 17}, "clusters"),
            ({"k": 5, "delta": 0.005, "clusters": 6}, "clusters"),
            ({"clusters": 3}, "clusters"),
        ],
        ids=[
            "xi-0", "eps-1", "delta-0.1", "delta-0", "k-0", "k-3-default-delta", "eps-str", "clusters-17",
            "k-5-clusters-6", "k-2-clusters-3",
        ],
    )
    def test_embed_params_refused_before_any_trial(self, refused_before_any_trial, kind, overrides, key):
        # Such a config used to run every trial: xi = 0 or a string eps as
        # error records, a delta of 1/(20k) or more as extend refusals, and a
        # cluster count above the ordering search's cap of 16 or below k + 2
        # as cluster-cycle refusals after the host, adversary and partition.
        params = {**(SWEEP_PARAMS if kind == "resilience-sweep" else tiny_embed_params()), **overrides}
        if kind == "resilience-sweep":
            params["r_grid"] = [0.1]
        refused_before_any_trial(kind, params, key)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"trials": -3}, "trials"),
            ({"trials": 2.5}, "trials"),
            ({"p": 1.5}, "p"),
            ({"p": 0}, "p"),
            ({"epsilon": 1.0}, "epsilon"),
            ({"delta": "0.4"}, "delta"),
            ({"t": 2}, "t"),
            ({"n": 0}, "n"),
        ],
        ids=["trials-neg", "trials-float", "p-1.5", "p-0", "epsilon-1", "delta-str", "t-2", "n-0"],
    )
    def test_typicality_params_refused_before_any_trial(self, refused_before_any_trial, overrides, key):
        # trials = -3 used to run every seed with no sampled check at all,
        # and p = 1.5 to crash every trial.
        params = {"t": 3, "n": 12, "p": 0.7, "epsilon": 0.4, "delta": 0.4, **overrides}
        refused_before_any_trial("typicality-audit", params, key)

    @pytest.mark.parametrize(
        "kind, params, key",
        [
            ("regularity-audit", {**PARTITION_PARAMS, "epsilon": 2}, "epsilon"),
            ("regularity-audit", {**PARTITION_PARAMS, "trials": -3}, "trials"),
            ("regularity-audit", {**PARTITION_PARAMS, "d": "0.5"}, "d"),
            ("expansion-audit", {**ONE_STEP_PARAMS, "p": 1.5}, "p"),
            ("expansion-audit", {**ONE_STEP_PARAMS, "delta": 1.0}, "delta"),
            ("expansion-audit", {**ONE_STEP_PARAMS, "kappa": 0}, "kappa"),
            ("expansion-audit", {**ONE_STEP_PARAMS, "kappa": 0.0}, "kappa"),
            ("expansion-audit", {"mode": "halving", "k": 0, "n": 12, "p": 0.6, "delta": 0.02}, "k"),
            ("expansion-audit", {"mode": "main", "k": 2, "n": 12, "p": 0.6, "delta": 2}, "delta"),
            ("embed", tiny_embed_params(d=2), "d"),
            ("resilience-sweep", {**SWEEP_PARAMS, "p": 0, "r_grid": [0.1]}, "p"),
        ],
        ids=[
            "partition-epsilon-2", "partition-trials-neg", "partition-d-str", "one-step-p-1.5",
            "one-step-delta-1", "one-step-kappa-0", "one-step-kappa-0.0", "halving-k-0", "main-delta-2", "embed-d-2",
            "sweep-p-0",
        ],
    )
    def test_runner_params_refused_before_any_trial(self, refused_before_any_trial, kind, params, key):
        # Each of these used to build, then run every trial as an error record
        # (the main audit's delta = 2 as a pass against a bound of -19, and a
        # one-step kappa of 0 as a pass of its empty start against a negative
        # bound): the runner refused the value only inside the trial, or not
        # at all.
        refused_before_any_trial(kind, params, key)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("count-audit", {"mode": "blowup", "t": 3, "n": 10, "delta": 0.3}),
            ("count-audit", {"mode": "gnp-sets", "N": 60, "t": 3, "set_size": 10, "eps": 0.3}),
            ("regularity-audit", {"mode": "inheritance", "n": 40, "q": 10, "eps_prime": 0.3}),
            ("expansion-audit", {"mode": "main", "k": 2, "n": 12, "delta": 0.02}),
            ("expansion-audit", {"mode": "halving", "k": 2, "n": 12, "delta": 0.02}),
        ],
        ids=["count-blowup", "count-gnp-sets", "inheritance", "expansion-main", "expansion-halving"],
    )
    @pytest.mark.parametrize("p", [1.5, -0.1, "0.5"])
    def test_host_p_refused_before_any_trial(self, refused_before_any_trial, kind, params, p):
        # p = 1.5 used to build, then run every trial as an error record from
        # the generator: these modes have no parameter dataclass taking p.
        refused_before_any_trial(kind, {**params, "p": p}, "p")

    @pytest.mark.parametrize(
        "kind, params, key",
        [
            ("embed", tiny_embed_params(N="120"), "N"),
            ("embed", tiny_embed_params(N=0), "N"),
            ("embed", tiny_embed_params(clusters=2.5), "clusters"),
            ("embed", tiny_embed_params(clusters=0), "clusters"),
            ("embed", tiny_embed_params(k=2.5, delta=0.01), "k"),
            ("count-audit", {**BLOWUP_PARAMS, "n": 0}, "n"),
            ("regularity-audit", {**PARTITION_PARAMS, "m": 0}, "m"),
            ("expansion-audit", {"mode": "halving", "k": 2, "n": 12, "p": 0.6, "delta": 0.02, "n_splits": 2.5},
             "n_splits"),
            ("expansion-audit", {"mode": "halving", "k": 2, "n": 12, "p": 0.6, "delta": 0.02, "n_splits": 0},
             "n_splits"),
            ("regularity-audit", {"mode": "inheritance", "n": 40, "p": 0.5, "q": 10, "eps_prime": 0.3, "samples": 0},
             "samples"),
            ("embed", tiny_embed_params(adversary={"kind": "random", "r": 1.5}), "adversary.r"),
            ("embed", tiny_embed_params(adversary={"kind": "random", "r": "0.1"}), "adversary.r"),
            ("embed", tiny_embed_params(adversary={"kind": "partite", "k": 0}), "adversary.k"),
            ("embed", tiny_embed_params(adversary={"kind": "partite", "k": 2, "skew": "x"}), "adversary.skew"),
            ("embed", tiny_embed_params(adversary={"kind": "triangle-killer", "victims": 3}), "adversary.victims"),
        ],
        ids=[
            "embed-N-str", "embed-N-0", "embed-clusters-2.5", "embed-clusters-0", "embed-k-2.5", "blowup-n-0",
            "partition-m-0", "halving-n_splits-2.5", "halving-n_splits-0", "inheritance-samples-0", "random-r-1.5", "random-r-str", "partite-k-0",
            "partite-skew-str", "triangle-killer-victims-int",
        ],
    )
    def test_malformed_value_refused_before_any_trial(self, refused_before_any_trial, kind, params, key):
        # Each of these used to build, then run every trial as an error record
        # (no split or no sample: as a pass that tested nothing).
        refused_before_any_trial(kind, params, key)

    @pytest.mark.parametrize(
        "kind, params, key",
        [
            ("count-audit", {"mode": "gnp-sets", "N": 50, "p": 0.5, "t": 3, "set_size": 20, "eps": 0.3}, "set_size"),
            ("regularity-audit", {"mode": "inheritance", "n": 10, "p": 0.5, "q": 11, "eps_prime": 0.3}, "q"),
            ("regularity-audit", {**PARTITION_PARAMS, "m": 81}, "m"),
            ("embed", tiny_embed_params(N=15, clusters=16), "clusters"),
            ("resilience-sweep", {**SWEEP_PARAMS, "N": 15, "clusters": 16, "r_grid": [0.1]}, "clusters"),
            ("embed", tiny_embed_params(adversary={"kind": "triangle-killer", "victims": [0, 120]}),
             "adversary.victims"),
            ("embed", tiny_embed_params(adversary={"kind": "partite", "k": 120}), "adversary.k"),
            ("embed", tiny_embed_params(adversary={"kind": "partite", "k": 2, "skew": 5.0}), "adversary.skew"),
            ("embed", tiny_embed_params(adversary={"kind": "partite", "k": 2, "skew": 2.0}), "adversary.skew"),
            ("embed", tiny_embed_params(adversary={"kind": "partite", "k": 2, "skew": -0.99}), "adversary.skew"),
        ],
        ids=[
            "gnp-sets-t-set_size", "inheritance-q", "partition-m", "embed-clusters", "sweep-clusters", "victims",
            "partite-k", "partite-skew-5", "partite-skew-2", "partite-skew--0.99",
        ],
    )
    def test_parts_larger_than_the_host_refused_before_any_trial(self, refused_before_any_trial, kind, params, key):
        # The gnp-sets config used to run with a short last set and a bound
        # that assumed a full one; the others ran every trial as an error
        # (a partite adversary needs k + 1 nonempty parts: at N = 120 and
        # k = 2 a large part of round((1 + skew) * 40) must lie in [1, 118]).
        refused_before_any_trial(kind, params, key)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("count-audit", {"mode": "gnp-sets", "N": 60, "p": 0.5, "t": 3, "set_size": 20, "eps": 0.3}),
            ("regularity-audit", {"mode": "inheritance", "n": 10, "p": 0.5, "q": 10, "eps_prime": 0.3}),
            ("regularity-audit", {**PARTITION_PARAMS, "m": 80}),
            ("embed", tiny_embed_params(N=16, clusters=16)),
            ("embed", tiny_embed_params(adversary={"kind": "triangle-killer", "victims": [0, 119]})),
            ("embed", tiny_embed_params(adversary={"kind": "partite", "k": 119})),
            ("embed", tiny_embed_params(adversary={"kind": "partite", "k": 2, "skew": 1.95})),
            ("embed", tiny_embed_params(adversary={"kind": "partite", "k": 2, "skew": -0.98})),
        ],
        ids=[
            "gnp-sets", "inheritance", "partition", "embed-clusters", "victims", "partite-k", "partite-skew-1.95",
            "partite-skew--0.98",
        ],
    )
    def test_parts_that_fill_the_host_accepted(self, kind, params):
        # Each partite skew here runs (large parts of 118 and 1 at N = 120).
        ExperimentConfig(kind=kind, params=params, seeds=[0])
        spec = params.get("adversary", {})
        if "skew" in spec:
            adversary_partite(gen_gnp(ModelParams(N=120, p=1.0, seed=0)), spec["k"], spec["skew"], seed=0)

    def test_every_params_and_spec_key_has_a_value_rule(self):
        entries = [entry for modes in harness._EXPERIMENTS.values() for entry in modes.values()]
        entries += harness._ADVERSARIES.values()
        keys = {key for entry in entries for key in f"{entry[1]} {entry[2]}".split()}
        assert keys - {"adversary"} <= set(harness._VALUES)

    def test_typicality_boundary_values_accepted(self):
        base = {"t": 3, "n": 12, "epsilon": 0.4, "delta": 0.4}
        ExperimentConfig(kind="typicality-audit", params={**base, "p": 1.0, "trials": 0}, seeds=[0])
        ExperimentConfig(kind="typicality-audit", params={**base, "p": 1}, seeds=[0])

    def test_delta_just_below_the_search_bound_accepted(self):
        ExperimentConfig(kind="embed", params=tiny_embed_params(delta=0.0249), seeds=[0])
        ExperimentConfig(kind="embed", params=tiny_embed_params(k=3, delta=0.0166), seeds=[0])

    @pytest.mark.parametrize(
        "grid", [[0.0, 0.0], [0, 0.0], [True], ["0.1"], [None], [], [1.5], 0.1]
    )
    def test_bad_r_grid_names_r_grid(self, grid):
        # A duplicate ran each seed twice and counted both in the curve; True
        # passed as 1, and a string raised a TypeError.
        with pytest.raises(ValueError, match=r"^params\.r_grid: "):
            ExperimentConfig(kind="resilience-sweep", params={**SWEEP_PARAMS, "r_grid": grid}, seeds=[0])

    @pytest.mark.parametrize(
        "rule, key",
        [
            ({"min_ok_fracton": 0.9}, "min_ok_fracton"),
            ({"min_ok_fraction": 1.5}, "min_ok_fraction"),
            ({"max_ok_fraction": -0.1}, "max_ok_fraction"),
            ({"min_ok_fraction": True}, "min_ok_fraction"),
            ({"r": 0.1, "min_ok_fraction": 0.5}, "r"),
        ],
    )
    def test_bad_assertion_refused(self, rule, key):
        with pytest.raises(ValueError, match=rf"^assertions\.{key}: "):
            ExperimentConfig(kind="embed", params=tiny_embed_params(), seeds=[0], assertions=[rule])

    @pytest.mark.parametrize(
        "rule",
        [{}, {"r": 0.5}, {"min_ok_fraction": 0.9, "max_ok_fraction": 0.1}],
        ids=["no-bound", "r-only", "crossed-bounds"],
    )
    def test_meaningless_assertion_refused_before_any_trial(self, refused_before_any_trial, rule):
        # A rule with no bound always passed; one whose bounds cross ran
        # every trial and then always failed.
        params = {**SWEEP_PARAMS, "r_grid": [0.0, 0.5]}
        refused_before_any_trial("resilience-sweep", params, "min_ok_fraction", [rule])

    def test_equal_bounds_accepted(self):
        rule = {"min_ok_fraction": 0.5, "max_ok_fraction": 0.5}
        ExperimentConfig(kind="embed", params=tiny_embed_params(), seeds=[0], assertions=[rule])

    def test_r_rule_only_for_a_grid_point(self):
        params = {**SWEEP_PARAMS, "r_grid": [0.0, 0.5]}
        rule = {"r": 0.5, "min_ok_fraction": 0.5}
        ExperimentConfig(kind="resilience-sweep", params=params, seeds=[0], assertions=[rule])
        with pytest.raises(ValueError, match=r"^assertions\.r: "):
            ExperimentConfig(kind="resilience-sweep", params=params, seeds=[0], assertions=[{"r": 0.25}])

    @pytest.mark.parametrize("field, value", [("seeds", 5), ("assertions", None)])
    def test_non_list_names_the_field(self, field, value):
        # Each of these used to raise a TypeError instead.
        data = {"kind": "count-audit", "params": BLOWUP_PARAMS, "seeds": [0], field: value}
        with pytest.raises(ValueError, match=f"^{field}: "):
            ExperimentConfig.from_dict(data)

    def test_non_path_out_dir_refused_before_any_trial(self, monkeypatch):
        # Such an out_dir used to reach Path() only after every trial had run.
        data = {"kind": "count-audit", "params": BLOWUP_PARAMS, "seeds": [0], "out_dir": 5}
        with pytest.raises(ValueError, match="^out_dir: "):
            ExperimentConfig.from_dict(data)

        def refuse(task):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_run_trial", refuse)
        cfg = ExperimentConfig(kind="count-audit", params=BLOWUP_PARAMS, seeds=[0])
        with pytest.raises(ValueError, match="^out_dir: "):
            run_experiment(cfg, out_dir=5)

    @pytest.mark.parametrize("schema", ["powercycle/config-v9", 42, None])
    def test_other_config_schema_refused(self, tmp_path, capsys, schema):
        # Each of these used to load as if it were config-v1.
        data = {"schema": schema, "kind": "count-audit", "params": BLOWUP_PARAMS, "seeds": [0]}
        with pytest.raises(ValueError, match="^schema: expected 'powercycle/config-v1', got "):
            ExperimentConfig.from_dict(data)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert "error: schema: " in usage_error(capsys, ["count-audit", "--config", str(cfg_path)])
        ExperimentConfig.from_dict({**data, "schema": "powercycle/config-v1"})

    def test_out_dir_that_cannot_be_made_refused_before_any_trial(self, monkeypatch, tmp_path, capsys):
        # Such an out_dir used to fail in _persist with NotADirectoryError,
        # after every trial had run and with every result lost.
        def refuse(task):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_run_trial", refuse)
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = ExperimentConfig(kind="count-audit", params=BLOWUP_PARAMS, seeds=[0, 1, 2])
        with pytest.raises(ValueError, match="^out_dir: cannot make "):
            run_experiment(cfg, out_dir=str(blocker / "sub"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        err = usage_error(capsys, ["count-audit", "--config", str(cfg_path), "--out", str(blocker / "sub")])
        assert "error: out_dir: cannot make " in err

    def test_unknown_top_level_key_refused(self):
        # "assertion" (singular) used to drop every assertion silently.
        data = {"kind": "count-audit", "params": BLOWUP_PARAMS, "seeds": [0], "assertion": [{"min_ok_fraction": 1.0}]}
        with pytest.raises(ValueError, match="^assertion: "):
            ExperimentConfig.from_dict(data)

    def test_hash_depends_on_params_only(self):
        a = ExperimentConfig(kind="count-audit", params=BLOWUP_PARAMS, seeds=[1])
        b = ExperimentConfig(kind="count-audit", params=dict(BLOWUP_PARAMS), seeds=[5, 6])
        c = ExperimentConfig(kind="count-audit", params={**BLOWUP_PARAMS, "n": 9}, seeds=[1])
        assert a.hash == b.hash != c.hash

    def test_roundtrip_through_file(self, tmp_path):
        cfg = ExperimentConfig(kind="count-audit", params={"t": 3, "n": 20, "p": 0.5, "delta": 0.2}, seeds=[0, 1])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        back = ExperimentConfig.from_dict(json.loads(path.read_text()))
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

    def test_trial_error_recorded_not_fatal(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("generator failed")

        monkeypatch.setattr(harness.models, "gen_blowup", fail)
        cfg = ExperimentConfig(kind="count-audit", params=BLOWUP_PARAMS, seeds=[0])
        summary = run_experiment(cfg)
        assert summary.ok_fraction == 0.0
        assert "error" in summary.records[0]["measured"]
        assert summary.to_dict()["errors"] == 1 and summary.to_dict()["stages"] == {}

    def test_halving_audit_on_an_edgeless_blowup_is_a_record(self):
        # With no edges the reference count is 0; the audit used to divide by
        # it and record a ZeroDivisionError, then to pass while testing
        # nothing. A start that does not qualify is its own failing outcome.
        params = {"mode": "halving", "k": 2, "n": 6, "p": 0, "delta": 0.02}
        summary = run_experiment(ExperimentConfig(kind="expansion-audit", params=params, seeds=[0]))
        record = summary.records[0]
        assert record["measured"] == {
            "start_qualifies": False,
            "start_fraction": 0.0,
            "splits_ok": False,
            "best_half_fractions": [0.0, 0.0, 0.0],
            "stage": "vacuous",
        }
        assert not record["ok"]
        assert summary.to_dict()["stages"] == {"vacuous": 1}

    def test_halving_audit_with_one_start_copy_is_vacuous(self, monkeypatch):
        # On a complete blow-up one copy reaches the whole block ahead, so the
        # start qualifies, but a single copy has no two halves to compare.
        sample = harness._sample_start

        def one_copy(view, k, fraction, least, seed):
            start = sample(view, k, fraction, least, seed)
            single = np.zeros_like(start)
            single[tuple(p[:1] for p in np.nonzero(start))] = True
            return single

        monkeypatch.setattr(harness, "_sample_start", one_copy)
        params = {"mode": "halving", "k": 2, "n": 6, "p": 1.0, "delta": 0.02}
        measured, ok = harness._expansion_halving(params, 0)
        assert measured["start_qualifies"] and measured["stage"] == "vacuous" and not ok

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
        stem = f"count-audit-{cfg.hash}"
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{stem}.json", f"{stem}.jsonl"]
        stats = summarize_records(load_records(tmp_path / f"{stem}.jsonl"))
        assert stats == summary.stats and stats["ok_fraction"] == summary.ok_fraction
        written = json.loads((tmp_path / f"{stem}.json").read_text())
        assert written == {
            "schema": "powercycle/summary-v2",
            "config_hash": cfg.hash,
            "kind": "count-audit",
            **stats,
            "assertions_passed": True,
            "config": cfg.to_dict(),
        }

    def test_summary_holds_only_its_config_and_records(self):
        # Every tally is derived from the records, so none can disagree with
        # them.
        assert [f.name for f in dataclasses.fields(ExperimentSummary)] == ["config", "records"]

    def test_parallel_equals_serial(self):
        sweep_params = {**SWEEP_PARAMS, "r_grid": [0.0, 0.3]}
        for kind, params in [("embed", tiny_embed_params()), ("resilience-sweep", sweep_params)]:
            serial = run_experiment(ExperimentConfig(kind=kind, params=params, seeds=[0, 1, 2]))
            parallel = run_experiment(ExperimentConfig(kind=kind, params=params, seeds=[0, 1, 2], workers=3))
            assert len(serial.records) == len(parallel.records) == 3 * len(params.get("r_grid", [None]))
            for a, b in zip(serial.records, parallel.records):
                assert TrialRecord.from_dict(a).measured_bytes() == TrialRecord.from_dict(b).measured_bytes()


@pytest.fixture
def two_blas_threads():
    """The loaded OpenBLAS set to two threads, and its thread-count getter;
    the count is restored after the test, which is skipped where the harness
    finds no OpenBLAS thread setter."""
    found = harness._blas_threads()
    if found is None:
        pytest.skip("no OpenBLAS thread setter in this process")
    set_threads, get_threads = found
    threads = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(threads)


class TestOneBlasThread:
    def _config(self, monkeypatch, runner, workers):
        """A count-audit config over four seeds whose trials run ``runner``."""
        entry = harness._EXPERIMENTS["count-audit"]["blowup"]
        monkeypatch.setitem(harness._EXPERIMENTS["count-audit"], "blowup", (runner, *entry[1:]))
        return ExperimentConfig(kind="count-audit", params=BLOWUP_PARAMS, seeds=[0, 1, 2, 3], workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_trial_reads_one_thread(self, monkeypatch, two_blas_threads, workers):
        # Serial, in a fork pool whose workers inherit the parent's two
        # threads, and replayed.
        cfg = self._config(monkeypatch, lambda params, seed: ({"threads": two_blas_threads()}, True), workers)
        records = run_experiment(cfg).records
        assert [record["measured"] for record in records] == [{"threads": 1}] * 4
        match, fresh = replay(cfg, records[0])
        assert match and fresh["measured"] == {"threads": 1}

    def test_the_count_is_restored_after_a_run(self, monkeypatch, two_blas_threads):
        def crash(params, seed):
            raise RuntimeError("trial failed")

        assert run_experiment(self._config(monkeypatch, crash, 1)).stats["errors"] == 4
        assert two_blas_threads() == 2

        def interrupt(params, seed):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_experiment(self._config(monkeypatch, interrupt, 1))
        assert two_blas_threads() == 2

    def test_a_trial_runs_where_no_blas_setter_is_found(self, monkeypatch):
        cfg = ExperimentConfig(kind="regularity-audit", params=PARTITION_PARAMS, seeds=[0, 1])
        pinned = run_experiment(cfg).records
        monkeypatch.setattr(harness, "_blas_threads", lambda: None)
        unpinned = run_experiment(cfg).records
        assert [TrialRecord.from_dict(r).measured_bytes() for r in unpinned] == [
            TrialRecord.from_dict(r).measured_bytes() for r in pinned
        ]
        assert not any("error" in r["measured"] for r in unpinned)


class TestAdversaries:
    @pytest.mark.parametrize(
        "spec, direct",
        [
            ({"kind": "partite", "k": 2, "skew": 0.0}, lambda host, seed: adversary_partite(host, 2, 0.0, seed)),
            ({"kind": "triangle-killer", "victims": [0]}, lambda host, seed: adversary_triangle_killer(host, [0])),
        ],
    )
    def test_embed_runs_the_adversary_of_its_spec(self, spec, direct):
        params = tiny_embed_params(adversary=spec)
        summary = run_experiment(ExperimentConfig(kind="embed", params=params, seeds=[0, 1]))
        assert summary.stats["errors"] == 0
        for record in summary.records:
            host = gen_gnp(ModelParams(N=params["N"], p=params["p"], seed=record["seed"]))
            _, report = direct(host, record["seed"])
            assert record["measured"]["adversary"]["deleted_edges"] == report.deleted_edges > 0


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

    def test_malformed_record_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"seed": 0}\n\n[1,\n')
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} line 3: not a JSON record \("):
            load_records(path)

    @pytest.mark.parametrize("line", ["[1, 2]", "3", '{"seed": 0}', '{"config_hash": "0"}'])
    def test_non_record_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "records.jsonl"
        path.write_text('{"config_hash": "0", "seed": 0}\n\n' + line + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} line 3: not a trial record \("):
            load_records(path)

    def test_other_schema_raises(self):
        cfg, records = self._config_and_records()
        stale = {**records[0], "schema": "powercycle/trial-v1"}
        with pytest.raises(ValueError, match="powercycle/trial-v1.*powercycle/trial-v5"):
            replay(cfg, stale)


class TestResilienceSweep:
    def test_r_zero_matches_no_adversary_baseline(self):
        base = run_experiment(
            ExperimentConfig(kind="embed", params=tiny_embed_params(), seeds=[0, 1])
        )
        sweep_cfg = ExperimentConfig(
            kind="resilience-sweep",
            params={**SWEEP_PARAMS, "r_grid": [0.0, 1.0]},
            seeds=[0, 1],
        )
        out = resilience_sweep(sweep_cfg)
        assert out["curve"][0.0] == base.ok_fraction == 1.0
        assert out["curve"][1.0] == 0.0

    def test_summary_json_holds_each_points_tally(self, tmp_path):
        # The pooled ok fraction of r = 0.0 and 1.0 is 0.5; each point's is
        # its own.
        sweep_cfg = ExperimentConfig(
            kind="resilience-sweep",
            params={**SWEEP_PARAMS, "r_grid": [0.0, 1.0]},
            seeds=[0, 1],
            out_dir=str(tmp_path),
            assertions=[{"r": 1.0, "max_ok_fraction": 0.0}],
        )
        out = resilience_sweep(sweep_cfg)
        stem = f"resilience-sweep-{sweep_cfg.hash}"
        written = json.loads((tmp_path / f"{stem}.json").read_text())
        points = written["points"]
        assert points == summarize_records(load_records(tmp_path / f"{stem}.jsonl"))["points"]
        assert [(p["r"], p["n_trials"], p["ok_fraction"]) for p in points] == [(0.0, 2, 1.0), (1.0, 2, 0.0)]
        assert points[0]["stages"] == {"ok": 2} and written["ok_fraction"] == 0.5
        assert out["curve"] == {0.0: 1.0, 1.0: 0.0} and written["assertions_passed"]

    def test_point_record_is_the_embed_record_at_its_r(self):
        grid, seeds = [0.0, 0.3, 0.6], [0, 1]
        sweep = run_experiment(
            ExperimentConfig(kind="resilience-sweep", params={**SWEEP_PARAMS, "r_grid": grid}, seeds=seeds)
        )
        assert [(rec["measured"]["r"], rec["seed"]) for rec in sweep.records] == [(r, s) for r in grid for s in seeds]
        for r in grid:
            params = {**SWEEP_PARAMS, "adversary": {"kind": "random", "r": r}}
            embed = run_experiment(ExperimentConfig(kind="embed", params=params, seeds=seeds))
            points = [rec for rec in sweep.records if rec["measured"]["r"] == r]
            for point, rec in zip(points, embed.records):
                assert {key: value for key, value in point["measured"].items() if key != "r"} == rec["measured"]
                assert point["ok"] == rec["ok"] and point["seed"] == rec["seed"]

    def test_crashed_trials_keep_their_point(self, tmp_path, monkeypatch):
        # A crashed sweep trial used to lose its r: the curve counted no
        # trials at its point, an assertion on that point failed, and replay
        # raised KeyError: 'r'.
        def crash(*args):
            raise RuntimeError("embedder crashed")

        monkeypatch.setattr(harness.embedder, "embed_power_cycle", crash)
        cfg = ExperimentConfig(
            kind="resilience-sweep",
            params={**SWEEP_PARAMS, "r_grid": [0.0, 0.5]},
            seeds=[0, 1],
            out_dir=str(tmp_path),
            assertions=[{"r": 0.0, "max_ok_fraction": 0.0}],
        )
        out = resilience_sweep(cfg)
        records = out["summary"].records
        assert [rec["measured"]["r"] for rec in records] == [0.0, 0.0, 0.5, 0.5]
        assert all("error" in rec["measured"] for rec in records[:2])
        points = json.loads(next(p for p in tmp_path.iterdir() if p.suffix == ".json").read_text())["points"]
        assert [point["n_trials"] for point in points] == [2, 2]
        assert [point["errors"] for point in points] == [2, 0]
        assert out["curve"] == {0.0: 0.0, 0.5: 0.0}
        assert out["summary"].assertions_passed
        match, fresh = replay(cfg, records[0])
        assert match and fresh["measured"] == records[0]["measured"]


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
        cfg_path.write_text(json.dumps({"kind": "count-audit", "params": BLOWUP_PARAMS, "seeds": [0]}))
        out = tmp_path / "out"
        code = cli_main(["count-audit", "--config", str(cfg_path), "--seeds", "0:4", "--out", str(out)])
        assert code == 0
        jsonl = next(p for p in out.iterdir() if p.suffix == ".jsonl")
        assert len(load_records(jsonl)) == 4

    def test_malformed_config_is_a_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        params = {key: value for key, value in tiny_embed_params().items() if key != "N"}
        cfg_path.write_text(json.dumps({"params": params, "seeds": [0]}))
        err = usage_error(capsys, ["embed", "--config", str(cfg_path)])
        assert err.endswith("error: params.N: required")

    @pytest.mark.parametrize("token", ["0:4:2", "x", "5:3", "0:0"])
    def test_bad_seeds_token_is_a_usage_error(self, tmp_path, capsys, token):
        # The first two used to print "too many values to unpack" and
        # "invalid literal for int()", naming neither the flag nor the token;
        # the empty ranges were dropped, so "1,5:3" ran seed 1 alone.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": BLOWUP_PARAMS, "seeds": [0]}))
        err = usage_error(capsys, ["count-audit", "--config", str(cfg_path), "--seeds", f"1,{token}"])
        assert err.endswith(f"error: --seeds: bad token '{token}'; expected N or START:STOP with STOP above START")

    def test_oracle_compare_is_not_a_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": {}, "seeds": [0]}))
        assert "invalid choice: 'oracle-compare'" in usage_error(capsys, ["oracle-compare", "--config", str(cfg_path)])

    def _stored_run(self, tmp_path, seeds):
        """(config path, JSONL records path) of a count-audit run over ``seeds``."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "count-audit", "params": BLOWUP_PARAMS, "seeds": seeds}))
        out = tmp_path / "out"
        assert cli_main(["count-audit", "--config", str(cfg_path), "--out", str(out)]) == 0
        return cfg_path, next(p for p in out.iterdir() if p.suffix == ".jsonl")

    def test_replay_subcommand(self, tmp_path, capsys):
        cfg_path, jsonl = self._stored_run(tmp_path, [0, 1, 2])
        capsys.readouterr()
        assert cli_main(["replay", "--config", str(cfg_path), "--records", str(jsonl)]) == 0
        assert capsys.readouterr().out == "replayed 3 records, 0 mismatches\n"
        assert cli_main(["replay", "--config", str(cfg_path), "--records", str(jsonl), "--limit", "2"]) == 0
        assert capsys.readouterr().out == "replayed 2 records, 0 mismatches\n"

    def test_negative_limit_is_a_usage_error(self, tmp_path, capsys):
        # --limit -1 used to replay all but the last record and exit 0.
        cfg_path, jsonl = self._stored_run(tmp_path, [0, 1, 2])
        err = usage_error(capsys, ["replay", "--config", str(cfg_path), "--records", str(jsonl), "--limit", "-1"])
        assert "error: --limit: " in err and "got -1" in err

    def test_malformed_records_file_is_a_usage_error(self, tmp_path, capsys):
        # Such a file used to end replay in a JSONDecodeError traceback.
        cfg_path, jsonl = self._stored_run(tmp_path, [0, 1])
        jsonl.write_text(jsonl.read_text() + "\n{truncated\n")
        err = usage_error(capsys, ["replay", "--config", str(cfg_path), "--records", str(jsonl)])
        assert f"error: {jsonl} line 4: not a JSON record" in err

    @pytest.mark.parametrize("line", ["[1, 2]", '{"config_hash": "0"}'])
    def test_non_record_line_is_a_usage_error(self, tmp_path, capsys, line):
        # Each of these used to end replay in a traceback (exit 1).
        cfg_path, jsonl = self._stored_run(tmp_path, [0, 1])
        jsonl.write_text(jsonl.read_text() + line + "\n")
        err = usage_error(capsys, ["replay", "--config", str(cfg_path), "--records", str(jsonl)])
        assert f"error: {jsonl} line 3: not a trial record" in err

    @pytest.mark.parametrize("field", ["schema", "config_hash"])
    def test_record_of_another_schema_or_config_is_a_usage_error(self, tmp_path, capsys, field):
        # Such a record used to end replay in a ValueError traceback (exit 1)
        # once reached; it is refused before the first replay, even past
        # --limit.
        cfg_path, jsonl = self._stored_run(tmp_path, [0, 1])
        records = load_records(jsonl)
        records[1][field] = {"schema": "powercycle/trial-v3", "config_hash": "0" * 16}[field]
        other = tmp_path / "other.jsonl"
        other.write_text("".join(json.dumps(record) + "\n" for record in records))
        err = usage_error(capsys, ["replay", "--config", str(cfg_path), "--records", str(other), "--limit", "1"])
        assert "error: record of seed 1: " + {"schema": "trial schema", "config_hash": "config hash"}[field] in err
        assert cli_main(["replay", "--config", str(cfg_path), "--records", str(jsonl)]) == 0
        assert capsys.readouterr().out == "replayed 2 records, 0 mismatches\n"

    @pytest.mark.parametrize("measured, got", [(None, "no measured"), ([1, 2], "[1, 2]")], ids=["missing", "list"])
    def test_record_without_a_measured_object_is_a_usage_error(self, tmp_path, capsys, measured, got):
        # load_records accepts a line with only a config_hash and a seed; such
        # a record, or one whose measured is not an object, used to end replay
        # in a KeyError or AttributeError traceback (exit 1) once reached. It
        # is refused before the first replay, even past --limit.
        cfg_path, jsonl = self._stored_run(tmp_path, [0, 1])
        records = load_records(jsonl)
        records[1] = {key: records[1][key] for key in ("schema", "config_hash", "seed")}
        if measured is not None:
            records[1]["measured"] = measured
        other = tmp_path / "other.jsonl"
        other.write_text("".join(json.dumps(record) + "\n" for record in records))
        err = usage_error(capsys, ["replay", "--config", str(cfg_path), "--records", str(other), "--limit", "1"])
        assert err.endswith(f"error: record of seed 1: measured: expected an object, got {got}")

    @pytest.mark.parametrize(
        "field, value, got",
        [
            ("kind", None, "no kind"),
            ("ok", None, "no ok"),
            ("elapsed", None, "no elapsed"),
            ("kind", 3, "3"),
            ("ok", "yes", '"yes"'),
            ("elapsed", True, "true"),
            ("seed", [1], "[1]"),
        ],
        ids=["no-kind", "no-ok", "no-elapsed", "kind-int", "ok-string", "elapsed-bool", "seed-list"],
    )
    def test_record_with_a_field_missing_or_mistyped_is_a_usage_error(self, tmp_path, capsys, field, value, got):
        # A record without its kind, ok or elapsed used to end replay in a
        # KeyError traceback (exit 1) once TrialRecord.from_dict read it, and
        # a seed that is not an integer in a TypeError one.
        cfg_path, jsonl = self._stored_run(tmp_path, [0, 1])
        records = load_records(jsonl)
        del records[1][field]
        if value is not None:
            records[1][field] = value
        other = tmp_path / "other.jsonl"
        other.write_text("".join(json.dumps(record) + "\n" for record in records))
        err = usage_error(capsys, ["replay", "--config", str(cfg_path), "--records", str(other), "--limit", "1"])
        wanted = {"kind": "a string", "ok": "a bool", "elapsed": "a number", "seed": "a non-negative integer"}[field]
        assert err.endswith(f"error: record of seed {records[1]['seed']}: {field}: expected {wanted}, got {got}")

    @pytest.mark.parametrize("r, got", [(None, "no r"), (0.25, "r = 0.25")])
    def test_sweep_record_off_the_grid_is_a_usage_error(self, tmp_path, capsys, r, got):
        # A record with no r (a crashed trial's, before crashed records kept
        # their point) used to end replay in a KeyError traceback, and one
        # with an r off the grid was replayed at that r.
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(
            json.dumps({"kind": "resilience-sweep", "params": {**SWEEP_PARAMS, "r_grid": [0.0]}, "seeds": [0, 1]})
        )
        out = tmp_path / "out"
        assert cli_main(["resilience-sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        jsonl = next(p for p in out.iterdir() if p.suffix == ".jsonl")
        records = load_records(jsonl)
        del records[1]["measured"]["r"]
        if r is not None:
            records[1]["measured"]["r"] = r
        other = tmp_path / "other.jsonl"
        other.write_text("".join(json.dumps(record) + "\n" for record in records))
        err = usage_error(capsys, ["replay", "--config", str(cfg_path), "--records", str(other), "--limit", "1"])
        assert err.endswith(f"error: record of seed 1: grid point: expected an r of params.r_grid [0.0], got {got}")
        assert cli_main(["replay", "--config", str(cfg_path), "--records", str(jsonl)]) == 0
        assert capsys.readouterr().out.endswith("replayed 2 records, 0 mismatches\n")


def usage_error(capsys, argv: list) -> str:
    """The last line the CLI writes to stderr for ``argv``, which must exit 2."""
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv)
    assert exit_info.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


class TestCanonicalForms:
    def test_canonical_json_stable(self):
        assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'

    def test_config_hash_deterministic(self):
        h1 = config_hash("embed", {"N": 100, "p": 0.5})
        h2 = config_hash("embed", {"p": 0.5, "N": 100})
        assert h1 == h2
