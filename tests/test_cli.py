"""Command-line surface: artifacts, determinism, exit codes."""

import csv
import functools
import json
import math
import random

import numpy as np
import pytest

from privdist import experiment
from privdist.analysis import inv_geometric_error_lower_bound
from privdist.cli import (
    main,
    mechanism_from_json,
    mechanism_to_json,
    reports_from_json,
    reports_to_json,
)
from privdist.errors import ConfigError, IncompatibleEstimatorError, SolverNonConvergenceError
from privdist.estimators import ibu, inv_raw
from privdist.experiment import (
    ESTIMATORS,
    MECHANISMS,
    ExperimentConfig,
    build_alphabet,
    build_mechanism,
    derive_rng,
    load_dataset,
)
from privdist.core import FiniteMechanism, LinearAlphabet, ObservationSet, PlanarAlphabet, obs_matrix
from privdist.mechanisms import (
    build_geometric_linear,
    build_geometric_planar,
    build_geometric_truncated,
    build_krr,
    obfuscate_dataset,
)
from privdist.reduction import likely_subset, restrict_and_lift

rng_free = np.random.default_rng(0)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def base_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"kind": "synthetic", "family": "binomial", "k": 6, "p": 0.5, "n": 400},
        "alphabet": {"kind": "linear", "lo": 0, "hi": 5},
        "mechanism": {"name": "krr", "eps": [2.0]},
        "estimators": ["ibu", "inv-p"],
        "replications": 2,
        "master_seed": 424242,
        "metrics": ["emd", "tv"],
        "out": str(tmp_path / "results"),
    }
    cfg.update(overrides)
    return write_json(tmp_path / "config.json", cfg)


class TestObfuscate:
    def test_identity_preserves_counts(self, tmp_path):
        cfg = base_config(tmp_path, mechanism={"name": "identity", "eps": []})
        out = tmp_path / "obs.json"
        assert main(["obfuscate", "--config", cfg, "--out", str(out)]) == 0
        obs = reports_from_json(json.loads(out.read_text()), None)
        assert obs.n == 400
        # identity reports are exactly the drawn dataset (binomial on 0..5)
        assert set(obs.counts) <= set(range(6))

    def test_deterministic_output(self, tmp_path):
        cfg = base_config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["obfuscate", "--config", cfg, "--out", str(a)])
        main(["obfuscate", "--config", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        cfg = base_config(
            tmp_path,
            dataset={"kind": "ages", "path": str(tmp_path / "nope.csv")},
            alphabet={"kind": "linear", "lo": 0, "hi": 99},
        )
        code = main(["obfuscate", "--config", cfg, "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err


class TestEstimate:
    def _artifacts(self, tmp_path, mechanism="identity"):
        cfg = base_config(tmp_path, mechanism={"name": mechanism, "eps": [2.0]})
        obs = tmp_path / "obs.json"
        mech = tmp_path / "mech.json"
        main(["obfuscate", "--config", cfg, "--out", str(obs), "--mech-out", str(mech)])
        return str(mech), str(obs)

    def test_ibu_on_identity_returns_empirical(self, tmp_path):
        mech, obs = self._artifacts(tmp_path)
        out = tmp_path / "est.json"
        assert main(["estimate", "--mechanism", mech, "--observations", obs,
                     "--estimator", "ibu", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        observed = reports_from_json(json.loads((tmp_path / "obs.json").read_text()), None)
        expect = np.zeros(6)
        for v, c in observed.counts.items():
            expect[v] = c / observed.n
        np.testing.assert_allclose(payload["probs"], expect, atol=1e-9)
        assert payload["diagnostics"]["converged"]
        diagnostics = payload["diagnostics"]
        assert set(diagnostics) == {"iterations", "converged", "gap", "loglik"}
        assert diagnostics["gap"] <= 1e-6 and isinstance(diagnostics["loglik"], float)

    def test_inv_on_non_square_exits_3(self, tmp_path):
        inp = PlanarAlphabet.grid(5, 5, 1.0)
        out_grid = PlanarAlphabet.grid(4, 4, 1.0)
        mech = build_geometric_planar(inp, out_grid, 0.5)
        mech_path = write_json(tmp_path / "mech.json", mechanism_to_json(mech))
        obs_path = write_json(
            tmp_path / "obs.json",
            reports_to_json(ObservationSet({mech.outputs[0]: 3})),
        )
        code = main(["estimate", "--mechanism", mech_path, "--observations", obs_path,
                     "--estimator", "inv-n", "--out", str(tmp_path / "e.json")])
        assert code == 3

    def test_rappor_decode_off_rappor_exits_3(self, tmp_path, capsys):
        mech = build_krr(LinearAlphabet.range(0, 5), 2.0)
        with pytest.raises(IncompatibleEstimatorError, match="requires the rappor mechanism"):
            experiment.run_estimator("rappor-decode", mech, ObservationSet({0: 3, 4: 1}),
                                     mech.input_alphabet)
        mech_path, obs_path = self._artifacts(tmp_path, mechanism="krr")
        capsys.readouterr()
        assert main(["estimate", "--mechanism", mech_path, "--observations", obs_path,
                     "--estimator", "rappor-decode", "--out", str(tmp_path / "e.json")]) == 3
        assert "requires the rappor mechanism" in capsys.readouterr().err
        assert not (tmp_path / "e.json").exists()

    def test_likely_subset_restricts_support(self, tmp_path):
        mech, obs = self._artifacts(tmp_path, mechanism="krr")
        out = tmp_path / "est.json"
        assert main(["estimate", "--mechanism", mech, "--observations", obs,
                     "--estimator", "ibu", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        observed = reports_from_json(json.loads((tmp_path / "obs.json").read_text()), None)
        for v in range(6):
            if v not in observed.counts:
                assert payload["probs"][v] == 0.0

    def test_categorical_labels_round_trip(self, tmp_path):
        # labels that read as JSON values come back as the labels written
        labels = ["true", "false", "null", "1e3", "1.50"]
        cfg = base_config(
            tmp_path,
            dataset={"kind": "synthetic", "family": "uniform", "subset": labels, "n": 300},
            alphabet={"kind": "categorical", "labels": labels},
        )
        obs_path, mech_path, out = tmp_path / "obs.json", tmp_path / "mech.json", tmp_path / "est.json"
        artifacts = ["--mechanism", str(mech_path), "--observations", str(obs_path)]
        assert main(["obfuscate", "--config", cfg, "--out", str(obs_path),
                     "--mech-out", str(mech_path)]) == 0
        assert main(["estimate", *artifacts, "--estimator", "ibu", "--out", str(out)]) == 0
        assert main(["analyze", *artifacts]) == 0

        config = ExperimentConfig.from_dict(json.loads((tmp_path / "config.json").read_text()))
        alphabet = build_alphabet(config.alphabet)
        mech = build_mechanism("krr", alphabet, 2.0)
        data = load_dataset(config.dataset, alphabet, config.master_seed)
        obs = obfuscate_dataset(mech, data.values, derive_rng(config.master_seed, 1, 0))
        expect = ibu(obs_matrix(mech, obs)).estimate.probs
        np.testing.assert_array_equal(json.loads(out.read_text())["probs"], expect)

    def test_likely_subset_reports_ibu_diagnostics(self, tmp_path):
        mech, obs = self._artifacts(tmp_path, mechanism="krr")
        out = tmp_path / "est.json"
        assert main(["estimate", "--mechanism", mech, "--observations", obs,
                     "--estimator", "ibu", "--out", str(out)]) == 0
        diagnostics = json.loads(out.read_text())["diagnostics"]
        assert set(diagnostics) == {"iterations", "converged", "gap", "loglik"}
        assert diagnostics["converged"] and diagnostics["iterations"] >= 1
        assert diagnostics["gap"] <= 1e-6 and isinstance(diagnostics["loglik"], float)


class TestExperiment:
    def test_inv_estimators_share_one_inversion_per_replication(self, tmp_path, monkeypatch):
        calls = []

        def counted(q, mech):
            calls.append(mech)
            return inv_raw(q, mech)

        monkeypatch.setattr(experiment, "inv_raw", counted)
        cfg = base_config(tmp_path, estimators=["inv-n", "ibu", "inv-p"], replications=3)
        assert main(["experiment", "--config", cfg]) == 0
        assert len(calls) == 3
    def test_identity_rows_have_zero_emd(self, tmp_path):
        cfg = base_config(tmp_path, mechanism={"name": "identity", "eps": [0.0]},
                          estimators=["ibu"], replications=1)
        assert main(["experiment", "--config", cfg]) == 0
        with open(tmp_path / "results_raw.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["metric"] == "emd"]
        assert rows and all(float(r["value"]) < 1e-9 for r in rows)

    def test_deterministic_results(self, tmp_path):
        # everything except the wall-clock runtime column must be identical
        def strip_runtime(path):
            with open(path) as fh:
                return [
                    {k: v for k, v in row.items() if k != "runtime_ms"}
                    for row in csv.DictReader(fh)
                ]

        cfg = base_config(tmp_path)
        main(["experiment", "--config", cfg])
        raw1 = strip_runtime(tmp_path / "results_raw.csv")
        summary1 = (tmp_path / "results_summary.csv").read_bytes()
        main(["experiment", "--config", cfg])
        assert strip_runtime(tmp_path / "results_raw.csv") == raw1
        assert (tmp_path / "results_summary.csv").read_bytes() == summary1

    def test_quality_improves_with_eps(self, tmp_path):
        # qualitative trend at desk scale: larger eps means less noise and a
        # non-increasing median estimation error
        cfg = base_config(
            tmp_path,
            dataset={"kind": "synthetic", "family": "binomial", "k": 10, "p": 0.5, "n": 2000},
            alphabet={"kind": "linear", "lo": 0, "hi": 9},
            mechanism={"name": "krr", "eps": [0.5, 1.5, 3.0, 5.0]},
            estimators=["ibu"],
            replications=10,
            metrics=["emd"],
        )
        assert main(["experiment", "--config", cfg]) == 0
        with open(tmp_path / "results_summary.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["metric"] == "emd"]
        medians = [float(r["median"]) for r in sorted(rows, key=lambda r: float(r["eps"]))]
        assert all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))

    def test_replication_streams_independent(self, tmp_path):
        # replication r depends only on (master_seed, r): results of the
        # first replication are unchanged when more replications are added
        def emd_rows(path):
            with open(path) as fh:
                return {
                    (r["eps"], r["estimator"], r["replication"]): r["value"]
                    for r in csv.DictReader(fh)
                    if r["metric"] == "emd" and r["replication"] == "0"
                }

        cfg1 = base_config(tmp_path, replications=1)
        main(["experiment", "--config", cfg1])
        first = emd_rows(tmp_path / "results_raw.csv")
        cfg3 = base_config(tmp_path, replications=3)
        main(["experiment", "--config", cfg3])
        assert emd_rows(tmp_path / "results_raw.csv") == first

    def test_summary_quantiles_present(self, tmp_path):
        cfg = base_config(tmp_path)
        main(["experiment", "--config", cfg])
        with open(tmp_path / "results_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["estimator"] for r in rows} == {"ibu", "inv-p"}
        for r in rows:
            assert float(r["min"]) <= float(r["median"]) <= float(r["max"])

    def test_bad_config_exits_3(self, tmp_path):
        cfg = base_config(tmp_path, estimators=["rappor-decode"])  # wrong mechanism
        assert main(["experiment", "--config", cfg]) == 3

    def test_failure_threshold_exits_1_with_partial_results(self, tmp_path):
        # k-RR at eps = 0 has identical rows, so inversion fails on every
        # replication while ibu still succeeds: half the runs fail, which
        # crosses the 10% threshold after the CSVs are written
        cfg = base_config(tmp_path, mechanism={"name": "krr", "eps": [0.0]},
                          estimators=["ibu", "inv-n"], replications=2)
        assert main(["experiment", "--config", cfg]) == 1
        with open(tmp_path / "results_raw.csv") as fh:
            rows = list(csv.DictReader(fh))
        statuses = {r["estimator"]: r["status"] for r in rows}
        assert statuses["inv-n"] == "error:SingularMechanismError"
        assert statuses["ibu"] == "ok"
        with open(tmp_path / "results_summary.csv") as fh:
            summary = list(csv.DictReader(fh))
        assert {r["estimator"] for r in summary} == {"ibu"}

    def test_ibu_at_the_cap_is_unconverged(self, tmp_path, monkeypatch):
        # two steps cannot certify the truncated geometric estimate (the gap
        # is still about 45 nats), so every ibu row says so while inversion
        # rows stay ok; k-RR would start at its exact maximizer
        monkeypatch.setattr(experiment, "ibu", functools.partial(experiment.ibu, max_iter=2))
        cfg = base_config(tmp_path, replications=1, mechanism={"name": "geometric", "eps": [2.0]})
        assert main(["experiment", "--config", cfg]) == 0
        with open(tmp_path / "results_raw.csv") as fh:
            statuses = {(r["estimator"], r["metric"]): r["status"] for r in csv.DictReader(fh)}
        assert statuses == {("ibu", "emd"): "unconverged", ("ibu", "tv"): "unconverged",
                            ("inv-p", "emd"): "ok", ("inv-p", "tv"): "ok"}

    def test_failing_metric_is_an_error_row(self, tmp_path, monkeypatch):
        # a metric that raises fails its run like an estimator does: the row
        # names the error, both CSVs are still written, and every run failing
        # crosses the threshold
        def unsolved(p, q):
            raise SolverNonConvergenceError("pivot limit exceeded")

        monkeypatch.setitem(experiment.METRICS, "tv", unsolved)
        cfg = base_config(tmp_path)
        assert main(["experiment", "--config", cfg]) == 1
        with open(tmp_path / "results_raw.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8  # 2 estimators x 2 replications x 2 metrics
        for r in rows:
            if r["metric"] == "tv":
                assert (r["value"], r["status"]) == ("", "error:SolverNonConvergenceError")
            else:
                assert r["status"] == "ok" and float(r["value"]) >= 0.0
        with open(tmp_path / "results_summary.csv") as fh:
            summary = list(csv.DictReader(fh))
        assert {r["metric"] for r in summary} == {"emd"}

    def test_one_failing_metric_counts_one_failed_run(self, tmp_path, monkeypatch):
        calls = []

        def first_call_fails(p, q):
            calls.append(None)
            if len(calls) == 1:
                raise SolverNonConvergenceError("pivot limit exceeded")
            return 0.0

        monkeypatch.setitem(experiment.METRICS, "tv", first_call_fails)
        base_config(tmp_path, estimators=["ibu"], replications=10)
        cfg = ExperimentConfig.from_dict(json.loads((tmp_path / "config.json").read_text()))
        result = experiment.run_experiment(cfg)
        assert (result["failures"], result["runs"]) == (1, 10)
        with open(result["raw"]) as fh:
            statuses = [(r["replication"], r["metric"], r["status"]) for r in csv.DictReader(fh)]
        assert statuses[:2] == [("0", "emd", "ok"), ("0", "tv", "error:SolverNonConvergenceError")]
        assert all(s == "ok" for _, _, s in statuses[2:])

    def test_planar_experiment_end_to_end(self, tmp_path):
        cfg = base_config(
            tmp_path,
            dataset={"kind": "synthetic", "family": "uniform",
                     "subset": [[0.5, 0.5], [1.5, 1.5], [2.5, 0.5]], "n": 300},
            alphabet={"kind": "planar", "nx": 3, "ny": 2, "cell_km": 1.0},
            mechanism={"name": "planar-geometric", "eps": [1.5]},
            estimators=["ibu", "inv-p"],
            replications=2,
            metrics=["emd", "tv"],
        )
        assert main(["experiment", "--config", cfg]) == 0
        with open(tmp_path / "results_raw.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["status"] == "ok"]
        assert len(rows) == 8  # 2 estimators x 2 replications x 2 metrics
        emds = [float(r["value"]) for r in rows if r["metric"] == "emd"]
        assert all(0.0 <= v < 3.0 for v in emds)


# one spec of each alphabet kind, all of size 4, for datasets of explicit probabilities
ALPHABETS = {
    "linear": {"kind": "linear", "lo": 0, "hi": 3},
    "planar": {"kind": "planar", "nx": 2, "ny": 2, "cell_km": 1.0},
    "categorical": {"kind": "categorical", "labels": ["a", "b", "c", "d"]},
}


def grid_config(tmp_path, name, kind, estimators) -> dict:
    """A tiny run of one config mechanism on one alphabet kind."""
    return {
        "dataset": {"kind": "synthetic", "family": "explicit", "probs": [0.4, 0.3, 0.2, 0.1], "n": 120},
        "alphabet": ALPHABETS[kind],
        "mechanism": {"name": name, "eps": [1.0]},
        "estimators": estimators,
        "replications": 2,
        "master_seed": 424242,
        "metrics": ["emd", "tv", "l2sq"],
        "out": str(tmp_path / "results"),
    }


class TestMechanismTable:
    @pytest.mark.parametrize("name", MECHANISMS)
    def test_every_mechanism_runs_end_to_end(self, tmp_path, name):
        kind = "planar" if name.startswith("planar-") else "linear"
        applies = []
        for est in ESTIMATORS:
            try:
                ExperimentConfig.from_dict(grid_config(tmp_path, name, kind, [est]))
                applies.append(est)
            except ConfigError:  # e.g. rappor-decode off rappor
                pass
        cfg = write_json(tmp_path / "config.json", grid_config(tmp_path, name, kind, applies))
        assert main(["experiment", "--config", cfg]) == 0
        with open(tmp_path / "results_raw.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {(r["estimator"], r["metric"]) for r in rows} == {
            (est, metric) for est in applies for metric in ("emd", "tv", "l2sq")
        }
        assert len(rows) == 2 * 3 * len(applies)
        assert all(r["status"] == "ok" for r in rows)
        assert all(0.0 <= float(r["value"]) < math.inf for r in rows if r["metric"] == "emd")
        with open(tmp_path / "results_summary.csv") as fh:
            cells = {(float(r["eps"]), r["estimator"], r["metric"]) for r in csv.DictReader(fh)}
        assert cells == {(1.0, est, metric) for est in applies for metric in ("emd", "tv", "l2sq")}

    @pytest.mark.parametrize("name, kind", [
        ("geometric", "planar"), ("geometric", "categorical"),
        ("geometric-linear", "planar"), ("geometric-linear", "categorical"),
        ("laplace", "planar"), ("laplace", "categorical"),
        ("exponential", "categorical"),
        ("planar-geometric", "linear"), ("planar-geometric", "categorical"),
        ("planar-laplace", "linear"), ("planar-laplace", "categorical"),
    ])
    def test_wrong_alphabet_kind_exits_3(self, tmp_path, capsys, name, kind):
        cfg = write_json(tmp_path / "config.json", grid_config(tmp_path, name, kind, ["ibu"]))
        assert main(["experiment", "--config", cfg]) == 3
        assert f"the {name} mechanism needs a" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["experiment", "obfuscate"])
    def test_wrong_alphabet_kind_exits_3_before_reading_data(self, tmp_path, capsys, command):
        # the check-ins file does not exist: the config is refused before it is looked for
        cfg = base_config(tmp_path, dataset={"kind": "checkins", "path": str(tmp_path / "missing.csv"),
                                             "bbox": CHECKIN_BBOX},
                          alphabet={"kind": "planar", "bbox": CHECKIN_BBOX, "cell_km": 0.5},
                          mechanism={"name": "geometric", "eps": [1.0]})
        assert main([command, "--config", cfg]) == 3
        assert "the geometric mechanism needs a linear alphabet" in capsys.readouterr().err

    def test_unknown_alphabet_kind_is_a_config_error(self, tmp_path):
        cfg = grid_config(tmp_path, "krr", "linear", ["ibu"])
        cfg["alphabet"] = {"kind": "hexagonal"}
        with pytest.raises(ConfigError, match="unknown alphabet kind 'hexagonal'"):
            ExperimentConfig.from_dict(cfg)

    def test_emd_on_a_categorical_alphabet_exits_3_before_reading_data(self, tmp_path, capsys,
                                                                        monkeypatch):
        def read(*args):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(experiment, "load_dataset", read)
        cfg = grid_config(tmp_path, "krr", "categorical", ["ibu"])
        cfg["metrics"] = ["tv", "emd"]
        assert main(["experiment", "--config", write_json(tmp_path / "config.json", cfg)]) == 3
        assert "the emd metric needs a linear or planar alphabet" in capsys.readouterr().err
        assert not (tmp_path / "results_raw.csv").exists()

    def test_unknown_metric_is_a_config_error(self, tmp_path):
        cfg = grid_config(tmp_path, "krr", "linear", ["ibu"])
        cfg["metrics"] = ["emd", "wasserstein"]
        with pytest.raises(ConfigError, match="wasserstein"):
            ExperimentConfig.from_dict(cfg)


class TestAnalyzeAndReduce:
    def test_analyze_flat_likelihood(self, tmp_path, capsys):
        mech_dict = {
            "mechanism": "custom", "finite": True,
            "alphabet": {"kind": "categorical", "labels": ["1", "2", "3"]},
            "outputs": ["1", "2", "3"],
            "matrix": [[0.10, 0.45, 0.45], [0.45, 0.10, 0.45], [0.45, 0.45, 0.10]],
            "distance_monotone": False, "params": {},
        }
        mech_path = write_json(tmp_path / "m.json", mech_dict)
        obs_path = write_json(tmp_path / "o.json", {"reports": {"2": 1}, "n": 1})
        report_path = tmp_path / "report.json"
        assert main(["analyze", "--mechanism", mech_path, "--observations", obs_path,
                     "--out", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "not strictly concave" in out
        report = json.loads(report_path.read_text())
        w = np.array(report["concavity"]["witness"])
        np.testing.assert_allclose(w / w[0], [1.0, 0.0, -1.0], atol=1e-9)
        assert report["identification"] is True

    def test_analyze_krr_prints_bound(self, tmp_path, capsys):
        cfg = base_config(tmp_path, mechanism={"name": "krr", "eps": [2.0]})
        obs = tmp_path / "obs.json"
        mech = tmp_path / "mech.json"
        main(["obfuscate", "--config", cfg, "--out", str(obs), "--mech-out", str(mech)])
        assert main(["analyze", "--mechanism", str(mech), "--observations", str(obs)]) == 0
        out = capsys.readouterr().out
        assert "identification: yes" in out
        assert "inv_error_upper_bound" in out

    def test_analyze_non_identifying_planar(self, tmp_path, capsys):
        inp = PlanarAlphabet.grid(5, 5, 1.0)
        out_grid = PlanarAlphabet.grid(4, 4, 1.0)
        mech = build_geometric_planar(inp, out_grid, 0.5)
        mech_path = write_json(tmp_path / "m.json", mechanism_to_json(mech))
        obs_path = write_json(
            tmp_path / "o.json", reports_to_json(ObservationSet({mech.outputs[5]: 10}))
        )
        assert main(["analyze", "--mechanism", mech_path, "--observations", obs_path]) == 0
        assert "identification: no" in capsys.readouterr().out

    @pytest.mark.parametrize("mechanism", [
        {"mechanism": "rappor", "finite": False, "alphabet": {"kind": "linear", "values": [0, 1]},
         "params": {"eps_ldp": 1.0}},
        {"mechanism": "custom", "finite": True, "alphabet": {"kind": "linear", "values": [1, 2]},
         "outputs": ["a", "b"], "matrix": [[0.5, 0.5], [0.25, 0.75]], "params": {}},
    ], ids=["rappor", "custom-finite"])
    def test_no_likely_subset_construction_exits_3(self, tmp_path, mechanism):
        mech = write_json(tmp_path / "mech.json", mechanism)
        reports = {"[0, 1]": 2, "[1, 1]": 1} if mechanism["mechanism"] == "rappor" else {"a": 2, "b": 1}
        obs = write_json(tmp_path / "obs.json", {"reports": reports, "n": 3})
        artifacts = ["--mechanism", mech, "--observations", obs]
        assert main(["reduce", *artifacts, "--out", str(tmp_path / "subset.json")]) == 3

    @pytest.mark.parametrize("mech, report, bad", [
        (build_geometric_truncated(0, 9, 0.5), "3", "x"),
        (build_geometric_planar(PlanarAlphabet.grid(4, 3, 1.0), PlanarAlphabet.grid(4, 3, 1.0), 1.0),
         "[0.5, 0.5]", "x"),
        (build_geometric_linear(0.5), "3", "x"),
        (build_geometric_linear(0.5), "3", 1.5),
    ], ids=["line", "grid", "integer-line-x", "integer-line-1.5"])
    def test_report_the_mechanism_cannot_output_exits_1(self, tmp_path, capsys, mech, report, bad):
        # ``bad`` is no output of the mechanism: reduce and estimate refuse it
        # as analyze does, before any construction reads the reports
        mech_path = write_json(tmp_path / "mech.json", mechanism_to_json(mech))
        obs = write_json(tmp_path / "obs.json", {"reports": {report: 2, str(bad): 1}, "n": 3})
        artifacts = ["--mechanism", mech_path, "--observations", obs]
        commands = [["reduce", "--out", str(tmp_path / "subset.json")],
                    ["estimate", "--estimator", "ibu", "--out", str(tmp_path / "est.json")]]
        if isinstance(mech, FiniteMechanism):  # analyze exits 3 on the integer line
            commands.append(["analyze"])
        for argv in commands:
            assert main([argv[0], *artifacts, *argv[1:]]) == 1
            assert f"ObservationOutsideDomainError: {bad!r}" in capsys.readouterr().err
        assert not (tmp_path / "subset.json").exists() and not (tmp_path / "est.json").exists()

    def test_reduce_writes_subset(self, tmp_path):
        cfg = base_config(tmp_path, mechanism={"name": "geometric", "eps": [0.8]})
        obs = tmp_path / "obs.json"
        mech = tmp_path / "mech.json"
        main(["obfuscate", "--config", cfg, "--out", str(obs), "--mech-out", str(mech)])
        out = tmp_path / "subset.json"
        assert main(["reduce", "--mechanism", str(mech), "--observations", str(obs),
                     "--out", str(out)]) == 0
        subset = json.loads(out.read_text())
        assert subset["construction"] == "linear-interval"
        assert subset["members"]


GOOD_MECHANISM = {
    "mechanism": "custom", "finite": True,
    "alphabet": {"kind": "categorical", "labels": ["1", "2"]},
    "outputs": ["1", "2"], "matrix": [[0.5, 0.5], [0.25, 0.75]], "params": {},
}
GOOD_REPORTS = {"reports": {"1": 2, "2": 1}, "n": 3}
RAPPOR_ALPHABET = {"kind": "linear", "values": [0, 1]}


class TestMalformedInputFiles:
    """A mechanism or report file of the wrong shape exits 2 and names the file."""

    @pytest.mark.parametrize("reports", [
        [1, 2],
        {"n": 3},
        {"reports": {"1": 2, "2": 1}},
        {"reports": [["1", 3]], "n": 3},
        {"reports": {"1": 2, "2": 1}, "n": "3"},
        {"reports": {"1": 2, "2": 1}, "n": True},
        {"reports": {"1": 2.5, "2": 0.5}, "n": 3},
        {"reports": {"1": 2, "2": 1}, "n": 4},
        {"reports": {"1": 3, "2": 0}, "n": 3},
        {"reports": {"1": 2, "{\"a\": 1}": 1}, "n": 3},
        {"reports": {"1": 2, "[[1]]": 1}, "n": 3},
        "not json",
        {"reports": None, "n": 3},
        {"reports": {"1": 2, "2": 1}, "n": None},
        {"reports": {"1": 2, "2": None}, "n": 3},
    ], ids=["list", "no-reports", "no-n", "reports-list", "n-string", "n-bool", "float-counts",
            "n-disagrees", "zero-count", "key-object", "key-nested-list", "not-json",
            "reports-null", "n-null", "count-null"])
    def test_report_file(self, tmp_path, capsys, reports):
        mech = write_json(tmp_path / "mech.json", GOOD_MECHANISM)
        obs = tmp_path / "bad-reports.json"
        obs.write_text(reports if isinstance(reports, str) else json.dumps(reports))
        assert main(["analyze", "--mechanism", mech, "--observations", str(obs)]) == 2
        assert str(obs) in capsys.readouterr().err

    @pytest.mark.parametrize("mechanism", [
        [1],
        {key: v for key, v in GOOD_MECHANISM.items() if key != "alphabet"},
        {key: v for key, v in GOOD_MECHANISM.items() if key != "matrix"},
        {"mechanism": "rappor", "finite": False, "alphabet": RAPPOR_ALPHABET},
        {"mechanism": "rappor", "finite": False, "alphabet": RAPPOR_ALPHABET, "params": {}},
        {"mechanism": "rappor", "finite": False, "params": {"eps_ldp": 1.0}},
        {"mechanism": "geometric-linear", "finite": False, "params": {}},
        {"mechanism": "geometric-linear", "finite": False, "params": [1.0]},
        {**GOOD_MECHANISM, "alphabet": {"kind": "categorical"}},
        {"mechanism": "rappor", "finite": False, "alphabet": {"kind": "linear"},
         "params": {"eps_ldp": 1.0}},
        {**GOOD_MECHANISM, "alphabet": {"kind": "planar", "centers": [[0.5, 0.5], [1.5, 0.5]]}},
        {**GOOD_MECHANISM, "alphabet": ["1", "2"]},
        {"mechanism": ["rappor"], "finite": False, "alphabet": RAPPOR_ALPHABET,
         "params": {"eps_ldp": 1.0}},
        {"mechanism": "hexagonal-laplace", "finite": False, "params": {"eps": 1.0}},
        {**GOOD_MECHANISM, "alphabet": {"kind": "hexagonal", "values": ["1", "2"]}},
        {**GOOD_MECHANISM, "matrix": [[0.5, 0.5], [0.25, 0.5]]},
        {**GOOD_MECHANISM, "matrix": [[0.5, 0.5]]},
        {"mechanism": "rappor", "finite": False, "alphabet": RAPPOR_ALPHABET,
         "params": {"eps_ldp": -1.0}},
        "{",
        {**GOOD_MECHANISM, "mechanism": ["krr"]},
        {"mechanism": "rappor", "finite": False, "alphabet": RAPPOR_ALPHABET, "params": None},
        {**GOOD_MECHANISM, "alphabet": None},
        {**GOOD_MECHANISM, "alphabet": {"kind": "linear", "values": [0.9, 1.2]}},
        {**GOOD_MECHANISM, "alphabet": {"kind": "linear", "values": [0, 2.5]}},
        {**GOOD_MECHANISM, "outputs": [None, "2"]},
    ], ids=["list", "finite-no-alphabet", "finite-no-matrix", "rappor-no-params",
            "rappor-no-eps", "rappor-no-alphabet", "line-no-eps", "line-params-list",
            "alphabet-no-labels", "alphabet-no-values", "alphabet-no-width", "alphabet-list",
            "kind-list", "kind-unknown", "alphabet-kind-unknown", "rows-not-stochastic",
            "matrix-shape", "eps-negative", "not-json", "finite-kind-list", "params-null",
            "alphabet-null", "linear-fractions", "linear-half", "output-null"])
    def test_mechanism_file(self, tmp_path, capsys, mechanism):
        mech = tmp_path / "bad-mechanism.json"
        mech.write_text(mechanism if isinstance(mechanism, str) else json.dumps(mechanism))
        obs = write_json(tmp_path / "reports.json", GOOD_REPORTS)
        assert main(["analyze", "--mechanism", str(mech), "--observations", obs]) == 2
        assert str(mech) in capsys.readouterr().err

    def test_well_formed_files_still_load(self, tmp_path):
        mech = write_json(tmp_path / "mech.json", GOOD_MECHANISM)
        obs = write_json(tmp_path / "reports.json", GOOD_REPORTS)
        assert main(["analyze", "--mechanism", mech, "--observations", obs]) == 0


RAPPOR3 = {"mechanism": "rappor", "finite": False, "alphabet": {"kind": "linear", "values": [0, 1, 2]},
           "params": {"eps_ldp": 1.0}}


class TestRapporReportFiles:
    """RAPPOR report files are read straight into the bit matrix a draw
    makes; a key that is not a bit vector of the alphabet's length exits 2
    and names the file."""

    def test_round_trip_at_k70_is_byte_identical(self, tmp_path):
        # 70 bits: two 64-bit words, and a width that is not a multiple of 8
        cfg = base_config(tmp_path, dataset={"kind": "synthetic", "family": "binomial", "k": 70,
                                             "p": 0.4, "n": 3000},
                          alphabet={"kind": "linear", "lo": 0, "hi": 69},
                          mechanism={"name": "rappor", "eps": [4.0]}, estimators=["rappor-decode"])
        out, mech_out = tmp_path / "obs.json", tmp_path / "mech.json"
        assert main(["obfuscate", "--config", cfg, "--out", str(out), "--mech-out", str(mech_out)]) == 0
        mech = build_mechanism("rappor", build_alphabet({"kind": "linear", "lo": 0, "hi": 69}), 4.0)
        read = reports_from_json(json.loads(out.read_text()), mech)
        data = load_dataset(ExperimentConfig.from_dict(json.loads(open(cfg).read())).dataset,
                            mech.input_alphabet, 424242)
        drawn = obfuscate_dataset(mech, data.values, derive_rng(424242, 1, 0))
        assert isinstance(read.reports, np.ndarray) and not read.reports.flags.writeable
        np.testing.assert_array_equal(read.reports, drawn.reports)
        np.testing.assert_array_equal(read.count_array, drawn.count_array)
        rewritten = tmp_path / "again.json"
        rewritten.write_text(json.dumps(reports_to_json(read), indent=2, sort_keys=True) + "\n")
        assert rewritten.read_bytes() == out.read_bytes()
        assert main(["analyze", "--mechanism", str(mech_out), "--observations", str(out)]) == 0
        assert main(["estimate", "--mechanism", str(mech_out), "--observations", str(out),
                     "--estimator", "rappor-decode", "--out", str(tmp_path / "decode.json")]) == 0

    @pytest.mark.parametrize("k", [3, 8, 70])
    def test_written_keys_are_the_json_of_each_report(self, k):
        mech = build_mechanism("rappor", build_alphabet({"kind": "linear", "lo": 0, "hi": k - 1}), 1.0)
        obs = obfuscate_dataset(mech, list(range(k)) * 20, np.random.default_rng(k))
        assert isinstance(obs.reports, np.ndarray)
        expect = {json.dumps(list(report)): count for report, count in obs.items()}
        assert reports_to_json(obs) == {"reports": expect, "n": obs.n}

    def test_keys_in_other_spellings_read_as_the_same_reports(self):
        canonical = {"[1, 0, 0]": 2, "[0, 1, 1]": 1}
        spelled = {"[1,0,0]": 2, " [0, 1,1 ] ": 1}
        mech = build_mechanism("rappor", build_alphabet({"kind": "linear", "lo": 0, "hi": 2}), 1.0)
        a = reports_from_json({"reports": canonical, "n": 3}, mech)
        b = reports_from_json({"reports": spelled, "n": 3}, mech)
        assert a.items() == b.items() == [((0, 1, 1), 1), ((1, 0, 0), 2)]
        np.testing.assert_array_equal(a.reports, b.reports)

    @pytest.mark.parametrize("key, error", [
        ("[true, false, false]", "ObservationOutsideDomainError"),
        ("[1, 0, false]", "ObservationOutsideDomainError"),
        ("[1.0, 0, 0]", "ObservationOutsideDomainError"),
        ("[2, 0, 0]", "ObservationOutsideDomainError"),
        ("[null, 0, 0]", "ObservationOutsideDomainError"),
        ("[1, 0]", "LengthMismatchError"),
        ("[1, 0, 0, 1]", "LengthMismatchError"),
        ("abc", "LengthMismatchError"),
        ("[[1], 0, 0]", "is not a value a mechanism can output"),
        ("[0,1,0]", "the same report"),
    ], ids=["bools", "one-bool", "float", "two", "null", "short", "long", "label", "nested",
            "same-report"])
    def test_malformed_key(self, tmp_path, capsys, key, error):
        mech = write_json(tmp_path / "mech.json", RAPPOR3)
        obs = write_json(tmp_path / "bad-reports.json", {"reports": {key: 2, "[0, 1, 0]": 1}, "n": 3})
        for command in (["analyze"], ["estimate", "--estimator", "rappor-decode",
                                      "--out", str(tmp_path / "est.json")]):
            assert main([*command, "--mechanism", mech, "--observations", obs]) == 2
            err = capsys.readouterr().err
            assert obs in err and error in err


def raw_without_runtime(path) -> list:
    with open(path) as fh:
        return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in csv.DictReader(fh)]


class TestOverrideFlags:
    """--seed, --eps and --replications write what a config holding those values writes."""

    def test_experiment_flags_match_config(self, tmp_path):
        flagged, configured = tmp_path / "flagged", tmp_path / "configured"
        flagged.mkdir()
        configured.mkdir()
        cfg = base_config(flagged)
        assert main(["experiment", "--config", cfg, "--seed", "7", "--eps", "0.5,1.5",
                     "--replications", "3", "--out", str(flagged / "results")]) == 0
        cfg = base_config(configured, master_seed=7, replications=3,
                          mechanism={"name": "krr", "eps": [0.5, 1.5]})
        assert main(["experiment", "--config", cfg]) == 0
        assert (raw_without_runtime(flagged / "results_raw.csv")
                == raw_without_runtime(configured / "results_raw.csv"))
        assert ((flagged / "results_summary.csv").read_bytes()
                == (configured / "results_summary.csv").read_bytes())
        assert {row["eps"] for row in raw_without_runtime(flagged / "results_raw.csv")} == {"0.5", "1.5"}

    def test_obfuscate_flags_match_config(self, tmp_path):
        files = {}
        for name, overrides, flags in (
            ("flagged", {}, ["--seed", "7", "--eps", "0.5,3.0"]),
            ("configured", {"master_seed": 7, "mechanism": {"name": "krr", "eps": [0.5]}}, []),
        ):
            (tmp_path / name).mkdir()
            cfg = base_config(tmp_path / name, **overrides)
            obs, mech = tmp_path / name / "obs.json", tmp_path / name / "mech.json"
            assert main(["obfuscate", "--config", cfg, *flags, "--out", str(obs),
                         "--mech-out", str(mech)]) == 0
            files[name] = obs.read_bytes(), mech.read_bytes()
        assert files["flagged"] == files["configured"]
        assert json.loads(files["flagged"][1])["params"] == {"eps_ldp": 0.5}


def test_obfuscate_names_the_eps_it_drew_at(tmp_path, capsys):
    cfg = base_config(tmp_path)
    out = tmp_path / "obs.json"
    assert main(["obfuscate", "--config", cfg, "--eps", "0.5,3.0", "--out", str(out)]) == 0
    said = capsys.readouterr()
    assert said.out.startswith("wrote 400 reports (") and said.out.endswith(f") to {out}\n")
    assert said.err == "drew at eps 0.5, the first of 2 grid values; 1 not drawn\n"
    assert main(["obfuscate", "--config", cfg, "--eps", "0.5", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


CHECKIN_BBOX = [40.70, 40.72, -74.02, -74.00]


def checkins_config(tmp_path) -> str:
    """A check-ins CSV inside CHECKIN_BBOX (a 3 x 4 grid of 0.5 km cells),
    with one malformed row and one row outside the bbox, and its config."""
    rng = np.random.default_rng(11)
    lat, lon = rng.uniform(40.701, 40.719, 300), rng.uniform(-74.019, -74.001, 300)
    rows = [f"{a:.5f},{b:.5f}" for a, b in zip(lat, lon)] + ["40.71,west", "40.80,-74.01"]
    path = tmp_path / "checkins.csv"
    path.write_text("lat,lon\n" + "\n".join(rows) + "\n")
    return base_config(tmp_path, dataset={"kind": "checkins", "path": str(path), "bbox": CHECKIN_BBOX},
                       alphabet={"kind": "planar", "bbox": CHECKIN_BBOX, "cell_km": 0.5},
                       mechanism={"name": "planar-geometric", "eps": [1.0]},
                       estimators=["ibu", "inv-p"])


class TestCheckins:
    def test_obfuscate_draws_the_loaded_cells(self, tmp_path):
        cfg = checkins_config(tmp_path)
        obs = tmp_path / "obs.json"
        assert main(["obfuscate", "--config", cfg, "--out", str(obs)]) == 0
        config = ExperimentConfig.from_dict(json.loads(open(cfg).read()))
        grid = build_alphabet(config.alphabet)
        assert isinstance(grid, PlanarAlphabet) and (grid.nx, grid.ny) == (3, 4)
        data = load_dataset(config.dataset, grid, config.master_seed)
        assert len(data.values) == 300 and data.n_malformed == 1 and data.n_out_of_range == 1
        mech = build_mechanism("planar-geometric", grid, 1.0)
        drawn = obfuscate_dataset(mech, data.values, derive_rng(config.master_seed, 1, 0))
        assert json.loads(obs.read_text()) == reports_to_json(drawn)

    def test_experiment_writes_both_files(self, tmp_path):
        assert main(["experiment", "--config", checkins_config(tmp_path)]) == 0
        raw = raw_without_runtime(tmp_path / "results_raw.csv")
        assert len(raw) == 2 * 2 * 2 and {row["status"] for row in raw} == {"ok"}
        with open(tmp_path / "results_summary.csv") as fh:
            summary = list(csv.DictReader(fh))
        assert {(row["estimator"], row["metric"], row["count"]) for row in summary} == {
            (est, metric, "2") for est in ("ibu", "inv-p") for metric in ("emd", "tv")}


class TestAnalyzeBranches:
    def _artifacts(self, tmp_path, **overrides):
        cfg = base_config(tmp_path, **overrides)
        obs, mech = tmp_path / "obs.json", tmp_path / "mech.json"
        assert main(["obfuscate", "--config", cfg, "--out", str(obs), "--mech-out", str(mech)]) == 0
        return ["--mechanism", str(mech), "--observations", str(obs)]

    def test_truncated_geometric_below_ln2_prints_lower_bound(self, tmp_path, capsys):
        artifacts = self._artifacts(tmp_path, mechanism={"name": "geometric", "eps": [0.5]})
        capsys.readouterr()
        report = tmp_path / "report.json"
        assert main(["analyze", *artifacts, "--out", str(report)]) == 0
        bound = inv_geometric_error_lower_bound(0.5, 400)
        assert json.loads(report.read_text())["inv_error_lower_bound"] == bound
        assert capsys.readouterr().out.splitlines() == [
            "strictly concave", "identification: yes", f"inv_error_lower_bound: {bound:.6g}"]

    @pytest.mark.parametrize("mech", [build_geometric_truncated(0, 3, 0.5),
                                      build_krr(LinearAlphabet.range(0, 3), 1.0)],
                             ids=["geometric-truncated", "krr"])
    def test_file_without_eps_prints_no_bound(self, tmp_path, capsys, mech):
        mech_path = write_json(tmp_path / "mech.json", {**mechanism_to_json(mech), "params": {}})
        obs_path = write_json(tmp_path / "obs.json", {"reports": {"0": 3, "2": 1}, "n": 4})
        report = tmp_path / "report.json"
        assert main(["analyze", "--mechanism", mech_path, "--observations", obs_path,
                     "--out", str(report)]) == 0
        assert set(json.loads(report.read_text())) == {"concavity", "identification"}
        assert "bound" not in capsys.readouterr().out

    def test_rappor_with_fewer_reports_than_bits_prints_no_bound(self, tmp_path, capsys):
        artifacts = self._artifacts(
            tmp_path, dataset={"kind": "synthetic", "family": "binomial", "k": 8, "p": 0.4, "n": 5},
            alphabet={"kind": "linear", "lo": 0, "hi": 7}, mechanism={"name": "rappor", "eps": [2.0]},
            estimators=["rappor-decode"])
        capsys.readouterr()
        report = tmp_path / "report.json"
        assert main(["analyze", *artifacts, "--out", str(report)]) == 0
        assert set(json.loads(report.read_text())) == {"concavity"}
        assert capsys.readouterr().out == "not strictly concave\n"

    def test_integer_line_exits_3(self, tmp_path, capsys):
        artifacts = self._artifacts(tmp_path, mechanism={"name": "geometric-linear", "eps": [1.0]},
                                    estimators=["ibu"])
        capsys.readouterr()
        report = tmp_path / "report.json"
        assert main(["analyze", *artifacts, "--out", str(report)]) == 3
        assert capsys.readouterr().err == ("IncompatibleEstimatorError: analyze needs a finite "
                                           "mechanism; reduce the alphabet first\n")
        assert not report.exists()


def test_inversion_of_a_singular_mechanism_exits_1(tmp_path, capsys):
    mech = write_json(tmp_path / "mech.json", {**GOOD_MECHANISM, "matrix": [[0.5, 0.5], [0.5, 0.5]]})
    obs = write_json(tmp_path / "obs.json", GOOD_REPORTS)
    out = tmp_path / "est.json"
    assert main(["estimate", "--mechanism", mech, "--observations", obs, "--estimator", "inv-p",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("estimation failed: SingularMechanismError: ") and not out.exists()


@pytest.mark.parametrize("eps", [0.0, 2.0, math.inf])
def test_krr_file_reduces_to_the_observed_labels(tmp_path, eps):
    mech = build_mechanism("krr", build_alphabet({"kind": "categorical", "labels": ["c", "a", "b"]}), eps)
    mech_path = write_json(tmp_path / "mech.json", mechanism_to_json(mech))
    obs = write_json(tmp_path / "obs.json", {"reports": {"b": 2, "c": 1}, "n": 3})
    out = tmp_path / "subset.json"
    assert main(["reduce", "--mechanism", mech_path, "--observations", obs, "--out", str(out)]) == 0
    subset = json.loads(out.read_text())
    assert subset["construction"] == "krr-observed" and subset["members"] == ["c", "b"]


def test_identity_file_reduces_to_the_observed_labels(tmp_path):
    mech = build_mechanism("identity", build_alphabet({"kind": "categorical", "labels": ["c", "a", "b"]}),
                           0.0)
    mech_path = write_json(tmp_path / "mech.json", mechanism_to_json(mech))
    obs = write_json(tmp_path / "obs.json", {"reports": {"b": 2, "c": 1}, "n": 3})
    out = tmp_path / "subset.json"
    assert main(["reduce", "--mechanism", mech_path, "--observations", obs, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["construction"] == "krr-observed"


def test_krr_file_of_another_matrix_gets_the_interval(tmp_path):
    alpha = build_alphabet({"kind": "linear", "lo": 0, "hi": 9})
    matrix = build_mechanism("exponential", alpha, 0.2).matrix
    mech = write_json(tmp_path / "mech.json", {
        "mechanism": "krr", "finite": True, "alphabet": {"kind": "linear", "values": list(range(10))},
        "outputs": list(range(10)), "matrix": matrix.tolist(), "params": {}})
    obs = write_json(tmp_path / "obs.json", {"reports": {"3": 10, "5": 10}, "n": 20})
    inputs = ["--mechanism", mech, "--observations", obs]
    out = tmp_path / "subset.json"
    assert main(["reduce", *inputs, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["members"] == [3, 4, 5]
    est = tmp_path / "est.json"
    assert main(["estimate", *inputs, "--estimator", "ibu", "--tol", "1e-10",
                 "--out", str(est)]) == 0
    diagnostics = json.loads(est.read_text())["diagnostics"]
    assert diagnostics["converged"] and diagnostics["gap"] <= 1e-10


def test_integer_line_ibu_runs_on_the_likely_interval(tmp_path):
    # plain ibu on a geometric-linear file is the likely-subset technique:
    # the estimate of restrict_and_lift, over [floor(min z), ceil(max z)]
    mech = build_geometric_linear(0.5)
    data = [3] * 40 + [5] * 25 + [9] * 15
    obs = obfuscate_dataset(mech, data, derive_rng(11, 1, 0))
    mech_path = write_json(tmp_path / "mech.json", mechanism_to_json(mech))
    obs_path = write_json(tmp_path / "obs.json", reports_to_json(obs))
    out = tmp_path / "est.json"
    assert main(["estimate", "--mechanism", mech_path, "--observations", obs_path,
                 "--estimator", "ibu", "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    expect = restrict_and_lift(mech, obs, likely_subset(mech, obs))
    interval = LinearAlphabet.range(math.floor(min(obs.reports)), math.ceil(max(obs.reports)))
    assert expect.alphabet.values == interval.values
    assert written["alphabet"] == {"kind": "linear", "values": list(interval.values)}
    assert written["probs"] == expect.probs.tolist()
    assert written["diagnostics"]["converged"]


def test_obfuscate_says_which_rows_it_skipped(tmp_path, capsys):
    rows = [str(17 + i % 74) for i in range(150)] + ["unknown", "120", "-3"]
    (tmp_path / "ages.csv").write_text("age\n" + "\n".join(rows) + "\n")
    cfg = base_config(tmp_path, dataset={"kind": "ages", "path": str(tmp_path / "ages.csv")},
                      alphabet={"kind": "linear", "lo": 0, "hi": 99},
                      mechanism={"name": "geometric", "eps": [0.5]}, estimators=["ibu"])
    out = tmp_path / "obs.json"
    assert main(["obfuscate", "--config", cfg, "--out", str(out)]) == 0
    distinct = len(json.loads(out.read_text())["reports"])
    assert capsys.readouterr().out == (f"wrote 150 reports ({distinct} distinct) to {out}; "
                                       "skipped 1 malformed and 2 out-of-range rows\n")
    assert sum(json.loads(out.read_text())["reports"].values()) == 150
    again = tmp_path / "again.json"
    assert main(["obfuscate", "--config", cfg, "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


# Round trips through the files the CLI writes: one config each, and the
# subcommands run on its files in order, each with the exit code it must
# give and, where there is one, a check of what it wrote or printed.

LABELS = ["true", "false", "null", "1e3", "10", "2"]  # each also reads as a JSON value


def round_trip_config(dataset, alphabet, mechanism, estimators, **more) -> dict:
    return {"dataset": dataset, "alphabet": alphabet, "mechanism": mechanism,
            "estimators": estimators, "replications": 1, "master_seed": 7, "out": "results", **more}


def checkins_round_trip_config(d) -> dict:
    """501 lat/lon rows about a point inside the bbox, one of them malformed,
    on a planar grid built from the same bbox."""
    rng = random.Random(7)
    rows = [f"{rng.gauss(40.725, 0.006):.5f},{rng.gauss(-73.995, 0.006):.5f}" for _ in range(500)]
    rows.insert(250, "40.72,east")
    (d / "checkins.csv").write_text("lat,lon\n" + "\n".join(rows) + "\n")
    bbox = [40.70, 40.75, -74.02, -73.97]
    return {"dataset": {"kind": "checkins", "path": str(d / "checkins.csv"), "bbox": bbox},
            "alphabet": {"kind": "planar", "bbox": bbox, "cell_km": 0.5},
            "mechanism": {"name": "planar-geometric", "eps": [1.0]}, "estimators": ["ibu", "inv-p"],
            "replications": 2, "master_seed": 7, "out": str(d / "sweep")}


def written(d, name) -> dict:
    return json.loads((d / name).read_text())


def converged(name, iterations=None):
    def check(d, said):
        diagnostics = written(d, name)["diagnostics"]
        return diagnostics["converged"] and iterations in (None, diagnostics["iterations"])
    return check


def construction(name):
    return lambda d, said: written(d, "subset.json")["construction"] == name


def reads_back_the_labels(d, said):
    mech = mechanism_from_json(written(d, "mech.json"))
    return set(reports_from_json(written(d, "obs.json"), mech).reports) == set(LABELS)


def swept(d, said):
    return (said.endswith("(4 runs, 0 failures)\n")
            and all((d / f"sweep_{part}.csv").stat().st_size > 0 for part in ("raw", "summary")))


ROUND_TRIPS = {
    # The k-RR start is the exact maximizer, found from the matrix the
    # mechanism file carries, so ibu passes its first gap test.
    # EMD needs a metric alphabet, so the sweep scores by total variation.
    "krr-labels": (lambda d: round_trip_config(
        {"kind": "synthetic", "family": "uniform", "n": 500, "subset": LABELS},
        {"kind": "categorical", "labels": LABELS},
        {"name": "krr", "eps": [2.0]}, ["ibu", "inv-p"], metrics=["tv"]), [
        ("obfuscate", 0, reads_back_the_labels),
        ("estimate --estimator ibu --out {d}/ibu.json", 0, converged("ibu.json", iterations=1)),
        ("estimate --estimator inv-p --out {d}/inv-p.json", 0, None),
        ("analyze", 0, None),
        ("reduce --out {d}/subset.json", 0, construction("krr-observed")),
        ("experiment --out {d}/sweep", 0, None),
    ]),
    # Planar cells and reports are tuples, which the files store as lists.
    "planar": (lambda d: round_trip_config(
        {"kind": "synthetic", "family": "uniform", "n": 400,
         "subset": [[0.5, 0.5], [1.5, 2.5], [3.5, 1.5], [5.5, 4.5]]},
        {"kind": "planar", "nx": 6, "ny": 5, "cell_km": 1.0},
        {"name": "planar-geometric", "eps": [1.0]}, ["ibu"]), [
        ("obfuscate", 0, None),
        ("estimate --estimator ibu --out {d}/ibu.json", 0, None),
        ("reduce --out {d}/subset.json", 0, None),
        ("analyze", 0, None),
    ]),
    # RAPPOR reports are drawn as one bit matrix, written as lists and read
    # back into the matrix.
    "rappor-k8": (lambda d: round_trip_config(
        {"kind": "synthetic", "family": "binomial", "k": 8, "p": 0.4, "n": 300},
        {"kind": "linear", "lo": 0, "hi": 7},
        {"name": "rappor", "eps": [2.0]}, ["rappor-decode", "ibu"]), [
        ("obfuscate", 0, None),
        ("estimate --estimator rappor-decode --out {d}/decode.json", 0, None),
        ("estimate --estimator ibu --out {d}/ibu.json", 0, None),
        ("analyze", 0, None),
    ]),
    # A geometric-linear mechanism file has no alphabet: IBU runs on a
    # likely subset, and the commands that need a finite alphabet exit 3.
    "integer-line": (lambda d: round_trip_config(
        {"kind": "synthetic", "family": "binomial", "k": 12, "p": 0.4, "n": 600},
        {"kind": "linear", "lo": 0, "hi": 11},
        {"name": "geometric-linear", "eps": [1.0]}, ["ibu"]), [
        ("obfuscate", 0, None),
        ("estimate --estimator ibu --out {d}/ibu.json", 0, converged("ibu.json")),
        ("reduce --out {d}/subset.json", 0, None),
        ("estimate --estimator ibu --out {d}/no-subset.json", 0, converged("no-subset.json")),
        ("analyze", 3, None),
    ]),
    "checkins": (checkins_round_trip_config, [
        ("obfuscate", 0, lambda d, said: said.endswith("; skipped 1 malformed and 0 out-of-range rows\n")),
        ("estimate --estimator ibu --out {d}/ibu.json", 0, converged("ibu.json")),
        ("reduce --out {d}/subset.json", 0, construction("planar-hull")),
        ("experiment", 0, swept),
    ]),
}


@pytest.mark.parametrize("name", ROUND_TRIPS)
def test_round_trip(tmp_path, capsys, name):
    make_config, steps = ROUND_TRIPS[name]
    cfg = write_json(tmp_path / "config.json", make_config(tmp_path))
    obs, mech = str(tmp_path / "obs.json"), str(tmp_path / "mech.json")
    inputs = {"obfuscate": ["--config", cfg, "--out", obs, "--mech-out", mech],
              "experiment": ["--config", cfg]}
    for step, code, check in steps:
        command, *args = step.split()
        argv = [command, *inputs.get(command, ["--mechanism", mech, "--observations", obs]),
                *(arg.format(d=tmp_path) for arg in args)]
        assert main(argv) == code, step
        said = capsys.readouterr().out
        assert check is None or check(tmp_path, said), f"{step}: {said}"
