"""Command-line surface: artifacts, determinism, exit codes."""

import csv
import functools
import json

import numpy as np
import pytest

from privdist import experiment
from privdist.cli import main
from privdist.core import ObservationSet, PlanarAlphabet
from privdist.mechanisms import build_geometric_planar

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
        obs = ObservationSet.from_dict(json.loads(out.read_text()))
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
        observed = ObservationSet.from_dict(json.loads((tmp_path / "obs.json").read_text()))
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
        mech_path = write_json(tmp_path / "mech.json", mech.to_dict())
        obs_path = write_json(
            tmp_path / "obs.json",
            ObservationSet({mech.outputs[0]: 3}).to_dict(),
        )
        code = main(["estimate", "--mechanism", mech_path, "--observations", obs_path,
                     "--estimator", "inv-n", "--out", str(tmp_path / "e.json")])
        assert code == 3

    def test_likely_subset_restricts_support(self, tmp_path):
        mech, obs = self._artifacts(tmp_path, mechanism="krr")
        out = tmp_path / "est.json"
        assert main(["estimate", "--mechanism", mech, "--observations", obs,
                     "--estimator", "ibu", "--likely-subset", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        observed = ObservationSet.from_dict(json.loads((tmp_path / "obs.json").read_text()))
        for v in range(6):
            if v not in observed.counts:
                assert payload["probs"][v] == 0.0


class TestExperiment:
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
        # two EM steps cannot certify the k-RR estimate, so every ibu row
        # says so while inversion rows stay ok
        monkeypatch.setattr(experiment, "ibu", functools.partial(experiment.ibu, max_iter=2))
        cfg = base_config(tmp_path, replications=1)
        assert main(["experiment", "--config", cfg]) == 0
        with open(tmp_path / "results_raw.csv") as fh:
            statuses = {(r["estimator"], r["metric"]): r["status"] for r in csv.DictReader(fh)}
        assert statuses == {("ibu", "emd"): "unconverged", ("ibu", "tv"): "unconverged",
                            ("inv-p", "emd"): "ok", ("inv-p", "tv"): "ok"}

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
        mech_path = write_json(tmp_path / "m.json", mech.to_dict())
        obs_path = write_json(
            tmp_path / "o.json", ObservationSet({mech.outputs[5]: 10}).to_dict()
        )
        assert main(["analyze", "--mechanism", mech_path, "--observations", obs_path]) == 0
        assert "identification: no" in capsys.readouterr().out

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
