"""Replicated obfuscate-estimate experiments with CSV summaries.

Every replication r draws its reports from a generator seeded by
``SeedSequence([master_seed, 1, r])``; the dataset generator (when the data
are synthetic) is seeded by ``SeedSequence([master_seed, 0])``.  Given a
configuration and a master seed, every output byte is reproducible.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Alphabet,
    CategoricalAlphabet,
    Distribution,
    LinearAlphabet,
    Mechanism,
    PlanarAlphabet,
    obs_matrix,
    to_empirical,
)
from .dataio import (
    Binomial,
    Explicit,
    RawDataset,
    UniformOn,
    empirical_distribution,
    grid_for_bbox,
    load_ages,
    load_checkins,
    sample_synthetic,
)
from .errors import (
    ConfigError,
    FailureThresholdExceededError,
    IncompatibleEstimatorError,
    PrivDistError,
)
from .estimators import ibu, inv_normalize, inv_project, inv_raw, rappor_bit_counts, rappor_decode
from .mechanisms import (
    BitVectorMechanism,
    FiniteMechanism,
    build_exponential,
    build_geometric_linear,
    build_geometric_truncated,
    build_identity,
    build_krr,
    build_laplace_linear_discretized,
    build_laplace_planar_discretized,
    build_geometric_planar,
    build_rappor,
    obfuscate_dataset,
)
from .metrics import metric_value

ESTIMATORS = ("ibu", "inv-n", "inv-p", "rappor-decode")
MECHANISMS = (
    "identity", "krr", "rappor", "geometric", "geometric-linear",
    "laplace", "exponential", "planar-geometric", "planar-laplace",
)
FAILURE_THRESHOLD = 0.10


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Deterministic, machine-independent stream for (master_seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, path)]))


@dataclass
class ExperimentConfig:
    dataset: dict
    alphabet: dict
    mechanism: dict
    estimators: list
    replications: int
    master_seed: int
    metrics: list = field(default_factory=lambda: ["emd"])
    out: str = "results"

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        try:
            cfg = ExperimentConfig(
                dataset=dict(d["dataset"]),
                alphabet=dict(d["alphabet"]),
                mechanism=dict(d["mechanism"]),
                estimators=list(d["estimators"]),
                replications=int(d["replications"]),
                master_seed=int(d["master_seed"]),
                metrics=list(d.get("metrics", ["emd"])),
                out=str(d.get("out", "results")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment configuration: {exc}") from exc
        cfg.validate()
        return cfg

    def validate(self):
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        name = self.mechanism.get("name")
        if name not in MECHANISMS:
            raise ConfigError(f"unknown mechanism {name!r}; choose from {MECHANISMS}")
        for est in self.estimators:
            if est not in ESTIMATORS:
                raise ConfigError(f"unknown estimator {est!r}; choose from {ESTIMATORS}")
            if est == "rappor-decode" and name != "rappor":
                raise ConfigError("rappor-decode requires the rappor mechanism")
            if est in ("inv-n", "inv-p") and name in ("rappor", "geometric-linear"):
                raise ConfigError(f"{est} requires a square finite mechanism, not {name}")
        if not self.eps_grid() and name not in ("identity",):
            raise ConfigError("mechanism.eps must provide at least one value")

    def eps_grid(self) -> list:
        eps = self.mechanism.get("eps", [])
        if isinstance(eps, (int, float)):
            eps = [eps]
        return [float(e) for e in eps]


def build_alphabet(spec: dict) -> Alphabet:
    kind = spec.get("kind")
    if kind == "linear":
        return LinearAlphabet.range(int(spec["lo"]), int(spec["hi"]))
    if kind == "categorical":
        return CategoricalAlphabet(spec["labels"])
    if kind == "planar":
        if "bbox" in spec:
            return grid_for_bbox(tuple(spec["bbox"]), float(spec["cell_km"]))
        return PlanarAlphabet.grid(int(spec["nx"]), int(spec["ny"]), float(spec["cell_km"]))
    raise ConfigError(f"unknown alphabet kind {kind!r}")


def build_mechanism(name: str, alphabet: Alphabet, eps: float) -> Mechanism:
    if name == "identity":
        return build_identity(alphabet)
    if name == "krr":
        return build_krr(alphabet, eps)
    if name == "rappor":
        return build_rappor(alphabet, eps)
    if name == "geometric":
        if not isinstance(alphabet, LinearAlphabet) or not alphabet.is_contiguous:
            raise ConfigError("the truncated geometric mechanism needs a contiguous linear alphabet")
        return build_geometric_truncated(alphabet.values[0], alphabet.values[-1], eps)
    if name == "geometric-linear":
        return build_geometric_linear(eps)
    if name == "laplace":
        if not isinstance(alphabet, LinearAlphabet):
            raise ConfigError("the discretized Laplace mechanism needs a linear alphabet")
        return build_laplace_linear_discretized(alphabet, eps)
    if name == "exponential":
        if isinstance(alphabet, PlanarAlphabet):
            centers = alphabet.centers_array()
            diff = centers[:, None, :] - centers[None, :, :]
            metric = np.sqrt((diff ** 2).sum(axis=2))
        elif isinstance(alphabet, LinearAlphabet):
            vals = np.asarray(alphabet.values, dtype=float)
            metric = np.abs(vals[:, None] - vals[None, :])
        else:
            raise ConfigError("the exponential mechanism needs a linear or planar alphabet")
        return build_exponential(alphabet, metric, eps)
    if name == "planar-geometric":
        if not isinstance(alphabet, PlanarAlphabet):
            raise ConfigError("planar-geometric needs a planar alphabet")
        return build_geometric_planar(alphabet, alphabet, eps)
    if name == "planar-laplace":
        if not isinstance(alphabet, PlanarAlphabet):
            raise ConfigError("planar-laplace needs a planar alphabet")
        return build_laplace_planar_discretized(alphabet, eps)
    raise ConfigError(f"unknown mechanism {name!r}")


def load_dataset(spec: dict, alphabet: Alphabet, master_seed: int) -> RawDataset:
    kind = spec.get("kind")
    if kind == "synthetic":
        family = spec.get("family")
        n = int(spec.get("n", 0))
        rng = derive_rng(master_seed, 0)
        if family == "binomial":
            return sample_synthetic(Binomial(int(spec["k"]), float(spec["p"])), n, rng)
        if family == "uniform":
            subset = tuple(tuple(v) if isinstance(v, list) else v for v in spec["subset"])
            return sample_synthetic(UniformOn(subset), n, rng)
        if family == "explicit":
            dist = Distribution(alphabet, spec["probs"])
            return sample_synthetic(Explicit(dist), n, rng)
        raise ConfigError(f"unknown synthetic family {family!r}")
    if kind == "ages":
        if not isinstance(alphabet, LinearAlphabet):
            raise ConfigError("age datasets need a linear alphabet")
        lo, hi = alphabet.values[0], alphabet.values[-1]
        return load_ages(spec["path"], spec.get("column", "age"), lo=lo, hi=hi)
    if kind == "checkins":
        if not isinstance(alphabet, PlanarAlphabet):
            raise ConfigError("check-in datasets need a planar alphabet")
        return load_checkins(spec["path"], tuple(spec["bbox"]), alphabet)
    raise ConfigError(f"unknown dataset kind {kind!r}")


def run_estimator(name: str, mech: Mechanism, obs, alphabet: Alphabet) -> tuple:
    """Apply one estimator to an observation set.

    Returns the estimate and whether it converged; only ``ibu`` iterates,
    and it converges when its certified likelihood gap met the tolerance.
    """
    if name == "ibu":
        result = ibu(obs_matrix(mech, obs, alphabet=alphabet))
        return result.estimate, result.converged
    if name in ("inv-n", "inv-p"):
        if not isinstance(mech, FiniteMechanism) or not mech.is_square:
            raise IncompatibleEstimatorError(f"{name} requires a square finite mechanism")
        v = inv_raw(to_empirical(obs), mech)
        post = inv_normalize if name == "inv-n" else inv_project
        return post(v, alphabet), True
    if name == "rappor-decode":
        if not isinstance(mech, BitVectorMechanism):
            raise IncompatibleEstimatorError("rappor-decode requires the rappor mechanism")
        counts = rappor_bit_counts(obs, alphabet)
        return rappor_decode(counts, obs.n, alphabet, mech.eps_ldp, post="project"), True
    raise IncompatibleEstimatorError(f"unknown estimator {name!r}")


def _quantiles(values: list) -> dict:
    arr = np.asarray(values, dtype=float)
    return {
        "count": arr.size,
        "min": float(arr.min()),
        "q1": float(np.percentile(arr, 25)),
        "median": float(np.percentile(arr, 50)),
        "q3": float(np.percentile(arr, 75)),
        "max": float(arr.max()),
    }


def run_experiment(config: ExperimentConfig, out_prefix: str = None) -> dict:
    """Run the replicated sweep and write raw + summary CSV files.

    Returns a dict with the file paths and the failure count.  Raises
    FailureThresholdExceededError (after writing the files) when more than
    10% of the estimator runs failed.
    """
    alphabet = build_alphabet(config.alphabet)
    data = load_dataset(config.dataset, alphabet, config.master_seed)
    truth = empirical_distribution(alphabet, data.values)
    mech_name = config.mechanism["name"]
    eps_grid = config.eps_grid() or [0.0]

    out_prefix = out_prefix or config.out
    raw_path = f"{out_prefix}_raw.csv"
    summary_path = f"{out_prefix}_summary.csv"

    rows = []
    cells: dict = {}
    failures = 0
    runs = 0
    for eps in eps_grid:
        mech = build_mechanism(mech_name, alphabet, eps)
        for rep in range(config.replications):
            obs = obfuscate_dataset(mech, data.values, derive_rng(config.master_seed, 1, rep))
            for est in config.estimators:
                runs += 1
                start = time.perf_counter()
                try:
                    estimate, converged = run_estimator(est, mech, obs, alphabet)
                except PrivDistError as exc:
                    runtime_ms = 1000.0 * (time.perf_counter() - start)
                    failures += 1
                    rows.append([mech_name, eps, est, rep, "", "",
                                 f"{runtime_ms:.3f}", f"error:{type(exc).__name__}"])
                    continue
                runtime_ms = 1000.0 * (time.perf_counter() - start)
                status = "ok" if converged else "unconverged"
                for metric in config.metrics:
                    mv = metric_value(metric, estimate, truth)
                    rows.append([mech_name, eps, est, rep, metric,
                                 f"{mv.value:.10g}", f"{runtime_ms:.3f}", status])
                    cells.setdefault((mech_name, eps, est, metric), []).append(mv.value)

    with open(raw_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mechanism", "eps", "estimator", "replication",
                         "metric", "value", "runtime_ms", "status"])
        writer.writerows(rows)

    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mechanism", "eps", "estimator", "metric",
                         "count", "min", "q1", "median", "q3", "max"])
        for key in sorted(cells, key=lambda k: (k[1], k[2], k[3])):
            q = _quantiles(cells[key])
            writer.writerow([key[0], key[1], key[2], key[3], q["count"],
                             *(f"{q[s]:.10g}" for s in ("min", "q1", "median", "q3", "max"))])

    result = {"raw": raw_path, "summary": summary_path,
              "failures": failures, "runs": runs}
    if runs and failures > FAILURE_THRESHOLD * runs:
        raise FailureThresholdExceededError(
            f"{failures} of {runs} estimator runs failed (threshold {FAILURE_THRESHOLD:.0%}); "
            f"partial results in {raw_path}"
        )
    return result
