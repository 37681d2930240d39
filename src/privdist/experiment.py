"""Replicated obfuscate-estimate experiments with CSV summaries.

Every replication r draws its reports from a generator seeded by
``SeedSequence([master_seed, 1, r])``; the dataset generator (when the data
are synthetic) is seeded by ``SeedSequence([master_seed, 0])``.  Given a
configuration and a master seed, every output byte is reproducible.
"""

from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    INTEGER_LINE,
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
from .metrics import METRICS
from .reduction import ibu_on_subset, likely_subset

ESTIMATORS = ("ibu", "inv-n", "inv-p", "rappor-decode")
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
        kind = self.alphabet.get("kind")
        if kind not in _ALPHABETS:
            raise ConfigError(f"unknown alphabet kind {kind!r}")
        kinds = _BUILDERS[name][0]
        if not issubclass(_ALPHABETS[kind], kinds):
            needs = " or ".join(k.kind for k in kinds)
            raise ConfigError(f"the {name} mechanism needs a {needs} alphabet")
        for metric in self.metrics:
            if metric not in METRICS:
                raise ConfigError(f"unknown metric {metric!r}; choose from {tuple(METRICS)}")
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


def _tupled(v):
    """JSON has no tuples, so a tuple value (a planar cell, a RAPPOR report)
    is written as a list; this reads such a list back as the tuple."""
    return tuple(v) if isinstance(v, list) else v


_ALPHABETS = {a.kind: a for a in (LinearAlphabet, CategoricalAlphabet, PlanarAlphabet)}


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


def _distances(alphabet) -> np.ndarray:
    """Euclidean distances between the elements of a linear or planar alphabet."""
    points = np.array(alphabet.values, dtype=float).reshape(alphabet.size, -1)
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


# config name -> (the alphabet types it accepts, its builder from (alphabet, eps))
_BUILDERS = {
    "identity": ((Alphabet,), lambda a, eps: build_identity(a)),
    "krr": ((Alphabet,), build_krr),
    "rappor": ((Alphabet,), build_rappor),
    "geometric": ((LinearAlphabet,),
                  lambda a, eps: build_geometric_truncated(a.values[0], a.values[-1], eps)),
    "geometric-linear": ((LinearAlphabet,), lambda a, eps: build_geometric_linear(eps)),
    "laplace": ((LinearAlphabet,), build_laplace_linear_discretized),
    "exponential": ((LinearAlphabet, PlanarAlphabet),
                    lambda a, eps: build_exponential(a, _distances(a), eps)),
    "planar-geometric": ((PlanarAlphabet,), lambda a, eps: build_geometric_planar(a, a, eps)),
    "planar-laplace": ((PlanarAlphabet,), build_laplace_planar_discretized),
}
MECHANISMS = tuple(_BUILDERS)


def build_mechanism(name: str, alphabet: Alphabet, eps: float) -> Mechanism:
    """The config mechanism ``name`` on an alphabet that ``ExperimentConfig.validate`` accepts."""
    return _BUILDERS[name][1](alphabet, eps)


def load_dataset(spec: dict, alphabet: Alphabet, master_seed: int) -> RawDataset:
    kind = spec.get("kind")
    if kind == "synthetic":
        family = spec.get("family")
        n = int(spec.get("n", 0))
        rng = derive_rng(master_seed, 0)
        if family == "binomial":
            return sample_synthetic(Binomial(int(spec["k"]), float(spec["p"])), n, rng)
        if family == "uniform":
            return sample_synthetic(UniformOn(tuple(map(_tupled, spec["subset"]))), n, rng)
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


def run_estimator(name: str, mech: Mechanism, obs, alphabet: Alphabet, **ibu_options) -> tuple:
    """Apply one estimator to an observation set, over the rows ``alphabet``.

    Rows of INTEGER_LINE mean the whole integer line: ``ibu`` then runs on
    the likely subset [floor(min z), ceil(max z)], and the estimate is over
    that interval (zero outside it).  The other estimators refuse an
    integer-line mechanism (IncompatibleEstimatorError).
    Returns the estimate and, for ``ibu``, its IbuResult (None for the
    others).  ``ibu_options`` (``tol``, ``max_iter``) go to ``ibu`` as given.
    """
    if name == "ibu":
        if alphabet is INTEGER_LINE:
            result, _ = ibu_on_subset(mech, obs, likely_subset(mech, obs), **ibu_options)
        else:
            result = ibu(obs_matrix(mech, obs, alphabet=alphabet), **ibu_options)
        return result.estimate, result
    if name in ("inv-n", "inv-p"):
        if not isinstance(mech, FiniteMechanism) or not mech.is_square:
            raise IncompatibleEstimatorError(f"{name} requires a square finite mechanism")
        post = inv_normalize if name == "inv-n" else inv_project
        return post(_inverted(mech, obs), alphabet), None
    if not isinstance(mech, BitVectorMechanism):  # rappor-decode
        raise IncompatibleEstimatorError("rappor-decode requires the rappor mechanism")
    counts = rappor_bit_counts(obs, alphabet)
    return rappor_decode(counts, obs.n, alphabet, mech.eps_ldp, post="project"), None


@functools.lru_cache(maxsize=1)
def _inverted(mech: FiniteMechanism, obs) -> np.ndarray:
    """``inv_raw`` on the reports, kept for the last (mechanism, reports)
    pair, so that inv-n and inv-p on one replication share one solve.  Both
    are keyed by identity (neither defines equality) and held while cached,
    so no other pair can take their key."""
    v = inv_raw(to_empirical(obs), mech)
    v.flags.writeable = False
    return v


def _quantiles(values: list) -> list:
    """The count, min, q1, median, q3 and max of a summary row."""
    arr = np.asarray(values, dtype=float)
    return [arr.size, *(f"{q:.10g}" for q in np.percentile(arr, [0, 25, 50, 75, 100]))]


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the replicated sweep and write raw + summary CSV files.

    Returns a dict with the file paths and the failure count.  A run fails
    when its estimator or one of its metrics raises a PrivDistError; the
    failure is a row with status ``error:<Type>``.  Raises
    FailureThresholdExceededError (after writing the files) when more than
    10% of the estimator runs failed, and ConfigError before any data are
    read when a metric cannot score the alphabet (EMD on a categorical one).
    """
    alphabet = build_alphabet(config.alphabet)
    if "emd" in config.metrics and isinstance(alphabet, CategoricalAlphabet):
        raise ConfigError("the emd metric needs a linear or planar alphabet; "
                          "score a categorical one by tv or l2sq")
    data = load_dataset(config.dataset, alphabet, config.master_seed)
    truth = empirical_distribution(alphabet, data.values)
    mech_name = config.mechanism["name"]
    raw_path, summary_path = f"{config.out}_raw.csv", f"{config.out}_summary.csv"

    rows = []
    cells: dict = {}
    failures = runs = 0
    for eps in config.eps_grid() or [0.0]:
        mech = build_mechanism(mech_name, alphabet, eps)
        for rep in range(config.replications):
            obs = obfuscate_dataset(mech, data.values, derive_rng(config.master_seed, 1, rep))
            for est in config.estimators:
                runs += 1
                head = [mech_name, eps, est, rep]
                start = time.perf_counter()
                try:
                    estimate, result = run_estimator(est, mech, obs, alphabet)
                except PrivDistError as exc:
                    failures += 1
                    rows.append([*head, "", "", f"{1000.0 * (time.perf_counter() - start):.3f}",
                                 f"error:{type(exc).__name__}"])
                    continue
                runtime_ms = f"{1000.0 * (time.perf_counter() - start):.3f}"
                status = "unconverged" if result is not None and not result.converged else "ok"
                failed = False
                for metric in config.metrics:
                    try:
                        value = METRICS[metric](estimate, truth)
                    except PrivDistError as exc:
                        failed = True
                        rows.append([*head, metric, "", runtime_ms, f"error:{type(exc).__name__}"])
                        continue
                    rows.append([*head, metric, f"{value:.10g}", runtime_ms, status])
                    cells.setdefault((mech_name, eps, est, metric), []).append(value)
                failures += failed

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
            writer.writerow([*key, *_quantiles(cells[key])])

    result = {"raw": raw_path, "summary": summary_path,
              "failures": failures, "runs": runs}
    if runs and failures > FAILURE_THRESHOLD * runs:
        raise FailureThresholdExceededError(
            f"{failures} of {runs} estimator runs failed (threshold {FAILURE_THRESHOLD:.0%}); "
            f"partial results in {raw_path}"
        )
    return result
