"""Command-line interface.

Subcommands:
  obfuscate    sample noisy reports from a dataset and write them as JSON
  estimate     run an estimator on saved mechanism + observations
  experiment   replicated epsilon sweep, writing raw and summary CSVs
  analyze      concavity / identification report with applicable bounds
  reduce       construct a likely subset for saved mechanism + observations

Exit codes: 0 success, 1 estimator failure (or failure threshold exceeded),
2 I/O problems, 3 configuration problems.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .analysis import (
    identification_check,
    inv_geometric_error_lower_bound,
    inv_krr_error_bound,
    rappor_concavity_prob_bound,
    strict_concavity_check,
)
from .core import (
    INTEGER_LINE,
    Alphabet,
    LinearAlphabet,
    ObservationSet,
    PlanarAlphabet,
    obs_matrix,
)
from .errors import (
    BBoxGridMismatchError,
    ConfigError,
    EmptyDatasetError,
    FailureThresholdExceededError,
    IncompatibleEstimatorError,
    InvalidSpecError,
    PrivDistError,
    TooManyMalformedRowsError,
)
from .estimators import DEFAULT_MAX_ITER, DEFAULT_TOL
from .experiment import (
    ESTIMATORS,
    ExperimentConfig,
    build_alphabet,
    build_mechanism,
    derive_rng,
    load_dataset,
    run_estimator,
    run_experiment,
)
from .mechanisms import (
    BitVectorMechanism,
    FiniteMechanism,
    IntegerLineMechanism,
    load_mechanism_dict,
    obfuscate_dataset,
)
from .reduction import lift, likely_krr, likely_linear, likely_planar, restricted_alphabet

_IO_ERRORS = (OSError, EmptyDatasetError, TooManyMalformedRowsError, BBoxGridMismatchError)
_CONFIG_ERRORS = (ConfigError, InvalidSpecError, KeyError, ValueError)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(args) -> ExperimentConfig:
    raw = _read_json(args.config)
    if getattr(args, "seed", None) is not None:
        raw["master_seed"] = args.seed
    if getattr(args, "eps", None):
        raw.setdefault("mechanism", {})["eps"] = [float(e) for e in args.eps.split(",")]
    if getattr(args, "replications", None) is not None:
        raw["replications"] = args.replications
    if getattr(args, "out", None):
        raw["out"] = args.out
    return ExperimentConfig.from_dict(raw)


def cmd_obfuscate(args) -> int:
    cfg = _load_config(args)
    alphabet = build_alphabet(cfg.alphabet)
    data = load_dataset(cfg.dataset, alphabet, cfg.master_seed)
    eps = cfg.eps_grid()[0] if cfg.eps_grid() else 0.0
    mech = build_mechanism(cfg.mechanism["name"], alphabet, eps)
    obs = obfuscate_dataset(mech, data.values, derive_rng(cfg.master_seed, 1, 0))
    out = args.out or cfg.out
    _write_json(out, obs.to_dict())
    if args.mech_out:
        _write_json(args.mech_out, mech.to_dict())
    print(f"wrote {obs.n} reports ({len(obs.counts)} distinct) to {out}")
    return 0


def _load_mechanism(path: str):
    return load_mechanism_dict(_read_json(path))


def _load_observations(path: str, mech) -> ObservationSet:
    return ObservationSet.from_dict(_read_json(path), mech.output_values())


def cmd_estimate(args) -> int:
    mech = _load_mechanism(args.mechanism)
    obs = _load_observations(args.observations, mech)
    alphabet = mech.input_alphabet if isinstance(mech.input_alphabet, Alphabet) else None

    subset = None
    try:
        if args.estimator == "ibu" and args.likely_subset:
            subset = _build_subset(mech, obs)
            alphabet = restricted_alphabet(subset)
        if alphabet is None:
            hint = "; use --likely-subset" if args.estimator == "ibu" else ""
            raise IncompatibleEstimatorError(f"{args.estimator} needs a finite input alphabet{hint}")
        estimate, result = run_estimator(args.estimator, mech, obs, alphabet,
                                         tol=args.tol, max_iter=args.max_iter)
        if subset is not None:
            estimate = lift(subset, estimate)
    except IncompatibleEstimatorError:
        raise
    except PrivDistError as exc:
        print(f"estimation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    payload = estimate.to_dict()
    if result is not None:
        payload["diagnostics"] = {"iterations": result.iterations, "converged": result.converged,
                                  "gap": result.gap, "loglik": result.loglik_trace[-1]}
        if subset is not None:
            payload["diagnostics"]["likely_subset"] = subset.to_dict()
    _write_json(args.out, payload)
    print(f"wrote estimate to {args.out}")
    return 0


def _build_subset(mech, obs):
    alphabet = mech.input_alphabet
    if mech.kind == "krr":
        return likely_krr(alphabet, obs)
    if mech.distance_monotone and isinstance(alphabet, PlanarAlphabet):
        return likely_planar(alphabet, obs)
    if mech.distance_monotone and (alphabet is INTEGER_LINE or isinstance(alphabet, LinearAlphabet)):
        return likely_linear(alphabet, obs)
    raise IncompatibleEstimatorError(
        f"no likely-subset construction applies to mechanism kind {mech.kind!r}"
    )


def cmd_reduce(args) -> int:
    mech = _load_mechanism(args.mechanism)
    obs = _load_observations(args.observations, mech)
    subset = _build_subset(mech, obs)
    _write_json(args.out, subset.to_dict())
    print(f"likely subset: {subset.size} members ({subset.construction}); wrote {args.out}")
    return 0


def cmd_analyze(args) -> int:
    mech = _load_mechanism(args.mechanism)
    obs = _load_observations(args.observations, mech)
    report: dict = {}
    if isinstance(mech, FiniteMechanism):
        G = obs_matrix(mech, obs)
        report["concavity"] = strict_concavity_check(G).to_dict()
        report["identification"] = identification_check(mech)
        params = mech.params_dict()
        k = mech.input_alphabet.size
        if mech.kind == "krr" and params.get("eps_ldp", 0) > 0:
            report["inv_error_upper_bound"] = inv_krr_error_bound(
                k, params["eps_ldp"], obs.n
            )
        if mech.kind in ("geometric-truncated",) and params.get("eps_geo", 0) < math.log(2):
            report["inv_error_lower_bound"] = inv_geometric_error_lower_bound(
                params["eps_geo"], obs.n
            )
    elif isinstance(mech, BitVectorMechanism):
        G = obs_matrix(mech, obs)
        report["concavity"] = strict_concavity_check(G).to_dict()
        k = mech.input_alphabet.size
        if obs.n >= k:
            report["concavity_probability_bound"] = rappor_concavity_prob_bound(
                k, mech.eps_ldp, obs.n
            )
    elif isinstance(mech, IntegerLineMechanism):
        raise IncompatibleEstimatorError(
            "analyze needs a finite mechanism; reduce the alphabet first"
        )
    if args.out:
        _write_json(args.out, report)
    verdict = report.get("concavity", {}).get("strictly_concave")
    print("strictly concave" if verdict else "not strictly concave")
    if "identification" in report:
        print("identification:", "yes" if report["identification"] else "no")
    for key in ("inv_error_upper_bound", "inv_error_lower_bound", "concavity_probability_bound"):
        if key in report:
            print(f"{key}: {report[key]:.6g}")
    return 0


def cmd_experiment(args) -> int:
    cfg = _load_config(args)
    result = run_experiment(cfg)
    print(f"wrote {result['raw']} and {result['summary']} "
          f"({result['runs']} runs, {result['failures']} failures)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privdist",
        description="Estimate original distributions from locally obfuscated data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("obfuscate", help="sample noisy reports from a dataset")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", help="observations output path (default from config)")
    p.add_argument("--mech-out", help="also write the mechanism JSON here")
    p.add_argument("--seed", type=int, help="override master_seed")
    p.add_argument("--eps", help="override epsilon grid, comma separated")
    p.set_defaults(func=cmd_obfuscate)

    p = sub.add_parser("estimate", help="run one estimator on saved artifacts")
    p.add_argument("--mechanism", required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--estimator", required=True, choices=ESTIMATORS)
    p.add_argument("--likely-subset", action="store_true",
                   help="restrict ibu to a likely subset before estimating")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="certified log-likelihood gap, in nats, at which ibu stops")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                   help="cap on ibu's iterations (certificate tests)")
    p.add_argument("--out", default="estimate.json")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("experiment", help="replicated epsilon sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output prefix override")
    p.add_argument("--seed", type=int, help="override master_seed")
    p.add_argument("--eps", help="override epsilon grid, comma separated")
    p.add_argument("--replications", type=int, help="override replications")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("analyze", help="concavity / identification report")
    p.add_argument("--mechanism", required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--out", help="write the full report JSON here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reduce", help="construct a likely subset")
    p.add_argument("--mechanism", required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--out", default="subset.json")
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 2
    except FailureThresholdExceededError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except _IO_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except IncompatibleEstimatorError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except PrivDistError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
