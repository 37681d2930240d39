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

import numpy as np

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
    CategoricalAlphabet,
    FiniteMechanism,
    LinearAlphabet,
    ObservationSet,
    PlanarAlphabet,
    _value_key,
    obs_matrix,
)
from .errors import (
    BBoxGridMismatchError,
    ConfigError,
    EmptyDatasetError,
    FailureThresholdExceededError,
    IncompatibleEstimatorError,
    InvalidSpecError,
    MalformedInputError,
    ObservationOutsideDomainError,
    PrivDistError,
    TooManyMalformedRowsError,
)
from .estimators import DEFAULT_MAX_ITER, DEFAULT_TOL
from .experiment import (
    ESTIMATORS,
    ExperimentConfig,
    _tupled,
    build_alphabet,
    build_mechanism,
    derive_rng,
    load_dataset,
    run_estimator,
    run_experiment,
)
from .mechanisms import (
    BitVectorMechanism,
    IntegerLineMechanism,
    canonical_rows,
    obfuscate_dataset,
    rappor_bits,
)
from .reduction import likely_subset

_IO_ERRORS = (OSError, EmptyDatasetError, TooManyMalformedRowsError, BBoxGridMismatchError,
              MalformedInputError)
_CONFIG_ERRORS = (ConfigError, IncompatibleEstimatorError, InvalidSpecError, KeyError, ValueError)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# File formats, here and nowhere else.  JSON has no tuples, so a tuple value
# (a planar cell, a RAPPOR report) is written as a list, and read back by
# ``experiment._tupled``, the rule a config's uniform subset is read by too.
# ---------------------------------------------------------------------------

def _listed(v):
    return list(v) if isinstance(v, tuple) else v


def alphabet_to_json(alphabet: Alphabet) -> dict:
    if isinstance(alphabet, PlanarAlphabet):
        return {"kind": alphabet.kind, "centers": [list(c) for c in alphabet.values],
                "cell_width_km": alphabet.cell_width_km}
    field = "labels" if isinstance(alphabet, CategoricalAlphabet) else "values"
    return {"kind": alphabet.kind, field: [_listed(v) for v in alphabet.values]}


def alphabet_from_json(d: dict) -> Alphabet:
    kind = d["kind"]
    if kind == "categorical":
        return CategoricalAlphabet(d["labels"])
    if kind == "linear":
        return LinearAlphabet(d["values"])
    if kind == "planar":
        return PlanarAlphabet(d["centers"], d["cell_width_km"])
    if kind == "explicit":
        return Alphabet([_tupled(v) for v in d["values"]])
    raise ValueError(f"unknown alphabet kind {kind!r}")


def mechanism_to_json(mech) -> dict:
    d = {"mechanism": mech.kind, "finite": isinstance(mech, FiniteMechanism),
         "params": mech.params_dict()}
    if isinstance(mech.input_alphabet, Alphabet):
        d["alphabet"] = alphabet_to_json(mech.input_alphabet)
    if isinstance(mech, FiniteMechanism):
        d.update(outputs=[_listed(z) for z in mech.outputs], matrix=mech.matrix.tolist())
    return d


def mechanism_from_json(d: dict):
    if not isinstance(d, dict):
        raise TypeError("a mechanism is a JSON object")
    kind = d.get("mechanism", "custom")
    if not isinstance(kind, str):
        raise TypeError(f"mechanism kind {kind!r} is not a string")
    if d.get("finite"):
        return FiniteMechanism(alphabet_from_json(d["alphabet"]), [_tupled(z) for z in d["outputs"]],
                               d["matrix"], kind=kind, params=d.get("params"))
    if kind == "geometric-linear":
        return IntegerLineMechanism(d["params"]["eps_geo"])
    if kind == "rappor":
        return BitVectorMechanism(alphabet_from_json(d["alphabet"]), d["params"]["eps_ldp"])
    raise ValueError(f"unknown mechanism kind {kind!r}")


def _decoded(key: str):
    try:
        value = _tupled(json.loads(key))
    except ValueError:  # a label that is not JSON, such as "a"
        return key
    try:
        hash(value)
    except TypeError:  # a JSON object, or a list holding a list or an object
        raise ValueError(f"report key {key!r} is not a value a mechanism can output") from None
    return value


def reports_to_json(obs: ObservationSet) -> dict:
    """Counts under each report's JSON key.  Reports that share a key (1 and
    "1") are refused, as their counts would be merged on write.  RAPPOR's
    bit matrix is spelled in one pass, as ``_value_key`` spells each row."""
    if isinstance(obs.reports, np.ndarray):
        template, digits = _bit_key_template(obs.reports.shape[1])
        chars = np.tile(template, (len(obs.reports), 1))
        chars[:, digits] += obs.reports
        text = chars.tobytes().decode("ascii")
        keys = [text[j:j + template.size] for j in range(0, len(text), template.size)]
    else:
        keys = list(map(_value_key, obs.reports))
    reports = dict(zip(keys, obs.count_array.tolist()))
    if len(reports) < len(keys):
        raise ValueError("two distinct reports share a JSON key; their counts would be merged")
    return {"reports": reports, "n": obs.n}


def reports_from_json(d: dict, mech) -> ObservationSet:
    """Read back what ``reports_to_json`` wrote, against ``mech``, the
    mechanism that drew the reports, or None.  RAPPOR reports go straight
    into the bit matrix that a draw makes (``_bit_reports``).  Otherwise
    each key becomes the output in ``mech.output_values()`` that is written
    under it, so a label such as "null" or "1e3" stays a label; other keys,
    and every key when there are no finite outputs, are decoded as JSON.
    ``n`` and every count must be JSON integers, not 2.5 or true."""
    reports, n = d["reports"], d["n"]
    if not isinstance(reports, dict):
        raise TypeError("reports are a JSON object of counts")
    if not (_is_int(n) and all(map(_is_int, reports.values()))):
        raise TypeError("n and every report count must be integers")
    if isinstance(mech, BitVectorMechanism):
        obs = _bit_reports(reports, mech.input_alphabet.size)
    else:
        outputs = mech.output_values() if mech is not None else None
        known = {_value_key(z): z for z in outputs or ()}
        obs = ObservationSet({known[k] if k in known else _decoded(k): c for k, c in reports.items()})
    if obs.n != n:
        raise ValueError("stored n disagrees with the report counts")
    return obs


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _bit_key_template(k: int) -> tuple:
    """The key "[0, 0, ..., 0]" of k zero bits as uint8 characters, and the
    mask of its digits, where the key of any k-bit report has its bits."""
    template = np.frombuffer(json.dumps([0] * k).encode(), dtype=np.uint8)
    return template, template == ord("0")


def _bit_reports(reports: dict, k: int) -> ObservationSet:
    """RAPPOR reports of k bits as the (m, k) uint8 store, in canonical order
    (``canonical_rows``).

    A key as ``reports_to_json`` writes it, "[b, b, ..., b]" with each b 0
    or 1, is read in one vectorized pass over all such keys.  Any other key
    is decoded as JSON and must be a list of k entries, each the integer 0
    or 1: otherwise LengthMismatchError, or ObservationOutsideDomainError
    for an entry such as 2, 1.0 or true.  Two keys that decode to the same
    report are refused, as one of their counts would be lost."""
    keys = list(reports)
    template, digits = _bit_key_template(k)
    fits = np.flatnonzero(np.fromiter(map(len, keys), dtype=np.intp, count=len(keys)) == template.size)
    # "replace" writes one byte per character, so each row stays template.size long
    chars = np.frombuffer("".join(keys[i] for i in fits).encode("ascii", "replace"),
                          dtype=np.uint8).reshape(-1, template.size)
    bits = chars[:, digits] - np.uint8(ord("0"))
    written = (bits <= 1).all(axis=1) & (chars[:, ~digits] == template[~digits]).all(axis=1)
    rows = np.empty((len(keys), k), dtype=np.uint8)
    rows[fits[written]] = bits[written]
    others = np.setdiff1d(np.arange(len(keys)), fits[written])
    values = [_decoded(keys[i]) for i in others]
    rows[others] = rappor_bits(values, k)
    if any(type(b) is bool for v in values for b in v):
        raise ObservationOutsideDomainError("report entries must be 0 or 1, not true or false")
    distinct, where = canonical_rows(np.packbits(rows, axis=1), k)
    if len(distinct) < len(keys):
        raise ValueError("two report keys hold the same report; one count would be lost")
    counts = np.empty(len(keys), dtype=np.int64)
    counts[where] = list(reports.values())
    return ObservationSet._canonical(distinct, counts)


def distribution_to_json(dist) -> dict:
    return {"alphabet": alphabet_to_json(dist.alphabet), "probs": dist.probs.tolist()}


def subset_to_json(subset) -> dict:
    return {
        "parent": None if subset.parent is INTEGER_LINE else alphabet_to_json(subset.parent),
        "members": [_listed(m) for m in subset.members],
        "construction": subset.construction,
        "meta": subset.meta,
    }


def concavity_to_json(report) -> dict:
    return {
        "strictly_concave": report.strictly_concave,
        "rank_found": report.rank_found,
        "rank_required": report.rank_required,
        "witness": None if report.witness is None else [float(w) for w in report.witness],
    }


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
    grid = cfg.eps_grid()
    eps = (grid or [0.0])[0]
    mech = build_mechanism(cfg.mechanism["name"], alphabet, eps)
    obs = obfuscate_dataset(mech, data.values, derive_rng(cfg.master_seed, 1, 0))
    out = args.out or cfg.out
    _write_json(out, reports_to_json(obs))
    if args.mech_out:
        _write_json(args.mech_out, mechanism_to_json(mech))
    skipped = (f"; skipped {data.n_malformed} malformed and {data.n_out_of_range} out-of-range rows"
               if data.n_malformed or data.n_out_of_range else "")
    print(f"wrote {obs.n} reports ({len(obs.reports)} distinct) to {out}{skipped}")
    if len(grid) > 1:
        print(f"drew at eps {eps}, the first of {len(grid)} grid values; {len(grid) - 1} not drawn",
              file=sys.stderr)
    return 0


def _read_input(path: str, reader, *args):
    """``reader`` applied to the JSON in ``path``.  Whatever the reader
    refuses (a missing key, a value of the wrong type, a file that is not
    JSON, a value the library rejects) becomes a MalformedInputError that
    names the file; a missing file stays a FileNotFoundError."""
    try:
        return reader(_read_json(path), *args)
    except (KeyError, TypeError, ValueError, PrivDistError) as exc:
        raise MalformedInputError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _load_inputs(args) -> tuple:
    """The mechanism in ``--mechanism``, and the reports in ``--observations``
    read against it."""
    mech = _read_input(args.mechanism, mechanism_from_json)
    return mech, _read_input(args.observations, reports_from_json, mech)


def cmd_estimate(args) -> int:
    mech, obs = _load_inputs(args)
    try:
        estimate, result = run_estimator(args.estimator, mech, obs, mech.input_alphabet,
                                         tol=args.tol, max_iter=args.max_iter)
    except IncompatibleEstimatorError:
        raise
    except PrivDistError as exc:
        print(f"estimation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    payload = distribution_to_json(estimate)
    if result is not None:
        payload["diagnostics"] = {"iterations": result.iterations, "converged": result.converged,
                                  "gap": result.gap, "loglik": result.loglik_trace[-1]}
    _write_json(args.out, payload)
    print(f"wrote estimate to {args.out}")
    return 0


def cmd_reduce(args) -> int:
    mech, obs = _load_inputs(args)
    subset = likely_subset(mech, obs)
    _write_json(args.out, subset_to_json(subset))
    print(f"likely subset: {subset.size} members ({subset.construction}); wrote {args.out}")
    return 0


def cmd_analyze(args) -> int:
    mech, obs = _load_inputs(args)
    if not isinstance(mech, (FiniteMechanism, BitVectorMechanism)):
        raise IncompatibleEstimatorError("analyze needs a finite mechanism; reduce the alphabet first")
    report = {"concavity": concavity_to_json(strict_concavity_check(obs_matrix(mech, obs)))}
    k = mech.input_alphabet.size
    if isinstance(mech, FiniteMechanism):
        report["identification"] = identification_check(mech)
        # A file may carry no eps (a custom matrix, or params emptied): no bound then.
        params = mech.params_dict()
        eps_ldp, eps_geo = params.get("eps_ldp"), params.get("eps_geo")
        if mech.kind == "krr" and eps_ldp is not None and eps_ldp > 0:
            report["inv_error_upper_bound"] = inv_krr_error_bound(k, eps_ldp, obs.n)
        if mech.kind == "geometric-truncated" and eps_geo is not None and eps_geo < math.log(2):
            report["inv_error_lower_bound"] = inv_geometric_error_lower_bound(eps_geo, obs.n)
    elif obs.n >= k:
        report["concavity_probability_bound"] = rappor_concavity_prob_bound(k, mech.eps_ldp, obs.n)
    if args.out:
        _write_json(args.out, report)
    print("strictly concave" if report["concavity"]["strictly_concave"] else "not strictly concave")
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
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--mechanism", required=True)
    inputs.add_argument("--observations", required=True)

    p = sub.add_parser("obfuscate", help="sample noisy reports from a dataset")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", help="observations output path (default from config)")
    p.add_argument("--mech-out", help="also write the mechanism JSON here")
    p.add_argument("--seed", type=int, help="override master_seed")
    p.add_argument("--eps", help="override epsilon grid, comma separated")
    p.set_defaults(func=cmd_obfuscate)

    p = sub.add_parser("estimate", parents=[inputs], help="run one estimator on saved artifacts")
    p.add_argument("--estimator", required=True, choices=ESTIMATORS)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="certified log-likelihood gap, in nats, at which ibu stops; "
                        "never below 4*n*2.2e-16, the least that rounding can certify")
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

    p = sub.add_parser("analyze", parents=[inputs], help="concavity / identification report")
    p.add_argument("--out", help="write the full report JSON here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reduce", parents=[inputs], help="construct a likely subset")
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
    except _CONFIG_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except PrivDistError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
