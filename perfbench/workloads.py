"""The benchmark's workloads: set-up, one replication, and the checks.

Each workload calls privdist's public functions the way ``run_experiment``
does, with library defaults (``delta``, ``max_iter``).  Its inputs come from
the workload seed only: the dataset from ``derive_rng(seed, 0)`` and the
reports of mechanism ``m`` in replication ``r`` from
``derive_rng(seed, 1, m, r)``.  The library receives only the generated
data.  README.md says why each workload exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from privdist import (
    INTEGER_LINE,
    Distribution,
    Explicit,
    LinearAlphabet,
    ObsMatrix,
    PlanarAlphabet,
    build_geometric_linear,
    build_geometric_planar,
    build_geometric_truncated,
    build_krr,
    build_rappor,
    derive_rng,
    distribution_new,
    emd_1d,
    emd_planar,
    empirical_distribution,
    ibu,
    identification_check,
    inv_normalize,
    inv_project,
    inv_raw,
    likely_linear,
    likely_planar,
    obfuscate_dataset,
    obs_matrix,
    rappor_decode,
    restrict_and_lift,
    sample_synthetic,
    strict_concavity_check,
    to_empirical,
)
from privdist.errors import PrivDistError
from privdist.estimators import rappor_bit_counts
from privdist.reduction import restricted_alphabet

SUM_TOL = 1e-9  # an estimate must sum to one within this
LOGLIK_REL_TOL = 1e-9  # an IBU log-likelihood step may fall by this share at most
SUBNORMAL = 2.2e-308  # entries in (0, SUBNORMAL) are subnormal doubles


@dataclass
class Op:
    """One operation of a replication: an estimate with its EMD to the truth
    ("estimate"), a concavity verdict ("verdict") or a likely subset
    ("subset").  For estimates, ``role`` is "ibu" (a direct ``ibu`` call),
    "lift" (``restrict_and_lift``), "ref" (the reference estimator) or ""."""

    label: str
    kind: str
    role: str = ""
    estimate: Distribution = None
    emd: float = None
    loglik: list = None  # IBU log-likelihood trace
    gap_matrix: ObsMatrix = None  # matrix the IBU gap, or the verdict, is checked on
    concave: bool = None  # verdict of strict_concavity_check
    gap: float = None  # certified IBU log-likelihood gap, in nats
    error: str = None

    def release(self):
        """Drop the large fields once the checks have run."""
        self.estimate = self.loglik = self.gap_matrix = None


def _attempt(label: str, kind: str, role: str, produce) -> Op:
    """Run one operation; a library error fails it without stopping the rest."""
    try:
        return produce()
    except PrivDistError as exc:
        return Op(label, kind, role, error=f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# Steps shared by the workloads, one span per library call
# ---------------------------------------------------------------------------

def _sample(tr, dist: Distribution, n: int, seed: int):
    with tr.span("dataio.sample"):
        data = sample_synthetic(Explicit(dist), n, derive_rng(seed, 0))
    with tr.span("dataio.empirical"):
        truth = empirical_distribution(dist.alphabet, data.values)
    return data.values, truth


def _obfuscate(tr, mech, data, rng):
    with tr.span("mechanisms.obfuscate"):
        obs = obfuscate_dataset(mech, data, rng)
    tr.count("mechanisms.reports", obs.n)
    return obs


def _observe(tr, mech, obs) -> ObsMatrix:
    with tr.span("core.obs_matrix"):
        G = obs_matrix(mech, obs)
    tr.count("core.obs_matrix_cells", G.matrix.size)
    return G


def _ibu(tr, label: str, G: ObsMatrix) -> Op:
    with tr.span("estimators.ibu"):
        res = ibu(G)
    tr.count("estimators.ibu_iters", res.iterations)
    tr.count("estimators.ibu_unconverged", int(not res.converged))
    return Op(label, "estimate", "ibu", res.estimate, loglik=res.loglik_trace, gap_matrix=G)


def _inv(tr, label: str, role: str, obs, mech, post) -> Op:
    with tr.span("core.to_empirical"):
        q = to_empirical(obs)
    with tr.span("estimators.inv"):
        est = post(inv_raw(q, mech), mech.input_alphabet)
    return Op(label, "estimate", role, est)


def _identify(tr, mech):
    with tr.span("analysis.identification"):
        ok = identification_check(mech)
    if not ok:
        raise RuntimeError(f"the {mech.kind} mechanism does not identify its input")


def _likely(tr, build, parent_rows: int, *args):
    with tr.span("reduction.likely"):
        subset = build(*args)
    tr.count("reduction.kept_rows", subset.size)
    tr.count("reduction.parent_rows", parent_rows)
    return subset


def _inv_ops(tr, name: str, mech, obs) -> list:
    """inv-n and inv-p (the reference) on the reports of one finite mechanism."""
    return [
        _attempt(f"{name}/inv-n", "estimate", "",
                 lambda: _inv(tr, f"{name}/inv-n", "", obs, mech, inv_normalize)),
        _attempt(f"{name}/inv-p", "estimate", "ref",
                 lambda: _inv(tr, f"{name}/inv-p", "ref", obs, mech, inv_project)),
    ]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    why = ""
    ops_per_rep = 0

    def setup(self, seed: int, tr):
        """Sample the dataset, compute the truth, build the mechanisms."""
        raise NotImplementedError

    def replicate(self, rep: int, tr) -> list:
        """Obfuscate, estimate and score once; returns the operations."""
        raise NotImplementedError

    def _score(self, tr, ops: list, metric) -> list:
        for op in ops:
            if op.error is None and op.estimate is not None:
                try:
                    with tr.span("metrics.emd"):
                        op.emd = metric(op.estimate, self.truth)
                except PrivDistError as exc:
                    op.error = f"{type(exc).__name__}: {exc}"
        return ops


class Ages1D(Workload):
    name = "ages-1d"
    why = ("IBU's long solves at k=100 dominate; obs_matrix is a column slice and EMD "
           "is closed-form, so only IBU changes should show")
    n = 48_842  # size of the Adult dataset
    ops_per_rep = 7

    def setup(self, seed, tr):
        alphabet = LinearAlphabet.range(0, 99)
        x = np.arange(alphabet.size, dtype=float)
        w = np.exp(-0.5 * ((x - 38.0) / 14.0) ** 2)
        w[:17] = 0.0
        self.data, self.truth = _sample(tr, distribution_new(alphabet, w), self.n, seed)
        with tr.span("mechanisms.build"):
            krr = build_krr(alphabet, 1.0)
            geo = build_geometric_truncated(0, 99, 0.5)
            self.line = build_geometric_linear(0.5)
        for mech in (krr, geo):
            _identify(tr, mech)
        self.finite = [("krr", krr), ("geometric", geo)]
        self.seed = seed

    def replicate(self, rep, tr):
        ops = []
        for m, (name, mech) in enumerate(self.finite):
            obs = _obfuscate(tr, mech, self.data, derive_rng(self.seed, 1, m, rep))
            ops.append(_attempt(f"{name}/ibu", "estimate", "ibu",
                                lambda: _ibu(tr, f"{name}/ibu", _observe(tr, mech, obs))))
            ops += _inv_ops(tr, name, mech, obs)
        obs = _obfuscate(tr, self.line, self.data, derive_rng(self.seed, 1, 2, rep))
        ops.append(_attempt("line/restrict-lift", "estimate", "lift", lambda: self._lift(tr, obs)))
        return self._score(tr, ops, self._emd)

    def _lift(self, tr, obs):
        subset = _likely(tr, likely_linear, self.truth.alphabet.size, INTEGER_LINE, obs)
        with tr.span("reduction.restrict_lift"):
            est = restrict_and_lift(self.line, obs, subset)
        # The gap is certified on the matrix IBU ran on; the checks rebuild
        # it outside the timed region.
        return Op("line/restrict-lift", "estimate", "lift", est,
                  gap_matrix=lambda: obs_matrix(self.line, obs, restricted_alphabet(subset)))

    def _emd(self, est, truth):
        """emd_1d; an integer-line estimate lives on the window of its
        reports, so both sides are first put on the union of the windows."""
        if est.alphabet == truth.alphabet:
            return emd_1d(est, truth)
        lo = min(est.alphabet.values[0], truth.alphabet.values[0])
        hi = max(est.alphabet.values[-1], truth.alphabet.values[-1])
        union = LinearAlphabet.range(lo, hi)
        return emd_1d(_embed(est, union), _embed(truth, union))


def _embed(dist: Distribution, onto: LinearAlphabet) -> Distribution:
    probs = np.zeros(onto.size)
    probs[np.asarray(dist.alphabet.values) - onto.values[0]] = dist.probs
    return Distribution(onto, probs)


class Rappor64(Workload):
    name = "rappor-k64"
    why = ("the only workload where the kernel (obs_matrix) and analysis "
           "(strict_concavity_check) layers do real work")
    n = 4_000
    eps = 3.0
    ops_per_rep = 2

    def setup(self, seed, tr):
        alphabet = LinearAlphabet.range(0, 63)
        x = np.arange(alphabet.size, dtype=float)
        w = np.exp(-0.5 * ((x - 31.5) / 10.0) ** 2)
        self.data, self.truth = _sample(tr, distribution_new(alphabet, w), self.n, seed)
        with tr.span("mechanisms.build"):
            self.mech = build_rappor(alphabet, self.eps)
        self.seed = seed

    def replicate(self, rep, tr):
        # No IBU: README.md says why.
        obs = _obfuscate(tr, self.mech, self.data, derive_rng(self.seed, 1, 0, rep))
        G = _observe(tr, self.mech, obs)
        ops = [_attempt("concavity", "verdict", "", lambda: self._concavity(tr, G)),
               _attempt("rappor/decode", "estimate", "ref", lambda: self._decode(tr, obs))]
        return self._score(tr, ops, emd_1d)

    def _concavity(self, tr, G):
        with tr.span("analysis.concavity"):
            report = strict_concavity_check(G)
        return Op("concavity", "verdict", concave=report.strictly_concave, gap_matrix=G)

    def _decode(self, tr, obs):
        alphabet = self.mech.input_alphabet
        with tr.span("estimators.rappor_decode"):
            counts = rappor_bit_counts(obs, alphabet)
            est = rappor_decode(counts, obs.n, alphabet, self.eps, post="project")
        return Op("rappor/decode", "estimate", "ref", est)


class Planar20(Workload):
    name = "planar-20x20"
    why = ("the emd_planar calls dominate, so transport-solver and planar-build "
           "changes show here")
    n = 20_000
    eps = 2.0  # per km
    clusters = ((4.5, 5.0, 1.6, 0.5), (14.0, 6.5, 1.3, 0.3), (9.5, 14.5, 2.0, 0.2))
    cutoff = 0.04  # cells below this share of the peak weight get none
    ops_per_rep = 3

    def setup(self, seed, tr):
        grid = PlanarAlphabet.grid(20, 20, 1.0)
        c = grid.lattice_coords().astype(float)
        w = np.zeros(grid.size)
        for cx, cy, sigma, weight in self.clusters:
            w += weight * np.exp(-((c[:, 0] - cx) ** 2 + (c[:, 1] - cy) ** 2) / (2 * sigma ** 2))
        w[w < self.cutoff * w.max()] = 0.0
        self.data, self.truth = _sample(tr, distribution_new(grid, w), self.n, seed)
        with tr.span("mechanisms.build"):
            self.mech = build_geometric_planar(grid, grid, self.eps)
        _identify(tr, self.mech)
        self.seed = seed

    def replicate(self, rep, tr):
        grid = self.mech.input_alphabet
        obs = _obfuscate(tr, self.mech, self.data, derive_rng(self.seed, 1, 0, rep))
        # No IBU: README.md says why.
        ops = _inv_ops(tr, "planar", self.mech, obs)
        ops.append(_attempt("likely", "subset", "", lambda: self._likely(tr, grid, obs)))
        return self._score(tr, ops, lambda est, truth: self._emd(tr, est, truth))

    def _likely(self, tr, grid, obs):
        _likely(tr, likely_planar, grid.size, grid, obs)
        return Op("likely", "subset")

    def _emd(self, tr, est, truth):
        tr.count("metrics.transport_pairs",
                 int(np.count_nonzero(est.probs)) * int(np.count_nonzero(truth.probs)))
        return emd_planar(est, truth)


WORKLOADS = {w.name: w for w in (Ages1D, Rappor64, Planar20)}


# ---------------------------------------------------------------------------
# Checks, run outside the timed region
# ---------------------------------------------------------------------------

def check(op: Op, tr) -> None:
    """Set ``op.error`` when an output is wrong, and ``op.gap`` for IBU
    estimates; then drop the large fields."""
    if op.error is None and op.kind == "verdict":
        op.error = _verdict_mismatch(op.gap_matrix, op.concave)
        if op.error:
            tr.count("analysis.verdict_mismatch")
    elif op.error is None and op.kind == "estimate":
        p = op.estimate.probs
        if not np.all(np.isfinite(p)) or np.any(p < 0) or abs(p.sum() - 1.0) > SUM_TOL:
            op.error = f"estimate is not a distribution (sum {p.sum()!r}, min {p.min()!r})"
        elif op.loglik is not None:
            op.error = _loglik_drop(op.loglik)
        if op.error is None and not (op.emd is not None and math.isfinite(op.emd) and op.emd >= 0):
            op.error = f"EMD {op.emd!r} is not a finite non-negative number"
        if op.role == "ibu":
            tr.count("estimators.ibu_subnormal", int(np.count_nonzero((p > 0) & (p < SUBNORMAL))))
        if op.role in ("ibu", "lift") and op.error is None:
            op.gap = ibu_gap_nats(op)
    op.release()


def _loglik_drop(trace) -> str:
    ll = np.asarray(trace, dtype=float)
    bad = np.flatnonzero(ll[1:] < ll[:-1] - LOGLIK_REL_TOL * np.abs(ll[:-1]))
    if bad.size:
        i = int(bad[0])
        return f"log-likelihood fell from {ll[i]!r} to {ll[i + 1]!r} at iteration {i + 1}"
    return None


def _verdict_mismatch(G: ObsMatrix, concave: bool) -> str:
    """Compare the verdict with the rank of [A | 1] after scaling every
    column to unit max-norm, which leaves the rank unchanged but takes the
    column scale (RAPPOR columns are ~1e-7) out of the tolerance."""
    k = G.alphabet.size
    augmented = np.hstack([G.matrix, np.ones((k, 1))])
    augmented /= np.abs(augmented).max(axis=0)
    rank = int(np.linalg.matrix_rank(augmented))
    if (rank == k) == concave:
        return None
    return (f"strict_concavity_check says strictly_concave={concave}, "
            f"but the column-normalized [A | 1] has rank {rank} of {k}")


def ibu_gap_nats(op: Op) -> float:
    """Certified log-likelihood gap n * log max_x g_x, g = A (q / (theta A)),
    of an IBU estimate: the MLE's log-likelihood exceeds the estimate's by at
    most this much."""
    G = op.gap_matrix() if callable(op.gap_matrix) else op.gap_matrix
    theta = op.estimate.probs
    with np.errstate(divide="ignore"):
        g = G.matrix @ (G.q / (theta @ G.matrix))
    return float(G.n * math.log(g.max()))
