"""Estimators that recover the original distribution from noisy reports.

``ibu`` computes the maximum-likelihood estimate that the iterative Bayesian
update (EM) converges to, certified within ``tol`` nats (``IbuResult.gap``).
``inv_raw`` inverts the mechanism matrix directly and is post-processed by
clip-and-normalize (``inv_normalize``) or by Euclidean projection onto the
probability simplex (``inv_project``).  ``rappor_decode`` is the per-bit
debiasing estimator for one-hot bit-vector reports.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Alphabet,
    Distribution,
    Empirical,
    FiniteMechanism,
    ObsMatrix,
    uniform_distribution,
)
from .errors import (
    AllNonPositiveError,
    AlphabetMismatchError,
    DeadColumnError,
    DegeneratePError,
    LengthMismatchError,
    NonSquareMechanismError,
    SingularMechanismError,
    ZeroSupportStartError,
)
from .mechanisms import rappor_keep_prob

DEFAULT_TOL = 1e-6  # certified log-likelihood gap, in nats
DEFAULT_MAX_ITER = 100_000
# Condition numbers beyond this make the inverted vector numerically meaningless.
CONDITION_LIMIT = 1e12


class IbuResult:
    """Outcome of an IBU run: the estimate, the log-likelihood per iterate,
    the certified gap last tested, and whether it met the tolerance."""

    __slots__ = ("estimate", "iterations", "loglik_trace", "converged", "gap")

    def __init__(self, estimate: Distribution, iterations: int,
                 loglik_trace: list, converged: bool, gap: float):
        self.estimate = estimate
        self.iterations = iterations
        self.loglik_trace = loglik_trace
        self.converged = converged
        self.gap = gap

    def to_dict(self) -> dict:
        return {"estimate": self.estimate.to_dict(), "iterations": self.iterations,
                "converged": self.converged, "gap": self.gap,
                "loglik": [float(v) for v in self.loglik_trace]}

    def __repr__(self):
        return (f"IbuResult(iterations={self.iterations}, converged={self.converged}, "
                f"gap={self.gap:.3g}, loglik={self.loglik_trace[-1]:.6g})")


def ibu(G: ObsMatrix, theta0: Distribution = None, tol: float = DEFAULT_TOL,
        max_iter: int = DEFAULT_MAX_ITER) -> IbuResult:
    """The maximum-likelihood estimate that the iterative Bayesian update
    (EM, theta[x] <- theta[x] g[x], g = A (q / (theta A))) converges to.

    The maximum log-likelihood exceeds L(theta) by at most n log max_x g[x]
    (Jensen); the run stops once that gap is at most ``tol`` nats.  After one
    EM step, the default (uniform) start takes interior-point Newton steps
    (``_newton_step``), or the EM step where those are not finite or lower the
    likelihood.  An explicit ``theta0`` takes EM steps only, so it ends at its
    own fixed point where the maximizer is not unique.  ``iterations`` counts
    gap tests; at ``max_iter`` the run returns ``converged=False``."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    A, weights, q, n = G.matrix, G.weights, G.q, G.n
    dead = np.flatnonzero(~(A > 0).any(axis=0))
    if dead.size:
        raise DeadColumnError(
            f"observed value {G.values[dead[0]]!r} has zero probability under every alphabet element"
        )
    start = uniform_distribution(G.alphabet) if theta0 is None else theta0
    if start.alphabet != G.alphabet:
        raise AlphabetMismatchError("the starting distribution is over a different alphabet")
    if np.any(start.probs <= 0):
        raise ZeroSupportStartError("the starting distribution must have full support")

    theta = start.probs.copy()
    mix = theta.dot(A)
    loglik = float(weights.dot(np.log(mix)))
    trace = [loglik]
    duals, iterations, converged, gap = None, 0, False, math.inf
    # ndarray.dot has less call overhead than @.  An impossible report gives log 0 = -inf.
    with np.errstate(divide="ignore"):
        while iterations < max_iter:
            g = A.dot(q / mix)
            iterations += 1
            gap = n * math.log(g.max())
            if gap <= tol:
                converged = True
                break
            candidates = [(theta * g, duals)]
            # within 4 rounding units of the maximum, cheap EM steps re-round the gap
            if theta0 is None and iterations > 1 and gap > 4.0 * n * np.finfo(float).eps:
                candidates = [*_newton_step(A, q, theta, mix, g, duals), *candidates]
            for new, new_duals in candidates:
                new /= new.sum()
                new_mix = new.dot(A)
                # The gain is taken on the mixture ratios: it keeps its precision
                # long after the two large log-likelihoods stop resolving it.
                gain = float(weights.dot(np.log(new_mix / mix)))
                if gain >= 0.0 or new_duals is duals:
                    break
            theta, mix, duals = new, new_mix, new_duals
            loglik += gain
            trace.append(loglik)
    return IbuResult(Distribution(G.alphabet, theta), iterations, trace, converged, gap)


def _newton_step(A, q, theta, mix, g, duals):
    """Primal-dual interior-point steps (Wright, 1997) for max q log(theta A)
    on the simplex, multipliers lam for sum(theta) = 1 and z for theta >= 0
    (first read off the certificate); yields (theta, (z, lam)) for finite ones.
    Newton's method on g - lam + z = 0, theta z = sigma mu (mu the mean of
    theta z) solves M dtheta = b - dlam, M = D + A W A^T, D = z / theta, W =
    q / mix^2, b = g - lam + sigma mu / theta, for a centred step (sigma =
    min(0.1, sqrt mu)) and an affine one (sigma = 0, which raises the
    likelihood when short enough).  Rows with D above their curvature M_xx
    go through an m x m system (Woodbury) when they outnumber the m reports.
    Steps stop 0.995 of the way to the boundary."""
    z, lam = duals or (np.maximum(g.max() - g, (g.max() - 1.0) / g.size), g.max())
    free = theta > 1e-200  # entries below are held still
    t, zf, Af = theta[free], z[free], A[free]
    k, m = Af.shape
    mu = t.dot(zf) / k
    sigma_mu = min(0.1, math.sqrt(mu)) * mu
    d, w = zf / t, q / mix / mix
    R = np.column_stack([g[free] - lam + sigma_mu / t, g[free] - lam, np.ones(k)])
    out = d >= (Af * Af).dot(w)
    try:
        if np.count_nonzero(out) <= m:
            X = _solve_scaled((Af * w).dot(Af.T), d, R)
        else:  # V = P^-1 [A^T, A^T D^-1 R] on the kept and out rows, P = W^-1 + A^T D^-1 A
            Ak, DA = Af[~out], Af[out] / d[out, None]
            V = np.linalg.solve(Af[out].T.dot(DA) + np.diag(1.0 / w),
                                np.column_stack([Ak.T, DA.T.dot(R[out])]))
            s, X = Ak.shape[0], np.empty((k, 3))
            X[~out] = _solve_scaled(Ak.dot(V[:, :s]), d[~out], R[~out] - Ak.dot(V[:, s:]))
            X[out] = (R[out] - Af[out].dot(V[:, :s].dot(X[~out]) + V[:, s:])) / d[out, None]
    except np.linalg.LinAlgError:
        return
    for col, target in ((0, sigma_mu), (1, 0.0)):
        dlam = X[:, col].sum() / X[:, 2].sum()
        step = X[:, col] - dlam * X[:, 2]
        if np.isfinite(step).all():
            dz = (target - zf * step) / t - zf
            a_primal = min(1.0, 0.995 * (t[step < 0] / -step[step < 0]).min(initial=np.inf))
            a_dual = min(1.0, 0.995 * (zf[dz < 0] / -dz[dz < 0]).min(initial=np.inf))
            new, new_z = theta.copy(), z.copy()
            new[free], new_z[free] = t + a_primal * step, zf + a_dual * dz
            yield new, (new_z, lam + a_dual * dlam)


def _solve_scaled(H, d, R):
    """(H + diag d)^-1 R, solved at unit diagonal as d spans hundreds of
    decades; H is overwritten."""
    H.flat[::H.shape[0] + 1] += d
    scale = np.sqrt(np.maximum(H.diagonal(), 1e-300))[:, None]
    return np.linalg.solve(H / scale / scale.T, R / scale) / scale


# ---------------------------------------------------------------------------
# Matrix inversion
# ---------------------------------------------------------------------------

def inv_raw(q: Empirical, mech: FiniteMechanism,
            condition_limit: float = CONDITION_LIMIT) -> np.ndarray:
    """Invert the mechanism on the empirical output frequencies: v = q M^-1.

    The result may have negative components and is therefore returned as a
    plain vector for post-processing.
    """
    if not isinstance(mech, FiniteMechanism) or not mech.is_square:
        raise NonSquareMechanismError("matrix inversion requires a square finite mechanism")
    M = mech.matrix
    qvec = np.zeros(len(mech.outputs))
    for v, p in zip(q.values, q.probs):
        qvec[mech.output_index(v)] = p
    cond = mech.condition_number
    if not np.isfinite(cond) or cond > condition_limit:
        raise SingularMechanismError(
            f"mechanism condition number {cond:.3e} exceeds the limit {condition_limit:.1e}"
        )
    return np.linalg.solve(M.T, qvec)


def inv_normalize(v, alphabet: Alphabet) -> Distribution:
    """Clip negative components to zero and renormalize."""
    v = np.asarray(v, dtype=float)
    if v.shape != (alphabet.size,):
        raise LengthMismatchError("vector length does not match the alphabet")
    clipped = np.maximum(v, 0.0)
    total = clipped.sum()
    if total <= 0:
        raise AllNonPositiveError("no positive mass left after clipping")
    return Distribution(alphabet, clipped / total)


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Sort-based algorithm: with u the components sorted decreasingly, find the
    largest j such that u_j + (1 - sum_{i<=j} u_i) / j > 0, then shift by
    that threshold and clip at zero.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector must be finite")
    u = np.sort(v)[::-1]
    cum = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    feasible = u + (1.0 - cum) / j > 0
    rho = np.max(np.flatnonzero(feasible)) + 1
    shift = (1.0 - cum[rho - 1]) / rho
    return np.maximum(v + shift, 0.0)


def inv_project(v, alphabet: Alphabet) -> Distribution:
    """Euclidean projection of the inverted vector onto the simplex."""
    v = np.asarray(v, dtype=float)
    if v.shape != (alphabet.size,):
        raise LengthMismatchError("vector length does not match the alphabet")
    out = project_to_simplex(v)
    return Distribution(alphabet, out / out.sum())


# ---------------------------------------------------------------------------
# RAPPOR decoding
# ---------------------------------------------------------------------------

def rappor_bit_counts(obs, alphabet: Alphabet) -> np.ndarray:
    """Per-position counts of set bits over an ObservationSet of bit vectors."""
    counts = np.zeros(alphabet.size, dtype=np.int64)
    for beta, c in obs.items():
        if len(beta) != alphabet.size:
            raise LengthMismatchError("bit vector length does not match the alphabet")
        counts += c * np.asarray(beta, dtype=np.int64)
    return counts


def rappor_decode(bit_counts, n: int, alphabet: Alphabet, eps_ldp: float,
                  post: str = "project") -> Distribution:
    """Debias per-position frequencies of one-hot bit-vector reports.

    The unbiased per-position estimate is (count/n - (1-p)) / (2p - 1) with
    p the per-bit keep probability; the vector is then normalized or
    projected onto the simplex depending on ``post``.
    """
    counts = np.asarray(bit_counts, dtype=float)
    if counts.shape != (alphabet.size,):
        raise LengthMismatchError("one bit count per alphabet element is required")
    if n < 1:
        raise ValueError("n must be at least 1")
    if np.any(counts < 0) or np.any(counts > n):
        raise ValueError("bit counts must lie in [0, n]")
    p = rappor_keep_prob(eps_ldp)
    if abs(2.0 * p - 1.0) < 1e-12:
        raise DegeneratePError("keep probability 1/2 (eps = 0) cannot be debiased")
    t = (counts / n - (1.0 - p)) / (2.0 * p - 1.0)
    if post == "normalize":
        return inv_normalize(t, alphabet)
    if post == "project":
        return inv_project(t, alphabet)
    raise ValueError(f"unknown post-processing {post!r}")
