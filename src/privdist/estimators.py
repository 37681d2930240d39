"""Estimators that recover the original distribution from noisy reports.

``ibu`` computes the maximum-likelihood estimate that the iterative Bayesian
update (EM) converges to, certified within ``tol`` nats (``IbuResult.gap``).
``inv_raw`` inverts the mechanism matrix directly and is post-processed by
clip-and-normalize (``inv_normalize``) or by Euclidean projection onto the
probability simplex (``inv_project``).  ``rappor_decode`` is the per-bit
debiasing estimator for one-hot bit-vector reports.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    Alphabet,
    Distribution,
    FiniteMechanism,
    ObsMatrix,
    _value_key,
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
from .mechanisms import rappor_bits, rappor_keep_prob

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

    def __repr__(self):
        return (f"IbuResult(iterations={self.iterations}, converged={self.converged}, "
                f"gap={self.gap:.3g}, loglik={self.loglik_trace[-1]:.6g})")


def ibu(G: ObsMatrix, theta0: Distribution = None, tol: float = DEFAULT_TOL,
        max_iter: int = DEFAULT_MAX_ITER) -> IbuResult:
    """The maximum-likelihood estimate that the iterative Bayesian update
    (EM, theta[x] <- theta[x] g[x], g = A (q / (theta A))) converges to.

    The maximum log-likelihood exceeds L(theta) by at most n log max_x g[x]
    (Jensen); the run stops once that gap is at most ``tol`` nats, or at most
    4 n eps (eps = 2.2e-16, the float spacing at 1), the least that rounding
    in g can certify, when ``tol`` is below that floor.  The default start
    is the exact maximizer when every column of ``G.matrix`` has k-RR form
    (``_krr_maximizer``): the likelihood is then separable, and its
    maximizer is the report frequencies rescaled and clipped at 0.  Where
    nothing clips, that is the inversion estimate (q - b) / (a - b), which is
    why IBU tracks inversion under k-RR.  The start is kept when its gap
    test passes, as it does unless the stop lies within the rounding of g
    (up to about 12 eps at k = 100, so n above about 3e8 at tol = 1e-6);
    otherwise the start is the uniform distribution.
    After one EM step, the default start takes interior-point Newton steps
    (``_newton_steps``), or the EM step where those are not finite or lower
    the likelihood, so the log-likelihood never falls beyond rounding.  An
    explicit ``theta0`` takes EM steps only, so it ends at its own fixed
    point where the maximizer is not unique.  ``iterations`` counts gap
    tests; at ``max_iter`` the run returns ``converged=False``.  ``gap`` is
    reported as at least 0: max g >= theta . g = 1 on the simplex, so a
    negative reading is rounding in g alone."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    A, weights, q, n = G.matrix, G.weights, G.q, G.n
    dead = np.flatnonzero(~(A > 0).any(axis=0))
    if dead.size:
        value = G.values[dead[0]]
        # a RAPPOR report as the CLI writes it, [1, 0, ...], not as a uint8 array
        name = _value_key(tuple(value.tolist())) if isinstance(G.values, np.ndarray) else repr(value)
        raise DeadColumnError(f"observed value {name} has zero probability under every alphabet element")
    stop = ibu_stop(tol, n)
    if theta0 is None:
        theta = _krr_maximizer(A, q)
        # Near the floor, rounding in g can fail even the exact maximizer,
        # and Newton steps from it can stall at rounding level.
        if theta is None or not n * math.log(A.dot(q / theta.dot(A)).max()) <= stop:
            theta = uniform_distribution(G.alphabet).probs.copy()
    else:
        if theta0.alphabet != G.alphabet:
            raise AlphabetMismatchError("the starting distribution is over a different alphabet")
        if np.any(theta0.probs <= 0):
            raise ZeroSupportStartError("the starting distribution must have full support")
        theta = theta0.probs.copy()

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
            if gap <= stop:
                converged = True
                break
            candidates = [(theta * g, duals)]
            if theta0 is None and iterations > 1:
                candidates = itertools.chain(_newton_steps(A, q, theta, mix, g, duals), candidates)
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
    return IbuResult(Distribution(G.alphabet, theta), iterations, trace, converged, max(gap, 0.0))


def ibu_stop(tol: float, n: float) -> float:
    """The gap, in nats, at which ``ibu`` stops on n reports: ``tol``, or
    4 n eps where that is larger, the least that rounding in g can certify."""
    return max(tol, 4.0 * n * np.finfo(float).eps)


def _krr_maximizer(A, q):
    """The maximizer of q log(theta A) on the simplex when every column of
    ``A`` has k-RR form, else None.  The form, tested by exact equality:
    each column holds one value a on a row that no other column uses, and
    one value b < a everywhere else (b >= 0 holds in every ObsMatrix).
    Column j then reads b + (a - b) theta[x_j] for its row x_j, so the
    likelihood is separable and its maximizer is the water level
    theta[x_j] = max(0, q_j / lam - b / (a - b)), with lam setting the sum
    to 1 (one sort, as in ``project_to_simplex``); rows without a column
    get 0."""
    col = A[:, 0]
    a, b = col.max(), col.min()
    if not b < a or np.count_nonzero(col == b) != col.size - 1:
        return None  # column 0 alone rules out most other kernels
    top = A == a
    if not ((top | (A == b)).all() and (top.sum(axis=0) == 1).all() and top.sum(axis=1).max() <= 1):
        return None
    offset = b / (a - b)
    u = np.sort(q)[::-1]
    cum = np.cumsum(u)
    # rho, the number of positive entries, is the largest with u_rho / lam > offset
    rho = np.flatnonzero(u * (1.0 + offset * np.arange(1, u.size + 1)) > offset * cum)[-1] + 1
    # theta is proportional to max(0, q - lam offset), lam = cum_rho / (1 + rho offset).
    # Dividing by its sum, not by lam, keeps sum(theta) within rounding of 1:
    # lam's error grows with rho offset, and g with it.
    theta = np.zeros(A.shape[0])
    theta[top.argmax(axis=0)] = np.maximum(q - offset * cum[rho - 1] / (1.0 + rho * offset), 0.0)
    return theta / theta.sum()


def _newton_steps(A, q, theta, mix, g, duals):
    """Primal-dual interior-point steps (Wright, 1997) for max q log(theta A)
    on the simplex, with multipliers lam for sum(theta) = 1 and z for
    theta >= 0 (first read off the certificate); yields (theta, (z, lam))
    for finite steps.  Newton's method on g - lam + z = 0, theta z = sigma mu
    (mu the mean of theta z) solves M dtheta = b - dlam, M = D + A W A^T,
    D = z / theta, W = q / mix^2, b = g - lam + sigma mu / theta, for a
    centred step (sigma = min(0.1, sqrt mu)) and then, lazily, an affine one
    (sigma = 0, which raises the likelihood when short enough).  Rows with D
    above their curvature M_xx go through an m x m system (Woodbury) when
    they outnumber the m reports.  Steps stop 0.995 of the way to the
    boundary."""
    z, lam = duals or (np.maximum(g.max() - g, (g.max() - 1.0) / g.size), g.max())
    free = theta > 1e-200  # entries below are held still
    if free.all():
        t, zf, gf, Af = theta, z, g, A
    else:
        t, zf, gf, Af = theta[free], z[free], g[free], A[free]
    k, m = Af.shape
    mu = t.dot(zf) / k
    sigma_mu = min(0.1, math.sqrt(mu)) * mu
    d, w = zf / t, q / mix / mix
    Aw = Af * w
    R = np.empty((k, 3))
    R[:, 1], R[:, 2] = gf - lam, 1.0
    R[:, 0] = R[:, 1] + sigma_mu / t
    out = d >= np.einsum("ij,ij->i", Aw, Af)  # (A W A^T)_xx from A W: no A * A is stored
    try:
        if np.count_nonzero(out) <= m:
            X = _solve_scaled(Aw.dot(Af.T), d, R)
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
    decades; H and R are overwritten."""
    H.flat[::H.shape[0] + 1] += d
    scale = np.sqrt(np.maximum(H.diagonal(), 1e-300))[:, None]
    H /= scale
    H /= scale.T
    R /= scale
    return np.linalg.solve(H, R) / scale


# ---------------------------------------------------------------------------
# Matrix inversion
# ---------------------------------------------------------------------------

def inv_raw(q: Distribution, mech: FiniteMechanism) -> np.ndarray:
    """Invert the mechanism on the empirical output frequencies: v = q M^-1,
    with ``q`` over the observed values (``to_empirical``).

    The result may have negative components and is therefore returned as a
    plain vector for post-processing.  SingularMechanismError is raised when
    the condition number exceeds CONDITION_LIMIT.  The mechanism's cached
    full-rank certificate (``FiniteMechanism.full_rank_certified``), which
    ``identification_check`` also reads, bounds it by 1 / (RANK_TOL k)
    <= 1e10; only when that certificate fails is the condition number
    computed, from the cached singular values.
    """
    if not isinstance(mech, FiniteMechanism) or not mech.is_square:
        raise NonSquareMechanismError("matrix inversion requires a square finite mechanism")
    M = mech.matrix
    qvec = np.zeros(len(mech.outputs))
    for v, p in zip(q.alphabet.values, q.probs):
        qvec[mech.output_index(v)] = p
    if not mech.full_rank_certified:
        cond = mech.condition_number
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise SingularMechanismError(
                f"mechanism condition number {cond:.3e} exceeds the limit {CONDITION_LIMIT:.1e}"
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
    """Per-position counts of set bits over an ObservationSet of bit vectors,
    as int64.  One BLAS product gives them: every partial sum is an integer
    of at most n, which float32 holds exactly while n < 2^24 and float64
    while n < 2^53; above that the product is taken in int64."""
    bits = rappor_bits(obs.reports, alphabet.size)
    if obs.n >= 2 ** 53:
        return obs.count_array @ bits
    exact = np.float32 if obs.n < 2 ** 24 else np.float64
    return (obs.count_array.astype(exact) @ bits).astype(np.int64)


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
