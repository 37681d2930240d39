"""Estimators that recover the original distribution from noisy reports.

``ibu`` is the expectation-maximization fixed-point iteration; it maximizes
the log-likelihood of the observed reports and stops when the likelihood
gain per iteration falls below ``delta``.  ``inv_raw`` inverts the mechanism
matrix directly and is post-processed either by clip-and-normalize
(``inv_normalize``) or by Euclidean projection onto the probability simplex
(``inv_project``).  ``rappor_decode`` is the per-bit debiasing estimator for
one-hot bit-vector reports.
"""

from __future__ import annotations

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
    ObservationOutsideDomainError,
    SingularMechanismError,
    ZeroSupportStartError,
)
from .mechanisms import rappor_keep_prob

DEFAULT_DELTA = 1e-10
DEFAULT_MAX_ITER = 100_000
# Condition numbers beyond this make the inverted vector numerically meaningless.
CONDITION_LIMIT = 1e12


class IbuResult:
    """Outcome of an IBU run: the estimate, the log-likelihood trace, and
    whether the stopping rule fired before ``max_iter`` updates."""

    __slots__ = ("estimate", "iterations", "loglik_trace", "converged")

    def __init__(self, estimate: Distribution, iterations: int,
                 loglik_trace: list, converged: bool):
        self.estimate = estimate
        self.iterations = iterations
        self.loglik_trace = loglik_trace
        self.converged = converged

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate.to_dict(),
            "iterations": self.iterations,
            "converged": self.converged,
            "loglik": [float(v) for v in self.loglik_trace],
        }

    def __repr__(self):
        return (
            f"IbuResult(iterations={self.iterations}, converged={self.converged}, "
            f"loglik={self.loglik_trace[-1]:.6g})"
        )


def _weighted_loglik(weights: np.ndarray, mix: np.ndarray) -> float:
    if np.any(mix <= 0):
        return float("-inf")
    return float(weights @ np.log(mix))


def ibu(G: ObsMatrix, theta0: Distribution = None, delta: float = DEFAULT_DELTA,
        max_iter: int = DEFAULT_MAX_ITER) -> IbuResult:
    """Iterative Bayesian update.

    Repeats theta[x] <- sum_z q_z * theta[x] A[x,z] / (theta . A[:,z]) until
    the absolute log-likelihood change drops below ``delta`` or ``max_iter``
    updates have run (the latter sets ``converged=False`` instead of raising).
    The start must have full support; every observed column must have at
    least one strictly positive entry.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    A = G.matrix
    weights = G.weights
    q = G.q

    dead = np.flatnonzero(~(A > 0).any(axis=0))
    if dead.size:
        raise DeadColumnError(
            f"observed value {G.values[dead[0]]!r} has zero probability under every alphabet element"
        )
    if theta0 is None:
        theta0 = uniform_distribution(G.alphabet)
    if theta0.alphabet != G.alphabet:
        raise AlphabetMismatchError("the starting distribution is over a different alphabet")
    if np.any(theta0.probs <= 0):
        raise ZeroSupportStartError("the starting distribution must have full support")

    theta = theta0.probs.copy()
    mix = theta @ A
    loglik = _weighted_loglik(weights, mix)
    trace = [loglik]
    converged = False
    iterations = 0
    # ndarray.dot gives the same BLAS results as the @ operator with less
    # call overhead, which dominates an iteration at small alphabet sizes.
    # A report that becomes impossible gives log 0 = -inf, hence gain -inf.
    with np.errstate(divide="ignore"):
        while iterations < max_iter:
            theta *= A.dot(q / mix)
            theta /= theta.sum()
            iterations += 1
            new_mix = theta.dot(A)
            # The likelihood change is evaluated on the mixture ratios; this
            # is exactly L(t) - L(t-1) but keeps precision long after the
            # direct difference of the two (large) log-likelihood values
            # underflows.
            gain = float(weights.dot(np.log(new_mix / mix)))
            loglik += gain
            trace.append(loglik)
            mix = new_mix
            if abs(gain) < delta:
                converged = True
                break
    return IbuResult(Distribution(G.alphabet, theta), iterations, trace, converged)


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
        try:
            j = mech.output_index(v)
        except ObservationOutsideDomainError:
            raise
        qvec[j] = p
    cond = np.linalg.cond(M)
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
