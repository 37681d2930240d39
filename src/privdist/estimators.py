"""Estimators that recover the original distribution from noisy reports.

``ibu`` is the expectation-maximization fixed-point iteration, accelerated
by SQUAREM; it maximizes the log-likelihood of the observed reports and
stops once a certificate bounds its distance to the maximum by ``tol``
nats (``IbuResult.gap``).  ``inv_raw`` inverts the mechanism
matrix directly and is post-processed either by clip-and-normalize
(``inv_normalize``) or by Euclidean projection onto the probability simplex
(``inv_project``).  ``rappor_decode`` is the per-bit debiasing estimator for
one-hot bit-vector reports.
"""

from __future__ import annotations

import math
from itertools import chain

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
# Estimate entries below this are set to exactly zero after each step:
# subnormal entries make every later iteration several times slower.
FLUSH_BELOW = 1e-250
# A rejected SQUAREM jump is retried with its step length divided by this.
BACKTRACK = 4.0


class IbuResult:
    """Outcome of an IBU run: the estimate, the log-likelihood trace, the
    certified gap the stopping rule last tested, and whether that gap was
    within the tolerance before ``max_iter`` EM-map evaluations."""

    __slots__ = ("estimate", "iterations", "loglik_trace", "converged", "gap")

    def __init__(self, estimate: Distribution, iterations: int,
                 loglik_trace: list, converged: bool, gap: float):
        self.estimate = estimate
        self.iterations = iterations
        self.loglik_trace = loglik_trace
        self.converged = converged
        self.gap = gap

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate.to_dict(),
            "iterations": self.iterations,
            "converged": self.converged,
            "gap": self.gap,
            "loglik": [float(v) for v in self.loglik_trace],
        }

    def __repr__(self):
        return (
            f"IbuResult(iterations={self.iterations}, converged={self.converged}, "
            f"gap={self.gap:.3g}, loglik={self.loglik_trace[-1]:.6g})"
        )


def ibu(G: ObsMatrix, theta0: Distribution = None, tol: float = DEFAULT_TOL,
        max_iter: int = DEFAULT_MAX_ITER) -> IbuResult:
    """Iterative Bayesian update, accelerated by SQUAREM and stopped on a
    certified likelihood gap.

    The EM map is theta[x] <- theta[x] g[x] with g = A (q / (theta A)).  By
    Jensen's inequality the maximum log-likelihood exceeds L(theta) by at
    most n log max_x g[x], so the run stops at the first iterate whose gap
    is at most ``tol`` nats.  Iterates alternate between a plain EM step
    theta1 = F(theta) and a SQUAREM jump from theta,
    theta - 2 a r + a^2 v with r = theta1 - theta, v = F(theta1) - 2 theta1
    + theta and the SqS3 step a = -|r|/|v| (Varadhan & Roland, Scand. J.
    Stat. 2008).  A jump with a negative entry, or with a lower likelihood
    than theta1, is retried with a shorter step, down to F(theta1) itself
    (a = -1).  So ``loglik_trace``, one entry per iterate, does not fall
    beyond rounding.  Entries below ``FLUSH_BELOW`` are set to zero; the
    certificate covers them too.

    ``max_iter`` caps the EM-map evaluations, counted in ``iterations``;
    reaching it returns ``converged=False``.  ``max_iter=1`` is one plain EM
    step.  The start must have full support; every observed column must have
    at least one strictly positive entry.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    A = G.matrix
    weights = G.weights
    q = G.q
    n = G.n

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
    mix = theta.dot(A)
    loglik = float(weights.dot(np.log(mix)))
    trace = [loglik]
    base = None  # when theta is a plain EM step, the iterate it was taken from
    iterations = 0
    converged = False
    gap = math.inf
    # ndarray.dot has less call overhead than the @ operator, which matters
    # at small alphabet sizes.  A report made impossible gives log 0 = -inf.
    with np.errstate(divide="ignore"):
        while iterations < max_iter:
            g = A.dot(q / mix)
            iterations += 1
            gap = n * math.log(g.max())
            if gap <= tol:
                converged = True
                break
            step = theta * g
            if base is None:
                candidates, base = (step,), theta
            else:
                candidates, base = chain(_squarem_jumps(base, theta, step), (step,)), None
            for new in candidates:
                new /= new.sum()
                new[new < FLUSH_BELOW] = 0.0
                new_mix = new.dot(A)
                # The change is taken on the mixture ratios: it keeps its
                # precision long after the two large log-likelihoods stop
                # resolving it.
                gain = float(weights.dot(np.log(new_mix / mix)))
                if gain >= 0.0 or new is step:
                    break
            theta, mix = new, new_mix
            loglik += gain
            trace.append(loglik)
    return IbuResult(Distribution(G.alphabet, theta), iterations, trace, converged, gap)


def _squarem_jumps(theta, theta1, theta2):
    """The non-negative SqS3 extrapolations from theta through the EM steps
    theta1 and theta2, longest step first, each ``BACKTRACK`` times shorter
    than the last, down to the plain double step theta2 (not included)."""
    r = theta1 - theta
    v = theta2 - theta1 - r
    vv = v.dot(v)
    alpha = -math.sqrt(r.dot(r) / vv) if vv > 0.0 else -1.0
    while alpha < -1.0:
        jump = theta - 2.0 * alpha * r + alpha * alpha * v
        if jump.min() >= 0.0:
            yield jump
        alpha /= BACKTRACK


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
