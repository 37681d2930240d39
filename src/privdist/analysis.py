"""Likelihood evaluation, strict-concavity and identification tests, error
bounds for the inversion estimator, and a brute-force likelihood oracle.

The log-likelihood of a candidate distribution phi, given the observation
matrix, is sum_z count(z) * log(phi . column_z); it is strictly concave on
the simplex exactly when no nonzero zero-sum vector is annihilated by the
matrix, which is equivalent to rank([columns | ones]) equalling the alphabet
size.  A mechanism identifies the input distribution exactly when its matrix
has full row rank, i.e. as many linearly independent columns as inputs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import Distribution, FiniteMechanism, ObsMatrix
from .errors import (
    AlphabetMismatchError,
    AlphabetTooLargeError,
    AlphaTooSmallError,
    LengthMismatchError,
    NonPositiveEpsilonError,
    TooFewObservationsError,
)
from .mechanisms import rappor_keep_prob

RANK_TOL = 1e-10


class ConcavityReport:
    """Verdict of the strict-concavity test.

    When the log-likelihood is not strictly concave, ``witness`` is a nonzero
    zero-sum vector (scaled to unit max-norm) annihilated by the observation
    matrix; adding any feasible multiple of it to a distribution leaves the
    likelihood unchanged.
    """

    __slots__ = ("strictly_concave", "rank_found", "rank_required", "witness")

    def __init__(self, strictly_concave: bool, rank_found: int,
                 rank_required: int, witness=None):
        self.strictly_concave = strictly_concave
        self.rank_found = rank_found
        self.rank_required = rank_required
        self.witness = witness

    def to_dict(self) -> dict:
        return {
            "strictly_concave": self.strictly_concave,
            "rank_found": self.rank_found,
            "rank_required": self.rank_required,
            "witness": None if self.witness is None else [float(w) for w in self.witness],
        }

    def __repr__(self):
        return (
            f"ConcavityReport(strictly_concave={self.strictly_concave}, "
            f"rank={self.rank_found}/{self.rank_required})"
        )


def log_likelihood(G: ObsMatrix, phi) -> float:
    """Weighted log-likelihood of ``phi`` for the observed reports.

    Returns -inf when some observed value has zero probability under ``phi``;
    that is a legitimate value of the likelihood, not an error.
    """
    if isinstance(phi, Distribution):
        if phi.alphabet != G.alphabet:
            raise AlphabetMismatchError("phi is over a different alphabet than the observations")
        vec = phi.probs
    else:
        vec = np.asarray(phi, dtype=float)
        if vec.shape != (G.alphabet.size,):
            raise LengthMismatchError("phi length does not match the alphabet")
    mix = vec @ G.matrix
    if np.any(mix <= 0):
        return float("-inf")
    return float(G.weights @ np.log(mix))


def _numeric_rank(matrix: np.ndarray, tol: float):
    """Rank by singular values above tol * sigma_max * max(dims), plus the
    left-null basis vectors for the discarded directions.

    U is always square; the right singular vectors are only built in full
    when they are the smaller factor, so memory stays linear in the number
    of columns.
    """
    u, s, _ = np.linalg.svd(matrix, full_matrices=matrix.shape[1] < matrix.shape[0])
    if s.size == 0 or s[0] == 0:
        return 0, u
    thresh = tol * s[0] * max(matrix.shape)
    rank = int(np.sum(s > thresh))
    return rank, u


def strict_concavity_check(G: ObsMatrix, tol: float = RANK_TOL) -> ConcavityReport:
    """Decide strict concavity of the log-likelihood on the simplex.

    Strict concavity holds iff rank([matrix | ones]) equals the alphabet
    size: a rank deficit yields a nonzero left-null vector w of the augmented
    matrix, which has zero sum (the ones column) and satisfies w . matrix = 0,
    i.e. a flat direction of the likelihood.

    Each column is scaled to unit max-norm first.  That changes neither the
    rank nor the left null space, but keeps columns of tiny probabilities
    (RAPPOR reports over a large alphabet) from falling below the relative
    rank tolerance.
    """
    k = G.alphabet.size
    augmented = np.hstack([G.matrix, np.ones((k, 1))])
    scale = augmented.max(axis=0)
    augmented /= np.where(scale > 0, scale, 1.0)
    rank, u = _numeric_rank(augmented, tol)
    if rank >= k:
        return ConcavityReport(True, rank, k)
    w = u[:, rank]
    pivot = np.argmax(np.abs(w))
    w = w / w[pivot]
    return ConcavityReport(False, rank, k, witness=w)


def identification_check(mech: FiniteMechanism, tol: float = RANK_TOL) -> bool:
    """True iff the mechanism matrix has as many linearly independent columns
    as alphabet elements, i.e. distinct inputs induce distinct output
    distributions."""
    rank, _ = _numeric_rank(mech.matrix, tol)
    return rank == mech.input_alphabet.size


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------

def rappor_concavity_prob_bound(k: int, eps_ldp: float, n: int) -> float:
    """Lower bound on the probability that n bit-vector reports make the
    log-likelihood strictly concave: prod_j max(0, 1 - p^n 2^(j-1))."""
    if n < k:
        raise TooFewObservationsError(f"need n >= k, got n={n}, k={k}")
    p = rappor_keep_prob(eps_ldp)
    log_p = math.log(p)
    out = 1.0
    for j in range(1, k + 1):
        expo = n * log_p + (j - 1) * math.log(2.0)
        if expo >= 0:
            return 0.0
        out *= max(0.0, 1.0 - math.exp(expo))
    return out


def inv_krr_error_bound(k: int, eps_ldp: float, n: int) -> float:
    """Upper bound on the expected squared error of the inverted vector under
    k-RR: ((e^eps + k - 1) / (e^eps - 1))^2 / n."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < 1:
        raise ValueError("n must be at least 1")
    if eps_ldp <= 0:
        raise NonPositiveEpsilonError("eps_ldp must be strictly positive")
    e = math.exp(eps_ldp)
    return ((e + k - 1.0) / (e - 1.0)) ** 2 / n


def inv_geometric_error_lower_bound(eps_geo: float, n: int) -> float:
    """Lower bound on the expected squared error of the inverted vector under
    geometric noise: (b^3 - 2ab^2 - 2) / n with a = e^-eps, b = 1/(1 - a).
    Requires a > 1/2, i.e. eps < ln 2."""
    if eps_geo <= 0:
        raise NonPositiveEpsilonError("eps_geo must be strictly positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    a = math.exp(-eps_geo)
    if a <= 0.5:
        raise AlphaTooSmallError(f"requires eps < ln 2, got eps={eps_geo}")
    b = 1.0 / (1.0 - a)
    return (b ** 3 - 2.0 * a * b ** 2 - 2.0) / n


# ---------------------------------------------------------------------------
# Brute-force likelihood oracle
# ---------------------------------------------------------------------------

def _lattice_points(dim: int, steps: int) -> np.ndarray:
    """All probability vectors with entries that are multiples of 1/steps."""
    points = []
    for bars in itertools.combinations(range(steps + dim - 1), dim - 1):
        prev = -1
        comp = []
        for b in bars:
            comp.append(b - prev - 1)
            prev = b
        comp.append(steps + dim - 2 - prev)
        points.append(comp)
    return np.array(points, dtype=float) / steps


def _batch_loglik(points: np.ndarray, G: ObsMatrix) -> np.ndarray:
    mix = points @ G.matrix
    out = np.full(points.shape[0], -np.inf)
    ok = np.all(mix > 0, axis=1)
    if np.any(ok):
        out[ok] = np.log(mix[ok]) @ G.weights
    return out


def mle_oracle(G: ObsMatrix, grid_step: float = 0.05) -> Distribution:
    """Exhaustive likelihood search over a simplex lattice, refined locally.

    Evaluates every lattice point with spacing ``grid_step``, then performs
    ten rounds of halving the step and hill-climbing over single mass moves
    between coordinate pairs.  Deliberately independent of the EM iteration
    so it can serve as a cross-check.
    """
    dim = G.alphabet.size
    if dim > 5:
        raise AlphabetTooLargeError("the oracle is restricted to alphabets of size <= 5")
    if grid_step > 0.05:
        raise ValueError("grid_step must be at most 0.05")
    steps = max(1, round(1.0 / grid_step))
    points = _lattice_points(dim, steps)
    ll = _batch_loglik(points, G)
    best = points[int(np.argmax(ll))].copy()
    best_ll = float(np.max(ll))

    step = 1.0 / steps
    pairs = [(i, j) for i in range(dim) for j in range(dim) if i != j]
    for _ in range(10):
        step /= 2.0
        for _ in range(400):
            candidates = []
            for i, j in pairs:
                if best[j] >= step:
                    cand = best.copy()
                    cand[i] += step
                    cand[j] -= step
                    candidates.append(cand)
            if not candidates:
                break
            cand_arr = np.array(candidates)
            cand_ll = _batch_loglik(cand_arr, G)
            top = int(np.argmax(cand_ll))
            if cand_ll[top] > best_ll:
                best = cand_arr[top]
                best_ll = float(cand_ll[top])
            else:
                break
    best = np.maximum(best, 0.0)
    return Distribution(G.alphabet, best / best.sum())
