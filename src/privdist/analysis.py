"""Likelihood evaluation, strict-concavity and identification tests, and
error bounds for the inversion estimator.

The log-likelihood of a candidate distribution phi, given the observation
matrix, is sum_z count(z) * log(phi . column_z); it is strictly concave on
the simplex exactly when no nonzero zero-sum vector is annihilated by the
matrix, which is equivalent to rank([columns | ones]) equalling the alphabet
size.  A mechanism identifies the input distribution exactly when its matrix
has full row rank, i.e. as many linearly independent columns as inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .core import RANK_TOL, Distribution, FiniteMechanism, ObsMatrix, singular_value_exceeds
from .errors import (
    AlphabetMismatchError,
    AlphaTooSmallError,
    LengthMismatchError,
    TooFewObservationsError,
)
from .mechanisms import rappor_keep_prob, require_eps


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


def strict_concavity_check(G: ObsMatrix) -> ConcavityReport:
    """Decide strict concavity of the log-likelihood on the simplex.

    Strict concavity holds iff rank([matrix | ones]) equals the alphabet
    size: a rank deficit yields a nonzero left-null vector w of the augmented
    matrix, which has zero sum (the ones column) and satisfies w . matrix = 0,
    i.e. a flat direction of the likelihood.

    Each column is scaled to unit max-norm first.  That changes neither the
    rank nor the left null space, but keeps columns of tiny probabilities
    (RAPPOR reports over a large alphabet) from falling below the relative
    rank tolerance.

    The rank counts singular values above RANK_TOL * sigma_max * max(dims).
    With more than 2k columns, full rank is first sought on 2k columns
    spaced evenly across the canonical order, the first column and the ones
    column included: deleting columns never raises a singular value, and
    the scaled entries lie in [0, 1], so sigma_max is at most
    ||[A | 1]||_F <= sqrt(k * cols) < isqrt(k * cols) + 1.  A sample
    whose k-th singular value exceeds RANK_TOL * (isqrt(k * cols) + 1) *
    max(dims) certifies full rank; one Cholesky of the sample's Gram matrix
    decides that (``singular_value_exceeds``), and only the sampled columns
    are scaled.  Otherwise the whole matrix decides, and only then is the
    scaled [A | 1] built; a wide one goes through the QR factor of its
    transpose and one SVD, so every verdict, rank and witness is the
    full-matrix rule's.
    """
    A, k = G.matrix, G.alphabet.size
    cols = A.shape[1] + 1
    size = max(k, cols)
    if cols > 2 * k:
        picked = np.arange(2 * k - 1) * (cols - 1) // (2 * k - 1)  # and the ones column
        sample = np.ones((k, 2 * k))
        sample[:, :-1] = A[:, picked]
        if singular_value_exceeds(_unit_columns(sample),
                                  RANK_TOL * (math.isqrt(k * cols) + 1) * size):
            return ConcavityReport(True, k, k)
    augmented = _unit_columns(np.hstack([A, np.ones((k, 1))]))
    # A wide matrix (more columns than rows) equals R^T Q^T for the QR factors
    # of its transpose, so U and the singular values are those of the small
    # square R^T, and no right singular vectors are built.
    if cols > k:
        augmented = np.linalg.qr(augmented.T, mode="r").T
    u, s, _ = np.linalg.svd(augmented)
    rank = int(np.sum(s > RANK_TOL * s[0] * size))
    if rank >= k:
        return ConcavityReport(True, rank, k)
    w = u[:, rank]
    pivot = np.argmax(np.abs(w))
    w = w / w[pivot]
    return ConcavityReport(False, rank, k, witness=w)


def _unit_columns(M):
    """M with each column divided, in place, by its largest entry.  A zero
    column stays zero: dividing it by 0 would give NaN, which a Cholesky
    can pass without raising."""
    scale = M.max(axis=0)
    M /= np.where(scale > 0, scale, 1.0)
    return M


def identification_check(mech: FiniteMechanism) -> bool:
    """True iff the mechanism matrix has as many linearly independent columns
    as alphabet elements, i.e. distinct inputs induce distinct output
    distributions.  The rank counts singular values above
    RANK_TOL * sigma_max * max(dims).  The mechanism's cached Cholesky
    certificate (``full_rank_certified``) decides when it holds; otherwise
    the rank is counted on its cached singular values, so only that SVD can
    return False."""
    if mech.full_rank_certified:
        return True
    s = mech.singular_values
    rank = int(np.sum(s > RANK_TOL * s[0] * max(mech.matrix.shape)))
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
    require_eps(eps_ldp)
    a = math.exp(-eps_ldp)  # e^-eps cannot overflow; the bound is 1/n at eps = inf
    return ((1.0 + (k - 1.0) * a) / (1.0 - a)) ** 2 / n


def inv_geometric_error_lower_bound(eps_geo: float, n: int) -> float:
    """Lower bound on the expected squared error of the inverted vector under
    geometric noise: (b^3 - 2ab^2 - 2) / n with a = e^-eps, b = 1/(1 - a).
    Requires a > 1/2, i.e. eps < ln 2."""
    require_eps(eps_geo)
    if n < 1:
        raise ValueError("n must be at least 1")
    a = math.exp(-eps_geo)
    if a <= 0.5:
        raise AlphaTooSmallError(f"requires eps < ln 2, got eps={eps_geo}")
    b = 1.0 / (1.0 - a)
    return (b ** 3 - 2.0 * a * b ** 2 - 2.0) / n
