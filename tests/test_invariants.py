"""Randomized invariant suites, 1000 cases each.

All cases run from a fixed master generator so the suite is deterministic.
The six ``check_*`` suites are not collected here: acceptance criterion 11
(``tests/test_acceptance.py``) runs each of them once, as its parameters.
"""

import math

import numpy as np
import pytest

from privdist.analysis import identification_check
from privdist.core import (
    RANK_TOL,
    Distribution,
    FiniteMechanism,
    LinearAlphabet,
    ObservationSet,
    ObsMatrix,
    PlanarAlphabet,
    distribution_new,
    obs_matrix,
    to_empirical,
)
from privdist.errors import SingularMechanismError
from privdist.estimators import CONDITION_LIMIT, ibu, inv_raw, project_to_simplex
from privdist.mechanisms import (
    build_exponential,
    build_geometric_truncated,
    build_krr,
    build_laplace_linear_discretized,
    build_rappor,
)
from privdist.metrics import emd_planar

from oracles import cond_prob, sample_counts
from test_analysis import _same_report

CASES = 1000


def check_em_monotonicity_1000_cases():
    rng = np.random.default_rng(20_240_001)
    for _ in range(CASES):
        k = int(rng.integers(2, 6))
        alpha = LinearAlphabet.range(0, k - 1)
        kernel = rng.dirichlet(np.ones(k), size=k)
        mech = FiniteMechanism(alpha, alpha.values, kernel)
        n_distinct = int(rng.integers(1, k + 1))
        counts = {int(z): int(c) for z, c in zip(
            rng.choice(k, size=n_distinct, replace=False),
            rng.integers(1, 50, size=n_distinct),
        )}
        G = obs_matrix(mech, ObservationSet(counts))
        start = distribution_new(alpha, rng.dirichlet(np.ones(k)))
        res = ibu(G, theta0=start, max_iter=40)
        assert np.all(np.diff(res.loglik_trace) >= -1e-9)
        assert abs(res.estimate.probs.sum() - 1.0) < 1e-9


def check_row_stochasticity_1000_cases():
    rng = np.random.default_rng(20_240_002)
    for case in range(CASES):
        pick = case % 4
        if pick == 0:
            k = int(rng.integers(2, 30))
            mech = build_krr(LinearAlphabet.range(0, k - 1), float(rng.uniform(0.01, 6.0)))
        elif pick == 1:
            lo = int(rng.integers(-20, 0))
            hi = lo + int(rng.integers(1, 25))
            mech = build_geometric_truncated(lo, hi, float(rng.uniform(0.02, 3.0)))
        elif pick == 2:
            k = int(rng.integers(1, 20))
            mech = build_laplace_linear_discretized(
                LinearAlphabet.range(0, k - 1), float(rng.uniform(0.02, 3.0))
            )
        else:
            k = int(rng.integers(2, 12))
            vals = np.sort(rng.choice(100, size=k, replace=False))
            alpha = LinearAlphabet([int(v) for v in vals])
            dist = np.abs(vals[:, None] - vals[None, :]).astype(float)
            mech = build_exponential(alpha, dist, float(rng.uniform(0.05, 2.0)))
        rows = mech.matrix.sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) < 1e-9
        assert mech.matrix.min() >= 0.0


def check_simplex_projection_optimality_1000_cases():
    rng = np.random.default_rng(20_240_003)
    for _ in range(CASES):
        k = int(rng.integers(2, 10))
        v = rng.normal(scale=rng.uniform(0.5, 3.0), size=k)
        p = project_to_simplex(v)
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) < 1e-9
        base = np.linalg.norm(p - v)
        for _ in range(5):
            d = rng.dirichlet(np.ones(k))
            assert base <= np.linalg.norm(d - v) + 1e-12
        # projecting the projection changes nothing
        np.testing.assert_allclose(project_to_simplex(p), p, atol=1e-9)


def check_emd_metric_axioms_1000_cases():
    rng = np.random.default_rng(20_240_004)
    grids = [PlanarAlphabet.grid(2, 2, 0.5), PlanarAlphabet.grid(3, 2, 1.0),
             PlanarAlphabet.grid(3, 3, 0.7)]
    for case in range(CASES):
        g = grids[case % len(grids)]
        p = Distribution(g, rng.dirichlet(np.ones(g.size)))
        q = Distribution(g, rng.dirichlet(np.ones(g.size)))
        r = Distribution(g, rng.dirichlet(np.ones(g.size)))
        dpq = emd_planar(p, q)
        dqp = emd_planar(q, p)
        dpr = emd_planar(p, r)
        drq = emd_planar(r, q)
        assert dpq >= 0.0
        assert abs(dpq - dqp) < 1e-9
        assert dpq <= dpr + drq + 1e-9
        assert emd_planar(p, p) < 1e-9


def check_sampler_matches_kernel_1000_cases():
    rng = np.random.default_rng(20_240_005)
    n = 100_000
    for case in range(CASES):
        pick = case % 3
        if pick == 0:
            k = int(rng.integers(2, 7))
            mech = build_krr(LinearAlphabet.range(0, k - 1), float(rng.uniform(0.2, 4.0)))
        elif pick == 1:
            lo = 0
            hi = int(rng.integers(2, 8))
            mech = build_geometric_truncated(lo, hi, float(rng.uniform(0.2, 2.0)))
            k = hi + 1
        else:
            k = int(rng.integers(2, 5))
            alpha = LinearAlphabet.range(0, k - 1)
            mech = FiniteMechanism(alpha, alpha.values, rng.dirichlet(np.ones(k), size=k))
        x = int(rng.integers(0, k))
        counts = sample_counts(mech, x, n, rng)
        row = mech.row(x)
        for j, z in enumerate(mech.outputs):
            p = row[j]
            if p >= 0.01:
                tol = 4.0 * math.sqrt(p * (1.0 - p) / n)
                assert abs(counts.get(z, 0) / n - p) < tol, (case, z, p)


def _stochastic_with_spectrum(rng, k, m):
    """A k x m row-stochastic U diag(s) V^T: J/m, the top singular term, plus
    k - 1 terms orthogonal to the ones vectors, whose singular values fall
    from t to t * 10^-p, p in [2, 14], with t keeping every entry positive."""
    u = np.linalg.qr(np.column_stack([np.ones(k), rng.normal(size=(k, k - 1))]))[0][:, 1:]
    v = np.linalg.qr(np.column_stack([np.ones(m), rng.normal(size=(m, k - 1))]))[0][:, 1:]
    rest = (u * np.logspace(0.0, -rng.uniform(2.0, 14.0), k - 1)) @ v.T
    return 1.0 / m + rest * (0.9 / m / np.abs(rest).max())


def _wide_obs_matrix(rng):
    """A k x m observation matrix with m + 1 > 2k columns, so the concavity
    check tries its sample first: one row is a mix of two others plus
    10^-p noise, p in [1, 15], and some columns are zero or tiny."""
    k = int(rng.integers(2, 7))
    m = int(rng.integers(2 * k, 8 * k))
    matrix = rng.uniform(0.05, 1.0, size=(k, m))
    mix = rng.uniform()
    matrix[0] = np.clip(mix * matrix[1] + (1 - mix) * matrix[-1]
                        + 10.0 ** -rng.uniform(1.0, 15.0) * rng.uniform(-1.0, 1.0, m), 0.0, 1.0)
    matrix[:, rng.random(m) < 0.1] = 0.0
    matrix[:, rng.random(m) < 0.1] *= 1e-200
    return ObsMatrix(LinearAlphabet.range(0, k - 1), range(m), matrix, rng.integers(1, 9, size=m))


def check_rank_certificate_1000_cases():
    """``identification_check``, ``inv_raw``'s accept-or-raise decision and
    output, and ``strict_concavity_check``'s report equal the SVD rules
    wherever the Cholesky certificate decides."""
    rng = np.random.default_rng(20_240_007)
    for case in range(CASES):
        if case % 3 == 2:
            _same_report(_wide_obs_matrix(rng))
            continue
        k = int(rng.integers(2, 9))
        m = k if rng.random() < 0.5 else int(rng.integers(k - 1, 3 * k + 1))
        if case % 3 == 0:
            matrix = rng.dirichlet(np.full(m, float(rng.choice([0.05, 1.0, 20.0]))), size=k)
        else:
            m = max(m, k)
            matrix = _stochastic_with_spectrum(rng, k, m)
        alphabet = LinearAlphabet.range(0, k - 1)
        mech = FiniteMechanism(alphabet, range(m), matrix)
        s = np.linalg.svd(mech.matrix, compute_uv=False)
        rank = int(np.sum(s > RANK_TOL * s[0] * max(k, m)))
        assert identification_check(mech) == (rank == k), case
        counts = rng.integers(1, 50, size=m)
        if m == k:
            q = to_empirical(ObservationSet(dict(zip(range(m), counts.tolist()))))
            if s[-1] > 0 and s[0] / s[-1] <= CONDITION_LIMIT:
                want = np.linalg.solve(mech.matrix.T, counts / counts.sum())
                assert inv_raw(q, mech).tobytes() == want.tobytes(), case
            else:
                with pytest.raises(SingularMechanismError):
                    inv_raw(q, mech)
        _same_report(ObsMatrix(alphabet, range(m), mech.matrix, counts))


def test_rappor_sampler_matches_kernel_small_alphabets():
    # bit-vector mechanism checked separately: every beta with p >= 0.01
    rng = np.random.default_rng(20_240_006)
    n = 100_000
    import itertools

    for _ in range(20):
        k = int(rng.integers(2, 5))
        alpha = LinearAlphabet.range(0, k - 1)
        mech = build_rappor(alpha, float(rng.uniform(0.5, 3.0)))
        x = int(rng.integers(0, k))
        counts = sample_counts(mech, x, n, rng)
        for beta in itertools.product((0, 1), repeat=k):
            p = cond_prob(mech, x, beta)
            if p >= 0.01:
                tol = 4.0 * math.sqrt(p * (1.0 - p) / n)
                assert abs(counts.get(beta, 0) / n - p) < tol
