"""Randomized invariant suites, 1000 cases each.

All cases run from a fixed master generator so the suite is deterministic.
The five ``check_*`` suites are not collected here: acceptance criterion 11
(``tests/test_acceptance.py``) runs each of them once, as its parameters.
"""

import math

import numpy as np

from privdist.core import (
    Distribution,
    FiniteMechanism,
    LinearAlphabet,
    ObservationSet,
    PlanarAlphabet,
    distribution_new,
    obs_matrix,
)
from privdist.estimators import ibu, project_to_simplex
from privdist.mechanisms import (
    build_exponential,
    build_geometric_truncated,
    build_krr,
    build_laplace_linear_discretized,
    build_rappor,
)
from privdist.metrics import emd_planar

from oracles import cond_prob, sample_counts

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
