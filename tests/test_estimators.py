"""Estimators: IBU fixed points, matrix inversion, projection, RAPPOR decode."""

import math

import numpy as np
import pytest

from privdist.analysis import log_likelihood, strict_concavity_check
from privdist.core import (
    CategoricalAlphabet,
    Distribution,
    Empirical,
    FiniteMechanism,
    LinearAlphabet,
    ObservationSet,
    distribution_new,
    obs_matrix,
    to_empirical,
)
from privdist.errors import (
    AllNonPositiveError,
    DeadColumnError,
    DegeneratePError,
    NonSquareMechanismError,
    ObservationOutsideDomainError,
    SingularMechanismError,
    ZeroSupportStartError,
)
from privdist.estimators import (
    ibu,
    inv_normalize,
    inv_project,
    inv_raw,
    project_to_simplex,
    rappor_decode,
)
from privdist.mechanisms import build_krr, build_rappor, obfuscate_dataset

AB = CategoricalAlphabet(["a", "b"])
SYM = FiniteMechanism(AB, AB.values, [[0.75, 0.25], [0.25, 0.75]])


def _obs_q(counts):
    return obs_matrix(SYM, ObservationSet(counts))


class TestIbu:
    def test_identity_copies_empirical(self):
        mech = FiniteMechanism(AB, AB.values, np.eye(2), kind="identity")
        G = obs_matrix(mech, ObservationSet({"a": 7, "b": 3}))
        res = ibu(G)
        np.testing.assert_allclose(res.estimate.probs, [0.7, 0.3], atol=1e-12)
        assert res.converged and res.iterations <= 2

    def test_one_step_update(self):
        # theta1 from the uniform start, by hand:
        # mix = (0.5, 0.5); theta1_a = 0.75*0.75 + 0.25*0.25 = 0.625
        res = ibu(_obs_q({"a": 3, "b": 1}), max_iter=1)
        np.testing.assert_allclose(res.estimate.probs, [0.625, 0.375], atol=1e-12)

    def test_limit_is_inverse_solution(self):
        # solving theta M = q for q = (0.75, 0.25) gives theta = (1, 0); the
        # maximizer sits on the boundary so convergence is slow and the run
        # needs a large iteration budget to land within 1e-6
        res = ibu(_obs_q({"a": 3, "b": 1}), delta=1e-30, max_iter=1_000_000)
        assert abs(res.estimate.probs[0] - 1.0) < 1e-6
        assert abs(res.estimate.probs[1]) < 1e-6

    def test_point_mass_mle_from_any_start(self):
        # kernel with one dominant column entry: four reports of the middle
        # output force the point mass (0, 1, 0) whatever the start
        alpha = CategoricalAlphabet(["1", "2", "3"])
        m = np.array([[0.45, 0.10, 0.45], [0.05, 0.90, 0.05], [0.45, 0.10, 0.45]])
        mech = FiniteMechanism(alpha, alpha.values, m)
        G = obs_matrix(mech, ObservationSet({"2": 4}))
        rng = np.random.default_rng(17)
        for _ in range(5):
            start = distribution_new(alpha, rng.dirichlet(np.ones(3)))
            res = ibu(G, theta0=start)
            np.testing.assert_allclose(res.estimate.probs, [0, 1, 0], atol=1e-6)

    def test_zero_support_start_rejected(self):
        with pytest.raises(ZeroSupportStartError):
            ibu(_obs_q({"a": 1}), theta0=Distribution(AB, [1.0, 0.0]))

    def test_dead_column_rejected(self):
        alpha = CategoricalAlphabet(["a", "b"])
        mech = FiniteMechanism(alpha, ("u", "v"), [[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DeadColumnError):
            ibu(obs_matrix(mech, ObservationSet({"v": 1})))

    def test_loglik_trace_monotone(self):
        rng = np.random.default_rng(2)
        alpha = LinearAlphabet.range(0, 3)
        mech = FiniteMechanism(alpha, alpha.values, rng.dirichlet(np.ones(4), size=4))
        obs = obfuscate_dataset(mech, list(rng.integers(0, 4, size=300)), rng)
        res = ibu(obs_matrix(mech, obs))
        diffs = np.diff(res.loglik_trace)
        assert np.all(diffs >= -1e-9)
        assert res.converged and abs(diffs[-1]) < 1e-10

    def test_mass_conserved_each_run(self):
        res = ibu(_obs_q({"a": 5, "b": 2}), max_iter=17)
        assert abs(res.estimate.probs.sum() - 1.0) < 1e-9

    def test_unique_mle_under_strict_concavity(self):
        # well-conditioned random kernels: all starts must meet at the same
        # point when the likelihood is strictly concave
        rng = np.random.default_rng(23)
        for _ in range(5):
            k = int(rng.integers(2, 5))
            alpha = LinearAlphabet.range(0, k - 1)
            m = 0.5 * np.eye(k) + 0.5 * rng.dirichlet(np.ones(k), size=k)
            m /= m.sum(axis=1, keepdims=True)
            mech = FiniteMechanism(alpha, alpha.values, m)
            obs = obfuscate_dataset(mech, list(rng.integers(0, k, size=500)), rng)
            G = obs_matrix(mech, obs)
            assert strict_concavity_check(G).strictly_concave
            estimates = []
            for _ in range(10):
                start = distribution_new(alpha, rng.dirichlet(np.ones(k)))
                estimates.append(ibu(G, theta0=start, delta=1e-13).estimate.probs)
            for a in estimates:
                for b in estimates:
                    assert 0.5 * np.abs(a - b).sum() <= 1e-4


class TestInvRaw:
    def test_identity(self):
        mech = FiniteMechanism(AB, AB.values, np.eye(2), kind="identity")
        q = to_empirical(ObservationSet({"a": 7, "b": 3}))
        np.testing.assert_allclose(inv_raw(q, mech), [0.7, 0.3], atol=1e-12)

    def test_hand_inverse(self):
        # M^-1 = ((1.5, -0.5), (-0.5, 1.5)); q = (0.75, 0.25) -> (1, 0)
        q = to_empirical(ObservationSet({"a": 3, "b": 1}))
        np.testing.assert_allclose(inv_raw(q, SYM), [1.0, 0.0], atol=1e-12)

    def test_negative_component(self):
        # q = (1, 0) -> v = (1.5, -0.5): not a distribution
        q = to_empirical(ObservationSet({"a": 4}))
        np.testing.assert_allclose(inv_raw(q, SYM), [1.5, -0.5], atol=1e-12)

    def test_singular_rejected(self):
        mech = FiniteMechanism(AB, AB.values, [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(SingularMechanismError):
            inv_raw(to_empirical(ObservationSet({"a": 1})), mech)

    def test_non_square_rejected(self):
        mech = FiniteMechanism(AB, ("u", "v", "w"), [[0.5, 0.25, 0.25], [0.2, 0.4, 0.4]])
        with pytest.raises(NonSquareMechanismError):
            inv_raw(to_empirical(ObservationSet({"u": 1})), mech)

    def test_report_outside_outputs_rejected(self):
        with pytest.raises(ObservationOutsideDomainError):
            inv_raw(to_empirical(ObservationSet({"a": 2, "c": 1})), SYM)


class TestPostProcessing:
    def test_normalize_clips_and_scales(self):
        d = inv_normalize([1.5, -0.5], AB)
        np.testing.assert_allclose(d.probs, [1.0, 0.0])

    def test_normalize_keeps_distribution(self):
        d = inv_normalize([0.5, 0.5], AB)
        np.testing.assert_allclose(d.probs, [0.5, 0.5])

    def test_all_non_positive(self):
        with pytest.raises(AllNonPositiveError):
            inv_normalize([-1.0, -2.0], AB)

    def test_project_hand_case(self):
        # KKT by hand: shift by lambda = -0.2, clip -> (1, 0)
        np.testing.assert_allclose(project_to_simplex([1.2, -0.2]), [1.0, 0.0], atol=1e-12)

    def test_project_symmetric(self):
        np.testing.assert_allclose(project_to_simplex([0.5, 0.5, 0.5]), 1 / 3)

    def test_project_idempotent_on_simplex(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = rng.dirichlet(np.ones(5))
            np.testing.assert_allclose(project_to_simplex(v), v, atol=1e-12)

    def test_projection_is_closest_point(self):
        # the projection beats 100 random feasible points in distance
        rng = np.random.default_rng(9)
        v = rng.normal(size=6)
        p = project_to_simplex(v)
        base = np.linalg.norm(p - v)
        for _ in range(100):
            d = rng.dirichlet(np.ones(6))
            assert base <= np.linalg.norm(d - v) + 1e-12


class TestRapporDecode:
    def test_noiseless_limit(self):
        # p -> 1: the debiased estimate reduces to the raw frequencies
        alpha = CategoricalAlphabet(["x", "y"])
        d = rappor_decode([75, 25], 100, alpha, 60.0, post="normalize")
        np.testing.assert_allclose(d.probs, [0.75, 0.25], atol=1e-9)

    def test_flat_counts_project_to_uniform(self):
        # p = 3/4 and count/n = 1/4 on both positions gives t = (0, 0); the
        # projection of the zero vector is uniform
        alpha = CategoricalAlphabet(["x", "y"])
        eps = 2.0 * math.log(3.0)
        d = rappor_decode([25, 25], 100, alpha, eps, post="project")
        np.testing.assert_allclose(d.probs, [0.5, 0.5], atol=1e-12)

    def test_degenerate_p(self):
        with pytest.raises(DegeneratePError):
            rappor_decode([1, 1], 2, CategoricalAlphabet(["x", "y"]), 0.0)

    def test_bit_expectation_monte_carlo(self):
        # E[count_y / n] = p theta_y + (1-p)(1-theta_y), checked at 4 sigma
        alpha = LinearAlphabet.range(0, 2)
        eps = 1.0
        mech = build_rappor(alpha, eps)
        theta = np.array([0.6, 0.3, 0.1])
        rng = np.random.default_rng(31)
        n = 100_000
        data = [int(v) for v in rng.choice(3, size=n, p=theta)]
        obs = obfuscate_dataset(mech, data, rng)
        counts = np.zeros(3)
        for beta, c in obs.items():
            counts += c * np.array(beta)
        p = mech.keep_prob
        for y in range(3):
            expected = p * theta[y] + (1 - p) * (1 - theta[y])
            tol = 4.0 * math.sqrt(expected * (1 - expected) / n) + 4.0 * math.sqrt(
                theta[y] * (1 - theta[y]) / n
            )
            assert abs(counts[y] / n - expected) < tol

    def test_decode_recovers_distribution(self):
        alpha = LinearAlphabet.range(0, 3)
        mech = build_rappor(alpha, 2.0)
        theta = np.array([0.4, 0.3, 0.2, 0.1])
        rng = np.random.default_rng(8)
        data = [int(v) for v in rng.choice(4, size=50_000, p=theta)]
        obs = obfuscate_dataset(mech, data, rng)
        counts = np.zeros(4)
        for beta, c in obs.items():
            counts += c * np.array(beta)
        d = rappor_decode(counts, obs.n, alpha, 2.0, post="project")
        assert 0.5 * np.abs(d.probs - theta).sum() < 0.03
