"""Likelihood, strict concavity, identification, bounds, and the oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from privdist.analysis import (
    identification_check,
    inv_geometric_error_lower_bound,
    inv_krr_error_bound,
    log_likelihood,
    mle_oracle,
    rappor_concavity_prob_bound,
    strict_concavity_check,
)
from privdist.core import (
    CategoricalAlphabet,
    Distribution,
    FiniteMechanism,
    LinearAlphabet,
    ObsMatrix,
    ObservationSet,
    distribution_new,
    obs_matrix,
)
from privdist.errors import (
    AlphabetMismatchError,
    AlphabetTooLargeError,
    AlphaTooSmallError,
    TooFewObservationsError,
)
from privdist.estimators import ibu
from privdist.mechanisms import build_geometric_planar, build_krr, build_rappor, obfuscate_dataset
from privdist.core import PlanarAlphabet

A3 = CategoricalAlphabet(["1", "2", "3"])
# rows keep 0.10 for themselves, spread 0.45 to the other two outputs
ROTATING = FiniteMechanism(
    A3, A3.values,
    [[0.10, 0.45, 0.45], [0.45, 0.10, 0.45], [0.45, 0.45, 0.10]],
)
# middle row concentrates on the middle output; rows 1 and 3 coincide
PEAKED = FiniteMechanism(
    A3, A3.values,
    [[0.45, 0.10, 0.45], [0.05, 0.90, 0.05], [0.45, 0.10, 0.45]],
)


class TestLogLikelihood:
    def test_certain_observation(self):
        mech = FiniteMechanism(CategoricalAlphabet(["a", "b"]), ("a", "b"), np.eye(2))
        G = obs_matrix(mech, ObservationSet({"a": 1}))
        assert log_likelihood(G, Distribution(mech.input_alphabet, [1.0, 0.0])) == 0.0

    def test_impossible_observation(self):
        mech = FiniteMechanism(CategoricalAlphabet(["a", "b"]), ("a", "b"), np.eye(2))
        G = obs_matrix(mech, ObservationSet({"b": 1}))
        assert log_likelihood(G, Distribution(mech.input_alphabet, [1.0, 0.0])) == -math.inf

    def test_flat_direction_has_equal_values(self):
        # with only the middle output observed, the two extreme point masses
        # cannot be told apart: both score log 0.45
        G = obs_matrix(ROTATING, ObservationSet({"2": 1}))
        la = log_likelihood(G, Distribution(A3, [1.0, 0.0, 0.0]))
        lb = log_likelihood(G, Distribution(A3, [0.0, 0.0, 1.0]))
        assert la == pytest.approx(math.log(0.45), rel=1e-12)
        assert lb == pytest.approx(la, rel=1e-12)

    def test_alphabet_mismatch(self):
        G = obs_matrix(ROTATING, ObservationSet({"2": 1}))
        other = Distribution(CategoricalAlphabet(["x", "y", "z"]), [1 / 3] * 3)
        with pytest.raises(AlphabetMismatchError):
            log_likelihood(G, other)

    def test_concavity_inequality(self):
        # L(gamma a + (1-gamma) b) >= gamma L(a) + (1-gamma) L(b), with
        # equality exactly on flat directions of the column span
        rng = np.random.default_rng(14)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            alpha = LinearAlphabet.range(0, k - 1)
            mech = FiniteMechanism(alpha, alpha.values, rng.dirichlet(np.ones(k), size=k))
            obs = obfuscate_dataset(mech, list(rng.integers(0, k, size=30)), rng)
            G = obs_matrix(mech, obs)
            a = rng.dirichlet(np.ones(k))
            b = rng.dirichlet(np.ones(k))
            g = rng.uniform(0.05, 0.95)
            lhs = log_likelihood(G, g * a + (1 - g) * b)
            rhs = g * log_likelihood(G, a) + (1 - g) * log_likelihood(G, b)
            assert lhs >= rhs - 1e-9
            if np.max(np.abs((a - b) @ G.matrix)) < 1e-9:
                assert abs(lhs - rhs) < 1e-9

    def test_equality_on_constructed_flat_pair(self):
        G = obs_matrix(ROTATING, ObservationSet({"2": 5}))
        base = np.array([0.4, 0.3, 0.3])
        shifted = base + 0.2 * np.array([1.0, 0.0, -1.0])  # annihilated by the column
        lhs = log_likelihood(G, 0.5 * base + 0.5 * shifted)
        rhs = 0.5 * log_likelihood(G, base) + 0.5 * log_likelihood(G, shifted)
        assert abs(lhs - rhs) < 1e-9


class TestStrictConcavity:
    def test_single_column_not_concave_with_witness(self):
        G = obs_matrix(ROTATING, ObservationSet({"2": 1}))
        rep = strict_concavity_check(G)
        assert not rep.strictly_concave
        assert rep.rank_found == 2 and rep.rank_required == 3
        # null-space oracle: the witness must be a multiple of (1, 0, -1)
        w = rep.witness
        assert np.max(np.abs(w)) == pytest.approx(1.0)
        np.testing.assert_allclose(w / w[0], [1.0, 0.0, -1.0], atol=1e-9)
        assert abs(w.sum()) < 1e-9
        assert np.max(np.abs(w @ G.matrix)) < 1e-9

    def test_two_columns_concave(self):
        G = obs_matrix(ROTATING, ObservationSet({"2": 1, "1": 1}))
        assert strict_concavity_check(G).strictly_concave

    def test_peaked_kernel_more_observations_still_flat(self):
        G = obs_matrix(PEAKED, ObservationSet({"2": 4, "1": 1, "3": 1}))
        assert not strict_concavity_check(G).strictly_concave

    def test_invariant_under_duplication_and_reorder(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            alpha = LinearAlphabet.range(0, k - 1)
            mech = FiniteMechanism(alpha, alpha.values, rng.dirichlet(np.ones(k), size=k))
            obs = obfuscate_dataset(mech, list(rng.integers(0, k, size=10)), rng)
            G = obs_matrix(mech, obs)
            verdict = strict_concavity_check(G).strictly_concave
            dup = ObsMatrix(alpha, tuple(G.values) + tuple(G.values),
                            np.hstack([G.matrix, G.matrix]),
                            np.concatenate([G.weights, G.weights]))
            assert strict_concavity_check(dup).strictly_concave == verdict
            perm = rng.permutation(len(G.values))
            shuffled = ObsMatrix(alpha, tuple(G.values[j] for j in perm),
                                 G.matrix[:, perm], G.weights[perm])
            assert strict_concavity_check(shuffled).strictly_concave == verdict


@pytest.fixture(scope="module")
def rappor_k64():
    """RAPPOR, k = 64, eps = 3, n = 4000: nearly every report is distinct and
    the kernel columns are of order 1e-21 to 1e-7."""
    mech = build_rappor(LinearAlphabet.range(0, 63), 3.0)
    rng = np.random.default_rng(64)
    obs = obfuscate_dataset(mech, [int(x) for x in rng.integers(0, 64, size=4000)], rng)
    return obs_matrix(mech, obs)


class TestStrictConcavityAtScale:
    def test_rappor_small_columns_full_rank(self, rappor_k64):
        # rappor_concavity_prob_bound(64, 3, 4000) is 1.0, so the verdict
        # must not depend on how small the probabilities are
        rep = strict_concavity_check(rappor_k64)
        assert rep.strictly_concave and rep.rank_found == 64

    def test_memory_linear_in_columns(self, rappor_k64):
        # a full SVD would build a 4001 x 4001 right factor (128 MB)
        assert len(rappor_k64.values) > 3900
        tracemalloc.start()
        try:
            strict_concavity_check(rappor_k64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestIdentification:
    def test_krr_identifies(self):
        # determinant oracle: the 3x3 k-RR matrix with e^eps = 2 has
        # det = (a-b)^2 (a+2b) with a=0.5, b=0.25, clearly nonzero
        mech = build_krr(A3, math.log(2.0))
        assert identification_check(mech)

    def test_duplicate_rows_fail(self):
        assert not identification_check(PEAKED)

    def test_planar_truncation_fails(self):
        inp = PlanarAlphabet.grid(5, 5, 1.0)
        out = PlanarAlphabet.grid(4, 4, 1.0)
        mech = build_geometric_planar(inp, out, 0.5)
        assert not identification_check(mech)

    def test_identification_gives_concavity_on_full_output_set(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            alpha = LinearAlphabet.range(0, k - 1)
            mech = FiniteMechanism(alpha, alpha.values, rng.dirichlet(np.ones(k), size=k))
            if identification_check(mech):
                obs = ObservationSet({z: 1 for z in alpha.values})
                assert strict_concavity_check(obs_matrix(mech, obs)).strictly_concave


class TestBounds:
    def test_rappor_bound_near_one(self):
        b = rappor_concavity_prob_bound(10, 1.0, 25)
        assert b > 0.99

    def test_rappor_bound_clamps_to_zero(self):
        assert rappor_concavity_prob_bound(10, 1.0, 10) == 0.0

    def test_rappor_bound_monotone_in_n(self):
        values = [rappor_concavity_prob_bound(6, 0.5, n) for n in range(6, 60, 3)]
        assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))

    def test_rappor_bound_needs_enough_observations(self):
        with pytest.raises(TooFewObservationsError):
            rappor_concavity_prob_bound(10, 1.0, 9)

    def test_krr_bound_values(self):
        # direct evaluation: ((e^2 + 99) / (e^2 - 1))^2 = 277.28...
        e2 = math.exp(2.0)
        expected = ((e2 + 99.0) / (e2 - 1.0)) ** 2
        assert inv_krr_error_bound(100, 2.0, 1) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(277.28, abs=0.01)
        # ((3 + 1) / 2)^2 = 4
        assert inv_krr_error_bound(2, math.log(3.0), 1) == pytest.approx(4.0, rel=1e-12)

    def test_krr_bound_scales_inversely(self):
        assert inv_krr_error_bound(5, 1.0, 10) == pytest.approx(
            inv_krr_error_bound(5, 1.0, 1) / 10.0
        )

    def test_geometric_bound_values(self):
        # direct evaluation at eps = 0.05: a = e^-0.05, b = 1/(1-a)
        a = math.exp(-0.05)
        b = 1.0 / (1.0 - a)
        expected = b ** 3 - 2.0 * a * b ** 2 - 2.0
        assert inv_geometric_error_lower_bound(0.05, 1) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(7818.56, abs=0.5)

    def test_geometric_bound_requires_small_eps(self):
        # the guard trips exactly at eps >= ln 2 (e^-eps <= 1/2)
        with pytest.raises(AlphaTooSmallError):
            inv_geometric_error_lower_bound(0.7, 1)
        with pytest.raises(AlphaTooSmallError):
            inv_geometric_error_lower_bound(math.log(2.0), 1)
        assert inv_geometric_error_lower_bound(0.6, 1) > 0

    def test_geometric_bound_scales_inversely(self):
        assert inv_geometric_error_lower_bound(0.1, 100) == pytest.approx(
            inv_geometric_error_lower_bound(0.1, 1) / 100.0
        )


class TestMleOracle:
    def test_identity_recovers_empirical(self):
        mech = FiniteMechanism(CategoricalAlphabet(["a", "b"]), ("a", "b"), np.eye(2))
        G = obs_matrix(mech, ObservationSet({"a": 7, "b": 3}))
        best = mle_oracle(G, grid_step=0.05)
        np.testing.assert_allclose(best.probs, [0.7, 0.3], atol=0.05)

    def test_point_mass_instance(self):
        G = obs_matrix(PEAKED, ObservationSet({"2": 4}))
        best = mle_oracle(G, grid_step=0.05)
        np.testing.assert_allclose(best.probs, [0.0, 1.0, 0.0], atol=0.05)

    def test_agrees_with_ibu(self):
        # positional agreement needs a well-separated maximum, so the random
        # kernels are kept diagonally dominant; near-singular kernels have
        # flat valleys where equal likelihood does not pin the location
        rng = np.random.default_rng(12)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            alpha = LinearAlphabet.range(0, k - 1)
            m = 0.5 * np.eye(k) + 0.5 * rng.dirichlet(np.ones(k), size=k)
            m /= m.sum(axis=1, keepdims=True)
            mech = FiniteMechanism(alpha, alpha.values, m)
            obs = obfuscate_dataset(mech, list(rng.integers(0, k, size=200)), rng)
            G = obs_matrix(mech, obs)
            a = ibu(G, tol=1e-12).estimate.probs
            b = mle_oracle(G, grid_step=0.05).probs
            assert 0.5 * np.abs(a - b).sum() <= 0.1

    def test_alphabet_too_large(self):
        alpha = LinearAlphabet.range(0, 5)
        mech = FiniteMechanism(alpha, alpha.values, np.eye(6))
        G = obs_matrix(mech, ObservationSet({0: 1}))
        with pytest.raises(AlphabetTooLargeError):
            mle_oracle(G)
