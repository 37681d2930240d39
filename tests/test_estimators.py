"""Estimators: IBU fixed points, matrix inversion, projection, RAPPOR decode."""

import math

import numpy as np
import pytest

from privdist.analysis import identification_check, log_likelihood, strict_concavity_check
from privdist.core import (
    INTEGER_LINE,
    CategoricalAlphabet,
    Distribution,
    FiniteMechanism,
    LinearAlphabet,
    ObservationSet,
    ObsMatrix,
    PlanarAlphabet,
    distribution_new,
    obs_matrix,
    to_empirical,
    uniform_distribution,
)
from privdist.errors import (
    AllNonPositiveError,
    DeadColumnError,
    DegeneratePError,
    LengthMismatchError,
    NonSquareMechanismError,
    ObservationOutsideDomainError,
    SingularMechanismError,
    ZeroSupportStartError,
)
from privdist.dataio import Binomial, Explicit, sample_synthetic
from privdist.estimators import (
    DEFAULT_TOL,
    ibu,
    inv_normalize,
    inv_project,
    inv_raw,
    project_to_simplex,
    rappor_bit_counts,
    rappor_decode,
)
from privdist.experiment import derive_rng
from privdist.mechanisms import (
    build_geometric_linear,
    build_geometric_planar,
    build_geometric_truncated,
    build_krr,
    build_rappor,
    obfuscate_dataset,
)
from privdist.reduction import likely_krr, likely_linear, restrict_and_lift, restricted_alphabet
from test_acceptance import MASTER, ages_shaped_distribution

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
        # theta1 from the uniform start, by hand (SYM has k-RR form, so the
        # default start would already be the maximizer):
        # mix = (0.5, 0.5); theta1_a = 0.75*0.75 + 0.25*0.25 = 0.625
        res = ibu(_obs_q({"a": 3, "b": 1}), theta0=uniform_distribution(AB), max_iter=1)
        np.testing.assert_allclose(res.estimate.probs, [0.625, 0.375], atol=1e-12)

    def test_limit_is_inverse_solution(self):
        # solving theta M = q for q = (0.75, 0.25) gives theta = (1, 0); the
        # maximizer sits on the boundary so convergence is slow and the run
        # needs a large iteration budget to land within 1e-6
        res = ibu(_obs_q({"a": 3, "b": 1}), tol=1e-30, max_iter=1_000_000)
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
        G = obs_matrix(mech, obs)
        res = ibu(G)
        diffs = np.diff(res.loglik_trace)
        assert np.all(diffs >= -1e-9)
        assert res.converged and certified_gap(G, res.estimate.probs) <= DEFAULT_TOL

    def test_result_reports_last_tested_gap(self):
        # one step from the uniform start tests the start's certificate:
        # g = (1.25, 0.75), so the gap is 4 log 1.25
        res = ibu(_obs_q({"a": 3, "b": 1}), theta0=uniform_distribution(AB), max_iter=1)
        assert not res.converged
        assert res.gap == pytest.approx(4.0 * math.log(1.25), rel=1e-12)

    def test_mass_conserved_each_run(self):
        res = ibu(_obs_q({"a": 5, "b": 2}), max_iter=17)
        assert abs(res.estimate.probs.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("mech", [
        build_geometric_truncated(0, 29, 0.4),
        build_geometric_planar(PlanarAlphabet.grid(8, 8, 1.0), PlanarAlphabet.grid(8, 8, 1.0), 1.0),
    ], ids=["geometric-truncated", "planar"])
    def test_matrix_layout_does_not_move_the_estimate(self, mech):
        # the same matrix values, C- and F-ordered, give one solve bit for bit
        rng = np.random.default_rng(29)
        data = [mech.input_alphabet.values[i] for i in rng.binomial(mech.input_alphabet.size - 1, 0.3, 5000)]
        G = obs_matrix(mech, obfuscate_dataset(mech, data, rng))
        c, f = (ibu(ObsMatrix(G.alphabet, G.values, order(G.matrix), G.weights))
                for order in (np.ascontiguousarray, np.asfortranarray))
        assert c.estimate.probs.tobytes() == f.estimate.probs.tobytes()
        assert (c.iterations, c.gap, c.loglik_trace) == (f.iterations, f.gap, f.loglik_trace)
        assert c.converged

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
                estimates.append(ibu(G, theta0=start, tol=1e-12).estimate.probs)
            for a in estimates:
                for b in estimates:
                    assert 0.5 * np.abs(a - b).sum() <= 1e-4


def certified_gap(G, theta):
    """n log max_x g_x with g = A (q / (theta A)), recomputed from scratch:
    the maximum log-likelihood exceeds L(theta) by at most this."""
    q = G.weights / G.weights.sum()
    with np.errstate(divide="ignore"):
        g = G.matrix @ (q / (theta @ G.matrix))
    return G.weights.sum() * math.log(g.max())


def _krr_case(rng):
    """A random k-RR ObsMatrix and the maximizer it was built from.

    k runs from 2 to 119 and eps from 0.01 to 30, or infinite.  The observed
    values are all or a random part of the alphabet.  The maximizer theta*
    is drawn first, some of it at zero, and q is read off the water level:
    q_j = lam (theta*_j + beta) where theta*_j > 0 and q_j = lam beta c_j,
    c_j in (0, 1], at zero, with beta = b / (a - b).  Near ties put c_j
    within 1e-12 of 1, or theta*_j at 1e-12, and some entries are equal.
    The weights sum to between 1 and 1e15."""
    k = int(rng.integers(2, 120))
    eps = math.inf if rng.random() < 0.1 else float(10 ** rng.uniform(-2, math.log10(30)))
    alphabet = LinearAlphabet.range(0, k - 1)
    matrix = build_krr(alphabet, eps).matrix
    m = k if rng.random() < 0.4 else int(rng.integers(1, k + 1))
    cols = np.sort(rng.choice(k, size=m, replace=False))
    a, b = matrix.max(), matrix.min()
    beta = b / (a - b)
    theta = np.maximum(rng.dirichlet(np.full(m, float(rng.choice([0.5, 1.0, 5.0])))), 1e-9)
    if rng.random() < 0.3:
        theta[rng.integers(0, m, size=m // 2)] = theta[0]
    c = np.zeros(m)
    if b > 0 and m > 1:
        zero = rng.random(m) < rng.uniform(0.0, 0.7)
        zero[int(rng.integers(0, m))] = False
        c[zero] = rng.choice([1.0, 1.0 - 1e-12, 1.0 - 1e-15, 0.5, 1e-3], size=zero.sum())
        theta[zero] = 0.0
        if rng.random() < 0.3:
            theta[~zero & (rng.random(m) < 0.3)] = 1e-12
    theta /= theta.sum()
    lam = 1.0 / (1.0 + beta * (np.count_nonzero(theta) + c.sum()))
    q = np.where(theta > 0, lam * (theta + beta), lam * beta * c)
    G = ObsMatrix(alphabet, tuple(cols.tolist()), matrix[:, cols], q * 10 ** rng.uniform(0, 15))
    expected = np.zeros(k)
    expected[cols] = theta
    return G, expected, eps


class TestKrrStart:
    """Under k-RR the default start is the exact maximizer."""

    K3 = FiniteMechanism(CategoricalAlphabet(["1", "2", "3"]), ("1", "2", "3"),
                         [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])

    def test_k3_by_hand(self):
        # a = 1/2, b = 1/4, so b / (a - b) = 1; q = (0.5, 0.3, 0.2).  All
        # three positive would need 1/lam = 4 and theta_3 = 0.8 - 1 < 0;
        # two positive: 0.8 / lam - 2 = 1, 1/lam = 3.75, theta = (7/8, 1/8, 0),
        # where g = (1, 1, 14/15) certifies it
        G = obs_matrix(self.K3, ObservationSet({"1": 5, "2": 3, "3": 2}))
        res = ibu(G)
        np.testing.assert_allclose(res.estimate.probs, [0.875, 0.125, 0.0], rtol=0, atol=1e-15)
        assert res.converged and res.iterations == 1 and len(res.loglik_trace) == 1
        np.testing.assert_allclose(G.matrix @ (G.q / (res.estimate.probs @ G.matrix)),
                                   [1.0, 1.0, 14.0 / 15.0], rtol=1e-15)

    def test_random_inputs_certified_at_the_start(self):
        # Rounding in g reaches about 12 eps at k near 100, even at theta*
        # itself, so where the stop leaves g less room than 16 eps above 1
        # (n above about 3e8 here) the start's gap test may fail on rounding
        # alone; such a run starts uniform, as other kernels do.  Of 4,365
        # such inputs drawn from another seed, 97.5% kept the start.
        rng = np.random.default_rng(1729)
        eps_float = np.finfo(float).eps
        rounding_bound = []
        for _ in range(1200):
            G, expected, eps = _krr_case(rng)
            res = ibu(G, max_iter=100)
            p = res.estimate.probs
            stop = max(DEFAULT_TOL, 4.0 * G.n * eps_float)
            assert res.converged and res.gap <= stop
            if stop >= 16.0 * eps_float * G.n:
                assert res.iterations == 1
            else:
                rounding_bound.append(res.iterations)
            if res.iterations == 1:  # the estimate is the start
                assert 0.5 * np.abs(p - expected).sum() <= 1e-10
                if eps == math.inf:  # b = 0: the maximizer is q itself
                    np.testing.assert_allclose(p[list(G.values)], G.q, rtol=1e-15, atol=0)
                    assert np.count_nonzero(p) == len(G.values)
        rounding_bound = np.array(rounding_bound)
        assert rounding_bound.size > 300 and np.mean(rounding_bound == 1) >= 0.95

    def test_start_that_rounding_fails_runs_from_uniform(self):
        # k = 91, 70 observed, eps = 0.041, n = 2.2e11: the stop leaves g
        # 4 eps of room, and rounding puts max g 5 eps above 1 at the
        # start.  Newton steps from that start stall at rounding level (they
        # reach the 100,000-step cap unconverged); from the uniform start
        # the run is certified in 19 gap tests.
        rng = np.random.default_rng(99)
        for _ in range(1099):
            G, _, _ = _krr_case(rng)
        res = ibu(G, max_iter=1000)
        assert res.converged and res.gap <= 4.0 * G.n * np.finfo(float).eps
        if res.iterations > 1:  # a BLAS of other rounding may certify the start
            assert res.loglik_trace[0] == self._uniform_loglik(G)

    def test_likely_krr_subset_certified_at_the_start(self, ages_data):
        mech = build_krr(AGES, 1.0)
        obs = obfuscate_dataset(mech, ages_data, np.random.default_rng(44))
        subset = likely_krr(AGES, obs)
        res = ibu(obs_matrix(mech, obs, restricted_alphabet(subset)))
        assert res.converged and res.iterations == 1 and res.gap <= DEFAULT_TOL

    @staticmethod
    def _uniform_loglik(G):
        return float(G.weights @ np.log(uniform_distribution(G.alphabet).probs @ G.matrix))

    def test_one_ulp_off_starts_uniform(self, ages_data):
        G = _ages_matrix(build_krr(AGES, 1.0), ages_data)
        matrix = G.matrix.copy()
        matrix[3, 5] = np.nextafter(matrix[3, 5], 1.0)
        near = ObsMatrix(G.alphabet, G.values, matrix, G.weights)
        res = ibu(near)
        assert res.loglik_trace[0] == self._uniform_loglik(near)
        assert res.converged and res.iterations > 2 and res.gap <= DEFAULT_TOL

    def test_eps_zero_starts_uniform(self):
        mech = build_krr(LinearAlphabet.range(0, 4), 0.0)
        G = obs_matrix(mech, ObservationSet({0: 3, 2: 5, 4: 1}))
        res = ibu(G)
        assert res.loglik_trace[0] == self._uniform_loglik(G)
        np.testing.assert_array_equal(res.estimate.probs, np.full(5, 0.2))
        assert res.converged and res.iterations == 1

    def test_explicit_start_takes_em_steps(self):
        G = obs_matrix(self.K3, ObservationSet({"1": 5, "2": 3, "3": 2}))
        start = uniform_distribution(G.alphabet)
        res = ibu(G, theta0=start, max_iter=3)
        assert res.loglik_trace[0] == self._uniform_loglik(G)
        theta = start.probs
        for _ in range(3):
            theta = theta * (G.matrix @ (G.q / (theta @ G.matrix)))
            theta /= theta.sum()
        np.testing.assert_allclose(res.estimate.probs, theta, rtol=1e-14)
        assert not res.converged and res.iterations == 3


AGES = LinearAlphabet.range(0, 99)


@pytest.fixture(scope="module")
def ages_data():
    """48,842 draws (the Adult dataset's size) from an adult-age profile."""
    return sample_synthetic(Explicit(ages_shaped_distribution(AGES)), 48_842,
                            np.random.default_rng(41)).values


def _ages_matrix(mech, data):
    return obs_matrix(mech, obfuscate_dataset(mech, data, np.random.default_rng(42)))


class TestIbuCertificate:
    @pytest.mark.parametrize("mech", [build_krr(AGES, 1.0), build_geometric_truncated(0, 99, 0.5)],
                             ids=["krr", "geometric-truncated"])
    def test_gap_within_tol_on_ages(self, ages_data, mech):
        G = _ages_matrix(mech, ages_data)
        res = ibu(G)
        p = res.estimate.probs
        gap = certified_gap(G, p)
        assert res.converged and gap <= DEFAULT_TOL
        assert res.gap == pytest.approx(gap, rel=1e-9, abs=1e-12)
        assert not np.any((p > 0.0) & (p < np.finfo(float).tiny)), "subnormal entries left"

    def test_gap_within_tol_on_integer_line(self, ages_data):
        line = build_geometric_linear(0.5)
        obs = obfuscate_dataset(line, ages_data, np.random.default_rng(43))
        subset = likely_linear(INTEGER_LINE, obs)
        estimate = restrict_and_lift(line, obs, subset)
        G = obs_matrix(line, obs, restricted_alphabet(subset))
        assert certified_gap(G, estimate.probs) <= DEFAULT_TOL

    def test_negative_extrapolation_at_boundary_still_converges(self, ages_data):
        # ages below 17 never occur, so the k-RR maximizer sits on the
        # boundary of the simplex, and the first SqS3 jump from the uniform
        # start overshoots below zero: the step must be shortened, not clipped
        G = _ages_matrix(build_krr(AGES, 1.0), ages_data)
        A, q = G.matrix, G.q
        theta = np.full(AGES.size, 1.0 / AGES.size)
        theta1 = theta * (A @ (q / (theta @ A)))
        theta2 = theta1 * (A @ (q / (theta1 @ A)))
        r, v = theta1 - theta, theta2 - 2.0 * theta1 + theta
        alpha = -math.sqrt((r @ r) / (v @ v))
        assert (theta - 2.0 * alpha * r + alpha ** 2 * v).min() < 0.0
        res = ibu(G)
        assert res.converged and certified_gap(G, res.estimate.probs) <= DEFAULT_TOL
        assert np.count_nonzero(res.estimate.probs[:17] < 1e-12) >= 5
        assert np.all(np.diff(res.loglik_trace) >= -1e-9)

    def test_unreachable_tol_stops_at_cap(self, ages_data):
        # the interior point meets even tol=1e-30 on this input (the gap
        # rounds to exactly 0), so the cap is set below the steps it needs
        G = _ages_matrix(build_geometric_truncated(0, 99, 0.5), ages_data)
        res = ibu(G, tol=1e-30, max_iter=3)
        assert not res.converged and res.iterations == 3
        assert res.gap > 1e-30
        assert abs(res.estimate.probs.sum() - 1.0) < 1e-12
        assert np.all(np.diff(res.loglik_trace) >= -1e-9)

    def test_tol_below_rounding_stops_at_the_floor(self):
        # n = 152,348: the gap re-rounds at about one rounding unit of n
        # (3.4e-11), so tol = 1e-13 is out of reach; the run stops at the
        # floor 4 n eps = 1.35e-10 instead of running to the cap
        rng = np.random.default_rng(25)
        k = int(rng.integers(3, 12))
        m = int(rng.integers(k, 60))
        mech = FiniteMechanism(LinearAlphabet.range(0, k - 1), range(m), rng.dirichlet(np.ones(m), size=k))
        G = obs_matrix(mech, ObservationSet(dict(enumerate(rng.integers(1, 20000, size=m).tolist()))))
        assert (k, m, G.n) == (7, 15, 152_348)
        floor = 4.0 * G.n * np.finfo(float).eps
        res = ibu(G, tol=1e-13, max_iter=500)
        assert res.converged and res.iterations < 500 and res.gap <= floor
        assert certified_gap(G, res.estimate.probs) <= 2.0 * floor

    def test_flat_geometric_inputs_all_certified(self):
        # criterion 4's ten inputs: at eps=0.05 the likelihood is so flat
        # that EM needs 15k to over 100k steps on them
        data = sample_synthetic(Explicit(ages_shaped_distribution(AGES)), 48_842,
                                derive_rng(MASTER, 4, 0)).values
        mech = build_geometric_truncated(0, 99, 0.05)
        for rep in range(10):
            G = obs_matrix(mech, obfuscate_dataset(mech, data, derive_rng(MASTER, 4, 1, rep)))
            res = ibu(G)
            assert res.converged and certified_gap(G, res.estimate.probs) <= DEFAULT_TOL

    def test_wide_window_with_tiny_kernel_entries(self):
        # criterion 10's wide window: 105 rows, kernel entries down to 1e-29
        mech = build_geometric_linear(1.0)
        data = sample_synthetic(Binomial(10, 0.5), 10_000, derive_rng(1010, 0))
        obs = obfuscate_dataset(mech, data.values, derive_rng(1010, 1))
        G = obs_matrix(mech, obs, alphabet=LinearAlphabet.range(-50, 54))
        assert G.matrix.min() < 1e-28
        res = ibu(G, tol=1e-12)
        assert res.converged and res.iterations <= 50

    def test_wide_integer_window_keeps_newton_steps(self):
        # 20 rows beyond the ages on each side at eps=1: from the first
        # iterates the centred Newton step lowers the likelihood, so the
        # solver needs the affine step to stay off thousands of EM steps
        data = sample_synthetic(Explicit(ages_shaped_distribution(AGES)), 2_000,
                                np.random.default_rng(41)).values
        mech = build_geometric_linear(1.0)
        obs = obfuscate_dataset(mech, data, np.random.default_rng(101))
        G = obs_matrix(mech, obs, alphabet=LinearAlphabet.range(-20, 119))
        res = ibu(G)
        assert res.converged and res.iterations <= 50
        assert certified_gap(G, res.estimate.probs) <= DEFAULT_TOL

    @pytest.mark.parametrize("seed, tests", [(29, 9), (53, 7), (126, 8), (184, 8), (279, 8)])
    def test_rows_below_the_hold_stay_still(self, seed, tests):
        # random sparse kernels with 1-3 reports: entries of the iterate fall
        # below 1e-200, and the Newton step must hold them still; solving
        # for them too makes the step non-finite and raises a RuntimeWarning
        rng = np.random.default_rng(seed)
        k, m = int(rng.integers(2, 40)), int(rng.integers(1, 60))
        A = rng.random((k, m)) * (rng.random((k, m)) > 0.3)
        A[:, A.sum(axis=0) == 0] = 1.0
        A /= A.sum(axis=0).max() * 1.01
        G = ObsMatrix(LinearAlphabet.range(0, k - 1), range(m), A, rng.integers(1, 50, m))
        res = ibu(G)
        assert res.converged and res.iterations <= tests
        assert res.estimate.probs.min() < 1e-200
        assert certified_gap(G, res.estimate.probs) <= DEFAULT_TOL

    def test_explicit_start_takes_plain_em_steps(self):
        rng = np.random.default_rng(71)
        alpha = LinearAlphabet.range(0, 4)
        mech = FiniteMechanism(alpha, tuple(range(7)), rng.dirichlet(np.ones(7), size=5))
        G = obs_matrix(mech, ObservationSet({z: int(c) for z, c in enumerate(rng.integers(1, 40, 7))}))
        start = distribution_new(alpha, rng.dirichlet(np.ones(5)))
        theta = start.probs
        for _ in range(3):
            theta = theta * (G.matrix @ (G.q / (theta @ G.matrix)))
            theta /= theta.sum()
        res = ibu(G, theta0=start, max_iter=3)
        np.testing.assert_allclose(res.estimate.probs, theta, rtol=1e-12, atol=1e-15)

    def test_planar_with_fewer_reports_than_cells(self):
        # 100 cells and 45 distinct reports: most rows of the Newton system
        # are eliminated through the report dimension
        grid = PlanarAlphabet.grid(10, 10, 1.0)
        mech = build_geometric_planar(grid, grid, 1.0)
        rng = np.random.default_rng(61)
        data = [grid.values[i] for i in rng.choice(grid.size, size=60)]
        G = obs_matrix(mech, obfuscate_dataset(mech, data, rng))
        assert G.matrix.shape[1] < grid.size
        res = ibu(G)
        assert res.converged and certified_gap(G, res.estimate.probs) <= DEFAULT_TOL
        em = ibu(G, theta0=distribution_new(grid, np.ones(grid.size)), max_iter=1_000_000)
        assert em.converged
        assert abs(log_likelihood(G, res.estimate) - log_likelihood(G, em.estimate)) <= DEFAULT_TOL


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

    def test_condition_number_computed_once_per_mechanism(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **kw: calls.append(m) or svd(m, *a, **kw))
        mech = FiniteMechanism(AB, AB.values, [[0.75, 0.25], [0.25, 0.75]])
        q = to_empirical(ObservationSet({"a": 3, "b": 1}))
        first, second = inv_raw(q, mech), inv_raw(q, mech)
        assert len(calls) == 1
        assert identification_check(mech)  # reads the same singular values
        assert len(calls) == 1
        np.testing.assert_array_equal(first, second)
        singular = FiniteMechanism(AB, AB.values, [[0.5, 0.5], [0.5, 0.5]])
        for _ in range(2):
            with pytest.raises(SingularMechanismError, match="condition number"):
                inv_raw(q, singular)
        assert len(calls) == 2


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

    def test_bit_counts_equal_per_report_sum(self):
        alpha = LinearAlphabet.range(0, 7)
        rng = np.random.default_rng(5)
        data = [int(v) for v in rng.integers(0, 8, size=2_000)]
        obs = obfuscate_dataset(build_rappor(alpha, 1.0), data, rng)
        expected = np.zeros(8, dtype=np.int64)
        for beta, c in obs.items():
            expected += c * np.array(beta, dtype=np.int64)
        counts = rappor_bit_counts(obs, alpha)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, expected)

    def test_bit_counts_reject_wrong_lengths(self):
        alpha = LinearAlphabet.range(0, 2)
        for reports in ({(0, 1): 2}, {(0, 1, 0): 1, (1, 0): 3}):
            with pytest.raises(LengthMismatchError):
                rappor_bit_counts(ObservationSet(reports), alpha)

    def test_bit_counts_stay_exact_past_float_precision(self):
        # 2^53 + 1 is the first integer float64 cannot hold; the counts must
        # still come back exact, as int64
        bits = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        bits.flags.writeable = False
        for counts, want in (([2 ** 53 - 2, 1], [1, 2 ** 53 - 1]), ([2 ** 53, 1], [1, 2 ** 53 + 1])):
            obs = ObservationSet._canonical(bits, counts)
            got = rappor_bit_counts(obs, LinearAlphabet.range(0, 1))
            assert got.dtype == np.int64 and got.tolist() == want

    def test_bit_counts_stay_exact_past_float32_precision(self):
        # 2^24 + 1 is the first integer float32 cannot hold: below it the
        # product runs in float32, above it in float64, exact either way
        bits = np.array([[0, 1], [1, 1], [1, 0]], dtype=np.uint8)
        bits.flags.writeable = False
        for counts in ([2 ** 24 - 3, 1, 1], [2 ** 24 - 1, 1, 1]):
            obs = ObservationSet._canonical(bits, counts)
            got = rappor_bit_counts(obs, LinearAlphabet.range(0, 1))
            assert obs.n in (2 ** 24 - 1, 2 ** 24 + 1)
            assert got.dtype == np.int64
            assert got.tolist() == (np.array(counts, dtype=np.int64) @ bits.astype(np.int64)).tolist()

    def test_bit_counts_of_empty_set(self):
        counts = rappor_bit_counts(ObservationSet({}), LinearAlphabet.range(0, 3))
        np.testing.assert_array_equal(counts, np.zeros(4, dtype=np.int64))
