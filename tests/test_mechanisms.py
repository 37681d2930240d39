"""Mechanism constructors: kernels, stochasticity, privacy ratios, samplers."""

import itertools
import json
import math

import numpy as np
import pytest

from privdist.core import CategoricalAlphabet, LinearAlphabet, ObservationSet, PlanarAlphabet, obs_matrix
from privdist.errors import (
    AlphabetTooSmallError,
    ElementOutsideAlphabetError,
    EmptyRangeError,
    GridMismatchError,
    InvalidMetricError,
    LengthMismatchError,
    NonContiguousAlphabetError,
    NonPositiveEpsilonError,
    ObservationOutsideDomainError,
)
from privdist.mechanisms import (
    build_exponential,
    build_geometric_linear,
    build_geometric_planar,
    build_geometric_truncated,
    build_identity,
    build_krr,
    build_laplace_linear_discretized,
    build_laplace_planar_discretized,
    build_rappor,
    load_mechanism_dict,
    obfuscate_dataset,
    rappor_keep_prob,
)


class TestKrr:
    def test_values_k3(self):
        # P(z|x) = e^eps / (k-1+e^eps) on the diagonal with e^eps = 2, k = 3
        m = build_krr(CategoricalAlphabet(["1", "2", "3"]), math.log(2.0))
        np.testing.assert_allclose(np.diag(m.matrix), 0.5)
        np.testing.assert_allclose(m.matrix[0, 1], 0.25)

    def test_identity_limit(self):
        m = build_krr(CategoricalAlphabet(["a", "b"]), 50.0)
        assert abs(m.matrix[0, 0] - 1.0) < 1e-9

    def test_zero_epsilon_uniform(self):
        m = build_krr(CategoricalAlphabet(["a", "b"]), 0.0)
        np.testing.assert_allclose(m.matrix, 0.5)

    @pytest.mark.parametrize("eps", [800.0, math.inf])
    def test_huge_epsilon_is_identity(self, eps):
        # e^800 overflows a float; the kernel must still be the identity
        m = build_krr(CategoricalAlphabet(["a", "b", "c"]), eps)
        np.testing.assert_array_equal(m.matrix, np.eye(3))

    def test_nan_epsilon_rejected(self):
        with pytest.raises(NonPositiveEpsilonError):
            build_krr(CategoricalAlphabet(["a", "b"]), math.nan)

    def test_alphabet_too_small(self):
        with pytest.raises(AlphabetTooSmallError):
            build_krr(CategoricalAlphabet(["solo"]), 1.0)

    def test_ldp_ratio_is_exp_eps(self):
        # max_z max_{x,x'} M_xz / M_x'z equals e^eps
        eps = 1.37
        m = build_krr(LinearAlphabet.range(0, 6), eps).matrix
        ratio = (m[:, None, :] / m[None, :, :]).max()
        assert ratio == pytest.approx(math.exp(eps), rel=1e-12)


class TestGeometricLinear:
    def test_kernel_values(self):
        # eps = ln 2: c = (1 - 1/2)/(1 + 1/2) = 1/3, so P(x|x) = 1/3 and the
        # neighbours get 1/6 (geometric series halving per step)
        mech = build_geometric_linear(math.log(2.0))
        assert mech.cond_prob(4, 4) == pytest.approx(1.0 / 3.0)
        assert mech.cond_prob(4, 5) == pytest.approx(1.0 / 6.0)
        assert mech.cond_prob(4, 3) == pytest.approx(1.0 / 6.0)

    def test_translation_symmetry(self):
        mech = build_geometric_linear(0.37)
        for x, z in [(-4, 9), (2, 2), (100, 90)]:
            assert mech.cond_prob(x, z) == pytest.approx(mech.cond_prob(0, z - x), rel=1e-14)

    def test_partial_sum(self):
        mech = build_geometric_linear(math.log(2.0))
        total = sum(mech.cond_prob(0, z) for z in range(-30, 31))
        assert abs(total - 1.0) < 1e-8

    def test_requires_positive_eps(self):
        with pytest.raises(NonPositiveEpsilonError):
            build_geometric_linear(0.0)

    def test_geo_indistinguishability_ratio(self):
        # P(z|x) / P(z|x') <= e^(eps |x - x'|) on random triples
        eps = 0.8
        mech = build_geometric_linear(eps)
        rng = np.random.default_rng(11)
        for _ in range(500):
            x, xp, z = rng.integers(-40, 40, size=3)
            lhs = mech.cond_prob(int(x), int(z)) / mech.cond_prob(int(xp), int(z))
            assert lhs <= math.exp(eps * abs(int(x) - int(xp))) * (1 + 1e-12)

    def test_sampler_matches_kernel(self):
        mech = build_geometric_linear(0.9)
        rng = np.random.default_rng(3)
        n = 100_000
        counts = mech.sample_counts(7, n, rng)
        for z in range(2, 13):
            p = mech.cond_prob(7, z)
            if p >= 0.01:
                tol = 4.0 * math.sqrt(p * (1 - p) / n)
                assert abs(counts.get(z, 0) / n - p) < tol

    def test_non_integer_rejected(self):
        mech = build_geometric_linear(1.0)
        with pytest.raises(ElementOutsideAlphabetError):
            mech.cond_prob(0.5, 1)

    def test_kernel_equals_scalar_formula_exactly(self):
        # IBU's stopping iteration reacts to single-ulp changes in the
        # matrix, so the batch kernel must reproduce c * a^|z - x| bit for bit
        mech = build_geometric_linear(0.37)
        xs, zs = list(range(-5, 40)), [-60, -3, 0, 1, 7, 7, 38, 250]
        a = math.exp(-0.37)
        c = (1.0 - a) / (1.0 + a)
        expected = [[c * a ** abs(z - x) for z in zs] for x in xs]
        assert mech.kernel(xs, zs).tolist() == expected


class TestGeometricTruncated:
    def test_row_values(self):
        # eps = ln 2, range [0, 2]: boundary normalizer 2/3, interior 1/3;
        # row of x=0 is (2/3, 1/6, 1/6) by direct evaluation
        m = build_geometric_truncated(0, 2, math.log(2.0))
        np.testing.assert_allclose(m.matrix[0], [2 / 3, 1 / 6, 1 / 6])

    def test_rows_sum_to_one_exactly(self):
        m = build_geometric_truncated(0, 9, 0.05)
        np.testing.assert_allclose(m.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_reflection_symmetry(self):
        m = build_geometric_truncated(-3, 8, 0.4)
        assert m.matrix[0, 0] == pytest.approx(m.matrix[-1, -1], rel=1e-14)

    def test_interior_matches_untruncated(self):
        eps = 0.6
        trunc = build_geometric_truncated(0, 10, eps)
        full = build_geometric_linear(eps)
        # interior columns carry the untruncated kernel values unchanged
        for x in range(11):
            for z in range(1, 10):
                assert trunc.matrix[x, z] == pytest.approx(full.cond_prob(x, z), rel=1e-14)

    def test_empty_range(self):
        with pytest.raises(EmptyRangeError):
            build_geometric_truncated(5, 5, 1.0)


class TestGeometricPlanar:
    def test_single_cell(self):
        g = PlanarAlphabet.grid(1, 1, 1.0)
        m = build_geometric_planar(g, g, 0.5)
        np.testing.assert_allclose(m.matrix, [[1.0]])

    def test_counterexample_shape_and_rank(self):
        inp = PlanarAlphabet.grid(5, 5, 1.0)
        out = PlanarAlphabet.grid(4, 4, 1.0)
        m = build_geometric_planar(inp, out, 0.5)
        assert m.matrix.shape == (25, 16)
        assert np.linalg.matrix_rank(m.matrix) < 25

    def test_rows_stochastic_20x14(self):
        g = PlanarAlphabet.grid(14, 20, 0.5)
        m = build_geometric_planar(g, g, 1.0)
        np.testing.assert_allclose(m.matrix.sum(axis=1), 1.0, atol=1e-9)

    def test_grid_mismatch(self):
        a = PlanarAlphabet.grid(3, 3, 1.0)
        b = PlanarAlphabet.grid(3, 3, 0.5)
        with pytest.raises(GridMismatchError):
            build_geometric_planar(a, b, 1.0)
        shifted = PlanarAlphabet.grid(3, 3, 1.0, origin=(0.75, 0.5))
        with pytest.raises(GridMismatchError):
            build_geometric_planar(a, shifted, 1.0)


class TestLaplaceLinear:
    def test_single_value(self):
        m = build_laplace_linear_discretized(LinearAlphabet([0]), 1.3)
        np.testing.assert_allclose(m.matrix, [[1.0]])

    def test_monotone_decay(self):
        m = build_laplace_linear_discretized(LinearAlphabet.range(0, 9), 0.05)
        assert m.matrix[0, 0] > m.matrix[0, 9]

    def test_boundary_cell_cdf(self):
        # alphabet {0, 1}, eps = ln 4: the cell of 0 is (-inf, 0.5], so
        # M_00 = 1 - e^(-eps/2)/2 = 1 - (1/2)/2 = 0.75
        m = build_laplace_linear_discretized(LinearAlphabet([0, 1]), math.log(4.0))
        assert m.matrix[0, 0] == pytest.approx(0.75, rel=1e-14)

    def test_rows_sum_exactly(self):
        m = build_laplace_linear_discretized(LinearAlphabet.range(-5, 12), 0.31)
        np.testing.assert_allclose(m.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_non_contiguous(self):
        with pytest.raises(NonContiguousAlphabetError):
            build_laplace_linear_discretized(LinearAlphabet([0, 2, 3]), 1.0)


class TestLaplacePlanar:
    def test_single_cell(self):
        g = PlanarAlphabet.grid(1, 1, 0.4)
        m = build_laplace_planar_discretized(g, 2.0)
        np.testing.assert_allclose(m.matrix, [[1.0]])

    def test_rotational_symmetry(self):
        g = PlanarAlphabet.grid(5, 5, 1.0)
        m = build_laplace_planar_discretized(g, 0.8)
        row = m.matrix[g.index((2.5, 2.5))].reshape(5, 5)
        np.testing.assert_allclose(row, row[::-1, :], atol=1e-9)
        np.testing.assert_allclose(row, row.T, atol=1e-9)

    def test_rows_stochastic_20x14(self):
        g = PlanarAlphabet.grid(14, 20, 0.5)
        m = build_laplace_planar_discretized(g, 1.0)
        np.testing.assert_allclose(m.matrix.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("n, eps", [(5, 0.8), (12, 2.0), (20, 2.0)])
    def test_equals_geometric_planar(self, n, eps):
        # the midpoint density is e^(-eps d) times a constant that row
        # normalization cancels
        g = PlanarAlphabet.grid(n, n, 1.0)
        m = build_laplace_planar_discretized(g, eps)
        assert m.kind == "laplace-planar" and m.params_dict() == {"eps_geo": eps}
        np.testing.assert_allclose(m.matrix, build_geometric_planar(g, g, eps).matrix, rtol=0, atol=1e-12)


class TestExponential:
    def test_two_point_value(self):
        # two points at distance d: row normalizer is 1 + e^(-eps d / 2)
        alpha = CategoricalAlphabet(["u", "v"])
        d = 3.0
        eps = 0.7
        m = build_exponential(alpha, lambda a, b: 0.0 if a == b else d, eps)
        assert m.matrix[0, 0] == pytest.approx(1.0 / (1.0 + math.exp(-eps * d / 2.0)), rel=1e-14)

    def test_near_zero_eps_uniform(self):
        alpha = LinearAlphabet.range(0, 4)
        m = build_exponential(alpha, lambda a, b: abs(a - b), 1e-12)
        np.testing.assert_allclose(m.matrix, 0.2, atol=1e-9)

    def test_weight_symmetry(self):
        # unnormalized weights are symmetric: M_xz / M_xx == M_zx / M_zz
        alpha = LinearAlphabet.range(0, 5)
        m = build_exponential(alpha, lambda a, b: abs(a - b), 1.1)
        for x in range(6):
            for z in range(6):
                lhs = m.matrix[x, z] / m.matrix[x, x]
                rhs = m.matrix[z, x] / m.matrix[z, z]
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_invalid_metric(self):
        alpha = CategoricalAlphabet(["u", "v"])
        with pytest.raises(InvalidMetricError):
            build_exponential(alpha, lambda a, b: -1.0 if a != b else 0.0, 1.0)
        with pytest.raises(InvalidMetricError):
            build_exponential(alpha, lambda a, b: 1.0, 1.0)  # nonzero diagonal
        asym = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidMetricError):
            build_exponential(alpha, asym, 1.0)


class TestRappor:
    def test_output_length(self):
        alpha = LinearAlphabet.range(0, 4)
        (beta,) = build_rappor(alpha, 1.0).sample_counts(2, 1, np.random.default_rng(0))
        assert len(beta) == 5 and set(beta) <= {0, 1}

    def test_high_eps_keeps_onehot(self):
        alpha = LinearAlphabet.range(0, 3)
        counts = build_rappor(alpha, 50.0).sample_counts(1, 200, np.random.default_rng(1))
        assert counts == {(0, 1, 0, 0): 200}

    @pytest.mark.parametrize("eps", [800.0, math.inf])
    def test_huge_epsilon_keeps_every_bit(self, eps):
        assert rappor_keep_prob(eps) == 1.0
        mech = build_rappor(LinearAlphabet.range(0, 3), eps)
        assert mech.sample_counts(2, 50, np.random.default_rng(1)) == {(0, 0, 1, 0): 50}
        # one flipped bit has probability e^(-eps/2): 2e-174 at 800, 0 at inf
        f = math.exp(-eps / 2.0)
        kernel = mech.kernel([0, 1, 2, 3], [(1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0)])
        np.testing.assert_allclose(kernel, [[1, 0, 0], [0, 1, f], [0, 0, f], [0, 0, 0]], rtol=1e-12)

    def test_nan_epsilon_rejected(self):
        with pytest.raises(NonPositiveEpsilonError):
            rappor_keep_prob(math.nan)
        with pytest.raises(NonPositiveEpsilonError):
            build_rappor(LinearAlphabet.range(0, 2), math.nan)

    def test_cond_prob_matches_per_bit_product(self):
        # |X| = 2, p = 3/4 (eps = 2 ln 3): P((1,0) | first) = (3/4)^2 = 9/16
        # and P((0,1) | first) = (1/4)^2 = 1/16
        mech = build_rappor(CategoricalAlphabet(["x", "y"]), 2.0 * math.log(3.0))
        assert mech.cond_prob("x", (1, 0)) == pytest.approx(9 / 16, rel=1e-12)
        assert mech.cond_prob("x", (0, 1)) == pytest.approx(1 / 16, rel=1e-12)

    def test_total_probability(self):
        mech = build_rappor(LinearAlphabet.range(0, 3), 0.8)
        total = sum(
            mech.cond_prob(2, beta) for beta in itertools.product((0, 1), repeat=4)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        mech = build_rappor(CategoricalAlphabet(["x", "y"]), 1.0)
        with pytest.raises(LengthMismatchError):
            mech.cond_prob("x", (1, 0, 0))

    def test_non_binary_report_rejected(self):
        mech = build_rappor(LinearAlphabet.range(0, 2), 1.0)
        with pytest.raises(ObservationOutsideDomainError):
            obs_matrix(mech, ObservationSet({(0, 1, 0): 3, (0, 2, 0): 1}))

    def test_kernel_equals_scalar_formula_exactly(self):
        # p^k * e^(-(1/2 + S/2 - beta_x) eps), evaluated cell by cell
        alpha = LinearAlphabet.range(0, 5)
        eps = 1.3
        mech = build_rappor(alpha, eps)
        betas = list(itertools.product((0, 1), repeat=6))
        e = math.exp(eps / 2.0)
        p = e / (1.0 + e)
        expected = [
            [p ** 6 * math.exp(-(0.5 + 0.5 * float(sum(b)) - float(b[x])) * eps) for b in betas]
            for x in alpha.values
        ]
        assert mech.kernel(alpha.values, betas).tolist() == expected

    def test_perturb_frequency_matches_cond_prob(self):
        # empirical frequency of every bit vector within 4 sigma over 1e5 draws
        alpha = LinearAlphabet.range(0, 2)
        eps = 1.2
        mech = build_rappor(alpha, eps)
        rng = np.random.default_rng(7)
        n = 100_000
        counts = mech.sample_counts(1, n, rng)
        for beta in itertools.product((0, 1), repeat=3):
            p = mech.cond_prob(1, beta)
            if p >= 0.01:
                tol = 4.0 * math.sqrt(p * (1 - p) / n)
                assert abs(counts.get(beta, 0) / n - p) < tol


class TestObfuscateDataset:
    def test_identity_returns_counts(self):
        alpha = CategoricalAlphabet(["a", "b"])
        mech = build_identity(alpha)
        obs = obfuscate_dataset(mech, ["a", "b", "b", "a", "a"], np.random.default_rng(0))
        assert obs.counts == {"a": 3, "b": 2}

    def test_empty_dataset(self):
        mech = build_identity(CategoricalAlphabet(["a", "b"]))
        obs = obfuscate_dataset(mech, [], np.random.default_rng(0))
        assert obs.n == 0

    def test_krr_point_mass_frequency(self):
        # k = 3, e^eps = 2: the true value is kept with probability 1/2, so a
        # point-mass dataset of 1e5 reports shows it with frequency 0.5 +- 0.01
        alpha = CategoricalAlphabet(["1", "2", "3"])
        mech = build_krr(alpha, math.log(2.0))
        obs = obfuscate_dataset(mech, ["2"] * 100_000, np.random.default_rng(5))
        assert abs(obs.count("2") / obs.n - 0.5) < 0.01

    def test_outside_alphabet(self):
        mech = build_identity(CategoricalAlphabet(["a"]))
        with pytest.raises(ElementOutsideAlphabetError):
            obfuscate_dataset(mech, ["a", "zz"], np.random.default_rng(0))

    def test_deterministic_and_order_independent(self):
        alpha = LinearAlphabet.range(0, 5)
        mech = build_krr(alpha, 1.0)
        data = [0, 3, 3, 5, 1, 1, 1, 2]
        a = obfuscate_dataset(mech, data, np.random.default_rng(123))
        b = obfuscate_dataset(mech, list(reversed(data)), np.random.default_rng(123))
        assert a.counts == b.counts


def _obfuscate_per_datum(mech, data, rng):
    """Reference: check and group every datum in a Python loop, then draw
    per distinct value in alphabet order."""
    grouped = {}
    for x in data:
        if not mech.contains_input(x):
            raise ElementOutsideAlphabetError(repr(x))
        grouped[x] = grouped.get(x, 0) + 1
    alphabet = mech.input_alphabet
    ordered = sorted(grouped, key=alphabet.index) if hasattr(alphabet, "index") else sorted(grouped)
    counts = {}
    for x in ordered:
        for z, c in mech.sample_counts(x, grouped[x], rng).items():
            counts[z] = counts.get(z, 0) + c
    return ObservationSet(counts)


class TestObfuscateGrouping:
    ALPHA = LinearAlphabet.range(0, 11)

    @pytest.mark.parametrize("mech", [
        build_krr(ALPHA, 1.0),
        build_geometric_truncated(0, 11, 0.5),
        build_geometric_linear(0.5),
        build_rappor(ALPHA, 2.0),
    ], ids=["krr", "geometric-truncated", "integer-line", "rappor"])
    def test_same_reports_as_per_datum_loop(self, mech):
        data = np.random.default_rng(8).binomial(11, 0.4, size=3_000).tolist()
        fast = obfuscate_dataset(mech, data, np.random.default_rng(9))
        slow = _obfuscate_per_datum(mech, data, np.random.default_rng(9))
        assert fast.items() == slow.items()

    @pytest.mark.parametrize("mech, data", [
        (build_krr(ALPHA, 1.0), [3, 12, 4]),
        (build_geometric_linear(0.5), [3, 3.0]),
        (build_geometric_linear(0.5), [3, True]),
        (build_geometric_linear(0.5), [3, [4]]),
    ], ids=["outside-alphabet", "float-on-line", "bool-on-line", "unhashable"])
    def test_outside_datum_rejected(self, mech, data):
        with pytest.raises(ElementOutsideAlphabetError):
            obfuscate_dataset(mech, data, np.random.default_rng(0))


class TestSerialization:
    def test_finite_roundtrip(self):
        m = build_geometric_truncated(0, 4, 0.8)
        back = load_mechanism_dict(json.loads(json.dumps(m.to_dict())))
        np.testing.assert_allclose(back.matrix, m.matrix)
        assert back.kind == m.kind and back.distance_monotone

    def test_rappor_roundtrip(self):
        m = build_rappor(LinearAlphabet.range(0, 3), 0.5)
        back = load_mechanism_dict(json.loads(json.dumps(m.to_dict())))
        assert back.eps_ldp == 0.5 and back.input_alphabet == m.input_alphabet

    def test_geometric_linear_roundtrip(self):
        m = build_geometric_linear(0.25)
        back = load_mechanism_dict(json.loads(json.dumps(m.to_dict())))
        assert back.cond_prob(3, 5) == m.cond_prob(3, 5)
