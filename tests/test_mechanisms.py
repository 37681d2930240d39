"""Mechanism constructors: kernels, stochasticity, privacy ratios, samplers."""

import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from privdist.analysis import inv_geometric_error_lower_bound, inv_krr_error_bound
from privdist.cli import mechanism_from_json, mechanism_to_json, reports_to_json
from privdist.core import (
    INTEGER_LINE,
    Alphabet,
    CategoricalAlphabet,
    FiniteMechanism,
    LinearAlphabet,
    ObservationSet,
    PlanarAlphabet,
    _value_key,
    distribution_new,
    obs_matrix,
)
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
from privdist.dataio import Explicit, empirical_distribution, sample_synthetic
from privdist.estimators import rappor_bit_counts
from privdist.experiment import MECHANISMS, build_mechanism
from privdist.mechanisms import (
    _RAPPOR_BLOCK,
    BitVectorMechanism,
    build_exponential,
    build_geometric_linear,
    build_geometric_planar,
    build_geometric_truncated,
    build_identity,
    build_krr,
    build_laplace_linear_discretized,
    build_laplace_planar_discretized,
    build_rappor,
    canonical_rows,
    obfuscate_dataset,
    rappor_bits,
    rappor_keep_prob,
)

from oracles import cond_prob, laplace_linear_cells, sample_counts, void_sort_draw


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
        assert cond_prob(mech, 4, 4) == pytest.approx(1.0 / 3.0)
        assert cond_prob(mech, 4, 5) == pytest.approx(1.0 / 6.0)
        assert cond_prob(mech, 4, 3) == pytest.approx(1.0 / 6.0)

    def test_translation_symmetry(self):
        mech = build_geometric_linear(0.37)
        for x, z in [(-4, 9), (2, 2), (100, 90)]:
            assert cond_prob(mech, x, z) == pytest.approx(cond_prob(mech, 0, z - x), rel=1e-14)

    def test_partial_sum(self):
        mech = build_geometric_linear(math.log(2.0))
        total = sum(cond_prob(mech, 0, z) for z in range(-30, 31))
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
            lhs = cond_prob(mech, int(x), int(z)) / cond_prob(mech, int(xp), int(z))
            assert lhs <= math.exp(eps * abs(int(x) - int(xp))) * (1 + 1e-12)

    def test_sampler_matches_kernel(self):
        mech = build_geometric_linear(0.9)
        rng = np.random.default_rng(3)
        n = 100_000
        counts = sample_counts(mech, 7, n, rng)
        for z in range(2, 13):
            p = cond_prob(mech, 7, z)
            if p >= 0.01:
                tol = 4.0 * math.sqrt(p * (1 - p) / n)
                assert abs(counts.get(z, 0) / n - p) < tol

    def test_non_integer_rejected(self):
        mech = build_geometric_linear(1.0)
        with pytest.raises(ElementOutsideAlphabetError):
            cond_prob(mech, 0.5, 1)

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
                assert trunc.matrix[x, z] == pytest.approx(cond_prob(full, x, z), rel=1e-14)

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

    def test_non_planar_alphabet_rejected(self):
        line, grid = LinearAlphabet.range(0, 3), PlanarAlphabet.grid(2, 2, 1.0)
        for inp, out in ((line, grid), (grid, line), (line, line)):
            with pytest.raises(GridMismatchError):
                build_geometric_planar(inp, out, 1.0)
        with pytest.raises(GridMismatchError):
            build_laplace_planar_discretized(line, 1.0)

    @pytest.mark.parametrize("eps", [800.0, math.inf])
    def test_huge_epsilon_is_identity(self, eps):
        # e^(-inf * 0) is NaN, so at inf the self weight must be taken as the limit
        g = PlanarAlphabet.grid(3, 3, 1.0)
        np.testing.assert_array_equal(build_geometric_planar(g, g, eps).matrix, np.eye(9))
        np.testing.assert_array_equal(build_laplace_planar_discretized(g, eps).matrix, np.eye(9))

    @pytest.mark.parametrize("eps", [0.3, 0.7, 2.0])
    def test_entries_match_fixed_super_grid(self, eps):
        # reference: weights over a fixed super-grid (1 km cells, so eps is
        # per cell), each cell folded onto its clamped output cell, rows
        # normalized.  Its margin leaves a tail below 1e-15 around every
        # input, as the 8r cells at Chebyshev radius r each weigh at most
        # e^(-eps r); tails[m] = 8 * sum over r > m of r e^(-eps r).
        r = np.arange(1, 5000)
        tails = 8 * np.cumsum((r * np.exp(-eps * r))[::-1])[::-1]
        tail_margin = int(np.argmax(tails < 1e-15))
        grids = {
            # inputs in the last column and row lie above and right of the output grid
            "overhang-high": (PlanarAlphabet.grid(4, 3, 1.0), PlanarAlphabet.grid(3, 2, 1.0)),
            # inputs in the first column and row lie below and left of it
            "overhang-low": (PlanarAlphabet.grid(4, 3, 1.0),
                             PlanarAlphabet.grid(3, 2, 1.0, origin=(1.5, 1.5))),
            # a one-cell output axis folds every x offset onto its cell
            "one-cell-axis": (PlanarAlphabet.grid(3, 7, 1.0), PlanarAlphabet.grid(1, 7, 1.0)),
        }
        for name, (inp, out) in grids.items():
            margin = tail_margin + max(inp.nx, inp.ny)
            sx, sy = np.meshgrid(np.arange(-margin, out.nx + margin),
                                 np.arange(-margin, out.ny + margin))
            target = (np.clip(sy, 0, out.ny - 1) * out.nx + np.clip(sx, 0, out.nx - 1)).ravel()
            expected = np.empty((inp.size, out.size))
            for i, (x, y) in enumerate(inp.values):
                ix, iy = round(x - out.origin[0]), round(y - out.origin[1])
                weight = np.exp(-eps * np.hypot(sx - ix, sy - iy)).ravel()
                expected[i] = np.bincount(target, weight, minlength=out.size)
            expected /= expected.sum(axis=1, keepdims=True)
            m = build_geometric_planar(inp, out, eps).matrix
            np.testing.assert_allclose(m, expected, rtol=0, atol=1e-12, err_msg=name)

    def test_memory_stays_bounded_at_small_eps_w(self):
        # eps * w = 0.01 per cell needs offsets out to a radius of about
        # 4,300 cells: a table of every offset would take about 150 MB
        g = PlanarAlphabet.grid(2, 1, 0.1)
        tracemalloc.start()
        try:
            m = build_geometric_planar(g, g, 0.1).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        np.testing.assert_allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(m[0], m[1][::-1])

    def test_infinite_epsilon_clamps_outside_cells(self):
        # input cells beyond the output grid report the nearest output cell
        inp, out = PlanarAlphabet.grid(5, 5, 1.0), PlanarAlphabet.grid(4, 4, 1.0)
        m = build_geometric_planar(inp, out, math.inf).matrix
        nearest = [out.index((min(x, 3.5), min(y, 3.5))) for x, y in inp.values]
        np.testing.assert_array_equal(m, np.eye(16)[nearest])


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

    @pytest.mark.parametrize("lo, k", [(0, 1), (0, 2), (-3, 10), (5, 18), (-50, 100), (0, 150)])
    def test_matches_the_cell_by_cell_matrix(self, lo, k):
        alphabet = LinearAlphabet.range(lo, lo + k - 1)
        for eps in (1e-3, 0.31, math.log(4.0), 2.0, 40.0):
            np.testing.assert_array_equal(build_laplace_linear_discretized(alphabet, eps).matrix,
                                          laplace_linear_cells(alphabet.values, eps))


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

    def test_infinite_epsilon_spreads_over_zero_distance(self):
        # the limit of e^(-eps d / 2), normalized, is uniform over the outputs at distance 0
        m = build_exponential(CategoricalAlphabet(["u", "v", "w"]),
                              lambda a, b: 0.0 if a == b or {a, b} == {"u", "v"} else 1.0, math.inf)
        np.testing.assert_array_equal(m.matrix, [[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 1]])


class TestRappor:
    def test_output_length(self):
        alpha = LinearAlphabet.range(0, 4)
        (beta,) = sample_counts(build_rappor(alpha, 1.0), 2, 1, np.random.default_rng(0))
        assert len(beta) == 5 and set(beta) <= {0, 1}

    def test_high_eps_keeps_onehot(self):
        alpha = LinearAlphabet.range(0, 3)
        counts = sample_counts(build_rappor(alpha, 50.0), 1, 200, np.random.default_rng(1))
        assert counts == {(0, 1, 0, 0): 200}

    @pytest.mark.parametrize("eps", [800.0, math.inf])
    def test_huge_epsilon_keeps_every_bit(self, eps):
        assert rappor_keep_prob(eps) == 1.0
        mech = build_rappor(LinearAlphabet.range(0, 3), eps)
        assert sample_counts(mech, 2, 50, np.random.default_rng(1)) == {(0, 0, 1, 0): 50}
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
        assert cond_prob(mech, "x", (1, 0)) == pytest.approx(9 / 16, rel=1e-12)
        assert cond_prob(mech, "x", (0, 1)) == pytest.approx(1 / 16, rel=1e-12)

    def test_total_probability(self):
        mech = build_rappor(LinearAlphabet.range(0, 3), 0.8)
        total = sum(
            cond_prob(mech, 2, beta) for beta in itertools.product((0, 1), repeat=4)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        mech = build_rappor(CategoricalAlphabet(["x", "y"]), 1.0)
        with pytest.raises(LengthMismatchError):
            cond_prob(mech, "x", (1, 0, 0))

    def test_non_binary_report_rejected(self):
        mech = build_rappor(LinearAlphabet.range(0, 2), 1.0)
        with pytest.raises(ObservationOutsideDomainError):
            obs_matrix(mech, ObservationSet({(0, 1, 0): 3, (0, 2, 0): 1}))

    def test_bits_of_reports(self):
        reports = [(0, 1, 0), [1, 1, 0], (1, 0, 1)]
        bits = rappor_bits(reports, 3)
        assert bits.tolist() == [[0, 1, 0], [1, 1, 0], [1, 0, 1]]
        assert rappor_bits([], 3).shape == (0, 3)

    def test_boolean_entries_refused(self):
        # a report file writes True as "true", which no reader takes back as a bit
        with pytest.raises(ObservationOutsideDomainError, match="not true or false"):
            rappor_bits([(0, 1, 0), (True, False, True)], 3)
        mech = build_rappor(LinearAlphabet.range(0, 1), 1.0)
        with pytest.raises(ObservationOutsideDomainError, match="not true or false"):
            obs_matrix(mech, ObservationSet({(True, False): 3, (0, 1): 2}))

    @pytest.mark.parametrize("entry", [2, 256, -1, 1.0, "1", None])
    def test_report_entry_outside_domain(self, entry):
        # 256, -1 and non-ints make bytes() itself fail; 1.0 is a float, not a bit
        with pytest.raises(ObservationOutsideDomainError):
            rappor_bits([(0, 1, 0), (0, entry, 0)], 3)

    @pytest.mark.parametrize("reports", [[(0, 1)], [(0, 1, 0), (1, 0)], [5], ["010"], [None]],
                             ids=["short", "mixed", "int", "str", "none"])
    def test_report_not_a_bit_vector(self, reports):
        with pytest.raises(LengthMismatchError):
            rappor_bits(reports, 3)

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
        counts = sample_counts(mech, 1, n, rng)
        for beta in itertools.product((0, 1), repeat=3):
            p = cond_prob(mech, 1, beta)
            if p >= 0.01:
                tol = 4.0 * math.sqrt(p * (1 - p) / n)
                assert abs(counts.get(beta, 0) / n - p) < tol


class TestRapporReportStore:
    """Drawn RAPPOR reports are stored as a uint8 matrix; counted from a dict
    (``ObservationSet`` over tuples) they are tuples.  Both stores must give
    the same results everywhere."""

    @pytest.mark.parametrize("k", [1, 7, 8, 9, 64])  # packbits widths 1, 1, 1, 2, 8 bytes
    def test_matrix_store_matches_tuple_store(self, k):
        alphabet = LinearAlphabet.range(0, k - 1)
        mech = build_rappor(alphabet, 1.0)
        rng = np.random.default_rng(k)
        drawn = obfuscate_dataset(mech, [int(x) for x in rng.integers(0, k, size=600)], rng)
        read = ObservationSet(dict(drawn.items()))
        assert isinstance(drawn.reports, np.ndarray) and drawn.reports.shape[1] == k
        assert isinstance(read.reports, tuple)
        np.testing.assert_array_equal(obs_matrix(mech, drawn).matrix, obs_matrix(mech, read).matrix)
        np.testing.assert_array_equal(rappor_bit_counts(drawn, alphabet),
                                      rappor_bit_counts(read, alphabet))
        assert drawn.values() == read.values()
        assert drawn.items() == read.items()
        assert all(type(b) is int for v in drawn.values() for b in v)
        assert reports_to_json(drawn) == reports_to_json(read)

    def test_matrix_passes_unchanged(self):
        bits = np.array([[0, 1, 0], [1, 1, 0]], dtype=np.uint8)
        assert rappor_bits(bits, 3) is bits

    @pytest.mark.parametrize("matrix, tuples, error", [
        (np.array([[0, 1, 0], [0, 2, 0]], dtype=np.uint8), [(0, 1, 0), (0, 2, 0)],
         ObservationOutsideDomainError),
        (np.zeros((2, 4), dtype=np.uint8), [(0, 0, 0, 0), (0, 0, 0, 0)], LengthMismatchError),
        (np.zeros((2, 3), dtype=np.int64), [(0, 0, 0), (0, 1.0, 0)], ObservationOutsideDomainError),
        (np.zeros(3, dtype=np.uint8), [0, 0, 0], LengthMismatchError),
    ], ids=["entry-2", "wrong-width", "wrong-dtype", "one-dimensional"])
    def test_matrix_rejected_like_tuples(self, matrix, tuples, error):
        with pytest.raises(error):
            rappor_bits(matrix, 3)
        with pytest.raises(error):
            rappor_bits(tuples, 3)


class TestRapporBlocksAndColumns:
    """``draw`` reads the generator in fixed blocks of reports that span
    inputs, and ``kernel`` reads contiguous bit columns; byte for byte, they
    must give what a draw of one block per input and the closed form
    evaluated cell by cell give."""

    @staticmethod
    def closed_form(k, eps, reports) -> np.ndarray:
        # p^k * e^(-(1/2 + S/2 - beta_x) * eps), one scalar per cell
        pk = (1.0 / (1.0 + math.exp(-eps / 2.0))) ** k
        return np.array([[pk * math.exp(-(0.5 + 0.5 * float(sum(z)) - float(z[x])) * eps)
                          for z in reports.tolist()] for x in range(k)])

    @staticmethod
    def state(rng) -> str:
        return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)

    @pytest.mark.parametrize("k", [2, 7, 64, 71, 130])
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox])
    def test_draw_matches_one_block_per_input(self, bit_generator, k):
        # two whole blocks and a partial one, over inputs of which some draw nothing
        alphabet = LinearAlphabet.range(0, k - 1)
        mech = build_rappor(alphabet, 1.5)
        n = 2 * (_RAPPOR_BLOCK // k) + 37
        counts = np.random.default_rng(k).multinomial(n, np.full(k, 1.0 / k)).tolist()
        rng, ref = (np.random.Generator(bit_generator(k)) for _ in range(2))
        bits, cnts = mech.draw(alphabet.values, counts, rng)
        want_bits, want_cnts = void_sort_draw(mech, alphabet.values, counts, ref)
        np.testing.assert_array_equal(bits, want_bits)
        np.testing.assert_array_equal(cnts, want_cnts)
        assert self.state(rng) == self.state(ref)

    @pytest.mark.parametrize("k", [2, 7, 64, 71, 130])
    def test_matrix_equals_closed_form(self, k):
        alphabet = LinearAlphabet.range(0, k - 1)
        eps = 1.5
        mech = build_rappor(alphabet, eps)
        data = np.random.default_rng(k).integers(0, k, size=600).tolist()
        obs = obfuscate_dataset(mech, data, np.random.default_rng(k + 1))
        want = self.closed_form(k, eps, obs.reports)
        G = obs_matrix(mech, obs)
        assert G.matrix.flags.c_contiguous
        assert G.matrix.tobytes() == want.tobytes()
        sub = LinearAlphabet(alphabet.values[::3])
        assert obs_matrix(mech, obs, alphabet=sub).matrix.tobytes() == want[::3].tobytes()
        block = mech.kernel([k - 1, 0], obs.reports)
        assert block.flags.c_contiguous
        assert block.tobytes() == want[[k - 1, 0]].tobytes()

    def test_draw_holds_no_float_block(self):
        # an (n, k) float64 buffer alone would take n * k * 8 bytes (51 MB)
        alphabet = LinearAlphabet.range(0, 63)
        mech = build_rappor(alphabet, 1.0)
        n = 100_000
        counts = np.random.default_rng(0).multinomial(n, np.full(64, 1.0 / 64))
        tracemalloc.start()
        try:
            bits, cnts = mech.draw(alphabet.values, counts, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cnts.sum() == n
        assert peak < n * 64 * 8 / 2


class TestRapporWordSort:
    """``draw`` counts RAPPOR reports by sorting them as big-endian 64-bit
    words; it must give what a byte-wise ``np.void`` sort of the packed rows
    gives, in canonical (JSON-key) order."""

    @pytest.mark.parametrize("k", [1, 7, 8, 9, 63, 64, 65, 128, 130])  # 1, 1, 1, 1, 1, 1, 2, 2, 3 words
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_void_sort(self, k, seed):
        alphabet = LinearAlphabet.range(0, k - 1)
        mech = build_rappor(alphabet, (0.5, 2.0, 6.0, 0.0, 30.0)[seed])
        counts = [int(c) for c in np.random.default_rng(seed).integers(0, 25, size=k)]
        bits, cnts = mech.draw(alphabet.values, counts, np.random.default_rng(100 + seed))
        want_bits, want_cnts = void_sort_draw(mech, alphabet.values, counts,
                                              np.random.default_rng(100 + seed))
        assert bits.dtype == np.uint8 and not bits.flags.writeable
        np.testing.assert_array_equal(bits, want_bits)
        assert cnts.dtype == np.int64
        np.testing.assert_array_equal(cnts, want_cnts)
        assert cnts.sum() == sum(counts)
        keys = [_value_key(tuple(row)) for row in bits.tolist()]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_rows_that_differ_only_in_a_later_word(self):
        # equal first words leave the order to the second and third words
        k = 130
        rows = np.zeros((6, k), dtype=np.uint8)
        rows[[1, 4], 100] = 1
        rows[[2, 4], 129] = 1
        rows[5, 0] = 1
        distinct, where = canonical_rows(np.packbits(rows, axis=1), k)
        assert [_value_key(tuple(r)) for r in distinct.tolist()] == sorted(
            _value_key(tuple(r)) for r in np.unique(rows, axis=0).tolist())
        np.testing.assert_array_equal(distinct[where], rows)
        assert where.tolist() == [0, 2, 1, 0, 3, 4]

    def test_no_reports(self):
        bits, cnts = build_rappor(LinearAlphabet.range(0, 69), 1.0).draw([], [], np.random.default_rng(0))
        assert bits.shape == (0, 70) and cnts.shape == (0,)


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
        assert abs(obs.counts["2"] / obs.n - 0.5) < 0.01

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
        if x not in mech.input_alphabet:
            raise ElementOutsideAlphabetError(repr(x))
        grouped[x] = grouped.get(x, 0) + 1
    alphabet = mech.input_alphabet
    ordered = sorted(grouped, key=alphabet.index) if hasattr(alphabet, "index") else sorted(grouped)
    counts = {}
    for x in ordered:
        for z, c in sample_counts(mech, x, grouped[x], rng).items():
            counts[z] = counts.get(z, 0) + c
    return ObservationSet(counts)


def _draw_with_numpy(mech, data, rng):
    """Reference for the random stream of a finite mechanism or RAPPOR: per
    distinct input, in alphabet order, the generator calls of a plain-numpy
    draw, with the reports counted in a dict."""
    grouped = {}
    for x in data:
        grouped[x] = grouped.get(x, 0) + 1
    alphabet = mech.input_alphabet
    counts = {}
    for x in sorted(grouped, key=alphabet.index):
        c = grouped[x]
        if isinstance(mech, BitVectorMechanism):
            own = np.arange(alphabet.size) == alphabet.index(x)
            keep = rng.random((c, alphabet.size)) < mech.keep_prob
            reports = map(tuple, np.where(keep, own, ~own).astype(int).tolist())
        else:
            row = mech.row(x)
            drawn = rng.multinomial(c, row / row.sum()).tolist()
            reports = [z for z, n in zip(mech.outputs, drawn) for _ in range(n)]
        for z in reports:
            counts[z] = counts.get(z, 0) + 1
    return ObservationSet(counts)


GRID54 = PlanarAlphabet.grid(5, 4, 1.0)


class TestObfuscateStream:
    @pytest.mark.parametrize("mech", [
        build_krr(CategoricalAlphabet(["10", "2", "b", "a", "1"]), 0.8),
        build_geometric_planar(GRID54, GRID54, 0.7),
        build_rappor(LinearAlphabet.range(0, 11), 1.5),
        build_geometric_linear(0.4),
    ], ids=["krr-strings", "planar-geometric", "rappor-k12", "integer-line"])
    def test_same_stream_as_plain_numpy(self, mech):
        inputs = LinearAlphabet.range(-3, 8) if mech.input_alphabet is INTEGER_LINE else mech.input_alphabet
        picks = np.random.default_rng(31).integers(0, inputs.size, size=3_000)
        data = [inputs.values[i] for i in picks]
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        obs = obfuscate_dataset(mech, data, rng)
        if mech.input_alphabet is not INTEGER_LINE:  # TestObfuscateDigest pins the line's stream
            assert obs.items() == _draw_with_numpy(mech, data, ref_rng).items()
            assert rng.random() == ref_rng.random()
        # the draw's canonical order is the one ObservationSet sorts into
        assert ObservationSet(obs.counts).items() == obs.items()

    def test_equal_json_keys_in_output_order(self):
        # 1 and "1" share the JSON key "1".  Input "a" reports "1" and is drawn
        # first, but the draw orders reports by output index, not first appearance.
        mech = FiniteMechanism(CategoricalAlphabet(["a", "b"]), [1, "1"], [[0, 1], [1, 0]])
        obs = obfuscate_dataset(mech, ["b", "a"], np.random.default_rng(0))
        assert obs.values() == [1, "1"]


class TestObfuscateGrouping:
    ALPHA = LinearAlphabet.range(0, 11)

    @pytest.mark.parametrize("mech", [
        build_krr(ALPHA, 1.0),
        build_geometric_truncated(0, 11, 0.5),
        build_rappor(ALPHA, 2.0),
    ], ids=["krr", "geometric-truncated", "rappor"])
    def test_same_reports_as_per_datum_loop(self, mech):
        data = np.random.default_rng(8).binomial(11, 0.4, size=3_000).tolist()
        fast = obfuscate_dataset(mech, data, np.random.default_rng(9))
        slow = _obfuscate_per_datum(mech, data, np.random.default_rng(9))
        assert fast.items() == slow.items()

    @pytest.mark.parametrize("mech, data, rejected", [
        (build_krr(ALPHA, 1.0), [3, 12, 4], True),
        (build_krr(ALPHA, 1.0), [3, 3.0], False),
        (build_geometric_linear(0.5), [3, 3.0], True),
        (build_geometric_linear(0.5), [3, True], True),
        (build_geometric_linear(0.5), [3, [4]], True),
    ], ids=["outside-alphabet", "float-on-alphabet", "float-on-line", "bool-on-line", "unhashable"])
    def test_outside_datum_rejected(self, mech, data, rejected):
        # Obfuscation and the empirical distribution count data by one rule:
        # equality on a finite alphabet (3.0 is 3), the type too on the line.
        alphabet = mech.input_alphabet
        if not rejected:
            assert obfuscate_dataset(mech, data, np.random.default_rng(0)).n == len(data)
            assert empirical_distribution(alphabet, data).prob(3) == 1.0
            return
        with pytest.raises(ElementOutsideAlphabetError):
            obfuscate_dataset(mech, data, np.random.default_rng(0))
        if alphabet is not INTEGER_LINE:
            with pytest.raises(ElementOutsideAlphabetError):
                empirical_distribution(alphabet, data)


AGES = LinearAlphabet.range(0, 99)
GRID76 = PlanarAlphabet.grid(7, 6, 1.0)


def ages_like(alphabet, n, seed):
    """A sampled dataset shaped like the Adult ages: a bell over the
    alphabet's indices with no mass on its lowest sixth."""
    x = np.arange(alphabet.size, dtype=float)
    w = np.exp(-0.5 * ((x - 0.38 * alphabet.size) / (0.14 * alphabet.size)) ** 2)
    w[:alphabet.size // 6] = 0.0
    return sample_synthetic(Explicit(distribution_new(alphabet, w)), n, np.random.default_rng(seed))


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestObfuscateDigest:
    """The reports and the generator state after each of two draws from one
    generator, as SHA-256 digests of their reprs: a change to the random
    stream, to the reports or to their order fails here.  The digests also
    depend on numpy's own samplers (``multinomial``, ``binomial``,
    ``random``, ``geometric``), so a numpy release that changes one of them
    changes them too."""

    CASES = {
        "krr": (build_krr(AGES, 1.0), AGES, 5_000),
        "geometric-truncated": (build_geometric_truncated(0, 99, 0.5), AGES, 5_000),
        "integer-line": (build_geometric_linear(0.5), AGES, 5_000),
        "planar-geometric": (build_geometric_planar(GRID76, GRID76, 0.7), GRID76, 3_000),
        "rappor": (build_rappor(AGES, 2.0), AGES, 2_000),
    }
    # case -> (reports, state) after the first draw, then after the second
    DIGESTS = {
        "krr": [
            "92be5f65988150a19949b304d6988500a7dd26502d7231b2f8931f254c36ec90",
            "607e95d5b38361fbbea3d92b50c3d7b0954916f3c42777e87fe03a15a2f3fdc5",
            "38991d610b3222eeb36f8ea6a2acd547544fa22154f787a988a222d5384d65c4",
            "d570cdf907f864aea163f9d3e85cb899a292ed117b452dc5bc108fe87729da7b",
        ],
        "geometric-truncated": [
            "ac3f42a3f4af02db9507b2714902884b996baef436c9dd945e858cc2dbc44f64",
            "23374010f527c6bafa7bb5c1ec13617cbcda54dbf2578bb453c3c73e3bf2fa96",
            "7907ac6cb9d8335ed74382e0aac774fa544125f0196e65f11a4253c674e3b226",
            "482eddd6cba08521ca40afa5d5fd9b6ec0ce3e290f96af70508309ae88cc9dd7",
        ],
        "integer-line": [
            "dc50c1270232d980ae35a6ba3313c7fce1549d22e06f81a765d4d29150275dc4",
            "883ee246cd0701c573b86b63cd04c3df26d8f8009ef82486ee62db2ca567937a",
            "1b4f5802c9836da9ba0f97af3acbfc395127602b055fbcae2e1262fe2b697881",
            "a9ce64904e967e02b28479b23b0790bd7d51a335405e61fa5f524e6f5f7d3414",
        ],
        "planar-geometric": [
            "1a4ebc3ec07748973e91702e326908a3015b9a424951c200e054cc9d8679a4e0",
            "9a139e0f81d3784a92a9f995d370b5718d112308d81e00108ef50eb8a7777ef4",
            "a51273b14058dd7832e4697845d69b1f1a51b497e097f887f37e125567d0a4a0",
            "da24459c8cc680ae1519375f3c391b79b055ba6909d70101b0ef6fe2a6e3a13f",
        ],
        "rappor": [
            "cfad0acf6b08d81498df34723f81e74470e9c81eb2326b1796364a8412f6300f",
            "3324f43056cf753ddf008dddf148ec4cf90b2c10f53f6e0241b4dd6d5564c460",
            "9acb16cd6a5a9c9fa504214b0c26873fd07cd4f38b94c3f52921242958be3de4",
            "0b4d924ef05ee0f0a80dc76b32d50ceec90fec45b169e7d95650082d48c62cc4",
        ],
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_reports_and_state_digests(self, name):
        mech, alphabet, n = self.CASES[name]
        data = ages_like(alphabet, n, 2101)
        rng = np.random.default_rng(2102)
        got = []
        for _ in range(2):
            obs = obfuscate_dataset(mech, data.values, rng)
            got += [_sha256(obs.items()), _sha256(rng.bit_generator.state)]
        assert got == self.DIGESTS[name]


class TestDrawLaw:
    @pytest.mark.parametrize("mech, xs", [
        (build_geometric_truncated(0, 19, 0.4), [2, 9, 17]),
        (build_geometric_linear(0.4), [-4, 3, 11]),
    ], ids=["geometric-truncated", "integer-line"])
    def test_pooled_frequencies_follow_the_rows(self, mech, xs):
        # The reports of all inputs together follow sum_i count_i row_i / n:
        # every output with p >= 0.005 lies within 4 sigma of it, where
        # sigma^2 n^2 = sum_i count_i p_i (1 - p_i) is the exact variance
        counts = np.array([100_000, 200_000, 400_000])
        n = int(counts.sum())
        reports, drawn = mech.draw(xs, counts, np.random.default_rng(2801))
        assert int(drawn.sum()) == n
        # on the line, outputs more than 40 from every input hold < 1e-7 of a row
        zs = mech.outputs if mech.input_alphabet is not INTEGER_LINE else range(min(xs) - 40, max(xs) + 41)
        rows = mech.kernel(xs, zs)
        p = counts.dot(rows) / n
        sigma = np.sqrt(counts.dot(rows * (1.0 - rows))) / n
        freq = dict(zip(reports, drawn.tolist()))
        f = np.array([freq.get(z, 0) for z in zs]) / n
        likely = p >= 0.005
        assert likely.sum() >= 15
        assert np.all(np.abs(f - p)[likely] <= 4.0 * sigma[likely])

    def test_krr_draw_memory_does_not_grow_with_the_reports(self):
        # 10^7 reports over 100 inputs: the counts are drawn, not the reports,
        # so the draw allocates O(inputs x outputs), not 8 bytes per report
        mech = build_krr(AGES, 1.0)
        tracemalloc.start()
        try:
            reports, drawn = mech.draw(AGES.values, np.full(100, 100_000), np.random.default_rng(2802))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(drawn.sum()) == 10 ** 7 and len(reports) == 100
        assert peak < 8 * 2 ** 20


# config mechanism name -> the alphabet it is built on (a contiguous line by default)
SERIALIZED_ALPHABETS = {
    "krr": CategoricalAlphabet(["x", "y", "z"]),
    "planar-geometric": PlanarAlphabet.grid(3, 2, 1.0),
    "planar-laplace": PlanarAlphabet.grid(3, 2, 1.0),
}
PAIRS = Alphabet([(0, 0), (0, 1), (1, 0)])  # tuple elements, which JSON writes as lists


class TestSerialization:
    @pytest.mark.parametrize("name", [*MECHANISMS, "explicit-tuples"])
    def test_roundtrip(self, name):
        if name == "explicit-tuples":
            m = FiniteMechanism(PAIRS, PAIRS.values, [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        else:
            m = build_mechanism(name, SERIALIZED_ALPHABETS.get(name, LinearAlphabet.range(0, 4)), 0.8)
        d = mechanism_to_json(m)
        back = mechanism_from_json(json.loads(json.dumps(d)))
        assert mechanism_to_json(back) == d
        if isinstance(m, FiniteMechanism):
            np.testing.assert_array_equal(back.matrix, m.matrix)
        assert (back.kind, back.params_dict(), back.output_values(), back.input_alphabet) == (
            m.kind, m.params_dict(), m.output_values(), m.input_alphabet)


# ---------------------------------------------------------------------------
# One epsilon rule
# ---------------------------------------------------------------------------

LINE4 = LinearAlphabet.range(0, 3)
GRID4 = PlanarAlphabet.grid(2, 2, 1.0)
# builder name -> (builder from eps, whether eps = 0 is accepted)
EPS_BUILDERS = {
    "krr": (lambda eps: build_krr(LINE4, eps), True),
    "rappor": (lambda eps: build_rappor(LINE4, eps), True),
    "geometric-linear": (build_geometric_linear, False),
    "geometric-truncated": (lambda eps: build_geometric_truncated(0, 3, eps), False),
    "geometric-planar": (lambda eps: build_geometric_planar(GRID4, GRID4, eps), False),
    "laplace-linear": (lambda eps: build_laplace_linear_discretized(LINE4, eps), False),
    "laplace-planar": (lambda eps: build_laplace_planar_discretized(GRID4, eps), False),
    "exponential": (lambda eps: build_exponential(LINE4, lambda a, b: abs(a - b), eps), False),
}
EPS_USERS = {
    **EPS_BUILDERS,
    "rappor_keep_prob": (rappor_keep_prob, True),
    "inv_krr_error_bound": (lambda eps: inv_krr_error_bound(4, eps, 10), False),
    "inv_geometric_error_lower_bound": (lambda eps: inv_geometric_error_lower_bound(eps, 10), False),
}


@pytest.mark.parametrize("name", sorted(EPS_USERS))
def test_one_epsilon_rule(name):
    use, zero_ok = EPS_USERS[name]
    for eps in (math.nan, -1.0, -math.inf):
        with pytest.raises(NonPositiveEpsilonError):
            use(eps)
    if zero_ok:
        use(0.0)
    else:
        with pytest.raises(NonPositiveEpsilonError):
            use(0.0)


@pytest.mark.parametrize("name", sorted(EPS_BUILDERS))
def test_infinite_epsilon_is_identity(name):
    mech = EPS_BUILDERS[name][0](math.inf)
    xs = LINE4.values if mech.input_alphabet is INTEGER_LINE else mech.input_alphabet.values
    if isinstance(mech, BitVectorMechanism):  # the one-hot reports, in input order
        zs = [tuple(int(i == j) for j in range(len(xs))) for i in range(len(xs))]
    else:
        zs = xs
    np.testing.assert_array_equal(mech.kernel(xs, zs), np.eye(len(xs)))
