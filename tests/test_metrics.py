"""Distances: closed-form 1-D transport, exact planar transport, tv, l2sq."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from privdist.core import Distribution, LinearAlphabet, PlanarAlphabet
from privdist.errors import AlphabetMismatchError, SolverNonConvergenceError
from privdist.metrics import (
    MetricValue,
    emd,
    emd_1d,
    emd_planar,
    l2sq,
    metric_value,
    min_cost_transport,
    tv,
)

LIN = LinearAlphabet.range(0, 1)


def lp_transport_cost(cost, supply, demand):
    """Reference LP solution of the transportation problem."""
    ns, nd = cost.shape
    a_eq = []
    for i in range(ns):
        row = np.zeros(ns * nd)
        row[i * nd:(i + 1) * nd] = 1.0
        a_eq.append(row)
    for j in range(nd):
        row = np.zeros(ns * nd)
        row[j::nd] = 1.0
        a_eq.append(row)
    res = linprog(cost.ravel(), A_eq=np.array(a_eq),
                  b_eq=np.concatenate([supply, demand]), method="highs")
    assert res.status == 0
    return res.fun


class TestEmd1d:
    def test_identical_is_zero(self):
        p = Distribution(LIN, [0.4, 0.6])
        assert emd_1d(p, p) == 0.0

    def test_unit_move(self):
        p = Distribution(LIN, [1.0, 0.0])
        q = Distribution(LIN, [0.0, 1.0])
        assert emd_1d(p, q) == pytest.approx(1.0)

    def test_cdf_difference(self):
        # |0.8 - 0.5| * gap(0, 1) = 0.3
        p = Distribution(LIN, [0.8, 0.2])
        q = Distribution(LIN, [0.5, 0.5])
        assert emd_1d(p, q) == pytest.approx(0.3)

    def test_respects_gaps(self):
        alpha = LinearAlphabet([0, 10])
        p = Distribution(alpha, [1.0, 0.0])
        q = Distribution(alpha, [0.0, 1.0])
        assert emd_1d(p, q) == pytest.approx(10.0)

    def test_alphabet_mismatch(self):
        p = Distribution(LIN, [1.0, 0.0])
        q = Distribution(LinearAlphabet.range(0, 2), [1.0, 0.0, 0.0])
        with pytest.raises(AlphabetMismatchError):
            emd_1d(p, q)


class TestEmdPlanar:
    def test_identical_is_zero(self):
        g = PlanarAlphabet.grid(3, 3, 1.0)
        p = Distribution(g, np.full(9, 1 / 9))
        assert emd_planar(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_adjacent_cells(self):
        g = PlanarAlphabet.grid(2, 2, 0.7)
        a = np.zeros(4); a[0] = 1.0
        b = np.zeros(4); b[1] = 1.0
        assert emd_planar(Distribution(g, a), Distribution(g, b)) == pytest.approx(0.7)

    def test_hand_transport(self):
        # move 0.4 mass one cell of width 0.5: cost 0.2
        g = PlanarAlphabet.grid(2, 1, 0.5)
        p = Distribution(g, [0.7, 0.3])
        q = Distribution(g, [0.3, 0.7])
        assert emd_planar(p, q) == pytest.approx(0.2)

    def test_matches_lp_oracle_small_grids(self):
        rng = np.random.default_rng(21)
        for nx, ny in [(2, 2), (3, 2), (3, 3)]:
            g = PlanarAlphabet.grid(nx, ny, 1.0)
            centers = g.centers_array()
            cost = np.sqrt(((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))
            for _ in range(10):
                p = rng.dirichlet(np.ones(g.size))
                q = rng.dirichlet(np.ones(g.size))
                ours = emd_planar(Distribution(g, p), Distribution(g, q))
                ref = lp_transport_cost(cost, p, q)
                assert ours == pytest.approx(ref, abs=1e-9)

    def test_single_row_equals_1d(self):
        g = PlanarAlphabet.grid(5, 3, 1.0)
        row_p = np.array([0.1, 0.2, 0.3, 0.2, 0.2])
        row_q = np.array([0.3, 0.1, 0.1, 0.2, 0.3])
        p = np.zeros(15); p[5:10] = row_p
        q = np.zeros(15); q[5:10] = row_q
        planar = emd_planar(Distribution(g, p), Distribution(g, q))
        line = emd_1d(
            Distribution(LinearAlphabet.range(0, 4), row_p),
            Distribution(LinearAlphabet.range(0, 4), row_q),
        )
        assert planar == pytest.approx(line, abs=1e-9)


class TestTransportSolver:
    def test_random_instances_match_lp(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            ns, nd = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            cost = rng.random((ns, nd)) * 10.0
            supply = rng.dirichlet(np.ones(ns))
            demand = rng.dirichlet(np.ones(nd))
            _, total = min_cost_transport(cost, supply, demand)
            assert total == pytest.approx(lp_transport_cost(cost, supply, demand), abs=1e-8)

    def test_flow_is_feasible(self):
        rng = np.random.default_rng(6)
        cost = rng.random((5, 7))
        supply = rng.dirichlet(np.ones(5))
        demand = rng.dirichlet(np.ones(7))
        flow, _ = min_cost_transport(cost, supply, demand)
        np.testing.assert_allclose(flow.sum(axis=1), supply, atol=1e-9)
        np.testing.assert_allclose(flow.sum(axis=0), demand, atol=1e-9)
        assert flow.min() >= -1e-12


def _grid_cost(g, si, di):
    """Euclidean cost between the centers of cells ``si`` and ``di``."""
    centers = g.centers_array()
    return np.sqrt(((centers[si][:, None, :] - centers[di][None, :, :]) ** 2).sum(axis=2))


def _solve_and_check(cost, supply, demand):
    """Solve, check the flow is feasible and the total matches the LP oracle."""
    flow, total = min_cost_transport(cost, supply, demand)
    np.testing.assert_allclose(flow.sum(axis=1), supply, atol=1e-9)
    np.testing.assert_allclose(flow.sum(axis=0), demand, atol=1e-9)
    assert flow.min() >= 0.0
    assert total == pytest.approx(lp_transport_cost(cost, supply, demand), abs=1e-9)
    return total


class TestTransportDegenerate:
    """Inputs whose north-west-corner basis holds zero-mass cells."""

    def test_identical_distributions(self):
        g = PlanarAlphabet.grid(4, 4, 1.0)
        p = np.random.default_rng(8).dirichlet(np.ones(g.size))
        cells = np.arange(g.size)
        assert _solve_and_check(_grid_cost(g, cells, cells), p, p) == pytest.approx(0.0, abs=1e-12)

    def test_point_masses(self):
        g = PlanarAlphabet.grid(5, 5, 1.0)
        cells = np.arange(g.size)
        supply = np.zeros(g.size); supply[3] = 1.0
        demand = np.zeros(g.size); demand[17] = 1.0
        # cell 3 is (3, 0), cell 17 is (2, 3): distance sqrt(10)
        total = _solve_and_check(_grid_cost(g, cells, cells), supply, demand)
        assert total == pytest.approx(math.sqrt(10.0), abs=1e-12)

    def test_disjoint_halves(self):
        g = PlanarAlphabet.grid(15, 15, 1.0)
        x = g.lattice_coords()[:, 0]
        si, di = np.flatnonzero(x < 7), np.flatnonzero(x >= 7)
        supply = np.full(si.size, 1.0 / si.size)
        demand = np.full(di.size, 1.0 / di.size)
        _solve_and_check(_grid_cost(g, si, di), supply, demand)

    def test_uniform_vs_uniform(self):
        # equal masses tie at every north-west-corner step
        rng = np.random.default_rng(9)
        g = PlanarAlphabet.grid(8, 8, 1.0)
        si = rng.choice(g.size, 12, replace=False)
        di = rng.choice(g.size, 12, replace=False)
        uniform = np.full(12, 1.0 / 12)
        _solve_and_check(_grid_cost(g, si, di), uniform, uniform)
        _solve_and_check(rng.random((12, 12)), uniform, uniform)

    def test_sparse_planar_at_bench_scale(self):
        # clustered truth with a support cutoff against a noisy estimate of it
        rng = np.random.default_rng(10)
        g = PlanarAlphabet.grid(12, 12, 1.0)
        c = g.lattice_coords().astype(float)
        truth = np.zeros(g.size)
        for cx, cy, sigma, weight in ((3.0, 3.5, 1.2, 0.5), (8.5, 4.0, 1.0, 0.3), (6.0, 9.0, 1.5, 0.2)):
            truth += weight * np.exp(-((c[:, 0] - cx) ** 2 + (c[:, 1] - cy) ** 2) / (2 * sigma ** 2))
        truth[truth < 0.04 * truth.max()] = 0.0
        estimate = np.maximum(truth + rng.normal(0.0, 0.05 * truth.max(), g.size), 0.0)
        si, di = np.flatnonzero(estimate), np.flatnonzero(truth)
        _solve_and_check(_grid_cost(g, si, di), estimate[si] / estimate[si].sum(),
                         truth[di] / truth[di].sum())


class TestTransportInputs:
    COST = np.array([[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("cost, supply, demand", [
        (COST, [1.5, -0.5], [0.5, 0.5]),
        (COST, [0.5, 0.5], [1.5, -0.5]),
        (COST, [np.nan, 0.5], [0.5, 0.5]),
        (COST, [np.inf, 0.5], [0.5, 0.5]),
        (COST, [0.5, 0.5], [np.nan, 0.5]),
        ([[0.0, np.inf], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5]),
        ([[0.0, np.nan], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5]),
        (np.zeros((0, 2)), [], [0.0, 0.0]),
        (COST, [0.5, 0.5], [0.5, 0.6]),
    ], ids=["negative-supply", "negative-demand", "nan-supply", "inf-supply",
            "nan-demand", "inf-cost", "nan-cost", "empty-supply", "unbalanced"])
    def test_bad_input_raises_value_error(self, cost, supply, demand):
        with pytest.raises(ValueError):
            min_cost_transport(np.array(cost), np.array(supply), np.array(demand))

    def test_zero_mass_costs_nothing(self):
        flow, total = min_cost_transport(self.COST, np.zeros(2), np.zeros(2))
        assert total == 0.0 and not flow.any()

    def test_failed_certificate_raises(self):
        with pytest.raises(SolverNonConvergenceError):
            min_cost_transport(self.COST, np.array([0.5, 0.5]), np.array([0.3, 0.7]), cert_tol=-1.0)


class TestOtherMetrics:
    def test_tv_values(self):
        p = Distribution(LIN, [1.0, 0.0])
        q = Distribution(LIN, [0.0, 1.0])
        assert tv(p, p) == 0.0
        assert tv(p, q) == pytest.approx(1.0)

    def test_l2sq_hand_value(self):
        assert l2sq([1.5, -0.5], [1.0, 0.0]) == pytest.approx(0.5)

    def test_l2sq_zero_on_equal(self):
        p = Distribution(LIN, [0.25, 0.75])
        assert l2sq(p, p) == 0.0

    def test_metric_value_units(self):
        g = PlanarAlphabet.grid(2, 1, 0.5)
        p = Distribution(g, [1.0, 0.0])
        mv = metric_value("emd", p, p)
        assert isinstance(mv, MetricValue) and mv.units == "km"
        lp = Distribution(LIN, [1.0, 0.0])
        assert metric_value("emd", lp, lp).units == "alphabet units"

    def test_emd_dispatch(self):
        lp = Distribution(LIN, [1.0, 0.0])
        lq = Distribution(LIN, [0.0, 1.0])
        assert emd(lp, lq) == pytest.approx(1.0)
