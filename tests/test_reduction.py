"""Likely-subset constructions and the restrict-and-lift pipeline."""

import math

import numpy as np
import pytest

from privdist.analysis import log_likelihood
from privdist.core import (
    INTEGER_LINE,
    CategoricalAlphabet,
    LinearAlphabet,
    ObservationSet,
    PlanarAlphabet,
    distribution_new,
    obs_matrix,
)
from privdist.errors import EmptyObservationsError, ObservationOutsideDomainError
from privdist.estimators import ibu
from privdist.geometry import convex_hull, distance_to_hull
from privdist.mechanisms import (
    build_geometric_linear,
    build_geometric_truncated,
    build_identity,
    build_krr,
    obfuscate_dataset,
)
from privdist.reduction import (
    is_unlikely,
    likely_krr,
    likely_linear,
    likely_planar,
    restrict_and_lift,
)


class TestIsUnlikely:
    def test_farther_element_is_unlikely(self):
        # |7 - z| > |4 - z| for z in {0, 4}, strictly for both
        mech = build_geometric_linear(0.5)
        obs = ObservationSet({0: 1, 4: 1})
        assert is_unlikely(mech, obs, 7, 4)

    def test_self_never_unlikely(self):
        mech = build_geometric_linear(0.5)
        obs = ObservationSet({0: 1, 4: 1})
        assert not is_unlikely(mech, obs, 4, 4)

    def test_certain_element_not_dominated(self):
        alpha = CategoricalAlphabet(["a", "b"])
        mech = build_identity(alpha)
        obs = ObservationSet({"a": 1})
        assert not is_unlikely(mech, obs, "a", "b")
        assert is_unlikely(mech, obs, "b", "a")


class TestLikelyLinear:
    def test_integer_line_window(self):
        # ends are the extreme integers bounding the reports: floor(0.5) = 0
        # and the smallest integer >= 4 is 4
        obs = ObservationSet({0.5: 1, 4: 1})
        subset = likely_linear(INTEGER_LINE, obs)
        assert subset.members == (0, 1, 2, 3, 4)

    def test_single_observation_singleton(self):
        alpha = LinearAlphabet.range(0, 9)
        subset = likely_linear(alpha, ObservationSet({5: 3}))
        assert subset.members == (5,)

    def test_spanning_observations_keep_everything(self):
        alpha = LinearAlphabet.range(0, 4)
        subset = likely_linear(alpha, ObservationSet({0: 1, 4: 1}))
        assert subset.members == alpha.values

    def test_clamps_when_reports_exceed_range(self):
        alpha = LinearAlphabet.range(0, 4)
        subset = likely_linear(alpha, ObservationSet({-10: 1, 99: 1}))
        assert subset.members == alpha.values

    def test_empty_rejected(self):
        with pytest.raises(EmptyObservationsError):
            likely_linear(INTEGER_LINE, ObservationSet({}))

    def test_monotone_under_new_observations(self):
        alpha = LinearAlphabet.range(-20, 20)
        obs1 = ObservationSet({0: 1, 3: 1})
        obs2 = ObservationSet({0: 1, 3: 1, -5: 1})
        m1 = set(likely_linear(alpha, obs1).members)
        m2 = set(likely_linear(alpha, obs2).members)
        assert m1 <= m2


class TestLikelyPlanar:
    def test_single_observation_disk(self):
        grid = PlanarAlphabet.grid(7, 7, 1.0)
        z = grid.values[24]  # center cell
        subset = likely_planar(grid, ObservationSet({z: 5}))
        delta = 1.0 / math.sqrt(2.0)
        assert subset.meta["delta_prime"] == pytest.approx(delta)
        centers = grid.centers_array()
        for i, c in enumerate(grid.values):
            d = math.dist(c, z)
            assert (c in subset.members) == (d <= delta + 1e-12)

    def test_radius_formula(self):
        # independent evaluation of sqrt(delta^2 + 2 delta d_max) with
        # cell width 0.3 and reports exactly 8.25 km apart
        grid = PlanarAlphabet.grid(40, 4, 0.3)
        subset = likely_planar(grid, ObservationSet({(0.15, 0.15): 1, (8.40, 0.15): 1}))
        delta = 0.3 / math.sqrt(2.0)
        assert subset.meta["delta"] == pytest.approx(delta)
        assert subset.meta["d_max"] == pytest.approx(8.25)
        assert subset.meta["delta_prime"] == pytest.approx(
            math.sqrt(delta ** 2 + 2.0 * delta * 8.25)
        )
        assert subset.meta["delta_prime"] == pytest.approx(1.882865, abs=1e-5)

    def test_corner_observations_keep_whole_grid(self):
        grid = PlanarAlphabet.grid(4, 3, 1.0)
        corners = [grid.values[0], grid.values[3], grid.values[8], grid.values[11]]
        subset = likely_planar(grid, ObservationSet({c: 1 for c in corners}))
        assert set(subset.members) == set(grid.values)


class TestLikelyKrr:
    def test_observed_values(self):
        alpha = LinearAlphabet.range(1, 100)
        subset = likely_krr(alpha, ObservationSet.from_reports([3, 7, 7, 42]))
        assert subset.members == (3, 7, 42)

    def test_all_observed_is_whole_alphabet(self):
        alpha = LinearAlphabet.range(0, 3)
        subset = likely_krr(alpha, ObservationSet({0: 1, 1: 2, 2: 1, 3: 5}))
        assert subset.members == alpha.values

    def test_singleton(self):
        alpha = LinearAlphabet.range(0, 9)
        subset = likely_krr(alpha, ObservationSet({4: 100}))
        assert subset.members == (4,)

    def test_monotone_under_new_observations(self):
        alpha = LinearAlphabet.range(0, 9)
        m1 = set(likely_krr(alpha, ObservationSet({1: 1})).members)
        m2 = set(likely_krr(alpha, ObservationSet({1: 1, 7: 1})).members)
        assert m1 <= m2


class TestSoundness:
    """Every excluded element must be dominated by some retained element."""

    def test_linear_excluded_are_unlikely(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            lo, hi = -15, 15
            alpha = LinearAlphabet.range(lo, hi)
            mech = build_geometric_truncated(lo, hi, float(rng.uniform(0.2, 1.5)))
            reports = rng.integers(-5, 6, size=int(rng.integers(1, 6)))
            obs = ObservationSet.from_reports([int(z) for z in reports])
            subset = likely_linear(alpha, obs)
            retained = set(subset.members)
            for x in alpha.values:
                if x not in retained:
                    witness = subset.meta["x_max"] if x > subset.meta["x_max"] else subset.meta["x_min"]
                    assert is_unlikely(mech, obs, x, witness)

    def test_krr_excluded_are_unlikely(self):
        rng = np.random.default_rng(78)
        for _ in range(100):
            k = int(rng.integers(3, 12))
            alpha = LinearAlphabet.range(0, k - 1)
            mech = build_krr(alpha, float(rng.uniform(0.3, 3.0)))
            reports = rng.integers(0, k, size=int(rng.integers(1, 5)))
            obs = ObservationSet.from_reports([int(z) for z in reports])
            subset = likely_krr(alpha, obs)
            retained = set(subset.members)
            for x in alpha.values:
                if x not in retained:
                    assert is_unlikely(mech, obs, x, obs.values()[0])

    def test_planar_excluded_are_unlikely(self):
        from privdist.mechanisms import build_geometric_planar

        rng = np.random.default_rng(79)
        grid = PlanarAlphabet.grid(6, 6, 1.0)
        mech = build_geometric_planar(grid, grid, 0.8)
        for _ in range(100):
            picks = rng.choice(36, size=int(rng.integers(1, 4)), replace=True)
            obs = ObservationSet.from_reports([grid.values[int(i)] for i in picks])
            subset = likely_planar(grid, obs)
            retained = [np.array(m) for m in subset.members]
            for x in grid.values:
                if x in subset.members:
                    continue
                xa = np.array(x)
                order = np.argsort([np.linalg.norm(xa - r) for r in retained])
                assert any(
                    is_unlikely(mech, obs, x, tuple(retained[i])) for i in order[:5]
                )


class TestRestrictAndLift:
    def test_full_subset_equals_plain_ibu(self):
        alpha = LinearAlphabet.range(0, 5)
        mech = build_geometric_truncated(0, 5, 0.8)
        obs = ObservationSet({0: 2, 3: 4, 5: 1})
        subset = likely_linear(alpha, obs)
        assert subset.members == alpha.values
        lifted = restrict_and_lift(mech, obs, subset)
        plain = ibu(obs_matrix(mech, obs)).estimate
        np.testing.assert_allclose(lifted.probs, plain.probs, atol=1e-12)

    def test_krr_concentrated_reports_lift_to_point_mass(self):
        alpha = LinearAlphabet.range(0, 9)
        mech = build_krr(alpha, 8.0)
        obs = ObservationSet({4: 1000})
        lifted = restrict_and_lift(mech, obs, likely_krr(alpha, obs))
        assert lifted.alphabet == alpha
        assert lifted.probs[4] == pytest.approx(1.0)
        assert lifted.probs.sum() == pytest.approx(1.0)

    def test_non_integer_report_on_the_line_rejected(self):
        mech = build_geometric_linear(1.0)
        obs = ObservationSet({1.5: 1, 3: 2})
        with pytest.raises(ObservationOutsideDomainError):
            restrict_and_lift(mech, obs, likely_linear(INTEGER_LINE, obs))

    def test_lifted_beats_random_distributions(self):
        # likelihood of the lifted estimate on the FULL observation matrix is
        # at least that of any candidate distribution
        rng = np.random.default_rng(55)
        alpha = LinearAlphabet.range(0, 12)
        mech = build_geometric_truncated(0, 12, 0.6)
        data = [int(v) for v in rng.integers(4, 9, size=400)]
        obs = obfuscate_dataset(mech, data, rng)
        subset = likely_linear(alpha, obs)
        lifted = restrict_and_lift(mech, obs, subset, tol=1e-13)
        G_full = obs_matrix(mech, obs)
        base = log_likelihood(G_full, lifted)
        for _ in range(100):
            rand = rng.dirichlet(np.ones(alpha.size))
            assert base >= log_likelihood(G_full, rand) - 1e-6


class TestGeometryHelpers:
    def test_hull_of_square(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
        hull = convex_hull(pts)
        assert hull.shape[0] == 4

    def test_collinear_hull(self):
        hull = convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert hull.shape[0] == 2
        np.testing.assert_allclose(hull, [[0, 0], [3, 3]])

    def test_point_distance(self):
        hull = convex_hull([(0, 0), (2, 0), (2, 2), (0, 2)])
        d = distance_to_hull([(1.0, 1.0), (3.0, 1.0), (-1.0, -1.0)], hull)
        np.testing.assert_allclose(d, [0.0, 1.0, math.sqrt(2.0)], atol=1e-12)

    def test_segment_distance(self):
        hull = convex_hull([(0, 0), (4, 0)])
        d = distance_to_hull([(2.0, 3.0), (6.0, 0.0)], hull)
        np.testing.assert_allclose(d, [3.0, 2.0], atol=1e-12)
