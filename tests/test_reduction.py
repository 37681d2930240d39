"""Likely-subset constructions and the restrict-and-lift pipeline."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from privdist.analysis import log_likelihood
from privdist.core import (
    INTEGER_LINE,
    Alphabet,
    CategoricalAlphabet,
    FiniteMechanism,
    LinearAlphabet,
    ObservationSet,
    PlanarAlphabet,
    distribution_new,
    obs_matrix,
)
from privdist.errors import (
    DeadColumnError,
    EmptyObservationsError,
    IncompatibleEstimatorError,
    ObservationOutsideDomainError,
)
from privdist.estimators import ibu
from privdist.experiment import build_mechanism
from privdist.geometry import convex_hull, distance_to_hull
from privdist.mechanisms import (
    build_exponential,
    build_geometric_linear,
    build_geometric_planar,
    build_geometric_truncated,
    build_identity,
    build_krr,
    build_rappor,
    obfuscate_dataset,
)
from privdist.reduction import (
    LikelySubset,
    ibu_on_subset,
    lift,
    likely_krr,
    likely_linear,
    likely_planar,
    likely_subset,
    restrict_and_lift,
)

from oracles import convex_hull_every_point, distance_to_hull_per_edge, from_reports, is_unlikely


def squared_distance_krr():
    """A squared-distance exponential matrix on 0..9 labelled "krr", and the
    reports {3: 10, 5: 10}."""
    alpha = LinearAlphabet.range(0, 9)
    matrix = build_exponential(alpha, lambda x, z: (x - z) ** 2, 0.2).matrix
    return FiniteMechanism(alpha, alpha.values, matrix, kind="krr"), ObservationSet({3: 10, 5: 10})


def parent_gap(mech, obs, lifted) -> float:
    """n log max g of a lifted estimate, on the full observation matrix."""
    G = obs_matrix(mech, obs)
    return G.n * math.log(G.matrix.dot(G.q / lifted.probs.dot(G.matrix)).max())


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
        # and the smallest integer >= 4 is 4; ceil(1.5) = 2
        obs = ObservationSet({0.5: 1, 4: 1})
        subset = likely_linear(INTEGER_LINE, obs)
        assert subset.members == (0, 1, 2, 3, 4)
        subset = likely_linear(INTEGER_LINE, ObservationSet({-2: 1, 1.5: 1}))
        assert subset.alphabet == LinearAlphabet.range(-2, 2)

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


    def test_keeps_cells_at_exactly_delta_prime(self):
        # Reports two cells apart on a diagonal: d_max = 2 sqrt(2) w, so
        # delta' = 3 delta = 3 w / sqrt(2) exactly, and cells three diagonals
        # off the segment lie at exactly delta' (squared, 9/2 in cell units).
        # With w = 0.1 the rounded distance of cell (3, 4) exceeds delta'.
        grid = PlanarAlphabet.grid(4, 7, 0.1)
        a, b = np.array([0, 4]), np.array([2, 6])
        subset = likely_planar(grid, ObservationSet({grid.values[4 * 4]: 1, grid.values[6 * 4 + 2]: 1}))
        assert subset.meta["delta_prime"] == pytest.approx(3 * subset.meta["delta"], rel=1e-14)
        kept = set()
        for i, c in enumerate(grid.lattice_coords()):
            # exact squared distance to the segment, in cell units
            t = min(max(Fraction(int((c - a) @ (b - a)), 8), Fraction(0)), Fraction(1))
            gap = c - a - t * (b - a)
            if gap[0] ** 2 + gap[1] ** 2 <= Fraction(9, 2):
                kept.add(grid.values[i])
        assert grid.values[4 * 4 + 3] in kept
        assert set(subset.members) == kept


class TestLikelyKrr:
    def test_observed_values(self):
        alpha = LinearAlphabet.range(1, 100)
        subset = likely_krr(alpha, from_reports([3, 7, 7, 42]))
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


class TestLikelySubset:
    """``likely_subset`` picks the construction; each subset carries the
    alphabet IBU runs on."""

    GRID = PlanarAlphabet.grid(5, 4, 1.0)

    @pytest.mark.parametrize("mech, reports, construction, alphabet", [
        (build_krr(CategoricalAlphabet(["c", "a", "b"]), 1.0), {"b": 2, "c": 1},
         "krr-observed", Alphabet(["c", "b"])),
        (build_krr(LinearAlphabet.range(0, 9), 1.0), {7: 2, 3: 1},
         "krr-observed", LinearAlphabet([3, 7])),
        (build_geometric_truncated(0, 9, 0.5), {6: 2, 3: 1},
         "linear-interval", LinearAlphabet.range(3, 6)),
        (build_geometric_linear(0.5), {-2: 1, 2: 1},
         "linear-interval", LinearAlphabet.range(-2, 2)),
        (build_geometric_planar(GRID, GRID, 1.0), {GRID.values[0]: 3},
         "planar-hull", Alphabet([GRID.values[0]])),
        # the matrix decides, not the kind
        (build_identity(CategoricalAlphabet(["c", "a", "b"])), {"b": 2, "c": 1},
         "krr-observed", Alphabet(["c", "b"])),
        (FiniteMechanism(CategoricalAlphabet(["c", "a", "b"]), ["c", "a", "b"],
                         [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]),
         {"b": 2, "c": 1}, "krr-observed", Alphabet(["c", "b"])),
        # any matrix with integer outputs on a line
        (FiniteMechanism(LinearAlphabet.range(0, 1), [0, 1], [[0.5, 0.5], [0.25, 0.75]]),
         {1: 2}, "linear-interval", LinearAlphabet([1])),
    ], ids=["krr-labels", "krr-integers", "interval", "integer-line", "hull", "identity",
            "custom-krr", "linear-interval"])
    def test_each_construction(self, mech, reports, construction, alphabet):
        subset = likely_subset(mech, ObservationSet(reports))
        assert subset.construction == construction
        assert subset.parent is mech.input_alphabet
        assert subset.alphabet == alphabet and type(subset.alphabet) is type(alphabet)
        assert subset.members == alphabet.values and subset.size == alphabet.size

    @pytest.mark.parametrize("mech", [
        build_rappor(LinearAlphabet.range(0, 2), 1.0),
        FiniteMechanism(LinearAlphabet.range(0, 1), ["a", "b"], [[0.5, 0.5], [0.25, 0.75]]),
    ], ids=["rappor", "custom-finite"])
    def test_no_construction_fits(self, mech):
        obs = obfuscate_dataset(mech, [0, 1, 1], np.random.default_rng(3))
        with pytest.raises(IncompatibleEstimatorError):
            likely_subset(mech, obs)

    def test_kind_krr_without_krr_form_gets_the_interval(self):
        # a squared-distance exponential matrix labelled "krr": the reports 3
        # and 5 are best explained by 4, which the observed values leave out,
        # so IBU on them would fall 1.21 nats below the MLE; the interval
        # [3, 5] keeps it
        mech, obs = squared_distance_krr()
        full = ibu(obs_matrix(mech, obs), tol=1e-10)
        observed = ibu(obs_matrix(mech, obs, alphabet=LinearAlphabet([3, 5])), tol=1e-10)
        assert np.flatnonzero(full.estimate.probs > 1e-6).tolist() == [4]
        assert full.loglik_trace[-1] - observed.loglik_trace[-1] > 1.2
        subset = likely_subset(mech, obs)
        assert subset.construction == "linear-interval" and subset.members == (3, 4, 5)
        lifted = restrict_and_lift(mech, obs, subset, tol=1e-10)
        assert 0.5 * np.abs(lifted.probs - full.estimate.probs).sum() <= 1e-6

    def test_pricing_grows_a_cut_subset(self):
        # cut to the observed values, the subset loses 1.28 nats of
        # likelihood on the parent; pricing g on the excluded elements puts
        # 4 back, and the gap is then the parent's
        mech, obs = squared_distance_krr()
        cut = LikelySubset(mech.input_alphabet, LinearAlphabet([3, 5]), "linear-interval", {})
        result, grown = ibu_on_subset(mech, obs, cut, tol=1e-10)
        assert grown.members == (3, 4, 5) and result.converged
        assert result.estimate.alphabet == grown.alphabet
        assert result.gap <= 1e-9 and parent_gap(mech, obs, lift(grown, result.estimate)) <= 1e-9
        # at a stop of 2 nats, 4 stays out, and its 1.28 nats are the gap
        result, kept = ibu_on_subset(mech, obs, cut, tol=2.0)
        assert kept.members == (3, 5) and result.converged
        assert result.gap == pytest.approx(parent_gap(mech, obs, lift(kept, result.estimate)), rel=1e-9)
        assert result.gap > 1.2

    def test_a_report_no_member_produces_grows_the_subset_first(self):
        # x reports x + 5 w.p. 0.9 and x + 6 w.p. 0.1: no member of the
        # interval {8, 9} produces the reports 8 and 9, so q / theta A is
        # infinite there, and 2, 3 and 4, which produce them, join before IBU
        alpha = LinearAlphabet.range(0, 9)
        matrix = np.zeros((10, 16))
        matrix[np.arange(10), np.arange(10) + 5] = 0.9
        matrix[np.arange(10), np.arange(10) + 6] = 0.1
        mech = FiniteMechanism(alpha, list(range(16)), matrix)
        obs = ObservationSet({8: 3, 9: 1})
        start = likely_subset(mech, obs)
        assert start.members == (8, 9)
        result, grown = ibu_on_subset(mech, obs, start, tol=1e-10)
        assert grown.members == (2, 3, 4, 8, 9) and result.converged and result.gap <= 1e-10
        lifted = lift(grown, result.estimate)
        full = ibu(obs_matrix(mech, obs), tol=1e-10).estimate.probs
        assert 0.5 * np.abs(lifted.probs - full).sum() <= 1e-6
        assert parent_gap(mech, obs, lifted) <= 1e-10
        # a report that no element of the parent produces still raises
        obs = ObservationSet({8: 3, 9: 1, 1: 1})
        with pytest.raises(DeadColumnError):
            ibu(obs_matrix(mech, obs))
        with pytest.raises(DeadColumnError):
            ibu_on_subset(mech, obs, likely_subset(mech, obs))

    def test_krr_on_integers_out_of_order(self):
        # the integer members become a LinearAlphabet, in increasing order;
        # lifting puts each probability back at its parent position
        alpha = Alphabet([3, 1, 2])
        mech = build_krr(alpha, 1.0)
        obs = ObservationSet({3: 5, 2: 1})
        subset = likely_krr(alpha, obs)
        assert subset.alphabet == LinearAlphabet([2, 3])
        lifted = restrict_and_lift(mech, obs, subset, tol=1e-12)
        assert lifted.alphabet == alpha and lifted.probs[1] == 0.0
        full = ibu(obs_matrix(mech, obs), tol=1e-12).estimate.probs
        np.testing.assert_allclose(lifted.probs, full, atol=1e-6)


class TestSoundness:
    """An excluded element carries no likelihood: a retained element dominates
    it, or, for the flagged kernels that do not fall with distance, the lifted
    estimate is certified on the full alphabet."""

    def test_linear_excluded_are_unlikely(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            lo, hi = -15, 15
            alpha = LinearAlphabet.range(lo, hi)
            mech = build_geometric_truncated(lo, hi, float(rng.uniform(0.2, 1.5)))
            reports = rng.integers(-5, 6, size=int(rng.integers(1, 6)))
            obs = from_reports([int(z) for z in reports])
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
            obs = from_reports([int(z) for z in reports])
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
            obs = from_reports([grid.values[int(i)] for i in picks])
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

    @pytest.mark.parametrize("name, alphabet, eps, reports, z, dropped, kept", [
        ("planar-geometric", PlanarAlphabet.grid(4, 4, 1.0), 2.0, {(0.5, 0.5): 2, (1.5, 1.5): 1},
         (0.5, 0.5), (3.5, 0.5), (2.5, 2.5)),
        ("exponential", LinearAlphabet.range(0, 9), 0.1, {3: 2, 5: 1}, 3, 0, 5),
        ("exponential", PlanarAlphabet.grid(6, 6, 1.0), 0.5, {(2.5, 0.5): 1, (4.5, 3.5): 1},
         (2.5, 0.5), (5.5, 0.5), (2.5, 2.5)),
    ], ids=["planar-geometric-4x4", "exponential-line", "exponential-6x6"])
    def test_flagged_kernels_lose_no_likelihood(self, name, alphabet, eps, reports, z, dropped, kept):
        # the kernel does not fall with distance here: the subset drops an
        # input that is farther from the report z than a kept one, and more
        # likely to report it; the estimate is certified on the full alphabet
        mech = build_mechanism(name, alphabet, eps)
        obs = ObservationSet(reports)
        subset = likely_subset(mech, obs)
        assert dropped not in subset.members and kept in subset.members
        x, y, j = alphabet.index(dropped), alphabet.index(kept), alphabet.index(z)
        assert np.linalg.norm(np.subtract(dropped, z)) > np.linalg.norm(np.subtract(kept, z))
        assert mech.matrix[x, j] > mech.matrix[y, j]
        restricted = ibu(obs_matrix(mech, obs, alphabet=subset.alphabet), tol=1e-12)
        theta = lift(subset, restricted.estimate).probs
        G = obs_matrix(mech, obs)
        assert G.n * math.log(G.matrix.dot(G.q / theta.dot(G.matrix)).max()) <= 1e-9
        # ibu_on_subset reports that gap; the mixtures over the subset and over
        # the full alphabet may round apart, by ibu's floor 4 n eps at most
        result, priced = ibu_on_subset(mech, obs, subset, tol=1e-12)
        assert result.gap == pytest.approx(parent_gap(mech, obs, lift(priced, result.estimate)),
                                           rel=1e-12, abs=4 * G.n * np.finfo(float).eps)


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

    def test_thin_hull_keeps_its_vertices(self):
        # the first three vertices are collinear within 1e-9, but the hull is
        # a real quadrilateral: a point inside it is at distance 0
        pts = [(0, 0), (1, 0), (2, 1e-9), (1, 5)]
        hull = convex_hull(pts)
        assert set(map(tuple, hull)) == {(0.0, 0.0), (1.0, 0.0), (2.0, 1e-9), (1.0, 5.0)}
        assert distance_to_hull([(1.0, 4.0)], hull)[0] == 0.0

    def test_hull_vertices_match_scipy(self):
        # lattice points repeat and lie on hull edges; only corners are kept
        rng = np.random.default_rng(16)
        for size in (3, 5, 12, 40, 200):
            for _ in range(20):
                pts = rng.integers(0, 6, (size, 2)).astype(float)
                hull = convex_hull(pts)
                uniq = np.unique(pts, axis=0)
                if np.linalg.matrix_rank(uniq - uniq[0]) < 2:
                    expected = {tuple(uniq[0]), tuple(uniq[-1])}
                else:
                    expected = set(map(tuple, pts[ConvexHull(pts).vertices]))
                    x, y = hull.T
                    assert x @ np.roll(y, -1) - y @ np.roll(x, -1) > 0  # counter-clockwise
                assert set(map(tuple, hull)) == expected and len(hull) == len(expected)

    def test_hull_matches_walk_over_every_point(self):
        # lattice points (many share an x, repeat, or lie on hull edges),
        # floats rounded to one decimal (some share an x), plain floats, and
        # collinear inputs: vertical, horizontal and diagonal
        rng = np.random.default_rng(2101)
        cases = []
        for size in (1, 2, 3, 5, 12, 40, 300):
            for _ in range(30):
                cases.append(rng.integers(0, 8, (size, 2)).astype(float))
                cases.append(np.round(rng.normal(scale=2.0, size=(size, 2)), 1))
                cases.append(rng.normal(scale=2.0, size=(size, 2)))
                t = rng.integers(-5, 6, size).astype(float)
                cases += [np.c_[np.full(size, 1.5), t], np.c_[t, np.full(size, -2.0)], np.c_[t, 2.0 * t]]
        for pts in cases:
            np.testing.assert_array_equal(convex_hull(pts), convex_hull_every_point(pts))

    def test_point_distance(self):
        hull = convex_hull([(0, 0), (2, 0), (2, 2), (0, 2)])
        d = distance_to_hull([(1.0, 1.0), (3.0, 1.0), (-1.0, -1.0)], hull)
        np.testing.assert_allclose(d, [0.0, 1.0, math.sqrt(2.0)], atol=1e-12)

    def test_segment_distance(self):
        hull = convex_hull([(0, 0), (4, 0)])
        d = distance_to_hull([(2.0, 3.0), (6.0, 0.0)], hull)
        np.testing.assert_allclose(d, [3.0, 2.0], atol=1e-12)

    def test_distance_matches_per_edge_reference(self):
        # hulls of 1 and 2 vertices and of 3 to 11 vertices on a circle, with
        # query points inside, outside, on the vertices, on edge midpoints and
        # on each edge's line past its end
        rng = np.random.default_rng(2020)
        for h in (1, 2, *range(3, 12)):
            for _ in range(40):
                if h < 3:
                    verts = rng.normal(scale=3.0, size=(h, 2))
                else:
                    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, h))
                    verts = rng.normal(size=2) + rng.uniform(0.5, 4.0) * np.c_[np.cos(angles), np.sin(angles)]
                hull = convex_hull(verts)
                assert len(hull) == h
                ends = np.roll(hull, -1, axis=0)
                pts = np.vstack([rng.normal(scale=4.0, size=(60, 2)), hull,
                                 (hull + ends) / 2.0, 2.0 * ends - hull])
                np.testing.assert_allclose(distance_to_hull(pts, hull),
                                           distance_to_hull_per_edge(pts, hull), rtol=0, atol=1e-12)
