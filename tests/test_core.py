"""Core types: alphabets, distributions, observation containers, kernels."""

import json
import math
import types

import numpy as np
import pytest

import privdist
from privdist.cli import alphabet_from_json, alphabet_to_json, reports_from_json, reports_to_json
from privdist.core import (
    INTEGER_LINE,
    Alphabet,
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
    EmptyObservationsError,
    LengthMismatchError,
    NegativeWeightError,
    ObservationOutsideDomainError,
    ZeroSumError,
)
from privdist.mechanisms import (
    build_geometric_linear,
    build_geometric_planar,
    build_geometric_truncated,
    build_krr,
    build_rappor,
    obfuscate_dataset,
)

from oracles import from_reports, sample_counts

AB = CategoricalAlphabet(["a", "b"])


class TestAlphabets:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            CategoricalAlphabet(["a", "a"])

    def test_linear_strictly_increasing(self):
        with pytest.raises(ValueError):
            LinearAlphabet([0, 2, 2])
        assert LinearAlphabet.range(3, 6).values == (3, 4, 5, 6)

    def test_linear_values_are_integers(self):
        values = LinearAlphabet(np.arange(3)).values
        assert values == (0, 1, 2) and all(type(v) is int for v in values)
        for bad in ([0.9, 1.2], [0, 2.5], [0, True], ["0", "1"]):
            with pytest.raises(ValueError, match="integers"):
                LinearAlphabet(bad)

    def test_planar_grid_layout(self):
        g = PlanarAlphabet.grid(3, 2, 0.5)
        assert g.size == 6
        assert g.values[0] == (0.25, 0.25)
        assert g.values[1] == (0.75, 0.25)  # x varies fastest
        assert g.values[3] == (0.25, 0.75)
        coords = g.lattice_coords()
        assert coords[4].tolist() == [1, 1]

    def test_planar_rejects_non_grid(self):
        with pytest.raises(ValueError):
            PlanarAlphabet([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], 1.0)
        with pytest.raises(ValueError):
            # spacing 2 with declared width 1
            PlanarAlphabet([(0.0, 0.0), (2.0, 0.0)], 1.0)

    def test_integer_line_membership(self):
        assert 7 in INTEGER_LINE
        assert -3 in INTEGER_LINE
        assert 0.5 not in INTEGER_LINE

    def test_roundtrip(self):
        for alpha in (AB, LinearAlphabet.range(0, 4), PlanarAlphabet.grid(2, 2, 1.0)):
            assert alphabet_from_json(json.loads(json.dumps(alphabet_to_json(alpha)))) == alpha


class TestDistributionNew:
    def test_uniform_on_equal_weights(self):
        d = distribution_new(AB, (0.5, 0.5))
        np.testing.assert_allclose(d.probs, [0.5, 0.5])

    def test_normalizes_unnormalized_weights(self):
        d = distribution_new(AB, (2.0, 2.0))
        np.testing.assert_allclose(d.probs, [0.5, 0.5])

    def test_negative_weight_rejected_not_clipped(self):
        with pytest.raises(NegativeWeightError):
            distribution_new(AB, (0.3, -0.1))

    def test_zero_sum(self):
        with pytest.raises(ZeroSumError):
            distribution_new(AB, (0.0, 0.0))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            distribution_new(AB, (1.0, 1.0, 1.0))

    def test_immutable(self):
        d = distribution_new(AB, (1.0, 3.0))
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestEmpirical:
    def test_half_half(self):
        q = to_empirical(from_reports(["a", "a", "b", "b"]))
        assert q.prob("a") == 0.5 and q.prob("b") == 0.5

    def test_counts_over_total(self):
        # hand oracle: 3/4 and 1/4
        q = to_empirical(from_reports(["a", "a", "a", "b"]))
        assert q.prob("a") == 0.75 and q.prob("b") == 0.25

    def test_distribution_over_observed_values(self):
        q = to_empirical(ObservationSet({"b": 1, "a": 3}))
        assert isinstance(q, Distribution) and q.alphabet == Alphabet(("a", "b"))

    def test_empty_rejected(self):
        with pytest.raises(EmptyObservationsError):
            to_empirical(ObservationSet({}))


class TestObservationSet:
    def test_counts_validated(self):
        with pytest.raises(ValueError):
            ObservationSet({"a": 0})

    def test_json_roundtrip_mixed_values(self):
        obs = ObservationSet({3: 2, (1, 0): 1, (0.5, 1.5): 4})
        back = reports_from_json(json.loads(json.dumps(reports_to_json(obs))), None)
        assert back.counts == obs.counts and back.n == obs.n

    def test_json_matches_documented_schema(self):
        obs = from_reports(["x", "x", "y"])
        d = reports_to_json(obs)
        assert d == {"reports": {"x": 2, "y": 1}, "n": 3}

    def test_store_independent_of_insertion_order(self):
        counts = {(0, 1): 3, "b": 2, 7: 5, (1, 0): 1, (0.5, 2.0): 4}
        obs = ObservationSet(counts)
        reordered = ObservationSet(dict(reversed(list(counts.items()))))
        back = reports_from_json(json.loads(json.dumps(reports_to_json(obs))), None)
        for other in (reordered, back):
            assert other.values() == obs.values() and other.items() == obs.items()
            np.testing.assert_array_equal(other.count_array, obs.count_array)

    def test_count_array_read_only_int64(self):
        obs = ObservationSet({"y": 5, "x": 2})
        assert obs.count_array.dtype == np.int64 and obs.count_array.sum() == obs.n
        np.testing.assert_array_equal(obs.count_array, [2, 5])
        with pytest.raises(ValueError):
            obs.count_array[0] = 1

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ObservationSet({"a": 2, "b": -1})

    def test_equal_json_keys_keep_insertion_order(self):
        # 1 and "1" share the JSON key "1"; sorting (key, value) pairs would compare int with str
        assert ObservationSet({1: 1, "1": 2}).values() == [1, "1"]
        assert ObservationSet({"1": 2, 1: 1}).values() == ["1", 1]

    def test_colliding_json_keys_refused_on_write(self):
        # writing both under "1" would keep one count and lose the other
        mech = FiniteMechanism(CategoricalAlphabet(["a", "b"]), [1, "1"], [[0.4, 0.6], [0.6, 0.4]])
        obs = obfuscate_dataset(mech, ["a"] * 10 + ["b"] * 10, np.random.default_rng(0))
        assert obs.values() == [1, "1"]
        with pytest.raises(ValueError, match="share a JSON key"):
            reports_to_json(obs)


class TestObsMatrix:
    def test_identity_mechanism(self):
        mech = FiniteMechanism(AB, AB.values, np.eye(2), kind="identity")
        G = obs_matrix(mech, from_reports(["a", "b"]))
        np.testing.assert_allclose(G.matrix, np.eye(2))

    def test_single_observed_column(self):
        # 3x3 kernel with 0.10 on the diagonal; the column of output "2" reads
        # straight off the matrix definition
        m = np.array([[0.10, 0.45, 0.45], [0.45, 0.10, 0.45], [0.45, 0.45, 0.10]])
        mech = FiniteMechanism(CategoricalAlphabet(["1", "2", "3"]), ("1", "2", "3"), m)
        G = obs_matrix(mech, from_reports(["2"]))
        np.testing.assert_allclose(G.matrix[:, 0], [0.45, 0.10, 0.45])
        assert G.weights.tolist() == [1.0]

    def test_krr_column(self):
        # k-RR with e^eps = 2, k = 3: direct evaluation of the response
        # probabilities gives 2/4 on the diagonal and 1/4 off it
        alpha = CategoricalAlphabet(["1", "2", "3"])
        mech = build_krr(alpha, math.log(2.0))
        G = obs_matrix(mech, from_reports(["1"]))
        np.testing.assert_allclose(G.matrix[:, 0], [0.5, 0.25, 0.25])

    def test_columns_permutation_invariant(self):
        mech = build_geometric_truncated(0, 5, 0.7)
        reports = [0, 3, 3, 5, 2, 2, 2]
        a = obs_matrix(mech, from_reports(reports))
        b = obs_matrix(mech, from_reports(list(reversed(reports))))
        cols_a = {(tuple(a.matrix[:, j]), a.weights[j]) for j in range(len(a.values))}
        cols_b = {(tuple(b.matrix[:, j]), b.weights[j]) for j in range(len(b.values))}
        assert cols_a == cols_b

    @pytest.mark.parametrize("rows", [None, (1, 3, 4)])
    def test_kernel_is_a_c_ordered_gather(self, rows):
        # full alphabet or a subset of rows: the stored entries, in the
        # C order every ObsMatrix keeps
        mech = build_geometric_truncated(0, 5, 0.7)
        alphabet = None if rows is None else LinearAlphabet(rows)
        G = obs_matrix(mech, from_reports([5, 0, 3, 3]), alphabet=alphabet)
        picked = list(range(6)) if rows is None else list(rows)
        np.testing.assert_array_equal(G.matrix, mech.matrix[np.ix_(picked, [0, 3, 5])])
        assert G.matrix.flags.c_contiguous

    @pytest.mark.parametrize("inputs, outputs, rows, cols", [
        (900, 900, 724, 67),  # tall and narrow: columns first
        (900, 900, 900, 298),  # every row: columns first
        (900, 900, 60, 900),  # short and wide: rows first
        (100, 100, 100, 90),  # ages-shaped: rows first
    ])
    def test_kernel_gathers_any_block_in_c_order(self, inputs, outputs, rows, cols):
        # either gather order gives the stored entries, C-ordered
        rng = np.random.default_rng(inputs + rows + cols)
        m = rng.random((inputs, outputs))
        mech = FiniteMechanism(Alphabet(range(inputs)), tuple(range(outputs)), m / m.sum(1, keepdims=True))
        picked = rng.choice(inputs, rows, replace=False).tolist()
        reports = rng.choice(outputs, cols, replace=False).tolist()
        block = mech.kernel(picked, reports)
        assert block.flags.c_contiguous
        assert block.tobytes() == mech.matrix[np.ix_(picked, reports)].tobytes()

    @pytest.mark.parametrize("mech, alphabet, data", [
        (build_geometric_truncated(0, 5, 0.7), None, [0, 2, 2, 5]),
        (build_geometric_planar(PlanarAlphabet.grid(3, 3, 1.0), PlanarAlphabet.grid(3, 3, 1.0), 1.0),
         None, [(0.5, 0.5), (2.5, 1.5)] * 4),
        (build_geometric_linear(0.7), LinearAlphabet.range(-2, 6), [0, 2, 2, 5]),
        (build_rappor(LinearAlphabet.range(0, 3), 1.0), None, [0, 1, 2, 3] * 3),
    ], ids=["finite", "planar", "integer-line", "rappor"])
    def test_obs_matrix_is_c_ordered(self, mech, alphabet, data):
        obs = obfuscate_dataset(mech, data, np.random.default_rng(5))
        G = obs_matrix(mech, obs, alphabet=alphabet)
        assert len(G.values) > 1 and G.matrix.flags.c_contiguous

    def test_observation_outside_domain(self):
        mech = FiniteMechanism(AB, AB.values, np.eye(2))
        with pytest.raises(ObservationOutsideDomainError):
            obs_matrix(mech, from_reports(["a", "zzz"]))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_constructor_copies_a_writable_matrix(self, order):
        # the caller's array stays writable and is not shared, so writing to
        # it later cannot change the ObsMatrix; the copy is C-ordered
        matrix = np.array([[0.25, 0.5, 1.0], [0.75, 0.5, 0.0]], order=order)
        G = ObsMatrix(AB, ["x", "y", "z"], matrix, [1, 2, 3])
        assert matrix.flags.writeable and not G.matrix.flags.writeable
        assert not np.shares_memory(G.matrix, matrix)
        assert G.matrix.flags.c_contiguous
        np.testing.assert_array_equal(G.matrix, matrix)
        matrix[0, 0] = 0.0
        assert G.matrix[0, 0] == 0.25

    def test_entries_within_rounding_of_the_range_are_clipped(self):
        matrix = np.array([[-1e-16, 1.0 + 1e-13], [0.5, 0.5]])
        G = ObsMatrix(AB, ["x", "y"], matrix, [1, 1])
        assert G.matrix.tolist() == [[0.0, 1.0], [0.5, 0.5]]
        with pytest.raises(ValueError):
            ObsMatrix(AB, ["x", "y"], [[-1e-14, 1.0], [0.5, 0.5]], [1, 1])

    @pytest.mark.parametrize("matrix, weights", [
        ([[0.5, math.nan], [0.5, 0.2]], [1, 1]),
        ([[0.5, -math.inf], [0.5, 0.2]], [1, 1]),
        ([[0.5, 0.5], [0.5, 0.2]], [1, math.nan]),
        ([[0.5, 0.5], [0.5, 0.2]], [math.inf, 1]),
    ], ids=["nan-entry", "inf-entry", "nan-weight", "inf-weight"])
    def test_non_finite_input_refused(self, matrix, weights):
        with pytest.raises(ValueError):
            ObsMatrix(AB, ["x", "y"], matrix, weights)

    def test_zero_columns_refused(self):
        with pytest.raises(EmptyObservationsError):
            ObsMatrix(AB, [], np.zeros((2, 0)), [])
        with pytest.raises(EmptyObservationsError):
            obs_matrix(build_krr(AB, 1.0), ObservationSet({}))

    @pytest.mark.parametrize("entries, copied", [((0.25, 1.0), False), ((-1e-16, 1.0), True),
                                                 ((0.25, 1.0 + 1e-13), True)])
    def test_obs_matrix_keeps_the_kernel_array(self, entries, copied):
        # the kernel's result is new and no caller holds it, so it is kept
        # read-only as it is, unless an entry has to be clipped into [0, 1]
        mech = FiniteMechanism(AB, AB.values, np.eye(2))
        out = np.array([list(entries), [0.5, 0.5]])
        mech.kernel = lambda xs, zs: out
        G = obs_matrix(mech, from_reports(["a", "b"]))
        assert (G.matrix is out) != copied and not G.matrix.flags.writeable
        assert G.matrix.min() >= 0.0 and G.matrix.max() <= 1.0


class TestFiniteMechanism:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            FiniteMechanism(AB, AB.values, [[0.6, 0.6], [0.5, 0.5]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, bad):
        # NaN fails every comparison, so neither the sign nor the row-sum check sees it
        with pytest.raises(ValueError, match="finite"):
            FiniteMechanism(AB, AB.values, [[bad, 0.5], [0.5, 0.5]])

    def test_entries_above_one_within_the_row_tolerance_are_clipped(self):
        # the rows pass the 1e-9 sum check, and obs_matrix accepts the result
        mech = FiniteMechanism(AB, AB.values, np.asfortranarray([[1 + 5e-10, 0.0], [0.0, 1.0]]))
        assert mech.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]] and mech.matrix.flags.c_contiguous
        G = obs_matrix(mech, ObservationSet({"a": 2, "b": 1}))
        np.testing.assert_array_equal(G.matrix, np.eye(2))

    def test_sampler_matches_kernel(self):
        # statistical contract: 1e5 draws, frequencies within 4 sigma of the
        # kernel for every output with probability >= 0.01
        mech = FiniteMechanism(AB, AB.values, [[0.7, 0.3], [0.2, 0.8]])
        rng = np.random.default_rng(42)
        n = 100_000
        counts = sample_counts(mech, "a", n, rng)
        for j, z in enumerate(mech.outputs):
            p = mech.matrix[0, j]
            if p >= 0.01:
                tol = 4.0 * math.sqrt(p * (1 - p) / n)
                assert abs(counts.get(z, 0) / n - p) < tol

    def test_draw_is_one_multinomial_per_input(self):
        # outputs 0 and 3 have probability zero in every row, and input "b"
        # draws no report; the reports and the stream are those of
        # rng.multinomial(count, row / row.sum()) for each input in turn
        mech = FiniteMechanism(CategoricalAlphabet(["a", "b", "c"]), [0, 1, 2, 3],
                               [[0.0, 0.3, 0.7, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.1, 0.9, 0.0]])
        xs, counts = ["c", "b", "a"], [400, 0, 600]
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        reports, drawn = mech.draw(xs, counts, rng)
        expected = np.zeros(4, dtype=np.int64)
        for x, count in zip(xs, counts):
            row = mech.row(x)
            expected += ref.multinomial(count, row / row.sum())
        assert expected[0] == expected[3] == 0
        assert reports == [1, 2] and drawn.tolist() == expected[1:3].tolist()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_uniform_start_helper(self):
        u = uniform_distribution(LinearAlphabet.range(0, 3))
        np.testing.assert_allclose(u.probs, 0.25)


class TestPublicSurface:
    def test_exported_names(self):
        # test helpers live in tests/oracles.py, not in the package
        names = {n for n in privdist.__all__
                 if not isinstance(getattr(privdist, n), types.ModuleType)}
        assert names == {
            "Alphabet", "Binomial", "BitVectorMechanism", "CategoricalAlphabet",
            "ConcavityReport", "Distribution", "ExperimentConfig", "Explicit",
            "FiniteMechanism", "INTEGER_LINE", "IbuResult", "IntegerLineMechanism",
            "LikelySubset", "LinearAlphabet", "Mechanism", "ObsMatrix",
            "ObservationSet", "PlanarAlphabet", "RawDataset", "UniformOn",
            "build_exponential", "build_geometric_linear", "build_geometric_planar",
            "build_geometric_truncated", "build_identity", "build_krr",
            "build_laplace_linear_discretized", "build_laplace_planar_discretized",
            "build_rappor", "derive_rng", "distribution_new", "emd", "emd_1d",
            "emd_planar", "empirical_distribution", "grid_for_bbox", "ibu",
            "identification_check", "inv_geometric_error_lower_bound",
            "inv_krr_error_bound", "inv_normalize", "inv_project", "inv_raw", "l2sq",
            "likely_krr", "likely_linear", "likely_planar", "likely_subset", "load_ages",
            "load_checkins", "log_likelihood", "min_cost_transport",
            "obfuscate_dataset", "obs_matrix", "project_to_simplex",
            "rappor_concavity_prob_bound", "rappor_decode", "restrict_and_lift",
            "run_experiment", "sample_synthetic", "strict_concavity_check",
            "to_empirical", "tv", "uniform_distribution",
        }
