"""Dataset loading and synthetic generation."""

import math
from collections import Counter

import numpy as np
import pytest

from privdist.core import INTEGER_LINE, Alphabet, CountedTuple, LinearAlphabet, PlanarAlphabet, tally
from privdist.dataio import (
    Binomial,
    Explicit,
    RawDataset,
    UniformOn,
    bbox_extent_km,
    empirical_distribution,
    grid_for_bbox,
    load_ages,
    load_checkins,
    project_latlon,
    sample_synthetic,
)
from privdist.core import Distribution, distribution_new
from privdist.mechanisms import (
    build_geometric_linear,
    build_geometric_truncated,
    build_krr,
    build_rappor,
    obfuscate_dataset,
)
from privdist.errors import (
    BBoxGridMismatchError,
    EmptyDatasetError,
    InvalidSpecError,
    TooManyMalformedRowsError,
)

from oracles import checkin_cells_per_row

MANHATTAN_BBOX = (40.7044, 40.7942, -74.0205, -73.9374)


def write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadAges:
    def test_plain_rows(self, tmp_path):
        path = write(tmp_path / "ages.csv", "age\n25\n38\n25\n")
        ds = load_ages(path)
        assert ds.values == (25, 38, 25)
        assert ds.kind == "ages" and ds.n_malformed == 0

    def test_malformed_row_skipped_and_counted(self, tmp_path):
        rows = "\n".join(["age"] + ["30"] * 200 + ["abc"])
        ds = load_ages(write(tmp_path / "ages.csv", rows + "\n"))
        assert ds.n == 200 and ds.n_malformed == 1

    def test_malformed_threshold(self, tmp_path):
        path = write(tmp_path / "ages.csv", "age\n25\nabc\nxyz\n40\n")
        with pytest.raises(TooManyMalformedRowsError):
            load_ages(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_ages(write(tmp_path / "ages.csv", ""))

    def test_out_of_range_dropped(self, tmp_path):
        path = write(tmp_path / "ages.csv", "age\n25\n150\n70\n")
        ds = load_ages(path, lo=0, hi=99)
        assert ds.values == (25, 70) and ds.n_out_of_range == 1

    def test_column_by_index(self, tmp_path):
        path = write(tmp_path / "t.csv", "id,age\n1,33\n2,44\n")
        ds = load_ages(path, age_column=1)
        assert ds.values == (33, 44)

    def test_deterministic(self, tmp_path):
        path = write(tmp_path / "ages.csv", "age\n25\n38\n25\n")
        assert load_ages(path).values == load_ages(path).values

    @pytest.mark.parametrize("values", [(25, 151, 25), (-1, 30), (30.0, 150.5)])
    def test_age_outside_0_to_150_refused(self, values):
        with pytest.raises(ValueError, match="ages must lie"):
            RawDataset("ages", values)

    def test_age_range_read_from_the_grouping(self):
        # the check reads the distinct ages, and the grouping it made is kept
        ds = RawDataset("ages", (0, 150, 0, 150.0))
        assert vars(ds.values) == {"counts": {0: 2, 150: 2}}


class TestCheckins:
    def test_manhattan_grid_shape(self):
        grid = grid_for_bbox(MANHATTAN_BBOX, 0.5)
        assert (grid.ny, grid.nx) == (20, 14)
        assert grid.size == 280
        width, height = bbox_extent_km(MANHATTAN_BBOX)
        assert width == pytest.approx(7.0, abs=0.05)
        assert height == pytest.approx(10.0, abs=0.05)

    def test_cell_center_is_fixed_point(self, tmp_path):
        grid = grid_for_bbox(MANHATTAN_BBOX, 0.5)
        # invert the projection for an exact grid center, then reload
        target = grid.values[37]
        lat_min, lat_max, lon_min, lon_max = MANHATTAN_BBOX
        lat0 = math.radians((lat_min + lat_max) / 2.0)
        lat = lat_min + math.degrees(target[1] / 6371.0088)
        lon = lon_min + math.degrees(target[0] / (6371.0088 * math.cos(lat0)))
        path = write(tmp_path / "c.csv", f"lat,lon\n{lat:.10f},{lon:.10f}\n")
        ds = load_checkins(path, MANHATTAN_BBOX, grid)
        assert ds.values == (target,)

    def test_outside_bbox_dropped(self, tmp_path):
        grid = grid_for_bbox(MANHATTAN_BBOX, 0.5)
        path = write(tmp_path / "c.csv", "lat,lon\n41.5,-73.99\n40.75,-73.99\n")
        ds = load_checkins(path, MANHATTAN_BBOX, grid)
        assert ds.n == 1 and ds.n_out_of_range == 1

    def test_grid_mismatch(self, tmp_path):
        small = PlanarAlphabet.grid(3, 3, 0.5)
        path = write(tmp_path / "c.csv", "lat,lon\n40.75,-73.99\n")
        with pytest.raises(BBoxGridMismatchError):
            load_checkins(path, MANHATTAN_BBOX, small)

    def test_matches_the_per_row_loader(self, tmp_path):
        # points on cell edges (within an ulp, either side) and on the bbox
        # edges, just outside it, NaN and inf rows, blank and malformed rows
        grid = grid_for_bbox(MANHATTAN_BBOX, 0.5)
        lat_min, lat_max, lon_min, lon_max = MANHATTAN_BBOX
        lat0 = math.radians((lat_min + lat_max) / 2.0)
        w, (ox, oy) = grid.cell_width_km, grid.origin
        edge_x = [ox + w * (j - 0.5) for j in range(grid.nx + 1)]
        edge_y = [oy + w * (i - 0.5) for i in range(grid.ny + 1)]
        edge_lon = [lon_min + math.degrees(x / (6371.0088 * math.cos(lat0))) for x in edge_x]
        edge_lat = [lat_min + math.degrees(y / 6371.0088) for y in edge_y]
        mid_lat, mid_lon = (lat_min + lat_max) / 2.0, (lon_min + lon_max) / 2.0
        rng = np.random.default_rng(2103)
        points = [(mid_lat, lon) for lon in edge_lon] + [(lat, mid_lon) for lat in edge_lat]
        points += [(lat, lon) for lat in edge_lat[::4] for lon in edge_lon[::3]]
        points += [(float(np.nextafter(lat, d)), lon) for lat, lon in points[:40] for d in (-1, 1)]
        points += [(lat, lon) for lat in (lat_min, lat_max, mid_lat) for lon in (lon_min, lon_max, mid_lon)]
        points += [(float(np.nextafter(lat_max, 90)), mid_lon), (mid_lat, float(np.nextafter(lon_min, -180)))]
        points += [(float(a), float(b)) for a, b in
                   zip(rng.uniform(40.69, 40.81, 300), rng.uniform(-74.03, -73.93, 300))]
        rows = [f"{lat!r},{lon!r}" for lat, lon in points]
        rows[5:5] = ["nan,-73.99", "40.75,inf", "-inf,-inf", "NaN,nan", "", " , ", ",", "40.75,east"]
        path = write(tmp_path / "c.csv", "lat,lon\n" + "\n".join(rows) + "\n")
        ds = load_checkins(path, MANHATTAN_BBOX, grid)
        cells, malformed, outside = checkin_cells_per_row(path, MANHATTAN_BBOX, grid)
        assert (ds.n_malformed, ds.n_out_of_range) == (malformed, outside) and malformed == 1
        assert ds.values == tuple(cells)
        # grouped while loading, in the order that counting the cells gives
        assert set(vars(ds.values)) == {"counts", "samples"}
        assert list(ds.values.counts.items()) == list(Counter(cells).items())

    def test_discretization_idempotent(self):
        grid = grid_for_bbox(MANHATTAN_BBOX, 0.5)
        # mapping any point to its cell center and discretizing again must
        # return the same center
        w = grid.cell_width_km
        ox, oy = grid.origin
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(0, grid.nx * w)
            y = rng.uniform(0, grid.ny * w)
            ix = min(max(int((x - ox + w / 2) // w), 0), grid.nx - 1)
            iy = min(max(int((y - oy + w / 2) // w), 0), grid.ny - 1)
            cx, cy = grid.values[iy * grid.nx + ix]
            ix2 = min(max(int((cx - ox + w / 2) // w), 0), grid.nx - 1)
            iy2 = min(max(int((cy - oy + w / 2) // w), 0), grid.ny - 1)
            assert (ix2, iy2) == (ix, iy)


# loader -> (load(path), header, a usable row, a malformed row, a row it filters out)
LOADERS = {
    "ages": (load_ages, "age", "25", "abc", "150"),
    "checkins": (lambda path: load_checkins(path, MANHATTAN_BBOX, grid_for_bbox(MANHATTAN_BBOX, 0.5)),
                 "lat,lon", "40.75,-73.99", "40.75,east", "41.5,-73.99"),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loaders_share_row_contract(tmp_path, name):
    load, header, good, bad, filtered = LOADERS[name]

    def load_rows(*rows, head=header):
        return load(write(tmp_path / "rows.csv", "\n".join([head, *rows]) + "\n"))

    ds = load_rows("", good, " , ", good, "")
    assert (ds.n, ds.n_malformed, ds.n_out_of_range) == (2, 0, 0)
    ds = load_rows(*[good] * 200, bad, filtered)
    assert (ds.n, ds.n_malformed, ds.n_out_of_range) == (200, 1, 1)
    # 1 malformed row of 99 is over 1%; the blank rows do not count as rows
    with pytest.raises(TooManyMalformedRowsError):
        load_rows(*[good] * 98, bad, *[""] * 10)
    with pytest.raises(EmptyDatasetError):
        load_rows(filtered, filtered)
    # with no usable row left, emptiness is reported before the malformed share
    with pytest.raises(EmptyDatasetError):
        load_rows(filtered, bad)
    with pytest.raises(EmptyDatasetError):
        load_rows()
    with pytest.raises(EmptyDatasetError):
        load(write(tmp_path / "empty.csv", ""))
    with pytest.raises(ValueError):
        load_rows(good, head="x,y")


class TestSynthetic:
    def test_point_mass_constant(self):
        alpha = LinearAlphabet.range(0, 3)
        dist = Distribution(alpha, [0.0, 0.0, 1.0, 0.0])
        ds = sample_synthetic(Explicit(dist), 50, np.random.default_rng(0))
        assert set(ds.values) == {2}

    def test_uniform_frequencies(self):
        ds = sample_synthetic(UniformOn((3, 4, 5, 6)), 100_000, np.random.default_rng(2))
        freqs = np.array([ds.values.count(v) / ds.n for v in (3, 4, 5, 6)])
        assert np.all(np.abs(freqs - 0.25) < 0.006)  # 4 sigma of Bin(1e5, .25)

    def test_binomial_mean(self):
        ds = sample_synthetic(Binomial(10, 0.5), 100_000, np.random.default_rng(3))
        # mean of 9 fair trials is 4.5; 4 sigma of the sample mean is ~0.019
        assert abs(np.mean(ds.values) - 4.5) < 0.02
        assert min(ds.values) >= 0 and max(ds.values) <= 9

    def test_explicit_draws_are_generator_choices(self):
        # The data and the generator's end state are those of
        # Generator.choice over the alphabet's indices, on about 2,000
        # distributions: k from 1 to 5,000, runs of zeros at the start, in the
        # middle and at the end, point masses, and near point masses whose
        # other entries are 1e-12, so that thousands of CDF entries share one
        # bucket of the sampler's guide table.  n runs from 1 to 5,000.
        cases = np.random.default_rng(20261021)
        for case in range(2000):
            k, n = (int(np.exp(cases.uniform(0.0, np.log(5001)))) for _ in range(2))
            weights = cases.random(k) ** cases.integers(1, 6)
            shape = case % 5
            if shape == 1:  # runs of zeros at the start, in the middle and at the end
                a, b, c, e = np.sort(cases.integers(0, k + 1, 4))
                weights[:a] = weights[b:c] = weights[e:] = 0.0
            elif shape in (2, 3):  # a point mass, or all but one entry 1e-12
                weights[:] = 0.0 if shape == 2 else 1e-12
                weights[cases.integers(k)] = 1.0
            if not weights.any():
                weights[cases.integers(k)] = 1.0
            d = distribution_new(Alphabet(range(k)), weights)
            seed = int(cases.integers(2**63))
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_synthetic(Explicit(d), n, rng).values
            want = tuple(d.alphabet.values[i] for i in ref.choice(k, size=n, p=d.probs))
            assert got == want, (case, k, n, seed)
            assert rng.bit_generator.state == ref.bit_generator.state, (case, k, n, seed)

    def test_invalid_specs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidSpecError):
            sample_synthetic(Binomial(1, 0.5), 10, rng)
        with pytest.raises(InvalidSpecError):
            sample_synthetic(UniformOn(()), 10, rng)
        with pytest.raises(InvalidSpecError):
            sample_synthetic("bogus", 10, rng)
        with pytest.raises(InvalidSpecError):
            sample_synthetic(Binomial(10, 0.5), 0, rng)


def test_empirical_distribution():
    alpha = LinearAlphabet.range(0, 2)
    d = empirical_distribution(alpha, [0, 1, 1, 2])
    np.testing.assert_allclose(d.probs, [0.25, 0.5, 0.25])


ALPHA12 = LinearAlphabet.range(0, 11)
# two ints, two floats (8.0 is a member of ALPHA12), a string and a tuple
MIXED = Distribution(Alphabet([2, 2.5, "a", 7, (1, 2), 8.0]), [0.1, 0.2, 0.1, 0.3, 0.1, 0.2])
COUNTED_MECHANISMS = {
    "krr": build_krr(ALPHA12, 1.0),
    "geometric-truncated": build_geometric_truncated(0, 11, 0.5),
    "integer-line": build_geometric_linear(0.5),
    "rappor": build_rappor(ALPHA12, 2.0),
}


def _outcome(call, *args):
    """What ``call(*args)`` returns, reduced to comparable values, or the
    type and message of the error it raises."""
    try:
        out = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if hasattr(out, "probs"):
        return out.probs.tolist()
    if hasattr(out, "items"):
        return out.items()
    return out


def _ages_csv(tmp_path) -> str:
    return write(tmp_path / "ages.csv", "age\n" + "\n".join(map(str, [3, 7, 7, 11, 0, 7, 5, 3])) + "\n")


# name -> the dataset, made in a temporary directory
COUNTED_DATASETS = {
    "explicit": lambda tmp: sample_synthetic(
        Explicit(distribution_new(ALPHA12, np.r_[np.zeros(3), np.ones(9)])), 600, np.random.default_rng(1)),
    "binomial": lambda tmp: sample_synthetic(Binomial(12, 0.4), 600, np.random.default_rng(2)),
    "explicit-mixed-types": lambda tmp: sample_synthetic(Explicit(MIXED), 600, np.random.default_rng(7)),
    "uniform-repeats": lambda tmp: sample_synthetic(UniformOn((5, 2, 5, 9, 2)), 600, np.random.default_rng(3)),
    "uniform-3-and-3.0": lambda tmp: sample_synthetic(UniformOn((3, 3.0)), 600, np.random.default_rng(4)),
    "loaded": lambda tmp: load_ages(_ages_csv(tmp), lo=0, hi=11),
    "hand-built": lambda tmp: RawDataset("synthetic", (4, 2, 4, 11, 4)),
    "hand-built-outside": lambda tmp: RawDataset("synthetic", (4, 12, 4)),
    "hand-built-bool": lambda tmp: RawDataset("synthetic", (4, True)),
    "hand-built-unhashable": lambda tmp: RawDataset("synthetic", (4, [4])),
    "hand-built-empty": lambda tmp: RawDataset("synthetic", ()),
}


class TestCountedDataset:
    """A dataset's values carry their grouping; every counting call gives
    on them what it gives on the same data as a plain list."""

    @pytest.mark.parametrize("name", list(COUNTED_DATASETS))
    def test_same_as_plain_list(self, tmp_path, name):
        values = COUNTED_DATASETS[name](tmp_path).values
        assert isinstance(values, CountedTuple)
        for domain in (ALPHA12, INTEGER_LINE):
            assert _outcome(tally, domain, values) == _outcome(tally, domain, list(values))
        assert (_outcome(empirical_distribution, ALPHA12, values)
                == _outcome(empirical_distribution, ALPHA12, list(values)))
        for mech in COUNTED_MECHANISMS.values():
            rng, ref = np.random.default_rng(5), np.random.default_rng(5)
            assert (_outcome(obfuscate_dataset, mech, values, rng)
                    == _outcome(obfuscate_dataset, mech, list(values), ref))
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("name", ["explicit", "binomial", "explicit-mixed-types"])
    def test_sampled_data_come_grouped_as_counted(self, tmp_path, name):
        # Explicit and Binomial data are grouped from their draws before any
        # tally, in the order that counting the tuple gives, with a datum of
        # each type that the data hold
        values = COUNTED_DATASETS[name](tmp_path).values
        assert set(vars(values)) == {"counts", "samples"}
        counted = CountedTuple(tuple(values))
        assert list(values.counts.items()) == list(counted.counts.items())
        assert values.samples.keys() == counted.samples.keys()
        assert all(type(x) is t for t, x in values.samples.items())
