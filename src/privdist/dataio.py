"""Dataset ingestion and synthetic data generation.

Loads one-dimensional age values from CSV, maps check-in coordinates onto a
planar grid via an equirectangular kilometre projection, and samples
synthetic datasets from a few simple families.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from .core import Alphabet, CountedTuple, Distribution, PlanarAlphabet, tally
from .errors import (
    BBoxGridMismatchError,
    EmptyDatasetError,
    InvalidSpecError,
    TooManyMalformedRowsError,
)

EARTH_RADIUS_KM = 6371.0088
# Fraction of unparseable rows tolerated before loading aborts.
MALFORMED_THRESHOLD = 0.01


@dataclass(frozen=True)
class RawDataset:
    """An immutable loaded or generated dataset of alphabet elements.

    ``values`` is a CountedTuple, so the dataset is counted at most once
    however often it is tallied (obfuscated, or turned into its empirical
    distribution)."""

    kind: str  # "ages" | "checkins" | "synthetic"
    values: tuple
    source: str = ""
    n_malformed: int = 0
    n_out_of_range: int = 0

    def __post_init__(self):
        if not isinstance(self.values, CountedTuple):
            object.__setattr__(self, "values", CountedTuple(self.values))
        if self.kind == "ages" and any(not (0 <= v <= 150) for v in self.values.counts):
            raise ValueError("ages must lie in [0, 150]")

    @property
    def n(self) -> int:
        return len(self.values)


def _read_rows(csv_path: str, columns: Sequence, parse) -> int:
    """The number of rows of a CSV file, each handed to ``parse``.

    ``parse`` gets the cells of ``columns`` (header names, or indices) and
    keeps what it reads, or rejects the row with ValueError or IndexError
    before keeping anything.  Blank rows are skipped and not counted."""
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyDatasetError(f"{csv_path} is empty") from None
        for c in columns:
            if not isinstance(c, int) and c not in header:
                raise ValueError(f"column {c!r} not found in header {header}")
        cols = [c if isinstance(c, int) else header.index(c) for c in columns]
        cells = itemgetter(*cols) if len(cols) > 1 else lambda row: (row[cols[0]],)
        total = 0
        for row in reader:
            if not "".join(row).strip():  # every cell blank
                continue
            total += 1
            try:
                parse(*cells(row))
            except (ValueError, IndexError):
                pass
    return total


def _dataset(kind: str, csv_path: str, values: list, n_parsed: int, total: int) -> RawDataset:
    """The dataset of the ``values`` kept from ``n_parsed`` parsed rows of
    ``total``; unparseable rows are tolerated up to a 1% threshold."""
    if not values:
        raise EmptyDatasetError(f"{csv_path} contains no usable rows")
    malformed = total - n_parsed
    if malformed > MALFORMED_THRESHOLD * total:
        raise TooManyMalformedRowsError(
            f"{malformed} of {total} rows malformed (threshold {MALFORMED_THRESHOLD:.0%})"
        )
    return RawDataset(kind, values, source=csv_path,
                      n_malformed=malformed, n_out_of_range=n_parsed - len(values))


def load_ages(csv_path: str, age_column="age", lo: int = 0, hi: int = 99) -> RawDataset:
    """Read integer ages from a CSV column (by header name or index).

    Unparseable rows are counted and skipped up to a 1% threshold; rows
    outside [lo, hi] are dropped with a count.
    """
    ages = []
    total = _read_rows(csv_path, [age_column], lambda age: ages.append(int(age.strip())))
    return _dataset("ages", csv_path, [a for a in ages if lo <= a <= hi], len(ages), total)


# ---------------------------------------------------------------------------
# Check-ins
# ---------------------------------------------------------------------------

def project_latlon(lat, lon, bbox) -> tuple:
    """Equirectangular projection to kilometres, anchored at the bbox
    lower-left corner with the cosine taken at the bbox center latitude.
    ``lat`` and ``lon`` may be numbers or arrays."""
    lat_min, lat_max, lon_min, lon_max = bbox
    lat0 = math.radians((lat_min + lat_max) / 2.0)
    x = EARTH_RADIUS_KM * math.cos(lat0) * np.radians(lon - lon_min)
    y = EARTH_RADIUS_KM * np.radians(lat - lat_min)
    return x, y


def bbox_extent_km(bbox) -> tuple:
    """(width_km, height_km) of the bounding box under the projection."""
    lat_min, lat_max, lon_min, lon_max = bbox
    x, y = project_latlon(lat_max, lon_max, bbox)
    return x, y


def grid_for_bbox(bbox, cell_km: float) -> PlanarAlphabet:
    """Planar grid covering the bbox with square cells of the given width."""
    width, height = bbox_extent_km(bbox)
    nx = max(1, round(width / cell_km))
    ny = max(1, round(height / cell_km))
    return PlanarAlphabet.grid(nx, ny, cell_km)


def load_checkins(csv_path: str, bbox, grid: PlanarAlphabet) -> RawDataset:
    """Read lat/lon rows, drop points outside the bbox, and map each retained
    point to the center of its enclosing grid cell.  The coordinates are
    parsed into one float array and projected and binned with numpy; the
    cells are grouped as ``sample_synthetic`` groups its draws."""
    lat_min, lat_max, lon_min, lon_max = bbox
    width, height = bbox_extent_km(bbox)
    w = grid.cell_width_km
    if abs(grid.nx * w - width) > w or abs(grid.ny * w - height) > w:
        raise BBoxGridMismatchError(
            f"grid extent {grid.nx * w:.2f}x{grid.ny * w:.2f} km does not cover "
            f"the bbox extent {width:.2f}x{height:.2f} km"
        )
    # both floats are read before extend, so a rejected row keeps neither
    latlon = array("d")
    total = _read_rows(csv_path, ["lat", "lon"], lambda lat, lon: latlon.extend((float(lat), float(lon))))
    lat, lon = np.frombuffer(latlon, dtype=float).reshape(-1, 2).T
    inside = (lat_min <= lat) & (lat <= lat_max) & (lon_min <= lon) & (lon <= lon_max)
    x, y = project_latlon(lat[inside], lon[inside], bbox)
    ox, oy = grid.origin
    ix = np.clip((x - ox + w / 2.0) // w, 0, grid.nx - 1).astype(np.intp)
    iy = np.clip((y - oy + w / 2.0) // w, 0, grid.ny - 1).astype(np.intp)
    return _dataset("checkins", csv_path, _counted(grid.values, iy * grid.nx + ix), lat.size, total)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Binomial:
    """Binomial family over {0..k-1}, i.e. k-1 trials with success prob p."""

    k: int
    p: float


@dataclass(frozen=True)
class UniformOn:
    """Uniform over an explicit subset of alphabet elements."""

    subset: tuple


@dataclass(frozen=True)
class Explicit:
    """Sample i.i.d. from a given distribution."""

    distribution: Distribution


def _counted(support: Sequence, idx: np.ndarray) -> CountedTuple:
    """The data ``support[i]`` for each i in ``idx``, grouped as counting
    them would group them, distinct data in the order they first occur,
    from one bincount and one scatter of ``idx``.  The ``support`` values
    must be distinct."""
    first = np.full(len(support), len(idx))
    np.minimum.at(first, idx, np.arange(len(idx)))
    tallied = np.bincount(idx, minlength=len(support))
    drawn = sorted(np.flatnonzero(tallied).tolist(), key=first.tolist().__getitem__)
    xs = [support[j] for j in drawn]
    objects = np.fromiter(support, dtype=object, count=len(support))
    # A tuple subclass copies the tuple it is made from, so the gathered
    # array is freed before that copy is made.
    return CountedTuple(tuple(objects[idx]), dict(zip(xs, tallied[drawn].tolist())),
                        {type(x): x for x in xs})


def _draw_indices(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """The indices ``rng.choice(len(probs), n, p=probs)`` returns, drawn from
    the same uniforms, so the generator ends in the same state, in O(n + k).

    ``choice`` makes one binary search of the CDF per datum.  Here each
    uniform u is first read from a guide table of G buckets (Chen & Asau,
    1974; Devroye, 1986, III.2.4): ``guide[b]`` counts the CDF entries at
    most b/G, which is the index of every u in bucket b that holds no
    entry.  Only the draws in buckets that hold one are searched.  G is a
    power of two, so u·G and cdf·G are exact, and so are the table and each
    draw's bucket.  G ≥ 2k, so at most half the buckets hold an entry, and
    G ≥ min(2n, 16k), so that fewer draws are searched where there are many,
    while the table stays O(k)."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u = rng.random(n)
    k = cdf.size
    G = 1 << (2 * max(k, min(n, 8 * k)) - 1).bit_length()
    guide = np.bincount(np.ceil(cdf * G).astype(np.intp), minlength=G + 1).cumsum()
    split = guide[1:] != guide[:-1]
    bucket = (u * G).astype(np.intp)
    idx = guide[bucket]
    searched = np.flatnonzero(split[bucket])
    idx[searched] = cdf.searchsorted(u[searched], side="right")
    return idx


def sample_synthetic(spec, n: int, rng: np.random.Generator) -> RawDataset:
    """Draw n i.i.d. samples from the given family."""
    if n < 1:
        raise InvalidSpecError("n must be at least 1")
    if isinstance(spec, Binomial):
        if spec.k < 2 or not (0.0 <= spec.p <= 1.0):
            raise InvalidSpecError("binomial needs k >= 2 and p in [0, 1]")
        values = _counted(range(spec.k), rng.binomial(spec.k - 1, spec.p, size=n))
        label = f"binomial(k={spec.k}, p={spec.p})"
    elif isinstance(spec, UniformOn):
        subset = tuple(spec.subset)
        if not subset:
            raise InvalidSpecError("uniform subset must be non-empty")
        idx = rng.integers(0, len(subset), size=n)
        # the subset may repeat a value, or hold equal ones such as 3 and
        # 3.0, so these data are grouped when first tallied
        values = tuple(map(subset.__getitem__, idx.tolist()))
        label = f"uniform(|subset|={len(subset)})"
    elif isinstance(spec, Explicit):
        dist = spec.distribution
        idx = _draw_indices(dist.probs, n, rng)
        values = _counted(dist.alphabet.values, idx)
        label = "explicit"
    else:
        raise InvalidSpecError(f"unknown synthetic spec {spec!r}")
    return RawDataset("synthetic", values, source=label)


def empirical_distribution(alphabet: Alphabet, values: Sequence) -> Distribution:
    """Frequency distribution of a dataset over its alphabet: the counts of
    ``tally`` placed by alphabet index, in O(k) for a counted dataset."""
    xs, tallied = tally(alphabet, values)
    if not xs:
        raise EmptyDatasetError("no values to count")
    counts = np.zeros(alphabet.size)
    counts[[alphabet.index(x) for x in xs]] = tallied
    return Distribution(alphabet, counts / counts.sum())
