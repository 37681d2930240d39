"""Dataset ingestion and synthetic data generation.

Loads one-dimensional age values from CSV, maps check-in coordinates onto a
planar grid via an equirectangular kilometre projection, and samples
synthetic datasets from a few simple families.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Alphabet, Distribution, PlanarAlphabet
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
    """An immutable loaded or generated dataset of alphabet elements."""

    kind: str  # "ages" | "checkins" | "synthetic"
    values: tuple
    source: str = ""
    n_malformed: int = 0
    n_out_of_range: int = 0

    def __post_init__(self):
        if self.kind == "ages" and any(not (0 <= v <= 150) for v in self.values):
            raise ValueError("ages must lie in [0, 150]")

    @property
    def n(self) -> int:
        return len(self.values)


def load_ages(csv_path: str, age_column="age", lo: int = 0, hi: int = 99) -> RawDataset:
    """Read integer ages from a CSV column (by header name or index).

    Unparseable rows are counted and skipped up to a 1% threshold; rows
    outside [lo, hi] are dropped with a count.
    """
    ages = []
    malformed = 0
    out_of_range = 0
    total = 0
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{csv_path} is empty") from None
        if isinstance(age_column, int):
            col = age_column
        else:
            stripped = [h.strip() for h in header]
            if age_column not in stripped:
                raise ValueError(f"column {age_column!r} not found in header {stripped}")
            col = stripped.index(age_column)
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            total += 1
            try:
                age = int(row[col].strip())
            except (ValueError, IndexError):
                malformed += 1
                continue
            if lo <= age <= hi:
                ages.append(age)
            else:
                out_of_range += 1
    if total == 0 or not ages:
        raise EmptyDatasetError(f"{csv_path} contains no usable rows")
    if malformed > MALFORMED_THRESHOLD * total:
        raise TooManyMalformedRowsError(
            f"{malformed} of {total} rows malformed (threshold {MALFORMED_THRESHOLD:.0%})"
        )
    return RawDataset("ages", tuple(ages), source=csv_path,
                      n_malformed=malformed, n_out_of_range=out_of_range)


# ---------------------------------------------------------------------------
# Check-ins
# ---------------------------------------------------------------------------

def project_latlon(lat, lon, bbox) -> tuple:
    """Equirectangular projection to kilometres, anchored at the bbox
    lower-left corner with the cosine taken at the bbox center latitude."""
    lat_min, lat_max, lon_min, lon_max = bbox
    lat0 = math.radians((lat_min + lat_max) / 2.0)
    x = EARTH_RADIUS_KM * math.cos(lat0) * math.radians(lon - lon_min)
    y = EARTH_RADIUS_KM * math.radians(lat - lat_min)
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
    point to the center of its enclosing grid cell."""
    lat_min, lat_max, lon_min, lon_max = bbox
    width, height = bbox_extent_km(bbox)
    w = grid.cell_width_km
    if abs(grid.nx * w - width) > w or abs(grid.ny * w - height) > w:
        raise BBoxGridMismatchError(
            f"grid extent {grid.nx * w:.2f}x{grid.ny * w:.2f} km does not cover "
            f"the bbox extent {width:.2f}x{height:.2f} km"
        )
    cells = []
    malformed = 0
    dropped = 0
    total = 0
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyDatasetError(f"{csv_path} is empty") from None
        try:
            lat_col = header.index("lat")
            lon_col = header.index("lon")
        except ValueError:
            raise ValueError(f"need 'lat' and 'lon' columns, header is {header}") from None
        ox, oy = grid.origin
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            total += 1
            try:
                lat = float(row[lat_col])
                lon = float(row[lon_col])
            except (ValueError, IndexError):
                malformed += 1
                continue
            if not (lat_min <= lat <= lat_max and lon_min <= lon <= lon_max):
                dropped += 1
                continue
            x, y = project_latlon(lat, lon, bbox)
            ix = min(max(int((x - ox + w / 2.0) // w), 0), grid.nx - 1)
            iy = min(max(int((y - oy + w / 2.0) // w), 0), grid.ny - 1)
            cells.append(grid.values[iy * grid.nx + ix])
    if not cells:
        raise EmptyDatasetError(f"{csv_path} contains no usable rows inside the bbox")
    if malformed > MALFORMED_THRESHOLD * total:
        raise TooManyMalformedRowsError(
            f"{malformed} of {total} rows malformed (threshold {MALFORMED_THRESHOLD:.0%})"
        )
    return RawDataset("checkins", tuple(cells), source=csv_path,
                      n_malformed=malformed, n_out_of_range=dropped)


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


def sample_synthetic(spec, n: int, rng: np.random.Generator) -> RawDataset:
    """Draw n i.i.d. samples from the given family."""
    if n < 1:
        raise InvalidSpecError("n must be at least 1")
    if isinstance(spec, Binomial):
        if spec.k < 2 or not (0.0 <= spec.p <= 1.0):
            raise InvalidSpecError("binomial needs k >= 2 and p in [0, 1]")
        draws = rng.binomial(spec.k - 1, spec.p, size=n)
        values = tuple(draws.tolist())
        label = f"binomial(k={spec.k}, p={spec.p})"
    elif isinstance(spec, UniformOn):
        subset = tuple(spec.subset)
        if not subset:
            raise InvalidSpecError("uniform subset must be non-empty")
        idx = rng.integers(0, len(subset), size=n)
        values = tuple(subset[i] for i in idx.tolist())
        label = f"uniform(|subset|={len(subset)})"
    elif isinstance(spec, Explicit):
        dist = spec.distribution
        idx = rng.choice(dist.alphabet.size, size=n, p=dist.probs)
        values = tuple(dist.alphabet.values[i] for i in idx.tolist())
        label = "explicit"
    else:
        raise InvalidSpecError(f"unknown synthetic spec {spec!r}")
    return RawDataset("synthetic", values, source=label)


def empirical_distribution(alphabet: Alphabet, values: Sequence) -> Distribution:
    """Frequency distribution of a dataset over its alphabet."""
    counts = np.bincount([alphabet.index(v) for v in values], minlength=alphabet.size).astype(float)
    if counts.sum() == 0:
        raise EmptyDatasetError("no values to count")
    return Distribution(alphabet, counts / counts.sum())
