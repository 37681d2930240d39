"""Constructors and samplers for the privacy mechanisms.

Finite mechanisms materialize a dense row-stochastic matrix.  The untruncated
geometric mechanism keeps a lazy kernel on the integers, and RAPPOR keeps a
closed-form kernel on bit vectors, since neither output domain fits in a
matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

import numpy as np

from .core import (
    INTEGER_LINE,
    Alphabet,
    FiniteMechanism,
    LinearAlphabet,
    Mechanism,
    ObservationSet,
    PlanarAlphabet,
)
from .errors import (
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

# Ring weight, relative to the accumulated row weight, below which the
# planar super-grid stops growing.
_RING_MASS_TOL = 1e-12


def _require_positive_eps(eps: float):
    if not (eps > 0):
        raise NonPositiveEpsilonError(f"epsilon must be strictly positive, got {eps}")


# ---------------------------------------------------------------------------
# Identity and k-RR
# ---------------------------------------------------------------------------

def build_identity(alphabet: Alphabet) -> FiniteMechanism:
    """Noise-free mechanism that reports the input unchanged."""
    return FiniteMechanism(
        alphabet, alphabet.values, np.eye(alphabet.size), kind="identity"
    )


def build_krr(alphabet: Alphabet, eps_ldp: float) -> FiniteMechanism:
    """k-ary randomized response: keep the true value with probability
    e^eps / (k - 1 + e^eps), otherwise report one of the others uniformly."""
    k = alphabet.size
    if k < 2:
        raise AlphabetTooSmallError("k-RR needs at least two alphabet elements")
    if eps_ldp < 0:
        raise NonPositiveEpsilonError("eps_ldp must be non-negative")
    e = math.exp(eps_ldp)
    denom = k - 1 + e
    matrix = np.full((k, k), 1.0 / denom)
    np.fill_diagonal(matrix, e / denom)
    return FiniteMechanism(
        alphabet, alphabet.values, matrix, kind="krr", params={"eps_ldp": eps_ldp}
    )


# ---------------------------------------------------------------------------
# Geometric mechanisms
# ---------------------------------------------------------------------------

def _integers(values: Sequence, error) -> np.ndarray:
    for v in values:
        if v not in INTEGER_LINE:
            raise error(f"{v!r} is not an integer")
    return np.array(values, dtype=np.int64)


class IntegerLineMechanism(Mechanism):
    """Two-sided geometric noise on the integers.

    P(z | x) = c * a^|z - x| with a = e^(-eps) and c = (1 - a) / (1 + a),
    which sums to one over all integers.
    """

    kind = "geometric-linear"
    distance_monotone = True

    def __init__(self, eps_geo: float):
        _require_positive_eps(eps_geo)
        super().__init__(INTEGER_LINE)
        self.eps_geo = float(eps_geo)
        self._a = math.exp(-self.eps_geo)
        self._c = (1.0 - self._a) / (1.0 + self._a)

    def kernel(self, xs: Sequence, zs: Sequence) -> np.ndarray:
        # One scalar c * a^d per distinct distance d keeps every entry
        # bit-identical to the scalar formula; a vectorized power may differ
        # by an ulp, and IBU's stopping iteration is sensitive to that.
        x = _integers(xs, ElementOutsideAlphabetError)
        z = _integers(zs, ObservationOutsideDomainError)
        dists, where = np.unique(np.abs(z[None, :] - x[:, None]), return_inverse=True)
        table = np.array([self._c * self._a ** int(d) for d in dists])
        return table[where].reshape(x.size, z.size)

    def sample_counts(self, x, count: int, rng: np.random.Generator) -> dict:
        if x not in INTEGER_LINE:
            raise ElementOutsideAlphabetError(f"{x!r} is not an integer")
        stay = rng.random(count) < self._c
        m = int(count - stay.sum())
        noise = np.zeros(count, dtype=np.int64)
        if m:
            signs = np.where(rng.random(m) < 0.5, 1, -1)
            mags = rng.geometric(1.0 - self._a, size=m)
            noise[~stay] = signs * mags
        out: dict = {}
        vals, cnts = np.unique(int(x) + noise, return_counts=True)
        for v, c in zip(vals, cnts):
            out[int(v)] = int(c)
        return out

    def params_dict(self):
        return {"eps_geo": self.eps_geo}

    def to_dict(self):
        return {"mechanism": self.kind, "finite": False, "params": self.params_dict()}


def build_geometric_linear(eps_geo: float) -> IntegerLineMechanism:
    return IntegerLineMechanism(eps_geo)


def build_geometric_truncated(r1: int, r2: int, eps_geo: float) -> FiniteMechanism:
    """Geometric noise restricted to the integer range [r1, r2].

    Boundary outputs absorb the clipped tails, so each column z has its own
    normalizer: 1/(1+a) on the two boundary columns and (1-a)/(1+a) inside,
    with a = e^(-eps).  Rows then sum to one by an exact telescoping identity.
    """
    if r1 >= r2:
        raise EmptyRangeError(f"need r1 < r2, got [{r1}, {r2}]")
    _require_positive_eps(eps_geo)
    alphabet = LinearAlphabet.range(int(r1), int(r2))
    vals = np.array(alphabet.values, dtype=np.int64)
    a = math.exp(-eps_geo)
    col_norm = np.full(vals.size, (1.0 - a) / (1.0 + a))
    col_norm[0] = col_norm[-1] = 1.0 / (1.0 + a)
    dist = np.abs(vals[:, None] - vals[None, :])
    matrix = col_norm[None, :] * np.power(a, dist)
    return FiniteMechanism(
        alphabet,
        alphabet.values,
        matrix,
        kind="geometric-truncated",
        distance_monotone=True,
        params={"eps_geo": float(eps_geo), "r1": int(r1), "r2": int(r2)},
    )


def _check_same_lattice(input_grid: PlanarAlphabet, output_grid: PlanarAlphabet):
    w = input_grid.cell_width_km
    if abs(w - output_grid.cell_width_km) > 1e-9 * max(1.0, w):
        raise GridMismatchError("input and output grids must share the cell width")
    for d in (output_grid.origin[0] - input_grid.origin[0],
              output_grid.origin[1] - input_grid.origin[1]):
        if abs(d / w - round(d / w)) > 1e-9:
            raise GridMismatchError("input and output grids must lie on the same lattice")


def _ring_cells(nx: int, ny: int, margin: int) -> np.ndarray:
    """Lattice cells at exactly ``margin`` rings outside the nx-by-ny rectangle."""
    lo_x, hi_x = -margin, nx - 1 + margin
    lo_y, hi_y = -margin, ny - 1 + margin
    ring = []
    for sx in range(lo_x, hi_x + 1):
        ring.append((sx, lo_y))
        ring.append((sx, hi_y))
    for sy in range(lo_y + 1, hi_y):
        ring.append((lo_x, sy))
        ring.append((hi_x, sy))
    return np.array(ring, dtype=np.int64)


def _super_grid_margin(weight_of, nx: int, ny: int, in_coords: np.ndarray) -> int:
    """Grow rings around the nx-by-ny rectangle until the mass a new ring adds
    is below tolerance, relative to the running total, for every input row."""
    base = np.array(
        [(sx, sy) for sy in range(ny) for sx in range(nx)], dtype=np.int64
    )
    totals = weight_of(in_coords, base).sum(axis=1)
    margin = 0
    while True:
        ring = _ring_cells(nx, ny, margin + 1)
        ring_mass = weight_of(in_coords, ring).sum(axis=1)
        if np.max(ring_mass / totals) < _RING_MASS_TOL:
            return margin
        totals += ring_mass
        margin += 1


def _remapped_kernel(weight_of, in_coords: np.ndarray, nx: int, ny: int,
                     n_out: int) -> np.ndarray:
    """Accumulate super-grid weights into the output grid.

    Every super-grid cell outside the output rectangle is remapped to its
    nearest output cell; on a rectangular grid that is the coordinate-wise
    clamp, which is unique, so no tie-breaking is needed.  Rows are
    normalized at the end (remapping conserves mass, so this equals
    normalizing over the super-grid first).
    """
    n_in = in_coords.shape[0]
    margin = _super_grid_margin(weight_of, nx, ny, in_coords)
    sx = np.arange(-margin, nx + margin)
    sy = np.arange(-margin, ny + margin)
    gx, gy = np.meshgrid(sx, sy, indexing="xy")
    super_cells = np.stack([gx.ravel(), gy.ravel()], axis=1)

    acc = np.zeros((n_out, n_in))
    chunk = max(1, 2_000_000 // max(1, n_in))
    for start in range(0, super_cells.shape[0], chunk):
        cells = super_cells[start:start + chunk]
        weight = weight_of(in_coords, cells)
        tx = np.clip(cells[:, 0], 0, nx - 1)
        ty = np.clip(cells[:, 1], 0, ny - 1)
        np.add.at(acc, ty * nx + tx, weight.T)
    matrix = acc.T.copy()
    matrix /= matrix.sum(axis=1, keepdims=True)
    return matrix


def build_geometric_planar(input_grid: PlanarAlphabet, output_grid: PlanarAlphabet,
                           eps_geo: float) -> FiniteMechanism:
    """Planar geometric mechanism truncated to ``output_grid``.

    Weights e^(-eps * d(x, s)) are laid on a super-grid that extends the
    output grid until the remaining tail is negligible, normalized per row,
    and every super-grid cell outside the output grid is remapped to its
    nearest output cell.  The output grid may be smaller than the input grid.
    """
    _require_positive_eps(eps_geo)
    _check_same_lattice(input_grid, output_grid)
    w = output_grid.cell_width_km
    ox, oy = output_grid.origin
    nx, ny = output_grid.nx, output_grid.ny

    in_centers = input_grid.centers_array()
    in_coords = np.empty((input_grid.size, 2))
    in_coords[:, 0] = (in_centers[:, 0] - ox) / w
    in_coords[:, 1] = (in_centers[:, 1] - oy) / w

    def weight_of(rows, cells):
        diff = rows[:, None, :] - cells[None, :, :].astype(float)
        dist = np.sqrt((diff ** 2).sum(axis=2)) * w
        return np.exp(-eps_geo * dist)

    matrix = _remapped_kernel(weight_of, in_coords, nx, ny, output_grid.size)
    return FiniteMechanism(
        input_grid,
        output_grid.values,
        matrix,
        kind="geometric-planar",
        distance_monotone=True,
        params={"eps_geo": float(eps_geo)},
    )


# ---------------------------------------------------------------------------
# Laplace mechanisms, discretized
# ---------------------------------------------------------------------------

def _laplace_cdf(t: float, eps: float) -> float:
    if t <= 0:
        return 0.5 * math.exp(eps * t)
    return 1.0 - 0.5 * math.exp(-eps * t)


def build_laplace_linear_discretized(alphabet: LinearAlphabet, eps_geo: float) -> FiniteMechanism:
    """Laplace noise on the line, binned back onto a contiguous integer range.

    Cell boundaries sit at midpoints between adjacent values; the two extreme
    cells absorb the tails, so each row is an exact CDF telescope.
    """
    _require_positive_eps(eps_geo)
    if not isinstance(alphabet, LinearAlphabet) or not alphabet.is_contiguous:
        raise NonContiguousAlphabetError("the alphabet must be a contiguous integer range")
    vals = alphabet.values
    k = len(vals)
    edges = [-math.inf] + [v + 0.5 for v in vals[:-1]] + [math.inf]
    matrix = np.empty((k, k))
    for i, x in enumerate(vals):
        for j in range(k):
            lo, hi = edges[j], edges[j + 1]
            hi_cdf = 1.0 if hi == math.inf else _laplace_cdf(hi - x, eps_geo)
            lo_cdf = 0.0 if lo == -math.inf else _laplace_cdf(lo - x, eps_geo)
            matrix[i, j] = hi_cdf - lo_cdf
    return FiniteMechanism(
        alphabet,
        vals,
        matrix,
        kind="laplace-linear",
        distance_monotone=True,
        params={"eps_geo": float(eps_geo)},
    )


def build_laplace_planar_discretized(grid: PlanarAlphabet, eps_geo: float) -> FiniteMechanism:
    """Planar Laplace noise binned onto the grid.

    Cell masses use the midpoint density (eps^2 / 2pi) e^(-eps d) times the
    cell area, evaluated on a margin-extended super-grid; cells outside the
    grid are remapped to the nearest grid cell and rows are renormalized.
    """
    _require_positive_eps(eps_geo)
    w = grid.cell_width_km
    nx, ny = grid.nx, grid.ny
    coords = grid.lattice_coords().astype(float)

    def weight_of(rows, cells):
        diff = rows[:, None, :] - cells[None, :, :].astype(float)
        dist = np.sqrt((diff ** 2).sum(axis=2)) * w
        return (eps_geo ** 2 / (2.0 * math.pi)) * np.exp(-eps_geo * dist) * w * w

    matrix = _remapped_kernel(weight_of, coords, nx, ny, grid.size)
    return FiniteMechanism(
        grid,
        grid.values,
        matrix,
        kind="laplace-planar",
        distance_monotone=True,
        params={"eps_geo": float(eps_geo)},
    )


# ---------------------------------------------------------------------------
# Exponential mechanism
# ---------------------------------------------------------------------------

def build_exponential(alphabet: Alphabet, metric, eps_geo: float) -> FiniteMechanism:
    """Exponential mechanism over a finite alphabet with ground metric d:
    P(z | x) proportional to e^(-eps * d(x, z) / 2)."""
    _require_positive_eps(eps_geo)
    k = alphabet.size
    if callable(metric):
        dist = np.empty((k, k))
        for i, x in enumerate(alphabet.values):
            for j, z in enumerate(alphabet.values):
                dist[i, j] = metric(x, z)
    else:
        dist = np.asarray(metric, dtype=float)
        if dist.shape != (k, k):
            raise InvalidMetricError("distance matrix shape must match the alphabet")
    if np.any(dist < 0):
        raise InvalidMetricError("distances must be non-negative")
    if np.any(np.abs(np.diag(dist)) > 0):
        raise InvalidMetricError("distances must be zero on the diagonal")
    if np.any(np.abs(dist - dist.T) > 1e-12 * (1.0 + np.abs(dist))):
        raise InvalidMetricError("the metric must be symmetric")
    weight = np.exp(-eps_geo * dist / 2.0)
    matrix = weight / weight.sum(axis=1, keepdims=True)
    return FiniteMechanism(
        alphabet,
        alphabet.values,
        matrix,
        kind="exponential",
        distance_monotone=True,
        params={"eps_geo": float(eps_geo)},
    )


# ---------------------------------------------------------------------------
# RAPPOR
# ---------------------------------------------------------------------------

def rappor_keep_prob(eps_ldp: float) -> float:
    """Per-bit probability of keeping a bit: e^(eps/2) / (1 + e^(eps/2))."""
    if eps_ldp < 0:
        raise NonPositiveEpsilonError("eps_ldp must be non-negative")
    e = math.exp(eps_ldp / 2.0)
    return e / (1.0 + e)


class BitVectorMechanism(Mechanism):
    """Basic one-time RAPPOR: one-hot encoding with independent bit flips.

    A report is a 0/1 tuple with one bit per alphabet element.  P(beta | x)
    equals p^k * e^(-(1/2 + S/2 - beta_x) * eps), where S is the number of
    set bits, which matches the independent per-bit product.
    """

    kind = "rappor"
    distance_monotone = False

    def __init__(self, alphabet: Alphabet, eps_ldp: float):
        if eps_ldp < 0:
            raise NonPositiveEpsilonError("eps_ldp must be non-negative")
        super().__init__(alphabet)
        self.eps_ldp = float(eps_ldp)

    @property
    def keep_prob(self) -> float:
        return rappor_keep_prob(self.eps_ldp)

    def _report_bits(self, zs: Sequence) -> np.ndarray:
        """The reports as a (len(zs), k) 0/1 matrix."""
        k = self.input_alphabet.size
        try:
            bits = np.array(zs) if len(zs) else np.zeros((0, k))
        except ValueError:  # reports of different lengths
            bits = None
        if bits is None or bits.ndim != 2 or bits.shape[1] != k:
            raise LengthMismatchError(f"reports must be bit vectors of length {k}, the alphabet size")
        if not np.all((bits == 0) | (bits == 1)):
            raise ObservationOutsideDomainError("report entries must be 0 or 1")
        return bits.astype(np.intp)

    def kernel(self, xs: Sequence, zs: Sequence) -> np.ndarray:
        # The kernel depends on a report only through (beta_x, S), so the
        # closed form is evaluated once per pair, in the same scalar
        # arithmetic as a single-cell evaluation.
        k = self.input_alphabet.size
        bits = self._report_bits(zs)
        rows = [self.input_alphabet.index(x) for x in xs]
        pk = self.keep_prob ** k
        table = np.array([
            [pk * math.exp(-(0.5 + 0.5 * float(s) - float(b)) * self.eps_ldp) for s in range(k + 1)]
            for b in (0, 1)
        ])
        return table[bits[:, rows].T, bits.sum(axis=1)[None, :]]

    def sample_counts(self, x, count: int, rng: np.random.Generator) -> dict:
        k = self.input_alphabet.size
        i = self.input_alphabet.index(x)
        bits = np.zeros(k, dtype=np.int64)
        bits[i] = 1
        keep = rng.random((count, k)) < self.keep_prob
        noisy = np.where(keep, bits[None, :], 1 - bits[None, :])
        return dict(Counter(map(tuple, noisy.tolist())))

    def params_dict(self):
        return {"eps_ldp": self.eps_ldp}

    def to_dict(self):
        return {
            "mechanism": self.kind,
            "finite": False,
            "alphabet": self.input_alphabet.to_dict(),
            "params": self.params_dict(),
        }


def build_rappor(alphabet: Alphabet, eps_ldp: float) -> BitVectorMechanism:
    return BitVectorMechanism(alphabet, eps_ldp)


# ---------------------------------------------------------------------------
# Batch obfuscation
# ---------------------------------------------------------------------------

def obfuscate_dataset(mech: Mechanism, data: Sequence, rng: np.random.Generator) -> ObservationSet:
    """Draw one independent report per datum; the result is counted, so it
    carries no information about the input order."""
    grouped: dict = {}
    for x in data:
        if not mech.contains_input(x):
            raise ElementOutsideAlphabetError(f"{x!r} is not in the mechanism's input alphabet")
        grouped[x] = grouped.get(x, 0) + 1
    counts: dict = {}
    if isinstance(mech.input_alphabet, Alphabet):
        ordered = sorted(grouped, key=mech.input_alphabet.index)
    else:
        ordered = sorted(grouped)
    for x in ordered:
        for z, c in mech.sample_counts(x, grouped[x], rng).items():
            counts[z] = counts.get(z, 0) + c
    return ObservationSet(counts)


def load_mechanism_dict(d: dict) -> Mechanism:
    """Rebuild a mechanism from its JSON dictionary."""
    kind = d.get("mechanism")
    if d.get("finite"):
        return FiniteMechanism.from_dict(d)
    if kind == "geometric-linear":
        return IntegerLineMechanism(d["params"]["eps_geo"])
    if kind == "rappor":
        return BitVectorMechanism(Alphabet.from_dict(d["alphabet"]), d["params"]["eps_ldp"])
    raise ValueError(f"unknown mechanism kind {kind!r}")
