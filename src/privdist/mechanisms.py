"""Constructors and samplers for the privacy mechanisms.

Finite mechanisms materialize a dense row-stochastic matrix.  The untruncated
geometric mechanism keeps a lazy kernel on the integers, and RAPPOR keeps a
closed-form kernel on bit vectors, since neither output domain fits in a
matrix.
"""

from __future__ import annotations

import math
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
    _canonical_order,
    tally,
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


def require_eps(eps: float, zero_ok: bool = False):
    """The one epsilon rule: NaN and negative values are rejected, and so is 0
    unless ``zero_ok`` (k-RR and RAPPOR, whose eps = 0 kernel is uniform).
    eps = inf is accepted, and every builder gives the identity there."""
    if not (eps >= 0 if zero_ok else eps > 0):
        needs = "non-negative" if zero_ok else "strictly positive"
        raise NonPositiveEpsilonError(f"epsilon must be {needs}, got {eps}")


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
    e^eps / (k - 1 + e^eps), otherwise report one of the others uniformly.
    Both are computed through e^(-eps), which cannot overflow."""
    k = alphabet.size
    if k < 2:
        raise AlphabetTooSmallError("k-RR needs at least two alphabet elements")
    require_eps(eps_ldp, zero_ok=True)
    keep = 1.0 / (1.0 + (k - 1) * math.exp(-eps_ldp))
    matrix = np.full((k, k), keep * math.exp(-eps_ldp))
    np.fill_diagonal(matrix, keep)
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
        require_eps(eps_geo)
        super().__init__(INTEGER_LINE)
        self.eps_geo = float(eps_geo)
        self._a = math.exp(-self.eps_geo)
        self._c = (1.0 - self._a) / (1.0 + self._a)

    def kernel(self, xs: Sequence, zs: Sequence) -> np.ndarray:
        # One scalar c * a^d per distinct distance d keeps every entry
        # bit-identical to the scalar formula; a vectorized power may differ
        # by an ulp, and IBU estimates on flat likelihoods move with such
        # rounding (README, Estimators), so bit-identical entries keep them
        # reproducible.
        x = _integers(xs, ElementOutsideAlphabetError)
        z = _integers(zs, ObservationOutsideDomainError)
        dists, where = np.unique(np.abs(z[None, :] - x[:, None]), return_inverse=True)
        table = np.array([self._c * self._a ** int(d) for d in dists])
        return table[where].reshape(x.size, z.size)

    def draw(self, xs: Sequence, counts: Sequence, rng: np.random.Generator):
        # The stay, sign and magnitude draws interleave per input, so the
        # loop over inputs stays.  All reports are counted at once at the
        # end, so only the distinct ones are sorted.
        reports = [np.zeros(0, dtype=np.int64)]
        for x, count in zip(xs, counts):
            if x not in INTEGER_LINE:
                raise ElementOutsideAlphabetError(f"{x!r} is not an integer")
            stay = rng.random(count) < self._c
            m = int(count - stay.sum())
            noise = np.zeros(count, dtype=np.int64)
            if m:
                signs = np.where(rng.random(m) < 0.5, 1, -1)
                mags = rng.geometric(1.0 - self._a, size=m)
                noise[~stay] = signs * mags
            reports.append(int(x) + noise)
        distinct, cnts = np.unique(np.concatenate(reports), return_counts=True)
        distinct = distinct.tolist()
        order = _canonical_order(distinct)
        return [distinct[j] for j in order], cnts[order]

    def params_dict(self):
        return {"eps_geo": self.eps_geo}


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
    require_eps(eps_geo)
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
    if not (isinstance(input_grid, PlanarAlphabet) and isinstance(output_grid, PlanarAlphabet)):
        raise GridMismatchError("the planar mechanisms need planar input and output grids")
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


def _geometric_weights(rows: np.ndarray, cells: np.ndarray, w: float, eps: float) -> np.ndarray:
    """e^(-eps * d) from each row to each super-grid cell, both in lattice
    units of cell width ``w`` km.  At eps = inf all weight is on the row's own
    cell (rows lie on the lattice, up to rounding)."""
    diff = rows[:, None, :] - cells[None, :, :].astype(float)
    dist = np.sqrt((diff ** 2).sum(axis=2)) * w
    if eps == math.inf:
        return (dist < 0.5 * w).astype(float)
    return np.exp(-eps * dist)


def _remapped_kernel(in_coords: np.ndarray, nx: int, ny: int, w: float, eps: float) -> np.ndarray:
    """Super-grid weights folded onto the nx-by-ny output grid in one pass.

    The super-grid grows ring by ring from the output rectangle.  Each ring's
    weights are folded onto the nearest output cell, which on a rectangular
    grid is the coordinate-wise clamp (unique, so no tie-breaking is needed),
    and added to the running row totals.  Growth stops at the first ring
    whose mass is below tolerance, relative to the running total, for every
    input row; that ring is left out.  Rows are normalized at the end
    (remapping conserves mass, so this equals normalizing over the super-grid
    first).  Every super-grid weight is computed once.
    """
    base = np.array([(sx, sy) for sy in range(ny) for sx in range(nx)], dtype=np.int64)
    acc = _geometric_weights(in_coords, base, w, eps)
    totals = acc.sum(axis=1)
    margin = 1
    while True:
        ring = _ring_cells(nx, ny, margin)
        weight = _geometric_weights(in_coords, ring, w, eps)
        ring_mass = weight.sum(axis=1)
        # a product, not a ratio: a row outside the output grid may have no mass yet
        if np.all(ring_mass < _RING_MASS_TOL * totals):
            return acc / acc.sum(axis=1, keepdims=True)
        folded = np.clip(ring[:, 1], 0, ny - 1) * nx + np.clip(ring[:, 0], 0, nx - 1)
        np.add.at(acc.T, folded, weight.T)
        totals += ring_mass
        margin += 1


def build_geometric_planar(input_grid: PlanarAlphabet, output_grid: PlanarAlphabet,
                           eps_geo: float) -> FiniteMechanism:
    """Planar geometric mechanism truncated to ``output_grid``.

    Weights e^(-eps * d(x, s)) are laid on a super-grid that extends the
    output grid until the remaining tail is negligible, normalized per row,
    and every super-grid cell outside the output grid is remapped to its
    nearest output cell.  One pass walks the super-grid ring by ring from the
    output rectangle, folding each ring onto the output grid as it goes and
    stopping at the first negligible ring (``_remapped_kernel``).  The output
    grid may be smaller than the input grid.
    """
    require_eps(eps_geo)
    _check_same_lattice(input_grid, output_grid)
    w = output_grid.cell_width_km
    ox, oy = output_grid.origin
    nx, ny = output_grid.nx, output_grid.ny

    in_centers = input_grid.centers_array()
    in_coords = np.empty((input_grid.size, 2))
    in_coords[:, 0] = (in_centers[:, 0] - ox) / w
    in_coords[:, 1] = (in_centers[:, 1] - oy) / w
    matrix = _remapped_kernel(in_coords, nx, ny, w, eps_geo)
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
    require_eps(eps_geo)
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
    cell area.  That is e^(-eps d) times a constant, which row normalization
    cancels, so the matrix is the planar geometric one on the same grid.
    """
    return FiniteMechanism(
        grid,
        grid.values,
        build_geometric_planar(grid, grid, eps_geo).matrix,
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
    require_eps(eps_geo)
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
    if eps_geo == math.inf:  # the limit: uniform over the zero-distance outputs
        weight = (dist == 0).astype(float)
    else:
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
    """Per-bit probability of keeping a bit: e^(eps/2) / (1 + e^(eps/2)),
    computed as 1 / (1 + e^(-eps/2)), which cannot overflow."""
    require_eps(eps_ldp, zero_ok=True)
    return 1.0 / (1.0 + math.exp(-eps_ldp / 2.0))


def rappor_bits(zs, k: int) -> np.ndarray:
    """RAPPOR reports as a (len(zs), k) uint8 0/1 matrix.  ``zs`` is such a
    matrix already (the store of a drawn ``ObservationSet``), returned
    unchanged after one check, or a sequence of tuples or lists of k ints."""
    if isinstance(zs, np.ndarray):
        if zs.ndim != 2 or zs.shape[1] != k:
            raise LengthMismatchError(f"reports must be bit vectors of length {k}, the alphabet size")
        if zs.dtype != np.uint8 or np.any(zs > 1):
            raise ObservationOutsideDomainError("report entries must be 0 or 1 (a uint8 matrix)")
        return zs
    if not all(isinstance(z, (tuple, list)) and len(z) == k for z in zs):
        raise LengthMismatchError(f"reports must be bit vectors of length {k}, the alphabet size")
    try:
        bits = np.frombuffer(b"".join(map(bytes, zs)), dtype=np.uint8).reshape(len(zs), k)
    except (TypeError, ValueError):  # bytes() takes only ints in 0..255
        bits = None
    if bits is None or np.any(bits > 1):
        raise ObservationOutsideDomainError("report entries must be 0 or 1")
    return bits


class BitVectorMechanism(Mechanism):
    """Basic one-time RAPPOR: one-hot encoding with independent bit flips.

    A report is a 0/1 tuple with one bit per alphabet element.  P(beta | x)
    equals p^k * e^(-(1/2 + S/2 - beta_x) * eps), where S is the number of
    set bits, which matches the independent per-bit product.
    """

    kind = "rappor"
    distance_monotone = False

    def __init__(self, alphabet: Alphabet, eps_ldp: float):
        require_eps(eps_ldp, zero_ok=True)
        super().__init__(alphabet)
        self.eps_ldp = float(eps_ldp)

    @property
    def keep_prob(self) -> float:
        return rappor_keep_prob(self.eps_ldp)

    def kernel(self, xs: Sequence, zs: Sequence) -> np.ndarray:
        # The kernel depends on a report only through (beta_x, S), so the
        # closed form is evaluated once per pair, in the same scalar
        # arithmetic as a single-cell evaluation.
        k = self.input_alphabet.size
        bits = rappor_bits(zs, k)
        rows = [self.input_alphabet.index(x) for x in xs]
        pk = self.keep_prob ** k
        # e = 0 is the report with no bit flipped: its factor is 1, also at eps = inf
        table = np.array([
            [pk * math.exp(-e * self.eps_ldp) if e else pk
             for e in (0.5 + 0.5 * float(s) - float(b) for s in range(k + 1))]
            for b in (0, 1)
        ])
        # rappor_bits has checked every byte is 0 or 1, so it reads as a bool
        own, ones = bits[:, rows].T.view(bool), bits.sum(axis=1)
        return np.where(own, table[1, ones], table[0, ones])

    def draw(self, xs: Sequence, counts: Sequence, rng: np.random.Generator):
        # Per input, one (count, k) uniform block: a bit is flipped where its
        # draw is not below keep_prob, so the report is the flips with the
        # own bit inverted.  Reports are packed to bytes as they are drawn,
        # so no (n, k) float buffer exists; for 0/1 rows of equal length,
        # byte order is canonical (JSON-key) order.  The distinct reports
        # come back as the read-only (m, k) uint8 matrix they unpack to.
        k = self.input_alphabet.size
        width = (k + 7) // 8
        keep = self.keep_prob
        packed = [np.zeros((0, width), dtype=np.uint8)]
        for x, count in zip(xs, counts):
            i = self.input_alphabet.index(x)
            noisy = rng.random((count, k)) >= keep
            noisy[:, i] ^= True
            packed.append(np.packbits(noisy, axis=1))
        rows = np.concatenate(packed)
        keys, cnts = np.unique(rows.view(np.dtype((np.void, width))).ravel(), return_counts=True)
        bits = np.unpackbits(keys.view(np.uint8).reshape(-1, width), axis=1, count=k)
        bits.flags.writeable = False
        return bits, cnts

    def params_dict(self):
        return {"eps_ldp": self.eps_ldp}


def build_rappor(alphabet: Alphabet, eps_ldp: float) -> BitVectorMechanism:
    return BitVectorMechanism(alphabet, eps_ldp)


# ---------------------------------------------------------------------------
# Batch obfuscation
# ---------------------------------------------------------------------------

def obfuscate_dataset(mech: Mechanism, data: Sequence, rng: np.random.Generator) -> ObservationSet:
    """Draw one independent report per datum; the result is counted, so it
    carries no information about the input order."""
    return ObservationSet._canonical(*mech.draw(*tally(mech.input_alphabet, data), rng))

