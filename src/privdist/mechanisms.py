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

# Weight a planar kernel row may leave out, relative to the row (certified by
# ``_tail_radius``), and offset rows per strip of its table: a strip holds
# _STRIP_ROWS * (R + 1) weights, so memory grows as the radius R, not R^2.
_PLANAR_TAIL = 1e-12
_STRIP_ROWS = 64


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
        # A report stays at x with probability c, else moves a geometric step
        # with a fair sign.  Each x joins the moves once to give its stays a
        # place, and rebinding before np.unique copies keeps two move-sized
        # arrays alive.
        x = _integers(xs, ElementOutsideAlphabetError)
        counts = np.asarray(counts, dtype=np.int64)
        moved = rng.binomial(counts, 1.0 - self._c)
        moves = rng.geometric(1.0 - self._a, size=int(moved.sum()))
        np.negative(moves, out=moves, where=rng.random(moves.size) < 0.5)
        moves += np.repeat(x, moved)
        moves = np.concatenate([moves, x])
        values, tallied = np.unique(moves, return_counts=True)
        np.add.at(tallied, np.searchsorted(values, x), counts - moved - 1)
        values, tallied = values[tallied > 0].tolist(), tallied[tallied > 0]
        order = _canonical_order(values)
        return [values[j] for j in order], tallied[order]

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


def _tail_radius(ew: float) -> int:
    """Smallest R >= 1 with 8 * sum_{r > R} r q^r <= _PLANAR_TAIL, q = e^(-ew),
    in closed form: the 8r offsets at Chebyshev radius r weigh at most q^r."""
    q, p = math.exp(-ew), -math.expm1(-ew)
    radius = 1
    while 8.0 * q ** (radius + 1) * ((radius + 1) / p + q / p ** 2) > _PLANAR_TAIL:
        radius += 1
    return radius


def _offset_sums(f: np.ndarray, reach: int) -> np.ndarray:
    """Weights at offsets 0..R along the last axis, folded into f(a) for a in
    0..reach, then S(c), the sum of f(|d|) over d >= c, at 2 * reach + 1 + c
    for c in -reach..reach, then the sum over all d at 3 * reach + 2.  Suffix
    sums add the smallest term first."""
    suffix = np.cumsum(f[..., ::-1], axis=-1)[..., ::-1]
    below = suffix[..., :1] + np.cumsum(f[..., 1:reach + 1], axis=-1)  # S(-1), ..., S(-reach)
    every = suffix[..., :1] + suffix[..., 1:2]
    return np.concatenate([f[..., :reach + 1], below[..., ::-1], suffix[..., :reach + 1], every], axis=-1)


def _axis_index(pos: np.ndarray, n: int, reach: int) -> np.ndarray:
    """Index in ``_offset_sums`` of the offsets the clamp folds onto output
    cell j in 0..n-1 from input position i, shape (len(pos), n): |j - i|
    inside, >= n-1-i on the upper border, <= -i (mirrored onto >= i) on the
    lower one, and all of them on a one-cell axis."""
    index = np.abs(np.arange(n)[None, :] - pos[:, None])
    if n == 1:
        index[:] = 3 * reach + 2
    else:
        index[:, 0] = 2 * reach + 1 + pos
        index[:, -1] = 2 * reach + 1 + (n - 1 - pos)
    return index


def _planar_mechanism(input_grid: PlanarAlphabet, output_grid: PlanarAlphabet, eps: float,
                      kind: str) -> FiniteMechanism:
    """Planar mechanism with row-normalized weights e^(-eps d) over the whole
    lattice, each cell folded onto its nearest output cell (the clamp).  As
    inputs lie on the output lattice, each entry sums a product of one offset
    set per axis (``_axis_index``), read in one gather from a table of sums
    over offsets up to the grids' reach plus ``_tail_radius``.  A row weighs
    at least 1 (its own cell), so it leaves out under ``_PLANAR_TAIL`` of it."""
    require_eps(eps)
    _check_same_lattice(input_grid, output_grid)
    w = output_grid.cell_width_km
    # e^(-ew d) is exactly 0.0 for every d >= 1 once ew > 745, so the cap
    # changes no weight and gives the eps = inf limit without inf * 0 at d = 0
    ew = min(eps * w, 1e3)
    sizes = (output_grid.nx, output_grid.ny)
    pos = [np.arange(n) + round((a - b) / w)
           for n, a, b in zip((input_grid.nx, input_grid.ny), input_grid.origin, output_grid.origin)]
    reach = [int(max(np.abs(p).max(), np.abs(n - 1 - p).max())) for p, n in zip(pos, sizes)]
    radius = max(reach) + _tail_radius(ew)
    squares = np.arange(radius + 1, dtype=float) ** 2
    rows = np.empty((radius + 1, 3 * reach[0] + 3))
    for lo in range(0, radius + 1, _STRIP_ROWS):
        strip = squares[lo:lo + _STRIP_ROWS, None]
        rows[lo:lo + _STRIP_ROWS] = _offset_sums(np.exp(-ew * np.sqrt(squares + strip)), reach[0])
    table = _offset_sums(rows.T, reach[1])
    ix, iy = (_axis_index(p, n, r) for p, n, r in zip(pos, sizes, reach))
    weight = table[ix[None, :, None, :], iy[:, None, :, None]].reshape(input_grid.size, output_grid.size)
    return FiniteMechanism(
        input_grid,
        output_grid.values,
        weight / weight.sum(axis=1, keepdims=True),
        kind=kind,
        params={"eps_geo": float(eps)},
    )


def build_geometric_planar(input_grid: PlanarAlphabet, output_grid: PlanarAlphabet,
                           eps_geo: float) -> FiniteMechanism:
    """Planar geometric mechanism truncated to ``output_grid``, which may be
    smaller than the input grid: each lattice cell's weight goes to its
    nearest output cell (``_planar_mechanism``)."""
    return _planar_mechanism(input_grid, output_grid, eps_geo, "geometric-planar")


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
    cells absorb the tails, so each row is an exact CDF telescope.  Cell j's
    upper edge lies j - i + 0.5 above input i, so the CDF is evaluated once
    per offset d = -k..k-1 (entry d + k), then 1 and 0 for the open ends.
    """
    require_eps(eps_geo)
    if not isinstance(alphabet, LinearAlphabet) or not alphabet.is_contiguous:
        raise NonContiguousAlphabetError("the alphabet must be a contiguous integer range")
    vals = alphabet.values
    k = len(vals)
    cdf = np.array([_laplace_cdf(d + 0.5, eps_geo) for d in range(-k, k)] + [1.0, 0.0])
    hi = np.arange(k) - np.arange(k)[:, None] + k
    lo = hi - 1
    hi[:, -1], lo[:, 0] = 2 * k, 2 * k + 1
    matrix = cdf[hi] - cdf[lo]
    return FiniteMechanism(
        alphabet,
        vals,
        matrix,
        kind="laplace-linear",
        params={"eps_geo": float(eps_geo)},
    )


def build_laplace_planar_discretized(grid: PlanarAlphabet, eps_geo: float) -> FiniteMechanism:
    """Planar Laplace noise binned onto the grid.

    Cell masses use the midpoint density (eps^2 / 2pi) e^(-eps d) times the
    cell area.  That is e^(-eps d) times a constant, which row normalization
    cancels, so the matrix is the planar geometric one on the same grid.
    """
    return _planar_mechanism(grid, grid, eps_geo, "laplace-planar")


# ---------------------------------------------------------------------------
# Exponential mechanism
# ---------------------------------------------------------------------------

def build_exponential(alphabet: Alphabet, metric, eps_geo: float) -> FiniteMechanism:
    """Exponential mechanism over a finite alphabet with ground metric d:
    P(z | x) proportional to e^(-eps * d(x, z) / 2)."""
    require_eps(eps_geo)
    k = alphabet.size
    if callable(metric):
        dist = np.array([[metric(x, z) for z in alphabet.values] for x in alphabet.values], dtype=float)
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


def canonical_rows(packed: np.ndarray, k: int) -> tuple:
    """The distinct rows of ``packed`` in canonical order, and where each of
    its rows went.

    ``packed`` holds one report of k bits per row, packed big-endian as
    ``np.packbits`` does.  Zero-padded to whole 64-bit words, rows compare
    as their big-endian words, which is byte order, and for 0/1 rows of one
    length that is canonical (JSON-key) order.  The first word is the sort
    key; each further word folds in as (rank of the key so far) << 32 |
    (rank of the word), which keeps that order while there are fewer than
    2^32 rows.  Returns the read-only (m, k) uint8 matrix of the distinct
    rows and, for each row of ``packed``, the index of its distinct row."""
    padded = np.zeros((len(packed), (k + 63) // 64), dtype=">u8")
    padded.view(np.uint8)[:, :packed.shape[1]] = packed
    words = padded.astype(np.uint64)
    key = words[:, 0]
    for word in words.T[1:]:
        rank, word_rank = (np.unique(a, return_inverse=True)[1].astype(np.uint64) for a in (key, word))
        key = rank << 32 | word_rank
    keys, where = np.unique(key, return_inverse=True)
    distinct = np.empty((keys.size, words.shape[1]), dtype=">u8")
    distinct[where] = padded  # equal rows write equal words
    bits = np.unpackbits(distinct.view(np.uint8), axis=1, count=k)
    bits.flags.writeable = False
    return bits, where


def rappor_bits(zs, k: int) -> np.ndarray:
    """RAPPOR reports as a (len(zs), k) uint8 0/1 matrix.  ``zs`` is such a
    matrix already (the store of a drawn ``ObservationSet``), returned
    unchanged after one check, or a sequence of tuples or lists of k ints.
    A matrix of another width, dtype or dimension, or with an entry above 1,
    raises the errors of the tuple form."""
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
        # so no (n, k) float buffer exists, and ``canonical_rows`` counts
        # them.
        k = self.input_alphabet.size
        width = (k + 7) // 8
        keep = self.keep_prob
        packed = [np.zeros((0, width), dtype=np.uint8)]
        for x, count in zip(xs, counts):
            i = self.input_alphabet.index(x)
            noisy = rng.random((count, k)) >= keep
            noisy[:, i] ^= True
            packed.append(np.packbits(noisy, axis=1))
        bits, where = canonical_rows(np.concatenate(packed), k)
        return bits, np.bincount(where, minlength=len(bits))

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

