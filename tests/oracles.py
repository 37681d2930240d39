"""Test oracles and shorthands built on privdist's public API.

Nothing in the library needs these: they are independent cross-checks (the
brute-force likelihood search, the pairwise dominance test, the per-edge hull
distance, the hull walk over every point, the per-row check-ins loader) and
one-pair or one-input forms of the batch calls, which read more plainly in
tests.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

from privdist.analysis import RANK_TOL, ConcavityReport
from privdist.core import Distribution, Mechanism, ObservationSet, ObsMatrix, PlanarAlphabet
from privdist.dataio import EARTH_RADIUS_KM
from privdist.errors import ElementOutsideAlphabetError, PrivDistError
from privdist.mechanisms import _laplace_cdf


class AlphabetTooLargeError(PrivDistError):
    """The brute-force oracle is only meant for small alphabets."""


def from_reports(reports) -> ObservationSet:
    """Count an iterable of reports into an ObservationSet."""
    counts: dict = {}
    for r in reports:
        counts[r] = counts.get(r, 0) + 1
    return ObservationSet(counts)


def cond_prob(mech: Mechanism, x, z) -> float:
    """The kernel at one pair: P(z | x)."""
    return float(mech.kernel([x], [z])[0, 0])


def sample_counts(mech: Mechanism, x, count: int, rng: np.random.Generator) -> dict:
    """Draw ``count`` independent reports for input ``x``; returns value -> count.
    RAPPOR's draw returns its reports as a uint8 matrix, whose rows become
    tuples of ints here."""
    values, counts = mech.draw([x], [count], rng)
    if isinstance(values, np.ndarray):
        values = map(tuple, values.tolist())
    return dict(zip(values, counts.tolist()))


def checkin_cells_per_row(csv_path: str, bbox, grid: PlanarAlphabet) -> tuple:
    """The cells of a lat,lon CSV file, and its malformed and out-of-range
    row counts, one row at a time in plain Python floats: each row is parsed,
    kept when inside the bbox (ends included), projected and binned alone."""
    lat_min, lat_max, lon_min, lon_max = bbox
    lat0 = math.radians((lat_min + lat_max) / 2.0)
    w, (ox, oy) = grid.cell_width_km, grid.origin
    cells, malformed, outside = [], 0, 0
    with open(csv_path, newline="") as fh:
        rows = csv.reader(fh)
        header = [h.strip() for h in next(rows)]
        i, j = header.index("lat"), header.index("lon")
        for row in rows:
            if not any(c.strip() for c in row):
                continue
            try:
                lat, lon = float(row[i]), float(row[j])
            except (ValueError, IndexError):
                malformed += 1
                continue
            if not (lat_min <= lat <= lat_max and lon_min <= lon <= lon_max):
                outside += 1
                continue
            x = EARTH_RADIUS_KM * math.cos(lat0) * math.radians(lon - lon_min)
            y = EARTH_RADIUS_KM * math.radians(lat - lat_min)
            ix = min(max(int((x - ox + w / 2.0) // w), 0), grid.nx - 1)
            iy = min(max(int((y - oy + w / 2.0) // w), 0), grid.ny - 1)
            cells.append(grid.values[iy * grid.nx + ix])
    return cells, malformed, outside


def void_sort_draw(mech, xs, counts, rng: np.random.Generator):
    """RAPPOR's ``draw`` with its reports counted by ``np.unique`` on the
    packed rows viewed as ``np.void`` (byte-wise): the draw stream of
    ``BitVectorMechanism.draw``, with an independent sort."""
    k = mech.input_alphabet.size
    width = (k + 7) // 8
    packed = [np.zeros((0, width), dtype=np.uint8)]
    for x, count in zip(xs, counts):
        noisy = rng.random((count, k)) >= mech.keep_prob
        noisy[:, mech.input_alphabet.index(x)] ^= True
        packed.append(np.packbits(noisy, axis=1))
    rows = np.concatenate(packed)
    keys, cnts = np.unique(rows.view(np.dtype((np.void, width))).ravel(), return_counts=True)
    return np.unpackbits(keys.view(np.uint8).reshape(-1, width), axis=1, count=k), cnts


def laplace_linear_cells(values, eps: float) -> np.ndarray:
    """The discretized Laplace-line matrix cell by cell: row i, column j is
    the Laplace CDF mass between the midpoints around ``values[j]``, with
    the two extreme cells open to the tails."""
    k = len(values)
    edges = [-math.inf] + [v + 0.5 for v in values[:-1]] + [math.inf]
    matrix = np.empty((k, k))
    for i, x in enumerate(values):
        for j in range(k):
            lo, hi = edges[j], edges[j + 1]
            hi_cdf = 1.0 if hi == math.inf else _laplace_cdf(hi - x, eps)
            lo_cdf = 0.0 if lo == -math.inf else _laplace_cdf(lo - x, eps)
            matrix[i, j] = hi_cdf - lo_cdf
    return matrix


def is_unlikely(mech: Mechanism, obs: ObservationSet, x_prime, x_candidate) -> bool:
    """True iff ``x_candidate`` dominates ``x_prime``: its kernel value is at
    least as large for every observed report and strictly larger for one.
    Comparisons are exact; ties alone never make an element unlikely."""
    for x in (x_prime, x_candidate):
        if x not in mech.input_alphabet:
            raise ElementOutsideAlphabetError(f"{x!r} is not in the mechanism's input alphabet")
    a, b = mech.kernel([x_prime, x_candidate], obs.values())
    return bool(np.all(a <= b) and np.any(a < b))


def distance_to_hull_per_edge(points, hull: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to a convex hull (zero inside),
    one edge at a time: a one-vertex hull is a point, a two-vertex hull a
    segment, and otherwise the minimum over the edges' segment distances,
    with zero where the point is left of (or on) every counter-clockwise edge."""

    def segment_distance(a, b):
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0.0:
            return np.linalg.norm(pts - a, axis=1)
        t = np.clip(((pts - a) @ ab) / denom, 0.0, 1.0)
        return np.linalg.norm(pts - (a + t[:, None] * ab), axis=1)

    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    hull = np.asarray(hull, dtype=float)
    if hull.shape[0] == 1:
        return np.linalg.norm(pts - hull[0], axis=1)
    if hull.shape[0] == 2:
        return segment_distance(hull[0], hull[1])
    edges = list(zip(hull, np.roll(hull, -1, axis=0)))
    dist = np.min(np.stack([segment_distance(a, b) for a, b in edges]), axis=0)
    inside = np.ones(pts.shape[0], dtype=bool)
    for a, b in edges:
        inside &= (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0]) >= 0
    dist[inside] = 0.0
    return dist


def convex_hull_every_point(points) -> np.ndarray:
    """Monotone-chain convex hull that walks every distinct point, in
    lexicographic order, popping on cross <= 0: the reference for
    ``geometry.convex_hull``, which walks only each x's lowest and highest
    point."""
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)
    if pts.shape[0] <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chains = []
    for walk in (pts.tolist(), pts.tolist()[::-1]):
        chain = []
        for p in walk:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains += chain[:-1]
    return np.array(chains)


def concavity_full_rank(G: ObsMatrix) -> ConcavityReport:
    """The strict-concavity rank rule on the whole matrix, with no column
    sample: scale every column of [A | 1] to unit max-norm, take U and the
    singular values from the QR factor of its transpose when it is wide,
    count those above RANK_TOL * sigma_max * max(dims), and read the witness
    off the first left singular vector past the rank."""
    k = G.alphabet.size
    augmented = np.hstack([G.matrix, np.ones((k, 1))])
    scale = augmented.max(axis=0)
    augmented /= np.where(scale > 0, scale, 1.0)
    size = max(augmented.shape)
    if augmented.shape[1] > k:
        augmented = np.linalg.qr(augmented.T, mode="r").T
    u, s, _ = np.linalg.svd(augmented)
    rank = int(np.sum(s > RANK_TOL * s[0] * size))
    if rank >= k:
        return ConcavityReport(True, rank, k)
    w = u[:, rank]
    return ConcavityReport(False, rank, k, witness=w / w[np.argmax(np.abs(w))])


# ---------------------------------------------------------------------------
# Brute-force likelihood oracle
# ---------------------------------------------------------------------------

def _lattice_points(dim: int, steps: int) -> np.ndarray:
    """All probability vectors with entries that are multiples of 1/steps."""
    points = []
    for bars in itertools.combinations(range(steps + dim - 1), dim - 1):
        prev = -1
        comp = []
        for b in bars:
            comp.append(b - prev - 1)
            prev = b
        comp.append(steps + dim - 2 - prev)
        points.append(comp)
    return np.array(points, dtype=float) / steps


def _batch_loglik(points: np.ndarray, G: ObsMatrix) -> np.ndarray:
    mix = points @ G.matrix
    out = np.full(points.shape[0], -np.inf)
    ok = np.all(mix > 0, axis=1)
    if np.any(ok):
        out[ok] = np.log(mix[ok]) @ G.weights
    return out


def mle_oracle(G: ObsMatrix, grid_step: float = 0.05) -> Distribution:
    """Exhaustive likelihood search over a simplex lattice, refined locally.

    Evaluates every lattice point with spacing ``grid_step``, then performs
    ten rounds of halving the step and hill-climbing over single mass moves
    between coordinate pairs.  Deliberately independent of the EM iteration
    so it can serve as a cross-check.
    """
    dim = G.alphabet.size
    if dim > 5:
        raise AlphabetTooLargeError("the oracle is restricted to alphabets of size <= 5")
    if grid_step > 0.05:
        raise ValueError("grid_step must be at most 0.05")
    steps = max(1, round(1.0 / grid_step))
    points = _lattice_points(dim, steps)
    ll = _batch_loglik(points, G)
    best = points[int(np.argmax(ll))].copy()
    best_ll = float(np.max(ll))

    step = 1.0 / steps
    pairs = [(i, j) for i in range(dim) for j in range(dim) if i != j]
    for _ in range(10):
        step /= 2.0
        for _ in range(400):
            candidates = []
            for i, j in pairs:
                if best[j] >= step:
                    cand = best.copy()
                    cand[i] += step
                    cand[j] -= step
                    candidates.append(cand)
            if not candidates:
                break
            cand_arr = np.array(candidates)
            cand_ll = _batch_loglik(cand_arr, G)
            top = int(np.argmax(cand_ll))
            if cand_ll[top] > best_ll:
                best = cand_arr[top]
                best_ll = float(cand_ll[top])
            else:
                break
    best = np.maximum(best, 0.0)
    return Distribution(G.alphabet, best / best.sum())
