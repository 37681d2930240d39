"""Small planar geometry helpers: convex hulls and point-to-polygon distance."""

from __future__ import annotations

import numpy as np


def convex_hull(points) -> np.ndarray:
    """Convex hull by the monotone chain algorithm.

    Returns the hull vertices in counter-clockwise order, shape (h, 2).
    Degenerate inputs collapse naturally: a single point gives one vertex,
    collinear points give the two extreme ones.
    """
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)
    if pts.shape[0] <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    # Python floats: on numpy scalars each cross product costs several times more.
    rows = pts.tolist()
    lower = []
    for p in rows:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in rows[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    # The <= 0 pops drop collinear points, so collinear input leaves its two ends.
    return np.array(lower[:-1] + upper[:-1])


def _segment_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point to the segment [a, b]."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip(((points - a) @ ab) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(points - proj, axis=1)


def distance_to_hull(points, hull: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to a convex hull (zero inside).

    ``hull`` is the vertex array produced by :func:`convex_hull`; one or two
    vertices are handled as a point or a segment.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    hull = np.asarray(hull, dtype=float)
    if hull.shape[0] == 1:
        return np.linalg.norm(pts - hull[0], axis=1)
    if hull.shape[0] == 2:
        return _segment_distance(pts, hull[0], hull[1])
    edges = list(zip(hull, np.roll(hull, -1, axis=0)))
    dist = np.min(
        np.stack([_segment_distance(pts, a, b) for a, b in edges]), axis=0
    )
    inside = np.ones(pts.shape[0], dtype=bool)
    for a, b in edges:
        cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
        inside &= cross >= 0  # hull is counter-clockwise
    out = dist.copy()
    out[inside] = 0.0
    return out

