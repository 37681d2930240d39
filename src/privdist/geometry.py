"""Small planar geometry helpers: convex hulls and point-to-polygon distance."""

from __future__ import annotations

import numpy as np


def convex_hull(points) -> np.ndarray:
    """Convex hull by the monotone chain algorithm.

    Returns the hull vertices in counter-clockwise order, shape (h, 2).
    Degenerate inputs collapse naturally: a single point gives one vertex,
    collinear points give the two extreme ones.
    """
    # np.unique sorts the rows lexicographically, by x and then by y.
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)
    # Between the lowest and the highest point of one x lie only points of
    # their segment, which the walk would drop, so only those two are walked.
    x = pts[:, 0]
    ends = np.ones(len(pts), dtype=bool)
    ends[1:-1] = (x[1:-1] != x[:-2]) | (x[1:-1] != x[2:])
    pts = pts[ends]
    if pts.shape[0] <= 2:
        return pts

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


def distance_to_hull(points, hull: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to a convex hull (zero inside).

    ``hull`` is the vertex array produced by :func:`convex_hull`.  Every
    edge runs from one vertex to the next, the last back to the first; a
    one-vertex hull has one zero-length edge, which is that vertex, and a
    two-vertex hull is its segment walked both ways.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    a = np.asarray(hull, dtype=float)
    ab = np.roll(a, -1, axis=0) - a
    ap = pts[:, None, :] - a  # (points, edges, 2)
    length2 = (ab * ab).sum(axis=1)
    t = np.clip((ap * ab).sum(axis=2) / np.where(length2 > 0, length2, 1.0), 0.0, 1.0)
    dist = np.sqrt(((pts[:, None, :] - (a + t[..., None] * ab)) ** 2).sum(axis=2)).min(axis=1)
    # Inside is strictly left of every counter-clockwise edge.  No point is
    # inside a hull of one or two vertices; a point on an edge has dist 0.
    inside = (ab[:, 0] * ap[..., 1] - ab[:, 1] * ap[..., 0] > 0).all(axis=1)
    return np.where(inside, 0.0, dist)
