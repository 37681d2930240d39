"""Likely-subset reduction: run IBU on a finite sub-alphabet without loss.

An element is *unlikely* when another element is at least as probable a cause
of every observed report and strictly more probable for one of them; any
likelihood maximizer puts probability zero on unlikely elements, so they may
be dropped before estimating.  Three constructions identify likely subsets
without scanning the whole alphabet: an interval for distance-monotone
kernels on the line, an extended convex hull on planar grids, and the set of
observed values under k-RR.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    INTEGER_LINE,
    Alphabet,
    Distribution,
    LinearAlphabet,
    Mechanism,
    ObservationSet,
    PlanarAlphabet,
    obs_matrix,
)
from .errors import (
    ElementOutsideAlphabetError,
    EmptyObservationsError,
    ObservationOutsideDomainError,
)
from .estimators import DEFAULT_TOL, ibu
from .geometry import convex_hull, distance_to_hull


class LikelySubset:
    """A sub-alphabet outside of which every element is unlikely.

    ``parent`` is the full alphabet, or INTEGER_LINE when the domain is the
    whole integer line; ``construction`` records which rule produced the
    subset and ``meta`` its parameters (interval ends, hull, radii).
    """

    CONSTRUCTIONS = ("linear-interval", "planar-hull", "krr-observed")

    def __init__(self, parent, members, construction: str, meta: dict = None):
        if construction not in self.CONSTRUCTIONS:
            raise ValueError(f"unknown construction {construction!r}")
        members = tuple(members)
        if isinstance(parent, Alphabet):
            for m in members:
                if m not in parent:
                    raise ElementOutsideAlphabetError(f"{m!r} is not in the parent alphabet")
        self.parent = parent
        self.members = members
        self.construction = construction
        self.meta = dict(meta or {})

    @property
    def size(self) -> int:
        return len(self.members)

    def __repr__(self):
        return f"LikelySubset({self.construction}, size={self.size})"


def likely_linear(alphabet, obs: ObservationSet) -> LikelySubset:
    """Interval subset for distance-monotone kernels on the line.

    The interval runs from the largest alphabet element below every report to
    the smallest one above every report.  ``alphabet`` may be INTEGER_LINE,
    in which case those ends are floor(min z) and ceil(max z).  When a finite
    alphabet has no element below (above) all reports, the end clamps to its
    minimum (maximum); nothing likely is ever excluded by the clamp.
    """
    if obs.n < 1:
        raise EmptyObservationsError("cannot reduce without observations")
    reports = obs.values()
    zmin = min(reports)
    zmax = max(reports)
    if alphabet is INTEGER_LINE:
        lo = math.floor(zmin)
        hi = math.ceil(zmax)
        members = tuple(range(lo, hi + 1))
        return LikelySubset(INTEGER_LINE, members, "linear-interval",
                            {"x_min": lo, "x_max": hi})
    if not isinstance(alphabet, LinearAlphabet):
        raise ValueError("likely_linear requires a linear alphabet or INTEGER_LINE")
    vals = alphabet.values
    below = [x for x in vals if x <= zmin]
    above = [x for x in vals if x >= zmax]
    lo = max(below) if below else vals[0]
    hi = min(above) if above else vals[-1]
    members = tuple(x for x in vals if lo <= x <= hi)
    return LikelySubset(alphabet, members, "linear-interval", {"x_min": lo, "x_max": hi})


def likely_planar(grid: PlanarAlphabet, obs: ObservationSet) -> LikelySubset:
    """Hull subset for distance-monotone kernels on a planar grid.

    Keeps every grid cell within distance delta' of the convex hull of the
    reports, where delta' = sqrt(delta^2 + 2 delta d_max), delta is the
    discretization radius cell_width / sqrt(2), and d_max the diameter of the
    report set.
    """
    if obs.n < 1:
        raise EmptyObservationsError("cannot reduce without observations")
    points = np.array([list(z) for z in obs.values()], dtype=float)
    hull = convex_hull(points)
    delta = grid.cell_width_km / math.sqrt(2.0)
    diff = hull[:, None, :] - hull[None, :, :]  # the diameter joins two hull vertices
    d_max = float(np.sqrt((diff ** 2).sum(axis=2)).max())
    delta_prime = math.sqrt(delta ** 2 + 2.0 * delta * d_max)
    centers = grid.centers_array()
    dist = distance_to_hull(centers, hull)
    members = tuple(
        grid.values[i] for i in range(grid.size) if dist[i] <= delta_prime
    )
    return LikelySubset(
        grid,
        members,
        "planar-hull",
        {
            "delta": delta,
            "d_max": d_max,
            "delta_prime": delta_prime,
            "hull": [list(v) for v in hull.tolist()],
        },
    )


def likely_krr(alphabet: Alphabet, obs: ObservationSet) -> LikelySubset:
    """Under k-RR the observed values themselves form a likely subset."""
    if obs.n < 1:
        raise EmptyObservationsError("cannot reduce without observations")
    observed = obs.values()
    for z in observed:
        if z not in alphabet:
            raise ObservationOutsideDomainError(f"{z!r} is not an alphabet element")
    members = tuple(sorted(observed, key=alphabet.index))
    return LikelySubset(alphabet, members, "krr-observed", {})


def restricted_alphabet(subset: LikelySubset) -> Alphabet:
    """Finite alphabet over the subset members, for running estimators on."""
    members = subset.members
    if all(isinstance(m, (int, np.integer)) for m in members):
        return LinearAlphabet(sorted(int(m) for m in members))
    return Alphabet(members)


def restrict_and_lift(mech: Mechanism, obs: ObservationSet, subset: LikelySubset,
                      tol: float = DEFAULT_TOL) -> Distribution:
    """Run IBU on the subset rows only, then lift by assigning probability
    zero to every excluded element.

    The lifted distribution maximizes the likelihood over the full alphabet.
    When the parent domain is the integer line the result is returned over
    the finite member window (everything outside it is zero by construction).
    """
    G = obs_matrix(mech, obs, alphabet=restricted_alphabet(subset))
    return lift(subset, ibu(G, tol=tol).estimate)


def lift(subset: LikelySubset, estimate: Distribution) -> Distribution:
    """Put an estimate over ``restricted_alphabet(subset)`` back on the parent
    alphabet, with probability zero outside the subset.  On the integer line
    the estimate is returned as it is."""
    if subset.parent is INTEGER_LINE:
        return estimate
    lifted = np.zeros(subset.parent.size)
    for value, p in zip(estimate.alphabet.values, estimate.probs):
        lifted[subset.parent.index(value)] = p
    return Distribution(subset.parent, lifted)
