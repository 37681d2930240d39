"""Likely-subset reduction: run IBU on a finite sub-alphabet, certified on the parent.

An element is *unlikely* when another element is at least as probable a cause
of every observed report and strictly more probable for one of them; any
likelihood maximizer puts probability zero on unlikely elements, so they may
be dropped before estimating.  Three constructions give a starting subset
without scanning the whole alphabet: the observed values for a matrix of k-RR
form, an interval on the line and an extended convex hull on a planar grid;
``likely_subset`` picks the one that fits the mechanism's type.

A construction is a start, not a proof: at a grid's edge the planar geometric
and exponential kernels do not fall with distance, and on a 6 x 6 exponential
grid the hull drops a cell that no kept cell dominates.  ``ibu_on_subset``
decides on a finite parent: it prices KKT's g <= 1 on every excluded element
and grows the subset until none exceeds ``ibu``'s stop, so its gap is the
parent's.  On INTEGER_LINE nothing needs pricing: under the two-sided
geometric kernel the nearer end of [floor(min z), ceil(max z)] strictly
dominates every integer outside it.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .core import (
    INTEGER_LINE,
    Alphabet,
    Distribution,
    FiniteMechanism,
    LinearAlphabet,
    Mechanism,
    ObservationSet,
    PlanarAlphabet,
    obs_matrix,
)
from .errors import EmptyObservationsError, IncompatibleEstimatorError, ObservationOutsideDomainError
from .estimators import DEFAULT_MAX_ITER, DEFAULT_TOL, ibu, ibu_stop
from .geometry import convex_hull, distance_to_hull


class LikelySubset:
    """A sub-alphabet outside of which every element is unlikely.

    ``parent`` is the full alphabet, or INTEGER_LINE for the whole integer
    line.  ``alphabet`` holds the members, which lie in the parent, and is
    what IBU runs on: a LinearAlphabet of integer members, otherwise an
    explicit Alphabet in the parent's order.  ``construction`` names the
    rule below that built the subset and ``meta`` its parameters.
    """

    def __init__(self, parent, alphabet: Alphabet, construction: str, meta: dict):
        self.parent = parent
        self.alphabet = alphabet
        self.construction = construction
        self.meta = meta

    @property
    def members(self) -> tuple:
        return self.alphabet.values

    @property
    def size(self) -> int:
        return self.alphabet.size

    def __repr__(self):
        return f"LikelySubset({self.construction}, size={self.size})"


def likely_subset(mech: Mechanism, obs: ObservationSet) -> LikelySubset:
    """The starting subset for ``mech``'s type: the observed values when its
    matrix has k-RR form (``_has_krr_form``); the hull for a finite mechanism
    with (x, y) outputs on a planar grid; the interval on INTEGER_LINE, or for
    a finite mechanism with integer outputs on a linear alphabet.  Raises
    IncompatibleEstimatorError for anything else, RAPPOR included.  First, an
    empty kernel block refuses a report the mechanism cannot output
    (ObservationOutsideDomainError)."""
    alphabet = mech.input_alphabet
    finite = isinstance(mech, FiniteMechanism)
    mech.kernel((), obs.reports)
    if _has_krr_form(mech):
        return likely_krr(alphabet, obs)
    if finite and isinstance(alphabet, PlanarAlphabet) and all(
            isinstance(z, tuple) and len(z) == 2 and all(isinstance(c, (int, float)) for c in z)
            for z in mech.outputs):
        return likely_planar(alphabet, obs)
    if alphabet is INTEGER_LINE or (finite and isinstance(alphabet, LinearAlphabet)
                                    and all(z in INTEGER_LINE for z in mech.outputs)):
        return likely_linear(alphabet, obs)
    raise IncompatibleEstimatorError(f"no likely-subset construction fits mechanism kind {mech.kind!r}")


def _has_krr_form(mech: Mechanism) -> bool:
    """Whether ``mech`` is finite, its outputs are its input alphabet's
    values, and its matrix has one value on the diagonal and one, no larger,
    off it: the form under which the observed values are a likely subset."""
    if not isinstance(mech, FiniteMechanism) or mech.outputs != mech.input_alphabet.values:
        return False
    diagonal, off = mech.matrix.diagonal(), mech.matrix[~np.eye(len(mech.outputs), dtype=bool)]
    return diagonal.min() == diagonal.max() and (off.size == 0 or off.min() == off.max() <= diagonal[0])


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
    zmin = min(obs.reports)
    zmax = max(obs.reports)
    if alphabet is INTEGER_LINE:
        lo = math.floor(zmin)
        hi = math.ceil(zmax)
        return LikelySubset(INTEGER_LINE, LinearAlphabet.range(lo, hi), "linear-interval",
                            {"x_min": lo, "x_max": hi})
    if not isinstance(alphabet, LinearAlphabet):
        raise ValueError("likely_linear requires a linear alphabet or INTEGER_LINE")
    vals = alphabet.values
    lo = max(bisect.bisect_right(vals, zmin) - 1, 0)
    hi = min(bisect.bisect_left(vals, zmax), len(vals) - 1)
    return LikelySubset(alphabet, LinearAlphabet(vals[lo:hi + 1]), "linear-interval",
                        {"x_min": vals[lo], "x_max": vals[hi]})


def likely_planar(grid: PlanarAlphabet, obs: ObservationSet) -> LikelySubset:
    """Hull subset for distance-monotone kernels on a planar grid.

    Keeps every grid cell within distance delta' of the convex hull of the
    reports, where delta' = sqrt(delta^2 + 2 delta d_max), delta is the
    discretization radius cell_width / sqrt(2), and d_max the diameter of the
    report set.
    """
    if obs.n < 1:
        raise EmptyObservationsError("cannot reduce without observations")
    hull = convex_hull(np.array(obs.reports, dtype=float))
    delta = grid.cell_width_km / math.sqrt(2.0)
    diff = hull[:, None, :] - hull[None, :, :]  # the diameter joins two hull vertices
    d_max = float(np.sqrt((diff ** 2).sum(axis=2)).max())
    delta_prime = math.sqrt(delta ** 2 + 2.0 * delta * d_max)
    # A cell at exactly delta' may be computed an ulp beyond it; the slack
    # keeps it, and a kept cell too many only makes the subset larger.
    kept = np.flatnonzero(distance_to_hull(grid.centers_array(), hull) <= delta_prime * (1.0 + 1e-12))
    return LikelySubset(
        grid,
        Alphabet([grid.values[i] for i in kept]),
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
    for z in obs.reports:
        if z not in alphabet:
            raise ObservationOutsideDomainError(f"{z!r} is not an alphabet element")
    if all(isinstance(z, (int, np.integer)) for z in obs.reports):
        observed = LinearAlphabet(sorted(map(int, obs.reports)))
    else:
        observed = Alphabet(sorted(obs.reports, key=alphabet.index))
    return LikelySubset(alphabet, observed, "krr-observed", {})


def restricted_alphabet(subset: LikelySubset) -> Alphabet:
    """``subset.alphabet``: the finite alphabet of the members, which IBU runs on."""
    return subset.alphabet


def ibu_on_subset(mech: Mechanism, obs: ObservationSet, subset: LikelySubset,
                  tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> tuple:
    """IBU on the rows of ``subset``, certified on its parent alphabet: on a
    finite parent, g = A (q / theta A) is priced on every excluded element
    with one kernel block, those with n log g above ``ibu``'s stop join the
    subset, and IBU runs again until none do; q / theta A = inf on a report
    no member produces, so what produces it joins first.  Returns the last
    IbuResult, with ``gap`` the parent's, and the final subset."""
    while True:
        G = obs_matrix(mech, obs, alphabet=subset.alphabet)
        if subset.parent is INTEGER_LINE or subset.size == subset.parent.size:
            return ibu(G, tol=tol, max_iter=max_iter), subset
        kept = set(subset.members)
        excluded = [x for x in subset.parent.values if x not in kept]
        block = mech.kernel(excluded, obs.reports)
        # the excluded elements that produce a report no member produces; when
        # no element produces it, ibu raises DeadColumnError as on the parent
        grow = block[:, G.matrix.max(axis=0) == 0].any(axis=1)
        if not grow.any():
            result = ibu(G, tol=tol, max_iter=max_iter)
            with np.errstate(divide="ignore"):
                gaps = G.n * np.log(block.dot(G.q / result.estimate.probs.dot(G.matrix)))
            result.gap = max(result.gap, float(gaps.max()))
            grow = gaps > ibu_stop(tol, G.n)
            if not grow.any() or not result.converged:
                return result, subset
        kept.update(excluded[i] for i in np.flatnonzero(grow))
        members = [x for x in subset.parent.values if x in kept]
        linear = isinstance(subset.alphabet, LinearAlphabet)
        alphabet = LinearAlphabet(sorted(members)) if linear else Alphabet(members)
        subset = LikelySubset(subset.parent, alphabet, subset.construction, subset.meta)


def restrict_and_lift(mech: Mechanism, obs: ObservationSet, subset: LikelySubset,
                      tol: float = DEFAULT_TOL) -> Distribution:
    """The estimate of ``ibu_on_subset``, lifted to the parent alphabet (on the
    integer line, over the member window; it is zero outside)."""
    result, subset = ibu_on_subset(mech, obs, subset, tol=tol)
    return lift(subset, result.estimate)


def lift(subset: LikelySubset, estimate: Distribution) -> Distribution:
    """Put an estimate over ``subset.alphabet`` back on the parent alphabet,
    with probability zero outside the subset.  On the integer line the
    estimate is returned as it is."""
    if subset.parent is INTEGER_LINE:
        return estimate
    lifted = np.zeros(subset.parent.size)
    lifted[list(map(subset.parent.index, estimate.alphabet.values))] = estimate.probs
    return Distribution(subset.parent, lifted)
