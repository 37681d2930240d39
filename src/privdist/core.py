"""Shared domain types: alphabets, distributions, mechanisms, observations.

Every type is immutable after construction, so values can be shared freely
across threads.  Sampling always takes a caller-owned ``numpy.random.Generator``;
the library keeps no global random state.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AlphabetMismatchError,
    ElementOutsideAlphabetError,
    EmptyObservationsError,
    LengthMismatchError,
    NegativeWeightError,
    ObservationOutsideDomainError,
    ZeroSumError,
)

# Tolerance used when checking that probabilities sum to one.
PROB_ATOL = 1e-9


class IntegerLineDomain:
    """Marker for the unbounded integer domain (inputs/outputs of the
    untruncated geometric mechanism)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INTEGER_LINE"

    def __contains__(self, x):
        return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


INTEGER_LINE = IntegerLineDomain()


# ---------------------------------------------------------------------------
# Alphabets
# ---------------------------------------------------------------------------

class Alphabet:
    """A finite set of distinct, hashable secret values.

    Instances are usually one of the refinements below; this base class is
    also used directly ("explicit" alphabets) for restricted sub-domains.
    """

    kind = "explicit"

    def __init__(self, values: Iterable):
        vals = tuple(values)
        if not vals:
            raise ValueError("alphabet must be non-empty")
        if len(set(vals)) != len(vals):
            raise ValueError("alphabet elements must be distinct")
        self._values = vals
        self._index = {v: i for i, v in enumerate(vals)}

    @property
    def values(self) -> tuple:
        return self._values

    @property
    def size(self) -> int:
        return len(self._values)

    def __len__(self):
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def __contains__(self, v):
        return v in self._index

    def index(self, v) -> int:
        try:
            return self._index[v]
        except (KeyError, TypeError):
            raise ElementOutsideAlphabetError(f"{v!r} is not an alphabet element") from None

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and self.kind == other.kind
            and self._values == other._values
        )

    def __hash__(self):
        return hash((self.kind, self._values))

    def __repr__(self):
        return f"{type(self).__name__}(size={self.size})"


class CategoricalAlphabet(Alphabet):
    """Unordered categorical labels."""

    kind = "categorical"

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not all(isinstance(x, str) for x in labels):
            raise ValueError("categorical labels must be strings")
        super().__init__(labels)


class LinearAlphabet(Alphabet):
    """Strictly increasing integer values on a line."""

    kind = "linear"

    def __init__(self, values: Iterable[int]):
        vals = tuple(values)
        for v in vals:
            if v not in INTEGER_LINE:
                raise ValueError(f"linear alphabet values must be integers, not {v!r}")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("linear alphabet values must be strictly increasing")
        super().__init__(map(int, vals))

    @classmethod
    def range(cls, lo: int, hi: int) -> "LinearAlphabet":
        """Contiguous integers lo..hi inclusive."""
        return cls(range(lo, hi + 1))

    @property
    def is_contiguous(self) -> bool:
        v = self._values
        return v[-1] - v[0] == len(v) - 1


class PlanarAlphabet(Alphabet):
    """Centers of a rectangular grid of square cells, in kilometres.

    Cells are ordered row-major: index = iy * nx + ix, where ix counts along
    the x axis and iy along y.
    """

    kind = "planar"

    def __init__(self, centers: Sequence[tuple], cell_width_km: float):
        if cell_width_km <= 0:
            raise ValueError("cell width must be positive")
        pts = [(float(x), float(y)) for x, y in centers]
        xs = sorted(set(x for x, _ in pts))
        ys = sorted(set(y for _, y in pts))
        nx, ny = len(xs), len(ys)
        if nx * ny != len(pts):
            raise ValueError("planar centers must form a full rectangular grid")
        w = float(cell_width_km)
        for axis in (xs, ys):
            for a, b in zip(axis, axis[1:]):
                if abs((b - a) - w) > 1e-9 * max(1.0, w):
                    raise ValueError("grid spacing must equal the cell width")
        expected = [(x, y) for y in ys for x in xs]
        if set(expected) != set(pts):
            raise ValueError("planar centers must form a full rectangular grid")
        super().__init__(expected)
        self.cell_width_km = w
        self.nx = nx
        self.ny = ny
        self.origin = (xs[0], ys[0])

    @classmethod
    def grid(cls, nx: int, ny: int, cell_width_km: float,
             origin: tuple = None) -> "PlanarAlphabet":
        """Build an nx-by-ny grid; ``origin`` is the center of cell (0, 0)
        and defaults to (w/2, w/2) so cells tile [0, nx*w] x [0, ny*w]."""
        w = float(cell_width_km)
        if origin is None:
            origin = (w / 2.0, w / 2.0)
        centers = [
            (origin[0] + ix * w, origin[1] + iy * w)
            for iy in range(ny)
            for ix in range(nx)
        ]
        return cls(centers, w)

    def lattice_coords(self) -> np.ndarray:
        """Integer (ix, iy) lattice coordinates of every cell, shape (n, 2)."""
        w = self.cell_width_km
        ox, oy = self.origin
        out = np.empty((self.size, 2), dtype=np.int64)
        for i, (x, y) in enumerate(self._values):
            out[i, 0] = round((x - ox) / w)
            out[i, 1] = round((y - oy) / w)
        return out

    def centers_array(self) -> np.ndarray:
        return np.array(self._values, dtype=float)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

class Distribution:
    """A probability vector over an Alphabet."""

    __slots__ = ("alphabet", "probs")

    def __init__(self, alphabet: Alphabet, probs):
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (alphabet.size,):
            raise LengthMismatchError(
                f"got {probs.shape[0] if probs.ndim == 1 else probs.shape} probabilities "
                f"for an alphabet of size {alphabet.size}"
            )
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        if np.any(probs < 0):
            raise NegativeWeightError("probabilities must be non-negative")
        total = probs.sum()
        if abs(total - 1.0) > PROB_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "probs", probs)

    def __setattr__(self, name, value):
        raise AttributeError("Distribution is immutable")

    def prob(self, x) -> float:
        return float(self.probs[self.alphabet.index(x)])

    def __repr__(self):
        return f"Distribution({self.alphabet!r}, {np.array2string(self.probs, precision=4)})"


def distribution_new(alphabet: Alphabet, weights) -> Distribution:
    """Normalize a non-negative weight vector into a Distribution.

    Negative entries are rejected rather than clipped.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (alphabet.size,):
        raise LengthMismatchError(
            f"got {w.size} weights for an alphabet of size {alphabet.size}"
        )
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise NegativeWeightError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ZeroSumError("weights sum to zero")
    return Distribution(alphabet, w / total)


def uniform_distribution(alphabet: Alphabet) -> Distribution:
    return Distribution(alphabet, np.full(alphabet.size, 1.0 / alphabet.size))


class CountedTuple(tuple):
    """A tuple of data that carries its grouping: ``counts``, the distinct
    data in the order they first occur, with how often each occurs (equal
    data share the first one's key, so 3 and 3.0 are one), and ``samples``,
    one datum of each type.  Both are computed from the data once, when
    first read, unless the maker already knows them (``sample_synthetic``
    takes them from its draws).  Reading them raises
    ElementOutsideAlphabetError for unhashable data."""

    def __new__(cls, data: Iterable = (), counts: dict = None, samples: dict = None):
        self = super().__new__(cls, data)
        if counts is not None:
            self.__dict__.update(counts=counts, samples=samples)
        return self

    @cached_property
    def counts(self) -> dict:
        try:
            return Counter(self)
        except TypeError as exc:  # every domain element is hashable
            raise ElementOutsideAlphabetError(f"a datum is not in the domain: {exc}") from exc

    @cached_property
    def samples(self) -> dict:
        return dict(zip(map(type, self), self))


def tally(domain, data: Sequence) -> tuple:
    """The distinct ``data`` in ``domain`` order, and how often each occurs.

    A CountedTuple is read from its grouping, so it is counted at most once;
    any other sequence is counted here.  On a finite Alphabet membership is
    by equality, so 3.0 counts as 3.  On the integer line it also depends on
    the type: equal values share one key (3 and 3.0), so after the distinct
    values one datum of each type is checked.  Raises
    ElementOutsideAlphabetError for a datum outside the domain, the first
    one in the grouping's order."""
    counted = data if isinstance(data, CountedTuple) else CountedTuple(data)
    grouped = counted.counts
    if domain is INTEGER_LINE:
        for x in (*grouped, *counted.samples.values()):
            if x not in INTEGER_LINE:
                raise ElementOutsideAlphabetError(f"{x!r} is not an integer")
        xs = sorted(grouped)
    else:
        xs = sorted(grouped, key=domain.index)
    return xs, [grouped[x] for x in xs]


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------

# The types a report may have: those that ``_value_key`` can name.
_REPORT_TYPES = (str, tuple, int, np.integer, float, np.floating)


def _value_key(v) -> str:
    """Stable JSON-object key for an observed value."""
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return json.dumps(list(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))  # what json.dumps writes for an int
    if isinstance(v, _REPORT_TYPES):  # what is left of them: a float
        return json.dumps(float(v))
    raise TypeError(f"cannot serialize observation value {v!r}")


def _canonical_order(values: Sequence) -> list:
    """Indices of ``values`` in canonical order: by JSON key, ties in index
    order."""
    return sorted(range(len(values)), key=lambda j: _value_key(values[j]))


class ObservationSet:
    """A counted multiset of noisy reports.

    The distinct reports are sorted once, at construction, into canonical
    order (by JSON key, ties in insertion order) and kept as ``reports``: a
    tuple, or for RAPPOR reports (drawn, or read from a report file) the
    read-only (m, k) uint8 matrix that ``BitVectorMechanism.draw`` returns,
    whose rows become tuples, kept, only when ``values()`` or ``items()``
    first asks; ``obs_matrix`` and ``rappor_bit_counts`` read the matrix as
    it is.  A set built from a dict holds tuples, and both stores give the
    same values, items, matrices, bit counts and report files.
    ``count_array`` holds the counts in that order, read-only and int64;
    ``counts`` builds a dict from the two on request."""

    def __init__(self, counts: dict):
        ordered = sorted(counts, key=_value_key)
        self._store(ordered, [int(counts[v]) for v in ordered])

    @classmethod
    def _canonical(cls, values, counts) -> "ObservationSet":
        """Store distinct ``values`` that are already in canonical order, with
        their ``counts``; the mechanisms' ``draw`` emits that order."""
        obs = cls.__new__(cls)
        obs._store(values, counts)
        return obs

    def _store(self, values, counts):
        self.reports = values if isinstance(values, np.ndarray) else tuple(values)
        self.count_array = np.array(counts, dtype=np.int64)
        if np.any(self.count_array <= 0):
            raise ValueError("stored counts must be positive")
        self.count_array.flags.writeable = False
        self.n = int(self.count_array.sum())

    @cached_property
    def _tuples(self) -> tuple:
        if not isinstance(self.reports, np.ndarray):
            return self.reports
        k = self.reports.shape[1]
        raw = self.reports.tobytes()
        return tuple(tuple(raw[j:j + k]) for j in range(0, len(raw), k))

    @property
    def counts(self) -> dict:
        return dict(self.items())

    def values(self) -> list:
        """Distinct observed values in canonical (sorted) order."""
        return list(self._tuples)

    def items(self):
        return list(zip(self._tuples, self.count_array.tolist()))

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"ObservationSet(n={self.n}, distinct={len(self.reports)})"


def to_empirical(obs: ObservationSet) -> Distribution:
    """Frequencies of the distinct observed values (count divided by n), as a
    distribution over ``Alphabet(observed values)``."""
    if obs.n < 1:
        raise EmptyObservationsError("cannot build an empirical distribution from zero reports")
    return Distribution(Alphabet(obs.values()), obs.count_array / obs.n)


# ---------------------------------------------------------------------------
# Mechanisms
# ---------------------------------------------------------------------------

class Mechanism:
    """Conditional probability kernel from an input alphabet to noisy outputs.

    Subclasses provide ``kernel`` (P(z | x) for whole batches of inputs and
    outputs) and ``draw`` (reports for a batch of inputs, drawn with the
    kernel's probabilities from a caller-owned Generator and counted in
    canonical order)."""

    kind = "custom"

    def __init__(self, input_alphabet):
        self.input_alphabet = input_alphabet

    def kernel(self, xs: Sequence, zs: Sequence) -> np.ndarray:
        """P(z | x) with one row per input in ``xs`` and one column per output
        in ``zs``, as a new float64 array of any layout that the caller owns.
        Raises ElementOutsideAlphabetError for an input outside the domain and
        ObservationOutsideDomainError for a malformed output."""
        raise NotImplementedError

    def draw(self, xs: Sequence, counts: Sequence, rng: np.random.Generator):
        """Draw ``counts[i]`` independent reports from each input ``xs[i]``'s
        kernel row; the same generator state gives the same reports and
        leaves the same state.  Returns the distinct reports in canonical
        order (``ObservationSet``'s), as a sequence or, for RAPPOR, as a
        read-only (m, k) uint8 matrix with one row per report, and an int64
        array of their counts, summed over the inputs."""
        raise NotImplementedError

    def output_values(self):
        """Finite tuple of output values, or None when the output domain is infinite."""
        return None

    def params_dict(self) -> dict:
        return {}


class FiniteMechanism(Mechanism):
    """Dense row-stochastic kernel over a finite output set.  The matrix is
    kept as a read-only C-ordered copy, with entries above 1 (rows may sum
    to 1 within PROB_ATOL) clipped to 1, as ``ObsMatrix`` clips them."""

    def __init__(self, input_alphabet: Alphabet, outputs: Sequence, matrix,
                 kind: str = "custom", params: dict = None):
        super().__init__(input_alphabet)
        outputs = tuple(outputs)
        for z in outputs:
            if not isinstance(z, _REPORT_TYPES):
                raise TypeError(f"output {z!r} is not a string, number or tuple, so no report can name it")
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (input_alphabet.size, len(outputs)):
            raise LengthMismatchError(
                f"kernel shape {matrix.shape} does not match "
                f"{input_alphabet.size} inputs x {len(outputs)} outputs"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError("kernel entries must be finite")
        if np.any(matrix < 0):
            raise ValueError("kernel entries must be non-negative")
        rows = matrix.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > PROB_ATOL):
            worst = float(np.max(np.abs(rows - 1.0)))
            raise ValueError(f"kernel rows must sum to 1 (worst deviation {worst:.3e})")
        matrix = np.minimum(matrix, 1.0, order="C")
        matrix.flags.writeable = False
        self.outputs = outputs
        self.matrix = matrix
        self._out_index = {z: j for j, z in enumerate(outputs)}
        self.kind = kind
        self._params = dict(params or {})

    @property
    def is_square(self) -> bool:
        return self.matrix.shape[0] == self.matrix.shape[1]

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of the matrix, largest first, from one values-only
        SVD; the matrix is read-only, so it is computed once per mechanism."""
        s = np.linalg.svd(self.matrix, compute_uv=False)
        s.flags.writeable = False
        return s

    @property
    def condition_number(self) -> float:
        """2-norm condition number s_max / s_min, as ``np.linalg.cond``
        computes it; inf for a singular matrix."""
        s = self.singular_values
        return float(s[0]) / float(s[-1]) if s[-1] > 0 else float("inf")

    def output_index(self, z) -> int:
        try:
            return self._out_index[z]
        except (KeyError, TypeError):
            raise ObservationOutsideDomainError(f"{z!r} is not a possible output") from None

    def output_values(self):
        return self.outputs

    def kernel(self, xs: Sequence, zs: Sequence) -> np.ndarray:
        rows = [self.input_alphabet.index(x) for x in xs]
        cols = [self.output_index(z) for z in zs]
        return self.matrix.take(rows, 0).take(cols, 1)

    def row(self, x) -> np.ndarray:
        return self.matrix[self.input_alphabet.index(x)]

    @cached_property
    def _canonical_outputs(self) -> np.ndarray:
        """Output indices in canonical order, sorted once per mechanism."""
        return np.array(_canonical_order(self.outputs), dtype=np.intp)

    def draw(self, xs: Sequence, counts: Sequence, rng: np.random.Generator):
        # One multinomial per input (numpy draws a 2-D pvals row by row), so
        # a draw costs O(inputs x outputs) and allocates nothing per report.
        rows = self.matrix[[self.input_alphabet.index(x) for x in xs]]
        rows = rows / rows.sum(axis=1, keepdims=True)
        binned = rng.multinomial(np.asarray(counts, dtype=np.int64), rows).sum(axis=0)
        order = self._canonical_outputs[binned[self._canonical_outputs] > 0]
        return [self.outputs[j] for j in order], binned[order]

    def params_dict(self) -> dict:
        return dict(self._params)


# ---------------------------------------------------------------------------
# Observation probability matrix
# ---------------------------------------------------------------------------

class ObsMatrix:
    """Kernel columns for the distinct observed values, with multiplicities.

    ``matrix[i, j]`` is the probability of the j-th distinct observation given
    the i-th alphabet element; ``weights[j]`` is how often it was observed.
    ``values`` holds the observations as ``ObservationSet.reports`` does: a
    tuple, or RAPPOR's (m, k) uint8 matrix with one row per report.
    Weights are stored as floats so an exact (asymptotic) empirical
    distribution can be analyzed in place of integer counts.

    ``matrix`` and ``weights`` are read-only, and ``matrix`` is C-ordered,
    so estimates do not depend on the layout of the array it came from.
    The constructor copies the matrix it is given (entries within rounding
    of [0, 1] are clipped into it), so the caller's array stays writable
    and unshared; ``obs_matrix`` keeps the kernel's own new array, copying
    it only to clip or to reorder it.  A matrix with no column raises
    EmptyObservationsError.
    """

    def __init__(self, alphabet: Alphabet, values: Sequence, matrix, weights):
        self._store(alphabet, values, matrix, weights, owned=False)

    @classmethod
    def _of_kernel(cls, alphabet: Alphabet, values: Sequence, matrix, weights) -> "ObsMatrix":
        """Keep ``matrix``, a new float64 array that no caller holds (a
        kernel's result), without a copy when it lies within [0, 1]."""
        G = cls.__new__(cls)
        G._store(alphabet, values, matrix, weights, owned=True)
        return G

    def _store(self, alphabet, values, matrix, weights, owned):
        matrix = np.asarray(matrix, dtype=float)
        weights = np.asarray(weights, dtype=float)
        values = values if isinstance(values, np.ndarray) else tuple(values)
        if not len(values):
            raise EmptyObservationsError("cannot build an observation matrix from zero reports")
        if matrix.shape != (alphabet.size, len(values)):
            raise LengthMismatchError("matrix shape does not match alphabet and values")
        if weights.shape != (len(values),):
            raise LengthMismatchError("one weight per distinct observation is required")
        if np.any(weights <= 0):
            raise ValueError("column weights must be positive")
        lo, hi = matrix.min(), matrix.max()
        if lo < -1e-15 or hi > 1 + 1e-12:
            raise ValueError("kernel probabilities must lie in [0, 1]")
        if not owned or lo < 0.0 or hi > 1.0 or not matrix.flags.c_contiguous:
            matrix = np.clip(matrix, 0.0, 1.0, order="C")
        matrix.flags.writeable = False
        weights = weights.copy()
        weights.flags.writeable = False
        self.alphabet = alphabet
        self.values = values
        self.matrix = matrix
        self.weights = weights

    @property
    def n(self) -> float:
        return float(self.weights.sum())

    @property
    def q(self) -> np.ndarray:
        """Observed frequencies (weights normalized to sum 1)."""
        return self.weights / self.weights.sum()

    def __repr__(self):
        return f"ObsMatrix({self.alphabet!r}, columns={len(self.values)}, n={self.n:g})"


def obs_matrix(mech: Mechanism, obs: ObservationSet, alphabet: Alphabet = None) -> ObsMatrix:
    """Evaluate the mechanism kernel at every distinct observed value.

    ``alphabet`` overrides the set of rows; it is required when the
    mechanism's input domain is infinite (the integer line) and is how the
    reduction machinery restricts the rows to a likely subset.
    """
    if alphabet is None:
        alphabet = mech.input_alphabet
        if not isinstance(alphabet, Alphabet):
            raise ValueError(
                "mechanism input domain is not finite; pass an explicit alphabet"
            )
    return ObsMatrix._of_kernel(alphabet, obs.reports, mech.kernel(alphabet.values, obs.reports),
                                obs.count_array)
