"""Shared domain types: alphabets, distributions, mechanisms, observations.

Every type is immutable after construction, so values can be shared freely
across threads.  Sampling always takes a caller-owned ``numpy.random.Generator``;
the library keeps no global random state.
"""

from __future__ import annotations

import json
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
# Slack accepted on user-supplied weight vectors before normalization.
INPUT_NORM_ATOL = 1e-6


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

    def to_dict(self) -> dict:
        return {"kind": self.kind, "values": [list(v) if isinstance(v, tuple) else v for v in self._values]}

    @staticmethod
    def from_dict(d: dict) -> "Alphabet":
        kind = d["kind"]
        if kind == "categorical":
            return CategoricalAlphabet(d["labels"])
        if kind == "linear":
            return LinearAlphabet(d["values"])
        if kind == "planar":
            return PlanarAlphabet(
                [tuple(c) for c in d["centers"]], d["cell_width_km"]
            )
        if kind == "explicit":
            return Alphabet(tuple(tuple(v) if isinstance(v, list) else v for v in d["values"]))
        raise ValueError(f"unknown alphabet kind {kind!r}")


class CategoricalAlphabet(Alphabet):
    """Unordered categorical labels."""

    kind = "categorical"

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not all(isinstance(x, str) for x in labels):
            raise ValueError("categorical labels must be strings")
        super().__init__(labels)

    def to_dict(self):
        return {"kind": self.kind, "labels": list(self._values)}


class LinearAlphabet(Alphabet):
    """Strictly increasing integer values on a line."""

    kind = "linear"

    def __init__(self, values: Iterable[int]):
        vals = tuple(int(v) for v in values)
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("linear alphabet values must be strictly increasing")
        super().__init__(vals)

    @classmethod
    def range(cls, lo: int, hi: int) -> "LinearAlphabet":
        """Contiguous integers lo..hi inclusive."""
        return cls(range(lo, hi + 1))

    @property
    def is_contiguous(self) -> bool:
        v = self._values
        return v[-1] - v[0] == len(v) - 1

    def to_dict(self):
        return {"kind": self.kind, "values": list(self._values)}


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

    def to_dict(self):
        return {
            "kind": self.kind,
            "centers": [list(c) for c in self._values],
            "cell_width_km": self.cell_width_km,
        }


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

    def to_dict(self) -> dict:
        return {"alphabet": self.alphabet.to_dict(), "probs": self.probs.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "Distribution":
        """Rebuild from JSON; user-edited files may carry rounded entries, so
        sums within INPUT_NORM_ATOL of one are renormalized."""
        alphabet = Alphabet.from_dict(d["alphabet"])
        probs = np.asarray(d["probs"], dtype=float)
        total = probs.sum()
        if abs(total - 1.0) > INPUT_NORM_ATOL:
            raise ValueError(f"stored probabilities sum to {total!r}, expected 1")
        return Distribution(alphabet, probs / total)


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


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------

def _value_key(v) -> str:
    """Stable JSON-object key for an observed value."""
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return json.dumps(list(v))
    if isinstance(v, (int, np.integer)):
        return json.dumps(int(v))
    if isinstance(v, (float, np.floating)):
        return json.dumps(float(v))
    raise TypeError(f"cannot serialize observation value {v!r}")


def _value_from_key(k: str):
    try:
        v = json.loads(k)
    except (json.JSONDecodeError, ValueError):
        return k
    if isinstance(v, list):
        return tuple(v)
    return v


class ObservationSet:
    """A counted multiset of noisy reports."""

    def __init__(self, counts: dict):
        clean = {}
        total = 0
        for v, c in counts.items():
            c = int(c)
            if c <= 0:
                raise ValueError("stored counts must be positive")
            clean[v] = c
            total += c
        self._counts = clean
        self.n = total

    @classmethod
    def from_reports(cls, reports: Iterable) -> "ObservationSet":
        counts: dict = {}
        for r in reports:
            counts[r] = counts.get(r, 0) + 1
        return cls(counts)

    @property
    def counts(self) -> dict:
        return dict(self._counts)

    def count(self, v) -> int:
        return self._counts.get(v, 0)

    def values(self) -> list:
        """Distinct observed values in canonical (sorted) order."""
        return sorted(self._counts.keys(), key=_value_key)

    def items(self):
        return [(v, self._counts[v]) for v in self.values()]

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"ObservationSet(n={self.n}, distinct={len(self._counts)})"

    def to_dict(self) -> dict:
        return {"reports": {_value_key(v): c for v, c in self.items()}, "n": self.n}

    @staticmethod
    def from_dict(d: dict) -> "ObservationSet":
        counts = {_value_from_key(k): c for k, c in d["reports"].items()}
        obs = ObservationSet(counts)
        if obs.n != d["n"]:
            raise ValueError("stored n disagrees with the report counts")
        return obs


class Empirical:
    """Observed-frequency distribution over the distinct reported values."""

    __slots__ = ("values", "probs", "n")

    def __init__(self, values: tuple, probs, n: int):
        probs = np.asarray(probs, dtype=float)
        if len(values) != probs.size:
            raise LengthMismatchError("values and probabilities differ in length")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "n", int(n))

    def __setattr__(self, name, value):
        raise AttributeError("Empirical is immutable")

    def prob(self, v) -> float:
        try:
            return float(self.probs[self.values.index(v)])
        except ValueError:
            return 0.0


def to_empirical(obs: ObservationSet) -> Empirical:
    """Frequencies of the distinct observed values (count divided by n)."""
    if obs.n < 1:
        raise EmptyObservationsError("cannot build an empirical distribution from zero reports")
    items = obs.items()
    values = tuple(v for v, _ in items)
    counts = np.array([c for _, c in items], dtype=float)
    return Empirical(values, counts / obs.n, obs.n)


# ---------------------------------------------------------------------------
# Mechanisms
# ---------------------------------------------------------------------------

class Mechanism:
    """Conditional probability kernel from an input alphabet to noisy outputs.

    Subclasses provide ``kernel`` (P(z | x) for whole batches of inputs and
    outputs) and ``sample_counts`` (drawing with the kernel's probabilities
    from a caller-owned Generator).  ``distance_monotone`` marks kernels that
    are strictly decreasing in the input-output distance for every fixed
    output, the premise of the interval/hull reduction constructions.
    """

    kind = "custom"
    distance_monotone = False

    def __init__(self, input_alphabet):
        self.input_alphabet = input_alphabet

    def kernel(self, xs: Sequence, zs: Sequence) -> np.ndarray:
        """P(z | x) with one row per input in ``xs`` and one column per output
        in ``zs``.  Raises ElementOutsideAlphabetError for an input outside
        the domain and ObservationOutsideDomainError for a malformed output."""
        raise NotImplementedError

    def cond_prob(self, x, z) -> float:
        return float(self.kernel([x], [z])[0, 0])

    def sample_counts(self, x, count: int, rng: np.random.Generator) -> dict:
        """Draw ``count`` independent reports for input ``x``; returns value -> count."""
        raise NotImplementedError

    def output_values(self):
        """Finite tuple of output values, or None when the output domain is infinite."""
        return None

    def contains_input(self, x) -> bool:
        return x in self.input_alphabet

    def params_dict(self) -> dict:
        return {}

    def to_dict(self) -> dict:
        raise NotImplementedError


class FiniteMechanism(Mechanism):
    """Dense row-stochastic kernel over a finite output set."""

    def __init__(self, input_alphabet: Alphabet, outputs: Sequence, matrix,
                 kind: str = "custom", distance_monotone: bool = False,
                 params: dict = None):
        super().__init__(input_alphabet)
        outputs = tuple(outputs)
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (input_alphabet.size, len(outputs)):
            raise LengthMismatchError(
                f"kernel shape {matrix.shape} does not match "
                f"{input_alphabet.size} inputs x {len(outputs)} outputs"
            )
        if np.any(matrix < 0):
            raise ValueError("kernel entries must be non-negative")
        rows = matrix.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > PROB_ATOL):
            worst = float(np.max(np.abs(rows - 1.0)))
            raise ValueError(f"kernel rows must sum to 1 (worst deviation {worst:.3e})")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        self.outputs = outputs
        self.matrix = matrix
        self._out_index = {z: j for j, z in enumerate(outputs)}
        self.kind = kind
        self.distance_monotone = distance_monotone
        self._params = dict(params or {})

    @property
    def is_square(self) -> bool:
        return self.matrix.shape[0] == self.matrix.shape[1]

    def output_index(self, z) -> int:
        try:
            return self._out_index[z]
        except (KeyError, TypeError):
            raise ObservationOutsideDomainError(f"{z!r} is not a possible output") from None

    def output_values(self):
        return self.outputs

    def kernel(self, xs: Sequence, zs: Sequence) -> np.ndarray:
        cols = [self.output_index(z) for z in zs]
        if xs is self.input_alphabet.values:
            # A plain column slice.  Its column-major layout fixes the BLAS
            # summation order in IBU, so estimates on the full alphabet stay
            # bit-identical with earlier releases.
            return self.matrix[:, cols]
        rows = [self.input_alphabet.index(x) for x in xs]
        return self.matrix[np.ix_(rows, cols)]

    def row(self, x) -> np.ndarray:
        return self.matrix[self.input_alphabet.index(x)]

    def sample_counts(self, x, count: int, rng: np.random.Generator) -> dict:
        idx = rng.choice(len(self.outputs), size=count, p=self.row(x))
        binned = np.bincount(idx, minlength=len(self.outputs))
        return {self.outputs[j]: int(c) for j, c in enumerate(binned) if c > 0}

    def params_dict(self) -> dict:
        return dict(self._params)

    def to_dict(self) -> dict:
        return {
            "mechanism": self.kind,
            "finite": True,
            "alphabet": self.input_alphabet.to_dict(),
            "outputs": [list(z) if isinstance(z, tuple) else z for z in self.outputs],
            "matrix": self.matrix.tolist(),
            "distance_monotone": self.distance_monotone,
            "params": self._params,
        }

    @staticmethod
    def from_dict(d: dict) -> "FiniteMechanism":
        outputs = tuple(tuple(z) if isinstance(z, list) else z for z in d["outputs"])
        return FiniteMechanism(
            Alphabet.from_dict(d["alphabet"]),
            outputs,
            np.array(d["matrix"], dtype=float),
            kind=d.get("mechanism", "custom"),
            distance_monotone=d.get("distance_monotone", False),
            params=d.get("params"),
        )


# ---------------------------------------------------------------------------
# Observation probability matrix
# ---------------------------------------------------------------------------

class ObsMatrix:
    """Kernel columns for the distinct observed values, with multiplicities.

    ``matrix[i, j]`` is the probability of the j-th distinct observation given
    the i-th alphabet element; ``weights[j]`` is how often it was observed.
    Weights are stored as floats so an exact (asymptotic) empirical
    distribution can be analyzed in place of integer counts.
    """

    def __init__(self, alphabet: Alphabet, values: Sequence, matrix, weights):
        matrix = np.asarray(matrix, dtype=float)
        weights = np.asarray(weights, dtype=float)
        values = tuple(values)
        if matrix.shape != (alphabet.size, len(values)):
            raise LengthMismatchError("matrix shape does not match alphabet and values")
        if weights.shape != (len(values),):
            raise LengthMismatchError("one weight per distinct observation is required")
        if np.any(weights <= 0):
            raise ValueError("column weights must be positive")
        if np.any(matrix < -1e-15) or np.any(matrix > 1 + 1e-12):
            raise ValueError("kernel probabilities must lie in [0, 1]")
        matrix = np.clip(matrix, 0.0, 1.0)
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
    if obs.n < 1:
        raise EmptyObservationsError("cannot build an observation matrix from zero reports")
    items = obs.items()
    values = tuple(v for v, _ in items)
    weights = np.array([c for _, c in items], dtype=float)
    return ObsMatrix(alphabet, values, mech.kernel(alphabet.values, values), weights)
