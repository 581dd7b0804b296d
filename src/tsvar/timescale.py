"""Finite time scales and the delta-calculus primitives on them.

A time scale is represented by finitely many strictly increasing sample
points plus a kind for each adjacent gap.  A SCATTERED gap is a genuine
jump of the scale; a DENSE gap means the two points sample a continuum
segment.  On an all-SCATTERED scale ("exact discrete") every quantity
below is exact arithmetic.  Whenever a DENSE gap contributes, results are
approximations of the classical (continuum) quantities and carry an
``approximate`` flag.

Graininess is zero on DENSE gaps by convention: the grid spacing of a
sampled continuum segment is a numerical artifact, not graininess, and
the formulas that consume graininess must see zero there without waiting
for the resolution to grow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "TimeScaleError",
    "GapKind",
    "PointClass",
    "TimeScale",
    "GridFunction",
    "delta_derivative",
    "delta_integral",
    "pushforward",
]

MAX_POINTS = 10**6  # the most points uniform() and dense_interval() allocate


class TimeScaleError(ValueError):
    """Invalid time-scale construction, lookup, or domain mismatch."""


class GapKind(enum.Enum):
    SCATTERED = "S"
    DENSE = "D"


@dataclass(frozen=True)
class PointClass:
    """Side classification of a single point of a time scale."""

    left_scattered: bool
    right_scattered: bool

    @property
    def is_isolated(self) -> bool:
        return self.left_scattered and self.right_scattered

    @property
    def is_dense(self) -> bool:
        return not self.left_scattered and not self.right_scattered

    @property
    def label(self) -> str:
        if self.is_isolated:
            return "ISOLATED"
        if self.is_dense:
            return "DENSE"
        left = "LEFT_SCATTERED" if self.left_scattered else "LEFT_DENSE"
        right = "RIGHT_SCATTERED" if self.right_scattered else "RIGHT_DENSE"
        return f"{left}+{right}"


@dataclass(frozen=True, eq=False, init=False)
class TimeScale:
    """Strictly increasing points with one :class:`GapKind` per adjacent pair.

    Use the factory constructors (:meth:`from_points`, :meth:`uniform`,
    :meth:`dense_interval`, :meth:`from_parts`) which enforce the minimum
    of three points.  Views produced by :meth:`kappa` may be shorter.
    Instances are immutable and safe to share.

    ``mus`` (graininess) and ``sigmas`` (forward-jump indices) hold
    :meth:`mu` and :meth:`sigma` of every point as read-only arrays.  The
    gap kinds, given as letters or members, are read once into them: gap i
    is SCATTERED exactly when ``mus[i] > 0``, since the points strictly
    increase, and every per-gap query reads that.
    """

    points: np.ndarray
    mus: np.ndarray
    sigmas: np.ndarray

    def __init__(self, points: Sequence[float], gaps: Iterable[GapKind | str]) -> None:
        pts = np.asarray(points, dtype=float).copy()
        if pts.ndim != 1 or pts.size < 1:
            raise TimeScaleError("points must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(pts)):
            raise TimeScaleError("points must be finite")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise TimeScaleError("points must be strictly increasing")
        kinds = np.fromiter(gaps, dtype=object)
        scattered = (kinds == "S") | (kinds == GapKind.SCATTERED)
        unknown = ~scattered & (kinds != "D") & (kinds != GapKind.DENSE)
        if unknown.any():
            bad = kinds[unknown][0]
            raise TimeScaleError(f"unknown gap kind {bad!r} (expected 'S' or 'D')")
        if kinds.size != pts.size - 1:
            raise TimeScaleError(f"expected {pts.size - 1} gap kinds, got {kinds.size}")
        # a SCATTERED gap is a jump of width mu; a DENSE one has mu = 0 and
        # fixes its left point under sigma, as does the last point
        mus = np.zeros(pts.size)
        mus[:-1] = np.where(scattered, np.diff(pts), 0.0)
        sigmas = np.arange(pts.size)
        sigmas[:-1] += scattered
        for name, arr in (("points", pts), ("mus", mus), ("sigmas", sigmas)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_points(cls, points: Sequence[float]) -> "TimeScale":
        """Exact discrete scale from explicit points (all gaps SCATTERED)."""
        pts = np.asarray(points, dtype=float)
        return cls.from_parts(pts, "S" * (pts.size - 1))

    @classmethod
    def uniform(cls, a: float, b: float, h: float) -> "TimeScale":
        """Exact discrete scale a, a+h, ..., b.  (b-a)/h must be integral."""
        if not (a < b):
            raise TimeScaleError("need a < b")
        if not (h > 0):
            raise TimeScaleError("need step h > 0")
        ratio = (b - a) / h
        if not ratio <= MAX_POINTS - 1:  # also an infinite ratio
            raise TimeScaleError(f"(b-a)/h = {ratio!r} exceeds {MAX_POINTS} points")
        k = round(ratio)
        if abs(ratio - k) > 1e-9:
            raise TimeScaleError(f"(b-a)/h = {ratio!r} is not integral")
        if k < 2:
            raise TimeScaleError("a time scale needs at least three points")
        return cls(np.linspace(a, b, k + 1), "S" * k)

    @classmethod
    def dense_interval(cls, a: float, b: float, resolution: int) -> "TimeScale":
        """Sampled continuum segment [a, b] with ``resolution`` points.

        All gaps are DENSE, so graininess is zero everywhere and delta
        quantities computed downstream are flagged approximate.
        """
        if not (a < b):
            raise TimeScaleError("need a < b")
        if not np.isfinite(b - a):  # linspace would fill the points with NaN
            raise TimeScaleError(f"b - a = {b - a!r} is not finite")
        if resolution < 3:
            raise TimeScaleError("a time scale needs at least three points")
        if not resolution <= MAX_POINTS:  # also NaN
            raise TimeScaleError(f"resolution {resolution!r} exceeds {MAX_POINTS}")
        if resolution != int(resolution):
            raise TimeScaleError(f"resolution {resolution!r} is not an integer")
        resolution = int(resolution)
        return cls(np.linspace(a, b, resolution), "D" * (resolution - 1))

    @classmethod
    def from_parts(
        cls, points: Sequence[float], gaps: Iterable[GapKind | str]
    ) -> "TimeScale":
        """Mixed scale from explicit points and per-gap kinds."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size < 3:
            raise TimeScaleError("a time scale needs at least three points")
        return cls(pts, gaps)

    # -- basic queries ------------------------------------------------

    @property
    def n(self) -> int:
        return int(self.points.size)

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    @property
    def gaps(self) -> tuple[GapKind, ...]:
        """One kind per gap: SCATTERED exactly where mu > 0."""
        return tuple(np.where(self.mus[:-1] > 0, GapKind.SCATTERED, GapKind.DENSE))

    def _letters(self) -> np.ndarray:
        """The gap kinds as the letters 'S' and 'D'."""
        return np.where(self.mus[:-1] > 0, "S", "D")

    @property
    def is_exact_discrete(self) -> bool:
        return bool(np.all(self.mus[:-1] > 0))

    @property
    def has_dense(self) -> bool:
        return not self.is_exact_discrete

    def _check_index(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < self.n:
            raise IndexError(f"point index {i} out of range [0, {self.n})")
        return i

    def spacing(self, i: int) -> float:
        """Distance to the next point (quadrature weight of gap i)."""
        i = self._check_index(i)
        if i == self.n - 1:
            return 0.0
        return float(self.points[i + 1] - self.points[i])

    def sigma(self, i: int) -> int:
        """Forward jump, as an index.  Fixes the last point and right-dense points."""
        return int(self.sigmas[self._check_index(i)])

    def rho(self, i: int) -> int:
        """Backward jump, as an index.  Fixes the first point and left-dense points."""
        i = self._check_index(i)
        return i - 1 if i > 0 and self.mus[i - 1] > 0 else i

    def mu(self, i: int) -> float:
        """Forward graininess: gap width on SCATTERED gaps, else zero."""
        return float(self.mus[self._check_index(i)])

    def classify(self, i: int) -> PointClass:
        i = self._check_index(i)
        left = i > 0 and bool(self.mus[i - 1] > 0)
        return PointClass(left_scattered=left, right_scattered=bool(self.mus[i] > 0))

    @property
    def kappa_length(self) -> int:
        """Number of leading points in the kappa restriction of the scale."""
        return self.n - 1 if self.n >= 2 and self.mus[-2] > 0 else self.n

    def kappa(self) -> "TimeScale":
        """Drop the maximum when it is left-scattered; otherwise unchanged.

        The result shares point values with the parent and may have fewer
        than three points.
        """
        if self.kappa_length == self.n:
            return self
        return TimeScale(self.points[:-1], self._letters()[:-1])

    def index_of(self, t: float) -> int:
        """Index of the point matching t within 1e-12 * max(1, |t|)."""
        tol = 1e-12 * max(1.0, abs(t))
        j = int(np.searchsorted(self.points, t))
        for i in (j - 1, j):
            if 0 <= i < self.n and abs(float(self.points[i]) - t) <= tol:
                return i
        raise TimeScaleError(f"no scale point within tolerance of t = {t!r}")

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {"points": self.points.tolist(), "gaps": self._letters().tolist()}

    @classmethod
    def from_json(cls, obj: Mapping) -> "TimeScale":
        """Parse the canonical form or the uniform/dense shorthands."""
        for kind, keys, make in (
            ("uniform", ("a", "b", "h"), cls.uniform),
            ("dense", ("a", "b", "resolution"), cls.dense_interval),
        ):
            if kind in obj:
                spec = obj[kind]
                if not isinstance(spec, Mapping):
                    raise TimeScaleError(f"{kind!r} must be an object")
                missing = [key for key in keys if key not in spec]
                if missing:
                    raise TimeScaleError(f"{kind!r} is missing {missing[0]!r}")
                return make(*(float(spec[key]) for key in keys))
        if "points" not in obj:
            raise TimeScaleError(
                "scale object needs 'points', 'uniform', or 'dense'"
            )
        points = obj["points"]
        gaps = obj.get("gaps")
        if gaps is None:
            gaps = ["S"] * (len(points) - 1)
        return cls.from_parts(points, gaps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeScale):
            return NotImplemented
        return self is other or (
            np.array_equal(self.points, other.points)
            and np.array_equal(self.mus, other.mus)
        )

    def __repr__(self) -> str:
        kinds = "".join(self._letters())
        return f"TimeScale(n={self.n}, [{self.a:g}, {self.b:g}], gaps={kinds!r})"


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Vector-valued samples on a leading prefix of a time scale.

    ``values`` has one length-``dim`` row per covered point.  A full grid
    function covers every point of ``base``; derivative-like results cover
    a shorter prefix (their natural domain).  ``approximate`` marks values
    that involved a DENSE-gap approximation somewhere upstream.
    """

    base: TimeScale
    values: np.ndarray
    approximate: bool = False

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals.reshape(-1, 1)
        if vals.ndim != 2:
            raise TimeScaleError("values must be a 1-D or 2-D array")
        if not 1 <= vals.shape[0] <= self.base.n:
            raise TimeScaleError(
                f"value count {vals.shape[0]} exceeds scale size {self.base.n}"
            )
        if vals.shape[1] < 1:
            raise TimeScaleError("dimension must be at least 1")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def sample(
        cls, scale: TimeScale, fn: Callable[[float], float | Sequence[float]]
    ) -> "GridFunction":
        """Sample fn at every point of the scale."""
        rows = [np.atleast_1d(np.asarray(fn(float(t)), dtype=float)) for t in scale.points]
        return cls(scale, np.vstack(rows))

    @classmethod
    def from_slopes(cls, scale: TimeScale, q_a, slopes) -> "GridFunction":
        """Expand q(t_{i+1}) = q(t_i) + s_i * mu(t_i) from q(t_0) = q_a.

        ``slopes`` has one entry (or one length-``dim`` row) per gap.  The
        values are one sequential cumulative sum over
        [q_a, s_0 mu_0, s_1 mu_1, ...], so they equal the step-by-step
        recurrence bit for bit.
        """
        s = np.asarray(slopes, dtype=float)
        s = s.reshape(len(s), -1)
        if s.shape[0] != scale.n - 1:
            raise TimeScaleError(
                f"expected {scale.n - 1} slopes, one per gap, got {s.shape[0]}"
            )
        return cls(scale, _expand_slopes(scale, q_a, s))

    @property
    def valid(self) -> int:
        """Number of leading points this function is defined on."""
        return int(self.values.shape[0])

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])

    @property
    def is_full(self) -> bool:
        return self.valid == self.base.n

    def component(self, k: int) -> np.ndarray:
        return self.values[:, k]


def _expand_slopes(scale: TimeScale, q_a, s: np.ndarray) -> np.ndarray:
    """Values of the slope words s, shape (..., N-1, n), on the scale.

    Each word's values are one sequential cumulative sum over
    [q_a, s_0 mu_0, s_1 mu_1, ...], so they equal the step-by-step
    recurrence q(t_{i+1}) = q(t_i) + s_i * mu(t_i) bit for bit.
    """
    values = np.empty(s.shape[:-2] + (scale.n, s.shape[-1]))
    values[..., 0, :] = q_a
    np.multiply(s, scale.mus[:-1, None], out=values[..., 1:, :])
    return values.cumsum(axis=-2)


def _quotients(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Forward quotients of values, shape (..., m, n), over the m points:
    (values[i+1] - values[i]) / (points[i+1] - points[i]) for i < m-1."""
    return (values[..., 1:, :] - values[..., :-1, :]) / np.diff(points)[:, None]


def delta_derivative(f: GridFunction) -> GridFunction:
    """Delta derivative of f, one point shorter than its input prefix.

    At each covered point the value is the forward quotient over the gap
    to the right.  On SCATTERED gaps that quotient is the exact delta
    derivative; on DENSE gaps it is a first-order approximation of the
    classical derivative and the result is flagged approximate.
    """
    m = f.valid
    if m < 2:
        raise TimeScaleError("delta derivative needs at least two covered points")
    out = _quotients(f.base.points[:m], f.values)
    approx = f.approximate or bool(np.any(f.base.mus[: m - 1] == 0.0))
    return GridFunction(f.base, out, approximate=approx)


def _running_integral(f: GridFunction, lo: int, hi: int) -> np.ndarray:
    """Delta integrals of f from point ``lo`` to each point lo..hi.

    Row r integrates over gaps lo..lo+r-1, summed in order.  SCATTERED
    gaps contribute the exact left-rectangle term f(t_j) * mu(t_j); DENSE
    gaps contribute a trapezoid on the sampled segment.
    """
    scale = f.base
    lo = int(lo)
    hi = int(hi)
    if not 0 <= lo <= hi < scale.n:
        raise TimeScaleError(f"bad integration range [{lo}, {hi}] on n={scale.n}")
    j = np.arange(lo, hi)
    dense = scale.mus[lo:hi] == 0.0
    if hi > lo and np.max(j + dense) >= f.valid:
        raise TimeScaleError("function prefix too short for this integral")
    w = np.diff(scale.points[lo : hi + 1])[:, None]
    terms = f.values[j] * w
    jd = j[dense]
    terms[dense] = 0.5 * (f.values[jd] + f.values[jd + 1]) * w[dense]
    return np.cumsum(np.vstack([np.zeros((1, f.dim)), terms]), axis=0)


def delta_integral(f: GridFunction, lo: int, hi: int) -> np.ndarray:
    """Delta integral of f from point ``lo`` to point ``hi`` (lo <= hi).

    SCATTERED gaps contribute the exact left-rectangle term
    f(t_i) * mu(t_i); DENSE gaps contribute a trapezoid on the sampled
    segment.  Returns a length-``dim`` vector.
    """
    return _running_integral(f, lo, hi)[-1]


def pushforward(
    scale: TimeScale, nu: GridFunction, f: GridFunction
) -> tuple[TimeScale, GridFunction, GridFunction]:
    """Transport f through the strictly increasing change of scale nu.

    Returns the image scale nu(T) with gap kinds inherited, f carried
    over to it (same values, matched by index), and the delta derivative
    of nu on the original scale.
    """
    if nu.base is not scale and nu.base != scale:
        raise TimeScaleError("nu must live on the given scale")
    if f.base is not scale and f.base != scale:
        raise TimeScaleError("f must live on the given scale")
    if nu.dim != 1:
        raise TimeScaleError("nu must be scalar")
    if not (nu.is_full and f.is_full):
        raise TimeScaleError("nu and f must cover the whole scale")
    w = nu.component(0)
    if not np.all(np.diff(w) > 0):
        raise TimeScaleError("nu must be strictly increasing on the scale")
    image = TimeScale(w, scale._letters())
    f_image = GridFunction(image, f.values, approximate=f.approximate)
    return image, f_image, delta_derivative(nu)
