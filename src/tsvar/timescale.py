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
import math
import operator
from typing import Callable, Iterable, Sequence

import numpy as np

from .expr import _frozen, _nonfinite, _Record, _Value

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


def _spaced(a: float, b: float, k: int) -> np.ndarray:
    """np.linspace(a, b, k + 1) from numpy's C functions, bit for bit
    wherever the points strictly increase: the indices times the step
    (b - a) / k, plus a, and the last point b.  (Where the step underflows
    to 0, linspace divides first, but its points then repeat.)"""
    points = np.arange(k + 1.0)
    points *= (float(b) - float(a)) / k
    points += a
    points[-1] = b
    return points


class GapKind(enum.Enum):
    SCATTERED = "S"
    DENSE = "D"


_SCATTERED = {"S": True, GapKind.SCATTERED: True, "D": False, GapKind.DENSE: False}


def _scattered(kind) -> bool:
    """Whether a gap kind, a letter or a member, is SCATTERED."""
    try:
        return _SCATTERED[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind, a list say
        message = f"unknown gap kind {kind!r} (expected 'S' or 'D')"
        raise TimeScaleError(message) from None


class PointClass(_Value):
    """Side classification of a single point of a time scale, equal to
    the classification of the same two sides."""

    __slots__ = ("left_scattered", "right_scattered")

    def __init__(self, left_scattered: bool, right_scattered: bool):
        left, right = bool(left_scattered), bool(right_scattered)
        _frozen(self, left_scattered=left, right_scattered=right)

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


class TimeScale(_Record):
    """Strictly increasing points with one :class:`GapKind` per adjacent pair.

    Use the factory constructors (:meth:`from_points`, :meth:`uniform`,
    :meth:`dense_interval`, :meth:`from_parts`) which enforce the minimum
    of three points.  Views produced by :meth:`kappa` may be shorter.
    Instances are immutable and safe to share.

    ``mus`` (graininess) and ``sigmas`` (forward-jump indices) hold
    :meth:`mu` and :meth:`sigma` of every point as read-only arrays, and
    ``is_exact_discrete`` whether every gap is SCATTERED.  The gap kinds,
    given as letters or members, are read once into them: gap i is
    SCATTERED exactly when ``mus[i] > 0``, since the points strictly
    increase, and every per-gap query reads that.  Two scales are equal
    when their points and graininess are.
    """

    __slots__ = ("points", "mus", "sigmas", "is_exact_discrete")

    @_nonfinite()  # a spacing that overflows is inf, refused below
    def __init__(self, points: Sequence[float], gaps: Iterable[GapKind | str]) -> None:
        pts = np.array(points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise TimeScaleError("points must be a non-empty 1-D sequence")
        if not np.isfinite(pts).all():
            raise TimeScaleError("points must be finite")
        widths = pts[1:] - pts[:-1]
        if not (widths > 0).all():
            raise TimeScaleError("points must be strictly increasing")
        if not (widths < np.inf).all():
            raise TimeScaleError("point spacing must be finite")
        if iter(gaps) is gaps:  # an iterator, read once
            gaps = list(gaps)
        try:
            scattered = np.fromiter(map(_SCATTERED.__getitem__, gaps), dtype=bool)
        except (KeyError, TypeError):  # name the first bad kind
            scattered = np.fromiter(map(_scattered, gaps), dtype=bool)
        if scattered.size != pts.size - 1:
            raise TimeScaleError(
                f"expected {pts.size - 1} gap kinds, got {scattered.size}"
            )
        # a SCATTERED gap is a jump of width mu; a DENSE one has mu = 0 and
        # fixes its left point under sigma, as does the last point
        mus = np.zeros(pts.size)
        mus[:-1] = np.where(scattered, widths, 0.0)
        sigmas = np.arange(pts.size)
        sigmas[:-1] += scattered
        _frozen(
            self, points=pts, mus=mus, sigmas=sigmas,
            is_exact_discrete=bool(scattered.all()),
        )

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
        k = round(ratio) if math.isfinite(ratio) else ratio
        if abs(ratio - k) > 1e-9:  # NaN for an infinite ratio: not raised
            raise TimeScaleError(f"(b-a)/h = {ratio!r} is not integral")
        if not k <= MAX_POINTS - 1:  # the rounded count; also inf and NaN
            raise TimeScaleError(f"(b-a)/h = {ratio!r} exceeds {MAX_POINTS} points")
        if k < 2:
            raise TimeScaleError("a time scale needs at least three points")
        return cls(_spaced(a, b, k), "S" * k)

    @classmethod
    def dense_interval(cls, a: float, b: float, resolution: int) -> "TimeScale":
        """Sampled continuum segment [a, b] with ``resolution`` points.

        All gaps are DENSE, so graininess is zero everywhere and delta
        quantities computed downstream are flagged approximate.
        """
        if not (a < b):
            raise TimeScaleError("need a < b")
        if not np.isfinite(b - a):  # the points would be NaN
            raise TimeScaleError(f"b - a = {b - a!r} is not finite")
        if resolution < 3:
            raise TimeScaleError("a time scale needs at least three points")
        if not resolution <= MAX_POINTS:  # also NaN
            raise TimeScaleError(f"resolution {resolution!r} exceeds {MAX_POINTS}")
        if resolution != int(resolution):
            raise TimeScaleError(f"resolution {resolution!r} is not an integer")
        resolution = int(resolution)
        return cls(_spaced(a, b, resolution - 1), "D" * (resolution - 1))

    @classmethod
    def from_parts(
        cls, points: Sequence[float], gaps: Iterable[GapKind | str]
    ) -> "TimeScale":
        """Mixed scale from explicit points and per-gap kinds."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1:
            raise TimeScaleError("points must be a non-empty 1-D sequence")
        if pts.size < 3:
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
    def has_dense(self) -> bool:
        return not self.is_exact_discrete

    def _check_index(self, i: int) -> int:
        i = operator.index(i)  # a float index raises TypeError, as a list's does
        if not 0 <= i < self.n:
            raise IndexError(f"point index {i} out of range [0, {self.n})")
        return i

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
        left = i > 0 and self.mus[i - 1] > 0
        return PointClass(left_scattered=left, right_scattered=self.mus[i] > 0)

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
        """Index of the point matching t within 1e-12 * max(1, |t|); a
        non-finite t matches none."""
        tol = 1e-12 * max(1.0, abs(t))
        j = int(np.searchsorted(self.points, t))
        for i in (j - 1, j):
            if 0 <= i < self.n and abs(float(self.points[i]) - t) <= tol < math.inf:
                return i
        raise TimeScaleError(f"no scale point within tolerance of t = {t!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeScale):
            return NotImplemented
        return self is other or (
            np.array_equal(self.points, other.points)
            and np.array_equal(self.mus, other.mus)
        )

    def __hash__(self) -> int:  # equal scales have equal points
        return hash((self.n, self.a, self.b))

    def __repr__(self) -> str:
        kinds = "".join(self._letters())
        return f"TimeScale(n={self.n}, [{self.a:g}, {self.b:g}], gaps={kinds!r})"


class GridFunction(_Record):
    """Vector-valued samples on a leading prefix of a time scale; equal
    only to itself.

    ``values`` has one length-``dim`` row per covered point.  A full grid
    function covers every point of ``base``; derivative-like results cover
    a shorter prefix (their natural domain).  ``approximate`` marks values
    that involved a DENSE-gap approximation somewhere upstream.
    """

    __slots__ = ("base", "values", "approximate")

    def __init__(self, base: TimeScale, values: np.ndarray, approximate: bool = False):
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            vals = vals.reshape(-1, 1)
        if vals.ndim != 2:
            raise TimeScaleError("values must be a 1-D or 2-D array")
        if vals.shape[0] < 1:
            raise TimeScaleError("values must cover at least one point")
        if vals.shape[0] > base.n:
            raise TimeScaleError(
                f"value count {vals.shape[0]} exceeds scale size {base.n}"
            )
        if vals.shape[1] < 1:
            raise TimeScaleError("dimension must be at least 1")
        _frozen(self, base=base, values=vals.copy(), approximate=approximate)

    @classmethod
    def sample(
        cls, scale: TimeScale, fn: Callable[[float], float | Sequence[float]]
    ) -> "GridFunction":
        """Sample fn at every point of the scale."""
        rows = [np.atleast_1d(np.asarray(fn(float(t)), dtype=float)) for t in scale.points]
        return cls(scale, np.vstack(rows))

    @classmethod
    @_nonfinite()
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
        values = np.empty((scale.n, s.shape[1]))
        values[0] = q_a
        np.multiply(s, scale.mus[:-1, None], out=values[1:])
        return cls(scale, values.cumsum(axis=0))

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


@_nonfinite()
def _quotients(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Forward quotients of values, shape (..., m, n), over the m points,
    shape (m,): (values[i+1] - values[i]) / (points[i+1] - points[i]) for
    i < m-1."""
    widths = points[1:] - points[:-1]
    return (values[..., 1:, :] - values[..., :-1, :]) / widths[:, None]


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
    approx = f.approximate or bool((f.base.mus[: m - 1] == 0.0).any())
    return GridFunction(f.base, out, approximate=approx)


@_nonfinite()
def _running_integral(scale: TimeScale, f: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Delta integrals of the values f, shape (..., m, n) on the first m
    points, from point ``lo`` to each point lo..hi: row r integrates over
    gaps lo..lo+r-1, summed in order.  SCATTERED gaps contribute the exact
    left-rectangle term f(t_j) * mu(t_j); DENSE gaps a trapezoid.
    """
    lo, hi = operator.index(lo), operator.index(hi)  # a float bound raises TypeError
    if not 0 <= lo <= hi < scale.n:
        raise TimeScaleError(f"bad integration range [{lo}, {hi}] on n={scale.n}")
    dense = scale.mus[lo:hi] == 0.0
    # the last term reads f at hi - 1, and at hi too if its gap is dense
    if hi > lo and hi - 1 + dense[-1] >= f.shape[-2]:
        raise TimeScaleError("function prefix too short for this integral")
    w = (scale.points[lo + 1 : hi + 1] - scale.points[lo:hi])[:, None]
    terms = f[..., lo:hi, :] * w
    if np.count_nonzero(dense):
        jd = np.arange(lo, hi)[dense]
        terms[..., dense, :] = 0.5 * (f[..., jd, :] + f[..., jd + 1, :]) * w[dense]
    start = np.zeros(f.shape[:-2] + (1, f.shape[-1]))
    return np.concatenate([start, terms], axis=-2).cumsum(axis=-2)


def delta_integral(f: GridFunction, lo: int, hi: int) -> np.ndarray:
    """Delta integral of f from point index ``lo`` to point index ``hi``
    (lo <= hi).

    SCATTERED gaps contribute the exact left-rectangle term
    f(t_i) * mu(t_i); DENSE gaps contribute a trapezoid on the sampled
    segment.  Returns a length-``dim`` vector.
    """
    return _running_integral(f.base, f.values, lo, hi)[-1]


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
    if not (w[1:] > w[:-1]).all():
        raise TimeScaleError("nu must be strictly increasing on the scale")
    image = TimeScale(w, scale._letters())
    f_image = GridFunction(image, f.values, approximate=f.approximate)
    return image, f_image, delta_derivative(nu)
