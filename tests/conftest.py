import numpy as np
import pytest
from hypothesis import strategies as st

from tsvar import GridFunction, TimeScale


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    denom = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    return float(np.max(np.abs(got - want))) / denom


@st.composite
def exact_scales(draw, min_points: int = 3, max_points: int = 12):
    """Random exact discrete scales with gaps bounded away from zero."""
    n = draw(st.integers(min_points, max_points))
    start = draw(st.floats(-5.0, 5.0))
    gaps = draw(
        st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1)
    )
    points = start + np.concatenate([[0.0], np.cumsum(gaps)])
    return TimeScale.from_points(points)


@st.composite
def scale_with_values(draw, dim: int = 1, min_points: int = 3, max_points: int = 12):
    scale = draw(exact_scales(min_points, max_points))
    rows = draw(
        st.lists(
            st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim),
            min_size=scale.n,
            max_size=scale.n,
        )
    )
    return scale, GridFunction(scale, np.array(rows))


def random_exact_scale(rng, min_points: int = 3, max_points: int = 50) -> TimeScale:
    """Seeded-RNG variant for deterministic sweeps."""
    n = int(rng.integers(min_points, max_points + 1))
    start = float(rng.uniform(-5.0, 5.0))
    gaps = rng.uniform(0.05, 2.0, size=n - 1)
    return TimeScale.from_points(start + np.concatenate([[0.0], np.cumsum(gaps)]))


def trajectory_from_slopes(scale, q_a, slopes) -> GridFunction:
    """Expand q(t_{i+1}) = q(t_i) + s_i * mu(t_i) from the left boundary."""
    slopes = np.atleast_2d(np.asarray(slopes, dtype=float).T).T
    values = np.empty((scale.n, slopes.shape[1]))
    values[0] = np.atleast_1d(q_a)
    for i in range(scale.n - 1):
        values[i + 1] = values[i] + slopes[i] * scale.mu(i)
    return GridFunction(scale, values)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(cls, name) wraps a method; the returned list grows by one
    entry per call."""

    def install(cls, name):
        calls = []
        original = getattr(cls, name)

        def counted(self, *args, **kwargs):
            calls.append(None)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
        return calls

    return install
