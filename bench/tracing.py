"""A span tracer installed from outside the program.

``Tracer.install`` wraps every public function and public method of the
``tsvar`` modules.  ``from .x import f`` binds ``f`` in every importing
module, so each binding is replaced, not only the defining one; otherwise
calls such as ``solver`` -> ``first_el_residual`` would go untraced.  The
solver's ``np.linalg`` is replaced by a view whose ``solve`` and ``cond``
are wrapped too, so the Newton linear algebra is its own span.

A span is recorded where a call crosses into another layer (a layer is a
module: ``cli``, ``solver``, ``variational``, ``noether``, ``timescale``,
``expr``, plus ``linalg``).  A call within the same layer passes straight
through and its time stays in the caller's span, except for the functions
in ``OWN_SPAN``.  A span's self time is its
duration minus the durations of its child spans.  Constructors, properties
and private helpers are not wrapped: their time counts toward the span that
called them.

Aggregates are kept for every span; the spans themselves (name, parent,
operation id, start, end) are kept in memory up to ``cap`` and written out
by ``write``.
"""

from __future__ import annotations

import enum
import functools
import json
import sys
import time
import types
from array import array
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path

import numpy as np

LAYERS = ("cli", "solver", "variational", "noether", "timescale", "expr")
# functions that get a span even when called from their own layer
OWN_SPAN = ("cli.load_problem",)
# public functions whose cost is fitted against the problem size
SIZED_LAYERS = ("variational", "noether", "timescale")


class _Frame:
    __slots__ = ("layer", "name", "span", "start", "child")

    def __init__(self, layer: str, name: int, span: int, start: float):
        self.layer = layer
        self.name = name
        self.span = span
        self.start = start
        self.child = 0.0


class _NumpyView(types.ModuleType):
    """numpy as seen by one module, with some attributes overridden."""

    def __init__(self, base, **overrides):
        super().__init__(base.__name__)
        self.__dict__.update(overrides)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


def _size(name: str, args) -> tuple[int, int] | None:
    """(points, dimension) of the first problem or grid function argument;
    for ``delta_integral(f, lo, hi)`` the points integrated over."""
    if name == "timescale.delta_integral" and len(args) == 3:
        return int(args[2]) - int(args[1]) + 1, args[0].dim
    for a in args:
        scale = getattr(a, "scale", None)
        if scale is not None and hasattr(a, "lagrangian"):
            return scale.n, a.dim
        if hasattr(a, "base") and hasattr(a, "values"):
            return a.base.n, a.dim
    return None


class Tracer:
    def __init__(self, cap: int = 50_000):
        self.cap = cap
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._root = _Frame("root", self._intern("root"), -1, 0.0)
        self.stack: list[_Frame] = [self._root]
        self.op_id = -1
        self._next_span = 0
        # kept spans, one entry per array
        self.s_id = array("q")
        self.s_parent = array("q")
        self.s_name = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.dropped = 0
        # aggregates
        self.layer_self: dict[str, float] = defaultdict(float)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.fn_calls: dict[int, int] = defaultdict(int)
        self.fn_time: dict[int, float] = defaultdict(float)
        self.sized: dict[tuple[int, int, int], list[float]] = defaultdict(lambda: [0.0, 0])
        self.counts: dict[str, float] = defaultdict(float)
        self.op_times: list[float] = []
        self._sized_ids: set[int] = set()
        self._restore: list[tuple[object, str, object]] = []
        self._hooks: dict[int, Callable] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ----------------------------------------------------------

    def _open(self, layer: str, name: int) -> _Frame:
        frame = _Frame(layer, name, self._next_span, time.perf_counter())
        self._next_span += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: _Frame, args=(), result=None) -> float:
        end = time.perf_counter()
        self.stack.pop()
        parent = self.stack[-1]
        dur = end - frame.start
        parent.child += dur
        self.layer_self[frame.layer] += dur - frame.child
        self.layer_calls[frame.layer] += 1
        self.fn_calls[frame.name] += 1
        self.fn_time[frame.name] += dur
        if len(self.s_id) < self.cap:
            self.s_id.append(frame.span)
            self.s_parent.append(parent.span)
            self.s_name.append(frame.name)
            self.s_op.append(self.op_id)
            self.s_start.append(frame.start)
            self.s_end.append(end)
        else:
            self.dropped += 1
        hook = self._hooks.get(frame.name)
        if hook is not None:
            hook(parent, dur, result)
        if frame.name in self._sized_ids:
            size = _size(self.names[frame.name], args)
            if size is not None:
                cell = self.sized[(frame.name, size[0], size[1])]
                cell[0] += dur
                cell[1] += 1
        return dur

    def begin_op(self, label: str, op_id: int) -> _Frame:
        self.op_id = op_id
        return self._open("bench", self._intern(f"op:{label}"))

    def end_op(self, frame: _Frame) -> float:
        dur = self._close(frame)
        self.op_times.append(dur)
        return dur

    def _wrap(self, fn, layer: str, name: str):
        nid = self._intern(name)
        stack = self.stack
        nested = layer if name not in OWN_SPAN else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack[-1].layer == nested:
                return fn(*args, **kwargs)
            frame = self._open(layer, nid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(frame, args, result)

        return traced

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        """Wrap the package's public functions and methods in every module."""
        prefix = package.__name__
        modules = [m for k, m in sorted(sys.modules.items()) if k == prefix or k.startswith(prefix + ".")]
        wrapped: dict[types.FunctionType, types.FunctionType] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(prefix + "."):
                    continue
                layer = home.rsplit(".", 1)[1]
                if isinstance(obj, types.FunctionType):
                    if obj not in wrapped:
                        wrapped[obj] = self._wrap(obj, layer, f"{layer}.{obj.__name__}")
                        if layer in SIZED_LAYERS:
                            self._sized_ids.add(self._ids[f"{layer}.{obj.__name__}"])
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, type) and home == mod.__name__:
                    self._wrap_class(obj, layer)
        solver = sys.modules.get(prefix + ".solver")
        if solver is not None:
            linalg = _NumpyView(
                np.linalg,
                solve=self._wrap(np.linalg.solve, "linalg", "linalg.solve"),
                cond=self._wrap(np.linalg.cond, "linalg", "linalg.cond"),
            )
            self._set(solver, "np", _NumpyView(np, linalg=linalg))
        self._install_hooks()

    def _wrap_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, (BaseException, enum.Enum)):
            return
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, types.FunctionType):
                self._set(cls, attr, self._wrap(member, layer, name))
            elif isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self._wrap(member.__func__, layer, name)))
            elif isinstance(member, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(member.__func__, layer, name)))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _install_hooks(self) -> None:
        newton = self._ids.get("solver.solve_newton")
        enum_ = self._ids.get("solver.enumerate_slope_extremals")
        c = self.counts

        def solve_newton(parent, dur, result):
            c["solves"] += 1

        def enumerate_(parent, dur, result):
            c["enumerations"] += 1
            if result is not None:
                c["enum_kept"] += len(result)

        def first_el(parent, dur, result):
            if parent.name == newton:
                c["residual_evals"] += 1
                c["residual_s"] += dur
            elif parent.name == enum_:
                c["enum_residual_calls"] += 1

        def linalg(kind):
            def hook(parent, dur, result):
                if parent.name == newton:
                    c["linalg_s"] += dur
                    if kind == "solve":
                        c["newton_iters"] += 1

            return hook

        for name, hook in (
            ("solver.solve_newton", solve_newton),
            ("solver.enumerate_slope_extremals", enumerate_),
            ("variational.first_el_residual", first_el),
            ("linalg.solve", linalg("solve")),
            ("linalg.cond", linalg("cond")),
        ):
            if name in self._ids:
                self._hooks[self._ids[name]] = hook

    # -- results --------------------------------------------------------

    def metrics(self, untraced_p50: float, traced_p50: float, scale: float) -> dict[str, float]:
        """Per-layer figures, per traced operation unless stated otherwise.

        Times are multiplied by ``scale``, the factor that turns this run's
        wall seconds into reference seconds."""
        n = len(self.op_times) or 1
        per_op = scale / n  # wall seconds in total -> reference seconds per op
        c = self.counts

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        load = self._ids.get("cli.load_problem")
        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = self.layer_calls[layer] / n
            m[f"{layer}.self_s"] = self.layer_self[layer] * per_op
        m.update(
            {
                "solver.newton_iters": ratio(c["newton_iters"], c["solves"]),
                "solver.residual_evals": ratio(c["residual_evals"], c["solves"]),
                "solver.residual_s": c["residual_s"] * per_op,
                "solver.linalg_s": c["linalg_s"] * per_op,
                "solver.enum_residual_calls": ratio(c["enum_residual_calls"], c["enumerations"]),
                "solver.enum_yield": ratio(c["enum_kept"], c["enum_residual_calls"]),
                "cli.load_s": (self.fn_time[load] if load is not None else 0.0) * per_op,
                "trace.overhead": ratio(traced_p50, untraced_p50),
                "trace.unaccounted_s": self.layer_self["bench"] * per_op,
            }
        )
        return m

    def size_exponents(self) -> dict[str, float]:
        """Slope of log time against log N for each sized public function.

        Calls are grouped by (N, n); the dimension enters the fit as a
        second regressor when it varies, so it does not bias the slope.
        A function needs at least two sizes a factor 1.5 apart.
        """
        groups: dict[int, list[tuple[int, int, float]]] = defaultdict(list)
        for (nid, size, dim), (total, count) in self.sized.items():
            groups[nid].append((size, dim, total / count))
        out = {}
        for nid, rows in sorted(groups.items(), key=lambda kv: self.names[kv[0]]):
            sizes = np.array([r[0] for r in rows], dtype=float)
            if sizes.min() < 2 or sizes.max() < 1.5 * sizes.min():
                continue
            dims = np.array([r[1] for r in rows], dtype=float)
            cols = [np.ones(len(rows)), np.log(sizes)]
            if np.unique(dims).size > 1:
                cols.append(np.log(dims))
            X = np.column_stack(cols)
            y = np.log([r[2] for r in rows])
            if np.linalg.matrix_rank(X) < X.shape[1]:
                continue
            coef = np.linalg.lstsq(X, y, rcond=None)[0]
            out[f"{self.names[nid]}.n_exp"] = float(coef[1])
        return out

    def summary(self) -> dict:
        names = self.names
        return {
            "layers": {
                layer: {"calls": self.layer_calls[layer], "self_s": self.layer_self[layer]}
                for layer in sorted(self.layer_self)
            },
            "functions": {
                names[nid]: {"calls": self.fn_calls[nid], "total_s": self.fn_time[nid]}
                for nid in sorted(self.fn_calls, key=lambda k: -self.fn_time[k])
            },
            "counts": dict(self.counts),
            "spans_kept": len(self.s_id),
            "spans_dropped": self.dropped,
        }

    def write(self, path: Path, header: dict) -> None:
        """The header line, then one JSON array per kept span:
        [id, parent id, name, operation id, start, end] (seconds, perf_counter)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({**header, "names": self.names}) + "\n")
            for row in zip(self.s_id, self.s_parent, self.s_name, self.s_op, self.s_start, self.s_end):
                fh.write(json.dumps(row) + "\n")
