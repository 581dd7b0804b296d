"""The records tsvar returns: immutable, their arrays read-only, with the
constructor keywords and defaults of their documented signatures, and an
equality that never raises, identity for records that hold arrays, value
equality for expressions, point classes, Newton options and
transformations, which read numpy scalars and 0-d arrays as the plain
values they hold.  And a fresh import compiles tsvar's own files and no
generated code, and the package's public names are its modules'
``__all__``."""

import copy
import inspect
import os
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import tsvar
from tsvar import (
    Candidate,
    Evaluation,
    Expr,
    Extremals,
    GridFunction,
    Lagrangian,
    NewtonOptions,
    NoetherReport,
    PointClass,
    Provenance,
    Residual,
    TimeScale,
    Transformation,
    VariationalProblem,
    action,
    affine_extremal,
    check_conservation,
    enumerate_slope_extremals,
    evaluate,
    first_el_residual,
    parse,
)
from tsvar import expr, noether, solver, timescale, variational
from tsvar.cli import LoadedProblem

ROOT = Path(__file__).resolve().parents[1]
EMPTY = inspect.Parameter.empty

# each public record's constructor: its parameters, and the defaults of those
# that have one
SIGNATURES = {
    Expr: ("root", "variables", "reads", "_run"),
    PointClass: ("left_scattered", "right_scattered"),
    TimeScale: ("points", "gaps"),
    GridFunction: ("base", "values"),
    Lagrangian: ("dim", "body"),
    VariationalProblem: ("scale", "lagrangian", "q_a", "q_b"),
    Residual: ("kind", "points", "values", "approximate"),
    Evaluation: ("p", "t", "mu", "Q", "U", "v", "L", "Lt", "Lu", "Lv"),
    NewtonOptions: (("tol", 1e-10), ("max_iter", 50)),
    Candidate: (
        "trajectory", "provenance", "action", "first_el", "second_el", ("slopes", None)
    ),
    Extremals: ("scale", "slopes", "values", "action", "first_el", "second_el"),
    Transformation: ("tau", "xi"),
    NoetherReport: ("invariance_magnitude", "conserved", "conservation_deviation"),
    LoadedProblem: ("problem", "trajectory", "transformation", "newton"),
}
VALUE_RECORDS = {"Expr", "PointClass", "NewtonOptions", "Transformation"}


def build() -> dict:
    """One of each public record, by name, built afresh on every call from
    the same inputs, with arrays in two dimensions where a record holds
    them."""
    scale = TimeScale.from_points([0.0, 0.5, 1.25, 2.0])
    L = Lagrangian(2, "v1^2 + v2^2 + u1*u2")
    p = VariationalProblem(scale, L, [0, 0], [1, 2])
    q = GridFunction(scale, np.outer(scale.points, [0.5, 1.0]))
    tr = Transformation.from_text(2, "1", ["0", "0"])
    quartic = VariationalProblem(
        TimeScale.uniform(0, 1, 0.25), Lagrangian(1, "(v1^2 - 1)^2"), [0.0], [0.0]
    )
    extremals = enumerate_slope_extremals(quartic, [-1.0, 0.0, 1.0])
    e = parse("v1^2 + t*u2", ["t", "u1", "u2", "v1", "v2"])
    records = [
        e,
        scale.classify(1),
        scale,
        q,
        L,
        p,
        first_el_residual(p, q),
        evaluate(p, q),
        NewtonOptions(tol=1e-9, max_iter=7),
        Candidate(q, Provenance.NEWTON, 1.0, 0.0, 0.0),
        extremals,
        tr,
        check_conservation(p, q, tr),
        LoadedProblem(p, q, tr, NewtonOptions()),
    ]
    return {type(x).__name__: x for x in records}


@pytest.fixture(scope="module")
def twins():
    return build(), build()


def test_every_public_record_is_built():
    assert set(build()) == {cls.__name__ for cls in SIGNATURES}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_constructor_keywords_and_defaults(cls):
    want = [(p, EMPTY) if isinstance(p, str) else p for p in SIGNATURES[cls]]
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == want
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@pytest.mark.parametrize("name", sorted(build()))
def test_fields_cannot_be_assigned_or_deleted(name, twins):
    x = twins[0][name]
    fields = type(x).__slots__
    assert fields and "__dict__" not in fields and not hasattr(x, "__dict__")
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.unknown = 1


@pytest.mark.parametrize("name", sorted(build()))
def test_equality_and_hash_never_raise(name, twins):
    x, y = twins[0][name], twins[1][name]
    assert x == x and not x != x
    assert isinstance(hash(x), int) and hash(x) == hash(x)
    same = x == y
    assert isinstance(hash(y), int)
    if name in VALUE_RECORDS:
        assert same and hash(x) == hash(y)
    elif name == "TimeScale":  # equal points and graininess
        assert same and hash(x) == hash(y)
    else:
        assert not same and x != y


@pytest.mark.parametrize("name", sorted(build()))
def test_copies_keep_every_field(name, twins):
    # a copy, a deep copy and a pickle round trip keep each field's type,
    # an array's bytes and its read-only flag
    x = twins[0][name]
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is type(x)
        for field in type(x).__slots__:
            a, b = getattr(twin, field), getattr(x, field)
            if isinstance(b, np.ndarray):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert a.flags.writeable <= b.flags.writeable, field
            else:
                assert type(a) is type(b)
        assert twin == x or name not in VALUE_RECORDS


@pytest.mark.parametrize("name", sorted(build()))
def test_every_array_field_is_read_only(name):
    x = build()[name]
    for field in type(x).__slots__:
        a = getattr(x, field)
        if isinstance(a, np.ndarray):
            assert not a.flags.writeable, field
            with pytest.raises(ValueError):
                a[...] = 0.0


# records whose fields are often numbers, each given 0-d arrays instead, and
# a value to try to write into them
GIVEN_ARRAYS = {
    "Candidate": (
        lambda q: Candidate(
            q, Provenance.NEWTON, np.array(1.0), np.array(0.0), np.array(0.0)
        ),
        5.0,
    ),
    "NoetherReport": (lambda q: NoetherReport(np.array(0.0), q, np.array(0.0)), 5.0),
}


@pytest.mark.parametrize("name", sorted(GIVEN_ARRAYS))
def test_a_record_holds_the_arrays_it_is_given_read_only(name):
    # 5.0 into a candidate's action
    make, junk = GIVEN_ARRAYS[name]
    T = TimeScale.uniform(0, 1, 0.25)
    x = make(GridFunction(T, T.points))
    held = [f for f in type(x).__slots__ if isinstance(getattr(x, f), np.ndarray)]
    assert held
    for field in held:
        a = getattr(x, field)
        before = a.tobytes()
        assert not a.flags.writeable, field
        with pytest.raises(ValueError):
            a[()] = junk
        assert a.tobytes() == before, field


NAMES = ("t", "q1", "q2")  # a transformation's variables at n = 2

# each value record built from plain Python values, then from numpy scalars,
# 0-d arrays and other sequences in their place
FROM_NUMPY = {
    "NewtonOptions": (
        lambda: NewtonOptions(0.5, 7),
        lambda: NewtonOptions(np.float64(0.5), np.int64(7)),
        lambda: NewtonOptions(np.float32(0.5), np.uint8(7)),
        lambda: NewtonOptions(np.array(0.5), 7),
        lambda: NewtonOptions(np.array(0.5, dtype=np.float16), np.int32(7)),
    ),
    "PointClass": (
        lambda: PointClass(True, False),
        lambda: PointClass(np.True_, np.False_),
        lambda: PointClass(np.array(True), np.array(False)),
        lambda: PointClass(left_scattered=np.float64(1.0), right_scattered=0),
    ),
    "Transformation": (
        lambda: Transformation.from_text(2, "1", ["t", "0"]),
        lambda: Transformation.from_text(
            np.int64(2), np.str_("1"), np.array(["t", "0"])
        ),
        lambda: Transformation(
            parse("1", NAMES), [parse("t", NAMES), parse("0", NAMES)]
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(FROM_NUMPY))
def test_a_value_record_reads_numpy_inputs_as_plain_values(name):
    # equal fields of equal types, so equal records with equal hashes, and
    # no array held
    plain, *others = (make() for make in FROM_NUMPY[name])
    assert isinstance(hash(plain), int)
    for x in others:
        assert x == plain and hash(x) == hash(plain) and repr(x) == repr(plain)
        for field in type(x).__slots__:
            a, b = getattr(x, field), getattr(plain, field)
            assert type(a) is type(b) and not isinstance(a, np.ndarray), field


# a bool, an array or a text given for a Newton option
REFUSED_OPTIONS = {
    "tol-vector": ("tol", np.array([1e-8])),
    "tol-matrix": ("tol", np.ones((1, 1))),
    "tol-bool": ("tol", True),
    "tol-0d-bool": ("tol", np.array(True)),
    "tol-text": ("tol", "1e-8"),
    "tol-complex": ("tol", 1e-8 + 0j),
    "max_iter-bool": ("max_iter", True),
    "max_iter-vector": ("max_iter", np.array([7])),
}


@pytest.mark.parametrize("case", sorted(REFUSED_OPTIONS))
def test_options_refuse_bools_and_arrays(case):
    field, value = REFUSED_OPTIONS[case]
    what = {"tol": "a real scalar", "max_iter": "an integer"}[field]
    message = f"{field} must be {what}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NewtonOptions(**{field: value})


def test_point_class_refuses_an_array_of_flags():
    with pytest.raises(ValueError):
        PointClass(np.array([True, False]), False)


def test_refused_options_leave_the_given_array_writable():
    # the constructor checks before it freezes
    a = np.array(-1.0)
    with pytest.raises(ValueError):
        NewtonOptions(tol=a)
    assert a.flags.writeable


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_the_suite_covers_every_public_record():
    # a new public record joins SIGNATURES, and so every check above
    public = {cls for cls in _subclasses(expr._Record) if cls.__name__[0] != "_"}
    assert public == set(SIGNATURES)


def test_an_evaluation_cannot_be_written_through():
    # the action reads the record's own L
    T = TimeScale.uniform(0, 1, 0.25)
    p = VariationalProblem(T, Lagrangian(1, "v1^2"), [0.0], [1.0])
    e = evaluate(p, GridFunction(T, T.points))
    with pytest.raises(ValueError):
        e.L[0] = 100.0
    assert e.action() == 1.0
    # the public constructor freezes the arrays it is given, in place
    fields = ("t", "mu", "Q", "U", "v", "L", "Lt", "Lu", "Lv")
    given = {f: np.array(getattr(e, f)) for f in fields}  # writable copies
    again = Evaluation(p, **given)
    for f, a in given.items():
        assert getattr(again, f) is a and not a.flags.writeable, f
    assert again.action() == 1.0


def test_a_lagrangian_cannot_be_changed_after_it_is_built():
    # the problem's action reads its Lagrangian's body, dimension and seeds
    T = TimeScale.uniform(0, 1, 0.25)
    p = VariationalProblem(T, Lagrangian(1, "v1^2"), [0.0], [1.0])
    q = affine_extremal(p)
    with pytest.raises(AttributeError):
        p.lagrangian.body = parse("u1^2 + 3", ("t", "u1", "v1"))
    with pytest.raises(ValueError):
        p.lagrangian._unit[:] = 0
    with pytest.raises(AttributeError):
        p.lagrangian.dim = 2
    assert action(p, q) == 1.0
    assert repr(p.lagrangian) == "Lagrangian(dim=1, body='v1^2')"


def test_value_equality():
    e = parse("-(x + 2.5)^3 * sin(y) / 1e3 - x^-2", ["x", "y"])
    again = parse(str(e), ["x", "y"])
    assert again == e and hash(again) == hash(e)
    assert parse(str(e), ["x", "y", "z"]) != e
    assert PointClass(True, False) == PointClass(
        left_scattered=True, right_scattered=False
    )
    assert PointClass(True, False) != PointClass(False, True)
    assert NewtonOptions() == NewtonOptions(1e-10, 50) != NewtonOptions(max_iter=5)
    assert NewtonOptions() != (1e-10, 50)


def test_expression_repr_is_the_dataclass_text():
    e = parse("-(x + 2.5)^3 * sin(y) / 1e3 - x^-2", ["x", "y"])
    power = ("^", ("+", ("var", "x"), ("num", 2.5)), ("num", 3.0))
    product = ("*", ("neg", power), ("call", "sin", ("var", "y")))
    assert e.root == (
        "-", ("/", product, ("num", 1000.0)), ("^", ("var", "x"), ("neg", ("num", 2.0)))
    )
    assert repr(e) == f"Expr(root={e.root!r}, variables=('x', 'y'), reads={e.reads!r})"
    assert repr(NewtonOptions()) == "NewtonOptions(tol=1e-10, max_iter=50)"


def test_expression_tree_is_tuples_and_copies_by_value():
    e = parse("sin(u1) * exp(-t) + cos(v1)^2 / (1.3 - u1)", ["t", "u1", "v1"])
    level, kinds = [e.root], set()
    while level:
        assert all(type(node) is tuple for node in level)
        kinds.update(node[0] for node in level)
        level = [  # every subtree: all but a leaf's value and a call's function name
            child
            for kind, *items in level
            if kind not in ("num", "var")
            for child in items[kind == "call" :]
        ]
    assert kinds == {"+", "-", "*", "/", "^", "neg", "call", "var", "num"}
    frames = [np.array([0.5]), np.array([0.25]), np.array([2.0])]
    for twin in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert twin == e and hash(twin) == hash(e) and str(twin) == str(e)
        assert twin._forward(frames)[0] == e._forward(frames)[0]


GUARD = """
import sys
import numpy
before, compiled = set(sys.modules), []
sys.addaudithook(lambda event, args: event == "compile" and compiled.append(args[1]))
import tsvar, tsvar.cli
print(sum(name == "<string>" for name in compiled))
print("dataclasses" in set(sys.modules) - before)
"""


def test_import_compiles_no_generated_code():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", GUARD],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_package_names_are_the_modules_all():
    # one list of public names per module, and the package exports each
    names = {
        name
        for name, value in vars(tsvar).items()
        if name[0] != "_" and not isinstance(value, types.ModuleType)
    }
    modules = (expr, noether, solver, timescale, variational)
    assert names == {name for module in modules for name in module.__all__}
    assert len(names) == 39
