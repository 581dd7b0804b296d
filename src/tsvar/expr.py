"""Arithmetic expressions over named variables with forward-mode derivatives.

Grammar (whitespace, as ``str.isspace`` defines it, is ignored; ``^``
binds tightest and associates to the right, then unary minus, then ``*``
``/``, then ``+`` ``-``, these four associating to the left):

    expression := unary (('+' | '-' | '*' | '/') unary)*
    unary      := '-' unary | power
    power      := atom ('^' unary)?
    atom       := NUMBER | NAME | NAME '(' expression ')' | '(' expression ')'

NAME is either a declared variable or one of sin, cos, exp, log, sqrt.
One table, ``_PREC``, ranks the operators for the parser and the printer.
:meth:`Expr._forward` is the only evaluation: forward mode over arrays,
each variable a plain (value, deriv, hess) triple of an array of frames
and a derivative seed, so one pass evaluates every frame along one
direction, or along several directions at once when the seeds form a
column; the pass returns such a triple.  A second-order pass also
carries, in the same pass, the second derivatives along every pair of
those directions (the hyper-dual numbers of Fike & Alonso, AIAA
2011-886).  Derivatives are exact to the rules of differentiation.  A
domain error at any frame, including overflow of ``exp`` and of powers,
and a point where a second-order pass meets a subexpression that is
differentiable once but not twice along its seeds, raises
:class:`ExprDomainError` naming the subexpression.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Iterable

import numpy as np

__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "ExprDomainError",
    "Expr",
    "parse",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
MAX_DEPTH = 100  # parser, evaluator and printer recurse once per level of nesting
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"
_SUBTREES = ("arg", "left", "right")  # the fields of a node that hold nodes


class ExprError(ValueError):
    """Base class for expression parsing and evaluation errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class ExprDomainError(ExprError):
    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message} in {subexpression!r}")
        self.subexpression = subexpression


class _Record:
    """Base of tsvar's records.  A record's fields are its slots not named
    with a leading underscore, each set once through :func:`_frozen`;
    assigning or deleting an attribute then raises AttributeError.
    ``repr`` lists the fields as a dataclass's does, and a record equals
    only itself unless it is a :class:`_Value`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:  # copy and pickle: (None, slots)
        _frozen(self, **state[1])  # numpy's copies are writable

    def _key(self) -> tuple:  # the fields' values
        return tuple(getattr(self, f) for f in self.__slots__ if f[0] != "_")

    def __repr__(self) -> str:
        fields = (f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f[0] != "_")
        return f"{type(self).__qualname__}({', '.join(fields)})"


class _Value(_Record):
    """A record equal to a record of its own class with equal fields, and
    hashed by them."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _frozen(record: _Record, **fields) -> None:
    """Set a record's fields, each array among them made read-only first:
    the one way a record's fields are set, so its arrays are unwritable
    whoever builds it.  An array the caller passes is frozen in place, so
    a constructor calls this after its checks."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(record, name, value)


# -- AST ----------------------------------------------------------------


class _Num(_Value):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _frozen(self, value=value)


class _Var(_Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _frozen(self, name=name)


class _Neg(_Value):
    __slots__ = ("arg",)

    def __init__(self, arg):
        _frozen(self, arg=arg)


class _BinOp(_Value):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        _frozen(self, op=op, left=left, right=right)


class _Call(_Value):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg):
        _frozen(self, fn=fn, arg=arg)


def _walk(root) -> tuple[int, set[str]]:
    """The depth of the tree and the variable names it reads, walked level
    by level without recursion."""
    height, names, level = 0, set(), [root]
    while level:
        height += 1
        names.update(n.name for n in level if isinstance(n, _Var))
        level = [getattr(n, f) for n in level for f in _SUBTREES if hasattr(n, f)]
    return height, names


# -- tokenizer ----------------------------------------------------------

# one token after any whitespace (``\s`` is ``str.isspace``): its kind is
# the name of the group that matched, and BAD is any other character
_TOKEN = re.compile(
    r"\s*(?:(?P<NUM>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<NAME>[A-Za-z_][A-Za-z_0-9]*)|(?P<OP>[-+*/^])|(?P<PAREN>[()])"
    r"|(?P<EOF>\Z)|(?P<BAD>.))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Each token of ``text`` as (kind, text, position), the last one EOF."""
    tokens = []
    for m in _TOKEN.finditer(text):  # each match starts where the last ended
        kind = m.lastgroup
        tok = (kind, m[kind], m.start(kind))
        if kind == "BAD":
            raise ExprSyntaxError(f"unexpected character {tok[1]!r}", tok[2])
        tokens.append(tok)
        if kind == "EOF":
            return tokens


# operator precedence, read by the parser and the printer; "neg" is unary minus
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.variables = variables
        self.i = 0
        self.level = 0  # unary() calls in progress: one per level of nesting

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        self.i += 1
        return self.tokens[self.i - 1]

    def accept(self, text: str) -> bool:
        """Whether the next token is the operator or parenthesis ``text``,
        taken if it is."""
        taken = self.tokens[self.i][1] == text
        self.i += taken
        return taken

    def binary(self, min_prec: int = 1):
        """Unary operands joined by the operators that ``_PREC`` ranks at
        ``min_prec`` or above, each associating to the left.  A unary
        operand takes every ``^`` after it, so only ``+ - * /`` meet here."""
        node = self.unary()
        while (tok := self.peek())[0] == "OP" and _PREC[tok[1]] >= min_prec:
            self.advance()
            node = _BinOp(tok[1], node, self.binary(_PREC[tok[1]] + 1))
        return node

    def unary(self):
        if self.level == MAX_DEPTH:
            raise ExprSyntaxError(_TOO_DEEP, self.peek()[2])
        self.level += 1
        node = _Neg(self.unary()) if self.accept("-") else self.power()
        self.level -= 1
        return node

    def power(self):
        base = self.atom()
        return _BinOp("^", base, self.unary()) if self.accept("^") else base

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "NUM":
            value = float(text)
            if value == np.inf:  # a literal past the float range, as 1e309
                raise ExprSyntaxError(f"number {text} is out of range", pos)
            return _Num(value)
        if kind == "NAME" and self.accept("("):
            if text not in FUNCTIONS:
                raise ExprSyntaxError(f"unknown function {text!r}", pos)
            node = _Call(text, self.binary())
        elif kind == "NAME":
            if text in FUNCTIONS:
                raise ExprSyntaxError(f"function {text!r} needs an argument list", pos)
            if text not in self.variables:
                raise ExprSyntaxError(f"undeclared variable {text!r}", pos)
            return _Var(text)
        elif text == "(":
            node = self.binary()
        else:
            raise ExprSyntaxError("expected a value", pos)
        if not self.accept(")"):
            raise ExprSyntaxError("expected ')'", self.peek()[2])
        return node


# -- printing -----------------------------------------------------------


def _print(node, parent_prec: int = 0) -> str:
    if isinstance(node, _Num):
        s = repr(node.value).removesuffix(".0")  # a whole number prints as 400
        return s if node.value >= 0 else f"({s})"
    if isinstance(node, _Var):
        return node.name
    if isinstance(node, _Neg):
        inner = _print(node.arg, _PREC["neg"])
        s = f"-{inner}"
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if isinstance(node, _Call):
        return f"{node.fn}({_print(node.arg)})"
    prec = _PREC[node.op]  # a _BinOp, the last kind of node
    if node.op == "^":
        # right-associative, and the right side may be a unary chain
        s = f"{_print(node.left, prec + 1)}^{_print(node.right, prec)}"
    else:
        s = f"{_print(node.left, prec)} {node.op} {_print(node.right, prec + 1)}"
    return f"({s})" if parent_prec > prec else s


# -- evaluation ---------------------------------------------------------
#
# parse compiles the tree once into nested closures, one per node
# (_compile).  Each takes ``env``, which maps every variable to its
# (value, deriv, hess) triple, and ``zero``, a constant's hess: None in a
# first-order pass and 0.0 in a second-order one; it returns the node's
# triple, evaluating operands left to right.  Parts are floats (constant
# subexpressions) or arrays of frames.  Domain checks look at every frame
# at once, by np.count_nonzero, which costs a fraction of np.any on small
# arrays (a mask over a constant, a Python bool, by a plain truth test:
# _some); the offending subexpression is printed only when an error is
# actually raised.  A first-order pass computes exactly what it would
# without the second-order rules: each of them runs only when the triple
# carries a hess.

# tsvar's one rule for non-finite array arithmetic: an overflow is inf, and
# inf - inf or 0 * inf NaN, without a warning; divide and underflow keep the
# caller's error state.  A fresh errstate per use, which numpy 1.x nests safely
_nonfinite = partial(np.errstate, over="ignore", invalid="ignore")


def _outer(a, b):
    """Entry (i, j) a_i * b_j of two derivative parts, over their leading
    axis of directions; 0.0 if either is a constant's scalar zero."""
    if getattr(a, "ndim", 0) == 0 or getattr(b, "ndim", 0) == 0:
        return 0.0
    return a[:, None] * b[None, :]


def _sym(a, b):
    """a_i * b_j + b_i * a_j: symmetric in (i, j) bit for bit, as every
    second-derivative part is."""
    ab = _outer(a, b)
    return 0.0 if type(ab) is float else ab + ab.swapaxes(0, 1)


def _chain(x, v, d, d2):
    """f(x), f one of FUNCTIONS, by the chain rule from f's value ``v`` and
    derivative ``d`` at x's value: d(f(x)) = d dx, and in a second-order
    pass d2(f(x)) = d d2x + f'' dx dx, where ``d2()`` gives f''.  It is
    called only there, so a first-order pass computes no second one."""
    _, dx, hx = x
    if getattr(dx, "ndim", 0) == 0:  # a constant x, where d may overflow
        return v, 0.0, hx  # (the 1/x of log(1e-320)): f(x) is a constant
    if hx is None:
        return v, d * dx, None
    return v, d * dx, d * hx + d2() * _outer(dx, dx)


def _no_overflow(result, arg, node):
    """``result``, unless a finite argument overflowed to an infinite one."""
    if np.count_nonzero(np.isfinite(result)) < result.size and np.count_nonzero(
        np.isinf(result) & np.isfinite(arg)
    ):
        raise ExprDomainError("result overflows", _print(node))
    return result


def _some(mask) -> bool:
    """Whether ``mask`` is set somewhere: a plain truth test on a Python
    bool (a mask over a constant, as the k < 0 of v1^2), np.count_nonzero
    on an array."""
    return mask if type(mask) is bool else np.count_nonzero(mask) > 0


def _fill(mask, value, x):
    """x with ``value`` where ``mask`` is set, by np.where only if it is
    set somewhere: x itself otherwise."""
    return np.where(mask, value, x) if _some(mask) else x


def _int_pow(a, b, node):
    """a^k for an integer k, one exponent for every frame (as the 2 of
    v1^2) or one per frame."""
    (av, da, ha), k = a, b[0]
    negative = k < 0  # the base is looked at only if k is negative somewhere
    if _some(negative) and np.count_nonzero(negative & (av == 0.0)):
        raise ExprDomainError("zero raised to a negative power", _print(node))
    v = _no_overflow(np.power(av, k), av, node)
    # a constant base, whose slope k a^(k-1) may overflow (as (1e-200)^-1's):
    # a^k moves only as k does, along no direction, so its parts are k's zeros
    if getattr(da, "ndim", 0) == 0:
        return v, b[1], b[2]
    # d(a^k) = k a^(k-1) da and d2(a^k) = k a^(k-1) d2a + k (k-1) a^(k-2) da da;
    # each term is 0 where its factor k or k (k-1) is, and there the base is
    # raised to the power 0, so that a zero base raises no warning
    slope = k * np.power(av, k - (k != 0))
    deriv = _fill(k == 0, 0.0, slope * da)
    if ha is None:
        return v, deriv, None
    k2 = k * (k - 1)
    curve = _fill(k2 == 0, 0.0, k2 * np.power(av, (k - 2) * (k2 != 0)))
    return v, deriv, _fill(k == 0, 0.0, slope) * ha + curve * _outer(da, da)


def _real_pow(a, b, node):
    (av, da, ha), (bv, db, hb) = a, b
    if np.count_nonzero((av < 0.0) | ((av == 0.0) & (bv <= 0.0))):
        raise ExprDomainError("non-integer power of a non-positive base", _print(node))
    zero = av == 0.0
    # bv > 0 at a zero base; the derivative of x^b there is 0 for b > 1,
    # else unbounded
    at_zero = np.count_nonzero(zero) > 0  # else neither check can fail
    if at_zero and np.count_nonzero(zero & (da != 0.0) & (bv <= 1.0)):
        raise ExprDomainError("non-differentiable power at zero base", _print(node))
    # and its second derivatives there are 0 for b > 2, else unbounded along
    # a direction that moves the base (b (b-1) x^(b-2)), and unbounded for
    # b <= 1 where the base curves (b x^(b-1) d2x)
    if at_zero and ha is not None and (
        np.count_nonzero(zero & (da != 0.0) & (bv <= 2.0))
        or np.count_nonzero(zero & (ha != 0.0) & (bv <= 1.0))
    ):
        raise ExprDomainError("power not twice differentiable at zero base", _print(node))
    base = _fill(zero, 1.0, av)
    log_a = np.log(base)
    x = bv * log_a
    v = _no_overflow(np.exp(x), x, node)
    dx = db * log_a + bv * da / base
    dv = v * dx
    if ha is None:
        return _fill(zero, 0.0, v), _fill(zero, 0.0, dv), None
    # x = b log a: d2x = d2b log a + (db da + da db) / a + b (d2a - da da / a) / a
    hx = hb * log_a + _sym(db, da) / base + bv * (ha - _outer(da, da) / base) / base
    hv = v * (hx + _outer(dx, dx))
    return _fill(zero, 0.0, v), _fill(zero, 0.0, dv), _fill(zero, 0.0, hv)


def _pow(a, b, node):
    """Power, decided frame by frame.

    Where the exponent is an integer whose derivatives vanish along every
    direction the power is taken directly, which keeps negative bases
    meaningful (even powers of negative numbers); everywhere else it goes
    through exp(b log a).
    """
    bv, db, hb = b
    if getattr(bv, "ndim", 0) == getattr(db, "ndim", 0) == 0:  # as the 2 of v1^2
        integral = db == 0.0 and float(bv).is_integer()
        return (_int_pow if integral else _real_pow)(a, b, node)
    # an exponent that varies over the k frames, the last axis of every part
    k = _shape([x for x in (a[0], bv) if type(x) is not float])[-1]
    moving = np.zeros(k, dtype=bool)
    for part in (db, 0.0 if hb is None else hb):
        nonzero = np.asarray(part != 0.0)
        moving |= _broadcast(nonzero, nonzero.shape[:-1] + (k,)).reshape(-1, k).any(0)
    integral = ~moving & np.isfinite(bv) & (np.trunc(bv) == bv)
    count = np.count_nonzero(integral)
    if count == 0:
        return _real_pow(a, b, node)
    if count == k:
        return _int_pow(a, b, node)
    # else both rules on every frame, each on inputs it takes without an
    # error or a warning (exponent 0 off the integral frames, base 1 on
    # them), and each part picked frame by frame
    on = _int_pow(a, (np.where(integral, bv, 0.0), db, hb), node)
    off = _real_pow((np.where(integral, 1.0, a[0]), *a[1:]), b, node)
    value, deriv = np.where(integral, on[0], off[0]), np.where(integral, on[1], off[1])
    return value, deriv, None if hb is None else np.where(integral, on[2], off[2])


def _call(node, x):
    fn, (xv, dx, hx) = node.fn, x
    if fn in ("sin", "cos") and np.count_nonzero(np.isinf(xv)):
        raise ExprDomainError(f"{fn} of an infinite value", _print(node))
    if fn == "sin":
        v = np.sin(xv)
        return _chain(x, v, np.cos(xv), lambda: -v)
    if fn == "cos":
        v = np.cos(xv)
        return _chain(x, v, -np.sin(xv), lambda: -v)
    if fn == "exp":
        v = _no_overflow(np.exp(xv), xv, node)
        return _chain(x, v, v, lambda: v)
    if fn == "log":
        if np.count_nonzero(xv <= 0.0):
            raise ExprDomainError("log of a non-positive value", _print(node))
        d = 1.0 / xv
        return _chain(x, np.log(xv), d, lambda: -d * d)
    # sqrt, the last of FUNCTIONS
    if np.count_nonzero(xv < 0.0):
        raise ExprDomainError("sqrt of a negative value", _print(node))
    zero = xv == 0.0
    at_zero = np.count_nonzero(zero) > 0  # else neither check can fail
    if at_zero and np.count_nonzero(zero & (dx != 0.0)):
        raise ExprDomainError("sqrt not differentiable at zero", _print(node))
    if at_zero and hx is not None and np.count_nonzero(zero & (hx != 0.0)):
        raise ExprDomainError("sqrt not twice differentiable at zero", _print(node))
    v = np.sqrt(xv)
    d = 0.5 / _fill(zero, np.inf, v)
    return _chain(x, v, d, lambda: -2.0 * d * d * d)  # 0 at a zero argument, as d


def _compile(node):
    """The closure that evaluates ``node``: (env, zero) -> its triple."""
    if isinstance(node, _Num):
        c = node.value
        return lambda env, zero: (c, 0.0, zero)
    if isinstance(node, _Var):
        name = node.name
        return lambda env, zero: env[name]
    if isinstance(node, _Neg):
        arg = _compile(node.arg)

        def neg(env, zero):
            v, d, h = arg(env, zero)
            return -v, -d, None if h is None else -h

        return neg
    if isinstance(node, _Call):
        arg = _compile(node.arg)
        return lambda env, zero: _call(node, arg(env, zero))
    left, right, op = _compile(node.left), _compile(node.right), node.op
    if op == "^":
        return lambda env, zero: _pow(left(env, zero), right(env, zero), node)

    def binary(env, zero):
        (av, ad, ah), (bv, bd, bh) = left(env, zero), right(env, zero)
        if op == "+":
            return av + bv, ad + bd, None if ah is None else ah + bh
        if op == "-":
            return av - bv, ad - bd, None if ah is None else ah - bh
        if op == "*":
            h = None if ah is None else ah * bv + av * bh + _sym(ad, bd)
            return av * bv, ad * bv + av * bd, h
        if np.count_nonzero(bv == 0.0):  # op is "/"
            raise ExprDomainError("division by zero", _print(node))
        v = av / bv
        d = (ad - v * bd) / bv
        # from a = v b: d2v = (d2a - v d2b - (dv db + db dv)) / b
        return v, d, None if ah is None else (ah - v * bh - _sym(d, bd)) / bv

    return binary


def _shape(parts) -> tuple[int, ...]:
    """The shape that the arrays ``parts`` broadcast to, from one array of
    each shape."""
    first = {x.shape: x for x in parts}
    if len(first) > 1:
        return np.broadcast(*first.values()).shape
    return next(iter(first), ())


def _broadcast(x, shape):
    """x, broadcast to ``shape`` if it has another: the read-only view that
    np.broadcast_to takes from nditer, without its Python-level wrapper."""
    if getattr(x, "shape", None) == shape:
        return x
    flags = ("multi_index", "refs_ok", "zerosize_ok")  # multi_index: no coalescing
    with np.nditer((x,), flags, ("readonly",), itershape=shape) as it:
        return it.itviews[0]


class Expr(_Value):
    """A parsed expression, the variable names it may reference and the
    ones it reads.

    Immutable, and equal to an expression of the same tree and names.
    ``str`` prints it with the parentheses that ``_PREC`` needs, and
    :meth:`_forward`, a pure function of its arguments, is the only way
    to evaluate it: on arrays of frames, a single point being a stack of
    one frame.
    """

    __slots__ = ("root", "variables", "reads", "_run")

    def __init__(self, root, variables: tuple[str, ...], reads: frozenset[str], _run):
        # reads: the variables the tree names; _run: _compile(root)
        _frozen(self, root=root, variables=variables, reads=reads, _run=_run)

    @_nonfinite()  # overflow of exp and of powers raises in _no_overflow
    def _forward(self, values, seeds=None, order: int = 1) -> tuple:
        """Value and directional derivatives at every frame in one pass,
        as the triple (value, deriv, hess).

        ``values`` holds an array of frames for each of ``variables``, in
        that order; ``seeds``, in the same order, each one's derivative
        seed (zero when omitted), which broadcasts against the frames, so
        a column of seeds carries several directions through the same
        pass.  The value has the shape the frames broadcast to, and the
        derivatives the shape the frames and the seeds broadcast to.
        ``hess`` is None at order 1.  With ``order=2`` the seeds must lead
        with that axis of directions, and ``hess`` holds the second
        derivatives along every pair of them, the axis twice.

        The pass calls the closures that parse compiled from the tree, one
        per node, on plain (value, deriv, hess) tuples.  Beyond numpy's
        arithmetic it costs a few Python calls per node and, once per
        pass, one error-state switch and a broadcast of the parts whose
        shape falls short.  On the hundred or so frames of a Newton solve
        numpy's overhead per call, not the frame count, sets the cost of
        a first-order pass; second derivatives add arithmetic that grows
        with the square of the directions.
        """
        zero = None if order == 1 else 0.0
        values = [np.asarray(x, dtype=float) for x in values]
        if seeds is not None:
            seeds = [np.asarray(s, dtype=float) for s in seeds]
        parts = zip(values, seeds or [0.0] * len(values), [zero] * len(values))
        value, deriv, hess = self._run(dict(zip(self.variables, parts)), zero)
        frames = _shape(values)
        shape = frames if seeds is None else _shape([*values, *seeds])
        value, deriv = _broadcast(value, frames), _broadcast(deriv, shape)
        return value, deriv, None if zero is None else _broadcast(hess, shape[:1] + shape)

    def __str__(self) -> str:
        return _print(self.root)

    def __reduce__(self):  # copy and pickle: the tree, its closures compiled anew
        return _compiled, (self.root, self.variables, self.reads)


def _compiled(root, variables: tuple[str, ...], reads: frozenset[str]) -> Expr:
    return Expr(root, variables, reads, _compile(root))


def parse(text: str, variables: Iterable[str] = ()) -> Expr:
    """Parse ``text`` against the declared variable names.

    Raises :class:`ExprSyntaxError`, with the position of the offending
    token, on text outside the grammar above, on a number too large for
    a float, or on text nested deeper than MAX_DEPTH levels;
    :class:`ExprError` if a declared name is one of FUNCTIONS; and
    TypeError if ``text`` is not a string.
    """
    if not isinstance(text, str):
        raise TypeError(f"expression text must be a string, got {type(text).__name__}")
    names = tuple(variables)
    for name in names:
        if name in FUNCTIONS:
            raise ExprError(f"variable name {name!r} collides with a function")
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text, names)
    root = parser.binary()
    kind, found, pos = parser.peek()
    if kind != "EOF":
        raise ExprSyntaxError(f"unexpected {found!r}", pos)
    height, reads = _walk(root)
    if height > MAX_DEPTH:  # a long chain of binary operators
        raise ExprSyntaxError(_TOO_DEEP, 0)
    return _compiled(root, names, frozenset(reads))
