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
each variable a :class:`Dual` of an array of frames and a derivative
seed, so one pass evaluates every frame along one direction, or along
several directions at once when the seeds form a column.  A second-order
pass also carries, in the same pass, the second derivatives along every
pair of those directions (the hyper-dual numbers of Fike & Alonso, AIAA
2011-886).  Derivatives are exact to the rules of differentiation.  A
domain error at any frame, including overflow of ``exp`` and of powers,
and a point where a second-order pass meets a subexpression that is
differentiable once but not twice along its seeds, raises
:class:`ExprDomainError` naming the subexpression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "ExprDomainError",
    "Expr",
    "parse",
    "FUNCTIONS",
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


@dataclass(frozen=True)
class Dual:
    """Forward-mode number: a value, its directional derivatives and, in a
    second-order pass, its second derivatives.

    Each part may be a float or a numpy array of frames; the parts
    broadcast against each other.  ``hess`` is None in a first-order
    pass.  In a second-order pass ``deriv`` leads with an axis of seed
    directions and ``hess`` with two, entry (i, j) being the second
    derivative along directions i and j.
    """

    value: float | np.ndarray
    deriv: float | np.ndarray
    hess: float | np.ndarray | None = None


# -- AST ----------------------------------------------------------------


@dataclass(frozen=True)
class _Num:
    value: float


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Neg:
    arg: object


@dataclass(frozen=True)
class _BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class _Call:
    fn: str
    arg: object


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


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM, NAME, OP, PAREN, EOF
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN.finditer(text):  # each match starts where the last ended
        tok = _Token(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
        if tok.kind == "BAD":
            raise ExprSyntaxError(f"unexpected character {tok.text!r}", tok.pos)
        tokens.append(tok)
        if tok.kind == "EOF":
            return tokens


# operator precedence, read by the parser and the printer; "neg" is unary minus
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.variables = variables
        self.i = 0
        self.level = 0  # unary() calls in progress: one per level of nesting

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        self.i += 1
        return self.tokens[self.i - 1]

    def accept(self, text: str) -> bool:
        """Whether the next token is the operator or parenthesis ``text``,
        taken if it is."""
        taken = self.peek().text == text
        self.i += taken
        return taken

    def binary(self, min_prec: int = 1):
        """Unary operands joined by the operators that ``_PREC`` ranks at
        ``min_prec`` or above, each associating to the left.  A unary
        operand takes every ``^`` after it, so only ``+ - * /`` meet here."""
        node = self.unary()
        while (tok := self.peek()).kind == "OP" and _PREC[tok.text] >= min_prec:
            self.advance()
            node = _BinOp(tok.text, node, self.binary(_PREC[tok.text] + 1))
        return node

    def unary(self):
        if self.level == MAX_DEPTH:
            raise ExprSyntaxError(_TOO_DEEP, self.peek().pos)
        self.level += 1
        node = _Neg(self.unary()) if self.accept("-") else self.power()
        self.level -= 1
        return node

    def power(self):
        base = self.atom()
        return _BinOp("^", base, self.unary()) if self.accept("^") else base

    def atom(self):
        tok = self.advance()
        if tok.kind == "NUM":
            return _Num(float(tok.text))
        if tok.kind == "NAME" and self.accept("("):
            if tok.text not in FUNCTIONS:
                raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.pos)
            node = _Call(tok.text, self.binary())
        elif tok.kind == "NAME":
            if tok.text in FUNCTIONS:
                raise ExprSyntaxError(
                    f"function {tok.text!r} needs an argument list", tok.pos
                )
            if tok.text not in self.variables:
                raise ExprSyntaxError(f"undeclared variable {tok.text!r}", tok.pos)
            return _Var(tok.text)
        elif tok.text == "(":
            node = self.binary()
        else:
            raise ExprSyntaxError("expected a value", tok.pos)
        if not self.accept(")"):
            raise ExprSyntaxError("expected ')'", self.peek().pos)
        return node


# -- printing -----------------------------------------------------------


def _print(node, parent_prec: int = 0) -> str:
    if isinstance(node, _Num):
        s = repr(node.value)
        return s if node.value >= 0 else f"({s})"
    if isinstance(node, _Var):
        return node.name
    if isinstance(node, _Neg):
        inner = _print(node.arg, _PREC["neg"])
        s = f"-{inner}"
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if isinstance(node, _Call):
        return f"{node.fn}({_print(node.arg)})"
    if isinstance(node, _BinOp):
        prec = _PREC[node.op]
        if node.op == "^":
            # right-associative, and the right side may be a unary chain
            s = f"{_print(node.left, prec + 1)}^{_print(node.right, prec)}"
        else:
            s = f"{_print(node.left, prec)} {node.op} {_print(node.right, prec + 1)}"
        return f"({s})" if parent_prec > prec else s
    raise TypeError(f"unknown node {node!r}")


# -- evaluation ---------------------------------------------------------
#
# Every value flowing through the tree is a Dual whose parts are floats
# (constant subexpressions) or arrays of frames.  Domain checks look at
# every frame at once; the offending subexpression is printed only when
# an error is actually raised.  A first-order pass computes exactly what
# it would without the second-order rules: each of them runs only when
# the Dual carries a ``hess``.


def _outer(a, b):
    """Entry (i, j) a_i * b_j of two derivative parts, over their leading
    axis of directions; 0.0 if either is a constant's scalar zero."""
    if np.ndim(a) == 0 or np.ndim(b) == 0:
        return 0.0
    return a[:, None] * b[None, :]


def _sym(a, b):
    """a_i * b_j + b_i * a_j: symmetric in (i, j) bit for bit, as every
    second-derivative part is."""
    ab = _outer(a, b)
    return ab + np.swapaxes(ab, 0, 1) if np.ndim(ab) else 0.0


def _chain(x: Dual, v, d, d2) -> Dual:
    """f(x) by the chain rule, from f's value ``v`` and first derivative
    ``d`` at x's value: d(f(x)) = d dx, and in a second-order pass
    d2(f(x)) = d d2x + f'' dx dx, where ``d2()`` gives f''.  It is called
    only there, so a first-order pass computes no second derivative."""
    if x.hess is None:
        return Dual(v, d * x.deriv)
    return Dual(v, d * x.deriv, d * x.hess + d2() * _outer(x.deriv, x.deriv))


def _no_overflow(result, arg, node):
    """``result``, unless a finite argument overflowed to an infinite one."""
    if not np.isfinite(result).all() and np.any(np.isinf(result) & np.isfinite(arg)):
        raise ExprDomainError("result overflows", _print(node))
    return result


def _int_pow(a: Dual, b: Dual, node) -> Dual:
    av, k = a.value, b.value
    if np.ndim(k):
        zero_to_negative = np.any((av == 0.0) & (k < 0))
    else:  # one exponent for every frame, as the 2 of v1^2: decided in Python
        zero_to_negative = k < 0 and np.any(av == 0.0)
    if zero_to_negative:
        raise ExprDomainError("zero raised to a negative power", _print(node))
    v = _no_overflow(np.power(av, k), av, node)
    # d(a^k) = k a^(k-1) da and d2(a^k) = k a^(k-1) d2a + k (k-1) a^(k-2) da da
    if np.ndim(k) == 0 and k != 0:
        return _chain(
            a, v, k * np.power(av, k - 1),
            lambda: k * (k - 1) * np.power(av, k - 2) if k != 1 else 0.0,
        )
    # x^0, and exponents that vary over frames: each term is taken as 0
    # where its factor k or k (k-1) is, so that a zero base raises no warning
    if np.ndim(k) == 0:
        slope = curve = 0.0
        deriv = np.zeros(np.broadcast(av, a.deriv).shape)
    else:
        slope = k * np.power(av, np.where(k == 0, 0.0, k - 1))
        deriv = np.where(k == 0, 0.0, slope * a.deriv)
    if a.hess is None:
        return Dual(v, deriv)
    if np.ndim(k):
        k2 = k * (k - 1)
        slope = np.where(k == 0, 0.0, slope)
        curve = np.where(k2 == 0, 0.0, k2 * np.power(av, np.where(k2 == 0, 0.0, k - 2)))
    return Dual(v, deriv, slope * a.hess + curve * _outer(a.deriv, a.deriv))


def _real_pow(a: Dual, b: Dual, node) -> Dual:
    av, bv = a.value, b.value
    if np.any((av < 0.0) | ((av == 0.0) & (bv <= 0.0))):
        raise ExprDomainError("non-integer power of a non-positive base", _print(node))
    zero = av == 0.0
    # bv > 0 at a zero base; the derivative of x^b there is 0 for b > 1,
    # else unbounded
    if np.any(zero & (a.deriv != 0.0) & (bv <= 1.0)):
        raise ExprDomainError("non-differentiable power at zero base", _print(node))
    # and its second derivatives there are 0 for b > 2, else unbounded along
    # a direction that moves the base (b (b-1) x^(b-2)), and unbounded for
    # b <= 1 where the base curves (b x^(b-1) d2x)
    if a.hess is not None and (
        np.any(zero & (a.deriv != 0.0) & (bv <= 2.0))
        or np.any(zero & (a.hess != 0.0) & (bv <= 1.0))
    ):
        raise ExprDomainError("power not twice differentiable at zero base", _print(node))
    base = np.where(zero, 1.0, av)
    log_a = np.log(base)
    x = bv * log_a
    v = _no_overflow(np.exp(x), x, node)
    dx = b.deriv * log_a + bv * a.deriv / base
    dv = v * dx
    if a.hess is None:
        return Dual(np.where(zero, 0.0, v), np.where(zero, 0.0, dv))
    # x = b log a: d2x = d2b log a + (db da + da db) / a + b (d2a - da da / a) / a
    hx = (
        b.hess * log_a
        + _sym(b.deriv, a.deriv) / base
        + bv * (a.hess - _outer(a.deriv, a.deriv) / base) / base
    )
    hv = v * (hx + _outer(dx, dx))
    return Dual(np.where(zero, 0.0, v), np.where(zero, 0.0, dv), np.where(zero, 0.0, hv))


def _pow(a: Dual, b: Dual, node) -> Dual:
    """Power, decided frame by frame.

    Where the exponent is an integer whose derivatives vanish along every
    direction the power is taken directly, which keeps negative bases
    meaningful (even powers of negative numbers); everywhere else it goes
    through exp(b log a).
    """
    bv = b.value
    if np.ndim(bv) == np.ndim(b.deriv) == 0:  # a constant exponent, as the 2 of v1^2
        integral = b.deriv == 0.0 and float(bv).is_integer()
        return (_int_pow if integral else _real_pow)(a, b, node)
    # an exponent that varies over the k frames, the last axis of every part
    k = np.broadcast_shapes(np.shape(a.value), np.shape(bv))[-1]
    moving = np.zeros(k, dtype=bool)
    for part in (b.deriv, 0.0 if b.hess is None else b.hess):
        nonzero = np.asarray(part != 0.0)
        moving |= np.broadcast_to(nonzero, nonzero.shape[:-1] + (k,)).reshape(-1, k).any(0)
    integral = ~moving & np.isfinite(bv) & (np.trunc(bv) == bv)

    def at(x, sel):  # x at the frames sel, if x varies over frames
        return x[..., sel] if np.shape(x)[-1:] == (k,) else x

    on, off = (
        path(
            Dual(at(a.value, sel), at(a.deriv, sel), at(a.hess, sel)),
            Dual(at(bv, sel), at(b.deriv, sel), at(b.hess, sel)),
            node,
        )
        for sel, path in ((integral, _int_pow), (~integral, _real_pow))
    )

    def stitch(x, y):  # one part, x on the integral frames and y elsewhere
        out = np.empty(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1]) + (k,))
        out[..., integral], out[..., ~integral] = x, y
        return out

    value, deriv = stitch(on.value, off.value), stitch(on.deriv, off.deriv)
    if b.hess is None:
        return Dual(value, deriv)
    return Dual(value, deriv, stitch(on.hess, off.hess))


def _call(node, x: Dual) -> Dual:
    fn, xv = node.fn, x.value
    if fn in ("sin", "cos") and np.any(np.isinf(xv)):
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
        if np.any(xv <= 0.0):
            raise ExprDomainError("log of a non-positive value", _print(node))
        d = 1.0 / xv
        return _chain(x, np.log(xv), d, lambda: -d * d)
    # sqrt, the last of FUNCTIONS
    if np.any(xv < 0.0):
        raise ExprDomainError("sqrt of a negative value", _print(node))
    zero = xv == 0.0
    if np.any(zero & (x.deriv != 0.0)):
        raise ExprDomainError("sqrt not differentiable at zero", _print(node))
    if x.hess is not None and np.any(zero & (x.hess != 0.0)):
        raise ExprDomainError("sqrt not twice differentiable at zero", _print(node))
    v = np.sqrt(xv)
    d = 0.5 / np.where(zero, np.inf, v)
    return _chain(x, v, d, lambda: -2.0 * d * d * d)  # 0 at a zero argument, as d


def _eval(node, env: Mapping[str, Dual], zero: float | None) -> Dual:
    """The Dual of node; ``zero`` is a constant's ``hess``, None in a
    first-order pass and 0.0 in a second-order one."""
    if isinstance(node, _Num):
        return Dual(node.value, 0.0, zero)
    if isinstance(node, _Var):
        return env[node.name]
    if isinstance(node, _Neg):
        a = _eval(node.arg, env, zero)
        return Dual(-a.value, -a.deriv, None if zero is None else -a.hess)
    if isinstance(node, _Call):
        return _call(node, _eval(node.arg, env, zero))
    op = node.op
    a = _eval(node.left, env, zero)
    b = _eval(node.right, env, zero)
    if op == "+":
        h = None if zero is None else a.hess + b.hess
        return Dual(a.value + b.value, a.deriv + b.deriv, h)
    if op == "-":
        h = None if zero is None else a.hess - b.hess
        return Dual(a.value - b.value, a.deriv - b.deriv, h)
    if op == "*":
        h = None
        if zero is not None:
            h = a.hess * b.value + a.value * b.hess + _sym(a.deriv, b.deriv)
        return Dual(a.value * b.value, a.deriv * b.value + a.value * b.deriv, h)
    if op == "/":
        if np.any(b.value == 0.0):
            raise ExprDomainError("division by zero", _print(node))
        v = a.value / b.value
        d = (a.deriv - v * b.deriv) / b.value
        # from a = v b: d2v = (d2a - v d2b - (dv db + db dv)) / b
        h = None if zero is None else (a.hess - v * b.hess - _sym(d, b.deriv)) / b.value
        return Dual(v, d, h)
    return _pow(a, b, node)


@dataclass(frozen=True)
class Expr:
    """A parsed expression and the variable names it may reference.

    Immutable.  ``str`` prints it with the parentheses that ``_PREC``
    needs, and :meth:`_forward`, a pure function of its arguments, is the
    only way to evaluate it: on arrays of frames, a single point being a
    stack of one frame.
    """

    root: object
    variables: tuple[str, ...]

    def _forward(self, env: Mapping[str, object], seed=None, order: int = 1) -> Dual:
        """Value and directional derivatives at every frame in one pass.

        ``env`` maps every variable to an array of frames; ``seed`` maps
        every variable to its derivative seed (zero when omitted), which
        broadcasts against the frames, so a column of seeds carries
        several directions through the same pass.  Both parts of the
        result have the broadcast shape.  With ``order=2`` the seeds must
        lead with that axis of directions, and the result also carries the
        second derivatives along every pair of them, the axis twice.
        """
        zero = None if order == 1 else 0.0
        frames = {
            name: Dual(
                np.asarray(env[name], dtype=float),
                0.0 if seed is None else np.asarray(seed[name], dtype=float),
                zero,
            )
            for name in self.variables
        }
        # overflow of exp and of powers raises in _no_overflow; elsewhere it
        # gives inf, as float arithmetic does
        with np.errstate(over="ignore"):
            out = _eval(self.root, frames, zero)
        shape = np.broadcast_shapes(
            *(np.shape(x) for d in frames.values() for x in (d.value, d.deriv))
        )
        value, deriv = np.broadcast_to(out.value, shape), np.broadcast_to(out.deriv, shape)
        if zero is None:
            return Dual(value, deriv)
        return Dual(value, deriv, np.broadcast_to(out.hess, shape[:1] + shape))

    def __str__(self) -> str:
        return _print(self.root)


def parse(text: str, variables: Iterable[str] = ()) -> Expr:
    """Parse ``text`` against the declared variable names.

    Raises :class:`ExprSyntaxError`, with the position of the offending
    token, on text outside the grammar above or nested deeper than
    MAX_DEPTH levels; :class:`ExprError` if a declared name is one of
    FUNCTIONS; and TypeError if ``text`` is not a string.
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
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.pos)
    if _walk(root)[0] > MAX_DEPTH:  # a long chain of binary operators
        raise ExprSyntaxError(_TOO_DEEP, 0)
    return Expr(root, names)
