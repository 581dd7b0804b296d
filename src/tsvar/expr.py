"""Arithmetic expressions over named variables with forward-mode derivatives.

Grammar (whitespace insensitive; ``^`` binds tightest and associates to
the right, then unary minus, then ``*`` ``/``, then ``+`` ``-``):

    expression := term (('+' | '-') term)*
    term       := unary (('*' | '/') unary)*
    unary      := '-' unary | power
    power      := atom ('^' unary)?
    atom       := NUMBER | NAME | NAME '(' expression ')' | '(' expression ')'

NAME is either a declared variable or one of sin, cos, exp, log, sqrt.
Evaluation is forward mode over arrays: each variable is a :class:`Dual`
of an array of frames and a derivative seed, so one pass evaluates every
frame along one direction, or along several directions at once when the
seeds form a column.  Derivatives are exact to the rules of
differentiation.  A domain error at any frame, including overflow of
``exp`` and of powers, raises :class:`ExprDomainError` naming the
subexpression.
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
    "Dual",
    "Expr",
    "parse",
    "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


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
    """First-order dual number: value plus one directional derivative.

    Either part may be a float or a numpy array of frames; the two
    broadcast against each other.
    """

    value: float | np.ndarray
    deriv: float | np.ndarray


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


# -- tokenizer ----------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM, NAME, OP, LPAREN, RPAREN, EOF
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("LPAREN", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("RPAREN", ch, i))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("NUM", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(_Token("NAME", m.group(), i))
            i = m.end()
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.variables = variables
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {what}", tok.pos)
        return self.advance()

    def expression(self):
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = _BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = _BinOp(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return _Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            return _BinOp("^", base, self.unary())
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return _Num(float(tok.text))
        if tok.kind == "NAME":
            self.advance()
            name = tok.text
            if self.peek().kind == "LPAREN":
                if name not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {name!r}", tok.pos)
                self.advance()
                arg = self.expression()
                self.expect("RPAREN", "')'")
                return _Call(name, arg)
            if name in FUNCTIONS:
                raise ExprSyntaxError(
                    f"function {name!r} needs an argument list", tok.pos
                )
            if name not in self.variables:
                raise ExprSyntaxError(f"undeclared variable {name!r}", tok.pos)
            return _Var(name)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.expression()
            self.expect("RPAREN", "')'")
            return node
        raise ExprSyntaxError("expected a value", tok.pos)


# -- printing -----------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


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
# an error is actually raised.


def _no_overflow(result, arg, node):
    """``result``, unless a finite argument overflowed to an infinite one."""
    if not np.isfinite(result).all() and np.any(np.isinf(result) & np.isfinite(arg)):
        raise ExprDomainError("result overflows", _print(node))
    return result


def _int_pow(a: Dual, b: Dual, node) -> Dual:
    av, k = a.value, b.value
    if np.any((av == 0.0) & (k < 0)):
        raise ExprDomainError("zero raised to a negative power", _print(node))
    v = _no_overflow(np.power(av, k), av, node)
    # x^0 has derivative zero; there k - 1 is replaced by 0 so that a zero
    # base raises no division warning
    km1 = np.where(k == 0, 0.0, k - 1)
    return Dual(v, np.where(k == 0, 0.0, k * np.power(av, km1) * a.deriv))


def _real_pow(a: Dual, b: Dual, node) -> Dual:
    av, bv = a.value, b.value
    if np.any((av < 0.0) | ((av == 0.0) & (bv <= 0.0))):
        raise ExprDomainError("non-integer power of a non-positive base", _print(node))
    zero = av == 0.0
    # bv > 0 at a zero base; the derivative of x^b there is 0 for b > 1,
    # else unbounded
    if np.any(zero & (a.deriv != 0.0) & (bv <= 1.0)):
        raise ExprDomainError("non-differentiable power at zero base", _print(node))
    base = np.where(zero, 1.0, av)
    log_a = np.log(base)
    x = bv * log_a
    v = _no_overflow(np.exp(x), x, node)
    dv = v * (b.deriv * log_a + bv * a.deriv / base)
    return Dual(np.where(zero, 0.0, v), np.where(zero, 0.0, dv))


def _pow(a: Dual, b: Dual, node) -> Dual:
    """Power, decided frame by frame and direction by direction.

    Where the exponent is an integer with zero derivative the power is
    taken directly, which keeps negative bases meaningful (even powers of
    negative numbers); everywhere else it goes through exp(b log a).
    """
    bv = b.value
    integral = (b.deriv == 0.0) & np.isfinite(bv) & (np.trunc(bv) == bv)
    if np.all(integral):
        return _int_pow(a, b, node)
    if not np.any(integral):
        return _real_pow(a, b, node)
    mask, *parts = np.broadcast_arrays(integral, a.value, a.deriv, bv, b.deriv)
    value = np.empty(mask.shape)
    deriv = np.empty(mask.shape)
    for sel, path in ((mask, _int_pow), (~mask, _real_pow)):
        av, ad, sv, sd = (x[sel] for x in parts)
        out = path(Dual(av, ad), Dual(sv, sd), node)
        value[sel] = out.value
        deriv[sel] = out.deriv
    return Dual(value, deriv)


def _call(node, x: Dual) -> Dual:
    fn, xv = node.fn, x.value
    if fn in ("sin", "cos") and np.any(np.isinf(xv)):
        raise ExprDomainError(f"{fn} of an infinite value", _print(node))
    if fn == "sin":
        v, d = np.sin(xv), np.cos(xv)
    elif fn == "cos":
        v, d = np.cos(xv), -np.sin(xv)
    elif fn == "exp":
        v = d = _no_overflow(np.exp(xv), xv, node)
    elif fn == "log":
        if np.any(xv <= 0.0):
            raise ExprDomainError("log of a non-positive value", _print(node))
        v, d = np.log(xv), 1.0 / xv
    elif fn == "sqrt":
        if np.any(xv < 0.0):
            raise ExprDomainError("sqrt of a negative value", _print(node))
        zero = xv == 0.0
        if np.any(zero & (x.deriv != 0.0)):
            raise ExprDomainError("sqrt not differentiable at zero", _print(node))
        v = np.sqrt(xv)
        d = 0.5 / np.where(zero, np.inf, v)
    else:  # pragma: no cover - parser only emits known functions
        raise ExprError(f"unknown function {fn!r}")
    return Dual(v, d * x.deriv)


def _eval(node, env: Mapping[str, Dual]) -> Dual:
    if isinstance(node, _Num):
        return Dual(node.value, 0.0)
    if isinstance(node, _Var):
        return env[node.name]
    if isinstance(node, _Neg):
        a = _eval(node.arg, env)
        return Dual(-a.value, -a.deriv)
    if isinstance(node, _Call):
        return _call(node, _eval(node.arg, env))
    op = node.op
    a = _eval(node.left, env)
    b = _eval(node.right, env)
    if op == "+":
        return Dual(a.value + b.value, a.deriv + b.deriv)
    if op == "-":
        return Dual(a.value - b.value, a.deriv - b.deriv)
    if op == "*":
        return Dual(a.value * b.value, a.deriv * b.value + a.value * b.deriv)
    if op == "/":
        if np.any(b.value == 0.0):
            raise ExprDomainError("division by zero", _print(node))
        v = a.value / b.value
        return Dual(v, (a.deriv - v * b.deriv) / b.value)
    return _pow(a, b, node)


@dataclass(frozen=True)
class Expr:
    """A parsed expression and the variable names it may reference.

    Immutable; evaluation is a pure function of the environment.
    """

    root: object
    variables: tuple[str, ...]

    def _forward(self, env: Mapping[str, object], seed=None) -> Dual:
        """Value and directional derivative at every frame in one pass.

        ``env`` maps every variable to an array of frames; ``seed`` maps
        every variable to its derivative seed (zero when omitted), which
        broadcasts against the frames, so a column of seeds carries
        several directions through the same pass.  Both parts of the
        result have the broadcast shape.
        """
        frames = {
            name: Dual(
                np.asarray(env[name], dtype=float),
                0.0 if seed is None else np.asarray(seed[name], dtype=float),
            )
            for name in self.variables
        }
        # overflow of exp and of powers raises in _no_overflow; elsewhere it
        # gives inf, as float arithmetic does
        with np.errstate(over="ignore"):
            out = _eval(self.root, frames)
        shape = np.broadcast_shapes(
            *(np.shape(x) for d in frames.values() for x in (d.value, d.deriv))
        )
        return Dual(
            np.broadcast_to(out.value, shape), np.broadcast_to(out.deriv, shape)
        )

    def _single(self, mapping: Mapping[str, float], what: str = "environment"):
        """One frame: each variable as a length-1 array."""
        missing = [v for v in self.variables if v not in mapping]
        if missing:
            raise ExprError(f"{what} is missing variables {missing}")
        return {name: np.array([float(mapping[name])]) for name in self.variables}

    def evaluate(self, env: Mapping[str, float]) -> float:
        return self._forward(self._single(env)).value.item()

    def directional(
        self, env: Mapping[str, float], seed: Mapping[str, float]
    ) -> tuple[float, float]:
        """Value and directional derivative along the given seed vector."""
        out = self._forward(self._single(env), self._single(seed, "seed"))
        return out.value.item(), out.deriv.item()

    def partial(self, var: str, env: Mapping[str, float]) -> float:
        """Partial derivative with respect to one declared variable."""
        if var not in self.variables:
            raise ExprError(f"{var!r} is not a declared variable")
        seed = {name: (1.0 if name == var else 0.0) for name in self.variables}
        return self.directional(env, seed)[1]

    def __str__(self) -> str:
        return _print(self.root)


def parse(text: str, variables: Iterable[str] = ()) -> Expr:
    """Parse ``text`` against the declared variable names."""
    names = tuple(variables)
    for name in names:
        if name in FUNCTIONS:
            raise ExprError(f"variable name {name!r} collides with a function")
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text, names)
    root = parser.expression()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.pos)
    return Expr(root, names)
