"""Scalar expressions over variables x1..xm and an optional parameter lam.

Expressions are immutable trees supporting exact symbolic differentiation,
pointwise evaluation with domain checking, and compilation to plain Python
functions that evaluate the columns of an (m, N) array at once with numpy.
``evaluate``, a tree walk over one point with Python floats, is the
reference that compiled code is tested against.  Decimal literals are
parsed to the nearest binary floating point value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    def __init__(self, message, subexpr):
        super().__init__(f"{message} in {to_str(subexpr)}")
        self.subexpr = subexpr


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 0-based; prints as x{index+1}


@dataclass(frozen=True)
class Param(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str  # sin cos exp log sqrt
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * /
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class RampProfile(Expr):
    """Even 2-periodic C^2 ramp: 0 on (-delta,delta), 1 for |t|>1-delta,
    quintic smoothstep in between.  ``order`` is the derivative order."""

    order: int
    delta: float
    arg: Expr


FUNCS = ("sin", "cos", "exp", "log", "sqrt")

ZERO = Const(0.0)
ONE = Const(1.0)


def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.value == v)


def add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return BinOp("-", a, b)


def mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def div(a, b):
    if _is_const(b, 0.0):
        raise ExprError("constant division by zero")
    if _is_const(a) and _is_const(b):
        return Const(a.value / b.value)
    if _is_const(a, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    return BinOp("/", a, b)


def neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def powi(base, exponent):
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if _is_const(base):
        return Const(base.value ** exponent)
    return Pow(base, exponent)


def call(func, arg):
    if func not in FUNCS:
        raise ExprError(f"unknown function {func!r}")
    if _is_const(arg):
        return Const(_apply_func(func, arg.value, Call(func, arg)))
    return Call(func, arg)


def _apply_func(func, v, node):
    if func == "log" and v <= 0.0:
        raise EvalDomainError(f"log of non-positive value {v}", node)
    if func == "sqrt" and v < 0.0:
        raise EvalDomainError(f"sqrt of negative value {v}", node)
    try:
        return getattr(math, func)(v)
    except (ValueError, OverflowError) as exc:
        raise EvalDomainError(str(exc), node) from exc


# ---------------------------------------------------------------------------
# parsing

_TOKEN_OPS = set("+-*/^()")


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            # optional exponent part
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                raise ParseError(f"bad number literal {lit!r}", i) from None
            tokens.append(("num", (lit, val), i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, m):
        self.tokens = tokens
        self.pos = 0
        self.m = m

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)
        return self.take()

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.parse_term()
                node = BinOp(val, node, rhs)
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.parse_factor()
                node = BinOp(val, node, rhs)
            else:
                return node

    def parse_factor(self):
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return Neg(self.parse_factor())
        node = self.parse_atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.take()
            node = Pow(node, self.parse_integer())
        return node

    def parse_integer(self):
        sign = 1
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.take()
            sign = -1
        kind, val, off = self.peek()
        if kind != "num":
            raise ParseError("expected integer exponent", off)
        lit, fval = val
        if "." in lit or "e" in lit or "E" in lit or fval != int(fval):
            raise ParseError(f"exponent must be an integer, got {lit!r}", off)
        self.take()
        return sign * int(fval)

    def parse_atom(self):
        kind, val, off = self.take()
        if kind == "num":
            return Const(val[1])
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if val == "lam":
                return Param()
            if val in FUNCS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(val, arg)
            if val.startswith("x") and val[1:].isdigit():
                idx = int(val[1:])
                if idx < 1:
                    raise ParseError(f"bad variable {val!r}", off)
                if idx > self.m:
                    raise ParseError(
                        f"variable {val!r} exceeds dimension {self.m}", off)
                return Var(idx - 1)
            raise ParseError(f"unknown identifier {val!r}", off)
        raise ParseError("expected number, variable or '('", off)


def parse(text, m):
    """Parse ``text`` into an Expr with variables x1..x{m} and lam."""
    parser = _Parser(_tokenize(text), m)
    node = parser.parse_expr()
    kind, _, off = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", off)
    return node


# ---------------------------------------------------------------------------
# printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _fmt_const(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_str(e):
    s, _ = _to_str(e)
    return s


def _paren(child_s, child_p, min_p):
    if child_p < min_p:
        return "(" + child_s + ")"
    return child_s


def _to_str(e):
    if isinstance(e, Const):
        if e.value < 0:
            return "-" + _fmt_const(-e.value), _PREC["neg"]
        return _fmt_const(e.value), _PREC["atom"]
    if isinstance(e, Var):
        return f"x{e.index + 1}", _PREC["atom"]
    if isinstance(e, Param):
        return "lam", _PREC["atom"]
    if isinstance(e, Call):
        s, _ = _to_str(e.arg)
        return f"{e.func}({s})", _PREC["atom"]
    if isinstance(e, Neg):
        s, p = _to_str(e.arg)
        return "-" + _paren(s, p, _PREC["pow"]), _PREC["neg"]
    if isinstance(e, Pow):
        s, p = _to_str(e.base)
        exp = str(e.exponent) if e.exponent >= 0 else f"(-{-e.exponent})"
        return _paren(s, p, _PREC["atom"]) + "^" + exp, _PREC["pow"]
    if isinstance(e, RampProfile):
        s, _ = _to_str(e.arg)
        return f"ramp{e.order}[{e.delta!r}]({s})", _PREC["atom"]
    ls, lp = _to_str(e.lhs)
    rs, rp = _to_str(e.rhs)
    p = _PREC[e.op]
    # left associative: right child needs strictly higher precedence
    left = _paren(ls, lp, p)
    right = _paren(rs, rp, p + 1)
    return f"{left} {e.op} {right}", p


# ---------------------------------------------------------------------------
# evaluation

def evaluate(e, point, lam=None):
    """Evaluate ``e`` at ``point`` (sequence of floats).  Domain violations
    raise EvalDomainError naming the offending subexpression.

    The package itself evaluates compiled code; this tree walk is the
    reference that ``compile_scalar`` is tested against.  Compiled code
    gives the same floats for arithmetic, integer powers and the ramp, and
    agrees within 1 ulp on sin, cos, exp, log and sqrt, which numpy may
    take from faithfully rounded SIMD routines."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(point[e.index])
    if isinstance(e, Param):
        if lam is None:
            raise ExprError("expression mentions lam but no value supplied")
        return float(lam)
    if isinstance(e, Neg):
        return -evaluate(e.arg, point, lam)
    if isinstance(e, Call):
        return _apply_func(e.func, evaluate(e.arg, point, lam), e)
    if isinstance(e, Pow):
        base = evaluate(e.base, point, lam)
        if e.exponent < 0 and base == 0.0:
            raise EvalDomainError("zero raised to negative power", e)
        try:
            return base ** e.exponent
        except OverflowError as exc:
            raise EvalDomainError(str(exc), e) from exc
    if isinstance(e, RampProfile):
        return ramp_eval(e.order, e.delta, evaluate(e.arg, point, lam))
    a = evaluate(e.lhs, point, lam)
    b = evaluate(e.rhs, point, lam)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if b == 0.0:
        raise EvalDomainError("division by zero", e)
    return a / b


# ---------------------------------------------------------------------------
# ramp profile numerics

def _smoothstep_deriv(order, s):
    # derivatives of 6 s^5 - 15 s^4 + 10 s^3
    if order == 0:
        return ((6 * s - 15) * s + 10) * s * s * s
    if order == 1:
        return ((30 * s - 60) * s + 30) * s * s
    if order == 2:
        return ((120 * s - 180) * s + 60) * s
    if order == 3:
        return (360 * s - 360) * s + 60
    if order == 4:
        return 720 * s - 360
    if order == 5:
        return 720.0
    return 0.0


def ramp_eval(order, delta, mu):
    """Value (order=0) or mu-derivative of the 2-periodic even ramp."""
    t = math.fmod(mu + 1.0, 2.0)
    if t < 0.0:
        t += 2.0
    t -= 1.0  # t in [-1, 1)
    u = abs(t)
    if u <= delta:
        return 0.0
    if u >= 1.0 - delta:
        return 1.0 if order == 0 else 0.0
    w = 1.0 - 2.0 * delta
    s = (u - delta) / w
    val = _smoothstep_deriv(order, s) / (w ** order)
    if order % 2 == 1 and t < 0.0:
        val = -val
    return val


def _ramp_array(order, delta, mu):
    """``ramp_eval`` over an array of mu, with the same operations."""
    t = np.fmod(np.asarray(mu, dtype=float) + 1.0, 2.0)
    t = np.where(t < 0.0, t + 2.0, t) - 1.0
    u = np.abs(t)
    w = 1.0 - 2.0 * delta
    val = _smoothstep_deriv(order, (u - delta) / w) / (w ** order)
    if order % 2 == 1:
        val = np.where(t < 0.0, -val, val)
    val = np.where(u >= 1.0 - delta, 1.0 if order == 0 else 0.0, val)
    return np.where(u <= delta, 0.0, val)


# ---------------------------------------------------------------------------
# differentiation

def derive(e, var):
    """Exact symbolic derivative of ``e`` with respect to ``var`` (a 0-based
    variable index, or the string "lam")."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if var == e.index else ZERO
    if isinstance(e, Param):
        return ONE if var == "lam" else ZERO
    if isinstance(e, Neg):
        return neg(derive(e.arg, var))
    if isinstance(e, Call):
        da = derive(e.arg, var)
        if _is_const(da, 0.0):
            return ZERO
        if e.func == "sin":
            outer = call("cos", e.arg)
        elif e.func == "cos":
            outer = neg(call("sin", e.arg))
        elif e.func == "exp":
            outer = e
        elif e.func == "log":
            outer = div(ONE, e.arg)
        else:  # sqrt
            outer = div(ONE, mul(Const(2.0), e))
        return mul(outer, da)
    if isinstance(e, Pow):
        db = derive(e.base, var)
        if _is_const(db, 0.0):
            return ZERO
        return mul(mul(Const(float(e.exponent)), powi(e.base, e.exponent - 1)), db)
    if isinstance(e, RampProfile):
        da = derive(e.arg, var)
        if _is_const(da, 0.0):
            return ZERO
        return mul(RampProfile(e.order + 1, e.delta, e.arg), da)
    dl = derive(e.lhs, var)
    dr = derive(e.rhs, var)
    if e.op == "+":
        return add(dl, dr)
    if e.op == "-":
        return sub(dl, dr)
    if e.op == "*":
        return add(mul(dl, e.rhs), mul(e.lhs, dr))
    # quotient rule
    num = sub(mul(dl, e.rhs), mul(e.lhs, dr))
    return div(num, powi(e.rhs, 2))


# ---------------------------------------------------------------------------
# structure utilities

def mentions_param(e):
    if isinstance(e, Param):
        return True
    if isinstance(e, (Const, Var)):
        return False
    if isinstance(e, (Neg, Call, RampProfile)):
        return mentions_param(e.arg)
    if isinstance(e, Pow):
        return mentions_param(e.base)
    return mentions_param(e.lhs) or mentions_param(e.rhs)


def max_var_index(e):
    if isinstance(e, Var):
        return e.index
    if isinstance(e, (Const, Param)):
        return -1
    if isinstance(e, (Neg, Call, RampProfile)):
        return max_var_index(e.arg)
    if isinstance(e, Pow):
        return max_var_index(e.base)
    return max(max_var_index(e.lhs), max_var_index(e.rhs))


def substitute_param(e, repl):
    """Replace every occurrence of lam by the expression ``repl``."""
    if isinstance(e, Param):
        return repl
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Neg):
        return neg(substitute_param(e.arg, repl))
    if isinstance(e, Call):
        return call(e.func, substitute_param(e.arg, repl))
    if isinstance(e, RampProfile):
        return RampProfile(e.order, e.delta, substitute_param(e.arg, repl))
    if isinstance(e, Pow):
        return powi(substitute_param(e.base, repl), e.exponent)
    op = {"+": add, "-": sub, "*": mul, "/": div}[e.op]
    return op(substitute_param(e.lhs, repl), substitute_param(e.rhs, repl))


# ---------------------------------------------------------------------------
# compilation

def _to_py(e):
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return f"x[{e.index}]"
    if isinstance(e, Param):
        return "lam"
    if isinstance(e, Neg):
        return f"(-{_to_py(e.arg)})"
    if isinstance(e, Call):
        return f"_{e.func}({_to_py(e.arg)})"
    if isinstance(e, Pow):
        return f"_pow({_to_py(e.base)}, {e.exponent})"
    if isinstance(e, RampProfile):
        return f"_ramp({e.order}, {e.delta!r}, {_to_py(e.arg)})"
    return f"({_to_py(e.lhs)} {e.op} {_to_py(e.rhs)})"


# np.float_power calls the C library's pow, as Python's float ** does, so
# integer powers agree bit for bit with ``evaluate``; the ndarray **
# operator may square by multiplication or use SIMD pow routines.
_ENV = {"_sin": np.sin, "_cos": np.cos, "_exp": np.exp, "_log": np.log,
        "_sqrt": np.sqrt, "_ramp": _ramp_array, "_pow": np.float_power}


@lru_cache(maxsize=4096)
def _compile_scalar_cached(e):
    src = f"lambda x, lam=None: {_to_py(e)}"
    return eval(src, dict(_ENV, __builtins__={}))  # noqa: S307 - generated


def compile_scalar(e):
    """Compile an Expr to ``f(x, lam=None)``, the value of ``e`` at each
    column of the (m, N) array ``x`` (a constant stays a scalar).  A domain
    violation gives a non-finite value, and a numpy warning unless the
    caller evaluates under ``np.errstate``.  ``evaluate`` is the reference
    (see there for how closely the two agree)."""
    return _compile_scalar_cached(e)


# ---------------------------------------------------------------------------
# vector fields

@dataclass(frozen=True)
class FieldDef:
    """A vector field on R^m, optionally depending on lam in [0, 1]."""

    dimension: int
    components: tuple  # of Expr, length == dimension

    @property
    def has_param(self):
        return any(mentions_param(c) for c in self.components)


def make_field(components, dimension=None):
    components = tuple(components)
    m = dimension if dimension is not None else len(components)
    if len(components) != m:
        raise ExprError(
            f"field has {len(components)} components, expected {m}")
    for c in components:
        if max_var_index(c) >= m:
            raise ExprError(
                f"component {to_str(c)} uses a variable beyond dimension {m}")
    return FieldDef(m, components)


def parse_field(texts, m):
    return make_field([parse(t, m) for t in texts], m)


def negative_gradient(f, m):
    """The field -grad f for a scalar Expr f on R^m."""
    return FieldDef(m, tuple(neg(derive(f, i)) for i in range(m)))


def gradient(f, m):
    return tuple(derive(f, i) for i in range(m))


def jacobian(field):
    """Matrix of Exprs d(field_i)/d(x_j)."""
    m = field.dimension
    return tuple(tuple(derive(c, j) for j in range(m)) for c in field.components)


def compile_field(field):
    """Compile to ``F(X, lam=None)``, the (m, N) array of the field at the
    columns of the (m, N) array X.  It evaluates under
    ``np.errstate(all="ignore")``: a domain error is a non-finite entry."""
    fns = tuple(compile_scalar(c) for c in field.components)

    def F(X, lam=None):
        out = np.empty((len(fns),) + np.shape(X)[1:])
        with np.errstate(all="ignore"):
            for i, fn in enumerate(fns):
                out[i] = fn(X, lam)
        return out

    return F


def hessian(f, m):
    return jacobian(FieldDef(m, gradient(f, m)))
