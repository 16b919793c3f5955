"""Scalar expressions over variables x1..xm and an optional parameter lam.

Expressions are immutable trees supporting exact symbolic differentiation,
pointwise evaluation with domain checking, and compilation to plain Python
functions that evaluate the columns of an (m, N) array at once with numpy.
Compiled code takes no lam: ``bind`` and ``bind_field`` fix it first, by
substitution.  A ``FieldDef`` is the one compiled form: a scalar is a
one-row field, and ``gradient``, ``jacobian`` and ``hessian`` return
fields.  ``evaluate``, a tree walk over one point with Python floats, is the
reference that compiled code is tested against.  Decimal literals are
parsed to the nearest binary floating point value, and a subtree of
constants to its value (``_fold``).
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


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: float

    # 0.0 and -0.0 are equal floats but two constants, which can give two
    # results (0*x1 and -0*x1 at x1 = 1), so that the compile caches, keyed
    # by Expr, never serve the code of one for the other
    def _key(self):
        return self.value, math.copysign(1.0, self.value)

    def __eq__(self, other):
        return isinstance(other, Const) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


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
        return Const(evaluate(Pow(base, exponent), ()))
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

# The deepest expression ``parse`` takes: its text nests at most this many
# factors (a unary minus, a parenthesis or a function call opens one), and
# its tree has at most this many nodes from the root to a leaf, so that no
# recursion over it or its derivatives reaches Python's limit.  Sums of
# polynomial terms at this depth, as field and Lyapunov function, make
# ``mcfhom hi`` compile nothing deeper than 186 levels (``_CODE_DEPTH``).
MAX_DEPTH = 180
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"

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


def _fold(e):
    """``e``, or its value when every operand of its root is a constant,
    which raises EvalDomainError where it has none.  A divisor that is a
    constant zero is an error wherever it stands, as in ``div``.  Nothing
    else is simplified: 0*log(x1) keeps its log, which has no value at
    x1 <= 0."""
    if isinstance(e, BinOp) and e.op == "/" and _is_const(e.rhs, 0.0):
        raise ExprError("constant division by zero")
    if all(map(_is_const, _children(e))):
        return Const(evaluate(e, ()))
    return e


class _Parser:
    def __init__(self, tokens, m):
        self.tokens = tokens
        self.pos = 0
        self.m = m
        self.level = 0  # parse_factor calls open one inside another

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
                node = _fold(BinOp(val, node, rhs))
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.parse_factor()
                node = _fold(BinOp(val, node, rhs))
            else:
                return node

    def parse_factor(self):
        # every recursion of the parser passes here: a unary minus, a
        # parenthesis and a function call each open one more level
        kind, val, off = self.peek()
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, off)
        if kind == "op" and val == "-":
            self.take()
            node = _fold(Neg(self.parse_factor()))
        else:
            node = self.parse_atom()
            if self.peek()[:2] == ("op", "^"):
                self.take()
                node = _fold(Pow(node, self.parse_integer()))
        self.level -= 1
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
                return _fold(Call(val, arg))
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
    """Parse ``text`` into an Expr with variables x1..x{m} and lam, if it
    nests at most ``MAX_DEPTH`` levels."""
    parser = _Parser(_tokenize(text), m)
    node = parser.parse_expr()
    kind, _, off = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", off)
    if depth(node) > MAX_DEPTH:
        raise ParseError(_TOO_DEEP, 0)
    return node


# ---------------------------------------------------------------------------
# printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _fmt_const(v):
    if abs(v) < 1e16 and v == int(v):
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
        if math.copysign(1.0, e.value) < 0:  # -0.0 prints as -0
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
        # --x1 reads as -(-x1): a chain of signs nests as deep as its tree
        if not isinstance(e.arg, Neg):
            s = _paren(s, p, _PREC["pow"])
        return "-" + s, _PREC["neg"]
    if isinstance(e, Pow):
        s, p = _to_str(e.base)
        exp = str(e.exponent) if e.exponent >= 0 else f"(-{-e.exponent})"
        return _paren(s, p, _PREC["atom"]) + "^" + exp, _PREC["pow"]
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
    reference that each row of ``compile_field`` is tested against.  A row
    gives the same floats for arithmetic and integer powers, and agrees
    within 1 ulp on sin, cos, exp, log and sqrt, which numpy may take from
    faithfully rounded SIMD routines."""
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
# differentiation

def derive(e, var):
    """Exact symbolic derivative of ``e`` with respect to the variable of
    0-based index ``var``; lam is a constant of it."""
    if isinstance(e, (Const, Param)):
        return ZERO
    if isinstance(e, Var):
        return ONE if var == e.index else ZERO
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

def _children(e):
    if isinstance(e, BinOp):
        return e.lhs, e.rhs
    if isinstance(e, (Neg, Call)):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    return ()


def depth(e):
    """The number of nodes on the longest path from ``e`` to a leaf, level
    by level with no recursion, each shared subtree once per level."""
    n, level = 0, {id(e): e}
    while level:
        n, level = n + 1, {id(k): k for x in level.values()
                           for k in _children(x)}
    return n


def mentions_param(e):
    return isinstance(e, Param) or any(map(mentions_param, _children(e)))


def substitute_param(e, repl):
    """Replace every occurrence of lam by the expression ``repl``; a subtree
    without lam is returned as it is, not simplified."""
    if not mentions_param(e):
        return e
    if isinstance(e, Param):
        return repl
    if isinstance(e, Neg):
        return neg(substitute_param(e.arg, repl))
    if isinstance(e, Call):
        return call(e.func, substitute_param(e.arg, repl))
    if isinstance(e, Pow):
        return powi(substitute_param(e.base, repl), e.exponent)
    op = {"+": add, "-": sub, "*": mul, "/": div}[e.op]
    return op(substitute_param(e.lhs, repl), substitute_param(e.rhs, repl))


# ---------------------------------------------------------------------------
# compilation

def _to_py(e, consts):
    """Python source of ``e`` over the columns of ``x``.  Each constant,
    and each Pow exponent, is a name that this call binds in the dict
    ``consts`` to a 0-d float64 array, which numpy does not convert again
    on every call."""
    if isinstance(e, Const):
        return _bind(consts, np.array(e.value))
    if isinstance(e, Var):
        return f"x[{e.index}]"
    if isinstance(e, Param):
        raise ExprError("compiled code takes no lam: bind lam first")
    if isinstance(e, Neg):
        return f"(-{_to_py(e.arg, consts)})"
    if isinstance(e, Call):
        return f"_{e.func}({_to_py(e.arg, consts)})"
    if isinstance(e, Pow):
        exponent = _bind(consts, np.array(float(e.exponent)))
        return f"_pow({_to_py(e.base, consts)}, {exponent})"
    return f"({_to_py(e.lhs, consts)} {e.op} {_to_py(e.rhs, consts)})"


def _bind(consts, value):
    name = f"_c{len(consts)}"
    consts[name] = value
    return name


def _generate(src, consts):
    """The function that the source ``src`` defines as F, with the names
    of ``consts`` bound."""
    env = dict(_ENV, **consts, __builtins__={})
    exec(src, env)  # noqa: S102 - generated
    return env["F"]


# np.float_power calls the C library's pow, as Python's float ** does, so
# integer powers agree bit for bit with ``evaluate``; the ndarray **
# operator may square by multiplication or use SIMD pow routines.  The
# constants are not in the source but bound by ``_to_py``: a 0-d array and
# a literal run the same numpy loop, to the same bits.
_ENV = {"_sin": np.sin, "_cos": np.cos, "_exp": np.exp, "_log": np.log,
        "_sqrt": np.sqrt, "_pow": np.float_power, "_empty": np.empty}


# ---------------------------------------------------------------------------
# fields

@dataclass(frozen=True)
class FieldDef:
    """Expressions on R^m, optionally in lam in [0, 1]: the m components
    of a vector field, the one of a scalar, or the m * m entries of a
    Jacobian in row-major order."""

    dimension: int
    components: tuple  # of Expr

    @property
    def has_param(self):
        return any(mentions_param(c) for c in self.components)


def parse_field(texts, m):
    components = tuple(parse(t, m) for t in texts)
    if len(components) != m:
        raise ExprError(
            f"field has {len(components)} components, expected {m}")
    return FieldDef(m, components)


def bind(e, lam):
    """``e`` at the value ``lam``, by ``substitute_param``: the one place
    lam is fixed.  A constant domain error raises ExprError naming
    ``lam``."""
    try:
        return substitute_param(e, Const(float(lam)))
    except ExprError as exc:
        raise ExprError(f"at lam = {lam}: {exc}") from exc


def bind_field(field, lam):
    """The field of the family ``field`` at the value ``lam``, by ``bind``."""
    return FieldDef(field.dimension,
                    tuple(bind(e, lam) for e in field.components))


def negative_gradient(f, m):
    """The field -grad f for a scalar Expr f on R^m."""
    return FieldDef(m, tuple(neg(derive(f, i)) for i in range(m)))


def gradient(f, m):
    """The field grad f for a scalar Expr f on R^m."""
    return FieldDef(m, tuple(derive(f, i) for i in range(m)))


def jacobian(field):
    """The field of the entries d(field_i)/d(x_j), row by row: entry
    (i, j) is component i * m + j."""
    m = field.dimension
    return FieldDef(m, tuple(derive(c, j) for c in field.components
                             for j in range(m)))


def hessian(f, m):
    """The field of the m * m second derivatives of f, row by row."""
    return jacobian(gradient(f, m))


@lru_cache(maxsize=4096)
def _compile_field_cached(components):
    consts = {}
    rows = "".join(f"    out[{i}] = {_to_py(e, consts)}\n"
                   for i, e in enumerate(components))
    return _generate("def F(x):\n"
                     f"    out = _empty(({len(components)},) + x.shape[1:])\n"
                     f"{rows}    return out\n", consts)


# CPython refuses source nested deeper than 200 brackets, and ``_to_py``
# writes one per node from the root to a leaf
_CODE_DEPTH = 200


def compile_field(field):
    """Compile to ``F(X)``, the (k, N) array of the k components of
    ``field`` at the columns of the (m, N) array X: one generated function
    that writes each component to its row.  A field that mentions lam
    raises ExprError: ``bind_field`` fixes lam first.  It is the one
    compiled form: a scalar f compiles as the one-row field
    ``FieldDef(m, (f,))``, and derivatives are fields.  The constants and
    integer exponents are bound once, as 0-d float64 arrays, and give the
    bits that they would as literals.  The contract of all compiled code:
    a domain violation gives a non-finite entry, and a numpy warning unless
    the caller evaluates under ``np.errstate``.  ``evaluate`` is the
    reference (see there for how closely the two agree).  A component
    deeper than ``_CODE_DEPTH`` raises ExprError before it is hashed."""
    deepest = max(map(depth, field.components), default=0)
    if deepest > _CODE_DEPTH:
        raise ExprError(f"an expression to compile nests {deepest} levels, "
                        f"more than the {_CODE_DEPTH} of compiled code")
    return _compile_field_cached(field.components)
