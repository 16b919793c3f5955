"""Expression parsing, evaluation, and symbolic differentiation."""
import glob
import itertools
import json
import math
import os

import numpy as np
import pytest

from mcfhom import expr

ROOT = os.path.dirname(os.path.dirname(__file__))


def _row(e, X, lam=None):
    """The scalar e at the columns of X, with lam bound at ``lam`` when it
    is given: the row of its one-row field."""
    if lam is not None:
        e = expr.bind(e, lam)
    return expr.compile_field(expr.FieldDef(len(X), (e,)))(X)[0]


# ---------------------------------------------------------------------------
# parsing

def test_parse_polynomial_tree():
    e = expr.parse("x1^2 - 1", 1)
    assert e == expr.BinOp("-", expr.Pow(expr.Var(0), 2), expr.Const(1.0))


def test_parse_two_variables():
    e = expr.parse("x1*x2 + sin(x1)", 2)
    assert expr.evaluate(e, (2.0, 3.0)) == pytest.approx(6.0 + math.sin(2.0))


def test_parse_variable_exceeds_dimension():
    with pytest.raises(expr.ParseError, match="dimension"):
        expr.parse("x3", 2)


def test_parse_noninteger_exponent_rejected():
    with pytest.raises(expr.ParseError):
        expr.parse("x1^2.5", 1)


def test_parse_unknown_identifier():
    with pytest.raises(expr.ParseError):
        expr.parse("x1 + foo(x1)", 1)


def test_parse_syntax_error_reports_offset():
    with pytest.raises(expr.ParseError) as exc:
        expr.parse("x1 + ", 1)
    assert exc.value.offset == 5


def test_parse_precedence():
    # ^ binds tighter than unary -, * tighter than +
    assert expr.evaluate(expr.parse("-x1^2", 1), (3.0,)) == -9.0
    assert expr.evaluate(expr.parse("2 + 3*4", 1), (0.0,)) == 14.0
    assert expr.evaluate(expr.parse("2 - 3 - 4", 1), (0.0,)) == -5.0
    assert expr.evaluate(expr.parse("12/3/2", 1), (0.0,)) == 2.0


def test_parse_print_round_trip():
    texts = [
        "x1^2 - 1",
        "x1*x2 + sin(x1)",
        "-(x1^2 - x2^2)/2",
        "x1^6 - 2*x1^4 + x1^2 + 0.5*x2^2",
        "exp(x1) - log(x2)/sqrt(x2)",
        "cos(lam*0.5)*x1 + sin(lam)*x2",
    ]
    for text in texts:
        e = expr.parse(text, 2)
        printed = expr.to_str(e)
        assert expr.parse(printed, 2) == e


def test_lam_parses_as_parameter():
    e = expr.parse("x1 + lam", 1)
    assert expr.mentions_param(e)
    assert expr.evaluate(e, (1.0,), lam=0.5) == 1.5


@pytest.mark.parametrize("text", ["1/0", "x1^2 + 1/(1-1)", "x1/0",
                                  "x1/-(2 - 2)", "lam/(0*3)"])
def test_a_constant_zero_divisor_is_an_error_where_it_is_parsed(text):
    with pytest.raises(expr.ExprError) as err:
        expr.parse(text, 1)
    assert str(err.value) == "constant division by zero"


def test_parse_folds_constant_subtrees_only():
    assert expr.parse("2*3*x1", 1) == \
        expr.BinOp("*", expr.Const(6.0), expr.Var(0))
    assert expr.parse("-(1 - 3)^2/4 + sqrt(4)", 1) == expr.Const(1.0)
    assert expr.parse("x1*2*3", 1) == expr.BinOp(
        "*", expr.BinOp("*", expr.Var(0), expr.Const(2.0)), expr.Const(3.0))
    with pytest.raises(expr.EvalDomainError, match=r"in log\(-1\)"):
        expr.parse("x1*log(1 - 2)", 1)
    # no algebraic simplification: 0*log(x1) has no value where log has none
    e = expr.parse("0*log(x1)", 1)
    assert e == expr.BinOp("*", expr.Const(0.0), expr.Call("log", expr.Var(0)))
    with np.errstate(invalid="ignore"):
        assert np.isnan(_row(e, np.array([[-1.0]]))[0])
    assert expr.parse("x1 - x1", 1) == \
        expr.BinOp("-", expr.Var(0), expr.Var(0))


# ---------------------------------------------------------------------------
# evaluation

def test_eval_simple():
    assert expr.evaluate(expr.parse("x1^2 - 1", 1), (2.0,)) == 3.0


def test_eval_degenerate_field_at_zero():
    e = expr.parse("x1^2/(1 + x1^2)", 1)
    assert expr.evaluate(e, (0.0,)) == 0.0


def test_eval_log_domain_error():
    with pytest.raises(expr.EvalDomainError):
        expr.evaluate(expr.parse("log(x1)", 1), (0.0,))


def test_eval_division_by_zero():
    with pytest.raises(expr.EvalDomainError):
        expr.evaluate(expr.parse("1/x1", 1), (0.0,))


def test_eval_sqrt_domain_error():
    with pytest.raises(expr.EvalDomainError):
        expr.evaluate(expr.parse("sqrt(x1)", 1), (-1.0,))


def test_eval_is_pure():
    e = expr.parse("sin(x1)*exp(x2) - x1^3", 2)
    vals = {expr.evaluate(e, (0.3, -1.2)) for _ in range(5)}
    assert len(vals) == 1


def test_compiled_matches_evaluate():
    rng = np.random.default_rng(3)
    e = expr.parse("sin(x1)*x2 + exp(x2/4) - x1^3 + lam*x1", 2)
    for _ in range(50):
        p = rng.uniform(-2, 2, size=(2, 1))
        lv = rng.uniform(0, 1)
        assert _row(e, p, lv)[0] == pytest.approx(
            expr.evaluate(e, p[:, 0], lam=lv), rel=1e-14, abs=1e-14)


# ---------------------------------------------------------------------------
# differentiation

def test_derive_square():
    d = expr.derive(expr.parse("x1^2", 1), 0)
    assert expr.evaluate(d, (3.0,)) == 6.0


def test_derive_double_well():
    d = expr.derive(expr.parse("(x1^2 - 1)^2 + x2^2", 2), 0)
    for x in (-1.5, -0.3, 0.0, 0.7, 2.0):
        assert expr.evaluate(d, (x, 0.5)) == pytest.approx(4 * x**3 - 4 * x)


def _central_diff(e, p, i, lam=None, h=1e-5):
    up = list(p)
    dn = list(p)
    up[i] += h
    dn[i] -= h
    return (expr.evaluate(e, up, lam=lam)
            - expr.evaluate(e, dn, lam=lam)) / (2 * h)


def test_derive_matches_central_differences():
    rng = np.random.default_rng(11)
    exprs = [
        ("(x1^2 - 1)^2 + x2^2", 2, False),
        ("sin(x1)*cos(x2) + exp(x1/3)", 2, False),
        ("x1^6 - 2*x1^4 + x1^2 + 0.5*x2^2", 2, False),
        ("x1*x2/(1 + x1^2 + x2^2)", 2, False),
        ("lam*x1^3 - (1 - lam)*x2", 2, True),
    ]
    for text, m, has_lam in exprs:
        e = expr.parse(text, m)
        ds = [expr.derive(e, i) for i in range(m)]
        for _ in range(200):
            p = rng.uniform(-2, 2, size=m)
            lv = rng.uniform(0, 1) if has_lam else None
            for i in range(m):
                exact = expr.evaluate(ds[i], p, lam=lv)
                approx = _central_diff(e, p, i, lam=lv)
                assert abs(exact - approx) <= 1e-6 * (1 + abs(exact))


def test_hessian_symmetry_by_value():
    e = expr.parse("x1^3*x2 + sin(x1*x2)", 2)
    H = expr.hessian(e, 2).components  # row-major
    p = (0.7, -0.4)
    assert expr.evaluate(H[1], p) == pytest.approx(expr.evaluate(H[2], p))


# ---------------------------------------------------------------------------
# the seven node kinds through every visitor

def test_expr_has_seven_node_kinds():
    assert sorted(k.__name__ for k in expr.Expr.__subclasses__()) == \
        ["BinOp", "Call", "Const", "Neg", "Param", "Pow", "Var"]


_KINDS = {
    "Const": (expr.Const(2.5), False),
    "Var": (expr.Var(1), False),
    "Param": (expr.Param(), True),
    "Neg": (expr.Neg(expr.parse("x1*lam + x2", 2)), True),
    "Call": (expr.Call("sin", expr.parse("x1*lam + x2^2", 2)), True),
    "BinOp": (expr.parse("x1/(1 + lam^2) - x2", 2), True),
    "Pow": (expr.Pow(expr.parse("x1 - lam", 2), 3), True),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_each_node_kind_through_every_visitor(kind):
    e, param = _KINDS[kind]
    assert type(e).__name__ == kind
    assert expr.parse(expr.to_str(e), 2) == e
    assert expr.mentions_param(e) == param
    lam = 0.7
    X = np.random.default_rng(11).uniform(-2, 2, size=(2, 50))
    want = np.array([expr.evaluate(e, X[:, j], lam)
                     for j in range(X.shape[1])])
    np.testing.assert_array_max_ulp(_row(e, X, lam), want, maxulp=1)
    bound = expr.substitute_param(e, expr.Const(lam))
    assert not expr.mentions_param(bound)
    assert [expr.evaluate(bound, X[:, j]) for j in range(X.shape[1])] == \
        pytest.approx(want, rel=1e-15, abs=1e-15)
    # derivatives in x1 and x2 against central differences
    h = 1e-6
    for j in range(5):
        p = X[:, j]
        for var in (0, 1):
            d = expr.evaluate(expr.derive(e, var), p, lam)
            step = np.eye(2)[var] * h
            fd = (expr.evaluate(e, p + step, lam)
                  - expr.evaluate(e, p - step, lam)) / (2 * h)
            assert d == pytest.approx(fd, rel=1e-6, abs=1e-6), var


def test_ramp_is_not_a_function():
    with pytest.raises(expr.ParseError, match="unknown identifier 'ramp'"):
        expr.parse("ramp(x1)", 1)


# ---------------------------------------------------------------------------
# compiled columns against the Python-float reference ``evaluate``, which
# calls the math module (the "math" of the test names)

@pytest.mark.parametrize("text,exact", [
    ("x1*x2 - 3*x1/(1 + x2^2) + (-x2)", True),
    ("sin(x1)", False), ("exp(x1)", False), ("cos(x2)", False)])
def test_numpy_backend_matches_math_backend(text, exact):
    # arithmetic is correctly rounded in both; exp and sin may come from
    # SIMD routines that are faithfully rather than correctly rounded
    e = expr.parse(text, 2)
    X = np.random.default_rng(3).uniform(-4, 4, size=(2, 500))
    got = _row(e, X)
    want = np.array([expr.evaluate(e, X[:, j]) for j in range(X.shape[1])])
    if exact:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_array_max_ulp(got, want, maxulp=1)


def test_numpy_backend_integer_powers_match_math_backend():
    # the ndarray ** operator squares by multiplication and may take other
    # powers from SIMD routines; both differ from Python's float ** in the
    # last bit for some bases
    X = np.random.default_rng(5).uniform(-4, 4, size=(1, 20000))
    for n in (2, 3, 4, 5, -1, -2):
        e = expr.powi(expr.parse("x1", 1), n)
        got = _row(e, X)
        want = np.array([expr.evaluate(e, X[:, j])
                         for j in range(X.shape[1])])
        assert np.array_equal(got, want), n


@pytest.mark.parametrize("func,lo,hi,bad", [
    ("sin", -10, 10, math.inf), ("cos", -10, 10, math.inf),
    ("exp", -30, 30, 1000.0), ("log", 1e-3, 50, 0.0),
    ("sqrt", 0, 50, -1.0)])
def test_numpy_function_matches_math_function(func, lo, hi, bad):
    # every name of FUNCS, on its domain within 1 ulp; where the math
    # module raises, the compiled column has no finite value
    assert func in expr.FUNCS
    e = expr.Call(func, expr.Var(0))
    X = np.random.default_rng(7).uniform(lo, hi, size=(1, 400))
    got = _row(e, X)
    want = np.array([expr.evaluate(e, X[:, j]) for j in range(X.shape[1])])
    np.testing.assert_array_max_ulp(got, want, maxulp=1)
    with pytest.raises(expr.EvalDomainError, match=rf"in {func}\(x1\)"):
        expr.evaluate(e, (bad,))
    with np.errstate(all="ignore"):
        assert not np.isfinite(_row(e, np.array([[bad]]))[0])


def test_numpy_field_broadcasts_constants_and_flags_domain_errors():
    fld = expr.parse_field(["2", "log(x1)", "1/x2"], 3)
    F = expr.compile_field(fld)
    with np.errstate(all="ignore"):
        V = F(np.array([[1.0, -1.0, 2.0], [4.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    assert V.shape == (3, 3)
    assert list(V[0]) == [2.0, 2.0, 2.0]
    assert V[1, 0] == 0.0 and np.isnan(V[1, 1])
    assert V[2, 0] == 0.25 and np.isinf(V[2, 2])
    # each row is the one-row field of its component, bit for bit: a
    # constant broadcast to its row, lam bound where a component uses it,
    # and a domain error a non-finite entry
    fam = expr.parse_field(["-0.5", "sin(x1)*lam - x2^3", "log(x1 - lam)"], 3)
    X = np.random.default_rng(5).uniform(-2, 2, size=(3, 40))
    with np.errstate(all="ignore"):
        V = expr.compile_field(expr.bind_field(fam, 0.3))(X)
    assert V.shape == (3, 40) and np.isnan(V[2]).any()
    for row, e in zip(V, fam.components):
        with np.errstate(all="ignore"):
            want = _row(e, X, 0.3)
        assert np.array_equal(row.view(np.uint64), want.view(np.uint64))


def test_compiled_code_warns_at_a_domain_error_outside_errstate():
    # a domain error is a non-finite entry and a RuntimeWarning, which the
    # test configuration turns into an error, unless the caller evaluates
    # under np.errstate; inside it the field and the one-row field of each
    # component give the same non-finite entries
    fld = expr.FieldDef(2, tuple(expr.parse(t, 2) for t in
                                 ("log(x1)", "1/x2", "sqrt(x1) + x2")))
    X = np.array([[1.0, -1.0, 0.0, 4.0], [2.0, 0.0, 0.0, -1.0]])
    with pytest.raises(RuntimeWarning):
        expr.compile_field(fld)(X)
    for e in fld.components:
        with pytest.raises(RuntimeWarning):
            _row(e, X)
    with np.errstate(all="ignore"):
        V = expr.compile_field(fld)(X)
        rows = [_row(e, X) for e in fld.components]
    assert np.array_equal(~np.isfinite(V), [[False, True, True, False],
                                            [False, True, True, False],
                                            [False, True, False, False]])
    for row, want in zip(V, rows):
        assert np.array_equal(row, want, equal_nan=True)


def _literal_source(e):
    """The source of e with each constant and each Pow exponent written as
    a Python literal, the reference for the constants the code generator
    binds as 0-d arrays."""
    if isinstance(e, expr.Const):
        return repr(e.value)
    if isinstance(e, expr.Var):
        return f"x[{e.index}]"
    if isinstance(e, expr.Neg):
        return f"(-{_literal_source(e.arg)})"
    if isinstance(e, expr.Call):
        return f"_{e.func}({_literal_source(e.arg)})"
    if isinstance(e, expr.Pow):
        return f"_pow({_literal_source(e.base)}, {e.exponent})"
    return f"({_literal_source(e.lhs)} {e.op} {_literal_source(e.rhs)})"


def _literal_scalar(e):
    env = {"_sin": np.sin, "_cos": np.cos, "_exp": np.exp, "_log": np.log,
           "_sqrt": np.sqrt, "_pow": np.float_power, "inf": math.inf,
           "nan": math.nan, "__builtins__": {}}
    return eval(f"lambda x: {_literal_source(e)}", env)  # noqa: S307


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


_X1 = expr.Var(0)
_EDGE_CONSTANTS = (math.inf, -math.inf, math.nan, -0.0, 0.0, 1e308, -1e308,
                   5e-324, -5e-324, 2.5)
_EDGE_EXPONENTS = (-1, -2, -3, -1075, 2, 3, 1000, 2 ** 53 + 1, 10 ** 20,
                   -10 ** 20 + 1)


def _edge_components():
    for c in map(expr.Const, _EDGE_CONSTANTS):
        for op in "+-*/":
            yield expr.BinOp(op, c, _X1)
            yield expr.BinOp(op, _X1, c)
        yield expr.Call("sin", expr.BinOp("*", c, _X1))
    for n in _EDGE_EXPONENTS:
        yield expr.Pow(_X1, n)
        yield expr.Pow(expr.BinOp("-", _X1, expr.Const(0.5)), n)
        yield expr.Neg(expr.Pow(expr.BinOp("*", expr.Const(-0.0), _X1), n))


def test_bound_constants_give_the_bits_of_literal_constants():
    # constants at the edges of float64 and integer exponents that are
    # negative or beyond 2^53, as 0-d arrays: the bits that the same source
    # gives with the constants written as literals, the sign of zero and
    # every NaN included, and the bits of evaluate wherever it has a value
    # (a NaN of evaluate only as a NaN, whose sign the C library may set)
    X = np.array([[0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -2.5, 1e-300, 1e300,
                   5e-324, math.inf, -math.inf, math.nan]])
    components = tuple(_edge_components())
    with np.errstate(all="ignore"):
        V = expr.compile_field(expr.FieldDef(1, components))(X)
        for row, e in zip(V, components):
            want = _literal_scalar(e)(X)
            got = _row(e, X)
            assert np.array_equal(_bits(got), _bits(want)), expr.to_str(e)
            assert np.array_equal(_bits(row), _bits(want)), expr.to_str(e)
            for x, v in zip(X[0], got):
                try:
                    ref = expr.evaluate(e, (x,))
                except expr.EvalDomainError:
                    continue
                assert (math.isnan(v) and math.isnan(ref)
                        or _bits(v) == _bits(ref)), (expr.to_str(e), x)


def test_signed_zero_constants_compile_apart():
    # 0.0 == -0.0, but 0*x1 and -0*x1 differ in the sign of their zero;
    # compiled in either order, each gives the bits of evaluate
    X = np.array([[1.0, -1.0]])
    for texts in (("-0*x1", "0*x1"), ("0*x1", "-0*x1")):
        expr._compile_field_cached.cache_clear()
        for text in texts:
            e = expr.parse(text, 1)
            want = [expr.evaluate(e, (x,)) for x in X[0]]
            assert np.array_equal(_bits(_row(e, X)), _bits(want)), text
    assert expr.Const(0.0) != expr.Const(-0.0)
    assert expr.Const(-0.0) == expr.Const(-0.0)


@pytest.mark.parametrize("value", _EDGE_CONSTANTS)
def test_the_one_row_field_of_a_constant_gives_its_bits_in_every_column(
        value):
    V = expr.compile_field(expr.FieldDef(1, (expr.Const(value),)))(
        np.zeros((1, 3)))
    assert V.shape == (1, 3)
    assert np.array_equal(_bits(V), np.broadcast_to(_bits(value), (1, 3)))


# ---------------------------------------------------------------------------
# fields

def test_field_requires_matching_component_count():
    with pytest.raises(expr.ExprError):
        expr.parse_field(["x1", "x2"], 1)


def test_field_without_param_rejects_lam():
    fld = expr.parse_field(["x1", "-x2"], 2)
    assert not fld.has_param


def test_jacobian_of_linear_field():
    fld = expr.parse_field(["x1 + 2*x2", "3*x1 - x2"], 2)
    J = [expr.evaluate(e, (0.3, -0.7)) for e in expr.jacobian(fld).components]
    assert np.allclose(J, [1.0, 2.0, 3.0, -1.0])  # row-major


def test_negative_gradient_field():
    g = expr.negative_gradient(expr.parse("(x1^2 - 1)^2 + x2^2", 2), 2)
    F = expr.compile_field(g)
    v = F(np.array([[0.5], [0.3]]))[:, 0]
    assert v[0] == pytest.approx(-(4 * 0.5**3 - 4 * 0.5))
    assert v[1] == pytest.approx(-0.6)


def _shipped_lam_fields():
    """The fields of the shipped system files that mention lam, with the
    parameter value of the file (0.0 where ``continue`` sweeps it)."""
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "data", "*.json"))
                       + glob.glob(os.path.join(ROOT, "benchmarks", "systems",
                                                "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        fld = expr.parse_field(doc["field"], doc["dimension"])
        if fld.has_param:
            out.append((doc["field"], doc.get("options", {}).get("lam", 0.0)))
    return out


@pytest.mark.parametrize("texts,lam", _shipped_lam_fields() + [
    (["x1^2 + 0.2 - 1.2*lam"], 0.5),
    (["x1 - x1^3 + 0.1*sin(3*lam)"], 0.5),
    (["x1*cos(lam) - x1^3 + 0.05*lam^2"], 0.5),
    (["exp(-lam)*x1 - x1^3/(1 + lam)"], 0.5)])
def test_a_bound_field_computes_the_field_at_that_lam(texts, lam):
    # binding folds the calls on lam alone with ``math``, as the reference
    # does, and these fields call no function of a variable: the same
    # floats, but for the sign of a zero
    m = len(texts)
    fld = expr.parse_field(texts, m)
    X = np.array(list(itertools.product(np.linspace(-2, 2, 9), repeat=m))).T
    for lv in [lam, *np.linspace(0.0, 1.0, 41)]:
        bound = expr.bind_field(fld, lv)
        assert not bound.has_param
        got = expr.compile_field(bound)(X)
        want = [[expr.evaluate(e, x, lam=lv) for x in X.T]
                for e in fld.components]
        np.testing.assert_array_equal(got, want)


def test_a_field_bound_to_an_infinite_constant_compiles_and_prints():
    # 1e308/lam folds to inf at lam = 1e-10, where the reference divides
    # to inf as well
    fld = expr.parse_field(["1e308/lam*x1", "x2 - 1e308/lam"], 2)
    bound = expr.bind_field(fld, 1e-10)
    assert [expr.to_str(c) for c in bound.components] == \
        ["inf * x1", "x2 - inf"]
    X = np.array([[-1.0, 0.0, 2.0], [0.5, 0.0, -1.0]])
    with np.errstate(all="ignore"):
        got = expr.compile_field(bound)(X)
    np.testing.assert_array_equal(
        got, [[expr.evaluate(e, x, lam=1e-10) for x in X.T]
              for e in fld.components])


def test_compiling_an_expression_in_lam_is_an_error():
    # compiled code takes no lam: a family is compiled member by member,
    # each bound first
    with pytest.raises(expr.ExprError, match="bind lam first"):
        expr.compile_field(expr.parse_field(["x1 - lam"], 1))
    with pytest.raises(expr.ExprError, match="bind lam first"):
        expr.compile_field(expr.gradient(expr.parse("lam*x1^2", 1), 1))
    assert expr.compile_field(expr.bind_field(
        expr.parse_field(["x1 - lam"], 1), 0.5))(np.array([[2.0]]))[0, 0] \
        == 1.5


def test_a_constant_domain_error_of_binding_names_lam():
    with pytest.raises(expr.ExprError,
                       match=r"^at lam = 0\.0: constant division by zero$"):
        expr.bind_field(expr.parse_field(["x1/lam"], 1), 0.0)
    with pytest.raises(expr.ExprError,
                       match=r"^at lam = -1: log of non-positive value"):
        expr.bind(expr.parse("x1*log(lam)", 1), -1)


def test_substitute_param():
    e = expr.parse("x1 + lam^2", 1)
    s = expr.substitute_param(e, expr.Const(0.5))
    assert not expr.mentions_param(s)
    assert expr.evaluate(s, (1.0,)) == 1.25


def test_substitute_param_keeps_the_subtrees_without_lam():
    # 0*sqrt(x1 + 0.5) has no value at x1 = -1; binding lam elsewhere in
    # the expression must not fold it away
    free = expr.parse("0*sqrt(x1 + 0.5)", 1)
    assert expr.substitute_param(free, expr.Const(0.0)) is free
    e = expr.parse("lam*x1 + 0*sqrt(x1 + 0.5)", 1)
    bound = expr.substitute_param(e, expr.Const(0.0))
    assert bound == free and not expr.mentions_param(bound)
    with pytest.raises(expr.EvalDomainError):
        expr.evaluate(bound, (-1.0,))
