"""Expression parsing, evaluation, and symbolic differentiation."""
import math

import numpy as np
import pytest

from mcfhom import expr


# ---------------------------------------------------------------------------
# parsing

def test_parse_polynomial_tree():
    e = expr.parse("x1^2 - 1", 1)
    assert e == expr.BinOp("-", expr.Pow(expr.Var(0), 2), expr.Const(1.0))


def test_parse_two_variables():
    e = expr.parse("x1*x2 + sin(x1)", 2)
    assert expr.max_var_index(e) == 1
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
    f = expr.compile_scalar(e)
    for _ in range(50):
        p = rng.uniform(-2, 2, size=(2, 1))
        lv = rng.uniform(0, 1)
        assert f(p, lv)[0] == pytest.approx(expr.evaluate(e, p[:, 0], lam=lv),
                                            rel=1e-14, abs=1e-14)


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


def test_derive_wrt_parameter():
    e = expr.parse("lam^2*x1 + cos(lam)", 1)
    d = expr.derive(e, "lam")
    for lv in (0.0, 0.3, 0.9):
        assert expr.evaluate(d, (2.0,), lam=lv) == pytest.approx(
            2 * lv * 2.0 - math.sin(lv))


def test_hessian_symmetry_by_value():
    e = expr.parse("x1^3*x2 + sin(x1*x2)", 2)
    H = expr.hessian(e, 2)
    p = (0.7, -0.4)
    assert expr.evaluate(H[0][1], p) == pytest.approx(
        expr.evaluate(H[1][0], p))


# ---------------------------------------------------------------------------
# ramp profile

def test_ramp_flat_zones_and_range():
    delta = 0.2
    for mu in np.linspace(-delta + 1e-9, delta - 1e-9, 9):
        assert expr.ramp_eval(0, delta, mu) == 0.0
    for mu in list(np.linspace(1 - delta, 1.0, 5)) + [1.1, 1.2 - 1e-9]:
        assert expr.ramp_eval(0, delta, mu) == 1.0
    for mu in np.linspace(-1, 1, 41):
        assert 0.0 <= expr.ramp_eval(0, delta, mu) <= 1.0


def test_ramp_even_and_periodic():
    delta = 0.15
    for mu in np.linspace(-1, 1, 31):
        v = expr.ramp_eval(0, delta, mu)
        assert expr.ramp_eval(0, delta, -mu) == pytest.approx(v)
        assert expr.ramp_eval(0, delta, mu + 2.0) == pytest.approx(v)


def test_ramp_derivatives_match_finite_differences():
    delta = 0.2
    h = 1e-6
    # offset grid: central differences straddling the C^2 joints pick up
    # the third-derivative jump, so sample away from them
    for order in (1, 2):
        for mu in np.linspace(-0.947, 0.947, 39):
            exact = expr.ramp_eval(order, delta, mu)
            approx = (expr.ramp_eval(order - 1, delta, mu + h)
                      - expr.ramp_eval(order - 1, delta, mu - h)) / (2 * h)
            assert abs(exact - approx) <= 1e-5 * (1 + abs(exact))


def test_ramp_node_derivative_chain_rule():
    node = expr.RampProfile(0, 0.2, expr.Param())
    d = expr.derive(node, "lam")
    mu = 0.5
    assert expr.evaluate(d, (), lam=mu) == pytest.approx(
        expr.ramp_eval(1, 0.2, mu))


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
    got = expr.compile_scalar(e)(X)
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
        got = expr.compile_scalar(e)(X)
        want = np.array([expr.evaluate(e, X[:, j])
                         for j in range(X.shape[1])])
        assert np.array_equal(got, want), n


@pytest.mark.parametrize("order", range(7))
def test_numpy_ramp_equals_math_ramp(order):
    delta = 0.25
    # both flat zones, the quintic, t < 0, u == delta and u == 1 - delta
    mu = np.concatenate([np.linspace(-3.1, 3.1, 125),
                         [delta, -delta, 1 - delta, delta - 1, 2 + delta,
                          1.0, -1.0, 0.0]])
    node = expr.RampProfile(order, delta, expr.Var(0))
    got = expr.compile_scalar(node)(mu[None, :])
    want = [expr.evaluate(node, (float(v),)) for v in mu]
    assert np.array_equal(got, want)


def test_numpy_field_broadcasts_constants_and_flags_domain_errors():
    fld = expr.parse_field(["2", "log(x1)", "1/x2"], 3)
    F = expr.compile_field(fld)
    V = F(np.array([[1.0, -1.0, 2.0], [4.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    assert V.shape == (3, 3)
    assert list(V[0]) == [2.0, 2.0, 2.0]
    assert V[1, 0] == 0.0 and np.isnan(V[1, 1])
    assert V[2, 0] == 0.25 and np.isinf(V[2, 2])


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
    J = [[expr.evaluate(e, (0.3, -0.7)) for e in row]
         for row in expr.jacobian(fld)]
    assert np.allclose(J, [[1.0, 2.0], [3.0, -1.0]])


def test_negative_gradient_field():
    g = expr.negative_gradient(expr.parse("(x1^2 - 1)^2 + x2^2", 2), 2)
    F = expr.compile_field(g)
    v = F(np.array([[0.5], [0.3]]))[:, 0]
    assert v[0] == pytest.approx(-(4 * 0.5**3 - 4 * 0.5))
    assert v[1] == pytest.approx(-0.6)


def test_substitute_param():
    e = expr.parse("x1 + lam^2", 1)
    s = expr.substitute_param(e, expr.Const(0.5))
    assert not expr.mentions_param(s)
    assert expr.evaluate(s, (1.0,)) == 1.25
