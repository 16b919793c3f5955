"""Lyapunov verification, combinations, and Morse perturbations."""
import numpy as np
import pytest

from mcfhom import block, expr, lyapunov, morse


def _b1():
    return block.build_block(box=[(-1, 1)], spacing=0.5)


S0 = lyapunov.SDeclaration(((0.0,),), 0.1)


def test_verify_semistable_pass():
    rep = lyapunov.verify_lyapunov(
        expr.parse("-x1", 1), expr.parse_field(["x1^2/(1 + x1^2)"], 1),
        _b1(), S0)
    assert rep.verdict
    assert rep.min_decrease > 0


def test_verify_repeller_pass():
    rep = lyapunov.verify_lyapunov(
        expr.parse("-(x1^4)/4", 1), expr.parse_field(["x1"], 1), _b1(), S0)
    assert rep.verdict


def test_verify_wrong_sign_fails():
    rep = lyapunov.verify_lyapunov(
        expr.parse("(x1^2)/2", 1), expr.parse_field(["x1"], 1), _b1(), S0)
    assert not rep.verdict
    assert rep.violating_sample is not None
    assert abs(rep.violating_sample[0]) > S0.radius


def test_verify_checks_value_spread_on_s():
    # f is a fine Lyapunov function but not constant over a bogus S claim
    decl = lyapunov.SDeclaration(((0.0,), (0.5,)), 0.05, 1e-8)
    rep = lyapunov.verify_lyapunov(
        expr.parse("-x1", 1), expr.parse_field(["x1^2/(1 + x1^2)"], 1),
        _b1(), decl)
    assert rep.value_spread == pytest.approx(0.5)
    assert not rep.verdict


def test_verify_fails_where_f_has_no_value():
    # df = 2x has a value everywhere, but f has none on x1 < -0.5
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    rep = lyapunov.verify_lyapunov(
        expr.parse("x1^2 + x2^2 + 0*sqrt(x1 + 0.5)", 2),
        expr.parse_field(["-x1", "-x2"], 2), b,
        lyapunov.SDeclaration(((0.0, 0.0),), 0.1))
    assert not rep.verdict
    # the first lattice point, in itertools.product order of the axes
    assert rep.violating_sample == (-1.0, -1.0)
    assert rep.min_decrease > 0 and rep.min_location[0] >= -0.5


def test_verify_fails_where_the_decrease_has_no_value():
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    rep = lyapunov.verify_lyapunov(
        expr.parse("x1^2 + x2^2", 2),
        expr.parse_field(["-x1", "-x2 * sqrt(0.5 - x1)"], 2), b,
        lyapunov.SDeclaration(((0.0, 0.0),), 0.1))
    assert not rep.verdict
    assert rep.violating_sample[0] > 0.5
    assert rep.min_decrease > 0


def test_combine_scaling():
    fa = expr.parse("-x1", 1)
    g = lyapunov.combine(fa, fa, 1.0, 1.0)
    rep = lyapunov.verify_lyapunov(
        g, expr.parse_field(["x1^2/(1 + x1^2)"], 1), _b1(), S0)
    assert rep.verdict
    assert expr.evaluate(g, (0.5,)) == -1.0


def test_combine_two_lyapunov_functions():
    fa = expr.parse("-x1", 1)
    fb = expr.parse("-x1 - x1^3/3", 1)
    fld = expr.parse_field(["x1^2/(1 + x1^2)"], 1)
    g = lyapunov.combine(fa, fb, 2.0, 3.0)
    assert lyapunov.verify_lyapunov(g, fld, _b1(), S0).verdict


def test_affine_shift():
    fa = expr.parse("-x1", 1)
    fld = expr.parse_field(["x1^2/(1 + x1^2)"], 1)
    g = lyapunov.shift(5.0, fa)
    assert lyapunov.verify_lyapunov(g, fld, _b1(), S0).verdict
    assert expr.evaluate(g, (0.0,)) == 5.0


def test_combine_rejects_nonpositive_coefficients():
    fa = expr.parse("-x1", 1)
    with pytest.raises(lyapunov.LyapunovError):
        lyapunov.combine(fa, fa, 0.0, 1.0)
    with pytest.raises(lyapunov.LyapunovError):
        lyapunov.shift(1.0, fa, -2.0)


def test_morse_perturb_repeller():
    base = expr.parse("-(x1^4)/4", 1)
    f, cert = lyapunov.morse_perturb(base, _b1(), epsilon=0.001,
                                     perturbation=expr.parse("x1", 1))
    crits = morse.find_critical_points(f, _b1())
    assert len(crits) == 1
    assert crits[0].coords[0] == pytest.approx(0.001 ** (1 / 3), rel=1e-6)
    assert crits[0].index == 1
    assert cert.min_boundary_gradient > 0
    assert cert.lambdas[0] == 0.0 and cert.lambdas[-1] == 1.0


def test_morse_perturb_vacuous_case():
    base = expr.parse("-x1", 1)
    f, cert = lyapunov.morse_perturb(base, _b1(), epsilon=0.01)
    assert morse.find_critical_points(f, _b1()) == []


def test_morse_perturb_oversized_epsilon_fails():
    base = expr.parse("-(x1^4)/4", 1)
    with pytest.raises(lyapunov.CertificationError) as exc:
        lyapunov.morse_perturb(base, _b1(), epsilon=2.0,
                               perturbation=expr.parse("x1", 1))
    assert 0.0 <= exc.value.lam <= 1.0


def test_morse_perturb_stays_epsilon_close():
    base = expr.parse("-(x1^4)/4", 1)
    eps = 1e-3
    f, _ = lyapunov.morse_perturb(base, _b1(), epsilon=eps,
                                  perturbation=expr.parse("x1", 1))
    for x in np.linspace(-1, 1, 21):
        diff = abs(expr.evaluate(f, (x,)) - expr.evaluate(base, (x,)))
        assert diff <= eps * 1.0 + 1e-15


def test_morse_perturb_default_direction_is_seeded():
    base = expr.parse("-(x1^2 + x2^2)^2/4", 2)
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    f1, _ = lyapunov.morse_perturb(base, b, epsilon=1e-3, rng=rng1)
    f2, _ = lyapunov.morse_perturb(base, b, epsilon=1e-3, rng=rng2)
    assert f1 == f2


def test_morse_perturb_rejects_nonpositive_epsilon():
    with pytest.raises(lyapunov.LyapunovError):
        lyapunov.morse_perturb(expr.parse("-x1", 1), _b1(), epsilon=0.0)
