"""Lyapunov verification and Morse perturbations."""
import json
import math
import os

import numpy as np
import pytest

import block_oracle
from mcfhom import block, expr, flow, lyapunov, morse
from mcfhom.config import DEFAULT


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
    f1, _ = lyapunov.morse_perturb(base, b, epsilon=1e-3, seed=5)
    f2, _ = lyapunov.morse_perturb(base, b, epsilon=1e-3, seed=5)
    assert f1 == f2


def test_morse_perturb_rejects_nonpositive_epsilon():
    with pytest.raises(lyapunov.LyapunovError):
        lyapunov.morse_perturb(expr.parse("-x1", 1), _b1(), epsilon=0.0)


# ---------------------------------------------------------------------------
# the homotopy certificate as one family against one lambda at a time

_SYSTEMS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "benchmarks", "systems")


def _per_lambda(base, b, eps, pert, tols=DEFAULT):
    """The certificate one lambda at a time, each interpolant built and
    compiled as an Expr of its own: the reference of the batched grid.
    Returns (isolation reports, minimum boundary gradient), or the
    CertificationError with the reports made before it."""
    m = b.dimension
    steps = tols.cert_lambda_steps
    samples = b.boundary_samples(tols.isolation_samples_per_face)
    reports, min_bgrad = [], math.inf
    for lv in (i / steps for i in range(steps + 1)):
        interp = expr.add(base, expr.mul(expr.Const(float(lv * eps)), pert))
        gradfield = expr.negative_gradient(interp, m)
        G = expr.compile_field(gradfield)(samples.T)
        gn = np.sqrt(np.add.reduce(G * G, axis=0))
        min_bgrad = min(min_bgrad, float(np.fmin.reduce(gn)))
        touching = np.flatnonzero(gn <= tols.margin_tol)
        if touching.size:
            s = samples[touching[0]]
            return reports, lyapunov.CertificationError(
                lv, f"critical point of the interpolant touches the "
                    f"boundary near {tuple(float(v) for v in s)}")
        rep = block.check_isolation(b, gradfield, tols=tols)
        reports.append(rep)
        if not rep:
            return reports, lyapunov.CertificationError(
                lv, f"block stops isolating (trapped boundary samples "
                    f"{rep.failures[:3]})")
    return reports, min_bgrad


def _batched(monkeypatch, base, b, eps, pert):
    """morse_perturb, with the member reports of its isolation batches and
    the direction of every integrator run it makes, batch by batch."""
    batches = []
    check, dop853 = block.check_isolation, flow._dop853

    def spy_check(*args, **kwargs):
        batches.append([])
        rep = check(*args, **kwargs)
        batches[-1] = (batches[-1], rep.members)
        return rep

    def spy_dop853(F, x0, direction, *args, **kwargs):
        batches[-1].append(direction)
        return dop853(F, x0, direction, *args, **kwargs)

    monkeypatch.setattr(block, "check_isolation", spy_check)
    monkeypatch.setattr(flow, "_dop853", spy_dop853)
    try:
        _, cert = lyapunov.morse_perturb(base, b, epsilon=eps,
                                         perturbation=pert)
        result = cert.min_boundary_gradient
    except lyapunov.CertificationError as exc:
        result = exc
    finally:
        monkeypatch.undo()
    runs = [d for d, _ in batches]
    return [r for _, members in batches for r in members], result, runs


def _same_certificate(monkeypatch, base, b, eps, pert):
    want_reports, want = _per_lambda(base, b, eps, pert)
    reports, got, runs = _batched(monkeypatch, base, b, eps, pert)
    # two batches at most; on these families every sample of every member
    # has an outward flux of strict sign, so no batch integrates an orbit
    assert len(runs) <= 2
    assert all(d == [] for d in runs)
    assert len(reports) >= len(want_reports)
    for r, w in zip(reports, want_reports):
        assert np.array_equal(r.samples, w.samples)
        assert np.array_equal(r.outcome, w.outcome)
        assert (r.verdict, r.failures, r.worst_margin) == \
            (w.verdict, w.failures, w.worst_margin)
    if isinstance(want, Exception):
        assert isinstance(got, lyapunov.CertificationError)
        assert (got.lam, str(got)) == (want.lam, str(want))
    else:
        assert len(reports) == len(want_reports) == \
            DEFAULT.cert_lambda_steps + 1
        assert got == want
    return runs, got


@pytest.mark.parametrize("name", ["certificate", "connections"])
@pytest.mark.parametrize("seed", [0, 3, 4, 11])
def test_batched_certificate_equals_one_lambda_at_a_time(monkeypatch, name,
                                                         seed):
    with open(os.path.join(_SYSTEMS, f"{name}.json")) as fh:
        doc = json.load(fh)
    m = doc["dimension"]
    b = block.build_block(box=doc["block"]["box"],
                          spacing=doc["block"]["spacing"])
    base = expr.parse(doc["lyapunov"], m)
    pert = lyapunov.linear_perturbation(m, seed)
    runs, _ = _same_certificate(monkeypatch, base, b, DEFAULT.epsilon, pert)
    assert len(runs) == 2


@pytest.mark.parametrize("eps", [2.0, 0.5, 1e-3])
def test_batched_certificate_on_the_quartic_repeller(monkeypatch, eps):
    _same_certificate(monkeypatch, expr.parse("-(x1^4)/4", 1), _b1(), eps,
                      expr.parse("x1", 1))


@pytest.mark.parametrize("eps", [1e-3, 0.3])
def test_batched_certificate_with_a_nonlinear_perturbation(monkeypatch, eps):
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    _same_certificate(monkeypatch, expr.parse("-(x1^2 + x2^2)^2/4", 2), b,
                      eps, expr.parse("sin(x1)*x2 + x1^3", 2))


@pytest.mark.parametrize("base,b,eps,pert", [
    ("-(x1^4)/4", _b1(), 2.0, "x1"),
    ("-(x1^4)/4", _b1(), 0.5, "x1"),
    ("-(x1^2 + x2^2)^2/4", block.build_block(box=[(-1, 1), (-1, 1)],
                                             spacing=0.5),
     0.3, "sin(x1)*x2 + x1^3")], ids=["quartic-2", "quartic-0.5", "sin-0.3"])
def test_certificate_isolation_equals_the_all_orbit_oracle(monkeypatch, base,
                                                            b, eps, pert):
    # the lambda families of the certificate cases above, each batch checked
    # again with every sample integrated; at eps = 2.0 the interpolant has
    # a critical point on the boundary at lambda = 0.5
    pairs = []
    check = block.check_isolation

    def spy(*args, **kwargs):
        rep = check(*args, **kwargs)
        pairs.append((rep, block_oracle.check_isolation_by_orbits(
            *args, **kwargs)))
        return rep

    monkeypatch.setattr(block, "check_isolation", spy)
    m = b.dimension
    try:
        lyapunov.morse_perturb(expr.parse(base, m), b, epsilon=eps,
                               perturbation=expr.parse(pert, m))
    except lyapunov.CertificationError:
        assert eps == 2.0
    assert pairs
    for rep, want in pairs:
        assert [(r.verdict, r.failures) for r in rep.members] == \
            [(w.verdict, w.failures) for w in want.members]
        assert (rep.verdict, rep.failures) == (want.verdict, want.failures)


def test_batched_certificate_with_lam_in_the_lyapunov_function(monkeypatch):
    # lam bound at 0.4, as the command line binds options.lam
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    lam = expr.Const(0.4)
    _same_certificate(
        monkeypatch,
        expr.substitute_param(
            expr.parse("-(x1^4 + x2^4)/4 - lam*(x1^2 + x2^2)/2", 2), lam),
        b, 1e-2,
        expr.substitute_param(expr.parse("x1 - 0.5*x2 + lam*x1*x2", 2), lam))


def test_batched_certificate_where_the_perturbation_has_no_value(
        monkeypatch):
    # sqrt(x1) has no gradient on the sample x1 = -1: the file's
    # perturbation is refused before any isolation batch runs
    batches = []
    monkeypatch.setattr(block, "check_isolation",
                        lambda *args, **kwargs: batches.append(args))
    with pytest.raises(expr.ExprError) as err:
        lyapunov.morse_perturb(expr.parse("-(x1^4)/4", 1), _b1(),
                               epsilon=1e-3, perturbation=expr.parse(
                                   "sqrt(x1)", 1))
    assert str(err.value) == \
        "perturbation sqrt(x1) has no finite gradient at (-1.0,)"
    assert batches == []


@pytest.mark.parametrize("text,sample", [
    ("sqrt(x1 + 1)", (-1.0,)), ("log(x1 + 1)", (-1.0,)),
    ("1/(x1 + 1)", (-1.0,)), ("sqrt(1 - x1)", (1.0,))])
def test_a_perturbation_without_a_finite_gradient_is_refused(
        monkeypatch, text, sample):
    # on [-1, 1] each gradient is infinite or NaN at one end: the error
    # names the perturbation and that sample, and no isolation batch runs
    batches = []
    monkeypatch.setattr(block, "check_isolation",
                        lambda *args, **kwargs: batches.append(args))
    pert = expr.parse(text, 1)
    with pytest.raises(expr.ExprError) as err:
        lyapunov.morse_perturb(expr.parse("-(x1^4)/4", 1), _b1(),
                               epsilon=1e-3, perturbation=pert)
    assert str(err.value) == (f"perturbation {expr.to_str(pert)} has no "
                              f"finite gradient at {sample}")
    assert batches == []
