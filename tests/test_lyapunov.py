"""Lyapunov verification and Morse perturbations."""
import dataclasses
import glob
import json
import math
import os

import numpy as np
import pytest

import block_oracle
from mcfhom import block, cli, expr, flow, lyapunov, morse
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
# the homotopy certificate: the two ends of the interpolant's flux, by the
# scalar reference, and the grid against one lambda at a time

_SYSTEMS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "benchmarks", "systems")


def _interpolant(base, eps, pert):
    """base + lam*eps*pert, with lam the parameter of the expression."""
    return expr.add(base, expr.mul(
        expr.mul(expr.Param(), expr.Const(float(eps))), pert))


def _variables(e):
    """The indices of the variables ``e`` mentions."""
    if isinstance(e, expr.Var):
        return {e.index}
    return set().union(*(
        _variables(v) for v in vars(e).values() if isinstance(v, expr.Expr)))


def _value(e, point, lam):
    try:
        return expr.evaluate(e, point, lam)
    except expr.ExprError:
        return math.nan


def _sweep(base, b, eps, pert, lambdas):
    """The outward flux of the negative gradient of base + lam*eps*pert at
    every boundary sample and every lam of ``lambdas``, by the scalar
    reference ``expr.evaluate``: its value at the first and the last lam,
    and its least and greatest value over ``lambdas``, each an (n,) array
    over the samples (NaN where the reference has no value).  The flux of a
    sample is the gradient component of its face axis, which depends only
    on the variables it mentions: it is evaluated once for each value of
    them."""
    m = b.dimension
    per_face = DEFAULT.isolation_samples_per_face
    samples = b.boundary_samples(per_face)
    axis, side = (np.repeat(a, per_face ** (m - 1)) for a in b.faces[1:])
    grads = expr.negative_gradient(_interpolant(base, eps, pert), m)
    # per sample: the component at the first and last lam, its least and
    # its greatest value
    stats = np.empty((len(samples), 4))
    for i, g in enumerate(grads.components):
        mentioned = sorted(_variables(g))
        on = np.flatnonzero(axis == i)
        keys, inv = np.unique(samples[on][:, mentioned], axis=0,
                              return_inverse=True)
        point = np.zeros(m)
        rows = []
        for key in keys:
            point[mentioned] = key
            v = np.array([_value(g, point, lv) for lv in lambdas])
            rows.append((v[0], v[-1], v.min(), v.max()))
        stats[on] = np.array(rows)[inv.reshape(-1)]
    # outward: on a low side the flux is minus the component
    low = side == 0
    stats[low] = -stats[low][:, [0, 1, 3, 2]]
    return dict(zip(("first", "last", "lo", "hi"), stats.T))


def _settled(sweep):
    """The samples whose flux has one sign and a size of at least
    ``margin_tol`` at the first and the last lam of the sweep."""
    ends, tol = np.array([sweep["first"], sweep["last"]]), DEFAULT.margin_tol
    return np.logical_and.reduce(ends >= tol) | \
        np.logical_and.reduce(ends <= -tol)


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
        touching = np.flatnonzero(gn < tols.margin_tol)
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
    """morse_perturb, with the reports of its isolation checks, one per
    lambda, and the direction of every integrator run each check makes."""
    batches = []
    check, dop853 = block.check_isolation, flow._dop853

    def spy_check(*args, **kwargs):
        batches.append([])
        rep = check(*args, **kwargs)
        batches[-1] = (batches[-1], rep)
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
    return [r for _, r in batches], result, runs


def _same_certificate(monkeypatch, base, b, eps, pert):
    """morse_perturb against the reference ``_per_lambda``: the same
    CertificationError, or a certificate whose gradient bound is positive
    and at most the reference's grid minimum.  Where the two ends settle
    every sample, no isolation check runs; every check that does run gives
    the reference's report at its lambda."""
    want_reports, want = _per_lambda(base, b, eps, pert)
    reports, got, runs = _batched(monkeypatch, base, b, eps, pert)
    settled = _settled(_sweep(base, b, eps, pert, (0.0, 1.0)))
    if settled.all():
        assert runs == []
    # one check per lambda at most; on these families every sample has an
    # outward flux of strict sign at every lambda, so no check integrates
    # an orbit
    assert len(runs) <= DEFAULT.cert_lambda_steps + 1
    assert all(d == [] for d in runs)
    assert len(reports) >= len(want_reports) if runs else reports == []
    for r, w in zip(reports, want_reports):
        assert np.array_equal(r.samples, w.samples)
        assert np.array_equal(r.outcome, w.outcome)
        assert (r.verdict, r.failures, r.worst_margin) == \
            (w.verdict, w.failures, w.worst_margin)
    if isinstance(want, Exception):
        assert isinstance(got, lyapunov.CertificationError)
        assert (got.lam, str(got)) == (want.lam, str(want))
    else:
        assert 0 < got <= want
        if runs:
            assert len(reports) == len(want_reports) == \
                DEFAULT.cert_lambda_steps + 1
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
    assert runs == []


@pytest.mark.parametrize("eps", [2.0, 0.5, 1e-3])
def test_batched_certificate_on_the_quartic_repeller(monkeypatch, eps):
    runs, got = _same_certificate(monkeypatch, expr.parse("-(x1^4)/4", 1),
                                  _b1(), eps, expr.parse("x1", 1))
    if eps == 2.0:
        # the flux x1^3 - s at x1 = 1 changes sign on [0, eps]: that
        # sample goes through the grid, which checks isolation at each
        # lambda before the critical point reaches it, 0 to 0.4
        assert len(runs) == 5
        assert got.lam == 0.5
        assert str(got) == ("homotopy certificate failed at lambda=0.5: "
                            "critical point of the interpolant touches the "
                            "boundary near (1.0,)")
    else:
        assert runs == []


@pytest.mark.parametrize("eps", [1e-3, 0.3])
def test_batched_certificate_with_a_nonlinear_perturbation(monkeypatch, eps):
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    runs, _ = _same_certificate(
        monkeypatch, expr.parse("-(x1^2 + x2^2)^2/4", 2), b, eps,
        expr.parse("sin(x1)*x2 + x1^3", 2))
    assert runs == []


@pytest.mark.parametrize("base,b,eps,pert", [
    ("-(x1^4)/4", _b1(), 2.0, "x1"),
    ("-(x1^4)/4", _b1(), 0.5, "x1"),
    ("-(x1^2 + x2^2)^2/4", block.build_block(box=[(-1, 1), (-1, 1)],
                                             spacing=0.5),
     0.3, "sin(x1)*x2 + x1^3")], ids=["quartic-2", "quartic-0.5", "sin-0.3"])
def test_certificate_isolation_equals_the_all_orbit_oracle(monkeypatch, base,
                                                            b, eps, pert):
    # every isolation check the certificate cases above still run, checked
    # again with every sample integrated.  At eps = 2.0 one sample is
    # unsettled and the interpolant has a critical point on the boundary at
    # lambda = 0.5; the other cases run no check, and there the oracle
    # integrates every sample at every lambda of the grid and finds the
    # block isolating
    pairs = []
    check = block.check_isolation

    def spy(*args, **kwargs):
        rep = check(*args, **kwargs)
        pairs.append((rep, block_oracle.check_isolation_by_orbits(
            *args, **kwargs)))
        return rep

    monkeypatch.setattr(block, "check_isolation", spy)
    m = b.dimension
    base, pert = expr.parse(base, m), expr.parse(pert, m)
    try:
        _, cert = lyapunov.morse_perturb(base, b, epsilon=eps,
                                         perturbation=pert)
    except lyapunov.CertificationError:
        assert eps == 2.0
    assert bool(pairs) == (eps == 2.0)
    for rep, want in pairs:
        assert (rep.verdict, rep.failures) == (want.verdict, want.failures)
    if not pairs:
        family = expr.negative_gradient(_interpolant(base, eps, pert), m)
        for lv in cert.lambdas:
            assert block_oracle.check_isolation_by_orbits(
                b, expr.bind_field(family, lv)).verdict


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


def _shipped_with_a_lyapunov_function():
    """(name, system) of every shipped system file with a Lyapunov
    function; a continuation file at the two ends of its grid, as
    ``continue`` reads it."""
    paths = sorted(glob.glob(os.path.join(_SYSTEMS, "*.json"))) + sorted(
        glob.glob(os.path.join(os.path.dirname(__file__), "data", "*.json")))
    out = []
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        name = os.path.basename(path)
        if "lyapunov" not in doc:
            continue
        if "continuation" not in doc:
            out.append((name, cli._fixed_system(doc)))
            continue
        start, cont = cli._parse_system(doc), doc["continuation"]
        end = dataclasses.replace(
            start, lyapunov=expr.parse(cont["lyapunov_end"], doc["dimension"]))
        out.append((f"{name}@{cont['grid'][0]}", start.at(cont["grid"][0])))
        out.append((f"{name}@{cont['grid'][-1]}", end.at(cont["grid"][-1])))
    return out


def _every_lambda_cases():
    """(base, block, epsilon, perturbation, shipped) of the shipped systems
    at seeds 0, 3 and 5 and of the certificate families above.  A shipped
    system is settled by the two ends, except saddle_grid.json, which is
    shipped to run the lambda grid."""
    cases = {}
    for name, system in _shipped_with_a_lyapunov_function():
        m = system.block.dimension
        for seed in (0, 3, 5):
            pert = system.perturbation or lyapunov.linear_perturbation(m, seed)
            eps = system.epsilon or DEFAULT.epsilon
            cases[f"{name}-{seed}"] = (system.lyapunov, system.block, eps,
                                       pert, name != "saddle_grid.json")
    square = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    for eps in (2.0, 0.5, 1e-3):
        cases[f"quartic-{eps}"] = (expr.parse("-(x1^4)/4", 1), _b1(), eps,
                                   expr.parse("x1", 1), False)
    for eps in (1e-3, 0.3):
        cases[f"sin-{eps}"] = (expr.parse("-(x1^2 + x2^2)^2/4", 2), square,
                               eps, expr.parse("sin(x1)*x2 + x1^3", 2), False)
    lam = expr.Const(0.4)
    cases["lam-0.4"] = (
        expr.substitute_param(
            expr.parse("-(x1^4 + x2^4)/4 - lam*(x1^2 + x2^2)/2", 2), lam),
        square, 1e-2,
        expr.substitute_param(expr.parse("x1 - 0.5*x2 + lam*x1*x2", 2), lam),
        False)
    return cases


_EVERY_LAMBDA = _every_lambda_cases()


def _counted(calls, fn):
    """``fn``, appending its name to ``calls`` at every call."""
    def spy(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return spy


@pytest.mark.parametrize("case", _EVERY_LAMBDA)
def test_the_two_ends_certify_every_lambda(monkeypatch, case):
    # where the outward flux of the interpolant has one sign and a size of
    # at least margin_tol at lambda = 0 and 1, it keeps both at 1,001 evenly
    # spaced lambdas, by the scalar reference, and the certificate's
    # gradient bound is at most |flux| there, so at most the gradient norm,
    # which is at least the size of any one component.  Every shipped system
    # but saddle_grid.json settles every sample, so its certificate runs no
    # isolation batch
    base, b, eps, pert, shipped = _EVERY_LAMBDA[case]
    sweep = _sweep(base, b, eps, pert, [k / 1000 for k in range(1001)])
    settled = _settled(sweep)
    assert settled.any()
    assert settled.all() or not shipped
    tol = DEFAULT.margin_tol
    assert np.all(np.where(sweep["first"] > 0, sweep["lo"] >= tol,
                           sweep["hi"] <= -tol)[settled])
    calls = []
    monkeypatch.setattr(block, "check_isolation",
                        _counted(calls, block.check_isolation))
    try:
        _, cert = lyapunov.morse_perturb(base, b, epsilon=eps,
                                         perturbation=pert)
    except lyapunov.CertificationError as exc:
        # only an unsettled sample can fail, and it fails as in the
        # reference
        assert not settled.all()
        _, want = _per_lambda(base, b, eps, pert)
        assert (exc.lam, str(exc)) == (want.lam, str(want))
        return
    least = np.where(sweep["first"] > 0, sweep["lo"], -sweep["hi"])
    assert 0 < cert.min_boundary_gradient <= least[settled].min()
    if settled.all():
        assert calls == []


@pytest.mark.parametrize("name", ["product_well_3d.json",
                                  "product_well_4d.json"])
def test_the_wells_certificate_runs_no_isolation_batch(monkeypatch, name):
    # every boundary sample of the 3-D and 4-D wells is settled by its two
    # ends at seed 3: no isolation batch, and so no orbit
    with open(os.path.join(os.path.dirname(__file__), "data", name)) as fh:
        system = cli._fixed_system(json.load(fh))
    calls = []
    monkeypatch.setattr(block, "check_isolation",
                        _counted(calls, block.check_isolation))
    monkeypatch.setattr(flow, "_dop853", _counted(calls, flow._dop853))
    _, cert = lyapunov.morse_perturb(system.lyapunov, system.block, seed=3)
    assert calls == []
    assert cert.min_boundary_gradient > DEFAULT.margin_tol


def test_a_flux_of_exactly_margin_tol_is_transverse_to_every_check(
        monkeypatch):
    # -grad(-1e-6*x1) is margin_tol exactly.  By the one rule of
    # block.transverse_flux both boundary samples are transverse: the faces
    # are tagged, isolation settles both samples with no orbit, and the
    # certificate settles both by its two ends, with no lambda grid
    b = block.build_block(box=[(-1, 1)], spacing=1)
    base = expr.parse("-1e-6*x1", 1)
    fld = expr.negative_gradient(base, 1)
    assert fld.components == (expr.Const(DEFAULT.margin_tol),)
    assert block.classify_boundary(b, fld).tolist() == \
        ["Ingress", "Egress"]
    calls = []
    monkeypatch.setattr(flow, "_dop853", _counted(calls, flow._dop853))
    monkeypatch.setattr(lyapunov, "_grid_certificate",
                        _counted(calls, lyapunov._grid_certificate))
    rep = block.check_isolation(b, fld)
    assert rep.verdict and rep.outcome.tolist() == [1, 2]
    _, cert = lyapunov.morse_perturb(base, b,
                                     perturbation=expr.parse("-x1", 1))
    assert cert.min_boundary_gradient == 1e-6
    assert calls == []


def test_the_grid_names_the_lambda_where_the_block_stops_isolating(
        monkeypatch):
    # -grad f is tangent to the faces x1 = +-1, which it leaves invariant,
    # and along them it runs from x2 = -1/2 up to x2 = 1/2, two critical
    # points of f between the isolation samples.  The samples between them
    # are unsettled at lambda = 0, their gradient norm is above margin_tol,
    # and their orbits stay on the face in both directions of time
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    base = expr.parse("x1^3/3 - x1 + x2^3/3 - x2/4", 2)
    pert = expr.parse("x1 + x2/3", 2)
    reports, got, runs = _batched(monkeypatch, base, b, 1e-3, pert)
    assert isinstance(got, lyapunov.CertificationError)
    assert got.lam == 0.0
    assert str(got) == (
        "homotopy certificate failed at lambda=0.0: block stops isolating "
        "(trapped boundary samples [(-1.0, -0.33333333333333337), "
        "(-1.0, -0.16666666666666669), (-1.0, 0.16666666666666666)])")
    assert [r.verdict for r in reports] == [False]
    assert runs == [[-1, 1]]
    _, want = _per_lambda(base, b, 1e-3, pert)
    assert (got.lam, str(got)) == (want.lam, str(want))


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
