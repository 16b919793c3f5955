"""Integrator, the frame transport of the sign oracle, and orbit limit
classification."""
import dataclasses
import math
import types
import warnings

import numpy as np
import pytest

import block_oracle
import flow_oracle as oracle
from mcfhom import block, expr, flow, morse
from mcfhom.config import DEFAULT


def test_exponential_growth():
    fld = expr.parse_field(["x1"], 1)
    traj = oracle.integrate(fld, (1.0,), 1.0)
    assert abs(traj.terminal[0] - math.e) < 1e-8


def test_backward_integration():
    fld = expr.parse_field(["x1"], 1)
    traj = oracle.integrate(fld, (1.0,), -1.0)
    assert abs(traj.terminal[0] - math.exp(-1.0)) < 1e-8
    assert traj.duration == pytest.approx(-1.0)


def test_zero_duration():
    fld = expr.parse_field(["x1"], 1)
    traj = oracle.integrate(fld, (0.7,), 0.0)
    assert traj.terminal[0] == 0.7


def test_semistable_approaches_zero_monotonically():
    fld = expr.parse_field(["x1^2/(1 + x1^2)"], 1)
    traj = oracle.integrate(fld, (-0.5,), 60.0)
    xs = [x[0] for x in traj.xs]
    assert all(b >= a for a, b in zip(xs, xs[1:]))
    assert -0.02 < traj.terminal[0] < 0.0


def test_limit_cycle_radius():
    # r' = r(1 - r^2), theta' = 1; closed form r(t) = (1 + c e^{-2t})^{-1/2}
    fld = expr.parse_field(
        ["x1*(1 - (x1^2 + x2^2)) - x2", "x2*(1 - (x1^2 + x2^2)) + x1"], 2)
    traj = oracle.integrate(fld, (0.1, 0.0), 20.0)
    r = float(np.linalg.norm(traj.terminal))
    c = 1 / 0.1**2 - 1
    r_exact = (1 + c * math.exp(-40.0)) ** -0.5
    assert abs(r - 1.0) < 1e-6
    assert abs(r - r_exact) < 1e-7


def test_halving_tolerance_converges():
    fld = expr.parse_field(
        ["x2", "-x1 - 0.1*x2*(1 - x1^2)"], 2)
    a = oracle.integrate(fld, (1.0, 0.0), 10.0, rtol=1e-9, atol=1e-12)
    bt = oracle.integrate(fld, (1.0, 0.0), 10.0, rtol=5e-10, atol=5e-13)
    ref = oracle.integrate(fld, (1.0, 0.0), 10.0, rtol=1e-13, atol=1e-15)
    err_a = float(np.linalg.norm(a.terminal - ref.terminal))
    err_b = float(np.linalg.norm(bt.terminal - ref.terminal))
    assert err_a < 1e-6
    assert err_b <= err_a + 1e-12


def test_gradient_flow_monotone_decrease():
    f = expr.parse("(x1^2 - 1)^2 + x2^2", 2)
    fld = expr.negative_gradient(f, 2)
    traj = oracle.integrate(fld, (0.5, 0.8), 8.0)
    vals = [expr.evaluate(f, x) for x in traj.xs]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-9 * (1 + abs(a))


def test_step_underflow_reported():
    # finite-time derivative blow-up: x' = 1/x reaches the singular line
    fld = expr.parse_field(["-1/x1"], 1)
    with pytest.raises(flow.IntegrationError):
        oracle.integrate(fld, (1.0,), 2.0)


def test_step_underflow_message_prints_plain_floats():
    # x1' = -1/x1 reaches the singular line x1 = 0 at t = 1/2 from x1 = 1,
    # inside the block: the step of the orbit underflows there, and the
    # message of its ("failed", error) label, which the command line
    # prints, shows the point as Python floats, not as numpy scalar reprs
    fld = expr.parse_field(["-1/x1", "0"], 2)
    b = block.build_block(box=[(-2, 2)] * 2, spacing=0.5)
    lc, _ = _classify(fld, np.array([[1.0], [0.0]]), [], b, scale=1.0)
    [(kind, err)] = lc.tag
    assert kind == "failed" and isinstance(err, flow.StepUnderflowError)
    assert "np.float64" not in str(err)
    assert str(err) == (f"step size underflow at t={err.t!r}, "
                        f"x={err.x.tolist()!r} (stiffness?)")
    assert 0.49 < err.t < 0.51 and 0.0 < err.x[0] < 1e-3
    assert isinstance(err.x, np.ndarray) and err.x.shape == (2,)


def test_integrate_until_stop_value():
    fld = expr.parse_field(["1"], 1)

    def stop(t, xprev, x):
        return ("hit", t) if x[0] >= 2.0 else None

    traj, sv = oracle.integrate_until(fld, (0.0,), stop, 10.0)
    assert sv is not None and sv[0] == "hit"
    assert traj.terminal[0] >= 2.0


def test_integrate_until_budget_returns_none():
    fld = expr.parse_field(["0"], 1)
    traj, sv = oracle.integrate_until(fld, (0.0,), lambda t, a, b: None, 1.0)
    assert sv is None


# ---------------------------------------------------------------------------
# frame transport along one orbit, the sign oracle of the circle witnesses

def _transport(fld, x0, T, frame):
    """One orbit through the oracle's transport: (vectors, end point)."""
    return oracle.transport_frame_one(fld, np.asarray(x0, dtype=float), T,
                                      frame)


def test_transport_identity_on_zero_duration():
    fld = expr.parse_field(["x1", "-x2"], 2)
    W, xe = _transport(fld, (0.3, 0.4), 0.0,
                                 [np.array([1.0, 0.0])])
    assert np.allclose(W[0], [1.0, 0.0])
    assert np.allclose(xe, [0.3, 0.4])


def test_transport_preserves_eigendirections():
    # diagonal linear field: e1 stays e1 (magnitude renormalized away)
    fld = expr.parse_field(["x1", "-x2"], 2)
    W, _ = _transport(fld, (0.1, 0.1), 2.0,
                                [np.array([1.0, 0.0])])
    w = W[0] / np.linalg.norm(W[0])
    assert abs(abs(w[0]) - 1.0) < 1e-9
    assert w[0] > 0  # sign never flips along the orbit


def test_transport_linearity():
    fld = expr.parse_field(
        ["x2", "-x1 - 0.2*x2"], 2)
    x0 = (0.5, 0.1)
    v = np.array([1.0, 0.2])
    w = np.array([-0.3, 1.0])
    # transport without renormalization interference: single short hop
    Wv, _ = _transport(fld, x0, 0.5, [v])
    Ww, _ = _transport(fld, x0, 0.5, [w])
    Ws, _ = _transport(fld, x0, 0.5, [v + w])
    # directions only are meaningful after renormalization; compare via the
    # flow-map differential: D(phi) is linear, so the transported sum must be
    # a positive combination lying in the span of the transported parts
    M = np.column_stack([Wv[0], Ww[0]])
    coef, res, *_ = np.linalg.lstsq(M, Ws[0], rcond=None)
    resid = float(np.linalg.norm(M @ coef - Ws[0]))
    assert resid < 1e-8
    assert coef[0] > 0 and coef[1] > 0


def test_transport_matches_flow_map_differential():
    # finite-difference oracle for the differential of the time-T flow map
    f = expr.parse("(x1^2 - 1)^2 + x2^2", 2)
    fld = expr.negative_gradient(f, 2)
    x0 = np.array([0.3, 0.5])
    T = 1.5
    v = np.array([1.0, 0.0])
    W, _ = _transport(fld, x0, T, [v])
    h = 1e-6
    up = oracle.integrate(fld, x0 + h * v, T).terminal
    dn = oracle.integrate(fld, x0 - h * v, T).terminal
    fd = (up - dn) / (2 * h)
    cos = float(np.dot(W[0], fd)
                / (np.linalg.norm(W[0]) * np.linalg.norm(fd)))
    assert cos > 1 - 1e-6


# ---------------------------------------------------------------------------
# limit classification

def _double_well_setup():
    f = expr.parse("(x1^2 - 1)^2 + x2^2", 2)
    fld = expr.negative_gradient(f, 2)
    b = block.build_block(box=[(-2, 2), (-2, 2)], spacing=0.5)
    crits = morse.find_critical_points(f, b)
    return f, fld, b, crits


def _classify(fld, X0, crits, b, tols=DEFAULT, scale=None, **kwargs):
    """``flow.classify_limit`` on the compiled ``fld`` over the time budget
    ``tols.t_budget``, at the ``field_scale`` of ``fld`` unless ``scale``
    is given."""
    if scale is None:
        scale = flow.field_scale(fld, b)
    return flow.classify_limit(expr.compile_field(fld), X0, crits, b,
                               tols.t_budget, scale, tols=tols, **kwargs)


def _captor(lc, crits, j=0):
    kind, ident = lc.tag[j]
    assert kind == "crit"
    return crits[[c.ident for c in crits].index(ident)]


def test_classify_converges_to_nearest_minimum():
    _, fld, b, crits = _double_well_setup()
    lc, _ = _classify(fld, np.array([[0.5], [0.3]]), crits, b)
    assert _captor(lc, crits).coords == pytest.approx((1.0, 0.0), abs=1e-6)


def test_classify_stable_manifold_of_saddle():
    _, fld, b, crits = _double_well_setup()
    lc, _ = _classify(fld, np.array([[0.0], [0.7]]), crits, b)
    assert _captor(lc, crits).coords == pytest.approx((0.0, 0.0), abs=1e-6)


def test_classify_exit_face():
    fld = expr.parse_field(["1"], 1)
    b = block.build_block(box=[(0, 1)], spacing=0.5)
    lc, run = _classify(fld, np.array([[0.5]]), [], b)
    assert lc.tag == (("exit",),)
    assert not block_oracle.contains(b, run.x[:, 0])
    # outside the block, beyond its x1 = 1 side
    assert run.x[0, 0] > 1.0


def test_classify_exit_is_tested_before_capture():
    # a slow critical point placed on the first point outside the block:
    # the column still counts as exited
    fld = expr.parse_field(["1"], 1)
    b = block.build_block(box=[(0, 1)], spacing=0.5)
    _, run = _classify(fld, np.array([[0.5]]), [], b)
    crit = types.SimpleNamespace(ident=7, coords=tuple(run.x[:, 0]))
    lc, again = _classify(fld, np.array([[0.5]]), [crit], b, scale=1e7)
    assert lc.tag == (("exit",),) and again.t[0] == run.t[0]
    lc, _ = _classify(fld, np.array([[0.5]]), [crit],
                      block.build_block(box=[(0, 2)], spacing=0.5),
                      scale=1e7)
    assert lc.tag == (("crit", 7),)


def test_classify_budget_exceeded():
    fld = expr.parse_field(["0"], 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    lc, run = _classify(fld, np.array([[0.5]]), [], b)
    assert lc.tag == (("budget",),)
    assert run.t[0] == DEFAULT.t_budget


def _no_orbit(monkeypatch):
    """Make every later ``flow._dop853`` call fail the test."""
    def spy(*args, **kwargs):
        raise AssertionError("an orbit ran")
    monkeypatch.setattr(flow, "_dop853", spy)


def test_ambiguous_capture_error(monkeypatch):
    # two critical points within twice the capture radius: the critical set
    # is rejected before any orbit runs
    f = expr.parse("x1^2/2", 1)
    fld = expr.negative_gradient(f, 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    c0 = morse.find_critical_points(f, b)[0]
    twin = dataclasses.replace(c0, ident=1, coords=(1e-6,))
    _no_orbit(monkeypatch)
    with pytest.raises(flow.AmbiguousCaptureError, match=r"critical points "
                       r"0 and 1 lie 1e-06 apart, under twice") as err:
        _classify(fld, np.array([[0.5]]), [c0, twin], b)
    assert err.value.ids == [c0.ident, 1]


def _saddle_sheet_setup():
    # -grad of (x1^2 - 1)^2 - x2^2 on [-2, 2]^2: orbits on the x1 axis run
    # into the index-1 points (+-1, 0), all others leave through x2 = +-2
    f = expr.parse("(x1^2 - 1)^2 - x2^2", 2)
    fld = expr.negative_gradient(f, 2)
    b = block.build_block(box=[(-2, 2), (-2, 2)], spacing=0.5)
    return fld, b, morse.find_critical_points(f, b)


def test_classify_columns_equal_single_columns_bit_for_bit(monkeypatch):
    fld, b, crits = _saddle_sheet_setup()
    # with t = 2 the orbits that start next to the index-2 point at the
    # origin are still on their way
    tols = dataclasses.replace(DEFAULT, t_budget=2.0)
    x1 = np.array([-1.9, -1.3, -0.6, -2e-4, 3e-4, 0.4, 1.2, 1.7])
    X0 = np.vstack([np.tile(x1, 3), np.repeat([0.0, 0.3, -1e-3], x1.size)])
    lc, run = _classify(fld, X0, crits, b, tols=tols)
    assert {lab[0] for lab in lc.tag} == {"crit", "exit", "budget"}

    # reference: each orbit alone through integrate_until (expr.evaluate),
    # stopped by the point tests contains, capture radius, then speed
    speed_tol = tols.speed_tol_factor * flow.field_scale(fld, b)
    coords = np.array([c.coords for c in crits])

    def stop(t, x_prev, x):
        if not block_oracle.contains(b, x):
            return ("exit",)
        near = np.flatnonzero(np.linalg.norm(x - coords, axis=1)
                              < tols.capture_radius)
        v = [expr.evaluate(c, x) for c in fld.components]
        if len(near) == 1 and np.linalg.norm(v) < speed_tol:
            return ("crit", crits[near[0]].ident)
        return None

    for j in range(X0.shape[1]):
        one, one_run = _classify(fld, X0[:, j:j + 1], crits, b, tols=tols)
        assert one.tag[0] == lc.tag[j]
        assert one_run.t[0] == run.t[j]
        assert np.array_equal(one_run.x[:, 0], run.x[:, j])
        assert (one_run.steps[0], one_run.rejected[0]) == \
            (run.steps[j], run.rejected[j])
        traj, sv = oracle.integrate_until(fld, X0[:, j], stop, tols.t_budget,
                                        tols=tols)
        assert lc.tag[j] == (sv or ("budget",))
        assert run.t[j] == traj.ts[-1] and run.steps[j] == traj.steps
        assert np.array_equal(run.x[:, j], traj.xs[-1])

    # a twin of the point (1, 0) within twice the capture radius: the
    # critical set is rejected before any orbit runs
    right = next(c for c in crits if c.coords[0] > 0.5)
    assert ("crit", right.ident) in lc.tag
    twin = dataclasses.replace(right, ident=99,
                               coords=(right.coords[0] + 1e-5, 0.0))
    _no_orbit(monkeypatch)
    with pytest.raises(flow.AmbiguousCaptureError) as err:
        _classify(fld, X0, crits + [twin], b, tols=tols)
    assert err.value.ids == [right.ident, 99]


def test_classify_next_to_a_critical_point_just_over_twice_the_radius():
    # a twin of the point (1, 0) on the x1 axis, just over twice the capture
    # radius from it: the orbits that run into (1, 0) along the axis cross
    # the twin's capture ball, too fast to be captured there
    fld, b, crits = _saddle_sheet_setup()
    tols = dataclasses.replace(DEFAULT, t_budget=2.0)
    right = next(c for c in crits if c.coords[0] > 0.5)
    gap = 2 * tols.capture_radius * (1 + 1e-6)
    twin = dataclasses.replace(right, ident=99,
                               coords=(right.coords[0] + gap, 0.0))
    x1 = np.array([-1.9, -1.3, -0.6, -2e-4, 3e-4, 0.4, 1.2, 1.7])
    X0 = np.vstack([np.tile(x1, 3), np.repeat([0.0, 0.3, -1e-3], x1.size)])
    lc, run = _classify(fld, X0, crits, b, tols=tols)
    with_twin, twin_run = _classify(fld, X0, crits + [twin], b, tols=tols)
    assert with_twin == lc
    assert with_twin.tag[x1.size - 2:x1.size] == (("crit", right.ident),) * 2
    assert {lab[0] for lab in with_twin.tag} == {"crit", "exit", "budget"}
    for j in range(X0.shape[1]):
        one, one_run = _classify(fld, X0[:, j:j + 1], crits + [twin], b,
                                 tols=tols)
        assert one.tag[0] == with_twin.tag[j]
        for r in (run, twin_run):
            assert one_run.t[0] == r.t[j]
            assert np.array_equal(one_run.x[:, 0], r.x[:, j])
            assert (one_run.steps[0], one_run.rejected[0]) == \
                (r.steps[j], r.rejected[j])


def test_classify_per_column_direction_equals_single_columns_bit_for_bit():
    # the saddle sheet's -grad f with every third column backward in time:
    # those run into the index-2 point at the origin or leave through
    # x1 = +-2
    fld, b, crits = _saddle_sheet_setup()
    tols = dataclasses.replace(DEFAULT, t_budget=2.0)
    scale = flow.field_scale(fld, b)
    x1 = np.array([-1.9, -1.3, -0.6, -2e-4, 3e-4, 0.4, 1.2, 1.7])
    X0 = np.vstack([np.tile(x1, 3), np.repeat([0.0, 0.3, -1e-3], x1.size)])
    n = X0.shape[1]
    direction = np.ones(n, dtype=int)
    direction[::3] = -1
    F = expr.compile_field(fld)
    lc, run = flow.classify_limit(F, X0, crits, b, tols.t_budget, scale,
                                  direction=direction, tols=tols)
    for d in np.unique(direction):
        assert {tag[0] for tag, dj in zip(lc.tag, direction) if dj == d} == \
            {"crit", "exit", "budget"}
    assert np.array_equal(np.sign(run.t), direction)
    # columns leave in different rounds, and some rounds reject the steps
    # of some columns only
    assert len(set(run.steps + run.rejected)) > 1
    assert 0 < np.count_nonzero(run.rejected) < n
    # a backward column is also, bit for bit, a forward column of +grad f
    up = expr.FieldDef(2, tuple(expr.neg(c) for c in fld.components))
    back = direction < 0
    up_lc, up_run = flow.classify_limit(
        expr.compile_field(up), X0[:, back], crits, b, tols.t_budget, scale,
        tols=tols)
    assert up_lc.tag == tuple(lc.tag[j] for j in np.flatnonzero(back))
    assert np.array_equal(-up_run.t, run.t[back])
    assert np.array_equal(up_run.x, run.x[:, back])
    for j in range(n):
        one, one_run = flow.classify_limit(
            F, X0[:, j:j + 1], crits, b, tols.t_budget, scale,
            direction=int(direction[j]), tols=tols)
        assert one.tag[0] == lc.tag[j]
        assert one_run.t[0] == run.t[j]
        assert np.array_equal(one_run.x[:, 0], run.x[:, j])
        assert (one_run.steps[0], one_run.rejected[0]) == \
            (run.steps[j], run.rejected[j])


def test_classify_raises_on_step_failure():
    fld, b, crits = _saddle_sheet_setup()
    X0 = np.array([[0.5, -0.5], [0.3, 0.0]])
    tols = dataclasses.replace(DEFAULT, max_steps=5)
    # every column fails with its own error, and nothing is raised
    lc, _ = _classify(fld, X0, crits, b, tols=tols)
    assert [kind for kind, _ in lc.tag] == ["failed", "failed"]
    errors = [err for _, err in lc.tag]
    assert errors[0] is not errors[1]
    for err in errors:
        assert type(err) is flow.IntegrationError
        assert "exceeded 5 steps" in str(err)
    # x' = -1/x1 reaches the singular line x1 = 0 at t = 1/2
    blowup = expr.parse_field(["-1/x1"], 1)
    wide = block.build_block(box=[(-2, 2)], spacing=0.5)
    lc, _ = _classify(blowup, np.array([[1.0, 1.5]]), [], wide, scale=1.0)
    assert [kind for kind, _ in lc.tag] == ["failed", "failed"]
    assert all(isinstance(err, flow.StepUnderflowError) for _, err in lc.tag)


# ---------------------------------------------------------------------------
# the batched stepper

def test_rejected_attempts_are_counted():
    # x' = -50 (x - 1) started next to its equilibrium: the tiny field value
    # makes the first step as long as the integration, far too long for the
    # stiff decay, so error control rejects it before stepping on
    fld = expr.parse_field(["-50*(x1 - 1)"], 1)
    traj = oracle.integrate(fld, (1.0 + 1e-9,), 1.0)
    assert traj.rejected > 0
    assert traj.steps == len(traj.ts) - 1
    assert abs(traj.terminal[0] - 1.0) < 1e-9


def test_domain_error_is_a_rejected_step():
    # x' = -sqrt(x) reaches 0 at t = 2 sqrt(x0); the first step is long
    # enough for its stages to go negative, where sqrt has no value
    fld = expr.parse_field(["-sqrt(x1)"], 1)
    traj = oracle.integrate(fld, (1e-6,), 1.9e-3)
    assert traj.rejected > 0
    assert traj.terminal[0] == pytest.approx((1e-3 - 0.95e-3) ** 2,
                                             rel=1e-6)


def test_numpy_backend_domain_error_is_a_rejected_step():
    # the same with log, evaluated as compiled columns: a stage at a
    # negative state is NaN and rejects the step instead of raising
    fld = expr.parse_field(["-sqrt(x1) + 0*log(x1)"], 1)
    F = expr.compile_field(fld)
    run = flow._dop853(F, np.array([[1e-6, 4e-6]]), 1, 1.9e-3,
                       DEFAULT.rtol, DEFAULT.atol, DEFAULT.max_steps)
    assert list(run.status) == [flow.DONE, flow.DONE]
    assert all(run.rejected > 0)
    assert run.x[0] == pytest.approx(
        [(1e-3 - 0.95e-3) ** 2, (2e-3 - 0.95e-3) ** 2], rel=1e-6)


def test_a_first_field_value_with_no_value_fails_without_a_warning():
    # a raw closure, as the certificate's interpolant is: inf * 0 is NaN
    # in the first column, and inf * 1 is inf in the second, already in the
    # first field value, which is evaluated under the same errstate as
    # every stage
    def F(X):
        return X + np.array([0.0, 1.0]) * np.inf

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = flow._dop853(F, np.array([[0.5, 0.5]]), 1, 1.0, DEFAULT.rtol,
                           DEFAULT.atol, DEFAULT.max_steps)
    assert list(run.status) == [flow.UNDERFLOW, flow.UNDERFLOW]


_PENDULUM = expr.parse_field(
    ["x2", "-sin(x1) - 0.3*x2 + 0.1*exp(-x1^2)*x2^3"], 2)


def _leave_disk(cols, t, x_old, x_new, f_new):
    return np.sum(x_new ** 2, axis=0) > 9.0


def _columns_and_singles(F, X0, direction, target, accepted=None):
    many = flow._dop853(F, X0, direction, target, DEFAULT.rtol,
                        DEFAULT.atol, 2000, accepted)
    ones = [flow._dop853(F, X0[:, j:j + 1], direction, target, DEFAULT.rtol,
                         DEFAULT.atol, 2000, accepted)
            for j in range(X0.shape[1])]
    return many, ones


def test_columns_equal_single_runs_bit_for_bit():
    # a damped pendulum with exp and integer powers: columns leave at
    # different rounds (disk exit, budget, step underflow at the singular
    # line of the second field), so the packed and the single-column runs
    # take different code paths
    F = expr.compile_field(_PENDULUM)
    rng = np.random.default_rng(7)
    X0 = rng.uniform(-3, 3, size=(2, 24))
    for direction in (1, -1):
        many, ones = _columns_and_singles(F, X0, direction, 7.5, _leave_disk)
        assert set(many.status) >= {flow.STOPPED, flow.DONE}
        for j, one in enumerate(ones):
            assert one.t[0] == many.t[j]
            assert np.array_equal(one.x[:, 0], many.x[:, j])
            assert (one.steps[0], one.rejected[0], one.status[0]) == \
                (many.steps[j], many.rejected[j], many.status[j])

    blowup = expr.compile_field(expr.parse_field(["-1/x1"], 1))
    many, ones = _columns_and_singles(blowup, np.array([[1.0, 3.0, -3.0]]),
                                      1, 2.0)
    assert list(many.status) == [flow.UNDERFLOW, flow.DONE, flow.DONE]
    for j, one in enumerate(ones):
        assert (one.t[0], one.x[0, 0], one.steps[0], one.rejected[0],
                one.status[0]) == (many.t[j], many.x[0, j], many.steps[j],
                                   many.rejected[j], many.status[j])


def test_per_column_targets_equal_single_runs_bit_for_bit():
    # the pendulum again, each column with its own end time: columns reach
    # their targets in different rounds, and some leave the disk first
    F = expr.compile_field(_PENDULUM)
    rng = np.random.default_rng(11)
    X0 = rng.uniform(-3, 3, size=(2, 16))
    T = rng.uniform(0.5, 7.5, size=16)
    # last, a batch with its own direction of time per column
    for direction in (1, -1, np.where(np.arange(16) % 3 == 0, -1, 1)):
        signs = np.broadcast_to(direction, (16,))

        def leave_disk(cols, t, x_old, x_new, f_new):
            # the times handed over are signed column by column
            assert np.array_equal(np.sign(t), signs[cols])
            return _leave_disk(cols, t, x_old, x_new, f_new)

        many = flow._dop853(F, X0, direction, T, DEFAULT.rtol, DEFAULT.atol,
                            2000, leave_disk)
        assert set(many.status) == {flow.STOPPED, flow.DONE}
        done = many.status == flow.DONE
        assert np.array_equal(signs[done] * many.t[done], T[done])
        for j in range(X0.shape[1]):
            one = flow._dop853(F, X0[:, j:j + 1], signs[j], T[j],
                               DEFAULT.rtol, DEFAULT.atol, 2000, _leave_disk)
            assert one.t[0] == many.t[j]
            assert np.array_equal(one.x[:, 0], many.x[:, j])
            assert (one.steps[0], one.rejected[0], one.status[0]) == \
                (many.steps[j], many.rejected[j], many.status[j])


def test_single_column_step_limit():
    fld = expr.parse_field(["x2", "-x1"], 2)
    F = expr.compile_field(fld)
    run = flow._dop853(F, np.array([[1.0], [0.0]]), 1, 100.0, DEFAULT.rtol,
                       DEFAULT.atol, 5)
    assert run.status[0] == flow.EXHAUSTED
    assert run.steps[0] + run.rejected[0] == 5
    with pytest.raises(flow.IntegrationError, match="exceeded 5 steps"):
        oracle.integrate(fld, (1.0, 0.0), 100.0,
                       tols=dataclasses.replace(DEFAULT, max_steps=5))


def test_a_zero_target_is_done_at_once():
    # a column with nothing to integrate ends at t = 0 with no attempt; the
    # others of its batch step as they would alone
    F = expr.compile_field(_PENDULUM)
    X0 = np.array([[1.0, 0.5, -1.0, 2.0], [0.0, 0.2, 0.3, -0.1]])
    T = np.array([0.0, 1.5, 0.0, 0.75])
    run = flow._dop853(F, X0, 1, T, DEFAULT.rtol, DEFAULT.atol,
                       DEFAULT.max_steps)
    assert list(run.status) == [flow.DONE] * 4
    assert list(run.t) == list(T)
    zero = T == 0.0
    assert np.array_equal(run.x[:, zero], X0[:, zero])
    assert not (run.steps[zero] + run.rejected[zero]).any()
    for j in np.flatnonzero(~zero):
        one = flow._dop853(F, X0[:, j:j + 1], 1, T[j], DEFAULT.rtol,
                           DEFAULT.atol, DEFAULT.max_steps)
        assert np.array_equal(one.x[:, 0], run.x[:, j])
        assert (one.steps[0], one.rejected[0]) == \
            (run.steps[j], run.rejected[j])
    # with no time budget every orbit is out of time, none has failed
    b = block.build_block(box=[(-4, 4), (-4, 4)], spacing=1.0)
    lc, _ = _classify(_PENDULUM, X0, [], b,
                      tols=dataclasses.replace(DEFAULT, t_budget=0))
    assert lc.tag == (("budget",),) * 4


# The nodes c_i of DOP853 as published, stage by stage; the input of the
# last stage is the solution, at c = 1.
_S6 = math.sqrt(6.0)
_NODES = (0.0, (6 - _S6) / 67.5, (6 - _S6) / 45, (6 - _S6) / 30,
          (6 + _S6) / 30, 1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0,
          1.0)


def test_tableau_rows_sum_to_the_nodes():
    assert len(flow._A) == len(_NODES) - 1 == 12
    for row, c in zip(flow._A, _NODES[1:]):
        assert math.fsum(a for _, a in row) == pytest.approx(c, abs=1e-14)


def test_tableau_weights_satisfy_the_quadrature_conditions():
    b = flow._A[-1]
    for q in range(1, 9):
        assert math.fsum(a * _NODES[j] ** (q - 1) for j, a in b) == \
            pytest.approx(1 / q, abs=1e-14)
    for e in (flow._E3, flow._E5):
        assert math.fsum(a for _, a in e) == pytest.approx(0.0, abs=1e-14)


def test_each_stage_folds_into_exactly_the_rows_that_use_it():
    # _attempt adds stage j to the rows of its slice with their weights; a
    # zero weight inside the slice would add 0 * K_j, a nan where K_j is
    # not finite, so the slice must hold exactly the nonzero weights
    assert len(flow._FOLD) == 12
    for j, (rows, w) in enumerate(flow._FOLD):
        want = [(r, a) for r, row in enumerate(flow._SUMS)
                for stage, a in row if stage == j]
        assert list(zip(range(rows.start, rows.stop), w.ravel())) == want
    # the field at the solution is the next step's stage 0, in no sum
    assert all(stage < 12 for row in flow._SUMS for stage, _ in row)


def _stage_sums(K, monkeypatch):
    """The 14 stage sums that ``_attempt`` forms from the stage values K,
    (13, m, n), as a (14, m, n) array.  A stub field returns K stage by
    stage; from X = 0 with dh = 1 the input of stage i + 1 is the sum of
    row i of _A itself, and the last input, the solution, that of the
    last row.  With rtol = 0 and atol = 1 the error norms read the two
    error rows unscaled."""
    m, n = K.shape[1:]
    inputs, errors = [], []
    stages = iter(K[1:])

    def F(X):
        inputs.append(X.copy())
        return next(stages)

    def sumsq(a):
        errors.append(a.copy())
        return np.zeros(n)

    monkeypatch.setattr(flow, "_sumsq", sumsq)
    xnew, fnew, _, finite = flow._attempt(
        F, np.zeros((m, n)), K[0], np.ones(n), np.ones(n), 0.0, 1.0)
    monkeypatch.undo()
    assert finite.all()
    assert np.array_equal(xnew, inputs[-1]) and np.array_equal(fnew, K[12])
    return np.stack(inputs + errors)


def test_stage_sums_add_term_by_term_for_every_batch_size(monkeypatch):
    # a reduction over the stage axis would add pairwise once that axis is
    # numpy's inner loop, as it is for one column of a 1-D field, so a
    # column's sum would depend on the batch it is in; widely spread
    # magnitudes make the order of the terms show
    rng = np.random.default_rng(3)
    for m in (1, 3):
        K = rng.normal(size=(13, m, 1000)) \
            * 10.0 ** rng.integers(-12, 12, size=(13, m, 1000))
        whole = _stage_sums(K, monkeypatch)
        for n in (1, 9):
            for j in range(0, 1000 - n, 97):
                part = _stage_sums(np.ascontiguousarray(K[:, :, j:j + n]),
                                   monkeypatch)
                assert np.array_equal(part, whole[:, :, j:j + n])
        for r, row in enumerate(flow._SUMS):
            for i, j in ((0, 0), (m - 1, 500), (0, 999)):
                s = row[0][1] * float(K[row[0][0], i, j])
                for stage, a in row[1:]:
                    s += a * float(K[stage, i, j])
                assert s == whole[r, i, j]
