"""Integrator, frame transport, and orbit limit classification."""
import dataclasses
import math
import types

import numpy as np
import pytest

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
# frame transport

def _transport(fld, x0, T, frame):
    """One orbit through the batched transport: (vectors, end point)."""
    W, X = flow.transport_frame(fld, np.asarray(x0, dtype=float)[:, None], T,
                                np.array(frame, dtype=float)[:, :, None])
    return list(W[:, :, 0]), X[:, 0]

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


def _frames(*cols):
    """(k, m, N) frames from N lists of k vectors."""
    return np.stack([np.array(c, dtype=float) for c in cols], axis=-1)


def test_batched_transport_matches_one_column_runs():
    # each column of a batch equals its one-column run bit for bit, and
    # the expr.evaluate reference up to the orientation of its frame; with
    # a polynomial field the arithmetic differs only in the order of the
    # Jacobian-vector sums, so the frames agree to rounding as well
    poly = expr.negative_gradient(
        expr.parse("(x1^2 - 1)^2 + (x2^2 - 1)^2", 2), 2)
    trig = expr.parse_field(["x2", "-sin(x1) - 0.3*x2"], 2)
    rng = np.random.default_rng(5)
    for fld in (poly, trig):
        for k in (1, 2):
            X0 = rng.uniform(-0.9, 0.9, size=(2, 4))
            T = rng.uniform(0.2, 1.5, size=4)
            frames = rng.standard_normal((k, 2, 4))
            W, X = flow.transport_frame(fld, X0, T, frames)
            for j in range(4):
                Wj, Xj = flow.transport_frame(fld, X0[:, [j]], T[j],
                                              frames[:, :, [j]])
                assert np.array_equal(Wj[:, :, 0], W[:, :, j])
                assert np.array_equal(Xj[:, 0], X[:, j])
                ref, xr = oracle.transport_frame_one(fld, X0[:, j], T[j],
                                                     frames[:, :, j])
                assert np.linalg.det(np.array(ref) @ W[:, :, j].T) > 0
                if fld is poly:
                    assert np.abs(W[:, :, j] - ref).max() < 1e-12
                    assert np.abs(X[:, j] - xr).max() < 1e-12


def test_batched_transport_raises_for_the_first_bad_column():
    # x1 grows while x2 decays ten times as fast: the vectors (1, +-1) turn
    # towards the x1 axis, and by t = 2 their frame has condition ~ e^22
    fld = expr.parse_field(["x1", "-10*x2"], 2)
    good = [[1.0, 0.0], [0.0, 1.0]]
    pinch = [[1.0, 1.0], [1.0, -1.0]]
    dependent = [[1.0, 1.0], [2.0, 2.0]]
    X0 = np.full((2, 3), 0.1)
    W, X = flow.transport_frame(fld, X0, [0.5, 0.5, 0.0],
                                _frames(good, pinch, good[::-1]))
    assert np.array_equal(W[:, :, 2], good[::-1])  # zero duration
    assert np.array_equal(X[:, 2], X0[:, 2])
    for frames, T, match in (
            ((good, pinch, dependent), [0.5, 2.0, 2.0], "condition"),
            ((good, dependent, pinch), [0.5, 0.5, 2.0], "dependent")):
        with pytest.raises(flow.FrameDegenerateError, match=match) as err:
            flow.transport_frame(fld, X0, T, _frames(*frames))
        assert err.value.column == 1
    # x1' = -1/x1 reaches the singular line x1 = 0 at t = 1/2 from x1 = 1
    blowup = expr.parse_field(["-1/x1", "-10*x2"], 2)
    with pytest.raises(flow.StepUnderflowError) as err:
        flow.transport_frame(blowup, np.array([[3.0, 1.0, 3.0],
                                               [0.1, 0.1, 0.1]]),
                             [2.0, 2.0, 2.0], _frames(good, good, pinch))
    assert err.value.column == 1


def test_transport_rejects_dependent_frame():
    fld = expr.parse_field(["x1", "-x2"], 2)
    with pytest.raises(flow.FrameDegenerateError):
        _transport(fld, (0.1, 0.1), 1.0,
                             [np.array([1.0, 0.0]), np.array([2.0, 0.0])])


# ---------------------------------------------------------------------------
# limit classification

def _double_well_setup():
    f = expr.parse("(x1^2 - 1)^2 + x2^2", 2)
    fld = expr.negative_gradient(f, 2)
    b = block.build_block(box=[(-2, 2), (-2, 2)], spacing=0.5)
    crits = morse.find_critical_points(f, b)
    return f, fld, b, crits


def _captor(lc, crits, j=0):
    assert lc.tag[j] == "converged"
    return crits[[c.ident for c in crits].index(lc.crit_id[j])]


def test_classify_converges_to_nearest_minimum():
    _, fld, b, crits = _double_well_setup()
    lc, _ = flow.classify_limit(fld, np.array([[0.5], [0.3]]), crits, b)
    assert _captor(lc, crits).coords == pytest.approx((1.0, 0.0), abs=1e-6)


def test_classify_stable_manifold_of_saddle():
    _, fld, b, crits = _double_well_setup()
    lc, _ = flow.classify_limit(fld, np.array([[0.0], [0.7]]), crits, b)
    assert _captor(lc, crits).coords == pytest.approx((0.0, 0.0), abs=1e-6)


def test_classify_exit_face():
    fld = expr.parse_field(["1"], 1)
    b = block.build_block(box=[(0, 1)], spacing=0.5)
    lc, run = flow.classify_limit(fld, np.array([[0.5]]), [], b)
    assert lc.tag == ("exited",) and lc.crit_id == (-1,)
    assert not b.contains(run.x[:, 0])
    # outside the block, beyond its x1 = 1 side
    assert run.x[0, 0] > 1.0


def test_classify_exit_is_tested_before_capture():
    # a slow critical point placed on the first point outside the block:
    # the column still counts as exited
    fld = expr.parse_field(["1"], 1)
    b = block.build_block(box=[(0, 1)], spacing=0.5)
    _, run = flow.classify_limit(fld, np.array([[0.5]]), [], b)
    crit = types.SimpleNamespace(ident=7, coords=tuple(run.x[:, 0]))
    lc, again = flow.classify_limit(fld, np.array([[0.5]]), [crit], b,
                                    scale=1e7)
    assert lc.tag == ("exited",) and again.t[0] == run.t[0]
    lc, _ = flow.classify_limit(fld, np.array([[0.5]]), [crit],
                                block.build_block(box=[(0, 2)], spacing=0.5),
                                scale=1e7)
    assert lc.tag == ("converged",) and lc.crit_id == (7,)


def test_classify_budget_exceeded():
    fld = expr.parse_field(["0"], 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    lc, run = flow.classify_limit(fld, np.array([[0.5]]), [], b)
    assert lc.tag == ("budget",)
    assert run.t[0] == DEFAULT.t_budget


def test_ambiguous_capture_error():
    f = expr.parse("x1^2/2", 1)
    fld = expr.negative_gradient(f, 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    c0 = morse.find_critical_points(f, b)[0]
    twin = dataclasses.replace(c0, ident=1, coords=(1e-6,))
    lc, _ = flow.classify_limit(fld, np.array([[0.5]]), [c0, twin], b)
    assert lc.tag == ("failed",) and lc.crit_id == (-1,)
    assert isinstance(lc.errors[0], flow.AmbiguousCaptureError)
    assert lc.errors[0].ids == [c0.ident, 1]


def _saddle_sheet_setup():
    # -grad of (x1^2 - 1)^2 - x2^2 on [-2, 2]^2: orbits on the x1 axis run
    # into the index-1 points (+-1, 0), all others leave through x2 = +-2
    f = expr.parse("(x1^2 - 1)^2 - x2^2", 2)
    fld = expr.negative_gradient(f, 2)
    b = block.build_block(box=[(-2, 2), (-2, 2)], spacing=0.5)
    return fld, b, morse.find_critical_points(f, b)


def test_classify_columns_equal_single_columns_bit_for_bit():
    fld, b, crits = _saddle_sheet_setup()
    # with t = 2 the orbits that start next to the index-2 point at the
    # origin are still on their way
    tols = dataclasses.replace(DEFAULT, t_budget=2.0)
    x1 = np.array([-1.9, -1.3, -0.6, -2e-4, 3e-4, 0.4, 1.2, 1.7])
    X0 = np.vstack([np.tile(x1, 3), np.repeat([0.0, 0.3, -1e-3], x1.size)])
    lc, run = flow.classify_limit(fld, X0, crits, b, tols=tols)
    assert set(lc.tag) == {"converged", "exited", "budget"}

    # reference: each orbit alone through integrate_until (expr.evaluate),
    # stopped by the point tests contains, capture radius, then speed
    speed_tol = tols.speed_tol_factor * flow.field_scale(fld, b)
    coords = np.array([c.coords for c in crits])

    def stop(t, x_prev, x):
        if not b.contains(x):
            return ("exited", -1)
        near = np.flatnonzero(np.linalg.norm(x - coords, axis=1)
                              < tols.capture_radius)
        v = [expr.evaluate(c, x) for c in fld.components]
        if len(near) == 1 and np.linalg.norm(v) < speed_tol:
            return ("converged", crits[near[0]].ident)
        return None

    for j in range(X0.shape[1]):
        one, one_run = flow.classify_limit(fld, X0[:, j:j + 1], crits, b,
                                           tols=tols)
        assert (one.tag[0], one.crit_id[0]) == (lc.tag[j], lc.crit_id[j])
        assert one_run.t[0] == run.t[j]
        assert np.array_equal(one_run.x[:, 0], run.x[:, j])
        assert (one_run.steps[0], one_run.rejected[0]) == \
            (run.steps[j], run.rejected[j])
        traj, sv = oracle.integrate_until(fld, X0[:, j], stop, tols.t_budget,
                                        tols=tols)
        assert (lc.tag[j], lc.crit_id[j]) == (sv or ("budget", -1))
        assert run.t[j] == traj.ts[-1] and run.steps[j] == traj.steps
        assert np.array_equal(run.x[:, j], traj.xs[-1])

    # a twin of the point (1, 0) makes the columns that run into it
    # ambiguous: each fails as its single column does, and the other
    # columns keep their labels
    right = next(c for c in crits if c.coords[0] > 0.5)
    twin = dataclasses.replace(right, ident=99,
                               coords=(right.coords[0] + 1e-5, 0.0))
    amb, amb_run = flow.classify_limit(fld, X0, crits + [twin], b, tols=tols)
    assert right.ident in lc.crit_id
    for j in range(X0.shape[1]):
        one, one_run = flow.classify_limit(fld, X0[:, j:j + 1],
                                           crits + [twin], b, tols=tols)
        assert (one.tag[0], one.crit_id[0]) == (amb.tag[j], amb.crit_id[j])
        assert one_run.t[0] == amb_run.t[j]
        if lc.crit_id[j] == right.ident:
            assert amb.tag[j] == "failed"
            assert amb.errors[j].ids == one.errors[0].ids == [right.ident, 99]
        else:
            assert (amb.tag[j], amb.crit_id[j], amb.errors[j]) == \
                (lc.tag[j], lc.crit_id[j], None)
            assert amb_run.t[j] == run.t[j]


def test_classify_raises_on_step_failure():
    fld, b, crits = _saddle_sheet_setup()
    X0 = np.array([[0.5, -0.5], [0.3, 0.0]])
    tols = dataclasses.replace(DEFAULT, max_steps=5)
    # every column fails with its own error, and nothing is raised
    lc, _ = flow.classify_limit(fld, X0, crits, b, tols=tols)
    assert lc.tag == ("failed", "failed") and lc.crit_id == (-1, -1)
    for j, err in enumerate(lc.errors):
        assert type(err) is flow.IntegrationError and err.column == j
        assert "exceeded 5 steps" in str(err)
    # x' = -1/x1 reaches the singular line x1 = 0 at t = 1/2
    blowup = expr.parse_field(["-1/x1"], 1)
    wide = block.build_block(box=[(-2, 2)], spacing=0.5)
    lc, _ = flow.classify_limit(blowup, np.array([[1.0, 1.5]]), [], wide,
                                scale=1.0)
    assert lc.tag == ("failed", "failed")
    assert all(isinstance(err, flow.StepUnderflowError) for err in lc.errors)


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
    run = flow._dopri5(F, np.array([[1e-6, 4e-6]]), 1, 1.9e-3,
                       DEFAULT.rtol, DEFAULT.atol, DEFAULT.max_steps)
    assert list(run.status) == [flow.DONE, flow.DONE]
    assert all(run.rejected > 0)
    assert run.x[0] == pytest.approx(
        [(1e-3 - 0.95e-3) ** 2, (2e-3 - 0.95e-3) ** 2], rel=1e-6)


_PENDULUM = expr.parse_field(
    ["x2", "-sin(x1) - 0.3*x2 + 0.1*exp(-x1^2)*x2^3"], 2)


def _leave_disk(cols, t, x_old, x_new, f_new):
    return np.sum(x_new ** 2, axis=0) > 9.0


def _columns_and_singles(F, X0, direction, target, accepted=None):
    many = flow._dopri5(F, X0, direction, target, DEFAULT.rtol,
                        DEFAULT.atol, 2000, accepted)
    ones = [flow._dopri5(F, X0[:, j:j + 1], direction, target, DEFAULT.rtol,
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
    for direction in (1, -1):
        many = flow._dopri5(F, X0, direction, T, DEFAULT.rtol, DEFAULT.atol,
                            2000, _leave_disk)
        assert set(many.status) == {flow.STOPPED, flow.DONE}
        done = many.status == flow.DONE
        assert np.array_equal(direction * many.t[done], T[done])
        for j in range(X0.shape[1]):
            one = flow._dopri5(F, X0[:, j:j + 1], direction, T[j],
                               DEFAULT.rtol, DEFAULT.atol, 2000, _leave_disk)
            assert one.t[0] == many.t[j]
            assert np.array_equal(one.x[:, 0], many.x[:, j])
            assert (one.steps[0], one.rejected[0], one.status[0]) == \
                (many.steps[j], many.rejected[j], many.status[j])


def test_single_column_step_limit():
    fld = expr.parse_field(["x2", "-x1"], 2)
    F = expr.compile_field(fld)
    run = flow._dopri5(F, np.array([[1.0], [0.0]]), 1, 100.0, DEFAULT.rtol,
                       DEFAULT.atol, 5)
    assert run.status[0] == flow.EXHAUSTED
    assert run.steps[0] + run.rejected[0] == 5
    with pytest.raises(flow.IntegrationError, match="exceeded 5 steps"):
        oracle.integrate(fld, (1.0, 0.0), 100.0,
                       tols=dataclasses.replace(DEFAULT, max_steps=5))
