"""One-orbit integration on ``expr.evaluate``: the reference that the
batched entry points of ``mcfhom.flow`` are tested against.

``integrate``, ``integrate_until`` and ``transport_frame_one`` drive
``flow._dop853`` with a single column whose field and Jacobian are
evaluated point by point with Python floats by the tree walk
``expr.evaluate``, not by compiled code, and record every accepted step.
A domain error of the tree walk is raised as ValueError, which
``_dop853`` takes as a rejected step.

``transport_frame_one`` and ``orientation_det`` are the sign oracle of the
circle witnesses of ``mcfhom.morse``: the unstable frame of the source
carried along the witness orbit, and its orientation against the flow
direction and the unstable frame of the target.

Capture at a critical point has two references.  ``classify_by_speed`` is
the step-end rule that ``flow.classify_limit`` used before it decided
capture in charts: a column is captured once a step end lies within
``SPEED_CAPTURE_RADIUS`` of a critical point and its speed there is below
the speed tolerance, deep in the point's linear region.  ``chart_stop`` is
the chart rule of ``classify_limit`` for one orbit, point by point, with
the radii of ``chart_radii`` and the least linear speed of
``least_speed``, a golden-section search on the convex log of the squared
speed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import block_oracle
from mcfhom import expr, flow
from mcfhom.config import DEFAULT

# the capture radius of the step-end rule
SPEED_CAPTURE_RADIUS = 1e-4


@dataclass
class Trajectory:
    ts: list
    xs: list  # list of np arrays
    steps: int = 0
    rejected: int = 0  # attempts rejected by error control or a bad stage

    @property
    def terminal(self):
        return self.xs[-1]

    @property
    def duration(self):
        return self.ts[-1] - self.ts[0]


def _point_function(exprs):
    """The Exprs ``exprs`` at one point (1-D state in, list out) by
    ``expr.evaluate``, with a domain error raised as ValueError."""
    def F1(x):
        try:
            return [expr.evaluate(e, x) for e in exprs]
        except expr.EvalDomainError as exc:
            raise ValueError(str(exc)) from exc
    return F1


def _single(F1):
    """A one-point function ``F1(x)`` (1-D state in, sequence out) as the
    (m, 1) column function ``_dop853`` expects."""
    def F(X):
        return np.array(F1(X[:, 0]), dtype=float)[:, None]
    return F


def _raise_failure(run, max_steps):
    err = flow._failure(run, max_steps, 0)
    if err is not None:
        raise err


def integrate(fieldd, x0, T, rtol=None, atol=None, tols=DEFAULT):
    """Integrate x' = X(x) from x0 over signed duration T."""
    rtol = tols.rtol if rtol is None else rtol
    atol = tols.atol if atol is None else atol
    x = np.asarray(x0, dtype=float)
    traj = Trajectory([0.0], [x.copy()])
    if T == 0.0:
        return traj
    F1 = _point_function(fieldd.components)
    direction = 1 if T > 0 else -1

    def record(cols, t, x_old, x_new, f_new):
        traj.ts.append(float(t[0]))
        traj.xs.append(x_new[:, 0].copy())

    run = flow._dop853(_single(F1), x[:, None], direction,
                       abs(T), rtol, atol, tols.max_steps, record)
    _raise_failure(run, tols.max_steps)
    traj.steps, traj.rejected = int(run.steps[0]), int(run.rejected[0])
    return traj


def integrate_until(fieldd, x0, stop, t_max, direction=1, tols=DEFAULT):
    """Integrate until ``stop(t, x_prev, x) -> truthy`` or |t| reaches t_max.

    Returns (trajectory, stop_value).  stop_value is None on budget end.
    The stop callback sees the signed time and the endpoints of the step
    just taken.
    """
    F1 = _point_function(fieldd.components)
    x = np.asarray(x0, dtype=float)
    traj = Trajectory([0.0], [x.copy()])
    hit = [None]

    def record(cols, t, x_old, x_new, f_new):
        prev = traj.xs[-1]
        xn = x_new[:, 0].copy()
        traj.ts.append(float(t[0]))
        traj.xs.append(xn)
        hit[0] = stop(traj.ts[-1], prev, xn)
        return bool(hit[0])

    run = flow._dop853(_single(F1), x[:, None], direction,
                       t_max, tols.rtol, tols.atol, tols.max_steps, record)
    _raise_failure(run, tols.max_steps)
    traj.steps, traj.rejected = int(run.steps[0]), int(run.rejected[0])
    return traj, (hit[0] if run.status[0] == flow.STOPPED else None)


def transport_frame_one(fieldd, x0, T, frame, tols=DEFAULT):
    """Transport the tangent vectors ``frame`` along the orbit of x0 over
    the duration T > 0, renormalizing them after each accepted step.
    Returns (transported frame, terminal x)."""
    m = fieldd.dimension
    V = [np.asarray(v, dtype=float) for v in frame]
    kf = len(V)
    F = _point_function(fieldd.components)
    J = _point_function(expr.jacobian(fieldd).components)

    def G(z):
        out = np.empty_like(z)
        out[:m] = F(z[:m])
        Jx = np.array(J(z[:m]), dtype=float).reshape(m, m)
        for i in range(kf):
            seg = slice(m + i * m, m + (i + 1) * m)
            out[seg] = Jx @ z[seg]
        return out

    def renormalize(cols, t, z_old, z, f):
        for i in range(kf):
            seg = z[m + i * m: m + (i + 1) * m, 0]
            nrm = float(np.linalg.norm(seg))
            seg /= nrm
            f[m + i * m: m + (i + 1) * m, 0] /= nrm

    z0 = np.concatenate([np.asarray(x0, dtype=float)] + V)
    run = flow._dop853(_single(G), z0[:, None], 1, T, tols.rtol, tols.atol,
                       tols.max_steps, renormalize)
    _raise_failure(run, tols.max_steps)
    z = run.x[:, 0]
    return [z[m + i * m: m + (i + 1) * m].copy() for i in range(kf)], z[:m]


def orientation_det(W, v_flow, frame):
    """The orientation of a connecting orbit from its transported frame W,
    k vectors of length m as rows, and the flow direction ``v_flow`` at its
    end point: the determinant of W in the basis of the unit flow direction
    and the k - 1 vectors ``frame``, the unstable frame of its target,
    solved for by least squares.  Its sign is the orbit's sign."""
    B = np.column_stack([v_flow / np.linalg.norm(v_flow), *frame])
    C, *_ = np.linalg.lstsq(B, np.asarray(W, dtype=float).T, rcond=None)
    return float(np.linalg.det(C))


def classify_by_speed(F, X0, crits, b, t_end, scale, direction=1,
                      tols=DEFAULT):
    """The labels of the columns of X0 under the step-end rule, as one
    ``flow._dop853`` batch on the compiled field ``F``: after each accepted
    step a column has exited once its new point lies outside the block, and
    is captured at the critical point within ``SPEED_CAPTURE_RADIUS`` once
    its speed is below ``tols.speed_tol_factor`` * ``scale``.  The critical
    points must lie more than twice the radius apart.  Returns the labels
    and the ``flow._Run``, as ``flow.classify_limit`` does."""
    X0 = np.asarray(X0, dtype=float)
    coords = np.array([c.coords for c in crits], dtype=float)
    speed_tol = tols.speed_tol_factor * scale
    captor = np.full(X0.shape[1], -1)

    def stop(cols, t, x_old, X, f_new):
        out = ~b.contains_columns(X)
        slow = np.flatnonzero(~out & (np.linalg.norm(f_new, axis=0)
                                      < speed_tol))
        if slow.size:
            dist = np.linalg.norm(X[:, slow].T[None] - coords[:, None],
                                  axis=2)  # (critical points, slow)
            hit = dist.min(axis=0) < SPEED_CAPTURE_RADIUS
            captor[cols[slow[hit]]] = np.argmin(dist[:, hit], axis=0)
            out[slow[hit]] = True
        return out

    run = flow._dop853(F, X0, direction, t_end, tols.rtol, tols.atol,
                       tols.max_steps, stop)
    tags = []
    for j in range(X0.shape[1]):
        err = flow._failure(run, tols.max_steps, j)
        tags.append(("failed", err) if err is not None
                    else ("budget",) if run.status[j] == flow.DONE
                    else ("exit",) if captor[j] < 0
                    else ("crit", crits[captor[j]].ident))
    return tags, run


def least_speed(a, mu):
    """min over tau >= 0 of sqrt(sum_i a_i exp(2 mu_i tau)) for one 1-D a
    and mu: 0 with no growing term; otherwise a golden-section search of
    the convex log of the sum on [0, T], T doubled from 1e-3 until the sum
    no longer falls there."""
    a, mu = np.asarray(a, dtype=float), np.asarray(mu, dtype=float)
    if not np.any((mu > 0) & (a > 0)):
        return 0.0
    keep = a > 0
    la, rate = np.log(a[keep]), 2.0 * mu[keep]

    def log_g(t):
        return float(np.logaddexp.reduce(la + rate * t))

    def slope(t):  # the derivative of log g
        w = np.exp(la + rate * t - log_g(t))
        return float(np.sum(rate * w))

    if slope(0.0) >= 0:
        return math.sqrt(float(np.sum(a)))
    lo, hi = 0.0, 1e-3
    while slope(hi) < 0:
        lo, hi = hi, 2 * hi
    r = (math.sqrt(5) - 1) / 2
    for _ in range(200):
        m1, m2 = hi - r * (hi - lo), lo + r * (hi - lo)
        if log_g(m1) < log_g(m2):
            hi = m2
        else:
            lo = m1
    return math.exp(0.5 * log_g(0.5 * (lo + hi)))


def chart_radii(crits, b):
    """The chart radius of each critical point: a tenth of its distance to
    the nearest other one or to the nearest side of the block's bounding
    box, and 0 outside the box."""
    lo, hi = b.bounding_box()
    radii = []
    for c in crits:
        edge = min(min(x - l, h - x) for x, l, h in zip(c.coords, lo, hi))
        near = [math.dist(c.coords, o.coords) for o in crits if o is not c]
        radii.append(0.1 * max(0.0, min(near + [edge])))
    return radii


def chart_stop(crits, b, speed_tol, direction=1):
    """A stop for ``integrate_until`` that applies the chart rule of
    ``flow.classify_limit`` to one orbit: ("exit",) at the first point
    outside the block; otherwise, at a point in the ball of q where the
    last step end was not, ("crit", q.ident) if the least future speed of
    q's linear flow from there is below ``speed_tol``."""
    radii = chart_radii(crits, b)
    last = [None]

    def stop(t, x_prev, x):
        if not block_oracle.contains(b, x):
            return ("exit",)
        ball = next((c for c, r in zip(crits, radii)
                     if math.dist(x, c.coords) < r), None)
        entered = ball is not None and ball is not last[0]
        last[0] = ball
        if entered:
            basis = np.column_stack(ball.frame + ball.stable)
            y = basis.T @ (np.asarray(x) - np.asarray(ball.coords))
            mu = -direction * np.asarray(ball.eigenvalues)
            if least_speed((mu * y) ** 2, mu) < speed_tol:
                return ("crit", ball.ident)
        return None

    return stop
