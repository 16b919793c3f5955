"""One-orbit integration on ``expr.evaluate``: the reference that the
batched entry points of ``mcfhom.flow`` are tested against.

``integrate``, ``integrate_until`` and ``transport_frame_one`` drive
``flow._dopri5`` with a single column whose field and Jacobian are
evaluated point by point with Python floats by the tree walk
``expr.evaluate``, not by compiled code, and record every accepted step.
A domain error of the tree walk is raised as ValueError, which
``_dopri5`` takes as a rejected step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mcfhom import expr, flow
from mcfhom.config import DEFAULT


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


def _point_function(exprs, lam):
    """The Exprs ``exprs`` at one point (1-D state in, list out) by
    ``expr.evaluate``, with a domain error raised as ValueError."""
    def F1(x):
        try:
            return [expr.evaluate(e, x, lam) for e in exprs]
        except expr.EvalDomainError as exc:
            raise ValueError(str(exc)) from exc
    return F1


def _single(F1):
    """A one-point function ``F1(x)`` (1-D state in, sequence out) as the
    (m, 1) column function ``_dopri5`` expects."""
    def F(X):
        return np.array(F1(X[:, 0]), dtype=float)[:, None]
    return F


def _raise_failure(run, max_steps):
    err = flow._failure(run, max_steps, 0)
    if err is not None:
        raise err


def integrate(fieldd, x0, T, rtol=None, atol=None, lam=None, tols=DEFAULT):
    """Integrate x' = X(x) from x0 over signed duration T."""
    rtol = tols.rtol if rtol is None else rtol
    atol = tols.atol if atol is None else atol
    x = np.asarray(x0, dtype=float)
    traj = Trajectory([0.0], [x.copy()])
    if T == 0.0:
        return traj
    F1 = _point_function(fieldd.components, lam)
    direction = 1 if T > 0 else -1

    def record(cols, t, x_old, x_new, f_new):
        traj.ts.append(float(t[0]))
        traj.xs.append(x_new[:, 0].copy())

    run = flow._dopri5(_single(F1), x[:, None], direction,
                       abs(T), rtol, atol, tols.max_steps, record)
    _raise_failure(run, tols.max_steps)
    traj.steps, traj.rejected = int(run.steps[0]), int(run.rejected[0])
    return traj


def integrate_until(fieldd, x0, stop, t_max, direction=1, lam=None,
                    tols=DEFAULT):
    """Integrate until ``stop(t, x_prev, x) -> truthy`` or |t| reaches t_max.

    Returns (trajectory, stop_value).  stop_value is None on budget end.
    The stop callback sees the signed time and the endpoints of the step
    just taken.
    """
    F1 = _point_function(fieldd.components, lam)
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

    run = flow._dopri5(_single(F1), x[:, None], direction,
                       t_max, tols.rtol, tols.atol, tols.max_steps, record)
    _raise_failure(run, tols.max_steps)
    traj.steps, traj.rejected = int(run.steps[0]), int(run.rejected[0])
    return traj, (hit[0] if run.status[0] == flow.STOPPED else None)


def transport_frame_one(fieldd, x0, T, frame, lam=None, tols=DEFAULT):
    """Transport the tangent vectors ``frame`` along the orbit of x0 over
    the duration T > 0, renormalizing them after each accepted step.
    Returns (transported frame, terminal x)."""
    m = fieldd.dimension
    V = [np.asarray(v, dtype=float) for v in frame]
    kf = len(V)
    F = _point_function(fieldd.components, lam)
    J = _point_function([e for row in expr.jacobian(fieldd) for e in row],
                        lam)

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
    run = flow._dopri5(_single(G), z0[:, None], 1, T, tols.rtol, tols.atol,
                       tols.max_steps, renormalize)
    _raise_failure(run, tols.max_steps)
    z = run.x[:, 0]
    return [z[m + i * m: m + (i + 1) * m].copy() for i in range(kf)], z[:m]
