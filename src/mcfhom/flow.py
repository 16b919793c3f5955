"""Numerical integration of flows, frame transport, and limit classification.

One embedded Dormand-Prince 5(4) stepper with PI step-size control,
``_dopri5``, advances an (m, N) state: N orbits side by side, each column
with its own time, step size, controller history and attempt count.  A
single orbit is the case N = 1: ``integrate``, ``integrate_until`` and
``transport_frame`` drive it with one column, while ``integrate_columns``
and ``classify_limit`` run a whole batch.  ``classify_limit`` labels the
orbits of N start points in one run, with a column-wise stop test (left
the block, captured at a critical point) after every round; an exit is
reported by the first point reached outside the block, with no bisection
onto the boundary.  All downstream orbit decisions (connection counting,
isolation) sit on top of these entry points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .config import DEFAULT


class IntegrationError(Exception):
    pass


class StepUnderflowError(IntegrationError):
    def __init__(self, t, x):
        super().__init__(
            f"step size underflow at t={t!r}, x={list(x)!r} (stiffness?)")
        self.t = t
        self.x = x


class FrameDegenerateError(IntegrationError):
    pass


class AmbiguousCaptureError(Exception):
    def __init__(self, point, ids):
        super().__init__(
            f"point {list(point)!r} lies within capture radius of critical "
            f"points {ids}; decrease the capture radius")
        self.ids = ids


# Dormand-Prince 5(4) tableau.  Each row is kept as (stages, coefficients)
# of its nonzero entries: stage i uses _A[i], the solution _B5, the error _E.
def _nonzero(row):
    idx = [j for j, a in enumerate(row) if a != 0.0]
    coef = np.array([row[j] for j in idx])[:, None, None]
    if idx == list(range(idx[0], idx[-1] + 1)):
        return slice(idx[0], idx[-1] + 1), coef  # selected without a copy
    return np.array(idx), coef


_A = (None,) + tuple(_nonzero(row) for row in (
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
))
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
_E = _nonzero([b5 - b4 for b5, b4 in zip(_B5, _B4)])
_B5 = _nonzero(_B5)

# column outcomes of _dopri5; 0 while a column is still running
DONE, STOPPED, UNDERFLOW, EXHAUSTED = 1, 2, 3, 4


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


@dataclass
class _Run:
    """Per-column result of ``_dopri5``: signed end time, end state
    (m, N), accepted and rejected attempts, and outcome code."""

    t: np.ndarray
    x: np.ndarray
    steps: np.ndarray
    rejected: np.ndarray
    status: np.ndarray


def _combine(row, K):
    """sum_j row_j K[j] over the nonzero entries, added in stage order."""
    stages, coef = row
    return np.add.reduce(coef * K[stages], axis=0)


def _rows(a):
    """Each column of a as a contiguous row, so that reductions over a
    column add in the same order as over a 1-D vector."""
    return np.ascontiguousarray(a.T)


def _norms(a):
    r = _rows(a)
    return np.sqrt(np.vecdot(r, r))


# The controller uses np.float_power, which calls the C library's pow like
# Python's float **; np.power may use SIMD approximations whose last bit
# differs from one CPU to another.
def _grow(err, errprev):
    """PI step-size factor after an accepted step."""
    fac = 0.9 * np.float_power(err + 1e-30, -0.7 / 5) \
        * np.float_power(errprev, 0.4 / 5)
    return np.fmin(5.0, np.fmax(0.2, fac))


def _shrink(err):
    """Step-size factor after a step rejected by error control."""
    return np.fmin(1.0, np.fmax(0.1, 0.9 * np.float_power(err, -1.0 / 5)))


def _dopri5(F, x0, direction, target, rtol, atol, max_steps, accepted=None):
    """Advance every column of the (m, N) state x0 from t = 0 until
    |t| = target.

    ``F`` maps an (m, n) array of states to their derivatives.  A stage
    that is not finite, or for which F raises ValueError, ZeroDivisionError
    or OverflowError, rejects the step of its column with h *= 0.25.
    ``accepted(cols, t, x_old, x_new, f_new)``, if given, is called after
    each round for the columns ``cols`` (indices into x0) whose step was
    accepted, with their signed times, old and new states and the field at
    the new states; it may rescale ``x_new`` and ``f_new`` in place, and
    returns True for each column that stops there.  A column also leaves
    once it reaches the target, its step underflows or it has made
    ``max_steps`` attempts.

    The running columns are kept packed: a column that leaves is written to
    the result and dropped from the working arrays, so a round works on
    whole arrays.  Fancy indexing is needed only in a round where columns
    leave, or where some but not all steps are accepted; a single orbit
    needs it only once, when it ends.  Reductions over a column add in the
    order they would over a 1-D vector, so every column steps exactly as it
    would alone.
    """
    m, n = x0.shape
    out = _Run(np.zeros(n), np.array(x0, dtype=float), np.zeros(n, int),
               np.zeros(n, int), np.zeros(n, int))
    cols = np.arange(n)
    X = out.x.copy()
    f0 = F(X)
    t = np.zeros(n)
    h = np.minimum(np.minimum(1e-2 * (_norms(X) + 1.0)
                              / (_norms(f0) + 1e-30), 1.0), target)
    errprev = np.ones(n)
    attempts = np.zeros(n, dtype=int)
    steps = np.zeros(n, dtype=int)
    rejected = np.zeros(n, dtype=int)
    code = np.where(attempts >= max_steps, EXHAUSTED,
                    np.where(h >= 1e-14, 0, UNDERFLOW))
    K = np.empty((7, m, n))
    with np.errstate(all="ignore"):
        while True:
            if code.any():
                gone = code != 0
                c = cols[gone]
                out.t[c], out.x[:, c], out.steps[c] = t[gone], X[:, gone], \
                    steps[gone]
                out.rejected[c], out.status[c] = rejected[gone], code[gone]
                keep = ~gone
                cols, X, f0, t, h, errprev = (cols[keep], X[:, keep],
                                              f0[:, keep], t[keep],
                                              h[keep], errprev[keep])
                attempts, steps, rejected = (attempts[keep], steps[keep],
                                             rejected[keep])
                K = np.empty((7, m, cols.size))
            if not cols.size:
                break
            hc = np.minimum(h, target - t)
            dh = direction * hc
            K[0] = f0
            try:
                for i in range(1, 7):
                    K[i] = F(X + dh * _combine(_A[i], K))
            except (ValueError, ZeroDivisionError, OverflowError):
                bad = np.ones(cols.size, dtype=bool)
                ok, err = ~bad, hc
            else:
                xnew = X + dh * _combine(_B5, K)
                bad = ~(np.logical_and.reduce(np.isfinite(K[1:]), axis=(0, 1))
                        & np.logical_and.reduce(np.isfinite(xnew), axis=0))
                scale = atol + rtol * np.maximum(np.abs(X), np.abs(xnew))
                q = (hc * _combine(_E, K) / scale) ** 2
                err = np.sqrt(np.add.reduce(_rows(q), axis=1) / m)
                ok = ~bad & (err <= 1.0)
            n_ok = np.count_nonzero(ok)
            every = n_ok == cols.size
            h = hc * (_grow(err, errprev) if every else np.where(
                bad, 0.25, np.where(ok, _grow(err, errprev), _shrink(err))))
            attempts += 1
            code = np.where(attempts >= max_steps, EXHAUSTED, 0)
            if n_ok:
                t = np.where(ok, t + hc, t)
                errprev = np.where(ok, np.fmax(err, 1e-10), errprev)
                steps += ok
                sel = slice(None) if every else ok
                # K is refilled next round, so the new field values are a copy
                xa, fa = (xnew, K[6].copy()) if every else \
                    (xnew[:, ok], K[6][:, ok])
                stop = False
                if accepted is not None:
                    stop = np.asarray(accepted(
                        cols[sel], direction * t[sel], X[:, sel], xa, fa),
                        dtype=bool)
                if every:
                    X, f0 = xa, fa
                else:
                    X[:, ok], f0[:, ok] = xa, fa
                code[sel] = np.where(stop, STOPPED, np.where(
                    t[sel] >= target, DONE, code[sel]))
            rejected += ~ok
            code[(code == 0) & ~(h >= 1e-14 * (np.abs(t) + 1.0))] = UNDERFLOW
    out.t *= direction
    return out


def _single(F1, *args):
    """A one-point field function ``F1(x, *args)`` (1-D state in, sequence
    out) as the (m, 1) column function ``_dopri5`` expects."""
    def F(X):
        return np.array(F1(X[:, 0], *args), dtype=float)[:, None]
    return F


def _raise_failure(run, max_steps, j=0):
    """The exception raised for column j of a run if it ended in failure."""
    if run.status[j] == UNDERFLOW:
        raise StepUnderflowError(float(run.t[j]), run.x[:, j].copy())
    if run.status[j] == EXHAUSTED:
        raise IntegrationError(
            f"exceeded {max_steps} steps at t={float(run.t[j])!r}")


def integrate(fieldd, x0, T, rtol=None, atol=None, lam=None, tols=DEFAULT):
    """Integrate x' = X(x) from x0 over signed duration T."""
    rtol = tols.rtol if rtol is None else rtol
    atol = tols.atol if atol is None else atol
    x = np.asarray(x0, dtype=float)
    traj = Trajectory([0.0], [x.copy()])
    if T == 0.0:
        return traj
    F1 = expr.compile_field(fieldd)
    direction = 1 if T > 0 else -1

    def record(cols, t, x_old, x_new, f_new):
        traj.ts.append(float(t[0]))
        traj.xs.append(x_new[:, 0].copy())

    run = _dopri5(_single(F1, lam), x[:, None], direction,
                  abs(T), rtol, atol, tols.max_steps, record)
    _raise_failure(run, tols.max_steps)
    traj.steps, traj.rejected = int(run.steps[0]), int(run.rejected[0])
    return traj


def integrate_until(fieldd, x0, stop, t_max, direction=1, lam=None,
                    tols=DEFAULT):
    """Integrate until ``stop(t, x_prev, x) -> truthy`` or |t| reaches t_max.

    Returns (trajectory, stop_value).  stop_value is None on budget end.
    The stop callback sees the signed time and the endpoints of the step
    just taken, so it can bisect inside the step if needed.
    """
    F1 = expr.compile_field(fieldd)
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

    run = _dopri5(_single(F1, lam), x[:, None], direction,
                  t_max, tols.rtol, tols.atol, tols.max_steps, record)
    _raise_failure(run, tols.max_steps)
    traj.steps, traj.rejected = int(run.steps[0]), int(run.rejected[0])
    return traj, (hit[0] if run.status[0] == STOPPED else None)


def integrate_columns(fieldd, x0, stop, t_max, direction, lam=None,
                      tols=DEFAULT):
    """Integrate every column of the (m, N) array x0 until ``stop(X)``,
    given the (m, n) states just reached, is True for it, or |t| reaches
    t_max.

    Returns (t, stopped): the signed time at which each column ended, and
    whether ``stop`` ended it.  A column whose step underflows or that runs
    out of steps counts as not stopped.
    """
    F = expr.compile_field(fieldd, backend="numpy")

    def check(cols, t, x_old, x_new, f_new):
        return stop(x_new)

    run = _dopri5(lambda X: F(X, lam), np.asarray(x0, dtype=float),
                  direction, t_max, tols.rtol, tols.atol, tols.max_steps,
                  check)
    return run.t, run.status == STOPPED


def transport_frame(fieldd, x0, T, frame, lam=None, tols=DEFAULT):
    """Transport tangent vectors along the orbit of x0 over duration T.

    Solves the variational equation v' = DX(x(t)) v for each frame vector
    as one augmented system.  Vector magnitudes are renormalized after each
    accepted step; directions are never altered, so the sign pattern of the
    frame determinant is preserved.  Returns (transported frame, terminal x).
    """
    m = fieldd.dimension
    V = [np.asarray(v, dtype=float) for v in frame]
    kf = len(V)
    if kf and np.linalg.matrix_rank(np.column_stack(V)) < kf:
        raise FrameDegenerateError("initial frame vectors are dependent")
    if T == 0.0 or not V:
        return [v.copy() for v in V], np.asarray(x0, dtype=float)
    F = expr.compile_field(fieldd)
    J = expr.compile_jacobian(fieldd)

    def G(z):
        x = z[:m]
        out = np.empty_like(z)
        out[:m] = F(x, lam)
        Jx = np.array(J(x, lam), dtype=float)
        for i in range(kf):
            out[m + i * m: m + (i + 1) * m] = Jx @ z[m + i * m: m + (i + 1) * m]
        return out

    def renormalize(cols, t, z_old, z, f):
        # rescale magnitudes in place between steps; the variational block
        # of G is linear in v, so the end-of-step derivative reused by the
        # next step stays consistent when scaled by the same factor
        for i in range(kf):
            seg = z[m + i * m: m + (i + 1) * m, 0]
            nrm = float(np.linalg.norm(seg))
            if nrm == 0.0:
                raise FrameDegenerateError("frame vector collapsed to zero")
            seg /= nrm
            f[m + i * m: m + (i + 1) * m, 0] /= nrm

    z0 = np.concatenate([np.asarray(x0, dtype=float)] + V)
    run = _dopri5(_single(G), z0[:, None], 1 if T > 0 else -1, abs(T),
                  tols.rtol, tols.atol, tols.max_steps, renormalize)
    _raise_failure(run, tols.max_steps)
    z = run.x[:, 0]
    W = [z[m + i * m: m + (i + 1) * m].copy() for i in range(kf)]
    if kf:
        M = np.column_stack(W)
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[-1] == 0.0 or sv[0] / sv[-1] > 1e8:
            raise FrameDegenerateError(
                f"transported frame degenerate (condition {sv[0] / max(sv[-1], 1e-300):.3e})")
    return W, z[:m].copy()


def field_scale(fieldd, block, lam=None):
    """Mean field magnitude over a 5-per-axis lattice on the block's
    bounding box; used to make the speed tolerance dimensionless.  The mean
    (rather than the median) keeps the scale positive even when the lattice
    happens to hit several equilibria.  Lattice points where the field is
    not finite are left out."""
    F = expr.compile_field(fieldd, backend="numpy")
    mags = _norms(F(block.lattice(5).T, lam))
    mags = mags[np.isfinite(mags)]
    return max(float(np.mean(mags)), 1e-12) if mags.size else 1.0


@dataclass(frozen=True)
class LimitClass:
    """Per-column outcome of ``classify_limit``."""

    tag: tuple  # "converged" | "exited" | "budget", one per column
    crit_id: tuple  # ident of the capturing critical point, else -1


def classify_limit(gradfield, X0, crits, block, tols=DEFAULT, lam=None,
                   scale=None):
    """Run the orbit of every column of the (m, N) array X0 until capture
    at a critical point, exit from the block, or time budget, as one
    ``_dopri5`` batch with the ``numpy`` backend.

    After each accepted step a column is tested in this order: it has
    exited once its new point lies outside the block; it is captured once
    exactly one critical point lies within the capture radius and its speed
    is below the speed tolerance.  Two critical points within the radius
    raise AmbiguousCaptureError.  Returns (limits, run): the tag and the
    capturing ident of each column, and the ``_Run`` of the batch, whose
    ``t`` and ``x`` are each column's signed end time and end point (for an
    exit, the first point reached outside the block; there is no bisection
    onto the boundary).  A column whose step underflows or that runs out of
    steps raises, as ``integrate_until`` does."""
    if scale is None:
        scale = field_scale(gradfield, block, lam)
    speed_tol = tols.speed_tol_factor * scale
    F = expr.compile_field(gradfield, backend="numpy")
    cap = tols.capture_radius
    X0 = np.asarray(X0, dtype=float)
    m, n = X0.shape
    coords = np.array([c.coords for c in crits], dtype=float).reshape(
        len(crits), m)
    captor = np.full(n, -1)  # index into crits of a captured column

    def stop(cols, t, x_old, X, f_new):
        out = ~block.contains_columns(X)
        d = _rows(X) - coords[:, None, :]  # (n_crits, n, m)
        near = (np.sqrt(np.vecdot(d, d)) < cap) & ~out
        count = np.count_nonzero(near, axis=0)
        if (count > 1).any():
            j = int(np.argmax(count > 1))
            raise AmbiguousCaptureError(
                X[:, j], [crits[i].ident for i in np.flatnonzero(near[:, j])])
        caught = (count == 1) & (_norms(f_new) < speed_tol)
        if caught.any():
            captor[cols[caught]] = np.argmax(near[:, caught], axis=0)
        return out | caught

    run = _dopri5(lambda X: F(X, lam), X0, 1, tols.t_budget, tols.rtol,
                  tols.atol, tols.max_steps, stop)
    failed = np.flatnonzero((run.status == UNDERFLOW)
                            | (run.status == EXHAUSTED))
    if failed.size:
        _raise_failure(run, tols.max_steps, failed[0])
    tag = tuple("budget" if s == DONE else "exited" if c < 0 else "converged"
                for s, c in zip(run.status, captor))
    ids = tuple(crits[c].ident if c >= 0 else -1 for c in captor)
    return LimitClass(tag, ids), run
