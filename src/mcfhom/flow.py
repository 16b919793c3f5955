"""Numerical integration of flows, frame transport, and limit classification.

One embedded Dormand-Prince 5(4) stepper with PI step-size control,
``_dopri5``, advances an (m, N) state: N orbits side by side, each column
with its own time, step size, controller history, attempt count and
target time.  Every entry point runs a whole batch.
``integrate_columns`` runs orbits until a column-wise stop test;
``classify_limit`` labels the orbits of N start points, with a column-wise
stop test (left the block, captured at a critical point) after every
round, and reports an exit by the first point reached outside the block,
with no bisection onto the boundary, and a failed orbit by its error,
without raising it; ``transport_frame`` carries a tangent frame along each
of N orbits as one (m + k m, N) variational system.  All downstream orbit
decisions (connection counting, isolation) sit on top of these entry
points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .config import DEFAULT


class IntegrationError(Exception):
    column = None  # the failing column of a batch, where there is one


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
    |t| = target, a scalar or one value per column.

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
    target = np.broadcast_to(np.asarray(target, dtype=float), (n,)).copy()
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
                attempts, steps, rejected, target = (
                    attempts[keep], steps[keep], rejected[keep], target[keep])
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
                    t[sel] >= target[sel], DONE, code[sel]))
            rejected += ~ok
            code[(code == 0) & ~(h >= 1e-14 * (np.abs(t) + 1.0))] = UNDERFLOW
    out.t *= direction
    return out


def _failure(run, max_steps, j):
    """The error of column j of a run that ended in failure, else None."""
    if run.status[j] == UNDERFLOW:
        err = StepUnderflowError(float(run.t[j]), run.x[:, j].copy())
    elif run.status[j] == EXHAUSTED:
        err = IntegrationError(
            f"exceeded {max_steps} steps at t={float(run.t[j])!r}")
    else:
        return None
    err.column = j
    return err


def integrate_columns(fieldd, x0, stop, t_max, direction, lam=None,
                      tols=DEFAULT):
    """Integrate every column of the (m, N) array x0 until ``stop(X)``,
    given the (m, n) states just reached, is True for it, or |t| reaches
    t_max.

    Returns (t, stopped): the signed time at which each column ended, and
    whether ``stop`` ended it.  A column whose step underflows or that runs
    out of steps counts as not stopped.
    """
    F = expr.compile_field(fieldd)

    def check(cols, t, x_old, x_new, f_new):
        return stop(x_new)

    run = _dopri5(lambda X: F(X, lam), np.asarray(x0, dtype=float),
                  direction, t_max, tols.rtol, tols.atol, tols.max_steps,
                  check)
    return run.t, run.status == STOPPED


def transport_frame(fieldd, X0, T, frames, lam=None, tols=DEFAULT):
    """Transport a tangent frame along the orbit of every column of the
    (m, N) array X0, column j over the duration T[j] >= 0 (T may also be
    one scalar for all).

    ``frames`` is a (k, m, N) array: frames[:, :, j] are the k vectors of
    column j.  The variational equations v' = DX(x(t)) v of all vectors and
    the orbits are solved as one (m + k m, N) system.  Vector magnitudes
    are renormalized after each accepted step;
    directions are never altered, so the sign pattern of each frame
    determinant is preserved.  Returns (W, X): the transported (k, m, N)
    frames and the (m, N) end points.  A column with T[j] = 0, or any
    column when k = 0, keeps its frame and start point.

    A column fails when its start frame is dependent, a vector collapses to
    zero, its step underflows or it runs out of steps, or its transported
    frame has condition number above 1e8.  The error of the first failing
    column is raised, with that column's index as its ``column``.
    """
    X0 = np.asarray(X0, dtype=float)
    frames = np.asarray(frames, dtype=float)
    k, m, n = frames.shape
    T = np.broadcast_to(np.asarray(T, dtype=float), (n,))
    W, X = frames.copy(), X0.copy()
    if not k:
        return W, X
    errors = [None] * n
    dependent = np.linalg.matrix_rank(frames.transpose(2, 1, 0)) < k
    for j in np.flatnonzero(dependent):
        errors[j] = FrameDegenerateError("initial frame vectors are dependent")
    go = np.flatnonzero((T != 0.0) & ~dependent)
    F = expr.compile_field(fieldd)
    J = [expr.compile_field(expr.FieldDef(m, row))
         for row in expr.jacobian(fieldd)]

    def G(Z):
        out = np.empty_like(Z)
        out[:m] = F(Z[:m], lam)
        DX = np.stack([row(Z[:m], lam) for row in J])  # (m, m, n)
        V = Z[m:].reshape(k, m, -1)
        dV = out[m:].reshape(k, m, -1)
        # (DX v)_a = sum_b DX_ab v_b, added in the order of b
        dV[:] = DX[None, :, 0] * V[:, None, 0]
        for b in range(1, m):
            dV += DX[None, :, b] * V[:, None, b]
        return out

    collapsed = np.zeros(go.size, dtype=bool)

    def renormalize(cols, t, z_old, z, f):
        # rescale magnitudes in place between steps; the variational block
        # of G is linear in v, so the end-of-step derivative reused by the
        # next step stays consistent when scaled by the same factor
        V = np.ascontiguousarray(z[m:].reshape(k, m, -1).transpose(0, 2, 1))
        nrm = np.sqrt(np.vecdot(V, V))  # (k, n), one per vector
        zero = np.logical_or.reduce(nrm == 0.0, axis=0)
        collapsed[cols[zero]] = True
        by_row = np.repeat(nrm, m, axis=0)
        z[m:] /= by_row
        f[m:] /= by_row
        return zero

    if go.size:
        Z0 = np.concatenate([X0[:, go], frames[:, :, go].reshape(k * m, -1)])
        run = _dopri5(G, Z0, 1, T[go], tols.rtol, tols.atol, tols.max_steps,
                      renormalize)
        X[:, go] = run.x[:m]
        W[:, :, go] = run.x[m:].reshape(k, m, -1)
        for i, j in enumerate(go):
            errors[j] = (FrameDegenerateError("frame vector collapsed to zero")
                         if collapsed[i] else _failure(run, tols.max_steps, i))
        done = [j for j in go if errors[j] is None]
        sv = np.linalg.svd(W[:, :, done].transpose(2, 1, 0), compute_uv=False)
        for j, s in zip(done, sv):
            cond = s[0] / max(s[-1], 1e-300)
            if s[-1] == 0.0 or cond > 1e8:
                errors[j] = FrameDegenerateError(
                    f"transported frame degenerate (condition {cond:.3e})")
    for j, err in enumerate(errors):
        if err is not None:
            err.column = j
            raise err
    return W, X


def field_scale(fieldd, block, lam=None):
    """Mean field magnitude over a 5-per-axis lattice on the block's
    bounding box; used to make the speed tolerance dimensionless.  The mean
    (rather than the median) keeps the scale positive even when the lattice
    happens to hit several equilibria.  Lattice points where the field is
    not finite are left out."""
    F = expr.compile_field(fieldd)
    mags = _norms(F(block.lattice(5).T, lam))
    mags = mags[np.isfinite(mags)]
    return max(float(np.mean(mags)), 1e-12) if mags.size else 1.0


@dataclass(frozen=True)
class LimitClass:
    """Per-column outcome of ``classify_limit``."""

    tag: tuple  # "converged" | "exited" | "budget" | "failed", per column
    crit_id: tuple  # ident of the capturing critical point, else -1
    errors: tuple  # the error of a failed column, else None


def classify_limit(gradfield, X0, crits, block, tols=DEFAULT, lam=None,
                   scale=None):
    """Run the orbit of every column of the (m, N) array X0 until capture
    at a critical point, exit from the block, or time budget, as one
    ``_dopri5`` batch.

    After each accepted step a column is tested in this order: it has
    exited once its new point lies outside the block; it is captured once
    exactly one critical point lies within the capture radius and its speed
    is below the speed tolerance.  Returns (limits, run): the tag, the
    capturing ident and the error of each column, and the ``_Run`` of the
    batch, whose ``t`` and ``x`` are each column's signed end time and end
    point (for an exit, the first point reached outside the block; there is
    no bisection onto the boundary).

    A column fails, and stops, with AmbiguousCaptureError once two critical
    points lie within the radius of its point, and with the error of
    ``_dopri5`` once its step underflows or it runs out of steps.  Nothing
    is raised: a failed column is tagged "failed" and carries its error, so
    the other columns of the batch keep their labels.  The caller decides
    whether a failed column matters."""
    if scale is None:
        scale = field_scale(gradfield, block, lam)
    speed_tol = tols.speed_tol_factor * scale
    F = expr.compile_field(gradfield)
    cap = tols.capture_radius
    X0 = np.asarray(X0, dtype=float)
    m, n = X0.shape
    coords = np.array([c.coords for c in crits], dtype=float).reshape(
        len(crits), m)
    captor = np.full(n, -1)  # index into crits of a captured column
    errors = [None] * n

    def stop(cols, t, x_old, X, f_new):
        out = ~block.contains_columns(X)
        d = _rows(X) - coords[:, None, :]  # (n_crits, n, m)
        near = (np.sqrt(np.vecdot(d, d)) < cap) & ~out
        count = np.count_nonzero(near, axis=0)
        ambiguous = count > 1
        for j in np.flatnonzero(ambiguous):
            errors[cols[j]] = AmbiguousCaptureError(
                X[:, j], [crits[i].ident for i in np.flatnonzero(near[:, j])])
        caught = (count == 1) & (_norms(f_new) < speed_tol)
        if caught.any():
            captor[cols[caught]] = np.argmax(near[:, caught], axis=0)
        return out | caught | ambiguous

    run = _dopri5(lambda X: F(X, lam), X0, 1, tols.t_budget, tols.rtol,
                  tols.atol, tols.max_steps, stop)
    for j in range(n):
        errors[j] = errors[j] or _failure(run, tols.max_steps, j)
    tag = tuple("failed" if e is not None else "budget" if s == DONE
                else "exited" if c < 0 else "converged"
                for s, c, e in zip(run.status, captor, errors))
    ids = tuple(crits[c].ident if c >= 0 else -1 for c in captor)
    return LimitClass(tag, ids, tuple(errors)), run
