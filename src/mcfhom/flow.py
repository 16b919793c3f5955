"""Numerical integration of flows, frame transport, and limit classification.

The integrator is an embedded Dormand-Prince 5(4) pair with PI step-size
control.  All downstream orbit decisions (limit classification, connection
counting) sit on top of the two entry points ``integrate`` and
``integrate_until``.
"""
from __future__ import annotations

import math
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


# Dormand-Prince 5(4) coefficients.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4


@dataclass
class Trajectory:
    ts: list
    xs: list  # list of np arrays
    steps: int = 0
    rejected: int = 0

    @property
    def terminal(self):
        return self.xs[-1]

    @property
    def duration(self):
        return self.ts[-1] - self.ts[0]


def _error_norm(err, x, xnew, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(x), np.abs(xnew))
    return math.sqrt(float(np.mean((err / scale) ** 2)))


def _wrap_field(fieldd, lam):
    F = expr.compile_field(fieldd)

    def f(x):
        return np.array(F(x, lam), dtype=float)

    return f


def integrate(fieldd, x0, T, rtol=None, atol=None, lam=None, tols=DEFAULT):
    """Integrate x' = X(x) from x0 over signed duration T."""
    rtol = tols.rtol if rtol is None else rtol
    atol = tols.atol if atol is None else atol
    if T == 0.0:
        x = np.asarray(x0, dtype=float)
        return Trajectory([0.0], [x.copy()])
    direction = 1 if T > 0 else -1
    F = _wrap_field(fieldd, lam)
    traj = Trajectory([0.0], [np.asarray(x0, dtype=float).copy()])
    target = abs(T)
    for t, x, f0, h in _clamped_steps(F, traj.xs[0], direction, rtol, atol,
                                      tols.max_steps, target):
        traj.ts.append(direction * t)
        traj.xs.append(x.copy())
        traj.steps += 1
    return traj


def _clamped_steps(F, x0, direction, rtol, atol, max_steps, target):
    """Accepted steps in |t|, with the final step landing exactly on target.

    Implemented as a thin re-stepper: we run the adaptive stepper and, when
    a step would overshoot, redo it with a classical RK step of exactly the
    remaining width (error is controlled since the adaptive h was accepted).
    """
    x = np.asarray(x0, dtype=float).copy()
    t = 0.0
    f0 = F(x)
    errprev = 1.0
    d0 = float(np.linalg.norm(x)) + 1.0
    d1 = float(np.linalg.norm(f0)) + 1e-30
    h = min(1e-2 * d0 / d1, 1.0, target)
    k = [None] * 7
    for _ in range(max_steps):
        if h < 1e-14 * (abs(t) + 1.0):
            raise StepUnderflowError(direction * t, x)
        h = min(h, target - t)
        k[0] = f0
        bad = False
        for i in range(1, 7):
            xi = x + (direction * h) * sum(
                (a * k[j] for j, a in enumerate(_A[i]) if a != 0.0),
                np.zeros_like(x))
            try:
                k[i] = F(xi)
            except (ValueError, ZeroDivisionError, OverflowError):
                bad = True
                break
            if not np.all(np.isfinite(k[i])):
                bad = True
                break
        if not bad:
            xnew = x + (direction * h) * sum(
                (b * k[i] for i, b in enumerate(_B5) if b != 0.0),
                np.zeros_like(x))
            err_vec = h * sum((e * k[i] for i, e in enumerate(_E)
                               if e != 0.0), np.zeros_like(x))
            if not np.all(np.isfinite(xnew)):
                bad = True
        if bad:
            h *= 0.25
            continue
        err = _error_norm(err_vec, x, xnew, rtol, atol)
        if err <= 1.0:
            t = t + h
            x = xnew
            f0 = k[6]  # FSAL: last stage is F at the new point
            yield t, x, f0, h
            if t >= target:
                return
            fac = 0.9 * (err + 1e-30) ** (-0.7 / 5) * errprev ** (0.4 / 5)
            errprev = max(err, 1e-10)
            h *= min(5.0, max(0.2, fac))
        else:
            h *= min(1.0, max(0.1, 0.9 * err ** (-1.0 / 5)))
    raise IntegrationError(f"exceeded {max_steps} steps at t={direction * t!r}")


def integrate_until(fieldd, x0, stop, t_max, direction=1, rtol=None,
                    atol=None, lam=None, tols=DEFAULT):
    """Integrate until ``stop(t, x_prev, x) -> truthy`` or |t| reaches t_max.

    Returns (trajectory, stop_value).  stop_value is None on budget end.
    The stop callback sees the signed time and the endpoints of the step
    just taken, so it can bisect inside the step if needed.
    """
    rtol = tols.rtol if rtol is None else rtol
    atol = tols.atol if atol is None else atol
    F = _wrap_field(fieldd, lam)
    x = np.asarray(x0, dtype=float).copy()
    traj = Trajectory([0.0], [x.copy()])
    for t, xn, f0, h in _clamped_steps(F, x, direction, rtol, atol,
                                       tols.max_steps, t_max):
        prev = traj.xs[-1]
        traj.ts.append(direction * t)
        traj.xs.append(xn.copy())
        traj.steps += 1
        sv = stop(direction * t, prev, xn)
        if sv:
            return traj, sv
    return traj, None


def transport_frame(fieldd, x0, T, frame, rtol=None, atol=None, lam=None,
                    tols=DEFAULT):
    """Transport tangent vectors along the orbit of x0 over duration T.

    Solves the variational equation v' = DX(x(t)) v for each frame vector
    as one augmented system.  Vector magnitudes are renormalized after each
    accepted step; directions are never altered, so the sign pattern of the
    frame determinant is preserved.  Returns (transported frame, terminal x).
    """
    rtol = tols.rtol if rtol is None else rtol
    atol = tols.atol if atol is None else atol
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

    z = np.concatenate([np.asarray(x0, dtype=float)] + V)
    direction = 1 if T > 0 else -1
    t = 0.0
    target = abs(T)
    for t, z, f0, h in _clamped_steps(G, z, direction, rtol, atol,
                                      tols.max_steps, target):
        # renormalize magnitudes in place between steps; the variational
        # block of G is linear in v, so the cached end-of-step derivative
        # stays consistent when scaled by the same factor
        for i in range(kf):
            seg = z[m + i * m: m + (i + 1) * m]
            nrm = float(np.linalg.norm(seg))
            if nrm == 0.0:
                raise FrameDegenerateError("frame vector collapsed to zero")
            seg /= nrm
            f0[m + i * m: m + (i + 1) * m] /= nrm
    W = [z[m + i * m: m + (i + 1) * m].copy() for i in range(kf)]
    if kf:
        M = np.column_stack(W)
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[-1] == 0.0 or sv[0] / sv[-1] > 1e8:
            raise FrameDegenerateError(
                f"transported frame degenerate (condition {sv[0] / max(sv[-1], 1e-300):.3e})")
    return W, z[:m].copy()


@dataclass(frozen=True)
class LimitClass:
    tag: str  # "converged" | "exited" | "budget"
    crit_id: int = -1
    exit_time: float = 0.0
    exit_face: object = None


def field_scale(fieldd, block, lam=None, n=5):
    """Mean field magnitude over a coarse lattice on the block's bounding
    box; used to make the speed tolerance dimensionless.  The mean (rather
    than the median) keeps the scale positive even when the lattice happens
    to hit several equilibria."""
    lo, hi = block.bounding_box()
    F = expr.compile_field(fieldd)
    mags = []
    m = fieldd.dimension
    axes = [np.linspace(lo[i], hi[i], n) for i in range(m)]
    grid = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grid], axis=-1)
    for p in pts:
        try:
            v = F(p, lam)
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
        mags.append(float(np.linalg.norm(v)))
    mags = [v for v in mags if math.isfinite(v)]
    return max(float(np.mean(mags)), 1e-12) if mags else 1.0


def classify_limit(gradfield, x0, crits, block, tols=DEFAULT, lam=None,
                   scale=None):
    """Run the orbit of x0 until capture at a critical point, exit from the
    block, or time budget.  Capture requires both proximity within the
    capture radius and speed below the speed tolerance."""
    if scale is None:
        scale = field_scale(gradfield, block, lam)
    speed_tol = tols.speed_tol_factor * scale
    F = expr.compile_field(gradfield)
    cap = tols.capture_radius
    coords = [np.asarray(c.coords, dtype=float) for c in crits]

    def stop(t, xprev, x):
        if not block.contains(x):
            texit, xexit = _bisect_exit(gradfield, block, xprev, x, lam)
            face = block.find_exit_face(xexit)
            return ("exited", t, face)
        near = [i for i, c in enumerate(coords)
                if float(np.linalg.norm(x - c)) < cap]
        if len(near) > 1:
            raise AmbiguousCaptureError(x, [crits[i].ident for i in near])
        if near:
            v = np.array(F(x, lam), dtype=float)
            if float(np.linalg.norm(v)) < speed_tol:
                return ("converged", near[0])
        return None

    traj, sv = integrate_until(gradfield, x0, stop, tols.t_budget, lam=lam,
                               tols=tols)
    if sv is None:
        return LimitClass("budget"), traj
    if sv[0] == "exited":
        return LimitClass("exited", exit_time=sv[1], exit_face=sv[2]), traj
    return LimitClass("converged", crit_id=crits[sv[1]].ident), traj


def _bisect_exit(fieldd, block, x_in, x_out, lam):
    """Refine the boundary crossing between an inside and an outside point
    of one accepted step by short re-integrations."""
    # secant on straight chord is adequate for face identification
    a, b = np.asarray(x_in, float), np.asarray(x_out, float)
    for _ in range(60):
        mid = 0.5 * (a + b)
        if block.contains(mid):
            a = mid
        else:
            b = mid
    return 0.0, b
