"""Lyapunov verification, convex combinations, and Morse perturbations.

A Lyapunov function decreases strictly along the flow away from the
invariant set.  The invariant set is user-declared as a collar (sample
points plus a radius); verification treats the declaration as an
assumption and reports against it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import block as block_mod
from . import expr, flow
from .config import DEFAULT


class LyapunovError(Exception):
    pass


class CertificationError(LyapunovError):
    def __init__(self, lam, reason):
        super().__init__(
            f"homotopy certificate failed at lambda={lam}: {reason}")
        self.lam = lam


@dataclass(frozen=True)
class SDeclaration:
    """User-declared invariant set: sample points, collar radius, and the
    tolerance within which f must be constant across the samples.

    For a fat invariant set (for example an interval of equilibria) a
    Lyapunov function is constant on S only up to the declared tolerance;
    the declaration owns that bound so that verification stays honest.
    """

    samples: tuple  # tuple of coordinate tuples; may be empty
    radius: float
    value_tol: float = 1e-8


@dataclass
class LyapunovReport:
    verdict: bool
    min_decrease: float  # minimum of -df.X over the sampled region
    min_location: tuple
    collar_radius: float
    value_spread: float  # max |f(s_i) - f(s_j)| over declared S samples
    violating_sample: tuple = None

    def __bool__(self):
        return self.verdict


def verify_lyapunov(f, fieldd, b, s_decl, lam=None, tols=DEFAULT):
    """Check df.X < 0 on a lattice over the block outside the S collar,
    and that f is constant over the declared S samples.  The lattice points
    inside the block are evaluated as one array, and so are the S samples;
    the minimum decrease and the first violation are taken in lattice
    order.  Where f is not finite at an S sample, the value spread is not
    finite and the verdict is false."""
    m = b.dimension
    scale = flow.field_scale(fieldd, b, lam)
    tol = tols.strict_decrease_tol * max(scale, 1.0)

    s_pts = [np.asarray(s, dtype=float) for s in s_decl.samples]
    rad = s_decl.radius
    pts = b.lattice(tols.verify_samples)
    keep = b.contains_columns(pts.T)
    for s in s_pts:
        d = pts - s
        keep &= np.sqrt(np.vecdot(d, d)) > rad
    pts = pts[keep]
    df = expr.compile_field(expr.FieldDef(m, expr.gradient(f, m)))(pts.T, lam)
    X = expr.compile_field(fieldd)(pts.T, lam)
    # summed from integer 0, as by Python's sum, so a zero decrease is -0.0
    decrease = -sum(df[i] * X[i] for i in range(m))

    best = math.inf
    best_loc = None
    violating = None
    lower = np.flatnonzero(decrease < best)  # NaN never lowers the minimum
    if lower.size:
        j = lower[np.argmin(decrease[lower])]
        best, best_loc = float(decrease[j]), tuple(float(v) for v in pts[j])
    bad = np.flatnonzero(decrease <= tol)
    if bad.size:
        violating = tuple(float(v) for v in pts[bad[0]])
    spread = 0.0
    if s_pts:
        S = np.array(s_pts).T
        with np.errstate(all="ignore"):
            # a constant f compiles to one scalar for all samples
            vals = np.broadcast_to(expr.compile_scalar(f)(S, lam), len(s_pts))
            spread = float(np.max(vals) - np.min(vals))
    verdict = bool((best > tol if best_loc is not None else True)
                   and spread <= s_decl.value_tol)
    return LyapunovReport(verdict, best, best_loc, rad, spread, violating)


def combine(fa, fb, lam_coeff, mu_coeff):
    """Convex-cone combination lam*fa + mu*fb of Lyapunov functions; any
    positive coefficients preserve the Lyapunov property."""
    if lam_coeff <= 0 or mu_coeff <= 0:
        raise LyapunovError("combination coefficients must be positive")
    return expr.add(expr.mul(expr.Const(float(lam_coeff)), fa),
                    expr.mul(expr.Const(float(mu_coeff)), fb))


def shift(c, f, mu_coeff=1.0):
    """Affine shift c + mu*f, also Lyapunov for mu > 0."""
    if mu_coeff <= 0:
        raise LyapunovError("scale coefficient must be positive")
    return expr.add(expr.Const(float(c)),
                    expr.mul(expr.Const(float(mu_coeff)), f))


@dataclass
class HomotopyCertificate:
    lambdas: tuple
    min_boundary_gradient: float  # min |grad f_lam| over boundary samples


def linear_perturbation(m, rng):
    """Random unit-direction linear form sum_i c_i x_i."""
    c = rng.standard_normal(m)
    c /= np.linalg.norm(c)
    out = expr.ZERO
    for i in range(m):
        out = expr.add(out, expr.mul(expr.Const(float(c[i])), expr.Var(i)))
    return out


def morse_perturb(base, b, epsilon=None, perturbation=None, rng=None,
                  lam=None, tols=DEFAULT):
    """Perturb a Lyapunov function to a Morse function on the block.

    Returns (perturbed Expr, HomotopyCertificate).  The certificate checks,
    on a lambda grid in [0, 1], that the gradient flow of
    base + lambda*eps*perturbation keeps the block isolating and that no
    critical point of the interpolant touches the boundary (minimum
    gradient norm over boundary samples stays positive).
    """
    eps = tols.epsilon if epsilon is None else epsilon
    if eps <= 0:
        raise LyapunovError("perturbation magnitude must be positive")
    if perturbation is None:
        if rng is None:
            rng = np.random.default_rng(0)
        perturbation = linear_perturbation(b.dimension, rng)
    perturbed = expr.add(base, expr.mul(expr.Const(float(eps)), perturbation))

    m = b.dimension
    steps = tols.cert_lambda_steps
    lambdas = tuple(i / steps for i in range(steps + 1))
    samples = b.boundary_samples(tols.isolation_samples_per_face)
    min_bgrad = math.inf
    for lv in lambdas:
        interp = expr.add(base,
                          expr.mul(expr.Const(float(lv * eps)), perturbation))
        gradfield = expr.negative_gradient(interp, m)
        G = expr.compile_field(gradfield)(samples.T, lam)
        gn = np.sqrt(np.add.reduce(G * G, axis=0))
        min_bgrad = min(min_bgrad, float(np.fmin.reduce(gn)))
        touching = np.flatnonzero(gn <= tols.margin_tol)
        if touching.size:
            s = samples[touching[0]]
            raise CertificationError(
                lv, f"critical point of the interpolant touches the "
                    f"boundary near {tuple(float(v) for v in s)}")
        rep = block_mod.check_isolation(b, gradfield, lam=lam, tols=tols)
        if not rep:
            raise CertificationError(
                lv, f"block stops isolating (trapped boundary samples "
                    f"{rep.failures[:3]})")
    return perturbed, HomotopyCertificate(lambdas, min_bgrad)
