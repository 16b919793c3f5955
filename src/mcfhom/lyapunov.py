"""Lyapunov verification and Morse perturbations.

A Lyapunov function decreases strictly along the flow away from the
invariant set.  The invariant set is user-declared as a collar (sample
points plus a radius); verification treats the declaration as an
assumption and reports against it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import block as block_mod
from . import expr, flow
from .config import DEFAULT, normals


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
    value_spread: float  # max |f(s_i) - f(s_j)| over declared S samples
    violating_sample: tuple = None

    def __bool__(self):
        return self.verdict


def verify_lyapunov(f, fieldd, b, s_decl, tols=DEFAULT):
    """Check df.X < 0 on a lattice over the block outside the S collar,
    and that f is constant over the declared S samples.  The lattice points
    inside the block are evaluated as one array, and so are the S samples;
    the minimum decrease and the first violation are taken in lattice
    order.  A lattice point where f or df.X is not finite has no decrease:
    it does not lower the minimum and it is a violation.  Where f is not
    finite at an S sample, the value spread is not finite.  Either makes
    the verdict false."""
    m = b.dimension
    scale = flow.field_scale(fieldd, b)
    tol = tols.strict_decrease_tol * max(scale, 1.0)

    s_pts = [np.asarray(s, dtype=float) for s in s_decl.samples]
    pts = b.lattice(tols.verify_samples)
    keep = b.contains_columns(pts.T)
    for s in s_pts:
        d = pts - s
        keep &= np.sqrt(np.vecdot(d, d)) > s_decl.radius
    pts = pts[keep]
    F = expr.compile_field(expr.FieldDef(m, (f,)))
    with np.errstate(all="ignore"):
        df = expr.compile_field(expr.gradient(f, m))(pts.T)
        X = expr.compile_field(fieldd)(pts.T)
        # summed from integer 0, as by Python's sum, so a zero decrease is -0.0
        decrease = -sum(df[i] * X[i] for i in range(m))
        # the symbolic df can be finite where f has no value, as for 0*sqrt(u)
        decrease[~np.isfinite(F(pts.T)[0])] = np.nan

    best = math.inf
    best_loc = None
    violating = None
    lower = np.flatnonzero(decrease < best)  # NaN never lowers the minimum
    if lower.size:
        j = lower[np.argmin(decrease[lower])]
        best, best_loc = float(decrease[j]), tuple(float(v) for v in pts[j])
    bad = np.flatnonzero(~(decrease > tol))  # a NaN decrease violates
    if bad.size:
        violating = tuple(float(v) for v in pts[bad[0]])
    spread = 0.0
    if s_pts:
        with np.errstate(all="ignore"):
            vals = F(np.array(s_pts).T)[0]
            spread = float(np.max(vals) - np.min(vals))
    verdict = bool(violating is None and spread <= s_decl.value_tol)
    return LyapunovReport(verdict, best, best_loc, spread, violating)


@dataclass
class HomotopyCertificate:
    lambdas: tuple
    # a lower bound on |grad f_lam| over the boundary samples: for a sample
    # settled by its two ends, min |flux| of the ends, which bounds it for
    # every lam in [0, 1]; for an unsettled one, its minimum on the grid
    min_boundary_gradient: float
    perturbation: object  # h of the homotopy base + lambda*eps*h


def linear_perturbation(m, seed):
    """Linear form sum_i c_i x_i with c a unit direction drawn from the int
    ``seed``."""
    c = np.array(normals(seed, m))
    c /= np.linalg.norm(c)
    out = expr.ZERO
    for i in range(m):
        out = expr.add(out, expr.mul(expr.Const(float(c[i])), expr.Var(i)))
    return out


def morse_perturb(base, b, epsilon=None, perturbation=None, seed=0,
                  tols=DEFAULT):
    """Perturb a Lyapunov function to a Morse function on the block.

    Returns (perturbed Expr, HomotopyCertificate).  Without a
    ``perturbation`` the direction is ``linear_perturbation`` of ``seed``.
    The certificate checks that the gradient flow of base +
    lambda*eps*perturbation keeps the block isolating and that no critical
    point of the interpolant touches the boundary (its gradient norm over
    the boundary samples stays at least ``tols.margin_tol``): for every
    lambda in [0, 1] at the samples its two ends settle, on a lambda grid
    at the others.

    -grad(base) and -grad(perturbation) are compiled once, and the
    interpolant with coefficient s = lambda*eps is -grad(base) + s *
    -grad(perturbation), which rounds exactly as the compiled gradient of
    the interpolant itself.  It is affine in s, and so is its outward flux
    at a boundary sample.  The two ends come first: a sample that
    ``block.transverse_flux`` finds transverse with one sign at s = 0 and
    at s = eps stays transverse with that sign for every s between them
    (the rounded flux is monotone in s too).  For every lambda it then
    leaves the block at once by the sign rule of ``check_isolation``
    (Conley and Easton's isolating blocks), and its gradient norm is at
    least its |flux|, so no critical point touches it.  Such a sample is
    settled by two evaluations.

    Only unsettled samples, tangent or not finite at an end or changing
    sign, go through the lambda grid of ``tols.cert_lambda_steps``, one
    lambda at a time: their gradient norms, then one ``check_isolation``
    of the interpolant at that lambda (settled samples pass there by their
    sign).  The error names the first lambda that fails, the boundary
    gradient before isolation at each lambda.  Before any of this,
    -grad(perturbation) must be finite at every boundary sample, then at
    every point of the ``tols.seed_density`` lattice in the block, where
    Newton seeds: if it is not, the perturbation has no value there, and
    ExprError names it and the first such point.
    """
    eps = tols.epsilon if epsilon is None else epsilon
    if eps <= 0:
        raise LyapunovError("perturbation magnitude must be positive")
    if perturbation is None:
        perturbation = linear_perturbation(b.dimension, seed)
    perturbed = expr.add(base, expr.mul(expr.Const(float(eps)), perturbation))

    m = b.dimension
    steps = tols.cert_lambda_steps
    lambdas = tuple(i / steps for i in range(steps + 1))
    grad_base = expr.compile_field(expr.negative_gradient(base, m))
    grad_pert = expr.compile_field(expr.negative_gradient(perturbation, m))

    def interpolant(X, s):
        """-grad(base + s*perturbation) at the columns of X.  At s = 0 the
        perturbation drops out, as it does from the Expr, even where its
        gradient has no value.  It is evaluated under
        ``np.errstate(all="ignore")``, as the integrator evaluates it."""
        return grad_base(X) + np.where(s != 0.0, s * grad_pert(X), 0.0)

    per_face = tols.isolation_samples_per_face
    samples = b.boundary_samples(per_face)
    lattice = b.lattice(tols.seed_density)
    points = np.concatenate([samples,
                             lattice[b.contains_columns(lattice.T)]])
    with np.errstate(all="ignore"):
        bad = np.flatnonzero(~np.logical_and.reduce(
            np.isfinite(grad_pert(points.T)), axis=0))
    if bad.size:
        raise expr.ExprError(
            f"perturbation {expr.to_str(perturbation)} has no finite "
            f"gradient at {tuple(float(v) for v in points[bad[0]])}")
    # the interpolant at s = 0 and s = eps, an (m, 2, n) array
    with np.errstate(all="ignore"):
        ends = np.stack([interpolant(samples.T, s) for s in (0.0, eps)], 1)
    flux = block_mod.transverse_flux(b, ends, per_face, tols.margin_tol)
    settled = np.logical_and.reduce(flux > 0) | np.logical_and.reduce(flux < 0)
    min_bgrad = float(np.min(np.abs(flux[:, settled]), initial=math.inf))
    todo = samples[~settled]
    if len(todo):
        min_bgrad = min(min_bgrad, _grid_certificate(
            b, interpolant, todo, lambdas, eps, tols))
    return perturbed, HomotopyCertificate(lambdas, min_bgrad, perturbation)


def _grid_certificate(b, interpolant, todo, lambdas, eps, tols):
    """The certificate on the lambda grid, for the boundary samples ``todo``
    that their two ends do not settle: the minimum gradient norm of the
    interpolant over them on the grid, or CertificationError at the first
    lambda where it touches the boundary (its norm below ``margin_tol`` at
    one of them) or, checked after that, where the block stops isolating,
    one ``check_isolation`` of the interpolant at that lambda."""
    min_bgrad = math.inf
    for lv in lambdas:
        s = lv * eps
        with np.errstate(all="ignore"):
            G = interpolant(todo.T, s)
        g = np.sqrt(np.add.reduce(G * G, axis=0))
        min_bgrad = min(min_bgrad, float(np.fmin.reduce(g)))
        near = np.flatnonzero(g < tols.margin_tol)
        if near.size:
            raise CertificationError(
                lv, f"critical point of the interpolant touches the "
                    f"boundary near {tuple(float(v) for v in todo[near[0]])}")
        rep = block_mod.check_isolation(
            b, functools.partial(interpolant, s=s), tols=tols)
        if not rep:
            raise CertificationError(
                lv, f"block stops isolating (trapped boundary samples "
                    f"{rep.failures[:3]})")
    return min_bgrad
