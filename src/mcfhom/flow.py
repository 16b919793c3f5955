"""Numerical integration of flows and limit classification.

One embedded Runge-Kutta stepper of order 8, Hairer's DOP853 (the
Dormand-Prince pair with 5th- and 3rd-order error estimates), ``_dop853``,
advances an (m, N) state: N orbits side by side, each column with its own
time, step size, attempt count and target time, and optionally its own
direction of time, so that one batch can integrate forward and backward
orbits.  The field is one compiled field ``F(X)``, with lam already bound
(``expr.bind_field``).  Every entry point runs a whole batch.
``classify_limit`` labels the orbits of N start points, in the one
vocabulary of orbit outcomes: ("crit", ident) captured at a critical
point, ("exit",) at the first point outside the block, ("budget",) out of
time, or ("failed", error) with its error, which is not raised.  Capture
is decided in local charts: the field is -grad f, each critical point of
f carries the eigenvalues and eigenvectors of its Hessian, and when an
orbit's step end first lands in the ball of radius a tenth of the
distance from a critical point q to the nearest other one or to the
block's bounding box, q's linear flow decides once whether the orbit
falls into q, by the least future speed of the linear orbit.  With no
critical point, every orbit runs until it exits or runs out of time.
Connection counting and Conley-Easton isolation both ask
``classify_limit`` whether an orbit leaves the block.  No variational
system is integrated: the connection search signs its witnesses by the
labels of their neighbours (``mcfhom.morse``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .config import DEFAULT


class IntegrationError(Exception):
    """An orbit the integrator cannot finish: ``classify_limit`` returns it
    in the label ("failed", error) of its column."""


class StepUnderflowError(IntegrationError):
    def __init__(self, t, x):
        super().__init__(f"step size underflow at t={t!r}, "
                         f"x={[float(v) for v in x]!r} (stiffness?)")
        self.t = t
        self.x = x


def _terms(row):
    """The (stage, coefficient) pairs of the nonzero entries of a row."""
    return tuple((j, a) for j, a in enumerate(row) if a)


# DOP853 tableau (Hairer-Norsett-Wanner, Solving ODEs I, section II.10, and
# Hairer's dop853.f), rows in stage order with a zero for each stage a row
# skips.  _A[i] gives the input of stage i + 1; the last row gives that of
# stage 12, the 8th-order solution, where the field is the next step's
# stage 0.
_A = tuple(map(_terms, (
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1],
    [5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2],
)))
# The error estimates: the 8th-order solution minus the 3rd-order one, whose
# weights _BHH sit at stages 0, 8 and 11, and the 5th-order estimate.
_BHH = {0: 0.244094488188976377952755905512,
        8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1}
_E3 = tuple((j, b - _BHH.get(j, 0.0)) for j, b in _A[-1])
_E5 = _terms([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1])
# The 14 stage sums of one step: the rows of _A, then _E5 and _E3.
_SUMS = (*_A, _E5, _E3)


def _fold(j):
    """The rows of _SUMS in which stage j has a nonzero weight, as a slice,
    and those weights as a (rows, 1, 1) array.  Stage 0 is in every row;
    stage j >= 1 first in row j, the input of stage j + 1, and then in
    every row up to the last that uses it, with no zero weight between."""
    w = np.array([dict(row).get(j, 0.0) for row in _SUMS])
    rows = np.flatnonzero(w)
    return slice(rows[0], rows[-1] + 1), w[rows[0]:rows[-1] + 1, None, None]


_FOLD = tuple(_fold(j) for j in range(12))

# column outcomes of _dop853; 0 while a column is still running
DONE, STOPPED, UNDERFLOW, EXHAUSTED = 1, 2, 3, 4


@dataclass
class _Run:
    """Per-column result of ``_dop853``: signed end time, end state
    (m, N), accepted and rejected attempts (the rounds the column ran less
    its accepted ones), and outcome code."""

    t: np.ndarray
    x: np.ndarray
    steps: np.ndarray
    rejected: np.ndarray
    status: np.ndarray


def _rows(a):
    """Each column of a as a contiguous row, so that reductions over a
    column add in the same order as over a 1-D vector."""
    return np.ascontiguousarray(a.T)


def _norms(a):
    r = _rows(a)
    return np.sqrt(np.vecdot(r, r))


def _sumsq(a):
    """The sum of squares of each column of a."""
    return np.add.reduce(_rows(a * a), axis=1)


# The I-controller of dop853.f: a step-size factor 0.9 err^(-1/8), clipped
# to [lo, hi].  It uses np.float_power, which calls the C library's pow like
# Python's float **; np.power may use SIMD approximations whose last bit
# differs from one CPU to another.  err = 0 gives hi.
def _factor(err, lo, hi):
    return np.fmin(hi, np.fmax(lo, 0.9 * np.float_power(err, -1 / 8)))


def _attempt(F, X, f0, dh, hc, rtol, atol):
    """One step of every column of X, whose field is f0, by the signed
    step dh of size hc: (x_new, f_new, err, finite), the 8th-order
    solution, the field there, the error norm of dop853.f, and whether
    every stage was finite.  The stages live only here, so their memory is
    free again while the caller's ``accepted`` runs.

    The 14 stage sums are one (14, m, n) array S, row r that of _SUMS[r].
    Each stage is added to the rows that use it as soon as it is known, so
    row r < 12, the input of stage r + 1, is complete once stage r is in,
    and every row adds its products elementwise in stage order: a column
    sums exactly as it would alone (a reduction over the stage axis would
    not, as numpy sums it pairwise once that axis is the inner loop)."""
    K = np.empty((13,) + X.shape)  # the stage values; K[12] is f_new
    K[0] = f0
    S = _FOLD[0][1] * f0
    for j, (rows, w) in enumerate(_FOLD[1:], 1):
        K[j] = k = F(X + dh * S[j - 1])
        S[rows] += w * k
    xnew = X + dh * S[11]
    K[12] = fnew = F(xnew)
    finite = (np.logical_and.reduce(np.isfinite(K), axis=(0, 1))
              & np.logical_and.reduce(np.isfinite(xnew), axis=0))
    scale = atol + rtol * np.maximum(np.abs(X), np.abs(xnew))
    n5 = _sumsq(S[12] / scale)
    n3 = _sumsq(S[13] / scale)
    den = n5 + 0.01 * n3
    err = hc * n5 / np.sqrt(np.where(den > 0.0, den, 1.0) * X.shape[0])
    return xnew, fnew, err, finite


def _first_step(F, X, f0, direction, target, rtol, atol):
    """The size of the first step of every column of X, whose field is f0
    and whose direction of time and target are ``direction`` and
    ``target``: 1e-2 (|x| + 1) / |f0|, at most 1 and at most the target.
    ``F``, ``rtol`` and ``atol`` are there for a rule that probes the field
    or weighs the state, as HINIT of Hairer's dop853.f does."""
    return np.minimum(np.minimum(1e-2 * (_norms(X) + 1.0)
                                 / (_norms(f0) + 1e-30), 1.0), target)


def _dop853(F, x0, direction, target, rtol, atol, max_steps, accepted=None):
    """Advance every column of the (m, N) state x0 from t = 0 until
    |t| = target, a scalar or one value per column.

    ``direction`` is the direction of time, +1 or -1, for all columns or as
    an (N,) array of one sign per column.  ``F(X)`` maps an (m, n) array
    of states to a new array of their derivatives.  A stage that is not
    finite, or for which F raises ValueError, ZeroDivisionError or
    OverflowError, rejects the step of its column with h *= 0.25.
    ``accepted(cols, t, x_old, x_new, f_new)``, if given, is called after
    each round for the columns ``cols`` (indices into x0) whose step was
    accepted, with their signed times, old and new states and the field at
    the new states; it may rescale ``x_new`` and ``f_new`` in place, and
    returns True for each column that stops there.  A column also leaves
    once it reaches the target, its step underflows or it has made
    ``max_steps`` attempts; a column whose target is 0 is done at t = 0
    with no attempt.

    A step is accepted when the error norm of dop853.f, which combines the
    5th- and 3rd-order estimates, is at most 1.  The step size then grows
    by a factor in [0.333, 6]; after a rejection it shrinks by one in
    [0.1, 1].

    The columns run in lockstep rounds: in each round every running column
    attempts one step, so a column's attempts are the rounds it ran, and
    its rejected attempts are those rounds less its accepted steps.  Its
    time t runs from 0 up to its target and is signed by ``direction``
    only where it is reported.  The running columns are kept packed: a
    column that leaves is written to the result and dropped from the
    working arrays, so a round works on whole arrays.  Fancy indexing is
    needed only in a round where columns leave, or where some but not all
    steps are accepted; a single orbit needs it only once, when it ends.
    Each stage is folded into every stage sum that uses it as soon as it
    is known, so each sum adds its terms elementwise in stage order (see
    ``_attempt``), and reductions over a column add in the order they would
    over a 1-D vector, so every column steps exactly as it would alone.
    """
    n = x0.shape[1]
    target = np.broadcast_to(np.asarray(target, dtype=float), (n,)).copy()
    direction = np.broadcast_to(np.asarray(direction, dtype=float), (n,))
    out = _Run(np.zeros(n), np.array(x0, dtype=float), np.zeros(n, int),
               np.zeros(n, int), np.zeros(n, int))
    cols = np.arange(n)
    X = out.x.copy()
    t = np.zeros(n)
    steps = np.zeros(n, dtype=int)
    rounds = 0
    with np.errstate(all="ignore"):
        f0 = F(X)
        h = _first_step(F, X, f0, direction, target, rtol, atol)
        code = np.where(target == 0.0, DONE,
                        np.where(max_steps <= 0, EXHAUSTED,
                                 np.where(h >= 1e-14, 0, UNDERFLOW)))
        while True:
            if code.any():
                gone = code != 0
                c = cols[gone]
                out.t[c], out.x[:, c], out.steps[c] = \
                    direction[gone] * t[gone], X[:, gone], steps[gone]
                out.rejected[c] = rounds - steps[gone]
                out.status[c] = code[gone]
                keep = ~gone
                cols, X, f0, t, h = (cols[keep], X[:, keep], f0[:, keep],
                                     t[keep], h[keep])
                steps, target, direction = (steps[keep], target[keep],
                                            direction[keep])
            if not cols.size:
                break
            hc = np.minimum(h, target - t)
            dh = direction * hc
            try:
                xnew, fnew, err, finite = _attempt(F, X, f0, dh, hc, rtol,
                                                   atol)
            except (ValueError, ZeroDivisionError, OverflowError):
                err, finite = hc, np.zeros(cols.size, dtype=bool)
            ok = finite & (err <= 1.0)
            n_ok = np.count_nonzero(ok)
            every = n_ok == cols.size
            h = hc * (_factor(err, 0.333, 6.0) if every else np.where(
                finite, np.where(ok, _factor(err, 0.333, 6.0),
                                 _factor(err, 0.1, 1.0)), 0.25))
            steps += ok
            rounds += 1
            code = np.full(cols.size, EXHAUSTED if rounds >= max_steps else 0)
            if n_ok:
                if every:
                    t += hc
                else:
                    np.add(t, hc, out=t, where=ok)
                sel = slice(None) if every else ok
                xa, fa = (xnew, fnew) if every else (xnew[:, ok], fnew[:, ok])
                stop = False
                if accepted is not None:
                    stop = np.asarray(accepted(
                        cols[sel], direction[sel] * t[sel], X[:, sel], xa,
                        fa), dtype=bool)
                if every:
                    X, f0 = xa, fa
                else:
                    X[:, ok], f0[:, ok] = xa, fa
                code[sel] = np.where(stop, STOPPED, np.where(
                    t[sel] >= target[sel], DONE, code[sel]))
            code[(code == 0) & ~(h >= 1e-14 * (t + 1.0))] = UNDERFLOW
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
    return err


def field_scale(fieldd, block):
    """Mean field magnitude over a 5-per-axis lattice on the block's
    bounding box; used to make the speed tolerance dimensionless.  The mean
    (rather than the median) keeps the scale positive even when the lattice
    happens to hit several equilibria.  Lattice points where the field is
    not finite are left out."""
    with np.errstate(all="ignore"):
        mags = _norms(expr.compile_field(fieldd)(block.lattice(5).T))
    mags = mags[np.isfinite(mags)]
    return max(float(np.mean(mags)), 1e-12) if mags.size else 1.0


@dataclass(frozen=True)
class LimitClass:
    """Per-column outcome of ``classify_limit``."""

    # ("crit", ident) | ("exit",) | ("budget",) | ("failed", error), per column
    tag: tuple


# The radius of a critical point's chart ball, as a fraction of the
# distance from the point to its nearest other critical point or to the
# side of the block's bounding box nearest to it; under a half, no two
# balls meet.
_CHART = 0.1


def _charts(crits, block):
    """The chart balls of the critical points ``crits`` in the block:
    centres (K, m), radii (K,), the Hessian eigenvalues (K, m) in ascending
    order and the eigenbases (K, m, m), whose column i is the eigenvector of
    eigenvalue i."""
    m = block.dimension
    centres = np.array([c.coords for c in crits], dtype=float).reshape(-1, m)
    lo, hi = (np.array(v) for v in block.bounding_box())
    d = centres[:, None, :] - centres[None, :, :]
    gap = np.sqrt(np.vecdot(d, d))
    np.fill_diagonal(gap, np.inf)
    edge = np.minimum(centres - lo, hi - centres).min(axis=1, initial=np.inf)
    edge = np.maximum(edge, 0.0)  # a point outside the box has no ball
    radius = _CHART * np.minimum(gap.min(axis=1, initial=np.inf), edge)
    lams = np.array([c.eigenvalues for c in crits], dtype=float).reshape(-1, m)
    basis = np.array([np.column_stack(c.frame + c.stable) for c in crits],
                     dtype=float).reshape(-1, m, m)
    return centres, radius, lams, basis


def _log_sum(L, mask, rate):
    """For each row of L, log sum_i exp(L_i) over the entries of ``mask``,
    and the mean of ``rate`` over them weighted by exp(L_i), its
    derivative when L_i grows at ``rate``."""
    top = np.max(L, axis=1, where=mask, initial=-np.inf)
    e = np.exp(L - top[:, None])
    s = np.add.reduce(e, axis=1, where=mask)
    return top + np.log(s), np.add.reduce(rate * e, axis=1, where=mask) / s


def _least_speed(a, mu):
    """For each row of the (n, m) arrays a >= 0 and mu, the least value over
    tau >= 0 of sqrt(g(tau)), g(tau) = sum_i a_i exp(2 mu_i tau): the least
    future speed of a linear flow whose component i has speed sqrt(a_i) and
    rate mu_i.

    g is convex.  With no growing term (mu_i > 0 and a_i > 0) its infimum,
    as tau grows, is 0; where g'(0) >= 0 its least value is g(0).
    Otherwise g' = P - N, P the sum of its growing terms and N minus the sum
    of its decaying ones, has one root, where the increasing function
    phi = log P - log N crosses 0, at most at the least tau at which one
    growing term alone reaches N(0).  Newton steps on phi, which is linear
    where one term dominates each sum, find it, with a bisection of the
    bracket where a step leaves it; the sums are taken in logs, so no term
    overflows or underflows.  Each row stops on its own, so it takes the
    same steps in any batch."""
    w = 2.0 * mu * a  # the terms of g'(0)
    up, down = w > 0, w < 0
    least = np.where(np.logical_or.reduce(up, axis=1),
                     np.sqrt(np.add.reduce(a, axis=1)), 0.0)
    hunt = np.flatnonzero(np.logical_or.reduce(up, axis=1)
                          & (np.add.reduce(w, axis=1) < 0))
    if not hunt.size:
        return least
    a, mu, up, down = a[hunt], mu[hunt], up[hunt], down[hunt]
    rate = 2.0 * mu
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logw = np.log(np.abs(w[hunt]))
        bound = (_log_sum(logw, down, rate)[0][:, None] - logw) / rate
        lo = np.zeros(hunt.size)
        hi = np.min(bound, axis=1, where=up, initial=np.inf)
        tau = 0.5 * hi
        live = np.arange(hunt.size)
        for _ in range(100):
            t = tau[live]
            L = logw[live] + rate[live] * t[:, None]
            lp, rp = _log_sum(L, up[live], rate[live])
            ln, rn = _log_sum(L, down[live], rate[live])
            phi = lp - ln
            step = phi / (rp - rn)
            lo[live] = np.where(phi < 0, t, lo[live])
            hi[live] = np.where(phi > 0, t, hi[live])
            done = np.abs(step) <= 1e-12 * t
            nxt = t - step
            nxt = np.where((nxt > lo[live]) & (nxt < hi[live]), nxt,
                           0.5 * (lo[live] + hi[live]))
            tau[live] = np.where(done, t, nxt)
            live = live[~done]
            if not live.size:
                break
        least[hunt] = np.sqrt(np.add.reduce(
            a * np.exp(rate * tau[:, None]), axis=1))
    return least


def classify_limit(F, X0, crits, block, t_end, scale, direction=1,
                   tols=DEFAULT):
    """Run the orbit of every column of the (m, N) array X0 on the compiled
    field ``F(X)`` until capture at a critical point of ``crits``, exit
    from the block, or |t| = ``t_end``, as one ``_dop853`` batch.
    ``direction`` is the direction of time, one sign for all columns or an
    (N,) array of one sign per column.  ``F`` is -grad f, and ``crits``
    are critical points of f with the eigenvalues and eigenvectors of its
    Hessian (``morse.CriticalPoint``).  ``scale``, the ``field_scale`` of
    the field, sets the speed tolerance of capture; it is read only when
    ``crits`` is not empty.

    Each critical point q has a chart ball of radius R_q, a tenth of the
    distance from q to the nearest other critical point or to the nearest
    side of the block's bounding box, so no two balls meet.  After each
    accepted step a column has exited once its new point lies outside the
    block.  Otherwise, when the new point lies in the ball of q and the
    column's last step end did not, q's linear flow decides once whether
    the column is captured: with y = x - q in q's eigenbasis, d the
    column's direction of time and mu_i = -d lam_i, it is captured when the
    least future speed of the linear orbit, min over tau >= 0 of
    sqrt(sum_i (mu_i y_i)^2 exp(2 mu_i tau)) (``_least_speed``), is below
    ``tols.speed_tol_factor`` * ``scale``.  A column that is not captured
    runs on, and is decided again only once it has left the ball and
    entered one again.

    Returns (limits, run): the label of each column, and the ``_Run`` of
    the batch, whose ``t`` and ``x`` are each column's signed end time and
    end point (for an exit, the first point reached outside the block, with
    no bisection onto the boundary; for a capture, the first point in the
    ball).  A label is ("crit", ident) for a capture, ("exit",) for an
    exit, ("budget",) for a column out of time, and ("failed", error) for a
    column whose step underflows or that runs out of steps, with the error
    of ``_dop853``; nothing is raised, and the other columns keep their
    labels."""
    X0 = np.asarray(X0, dtype=float)
    n = X0.shape[1]
    centres, radius, lams, basis = _charts(crits, block)
    speed_tol = tols.speed_tol_factor * scale if len(crits) else 0.0
    sign = np.broadcast_to(np.asarray(direction, dtype=float), (n,))
    ball = np.full(n, -1)  # the ball of each column's last step end, or -1
    captor = np.full(n, -1)  # index into crits of a captured column
    # |c|^2 - (2 R)^2 - 2 c.x, which is below -|x|^2 in the ball of radius
    # 2 R about c alone: no two of these balls meet either, and the
    # rounding of the product cannot drop a point of the ball of radius R
    lift = np.column_stack([-2.0 * centres,
                            _sumsq(centres.T) - 4.0 * radius ** 2])

    def stop(cols, t, x_old, X, f_new):
        out = ~block.contains_columns(X)
        if not len(crits):
            return out
        G = lift[:, :-1] @ X
        G += lift[:, -1:]
        near = np.flatnonzero(G.min(axis=0) < -_sumsq(X))
        q = np.argmin(G[:, near], axis=0)
        d = X[:, near] - centres[q].T
        inside = (_sumsq(d) < radius[q] ** 2) & ~out[near]
        now = np.full(cols.size, -1)
        now[near[inside]] = q[inside]
        new = np.flatnonzero((now >= 0) & (now != ball[cols]))
        ball[cols] = now
        if new.size:
            q = now[new]
            y = np.add.reduce(basis[q] * _rows(X[:, new] - centres[q].T)[
                :, :, None], axis=1)
            mu = -sign[cols[new], None] * lams[q]
            hit = _least_speed((mu * y) ** 2, mu) < speed_tol
            captor[cols[new[hit]]] = q[hit]
            out[new[hit]] = True
        return out

    run = _dop853(F, X0, direction, t_end, tols.rtol, tols.atol,
                  tols.max_steps, stop)
    errors = (_failure(run, tols.max_steps, j) for j in range(n))
    return LimitClass(tuple(
        ("failed", e) if e is not None else ("budget",) if s == DONE
        else ("exit",) if c < 0 else ("crit", crits[c].ident)
        for s, c, e in zip(run.status, captor, errors))), run
