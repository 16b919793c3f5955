"""Critical points, signed connecting-orbit counts, and the Morse chain
complex of a gradient flow on a cubical block.

Critical points come from one damped Newton solver, ``newton``, which steps
every seed of a lattice at once: one stacked linear solve per round and a
least-squares step where a Hessian is singular.  ``find_critical_points``
runs it on the block's bounding-box lattice.

The complex is built once, over Z: ``ConnectionFinder.search`` runs one
search pass over the whole critical set and returns the signed witnesses of
each (source, target) pair, and ``build_complex`` sums their signs into the
entries of d_k.  Homology over Z/2 is read off this same complex
(``homalg.homology``).

Connections are counted only between critical points of adjacent index.  A
connecting orbit p -> q, with ind p = k and ind q = k - 1, lies on the
unstable manifold of p and on the stable manifold of q, so it crosses both
the unstable sphere S^{k-1} of p and the stable sphere S^{m-k} of q.  Each
sphere searched is a ``sphere.Circle``, a cycle of directions d in
angular order seeded at x + delta_u (frame @ d) and followed in one
direction of time (``ConnectionFinder._spheres``):

- k = 1: forward on -grad f from the unstable S^0 of p, the seeds
  p +- delta_u v_u.  The sign of a witness is the sign of its direction
  coefficient, the orientation convention for an index-0 target.
- k = m > 1: backward in time from the stable S^0 of every target q of
  index m - 1, the seeds q +- delta_u v_s.  An orbit from q + sigma
  delta_u v_s that reaches p is a witness of p -> q; its sign is
  sign det(U_p) * sign det[-sigma v_s, U_q], with U the unstable frames,
  since the flow's Jacobian has positive determinant (Liouville's formula).
- 1 < k < m, so k = 2: forward on the unstable circle of p.  A connecting
  orbit has a capture window, an interval of the circle, so a witness is a
  run of neighbours captured at one target q.  Its sign is det R, R the
  rotation of the seed cycle, times +1 if the direction just past the
  window in angular order follows q's +v_u unstable branch and -1 if it
  follows the -v_u branch, as the labels of q's forward S^0 tell (Schwarz,
  Morse Homology, 1993); any other case raises ``MorseError``.
- 3 <= k <= m - 1: the connecting directions are isolated points on curves
  of S^{k-1}, which bisection cannot find, so ``search`` raises
  ``MorseError`` for the first such point in order of index before any
  orbit runs.

All spheres of a search are refined in lockstep (``_search_spheres``):
every gap whose end labels differ is refined by halving, ``sphere.DEPTH``
levels in one batch, down to ``dir_tol``, and each batch is one
``flow.classify_limit`` call on the same field for every sphere, each
column with its own direction of time: the forward S^0 first, then the
backward S^0, then the circles.  One rule reads every label of a sphere
(``ConnectionFinder._read``), right after its batch and in batch order:
the first orbit of a batch that fails raises its error, and the first that
hits the time budget, or that is captured at a critical point whose index
is not below the source's (not above it, backward in time), a connection
that is not Morse-Smale, raises ``MorseError``.  On a zero-sphere this
admits only the adjacent index.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import expr, flow, homalg, sphere
from .config import DEFAULT, normals


class MorseError(Exception):
    pass


class DegenerateCriticalPointError(MorseError):
    def __init__(self, coords, margin):
        super().__init__(
            f"degenerate critical point at {coords} "
            f"(eigenvalue margin {margin:.3e}); re-perturb")
        self.coords = coords
        self.margin = margin


@dataclass(frozen=True)
class CriticalPoint:
    ident: int
    coords: tuple
    f_value: float
    eigenvalues: tuple  # ascending
    index: int          # number of negative eigenvalues
    frame: tuple        # unstable eigenvectors, ascending eigenvalue order
    stable: tuple       # stable eigenvectors, ascending eigenvalue order

    def frame_matrix(self):
        return (np.column_stack([np.asarray(v) for v in self.frame])
                if self.frame else np.zeros((len(self.coords), 0)))


def _sign_normalize(v):
    for c in v:
        if abs(c) > 1e-12:
            return v if c > 0 else -v
    return v


def _norms(rows):
    """Euclidean norm of each row of a C-contiguous (k, n) array, added in
    the order ``np.linalg.norm`` adds one row on its own."""
    return np.sqrt(np.vecdot(rows, rows))


def newton(f, b, seeds, tol, radius):
    """Critical points of f reached by damped Newton iteration from every
    column of the (m, N) array ``seeds`` at once, m = ``b.dimension``.

    A column takes at most 80 steps: it converges once its gradient norm
    is below ``tol``, and fails once its gradient is not finite or it
    leaves the bounding box widened by its span on every side.  Steps are
    capped at the longest side of the box.  One stacked ``np.linalg.solve``
    gives the steps of all running columns, and a column whose Hessian is
    exactly singular takes the least-squares step, so every column steps as
    it would alone.

    Returns (P, H): as an (m, K) array in seed order, the converged points
    inside the block that lie at least ``radius`` from every earlier one,
    and the (K, m, m) Hessians there.
    """
    m, N = seeds.shape
    grad = expr.compile_field(expr.gradient(f, m))
    second = expr.compile_field(expr.hessian(f, m))

    def hess(Z):
        return second(Z).reshape(m, m, Z.shape[1]).transpose(2, 0, 1)

    lo, hi = (np.asarray(v, dtype=float)[:, None] for v in b.bounding_box())
    span = hi - lo
    cap = float(np.max(span))
    Z = np.array(seeds, dtype=float)
    ok = np.zeros(N, dtype=bool)
    cols = np.arange(N)
    with np.errstate(all="ignore"):
        for _ in range(80):
            g = np.ascontiguousarray(grad(Z[:, cols]).T)
            finite = np.logical_and.reduce(np.isfinite(g), axis=1)
            done = finite & (_norms(g) < tol)
            ok[cols[done]] = True
            cols, g = cols[finite & ~done], g[finite & ~done]
            if not cols.size:
                break
            H = hess(Z[:, cols])
            # the stacked solve raises if any matrix in it is singular;
            # slogdet runs the same LU factorization and flags exactly those
            singular = np.linalg.slogdet(H)[0] == 0
            step = np.empty_like(g)
            step[~singular] = np.linalg.solve(
                H[~singular], g[~singular, :, None])[..., 0]
            for j in np.flatnonzero(singular):
                step[j] = np.linalg.lstsq(H[j], g[j], rcond=None)[0]
            ns = _norms(step)
            long = ns > cap
            step[long] *= (cap / ns[long])[:, None]
            X = Z[:, cols] - step.T
            Z[:, cols] = X
            out = np.logical_or.reduce((X < lo - span) | (X > hi + span),
                                       axis=0)
            cols = cols[~out]
    P = Z[:, ok & b.contains_columns(Z)]
    # greedy in seed order: keep the first point left, drop all near it
    keep, rest = [], np.arange(P.shape[1])
    while rest.size:
        keep.append(rest[0])
        d = np.ascontiguousarray(P.T[rest] - P[:, rest[0]])
        rest = rest[~(_norms(d) < radius)]
    P = P[:, keep]
    with np.errstate(all="ignore"):
        return P, hess(P)


def find_critical_points(f, b, tols=DEFAULT):
    """Critical points of f inside the block, by ``newton`` from a
    ``tols.seed_density``-per-axis lattice over the bounding box; each is
    checked for nondegeneracy.  Idents follow the lexicographic order of
    the coordinates."""
    P, H = newton(f, b, b.lattice(tols.seed_density).T, tols.newton_tol,
                  max(10 * tols.newton_tol, 1e-8))
    order = np.lexsort(P[::-1])
    evals, evecs = np.linalg.eigh(0.5 * (H + H.transpose(0, 2, 1))[order])
    with np.errstate(all="ignore"):
        fvals = expr.compile_field(expr.FieldDef(len(P), (f,)))(P)[0][order]
    crits = []
    for i, p in enumerate(P.T[order]):
        margin = float(np.min(np.abs(evals[i])))
        if margin <= tols.margin_tol:
            raise DegenerateCriticalPointError(
                tuple(float(v) for v in p), margin)
        k = int(np.sum(evals[i] < 0))
        vecs = [tuple(float(v) for v in _sign_normalize(evecs[i][:, j]))
                for j in range(len(p))]
        crits.append(CriticalPoint(
            ident=i,
            coords=tuple(float(v) for v in p),
            f_value=float(fvals[i]),
            eigenvalues=tuple(float(v) for v in evals[i]),
            index=k,
            frame=tuple(vecs[:k]),
            stable=tuple(vecs[k:])))
    return crits


@dataclass
class Witness:
    # coefficients on the unstable sphere of the source; for a witness found
    # backward (source of index m), sigma = +-1 on the stable S^0 of the
    # target
    direction: tuple
    sign: int
    # the time from the seed to capture; backward time for a backward witness
    capture_time: float


@dataclass
class ConnectionCount:
    source: int
    target: int
    n: int
    witnesses: list


class ConnectionFinder:
    """Counts connecting orbits from source critical points to every
    index-adjacent target, on a zero-sphere where one side of a connection
    is one and on the unstable circle of an index-2 source otherwise."""

    def __init__(self, gradfield, b, crits, tols=DEFAULT, seed=0):
        self.b = b
        self.crits = crits
        self.by_id = {c.ident: c for c in crits}
        self.tols = tols
        self.F = expr.compile_field(gradfield)
        self.scale = flow.field_scale(gradfield, b)
        self.seed = seed

    def _rotation(self, k):
        # random.Random takes no tuple; a str seeds it from its bytes
        A = np.array(normals(f"{self.seed}:{k}", k * k)).reshape(k, k)
        Q, R = np.linalg.qr(A)
        return Q * np.sign(np.diag(R))

    def _seed_point(self, s, d):
        return np.asarray(s.x.coords) + self.tols.delta_u * (s.frame @ d)

    def _classify(self, seeds):
        """Classify as one ``flow.classify_limit`` batch the orbits from the
        seed points of ``seeds``, pairs (point, direction of time): one
        (label, signed end time) per seed."""
        if not seeds:
            return []
        lc, run = flow.classify_limit(
            self.F, np.column_stack([p for p, _ in seeds]), self.crits,
            self.b, self.tols.t_budget, self.scale,
            direction=np.array([d for _, d in seeds]), tols=self.tols)
        return list(zip(lc.tag, run.t.tolist()))

    def search(self):
        """The signed witnesses of every connection of the critical set,
        {(source ident, target ident): [Witness]}, found on the spheres
        ``_spheres`` picks by ``_search_spheres``; a pair without a witness
        has no key."""
        return self._search_spheres(self._spheres())

    def _spheres(self):
        """The ``sphere.Circle`` of each critical point with targets, in
        order of index; one without any has no witnesses.

        A source of index 1 is searched forward on its unstable S^0, and
        one of index 1 < k < m on its unstable circle.  The sources of
        index m > 1 are searched backward from the stable S^0 of every
        target of index m - 1.  A source of index 3 <= k <= m - 1 raises
        ``MorseError`` before any orbit runs.  The list holds the forward
        S^0 in source order, the backward S^0 in the order of the critical
        points, then the circles in source order."""
        m = self.b.dimension
        forward, circles, top = [], [], False
        for x in sorted(self.crits, key=lambda c: c.index):
            targets = {c.ident for c in self.crits if c.index == x.index - 1}
            if not targets:
                continue
            if x.index == m > 1:
                top = True
            elif x.index > 2:
                raise MorseError(
                    f"critical point {x.ident} at {x.coords} has index "
                    f"{x.index}: its connections to index {x.index - 1} "
                    f"leave its unstable sphere S^{x.index - 1} through "
                    f"isolated points on curves, which bisection cannot "
                    f"find; only S^0 and S^1 are searched")
            else:
                (forward if x.index == 1 else circles).append(
                    self._circle(x, 1, x.frame_matrix(), targets))
        tops = {x.ident for x in self.crits if x.index == m}
        backward = [self._circle(q, -1, np.column_stack(q.stable), tops)
                    for q in self.crits if top and q.index == m - 1]
        return forward + backward + circles

    def _circle(self, x, time, frame, targets):
        """The ``sphere.Circle`` at x along the k columns of ``frame``, k =
        1 or 2, before refinement."""
        k = frame.shape[1]
        return sphere.Circle(x, time, frame, targets, sphere.cycles(
            k, self.tols.n_dir_seeds,
            self._rotation(2) if k == 2 else np.eye(1)), self.tols.dir_tol)

    def _read(self, s, u, lab):
        """Read the label ``lab`` of the orbit from the seed along the
        coefficients ``u`` of the sphere ``s``.

        The one rule for every label of a sphere: an orbit that exits
        passes; a failed orbit raises its error; one that hits the time
        budget, or that is captured at a critical point whose index is not
        below the sphere's point (forward) or not above it (backward), a
        connection that is not Morse-Smale, raises ``MorseError``."""
        if lab[0] == "exit":
            return
        if lab[0] == "failed":
            raise lab[1]
        x = s.x
        if lab[0] == "crit":
            c = self.by_id[lab[1]]
            if (x.index - c.index) * s.time > 0:
                return
        where = (f"the orbit from critical point {x.ident} at {x.coords} "
                 f"along seed {', '.join(f'{v:+g}' for v in u)} of its "
                 f"{'unstable' if s.time > 0 else 'stable'} S^{len(u) - 1}")
        if lab[0] == "budget":
            raise MorseError(f"{where} hit the time budget; a missed orbit "
                             f"would be a miscount")
        raise MorseError(f"{where} is captured at critical point {c.ident} "
                         f"of index {c.index}: the connection is not "
                         f"Morse-Smale")

    def _search_spheres(self, spheres):
        """Refine ``spheres`` in lockstep and return their signed
        witnesses, {(source ident, target ident): [Witness]}.

        Each step labels what every unfinished sphere wants in one
        ``_classify`` batch, and ``_read`` reads each of its labels, in
        batch order, before any sphere learns them.  A witness of a forward
        S^0 is signed by its direction coefficient, one of a backward S^0
        by the determinant rule and keyed by the source it reaches, and one
        of a circle by ``_branch``."""
        while True:
            asks = [(s, s.wanted()) for s in spheres]
            seeds = [(s, u) for s, us in asks for u in us]
            if not seeds:
                break
            labels = self._classify([(self._seed_point(s, u), s.time)
                                     for s, u in seeds])
            for (s, u), (lab, _) in zip(seeds, labels):
                self._read(s, u, lab)
            labels = iter(labels)
            for s, us in asks:
                s.learn(itertools.islice(labels, len(us)))
        found = [(s, tgt, *item) for s in spheres
                 for tgt, items in s.witnesses().items() for item in items]
        branches = {s.x.ident: [c[0][1][0] for c in s.cycles]
                    for s in spheres if s.time > 0 and s.frame.shape[1] == 1}
        witnesses, turn = {}, 0
        for s, tgt, d, t, after in found:
            if len(d) > 1:
                # the orientation of the seed cycle, read once it is needed
                turn = turn or int(np.sign(np.linalg.det(self._rotation(2))))
                sign = turn * self._branch(s, self.by_id[tgt], after,
                                           branches)
            elif s.time > 0:
                sign = 1 if d[0] > 0 else -1
            else:
                p = self.by_id[tgt]
                det = np.linalg.det(p.frame_matrix()) * np.linalg.det(
                    np.column_stack([-d * s.frame, s.x.frame_matrix()]))
                sign = 1 if det > 0 else -1
            pair = (tgt, s.x.ident) if s.time < 0 else (s.x.ident, tgt)
            witnesses.setdefault(pair, []).append(
                Witness(tuple(float(v) for v in d), sign, t))
        return witnesses

    @staticmethod
    def _branch(s, q, after, branches):
        """+1 if ``after``, the label past a window of the circle ``s`` at
        q, is that of q's +v_u branch, -1 if of its -v_u branch; ``branches``
        holds the labels of the points +1 and -1 of each forward S^0 by
        ident.  A window lies only in a gap whose end labels differ, near q
        its two branches, so no ``MorseError`` here loses a count."""
        where = (f"the unstable S^1 of critical point {s.x.ident} at "
                 f"{s.x.coords} has a witness at critical point {q.ident}")
        if q.ident not in branches:
            raise MorseError(f"{where}, which has no unstable S^0 in the "
                             f"search, so the witness has no sign")
        plus, minus = (_end(lab) for lab in branches[q.ident])
        if plus == minus or after not in branches[q.ident]:
            raise MorseError(f"{where}, past whose window the orbit ends in "
                             f"{_end(after)}, and its +-v_u branches in "
                             f"{plus} and {minus}: the witness has no sign")
        return 1 if after == branches[q.ident][0] else -1


def _end(lab):
    """Where the orbit of a circle label ends, in words."""
    return "the exit" if lab[0] == "exit" else f"critical point {lab[1]}"


def count_connections(x, y, witnesses):
    """Signed count of connecting orbits from x down to y (adjacent index),
    from the witnesses of ``ConnectionFinder.search``."""
    if x.index != y.index + 1:
        raise MorseError(
            f"index difference must be 1, got {x.index} -> {y.index}")
    ws = witnesses.get((x.ident, y.ident), [])
    return ConnectionCount(x.ident, y.ident, sum(w.sign for w in ws), ws)


def build_complex(f, b, crits, tols=DEFAULT, seed=0):
    """Assemble the Morse chain complex over Z on the given critical
    points: C_k has the critical points of index k, in ``crits`` order, and
    d_k the signed counts of ``count_connections``.
    ``homalg.homology`` checks its d^2 = 0, which a missed or double-counted
    connecting orbit breaks."""
    witnesses = ConnectionFinder(expr.negative_gradient(f, b.dimension), b,
                                 crits, tols=tols, seed=seed).search()
    top = max((c.index for c in crits), default=0)
    gens = [[c for c in crits if c.index == k] for k in range(top + 1)]
    columns = {}
    counts = []
    for k in range(1, top + 1):
        ck = columns[k] = []
        for x in gens[k]:
            ck.append({})
            for i, y in enumerate(gens[k - 1]):
                cc = count_connections(x, y, witnesses)
                counts.append(cc)
                if cc.n:
                    ck[-1][i] = cc.n
    return homalg.ChainComplex([len(g) for g in gens], columns=columns), counts
