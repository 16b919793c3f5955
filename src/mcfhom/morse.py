"""Critical points, signed connecting-orbit counts, and the Morse chain
complex of a gradient flow on a cubical block.

Critical points come from one damped Newton solver, ``newton``, which steps
every seed of a lattice at once: one stacked linear solve per round, a
least-squares step where a Hessian is singular, and an optional periodic
last coordinate.  ``find_critical_points`` runs it on the block's
bounding-box lattice, and the index split of ``conley.verify_index_split``
on that lattice times the mu circle.

Connections are counted only between critical points of adjacent index.  A
connecting orbit p -> q, with ind p = k and ind q = k - 1, lies on the
unstable manifold of p and on the stable manifold of q, so it crosses both
the unstable sphere S^{k-1} of p and the stable sphere S^{m-k} of q.  It is
counted on a zero-sphere wherever one side is one:

- k = 1: forward on -grad f from the seeds p +- delta_u v_u, where v_u is
  the unstable eigenvector of p.  The sign of a witness is the sign of its
  direction coefficient, the orientation convention for an index-0 target.
- k = m: backward in time on -grad f (forward on +grad f) from the seeds
  q +- delta_u v_s of every target q, where v_s is the stable eigenvector
  of q.  An orbit from q + sigma delta_u v_s that reaches p is a witness of
  p -> q; its sign is sign det(U_p) * sign det[-sigma v_s, U_q], with U the
  unstable frames, since the flow's Jacobian has positive determinant
  (Liouville's formula).

Every seed of a zero-sphere is read, so its orbit must settle: one that
hits the time budget, or that is captured at a critical point of another
index than the adjacent one (a connection that is not Morse-Smale), raises
``MorseError``.  All zero-sphere seeds of a search go in one
``flow.classify_limit`` batch on the same field, each column with its own
direction of time: the forward seeds first, then the backward ones, which
are read in this order.

For 1 < k < m the seeds live on a small sphere inside the unstable
eigenspace of p (``ConnectionFinder.sphere_search``, which also serves as
the test oracle for every k); basin boundaries on that sphere are isolated
by adaptive bisection (``sphere.Sphere``) and each witness orbit receives a
sign by transporting the source's unstable frame along it.  The bisection
runs breadth-first and labels ahead of itself: a walk refines every simplex
whose labels are known, and each simplex where it stops has the vertices of
its subtree, ``sphere.LOOK_AHEAD`` levels deep, labelled in the next batch.
The spheres of all sources are refined in lockstep, so each batch is one
``flow.classify_limit`` call for every source.  The witness list comes from
a depth-first replay of the same refinement, so it does not depend on how
far ahead the batches labelled.  Nor does whether the search fails: the
error of a failed orbit is raised only where the refinement reads its
label.  Witnesses of one orbit are clustered by labelling the midpoints
between them, one batch per pass of the clustering.  After clustering, the
witnesses of all sources with one frame size are signed by one
``flow.transport_frame`` batch.  Directions read by the refinement whose
orbit hits the time budget count as non-connecting; they are counted in
``ConnectionFinder.budget_hits`` and logged as a warning on the
``mcfhom.morse`` logger.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from . import expr, flow, homalg, sphere
from .config import DEFAULT, normals

log = logging.getLogger(__name__)


class MorseError(Exception):
    pass


class DegenerateCriticalPointError(MorseError):
    def __init__(self, coords, margin):
        super().__init__(
            f"degenerate critical point at {coords} "
            f"(eigenvalue margin {margin:.3e}); re-perturb")
        self.coords = coords
        self.margin = margin


class OrientationError(MorseError):
    pass


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


def newton(f, b, seeds, tol, period, radius):
    """Critical points of f reached by damped Newton iteration from every
    column of the (n, N) array ``seeds`` at once.

    The first m = ``b.dimension`` coordinates are those of the block; with
    a ``period``, the one more coordinate that follows is reduced by fmod
    into [0, period) after every step.  A column takes at most 80 steps:
    it converges once its gradient norm is below ``tol``, and fails once
    its gradient is not finite or it leaves the bounding box widened by its
    span on every side.  Steps are capped at the longest side of the box.
    One stacked ``np.linalg.solve`` gives the steps of all running columns,
    and a column whose Hessian is exactly singular takes the least-squares
    step, so every column steps as it would alone.

    Returns (P, H): as an (n, K) array in seed order, the converged points
    inside the block that lie at least ``radius`` from every earlier one
    (in block coordinates and, with a period, on the circle as well), and
    the (K, n, n) Hessians there.
    """
    n, N = seeds.shape
    m = b.dimension
    grad = expr.compile_field(expr.FieldDef(n, expr.gradient(f, n)))
    rows = [expr.compile_field(expr.FieldDef(n, row))
            for row in expr.hessian(f, n)]

    def hess(Z):
        return np.stack([r(Z) for r in rows]).transpose(2, 0, 1)

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
            if period is not None:
                t = np.fmod(X[m], period)
                t = np.where(t < 0.0, t + period, t)
                # a tiny negative remainder plus the period rounds to it
                X[m] = np.where(t == period, 0.0, t)
            Z[:, cols] = X
            out = np.logical_or.reduce((X[:m] < lo - span)
                                       | (X[:m] > hi + span), axis=0)
            cols = cols[~out]
    P = Z[:, ok & b.contains_columns(Z[:m])]
    # greedy in seed order: keep the first point left, drop all near it
    keep, rest = [], np.arange(P.shape[1])
    while rest.size:
        keep.append(rest[0])
        d = P.T[rest] - P[:, rest[0]]
        near = _norms(np.ascontiguousarray(d[:, :m])) < radius
        if period is not None:
            a = np.abs(d[:, m])
            near &= np.minimum(a, period - a) < radius
        rest = rest[~near]
    P = P[:, keep]
    return P, hess(P)


def find_critical_points(f, b, tols=DEFAULT):
    """Critical points of f inside the block, by ``newton`` from a
    ``tols.seed_density``-per-axis lattice over the bounding box; each is
    checked for nondegeneracy.  Idents follow the lexicographic order of
    the coordinates."""
    P, H = newton(f, b, b.lattice(tols.seed_density).T, tols.newton_tol,
                  None, max(10 * tols.newton_tol, 1e-8))
    order = np.lexsort(P[::-1])
    evals, evecs = np.linalg.eigh(0.5 * (H + H.transpose(0, 2, 1))[order])
    with np.errstate(all="ignore"):
        fvals = np.broadcast_to(expr.compile_scalar(f)(P),
                                order.shape)[order]
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
    is one and on the unstable direction sphere of the source otherwise."""

    def __init__(self, gradfield, b, crits, tols=DEFAULT, seed=0):
        self.gradfield = gradfield
        self.b = b
        self.crits = crits
        self.by_id = {c.ident: c for c in crits}
        self.tols = tols
        self.scale = flow.field_scale(gradfield, b)
        self._rotations = {}  # k -> the rotation of S^{k-1}'s initial seeds
        self.seed = seed
        self._witnesses = {}  # source ident -> {target ident: [Witness]}
        self.budget_hits = 0  # directions whose orbit hit the time budget

    def _rotation(self, k):
        if k not in self._rotations:
            # random.Random takes no tuple; a str seeds it from its bytes
            A = np.array(normals(f"{self.seed}:{k}", k * k)).reshape(k, k)
            Q, R = np.linalg.qr(A)
            self._rotations[k] = Q * np.sign(np.diag(R))
        return self._rotations[k]

    def _seed_point(self, x, d):
        U = x.frame_matrix()
        return np.asarray(x.coords) + self.tols.delta_u * (U @ d)

    def _classify(self, jobs):
        """Classify as one batch the orbits leaving each source x along the
        directions ``dirs`` (coefficients in its unstable eigenspace), for
        the pairs (x, dirs) of ``jobs``: one list per pair of each
        direction's label ("crit", ident), ("exit",), ("budget",) or
        ("failed", error) and signed end time."""
        P0 = np.column_stack([self._seed_point(x, d)
                              for x, dirs in jobs for d in dirs])
        lc, run = flow.classify_limit(
            self.gradfield, P0, self.crits, self.b, tols=self.tols,
            scale=self.scale)
        labels = [(("crit", ident) if tag == "converged" else
                   ("exit",) if tag == "exited" else
                   ("failed", err) if tag == "failed" else ("budget",),
                   float(t))
                  for tag, ident, err, t in zip(lc.tag, lc.crit_id,
                                                lc.errors, run.t)]
        out, i = [], 0
        for _, dirs in jobs:
            out.append(labels[i:i + len(dirs)])
            i += len(dirs)
        return out

    def witnesses_for(self, source_ident):
        if source_ident not in self._witnesses:
            self.search([self.by_id[source_ident]])
        return self._witnesses[source_ident]

    def search(self, sources):
        """Find and sign the witnesses of every source not searched yet.

        Sources of index 1 are searched forward on their unstable S^0 and
        sources of index m backward from the stable S^0 of every target of
        index m - 1, which finds the witnesses of all sources of index m at
        once.  Both kinds of seed run in one ``_zero_sphere`` batch, the
        forward ones first; its forward orbits are read and stored first,
        then its backward ones.  The other sources go to
        ``sphere_search``."""
        m = self.b.dimension
        todo = []
        for x in sources:
            if x.ident in self._witnesses:
                continue
            if any(c.index == x.index - 1 for c in self.crits):
                todo.append(x)
            else:
                self._witnesses[x.ident] = {}
        ones = [x for x in todo if x.index == 1]
        backward = any(x.index == m > 1 for x in todo)
        targets = [q for q in self.crits if q.index == m - 1] \
            if backward else []
        orbits = self._zero_sphere([(x, x.frame[0], 1) for x in ones]
                                   + [(q, q.stable[0], -1) for q in targets])
        found = self._captures(orbits[:2 * len(ones)])
        for x in ones:
            self._witnesses[x.ident] = {}
        for x, sigma, c, t in found:
            self._witnesses[x.ident].setdefault(c.ident, []).append(
                Witness((float(sigma),), sigma, t))
        if backward:
            self._sign_backward(self._captures(orbits[2 * len(ones):]))
        self.sphere_search([x for x in todo if 1 < x.index < m])

    def _sign_backward(self, found):
        """Store the witnesses of every source of index m, from the
        captures (q, sigma, x, t) of the orbits that leave the stable S^0
        of each target q of index m - 1 backward in time."""
        m = self.b.dimension
        tops = [x for x in self.crits
                if x.index == m and x.ident not in self._witnesses]
        for x in tops:
            self._witnesses[x.ident] = {}
        orient = {x.ident: np.linalg.det(x.frame_matrix()) for x in tops}
        for q, sigma, x, t in found:
            if x.ident not in orient:
                continue
            B = np.column_stack([-sigma * np.asarray(q.stable[0]),
                                 q.frame_matrix()])
            sign = 1 if orient[x.ident] * np.linalg.det(B) > 0 else -1
            self._witnesses[x.ident].setdefault(q.ident, []).append(
                Witness((float(sigma),), sign, t))

    def _zero_sphere(self, seeds):
        """Run the orbits of the gradient field from x + sigma delta_u v,
        for each (x, v, direction) of ``seeds`` and sigma = 1, -1 in this
        order, as one ``flow.classify_limit`` batch: forward in time where
        direction is 1, backward where it is -1.  Returns, per orbit in
        seed order, (x, sigma, direction, tag, capturing ident, error,
        signed end time)."""
        if not seeds:
            return []
        seeds = [(x, sigma, d, sigma * np.asarray(v))
                 for x, v, d in seeds for sigma in (1, -1)]
        X0 = np.column_stack([np.asarray(x.coords) + self.tols.delta_u * v
                              for x, _, _, v in seeds])
        lc, run = flow.classify_limit(
            self.gradfield, X0, self.crits, self.b, tols=self.tols,
            scale=self.scale, direction=np.array([d for _, _, d, _ in seeds]))
        return [(x, sigma, d, *label) for (x, sigma, d, _), *label in zip(
            seeds, lc.tag, lc.crit_id, lc.errors, run.t)]

    def _captures(self, orbits):
        """(x, sigma, c, capture time) for each orbit of ``_zero_sphere``
        captured at a critical point c, in seed order.

        Every orbit is read, so the first one that fails raises its error;
        that hits the time budget, or is captured at a critical point whose
        index is not the adjacent one, x.index - direction (a connection
        that is not Morse-Smale), raises MorseError."""
        found = []
        for x, sigma, d, tag, ident, err, t in orbits:
            where = (f"the orbit from critical point {x.ident} at "
                     f"{x.coords} along seed {sigma:+d} of its "
                     f"{'unstable' if d > 0 else 'stable'} S^0")
            if tag == "failed":
                raise err
            if tag == "budget":
                raise MorseError(f"{where} hit the time budget; a missed "
                                 f"orbit would be a miscount")
            if tag == "converged":
                c = self.by_id[ident]
                if c.index != x.index - d:
                    raise MorseError(
                        f"{where} is captured at critical point {ident} of "
                        f"index {c.index}: the connection is not "
                        f"Morse-Smale")
                found.append((x, sigma, c, abs(float(t))))
        return found

    def sphere_search(self, sources):
        """Find and sign the witnesses of every source not searched yet on
        its unstable direction sphere, whatever its index.

        The spheres of all sources are refined in lockstep: each step labels
        what every unfinished sphere wants in one ``flow.classify_limit``
        batch.  Directions read by the refinement whose orbit hits the time
        budget count as non-connecting; they are added to ``budget_hits``
        and logged as one warning per source.  After clustering, the
        witnesses are signed by ``_signs``.

        Failures are raised in the order of a search of one source after
        the other: a failure of a source's search or clustering is raised
        only after the witnesses of the sources before it, and of the
        targets clustered before it, are signed without one.  Which failure
        of one sphere's refinement is raised, where several are read, may
        depend on the batches."""
        spheres = []
        for x in sources:
            if x.ident in self._witnesses:
                continue
            targets = {c.ident for c in self.crits if c.index == x.index - 1}
            if targets:
                rot = self._rotation(x.index) if x.index > 1 else np.eye(1)
                simplices = sphere.initial_simplices(
                    x.index, self.tols.n_dir_seeds, rot)
                spheres.append(sphere.Sphere(x, targets, simplices,
                                             self.tols.dir_tol))
            else:
                self._witnesses[x.ident] = {}
        while True:
            asks = [(s, s.wanted()) for s in spheres]
            asks = [(s, dirs) for s, dirs in asks if dirs]
            if not asks:
                break
            for (s, dirs), labels in zip(
                    asks, self._classify([(s.x, dirs) for s, dirs in asks])):
                s.learn(dirs, labels)
        reps, jobs = [], []
        try:
            for s in spheres:
                if s.error is not None:
                    raise s.error
                found, hits = s.replay()
                self.budget_hits += hits
                if hits:
                    log.warning("%d directions on the unstable sphere of "
                                "critical point %d hit the time budget; "
                                "treated as non-connecting", hits, s.x.ident)
                reps.append({})
                for tgt, items in self._collect(s.x, found):
                    reps[-1][tgt] = items
                    jobs.extend((s.x, self.by_id[tgt], d, t)
                                for d, t in items)
        except sphere.FAILURES:
            self._signs(jobs)  # a witness found before may fail first
            raise
        signs = iter(self._signs(jobs))
        for s, by_target in zip(spheres, reps):
            self._witnesses[s.x.ident] = {
                tgt: [Witness(tuple(float(v) for v in d), next(signs), t)
                      for d, t in items]
                for tgt, items in by_target.items()}

    def _collect(self, x, found):
        """Cluster witness directions: yield (target ident, [(direction,
        capture time)]), one representative per cluster, target by target.

        A direction joins the first representative that lies within
        ``cluster_tol`` of it or shares its orbit: two directions converging
        to the same target represent one connecting orbit iff their geodesic
        midpoint also converges to it (the capture window around a
        transverse orbit is connected).  The midpoints are labelled in
        passes: each pass replays the clustering of all targets, takes a
        midpoint with no label yet as the same orbit, and labels every such
        midpoint in one batch.  The pass that labels none is the sequential
        clustering; ``_clusters`` then replays it once more, and only that
        replay raises a failed label or counts a budget hit."""
        by_target = {}
        for d, tgt, t in found:
            by_target.setdefault(tgt, []).append((d, t))
        labels = {}
        while True:
            want = {}
            for _ in self._clusters(by_target, labels, want):
                pass
            if not want:
                break
            [labs] = self._classify([(x, [*want.values()])])
            labels.update(zip(want, (lab for lab, _ in labs)))
        yield from self._clusters(by_target, labels)

    def _clusters(self, by_target, labels, want=None):
        """One pass of ``_collect`` over ``labels``, {(target, item, rep):
        label of the midpoint of the two directions}.  With ``want``, a
        midpoint with no label is added to it and taken as the same orbit;
        a failed label ends the pass if ``want`` is still empty, since the
        final replay (``want`` None) raises it there."""
        cluster_tol = max(100 * self.tols.dir_tol, 1e-8)
        for tgt, items in by_target.items():
            reps = []
            for i, (d, _) in enumerate(items):
                for r in reps:
                    if float(np.linalg.norm(d - items[r][0])) < cluster_tol:
                        break
                    mid = d + items[r][0]
                    nm = float(np.linalg.norm(mid))
                    if nm < 1e-12:
                        continue
                    key = (tgt, i, r)
                    if key not in labels:
                        want[key] = mid / nm
                        break
                    lab = labels[key]
                    if lab[0] == "failed" and not want:
                        if want is None:
                            raise lab[1]
                        return
                    if lab == ("budget",) and want is None:
                        self.budget_hits += 1
                    if lab == ("crit", tgt):
                        break
                else:
                    reps.append(i)
            yield tgt, [items[r] for r in reps]

    def _signs(self, jobs):
        """Orientation signs of the witnesses (source, target, direction,
        capture time) of ``jobs``.  Each run of witnesses whose sources
        share one index (one frame size) is signed by one batch.  Raises for
        the first witness, in the order of ``jobs``, whose transport or
        orientation fails."""
        return [sign for _, run in itertools.groupby(
            jobs, key=lambda job: job[0].index)
            for sign in self._sign_batch(list(run))]

    def _sign_batch(self, jobs):
        """The signs of witnesses whose sources share one index, from one
        ``flow.transport_frame`` batch of the sources' unstable frames."""
        if not jobs:
            return []
        P0 = np.column_stack([self._seed_point(x, d) for x, _, d, _ in jobs])
        frames = np.stack([np.array(x.frame) for x, *_ in jobs], axis=-1)
        try:
            W, P = flow.transport_frame(
                self.gradfield, P0, [t for *_, t in jobs], frames,
                tols=self.tols)
        except flow.IntegrationError as err:
            # a witness before the failing one may fail its orientation
            self._sign_batch(jobs[:err.column])
            raise
        V = expr.compile_field(self.gradfield)(P)
        return [self._orientation_sign(x, y, W[:, :, j], V[:, j])
                for j, (x, y, _, _) in enumerate(jobs)]

    def _orientation_sign(self, x, y, W, v_flow):
        """Sign of a witness orbit from its transported frame W (k, m) and
        the flow direction at its arrival point: express the frame in the
        basis (flow direction) + (unstable frame of y); the determinant
        sign of that change of basis is the orientation number."""
        nf = float(np.linalg.norm(v_flow))
        if nf == 0.0:
            raise OrientationError(
                "zero flow direction at the arrival point")
        cols = [v_flow / nf]
        cols.extend(np.asarray(v, float) for v in y.frame)
        B = np.column_stack(cols)
        C, *_ = np.linalg.lstsq(B, W.T, rcond=None)
        det = float(np.linalg.det(C))
        if abs(det) < self.tols.det_tol:
            raise OrientationError(
                f"orientation unresolved for connection "
                f"{x.ident} -> {y.ident} (|det| = {abs(det):.3e}); "
                f"tighten tolerances")
        return 1 if det > 0 else -1


def count_connections(x, y, finder, coeff="Z"):
    """Signed count of connecting orbits from x down to y (adjacent index).
    """
    if x.index != y.index + 1:
        raise MorseError(
            f"index difference must be 1, got {x.index} -> {y.index}")
    ws = finder.witnesses_for(x.ident).get(y.ident, [])
    n = sum(w.sign for w in ws)
    if coeff == "Z2":
        n = len(ws) % 2
    return ConnectionCount(x.ident, y.ident, n, ws)


def build_complex(f, b, crits, tols=DEFAULT, coeff="Z", seed=0):
    """Assemble the Morse chain complex over the given critical points:
    C_k has the critical points of index k, in ``crits`` order.
    ``homalg.homology`` checks its d^2 = 0, which a missed or double-counted
    connecting orbit breaks."""
    finder = ConnectionFinder(expr.negative_gradient(f, b.dimension), b,
                              crits, tols=tols, seed=seed)
    top = max((c.index for c in crits), default=0)
    gens = [[c for c in crits if c.index == k] for k in range(top + 1)]
    finder.search([x for g in gens[1:] for x in g])
    columns = {}
    counts = []
    for k in range(1, top + 1):
        ck = columns[k] = []
        for x in gens[k]:
            ck.append({})
            for i, y in enumerate(gens[k - 1]):
                cc = count_connections(x, y, finder, coeff=coeff)
                counts.append(cc)
                if cc.n:
                    ck[-1][i] = cc.n
    return homalg.ChainComplex([len(g) for g in gens], columns=columns), counts
