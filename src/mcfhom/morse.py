"""Critical points, signed connecting-orbit counts, and the Morse chain
complex of a gradient flow on a cubical block.

Critical points come from one damped Newton solver, ``newton``, which steps
every seed of a lattice at once: one stacked linear solve per round, a
least-squares step where a Hessian is singular, and an optional periodic
last coordinate.  ``find_critical_points`` runs it on the block's
bounding-box lattice, and the index split of ``conley.verify_index_split``
on that lattice times the mu circle.

Connections are counted only between critical points of adjacent index.
For an index-k source the seeds live on a small sphere inside the unstable
eigenspace; basin boundaries on that sphere are isolated by adaptive
bisection and each witness orbit receives a sign by transporting the
source's unstable frame along it.  The bisection runs breadth-first and
labels ahead of itself: a walk refines every simplex whose labels are
known, and each simplex where it stops has the vertices of its subtree,
``_LOOK_AHEAD`` levels deep, labelled in the next batch.  The spheres of
all sources are refined in lockstep, so each batch is one
``flow.classify_limit`` call for every source.  The witness list comes from
a depth-first replay of the same refinement, so it does not depend on how
far ahead the batches labelled.  Nor does whether the search fails: the
error of a failed orbit is raised only where the refinement reads its
label.  After clustering, the witnesses of all sources with one frame size
are signed by one ``flow.transport_frame`` batch.  Directions read by the
refinement whose orbit hits the time budget count as non-connecting; they
are counted in ``ConnectionFinder.budget_hits`` and logged as a warning on
the ``mcfhom.morse`` logger.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from . import expr, flow, homalg
from .config import DEFAULT

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
    margin: float       # min |eigenvalue|
    frame: tuple        # unstable eigenvectors, ascending eigenvalue order

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


def newton(f, b, seeds, lam, tol, period, radius):
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
        return np.stack([r(Z, lam) for r in rows]).transpose(2, 0, 1)

    lo, hi = (np.asarray(v, dtype=float)[:, None] for v in b.bounding_box())
    span = hi - lo
    cap = float(np.max(span))
    Z = np.array(seeds, dtype=float)
    ok = np.zeros(N, dtype=bool)
    cols = np.arange(N)
    with np.errstate(all="ignore"):
        for _ in range(80):
            g = np.ascontiguousarray(grad(Z[:, cols], lam).T)
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


def find_critical_points(f, b, lam=None, tols=DEFAULT):
    """Critical points of f inside the block, by ``newton`` from a
    ``tols.seed_density``-per-axis lattice over the bounding box; each is
    checked for nondegeneracy.  Idents follow the lexicographic order of
    the coordinates."""
    P, H = newton(f, b, b.lattice(tols.seed_density).T, lam,
                  tols.newton_tol, None, max(10 * tols.newton_tol, 1e-8))
    order = np.lexsort(P[::-1])
    evals, evecs = np.linalg.eigh(0.5 * (H + H.transpose(0, 2, 1))[order])
    with np.errstate(all="ignore"):
        fvals = np.broadcast_to(expr.compile_scalar(f)(P, lam),
                                order.shape)[order]
    crits = []
    for i, p in enumerate(P.T[order]):
        margin = float(np.min(np.abs(evals[i])))
        if margin <= tols.margin_tol:
            raise DegenerateCriticalPointError(
                tuple(float(v) for v in p), margin)
        k = int(np.sum(evals[i] < 0))
        frame = tuple(tuple(float(v) for v in _sign_normalize(evecs[i][:, j]))
                      for j in range(k))
        crits.append(CriticalPoint(
            ident=i,
            coords=tuple(float(v) for v in p),
            f_value=float(fvals[i]),
            eigenvalues=tuple(float(v) for v in evals[i]),
            index=k,
            margin=margin,
            frame=frame))
    return crits


@dataclass
class Witness:
    direction: tuple  # coefficients on the unstable sphere of the source
    sign: int
    capture_time: float


@dataclass
class ConnectionCount:
    source: int
    target: int
    n: int
    witnesses: list


# ---------------------------------------------------------------------------
# direction-sphere refinement

def _initial_simplices(k, n_min, rot):
    """Triangulated unit sphere S^{k-1} in coefficient space: the boundary
    of the cross-polytope, uniformly refined until at least ``n_min``
    vertices, then rotated to avoid axis coincidences."""
    if k == 1:
        return [(np.array([1.0]),), (np.array([-1.0]),)]
    simplices = []
    for signs in itertools.product((-1.0, 1.0), repeat=k):
        verts = []
        for i in range(k):
            e = np.zeros(k)
            e[i] = signs[i]
            verts.append(e)
        simplices.append(tuple(verts))
    while _vertex_count(simplices) < n_min:
        simplices = [s for sp in simplices for s in _split(sp)]
    return [tuple(rot @ v for v in sp) for sp in simplices]


def _vertex_count(simplices):
    seen = set()
    for sp in simplices:
        for v in sp:
            seen.add(tuple(np.round(v, 12)))
    return len(seen)


def _split(sp):
    """Longest-edge bisection with the new vertex pushed to the sphere."""
    besti, bestj, bestd = 0, 1, -1.0
    for i in range(len(sp)):
        for j in range(i + 1, len(sp)):
            d = float(np.linalg.norm(sp[i] - sp[j]))
            if d > bestd:
                besti, bestj, bestd = i, j, d
    mid = 0.5 * (sp[besti] + sp[bestj])
    mid = mid / np.linalg.norm(mid)
    a = tuple(mid if t == bestj else v for t, v in enumerate(sp))
    bsp = tuple(mid if t == besti else v for t, v in enumerate(sp))
    return [a, bsp]


def _key(d):
    """Cache key of a direction: equal for directions equal to 14 places."""
    return tuple(np.round(d, 14))


def _diameter(sp):
    return max(float(np.linalg.norm(a - b))
               for a, b in itertools.combinations(sp, 2)) if len(sp) > 1 else 0.0


def _midpoint(sp):
    """The normalised vertex mean of a simplex of the sphere."""
    mid = sum(sp) / len(sp)
    return mid / np.linalg.norm(mid)


def _subtree(sp, depth, dir_tol):
    """The vertices of the simplex sp and of its binary subtree ``depth``
    levels deep, where a simplex below ``dir_tol`` gives its midpoint
    instead of children."""
    yield from sp
    if len(sp) > 1:
        if _diameter(sp) < dir_tol:
            yield _midpoint(sp)
        elif depth:
            for child in _split(sp):
                yield from _subtree(child, depth - 1, dir_tol)


# Levels of the binary subtree below a simplex that lacks a label, labelled
# in the same batch ahead of the walk.  `mcfhom hi
# benchmarks/systems/connections.json --seed 3` on a 2-core Xeon, as depth:
# DOPRI rounds and orbits of the whole run, median CPU seconds of
# build_complex over 3 runs:
#   2: 6,500, 1,338, 3.06   3: 5,320, 1,626, 2.78   4: 4,443, 2,086, 2.67
#   5: 4,013, 2,892, 3.11   6: 3,593, 4,210, 3.59
# Deeper batches take fewer rounds, but every round pays for the orbits
# that the walk never reads.
_LOOK_AHEAD = 4

# The errors of a failed orbit, which ``flow.classify_limit`` reports per
# column.
_FAILURES = (flow.IntegrationError, flow.AmbiguousCaptureError)


class _Sphere:
    """The breadth-first refinement of the unstable sphere of one source,
    labelled ahead of the walk.

    ``wanted`` walks the refinement as far as the known labels allow and
    returns the directions to label next: the vertices of the subtree of
    depth ``_LOOK_AHEAD`` below every simplex that lacks a label but has
    one, with the midpoints of the subtree's simplices below ``dir_tol``;
    the vertices of every simplex with no label yet; and the midpoints the
    walk asked for.  ``learn`` stores their labels.  The walk reads only a
    simplex's own labels, so the simplices it refines and the directions it
    reads do not depend on how far ahead a batch labelled.

    A direction whose orbit failed is labelled ("failed", error), and the
    error is raised only where the walk or ``replay`` reads that label.  A
    look-ahead direction that the refinement never reads can therefore not
    stop the search.  Once the walk reads a failure, the sphere keeps the
    error in ``error`` and wants nothing more.
    """

    def __init__(self, x, targets, initial, dir_tol):
        self.x = x
        self.targets = targets
        self.initial = initial
        self.dir_tol = dir_tol
        self.level = list(initial)  # simplices not refined yet
        self.labels = {}  # direction key -> (label, signed end time)
        self.error = None  # the first failure the walk read

    def wanted(self):
        if self.error is not None:
            return []
        try:
            return self._walk()
        except _FAILURES as err:
            self.error = err
            return []

    def _walk(self):
        labels, want = self.labels, {}

        def ask(d):
            key = _key(d)
            if key not in labels:
                want.setdefault(key, d)

        blocked, level = [], self.level
        while level:
            nxt = []
            for sp in level:
                if any(_key(v) not in labels for v in sp):
                    blocked.append(sp)
                    continue
                children, mid = self._refine(sp)
                nxt.extend(children)
                if mid is not None:
                    ask(mid)
            level = nxt
        self.level = blocked
        for sp in blocked:
            # below a simplex with no label at all, such as an initial one,
            # nothing says where a basin boundary is: label it alone
            ahead = _LOOK_AHEAD if any(_key(v) in labels for v in sp) else 0
            for d in _subtree(sp, ahead, self.dir_tol):
                ask(d)
        return [*want.values()]

    def _refine(self, sp):
        """What a simplex asks for, given the labels of its vertices:
        (children, None) to split it, ([], midpoint) to label its midpoint
        once it is below ``dir_tol``, or ([], None).  Directions that hit
        the time budget count as non-connecting."""
        labs = {self._label(v)[0] for v in sp} - {("budget",)}
        if len(labs) < 2:
            return [], None
        if _diameter(sp) < self.dir_tol:
            return [], _midpoint(sp)
        return (_split(sp) if len(sp) > 1 else []), None

    def _label(self, d):
        """The label and signed end time of direction d; raises the error
        of a direction whose orbit failed."""
        lab, t = self.labels[_key(d)]
        if lab[0] == "failed":
            raise lab[1]
        return lab, t

    def learn(self, dirs, labels):
        self.labels.update(zip(map(_key, dirs), labels))

    def replay(self):
        """Replay the refinement depth-first.  Returns the witnesses
        (direction, target ident, capture time) in depth-first order of
        first touch, which fixes the cluster representatives that
        ``_collect`` keeps, and the number of directions the refinement
        reads whose orbit hit the time budget.  Every capture of a target
        counts: refinement vertices inside a capture window are as valid
        witnesses as the initial seeds, and the windows can be far narrower
        than the seed spacing.  ``_collect`` merges the cluster of
        directions inside one window into a single witness."""
        found = []
        seen = set()

        def touch(d):
            key = _key(d)
            if key not in seen:
                seen.add(key)
                lab, t = self._label(d)
                if lab[0] == "crit" and lab[1] in self.targets:
                    found.append((np.asarray(d, float), lab[1], abs(t)))

        work = list(self.initial)
        for sp in work:
            for v in sp:
                touch(v)
        while work:
            sp = work.pop()
            for v in sp:
                touch(v)
            children, mid = self._refine(sp)
            if mid is not None:
                touch(mid)
            work.extend(children)
        return found, sum(self.labels[key][0] == ("budget",) for key in seen)


class ConnectionFinder:
    """Counts connecting orbits from source critical points to every
    index-adjacent target, sharing the direction labeling across targets."""

    def __init__(self, gradfield, b, crits, lam=None, tols=DEFAULT, seed=0):
        self.gradfield = gradfield
        self.b = b
        self.crits = crits
        self.by_id = {c.ident: c for c in crits}
        self.lam = lam
        self.tols = tols
        self.scale = flow.field_scale(gradfield, b, lam)
        self._rngs = {}
        self.seed = seed
        self._witnesses = {}  # source ident -> {target ident: [Witness]}
        self.budget_hits = 0  # directions whose orbit hit the time budget

    def _rotation(self, k):
        if k not in self._rngs:
            rng = np.random.default_rng((self.seed, k))
            A = rng.standard_normal((k, k))
            Q, R = np.linalg.qr(A)
            Q = Q * np.sign(np.diag(R))
            self._rngs[k] = Q
        return self._rngs[k]

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
            lam=self.lam, scale=self.scale)
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
                spheres.append(_Sphere(x, targets, _initial_simplices(
                    x.index, self.tols.n_dir_seeds, rot), self.tols.dir_tol))
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
        except _FAILURES:
            self._signs(jobs)  # a witness found before may fail first
            raise
        signs = iter(self._signs(jobs))
        for s, by_target in zip(spheres, reps):
            self._witnesses[s.x.ident] = {
                tgt: [Witness(tuple(float(v) for v in d), next(signs), t)
                      for d, t in items]
                for tgt, items in by_target.items()}

    def _same_orbit(self, x, tgt, d1, d2):
        """Two directions converging to the same target represent one
        connecting orbit iff their geodesic midpoint also converges to it
        (the capture window around a transverse orbit is connected)."""
        mid = d1 + d2
        nm = float(np.linalg.norm(mid))
        if nm < 1e-12:
            return False
        [[(lab, _)]] = self._classify([(x, [mid / nm])])
        if lab[0] == "failed":
            raise lab[1]
        if lab == ("budget",):
            self.budget_hits += 1
        return lab == ("crit", tgt)

    def _collect(self, x, found):
        """Cluster witness directions: yield (target ident, [(direction,
        capture time)]), one representative per cluster, target by
        target."""
        cluster_tol = max(100 * self.tols.dir_tol, 1e-8)
        by_target = {}
        for d, tgt, t in found:
            by_target.setdefault(tgt, []).append((d, t))
        for tgt, items in by_target.items():
            reps = []
            for d, t in items:
                for rep in reps:
                    if (float(np.linalg.norm(d - rep[0])) < cluster_tol
                            or self._same_orbit(x, tgt, d, rep[0])):
                        break
                else:
                    reps.append((d, t))
            yield tgt, reps

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
                lam=self.lam, tols=self.tols)
        except flow.IntegrationError as err:
            # a witness before the failing one may fail its orientation
            self._sign_batch(jobs[:err.column])
            raise
        V = expr.compile_field(self.gradfield)(P, self.lam)
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


def build_complex(f, b, crits, lam=None, tols=DEFAULT, coeff="Z", seed=0):
    """Assemble the Morse chain complex over the given critical points.
    ``homalg.homology`` checks its d^2 = 0, which a missed or double-counted
    connecting orbit breaks."""
    finder = ConnectionFinder(expr.negative_gradient(f, b.dimension), b,
                              crits, lam=lam, tols=tols, seed=seed)
    top = max((c.index for c in crits), default=0)
    gens = [[c for c in crits if c.index == k] for k in range(top + 1)]
    finder.search([x for g in gens[1:] for x in g])
    dims = [len(g) for g in gens]
    boundaries = {}
    counts = []
    for k in range(1, top + 1):
        M = homalg.zeros(dims[k - 1], dims[k])
        for j, x in enumerate(gens[k]):
            for i, y in enumerate(gens[k - 1]):
                cc = count_connections(x, y, finder, coeff=coeff)
                counts.append(cc)
                M[i][j] = cc.n
        boundaries[k] = M
    labels = {k: [str(c.coords) for c in g] for k, g in enumerate(gens)}
    return homalg.ChainComplex(dims, boundaries, labels), counts
