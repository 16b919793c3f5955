"""Cubical isolating blocks: boundary classification, exit sets, isolation.

A block is a finite union of closed grid cubes ``origin + h * [i, i+1]``
per axis.  Boundary faces are the codimension-one faces not shared by two
cubes of the block; each carries a transversality tag once classified.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import expr
from .config import DEFAULT

EGRESS = "Egress"
INGRESS = "Ingress"
UNRESOLVED = "Unresolved"


class BlockError(Exception):
    pass


class UnresolvedFacesError(BlockError):
    def __init__(self, faces):
        names = ", ".join(str(f) for f in faces[:8])
        more = "" if len(faces) <= 8 else f" and {len(faces) - 8} more"
        super().__init__(f"boundary faces not transverse: {names}{more}")
        self.faces = faces


@dataclass(frozen=True)
class Face:
    """Codimension-one boundary face: ``cube`` index tuple, split ``axis``,
    and ``side`` 0 (lower) or 1 (upper).  The outward normal is the signed
    unit vector along ``axis``."""

    cube: tuple
    axis: int
    side: int

    def __str__(self):
        return f"face(cube={self.cube}, axis={self.axis}, side={'+' if self.side else '-'})"


@dataclass
class GridBlock:
    dimension: int
    origin: tuple
    spacing: float
    cubes: frozenset
    face_tags: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if not self.cubes:
            raise BlockError("empty cube set")
        if self.spacing <= 0:
            raise BlockError("grid spacing must be positive")
        if not self.face_tags:
            self.face_tags = {f: UNRESOLVED for f in self._boundary_faces()}

    def _boundary_faces(self):
        faces = []
        for c in sorted(self.cubes):
            for axis in range(self.dimension):
                for side in (0, 1):
                    nb = list(c)
                    nb[axis] += 1 if side else -1
                    if tuple(nb) not in self.cubes:
                        faces.append(Face(c, axis, side))
        return faces

    @property
    def boundary_faces(self):
        return list(self.face_tags)

    def cube_bounds(self, c):
        lo = [self.origin[i] + self.spacing * c[i] for i in range(self.dimension)]
        hi = [v + self.spacing for v in lo]
        return lo, hi

    def face_box(self, f):
        lo, hi = self.cube_bounds(f.cube)
        v = hi[f.axis] if f.side else lo[f.axis]
        lo[f.axis] = hi[f.axis] = v
        return lo, hi

    def outward_normal(self, f):
        nu = np.zeros(self.dimension)
        nu[f.axis] = 1.0 if f.side else -1.0
        return nu

    def bounding_box(self):
        los, his = zip(*(self.cube_bounds(c) for c in self.cubes))
        lo = [min(v[i] for v in los) for i in range(self.dimension)]
        hi = [max(v[i] for v in his) for i in range(self.dimension)]
        return lo, hi

    def contains(self, point, tol=None):
        tol = DEFAULT.boundary_tol if tol is None else tol
        p = np.asarray(point, dtype=float)
        idx = np.floor((p - np.asarray(self.origin)) / self.spacing).astype(int)
        # a boundary point belongs to several candidate cubes
        for delta in itertools.product((0, -1), repeat=self.dimension):
            c = tuple(int(idx[i]) + delta[i] for i in range(self.dimension))
            if c not in self.cubes:
                continue
            lo, hi = self.cube_bounds(c)
            if all(lo[i] - tol <= p[i] <= hi[i] + tol
                   for i in range(self.dimension)):
                return True
        return False

    def find_exit_face(self, point, tol=None):
        """Boundary face nearest to a point just outside (or on) the block."""
        p = np.asarray(point, dtype=float)
        best, bestd = None, math.inf
        for f in self.face_tags:
            lo, hi = self.face_box(f)
            q = np.minimum(np.maximum(p, lo), hi)
            d = float(np.linalg.norm(p - q))
            if d < bestd:
                best, bestd = f, d
        return best

    def boundary_samples(self, per_face=2):
        """Sample lattice on each boundary face (interior-of-face points)."""
        out = []
        for f in self.face_tags:
            out.extend((f, s) for s in self.face_samples(f, per_face))
        return out

    def face_samples(self, f, n):
        lo, hi = self.face_box(f)
        axes = []
        for i in range(self.dimension):
            if i == f.axis:
                axes.append(np.array([lo[i]]))
            else:
                # strictly interior sample positions to avoid corner ties
                axes.append(np.linspace(lo[i], hi[i], n + 2)[1:-1])
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=-1)


def build_block(box=None, cubes=None, origin=None, spacing=None, dimension=None):
    """Build a GridBlock either from an axis-aligned ``box`` (list of
    (lo, hi) pairs) or from an explicit ``cubes`` index list."""
    if spacing is None or spacing <= 0:
        raise BlockError("grid spacing must be positive")
    if box is not None:
        m = len(box)
        origin = tuple(float(lo) for lo, _ in box)
        counts = []
        for lo, hi in box:
            n = (hi - lo) / spacing
            ni = round(n)
            if ni < 1 or abs(n - ni) > 1e-9 * max(1.0, abs(n)):
                raise BlockError(
                    f"box side [{lo}, {hi}] is not a whole number of cells "
                    f"at spacing {spacing}")
            counts.append(ni)
        cubeset = frozenset(itertools.product(*(range(n) for n in counts)))
        return GridBlock(m, origin, float(spacing), cubeset)
    if cubes is not None:
        cubes = frozenset(tuple(int(v) for v in c) for c in cubes)
        if not cubes:
            raise BlockError("empty cube set")
        m = dimension if dimension is not None else len(next(iter(cubes)))
        if any(len(c) != m for c in cubes):
            raise BlockError("inconsistent cube index dimensions")
        if origin is None:
            origin = (0.0,) * m
        return GridBlock(m, tuple(float(v) for v in origin), float(spacing),
                         cubes)
    raise BlockError("either box or cubes must be given")


def classify_boundary(b, fieldd, margin_tol=None, lam=None, tols=DEFAULT):
    """Tag each boundary face Egress / Ingress / Unresolved by the sign of
    the outward flux X . nu at a sample lattice.  Returns a new GridBlock."""
    n = tols.face_samples
    tol = tols.margin_tol if margin_tol is None else margin_tol
    if fieldd.dimension != b.dimension:
        raise BlockError("field dimension does not match block")
    F = expr.compile_field(fieldd)
    tags = {}
    for f in b.face_tags:
        nu = b.outward_normal(f)
        fluxes = [float(np.dot(F(s, lam), nu)) for s in b.face_samples(f, n)]
        if all(v >= tol for v in fluxes):
            tags[f] = EGRESS
        elif all(v <= -tol for v in fluxes):
            tags[f] = INGRESS
        else:
            tags[f] = UNRESOLVED
    return GridBlock(b.dimension, b.origin, b.spacing, b.cubes, tags)


def _face_cell(b, f):
    """The face as a cubical cell: tuple of (lo, hi) integer interval pairs
    in grid units."""
    cell = []
    for i in range(b.dimension):
        lo = f.cube[i]
        if i == f.axis:
            v = lo + f.side
            cell.append((v, v))
        else:
            cell.append((lo, lo + 1))
    return tuple(cell)


def cell_faces(cell):
    """All proper subcells of codimension one."""
    out = []
    for i, (lo, hi) in enumerate(cell):
        if lo != hi:
            out.append(cell[:i] + ((lo, lo),) + cell[i + 1:])
            out.append(cell[:i] + ((hi, hi),) + cell[i + 1:])
    return out


def closure(cells):
    """Close a cell set under taking faces."""
    seen = set(cells)
    frontier = list(cells)
    while frontier:
        c = frontier.pop()
        for f in cell_faces(c):
            if f not in seen:
                seen.add(f)
                frontier.append(f)
    return seen


def exit_set(b):
    """The closed cubical subcomplex spanned by the Egress faces.

    Raises if any face is still Unresolved; Ingress-only blocks give the
    empty complex."""
    unresolved = [f for f, tag in b.face_tags.items() if tag == UNRESOLVED]
    if unresolved:
        raise UnresolvedFacesError(unresolved)
    top = [_face_cell(b, f) for f, tag in b.face_tags.items() if tag == EGRESS]
    return closure(top)


def block_cells(b):
    """All cells of the block as a closed cubical complex (the closures of
    the full-dimensional cubes)."""
    top = []
    for c in b.cubes:
        top.append(tuple((c[i], c[i] + 1) for i in range(b.dimension)))
    return closure(top)


@dataclass
class IsolationReport:
    verdict: bool
    samples: list  # (point, outcome) with outcome in {forward, backward, trapped}
    failures: list
    worst_margin: float

    def __bool__(self):
        return self.verdict


def check_isolation(b, fieldd, lam=None, tols=DEFAULT):
    """Every boundary sample must leave the block in forward or backward
    time within the budget; otherwise the invariant set touches the
    boundary and the block is not isolating."""
    from . import flow  # local import to avoid a cycle at module load

    budget = tols.cert_t_budget
    samples, failures = [], []
    worst = math.inf

    def make_stop():
        def stop(t, xprev, x):
            return ("out", t) if not b.contains(x) else None
        return stop

    for f, s in b.boundary_samples(tols.isolation_samples_per_face):
        outcome = "trapped"
        exit_t = budget
        # backward first: on dissipative systems boundary points leave the
        # block almost immediately in reverse time
        for direction, label in ((-1, "backward"), (1, "forward")):
            try:
                _, sv = flow.integrate_until(
                    fieldd, s, make_stop(), budget, direction=direction,
                    lam=lam, tols=tols)
            except flow.IntegrationError:
                sv = None
            if sv is not None:
                outcome = label
                exit_t = abs(sv[1])
                break
        samples.append((tuple(float(v) for v in s), outcome))
        if outcome == "trapped":
            failures.append(tuple(float(v) for v in s))
        else:
            worst = min(worst, budget - exit_t)
    verdict = not failures
    if worst is math.inf:
        worst = 0.0
    return IsolationReport(verdict, samples, failures, worst)
