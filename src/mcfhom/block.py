"""Cubical isolating blocks: boundary classification, exit sets, isolation.

A block is a finite union of closed grid cubes ``origin + h * [i, i+1]``
per axis.  Boundary faces are the codimension-one faces not shared by two
cubes of the block; each carries a transversality tag once classified.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

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

    def lattice(self, n):
        """The ``n``-per-axis lattice over the bounding box, as an (n^m, m)
        array whose rows run in ``itertools.product`` order of the axes."""
        lo, hi = self.bounding_box()
        axes = [np.linspace(lo[i], hi[i], n) for i in range(self.dimension)]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=-1)

    def contains(self, point, tol=None):
        tol = DEFAULT.boundary_tol if tol is None else tol
        p = np.asarray(point, dtype=float)
        # the cubes within tol of p along an axis are the cube holding
        # p + tol and the one before it
        idx = np.floor((p - (np.asarray(self.origin) - tol))
                       / self.spacing).tolist()
        if not all(map(math.isfinite, idx)):
            return False  # no cube index
        for delta in itertools.product((0, -1), repeat=self.dimension):
            c = tuple(int(idx[i]) + delta[i] for i in range(self.dimension))
            if c not in self.cubes:
                continue
            lo, hi = self.cube_bounds(c)
            if all(lo[i] - tol <= p[i] <= hi[i] + tol
                   for i in range(self.dimension)):
                return True
        return False

    @cached_property
    def _occupancy(self):
        """(lowest index, occupancy array) of the cubes, padded by one empty
        layer on every side so that clipped indices land on empty cells."""
        idx = np.array(sorted(self.cubes))
        lo = idx.min(axis=0) - 1
        occ = np.zeros(idx.max(axis=0) - lo + 2, dtype=bool)
        occ[tuple((idx - lo).T)] = True
        return lo, occ

    def contains_columns(self, X):
        """Column form of ``contains``: for each column of the (m, N) array
        X, whether it lies in the block, with the same candidate cubes and
        the same boundary tolerance."""
        tol = DEFAULT.boundary_tol
        m = self.dimension
        lo_idx, occ = self._occupancy
        X = np.asarray(X, dtype=float)
        origin = np.asarray(self.origin)[:, None]
        deltas = np.array(list(itertools.product((0, -1), repeat=m)),
                          dtype=float)[:, :, None]
        with np.errstate(invalid="ignore"):
            # candidate cubes, shape (2^m, m, N)
            c = np.floor((X - (origin - tol)) / self.spacing) + deltas
            lo = origin + self.spacing * c
            inside = np.logical_and.reduce(
                (lo - tol <= X) & (X <= lo + self.spacing + tol), axis=1)
            shifted = c - lo_idx[:, None]
            k = np.fmin(np.fmax(shifted, 0), np.array(occ.shape)[:, None] - 1)
            occupied = occ[tuple(k.astype(np.intp).transpose(1, 0, 2))]
        return np.logical_or.reduce(occupied & inside, axis=0)

    def find_exit_face(self, point):
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
        """Sample lattice on the boundary faces, as one (n_faces * per_face
        ** (m - 1), m) array: face by face in ``face_tags`` order, each face
        a grid of ``per_face`` strictly interior positions (avoiding corner
        ties) per tangent axis, in C order over the axes."""
        m, n = self.dimension, per_face
        faces = list(self.face_tags)
        axis = np.array([f.axis for f in faces])
        rows = np.arange(len(faces))
        lo = np.asarray(self.origin) + self.spacing * np.array(
            [f.cube for f in faces], dtype=float)
        hi = lo + self.spacing
        # positions along every axis as np.linspace(lo, hi, n + 2)[1:-1]
        pos = np.arange(1, n + 1) * ((hi - lo) / (n + 1))[..., None] \
            + lo[..., None]
        pos[rows, axis, 0] = np.where([f.side for f in faces],
                                      hi[rows, axis], lo[rows, axis])
        # per normal axis, the lattice multi-indices with that axis fixed
        grid = np.array([list(itertools.product(
            *(range(1 if i == a else n) for i in range(m))))
            for a in range(m)])
        pts = pos[rows[:, None, None], np.arange(m), grid[axis]]
        return pts.reshape(-1, m)


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
    samples = b.boundary_samples(n).reshape(len(b.face_tags), -1,
                                            b.dimension)
    for f, face_samples in zip(b.face_tags, samples):
        nu = b.outward_normal(f)
        fluxes = [float(np.dot(F(s, lam), nu)) for s in face_samples]
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
    boundary and the block is not isolating.

    All samples are integrated as one batch, backward first: on
    dissipative systems boundary points leave the block almost immediately
    in reverse time.  The samples that did not leave backward, within the
    budget or because their integration failed, then go forward as a
    second batch."""
    from . import flow  # local import to avoid a cycle at module load

    budget = tols.cert_t_budget
    pts = b.boundary_samples(tols.isolation_samples_per_face)
    outcomes = ["trapped"] * len(pts)
    exit_t = np.full(len(pts), np.nan)
    todo = np.arange(len(pts))
    for direction, label in ((-1, "backward"), (1, "forward")):
        if not todo.size:
            break
        t, left = flow.integrate_columns(
            fieldd, pts[todo].T, lambda X: ~b.contains_columns(X), budget,
            direction=direction, lam=lam, tols=tols)
        for i in todo[left]:
            outcomes[i] = label
        exit_t[todo[left]] = np.abs(t[left])
        todo = todo[~left]
    samples = [(tuple(float(v) for v in s), o) for s, o in zip(pts, outcomes)]
    failures = [s for s, o in samples if o == "trapped"]
    exited = exit_t[~np.isnan(exit_t)]
    worst = float(np.min(budget - exited)) if exited.size else 0.0
    return IsolationReport(not failures, samples, failures, worst)
