"""Cubical isolating blocks: boundary classification, exit sets, isolation.

A block is a finite union of closed grid cubes ``origin + h * [i, i+1]``
per axis.  Boundary faces are the codimension-one faces not shared by two
cubes of the block; each carries a transversality tag once classified.

A set of cubical cells is a boolean mask on the doubled grid of the
block's cube-index box: the interval (lo, hi) of an axis sits at lo + hi
less twice the lowest cube index, so odd marks a nondegenerate axis, and
the C order of the mask is the lexicographic order of the intervals.
"""
from __future__ import annotations

import itertools
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

    def contains(self, point):
        """Whether one point lies in the block: ``contains_columns`` of the
        one column."""
        X = np.asarray(point, dtype=float)[:, None]
        return bool(self.contains_columns(X)[0])

    @cached_property
    def _cube_box(self):
        """The sorted cube indices as an (n, m) array, with the lowest index
        and one past the highest per axis."""
        idx = np.array(sorted(self.cubes))
        return idx, idx.min(axis=0), idx.max(axis=0) + 1

    @cached_property
    def _occupancy(self):
        """The occupancy of the cubes as a flat boolean array over a box of
        cube indices, padded by one empty layer on every side so that
        clipped indices land on empty cells, with the lowest index and the
        highest offset of that box per axis (as (m, 1) float columns) and
        its C-order strides (as an (m, 1) column)."""
        idx, lo, hi = self._cube_box
        lo = lo - 1
        occ = np.zeros(hi - lo + 1, dtype=bool)
        occ[tuple((idx - lo).T)] = True
        strides = np.cumprod((1,) + occ.shape[:0:-1])[::-1]
        return (occ.ravel(), lo[:, None].astype(float),
                np.array(occ.shape, dtype=float)[:, None] - 1.0,
                strides[:, None])

    def contains_columns(self, X):
        """For each column of the (m, N) array X, whether it lies in a cube
        of the block widened by the boundary tolerance on every side.  A
        column that is not finite lies in no cube.

        Along each axis, the cubes within tol of a point are the cube
        holding the point + tol and the one before it: a (2, m, N) array of
        candidate indices.  A candidate the point is not within tol of is
        sent to the empty padding layer, and the 2^m products of the
        per-axis candidates are read from the occupancy through one flat
        (2^m, N) index."""
        tol = DEFAULT.boundary_tol
        h = self.spacing
        occ, lo_idx, top, strides = self._occupancy
        X = np.asarray(X, dtype=float)
        m, n = X.shape
        origin = np.asarray(self.origin)[:, None]
        c = np.empty((2, m, n))
        c[0] = np.floor((X - (origin - tol)) / h)
        np.subtract(c[0], 1.0, out=c[1])
        lo = h * c
        lo += origin
        inside = lo - tol <= X
        lo += h
        lo += tol
        inside &= X <= lo
        c -= lo_idx
        np.fmax(c, 0.0, out=c)
        np.fmin(c, top, out=c)
        c *= inside
        k = c.astype(np.intp)
        k *= strides
        flat = k[:, 0]
        for i in range(1, m):
            flat = (flat[:, None] + k[None, :, i]).reshape(-1, n)
        return np.logical_or.reduce(occ[flat], axis=0)

    def boundary_samples(self, per_face):
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
        elif len(origin) != m:
            raise BlockError(
                f"origin has {len(origin)} entries, dimension is {m}")
        return GridBlock(m, tuple(float(v) for v in origin), float(spacing),
                         cubes)
    raise BlockError("either box or cubes must be given")


def classify_boundary(b, fieldd, lam=None, tols=DEFAULT):
    """Tag each boundary face Egress / Ingress / Unresolved by the sign of
    the outward flux X . nu at a sample lattice, with the field at every
    sample of every face evaluated as one array.  A sample where the field
    is not finite is not transverse, so its face is Unresolved.  Returns a
    new GridBlock."""
    if fieldd.dimension != b.dimension:
        raise BlockError("field dimension does not match block")
    faces = list(b.face_tags)
    rows = np.arange(len(faces))
    V = expr.compile_field(fieldd)(b.boundary_samples(tols.face_samples).T,
                                   lam).reshape(b.dimension, len(faces), -1)
    # nu is the unit vector along the face's axis, signed by its side
    axis = np.array([f.axis for f in faces])
    side = np.array([1.0 if f.side else -1.0 for f in faces])
    flux = side[:, None] * V[axis, rows]
    finite = np.logical_and.reduce(np.isfinite(V), axis=0)
    tol = tols.margin_tol
    egress = np.logical_and.reduce(finite & (flux >= tol), axis=1)
    ingress = np.logical_and.reduce(finite & (flux <= -tol), axis=1)
    tags = {f: EGRESS if e else INGRESS if i else UNRESOLVED
            for f, e, i in zip(faces, egress, ingress)}
    return GridBlock(b.dimension, b.origin, b.spacing, b.cubes, tags)


def closure(mask):
    """Close a cell mask under taking faces: along each axis in turn, every
    even position takes in the odd positions beside it."""
    out = np.array(mask, dtype=bool)
    for a in range(out.ndim):
        v = np.moveaxis(out, a, 0)
        v[:-1:2] |= v[1::2]
        v[2::2] |= v[1::2]
    return out


def _grid_mask(b, cubes, shift=0):
    """The closure of the cells at 2 (c - lo) + 1 + shift for the rows c of
    the (n, m) array ``cubes``, on the grid of the block's cube-index box."""
    _, lo, hi = b._cube_box
    mask = np.zeros(2 * (hi - lo) + 1, dtype=bool)
    mask[tuple((2 * (cubes - lo) + 1 + shift).T)] = True
    return closure(mask)


def exit_set(b):
    """The closed cubical subcomplex spanned by the Egress faces, as a mask
    on the grid of ``block_cells``.

    Raises if any face is still Unresolved; Ingress-only blocks give the
    empty complex."""
    unresolved = [f for f, tag in b.face_tags.items() if tag == UNRESOLVED]
    if unresolved:
        raise UnresolvedFacesError(unresolved)
    faces = [f for f, tag in b.face_tags.items() if tag == EGRESS]
    cubes = np.array([f.cube for f in faces], dtype=int).reshape(
        len(faces), b.dimension)
    # a face lies one step below or above its cube along its axis
    shift = np.zeros_like(cubes)
    shift[np.arange(len(faces)), [f.axis for f in faces]] = \
        [2 * f.side - 1 for f in faces]
    return _grid_mask(b, cubes, shift)


def block_cells(b):
    """All cells of the block (the closures of its cubes), as a mask on the
    doubled grid of its cube-index box."""
    return _grid_mask(b, b._cube_box[0])


@dataclass
class IsolationReport:
    verdict: bool
    samples: list  # (point, outcome) with outcome in {forward, backward, trapped}
    failures: list
    worst_margin: float
    members: tuple = ()  # of a family: the report of each member, in order

    def __bool__(self):
        return self.verdict


_OUTCOMES = ("trapped", "backward", "forward")


def _worst_margin(exit_t, budget):
    """The least time left in the budget when a sample left, or 0.0 when
    none left (``exit_t`` is NaN for a trapped sample)."""
    exited = exit_t[~np.isnan(exit_t)]
    return float(np.min(budget - exited)) if exited.size else 0.0


def _isolation_report(points, outcome, exit_t, budget):
    samples = [(p, _OUTCOMES[o]) for p, o in zip(points, outcome)]
    failures = [s for s, o in samples if o == "trapped"]
    return IsolationReport(not failures, samples, failures,
                           _worst_margin(exit_t, budget))


def check_isolation(b, field, lam=None, tols=DEFAULT):
    """Every boundary sample must leave the block in forward or backward
    time within the budget; otherwise the invariant set touches the
    boundary and the block is not isolating.

    ``field`` is a FieldDef or a compiled field ``F(X, lam)``.  ``lam`` is
    one value, or a sequence of values: a family of fields, checked as one
    batch whose columns are the samples of every member, each with its
    member's value.  A single field is a family of one.  Every column
    steps as it would alone, so each member's report is the report of its
    own check.  The report of a family holds the samples of all members,
    member after member, and the report of each member in ``members``.

    All samples are integrated as one batch, backward first: on
    dissipative systems boundary points leave the block almost immediately
    in reverse time.  The samples that did not leave backward, within the
    budget or because their integration failed, then go forward as a
    second batch."""
    from . import flow  # local import to avoid a cycle at module load

    family = np.ndim(lam) == 1
    lams = np.asarray(lam, dtype=float) if family else None
    k = len(lams) if family else 1
    budget = tols.cert_t_budget
    pts = b.boundary_samples(tols.isolation_samples_per_face)
    n = len(pts)
    cols = np.tile(pts.T, k)
    outcome = np.zeros(k * n, dtype=int)  # an index into _OUTCOMES
    exit_t = np.full(k * n, np.nan)
    todo = np.arange(k * n)
    for direction, label in ((-1, 1), (1, 2)):
        if not todo.size:
            break
        t, left = flow.integrate_columns(
            field, cols[:, todo], lambda X: ~b.contains_columns(X), budget,
            direction=direction, lam=lams[todo // n] if family else lam,
            tols=tols)
        outcome[todo[left]] = label
        exit_t[todo[left]] = np.abs(t[left])
        todo = todo[~left]
    points = [tuple(float(v) for v in s) for s in pts]
    if not family:
        return _isolation_report(points, outcome, exit_t, budget)
    members = tuple(_isolation_report(points, outcome[i * n:(i + 1) * n],
                                      exit_t[i * n:(i + 1) * n], budget)
                    for i in range(k))
    return IsolationReport(
        all(members), [s for r in members for s in r.samples],
        [s for r in members for s in r.failures],
        _worst_margin(exit_t, budget), members)
