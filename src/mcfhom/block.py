"""Cubical isolating blocks: boundary classification, exit sets, isolation.

A block is a finite union of closed grid cubes ``origin + h * [i, i+1]``
per axis.  Boundary faces are the codimension-one faces not shared by two
cubes of the block; ``classify_boundary`` returns their transversality tags.

A set of cubical cells is a boolean mask on the doubled grid of the
block's cube-index box: the interval (lo, hi) of an axis sits at lo + hi
less twice the lowest cube index, so odd marks a nondegenerate axis, and
the C order of the mask is the lexicographic order of the intervals.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import expr, flow
from .config import DEFAULT

EGRESS = "Egress"
INGRESS = "Ingress"
UNRESOLVED = "Unresolved"

BOUNDARY_TOL = 1e-9  # how far outside its cubes a point is in the block


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


@dataclass(eq=False)
class GridBlock:
    """A block as arrays, built once from its cubes.

    ``cubes`` is an (n, m) int64 array of cube indices in lexicographic
    order with no repeats.  ``faces`` holds the boundary faces, the sides
    of the cubes with no cube beyond them, as three arrays (cube row, axis,
    side 0 or 1): cube by cube, then axis, then side."""

    dimension: int
    origin: tuple
    spacing: float
    cubes: np.ndarray

    def __post_init__(self):
        if not len(self.cubes):
            raise BlockError("empty cube set")
        if self.spacing <= 0:
            raise BlockError("grid spacing must be positive")
        # the lowest cube index and the number of cube positions per axis
        lo = self.cubes.min(axis=0)
        n = self.cubes.max(axis=0) - lo + 1
        self._box = lo, n
        # the occupancy, flat, over the box padded by one empty layer on
        # every side so that clipped indices land on empty cells; with the
        # lowest index and the highest offset of that box per axis (as
        # (m, 1) float columns) and its C-order strides (an (m, 1) column)
        occ = np.zeros(n + 2, dtype=bool)
        at = self.cubes - lo + 1
        occ[tuple(at.T)] = True
        step = np.cumprod((1,) + occ.shape[:0:-1])[::-1]
        occ = occ.ravel()
        self._occupancy = (occ, lo[:, None] - 1.0, n[:, None] + 1.0,
                           step[:, None])
        # one shifted read of the occupancy per axis and side
        self.faces = np.nonzero(
            ~occ[(at @ step)[:, None, None] + np.stack([-step, step], 1)])

    def face_list(self, which=slice(None)):
        """The faces selected by ``which`` (a mask or index over the faces)
        as ``Face`` objects, for reports and errors."""
        rows, axis, side = (a[which] for a in self.faces)
        return [Face(tuple(c), a, s) for c, a, s in zip(
            self.cubes[rows].tolist(), axis.tolist(), side.tolist())]

    def bounding_box(self):
        lo, n = self._box
        o, h = np.asarray(self.origin), self.spacing
        return (o + h * lo).tolist(), (o + h * (lo + n - 1) + h).tolist()

    def lattice(self, n):
        """The ``n``-per-axis lattice over the bounding box, as an (n^m, m)
        array whose rows run in ``itertools.product`` order of the axes."""
        lo, hi = self.bounding_box()
        axes = [np.linspace(lo[i], hi[i], n) for i in range(self.dimension)]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=-1)

    def contains_columns(self, X):
        """For each column of the (m, N) array X, whether it lies in a cube
        of the block widened by ``BOUNDARY_TOL`` on every side.  A
        column that is not finite lies in no cube.

        Along each axis, the cubes within tol of a point are the cube
        holding the point + tol and the one before it: a (2, m, N) array of
        candidate indices.  A candidate the point is not within tol of is
        sent to the empty padding layer, and the 2^m products of the
        per-axis candidates are read from the occupancy through one flat
        (2^m, N) index."""
        tol = BOUNDARY_TOL
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
            flat = (flat[:, None] + k[None, :, i]).reshape(2 << i, n)
        return np.logical_or.reduce(occ[flat], axis=0)

    def boundary_samples(self, per_face):
        """Sample lattice on the boundary faces, as one (n_faces * per_face
        ** (m - 1), m) array: face by face in ``faces`` order, each face a
        grid of ``per_face`` strictly interior positions (avoiding corner
        ties) per tangent axis, in C order over the axes."""
        m, n = self.dimension, per_face
        cube, axis, side = self.faces
        rows = np.arange(len(axis))
        lo = np.asarray(self.origin) + self.spacing * self.cubes[cube]
        hi = lo + self.spacing
        # positions along every axis as np.linspace(lo, hi, n + 2)[1:-1]
        pos = np.arange(1, n + 1) * ((hi - lo) / (n + 1))[..., None] \
            + lo[..., None]
        pos[rows, axis, 0] = np.where(side, hi[rows, axis], lo[rows, axis])
        # per normal axis, the lattice multi-indices with that axis fixed
        grid = np.array([list(itertools.product(
            *(range(1 if i == a else n) for i in range(m))))
            for a in range(m)])
        pts = pos[rows[:, None, None], np.arange(m), grid[axis]]
        return pts.reshape(-1, m)


# the most cells the doubled grid of a block's cube-index box may have
MAX_GRID_CELLS = 2 ** 32


def build_block(box=None, cubes=None, origin=None, spacing=None, dimension=None):
    """Build a GridBlock either from an axis-aligned ``box`` (list of
    (lo, hi) pairs) or from an explicit ``cubes`` index list, in which a
    repeated cube counts once."""
    if spacing is None or spacing <= 0:
        raise BlockError("grid spacing must be positive")
    if box is not None:
        origin = tuple(float(lo) for lo, _ in box)
        counts = []
        for lo, hi in box:
            if not hi > lo:
                raise BlockError(f"box side [{lo}, {hi}] is empty")
            n = (hi - lo) / spacing
            if not math.isfinite(n):
                raise BlockError(f"box side [{lo}, {hi}] has too many cells "
                                 f"to count at spacing {spacing}")
            ni = round(n)
            if ni < 1:
                raise BlockError(f"box side [{lo}, {hi}] is shorter than one "
                                 f"cell at spacing {spacing}")
            if abs(n - ni) > 1e-9 * max(1.0, abs(n)):
                raise BlockError(
                    f"box side [{lo}, {hi}] is not a whole number of cells "
                    f"at spacing {spacing}")
            counts.append(ni)
    elif cubes is not None:
        try:
            idx = np.array(cubes, dtype=np.int64)
        except OverflowError:
            raise BlockError("a cube index does not fit in 64 bits") from None
        except ValueError:
            raise BlockError("inconsistent cube index dimensions") from None
        if not len(idx):
            raise BlockError("empty cube set")
        m = dimension if dimension is not None else idx.shape[-1]
        if idx.ndim != 2 or idx.shape[1] != m:
            raise BlockError("inconsistent cube index dimensions")
        if origin is None:
            origin = (0.0,) * m
        elif len(origin) != m:
            raise BlockError(
                f"origin has {len(origin)} entries, dimension is {m}")
        origin = tuple(float(v) for v in origin)
        counts = [hi - lo + 1 for lo, hi in zip(idx.min(axis=0).tolist(),
                                                idx.max(axis=0).tolist())]
    else:
        raise BlockError("either box or cubes must be given")
    cells = math.prod(2 * n + 1 for n in counts)
    if cells > MAX_GRID_CELLS:
        raise BlockError(f"the cube-index box spans {cells} grid cells, "
                         f"more than {MAX_GRID_CELLS}")
    if box is not None:  # np.indices lists the cubes in sorted order
        idx = np.indices(counts, dtype=np.int64).reshape(len(counts), -1).T
    else:  # sorted by rows, first column first, and each cube once
        idx = idx[np.lexsort(idx.T[::-1])]
        idx = idx[np.concatenate(([True], np.any(idx[1:] != idx[:-1], 1)))]
    return GridBlock(len(counts), origin, float(spacing), idx)


def transverse_flux(b, V, per_face, tol):
    """The outward flux X . nu at the boundary samples where they are
    transverse, and 0 elsewhere.

    ``V`` is an (m, ..., n) array of field values at the n samples of
    ``b.boundary_samples(per_face)``; its middle axes, if any, hold the two
    ends of a homotopy, and the result has shape (..., n).  nu is the unit
    vector along a sample's face axis, signed by its side.  A sample is
    transverse where every component of V is finite and |X . nu| >=
    ``tol``: the one rule by which the faces are tagged, isolation settles
    a sample without an orbit, and the certificate settles a sample by its
    two ends."""
    _, axis, side = b.faces
    # the samples run face by face, per_face ** (m - 1) to a face; the
    # index takes each face's axis component and puts the faces first
    W = V.reshape(*V.shape[:-1], len(axis), per_face ** (b.dimension - 1))
    flux = (np.moveaxis(W[axis, ..., np.arange(len(axis)), :], 0, -2)
            * np.where(side, 1.0, -1.0)[:, None]).reshape(V.shape[1:])
    finite = np.logical_and.reduce(np.isfinite(V), axis=0)
    return np.where(finite & (np.abs(flux) >= tol), flux, 0.0)


def classify_boundary(b, fieldd, tols=DEFAULT):
    """Tag each boundary face Egress where ``transverse_flux`` is positive
    at every sample of the face, Ingress where it is negative at every
    sample, and Unresolved otherwise, with the field at every sample of
    every face evaluated as one array.  Returns the tags as an array, one
    per face in ``b.faces`` order."""
    if fieldd.dimension != b.dimension:
        raise BlockError("field dimension does not match block")
    per_face = tols.face_samples
    with np.errstate(all="ignore"):
        V = expr.compile_field(fieldd)(b.boundary_samples(per_face).T)
    flux = transverse_flux(b, V, per_face, tols.margin_tol).reshape(
        len(b.faces[0]), -1)
    egress = np.logical_and.reduce(flux > 0, axis=1)
    ingress = np.logical_and.reduce(flux < 0, axis=1)
    return np.where(egress, EGRESS, np.where(ingress, INGRESS, UNRESOLVED))


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
    lo, n = b._box
    mask = np.zeros(2 * n + 1, dtype=bool)
    mask[tuple((2 * (cubes - lo) + 1 + shift).T)] = True
    return closure(mask)


def exit_set(b, tags):
    """The closed cubical subcomplex spanned by the faces that ``tags`` calls
    Egress, as a mask on the grid of ``block_cells``.

    Raises if any face is Unresolved; Ingress-only blocks give the empty
    complex."""
    unresolved = tags == UNRESOLVED
    if unresolved.any():
        raise UnresolvedFacesError(b.face_list(unresolved))
    cube, axis, side = np.compress(tags == EGRESS, b.faces, axis=1)
    # a face lies one step below or above its cube along its axis
    shift = (2 * side - 1)[:, None] * (axis[:, None] == np.arange(b.dimension))
    return _grid_mask(b, b.cubes[cube], shift)


def block_cells(b):
    """All cells of the block (the closures of its cubes), as a mask on the
    doubled grid of its cube-index box."""
    return _grid_mask(b, b.cubes)


@dataclass
class IsolationReport:
    """The outcome of ``check_isolation``.

    ``samples`` is the (n, m) array of boundary samples and ``outcome``
    their codes, each an index into ``OUTCOMES``; ``failures`` holds the
    trapped samples as tuples.  ``worst_margin`` is the least time left in
    the budget when a sample left, or 0.0 when none left.  A sample settled
    by the sign of its flux leaves at time 0, so the margin comes from the
    integrated samples only, or equals the budget when none was
    integrated."""

    verdict: bool
    samples: np.ndarray
    outcome: np.ndarray
    failures: list
    worst_margin: float

    def __bool__(self):
        return self.verdict


OUTCOMES = ("trapped", "backward", "forward")


def check_isolation(b, field, tols=DEFAULT):
    """Every boundary sample must leave the block in forward or backward
    time within the budget; otherwise the invariant set touches the
    boundary and the block is not isolating.

    ``field`` is a FieldDef or a compiled field ``F(X)``, with lam bound: a
    family is checked one member at a time, each bound by
    ``expr.bind_field``.

    The field is evaluated once at every sample.  A sample lies strictly
    inside its face, and the cube across that face is not in the block, so
    where ``transverse_flux`` is positive the orbit leaves at once forward,
    and where it is negative it leaves at once backward (Conley and
    Easton's isolating blocks): such a sample gets its outcome with exit
    time 0.  Only the samples where it is 0, tangent or with a field that
    is not finite, are integrated, as one ``flow.classify_limit`` batch with
    no critical points and the budget ``tols.cert_t_budget``, backward
    first: on dissipative systems boundary points leave the block almost
    immediately in reverse time.  A sample has left when its label is
    ("exit",).  The samples that did not leave backward, out of time or
    because their integration failed, then go forward as a second batch."""
    budget = tols.cert_t_budget
    per_face = tols.isolation_samples_per_face
    pts = b.boundary_samples(per_face)
    cols = pts.T
    F = expr.compile_field(field) if isinstance(field, expr.FieldDef) \
        else field
    with np.errstate(all="ignore"):
        V = F(cols)
    flux = transverse_flux(b, V, per_face, tols.margin_tol)
    # an index into OUTCOMES
    outcome = np.where(flux > 0, 2, np.where(flux < 0, 1, 0))
    # NaN for a sample that did not leave
    exit_t = np.where(outcome > 0, 0.0, np.nan)
    todo = np.flatnonzero(outcome == 0)
    for direction, label in ((-1, 1), (1, 2)):
        if not todo.size:
            break
        lc, run = flow.classify_limit(F, cols[:, todo], (), b, budget,
                                      scale=None, direction=direction,
                                      tols=tols)
        left = np.array([lab == ("exit",) for lab in lc.tag])
        outcome[todo[left]] = label
        exit_t[todo[left]] = np.abs(run.t[left])
        todo = todo[~left]
    exited = exit_t[~np.isnan(exit_t)]
    trapped = pts[outcome == 0].tolist()
    return IsolationReport(
        not trapped, pts, outcome, [tuple(p) for p in trapped],
        float(np.min(budget - exited)) if exited.size else 0.0)
