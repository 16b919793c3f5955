"""Reference forms of the block geometry for the tests.

A block here is a set of cube index tuples.  ``boundary_faces`` is the
first, plain Python form of the boundary: a walk over the sorted cubes
that asks, for every axis and side, whether the neighbour tuple is in the
set.  ``classify_boundary`` tags each of those faces from the field at
its own sample lattice, built per face from ``np.linspace``.  The package
reads the same faces from one shifted occupancy array per axis and side,
and samples and tags all faces at once; the tests check that both give
the same faces, in the same order, with the same tags.

``check_isolation_by_orbits`` is the first form of the isolation check:
it integrates every boundary sample, backward and then forward, where the
package settles a sample whose outward flux has a strict sign by that sign
and integrates only the others; the tests check that both give the same
verdict and the same trapped samples.

``contains_columns`` below is the first, plain numpy form of the
containment test: it builds all 2^m candidate cubes of every column as one
(2^m, m, N) array of floats.  The package computes the same candidates as
a (2, m, N) array and gathers their occupancy through one flat (2^m, N)
index; the tests check that both give the same answer, column for column.
``contains`` asks the package's ``contains_columns`` about one point.
"""
import itertools

import numpy as np

from mcfhom import block, expr, flow
from mcfhom.config import DEFAULT


def cube_set(b):
    """The cubes of the block ``b`` as a set of index tuples."""
    return {tuple(c) for c in b.cubes.tolist()}


def cube_bounds(b, c):
    """The lower and upper corner of the cube ``c`` as lists."""
    lo = [b.origin[i] + b.spacing * c[i] for i in range(b.dimension)]
    return lo, [v + b.spacing for v in lo]


def boundary_faces(b):
    """The boundary faces of ``b`` as ``block.Face`` objects: cube by cube
    in sorted order, then axis, then side, each a face with no neighbour
    cube beyond it."""
    cubes = cube_set(b)
    faces = []
    for c in sorted(cubes):
        for axis in range(b.dimension):
            for side in (0, 1):
                nb = list(c)
                nb[axis] += 1 if side else -1
                if tuple(nb) not in cubes:
                    faces.append(block.Face(c, axis, side))
    return faces


def face_tags(b, tags):
    """The faces of the block ``b`` with their ``tags`` (one per face, as
    ``block.classify_boundary`` returns them), as a dict from
    ``block.Face`` to tag in the order of its face arrays."""
    return dict(zip(b.face_list(), tags.tolist()))


def face_lattice(b, f, n):
    """The ``n``-per-tangent-axis sample lattice of the face ``f``, strictly
    inside the face, in C order over the axes."""
    lo, hi = cube_bounds(b, f.cube)
    lo[f.axis] = hi[f.axis] if f.side else lo[f.axis]
    axes = [np.array([lo[i]]) if i == f.axis
            else np.linspace(lo[i], hi[i], n + 2)[1:-1]
            for i in range(b.dimension)]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1)


def classify_boundary(b, fieldd, tols=DEFAULT):
    """The tag of every face of ``boundary_faces(b)``, face by face: Egress
    if the outward flux is at least ``margin_tol`` at every sample, Ingress
    if it is at most ``-margin_tol`` at every sample, and Unresolved
    otherwise, or if the field is not finite at a sample."""
    faces = boundary_faces(b)
    n = tols.face_samples ** (b.dimension - 1)
    pts = np.concatenate([face_lattice(b, f, tols.face_samples)
                          for f in faces])
    V = expr.compile_field(fieldd)(pts.T)
    tags = {}
    for i, f in enumerate(faces):
        v = V[:, i * n:(i + 1) * n]
        flux = (1.0 if f.side else -1.0) * v[f.axis]
        finite = np.isfinite(v).all(axis=0)
        if (finite & (flux >= tols.margin_tol)).all():
            tags[f] = block.EGRESS
        elif (finite & (flux <= -tols.margin_tol)).all():
            tags[f] = block.INGRESS
        else:
            tags[f] = block.UNRESOLVED
    return tags


def contains_columns(b, X):
    """For each column of the (m, N) array X, whether it lies in a cube of
    the block ``b`` widened by the boundary tolerance on every side."""
    tol = block.BOUNDARY_TOL
    m = b.dimension
    idx = np.array(sorted(cube_set(b)))
    # occupancy padded by one empty layer on every side, so that clipped
    # indices land on empty cells
    lo_idx = idx.min(axis=0) - 1
    occ = np.zeros(idx.max(axis=0) - lo_idx + 2, dtype=bool)
    occ[tuple((idx - lo_idx).T)] = True
    X = np.asarray(X, dtype=float)
    origin = np.asarray(b.origin)[:, None]
    deltas = np.array(list(itertools.product((0, -1), repeat=m)),
                      dtype=float)[:, :, None]
    with np.errstate(invalid="ignore"):
        # candidate cubes, shape (2^m, m, N): along each axis, the cubes
        # within tol of a point are the cube holding the point + tol and
        # the one before it
        c = np.floor((X - (origin - tol)) / b.spacing) + deltas
        lo = origin + b.spacing * c
        inside = np.logical_and.reduce(
            (lo - tol <= X) & (X <= lo + b.spacing + tol), axis=1)
        shifted = c - lo_idx[:, None]
        k = np.fmin(np.fmax(shifted, 0), np.array(occ.shape)[:, None] - 1)
        occupied = occ[tuple(k.astype(np.intp).transpose(1, 0, 2))]
    return np.logical_or.reduce(occupied & inside, axis=0)


def contains(b, point):
    """Whether one point lies in the block ``b``: the package's
    ``contains_columns`` of the one column."""
    X = np.asarray(point, dtype=float)[:, None]
    return bool(b.contains_columns(X)[0])


def check_isolation_by_orbits(b, field, tols=DEFAULT):
    """``block.check_isolation`` with every sample integrated: all samples
    as one ``flow.classify_limit`` batch with no critical points backward,
    then those that did not leave as one batch forward, whatever the sign
    of their flux."""
    F = expr.compile_field(field) if isinstance(field, expr.FieldDef) \
        else field
    budget = tols.cert_t_budget
    pts = b.boundary_samples(tols.isolation_samples_per_face)
    n = len(pts)
    outcome = np.zeros(n, dtype=int)  # an index into block.OUTCOMES
    exit_t = np.full(n, np.nan)
    todo = np.arange(n)
    for direction, label in ((-1, 1), (1, 2)):
        if not todo.size:
            break
        lc, run = flow.classify_limit(
            F, pts.T[:, todo], (), b, budget, scale=None,
            direction=direction, tols=tols)
        left = np.array([lab == ("exit",) for lab in lc.tag])
        outcome[todo[left]] = label
        exit_t[todo[left]] = np.abs(run.t[left])
        todo = todo[~left]
    exited = exit_t[~np.isnan(exit_t)]
    trapped = [tuple(p) for p in pts[outcome == 0].tolist()]
    return block.IsolationReport(
        not trapped, pts, outcome, trapped,
        float(np.min(budget - exited)) if exited.size else 0.0)
