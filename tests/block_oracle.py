"""Reference form of ``GridBlock.contains_columns`` for the tests.

``contains_columns`` below is the first, plain numpy form of the test: it
builds all 2^m candidate cubes of every column as one (2^m, m, N) array of
floats.  The package computes the same candidates as a (2, m, N) array and
gathers their occupancy through one flat (2^m, N) index; the tests check
that both give the same answer, column for column.
"""
import itertools

import numpy as np

from mcfhom.config import DEFAULT


def contains_columns(b, X):
    """For each column of the (m, N) array X, whether it lies in a cube of
    the block ``b`` widened by the boundary tolerance on every side."""
    tol = DEFAULT.boundary_tol
    m = b.dimension
    idx = np.array(sorted(b.cubes))
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
