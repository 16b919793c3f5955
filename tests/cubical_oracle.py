"""Reference form of the cubical complex of a block for the tests.

Here a cell is a tuple of (lo, hi) integer pairs, one per axis, in cube
index units; lo == hi on a degenerate axis.  Every face is derived by a
walk over those tuples, and ``build_cubical_complex`` below is the first,
plain Python builder of the chain complex.  The package writes the same
cells as a boolean mask on a doubled grid, the axis (lo, hi) at position
lo + hi - 2 lo_box, and derives faces by strides; the tests check that both
give the same chain groups and the same columns, dict for dict.
"""
import numpy as np

import block_oracle
from mcfhom import block, homalg


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


def cell_dim(cell):
    return sum(1 for lo, hi in cell if lo != hi)


def cell_boundary(cell):
    """Signed codimension-one boundary of a cubical cell: list of
    (face_cell, sign) with sign (-1)^(number of earlier nondegenerate axes)
    times (+1 for the upper face, -1 for the lower)."""
    out = []
    nd_seen = 0
    for i, (lo, hi) in enumerate(cell):
        if lo == hi:
            continue
        sign = (-1) ** nd_seen
        out.append((cell[:i] + ((hi, hi),) + cell[i + 1:], sign))
        out.append((cell[:i] + ((lo, lo),) + cell[i + 1:], -sign))
        nd_seen += 1
    return out


def build_cubical_complex(cells, relative_to=frozenset()):
    """Chain complex of a closed cubical cell set, modulo a closed subset,
    with the cells of each dimension in sorted order."""
    sub = set(relative_to)
    for c in sub:
        for f in cell_faces(c):
            if f not in sub:
                raise homalg.HomalgError(
                    "relative subcomplex is not closed under faces")
    allcells = set(cells) | sub
    for c in allcells:
        for f in cell_faces(c):
            if f not in allcells:
                raise homalg.HomalgError("cell set is not closed under faces")
    use = sorted(c for c in allcells if c not in sub)
    if not use:
        return homalg.ChainComplex([0])
    top = max(cell_dim(c) for c in use)
    by_dim = [[] for _ in range(top + 1)]
    for c in use:
        by_dim[cell_dim(c)].append(c)
    index = {c: i for lst in by_dim for i, c in enumerate(lst)}
    columns = {}
    for k in range(1, top + 1):
        ck = columns[k] = []
        for c in by_dim[k]:
            col = {}
            for f, sign in cell_boundary(c):
                if f not in sub:
                    col[index[f]] = col.get(index[f], 0) + sign
            ck.append({i: v for i, v in col.items() if v})
    return homalg.ChainComplex([len(lst) for lst in by_dim], columns=columns)


def block_cells(b):
    """All cells of the block: the closures of its cubes."""
    return closure([tuple((v, v + 1) for v in c)
                    for c in block_oracle.cube_set(b)])


def exit_set(b, tags):
    """The closure of the faces of ``b`` that ``tags`` calls Egress."""
    top = []
    for f, tag in block_oracle.face_tags(b, tags).items():
        if tag == block.EGRESS:
            top.append(tuple((v + f.side,) * 2 if i == f.axis else (v, v + 1)
                             for i, v in enumerate(f.cube)))
    return closure(top)


def cells_of(mask, lo=None):
    """The cells of a doubled-grid mask as (lo, hi) tuples, with the grid's
    first vertex at the cube index ``lo`` (zero by default)."""
    lo = np.zeros(mask.ndim, dtype=int) if lo is None else np.asarray(lo)
    return {tuple((int(v + p // 2), int(v + (p + 1) // 2))
                  for v, p in zip(lo, pos))
            for pos in np.argwhere(mask)}


def mask_of(cells, shape, lo=None):
    """The doubled-grid mask of the given shape of a set of (lo, hi)
    tuples, with the grid's first vertex at the cube index ``lo``."""
    mask = np.zeros(shape, dtype=bool)
    lo = np.zeros(len(shape), dtype=int) if lo is None else np.asarray(lo)
    for c in cells:
        mask[tuple(a + b - 2 * v for (a, b), v in zip(c, lo))] = True
    return mask
