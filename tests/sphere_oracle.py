"""The references of the direction spheres: the triangulated sphere of any
dimension, which the cycles of ``mcfhom.sphere`` are tested against, and
the forward search, which the counts of ``mcfhom.morse`` are tested
against.

``initial_simplices`` builds the boundary of the cross-polytope of R^k from
sign products and refines it uniformly by ``split``, longest-edge bisection
with the new vertex pushed to the sphere, until it has at least ``n_min``
vertices.  On the circle (k = 2) its simplices are arcs of two vertices,
and the points, neighbours, sections and midpoints of the cycle of
``mcfhom.sphere`` must equal its vertices, arcs, splits and midpoints bit
for bit.
"""
from __future__ import annotations

import itertools

import numpy as np


def initial_simplices(k, n_min, rot):
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
        simplices = [s for sp in simplices for s in split(sp)]
    return [tuple(rot @ v for v in sp) for sp in simplices]


def _vertex_count(simplices):
    seen = set()
    for sp in simplices:
        for v in sp:
            seen.add(tuple(np.round(v, 12)))
    return len(seen)


def split(sp):
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


def diameter(sp):
    return max(float(np.linalg.norm(a - b))
               for a, b in itertools.combinations(sp, 2)) \
        if len(sp) > 1 else 0.0


def midpoint(sp):
    """The normalised vertex mean of a simplex of the sphere."""
    mid = sum(sp) / len(sp)
    return mid / np.linalg.norm(mid)


def forward_search(finder, sources):
    """Search every source of ``sources`` of index 1 or 2 with targets
    forward on its unstable sphere, S^0 or the circle, by
    ``finder._search_spheres``: also a source of index m = 2, which
    ``finder.search`` reaches backward from the stable S^0 of its targets.
    A source without targets has no sphere.  The forward S^0 of each
    circle target that is not a source, whose labels sign the circle's
    witnesses, is searched after them.  Returns the spheres and their
    witnesses {(source, target): [Witness]}; the witnesses of an S^0 are
    signed by their direction coefficients, as in ``finder.search``."""
    def below(x):
        return {c.ident for c in finder.crits if c.index == x.index - 1}

    circles = []
    for x in sources:
        if below(x):
            assert x.index <= 2, "the forward search has S^0 and S^1 only"
            circles.append(finder._circle(x, 1, x.frame_matrix(), below(x)))
    searched = {x.ident for x in sources}
    for q in finder.crits:
        if q.ident not in searched and below(q) and any(
                s.x.index == 2 and q.ident in s.targets for s in circles):
            circles.append(finder._circle(q, 1, q.frame_matrix(), below(q)))
    return circles, finder._search_spheres(circles)
