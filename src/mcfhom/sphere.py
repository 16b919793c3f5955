"""Direction spheres: the unit sphere S^{k-1} in the coefficient space of a
source's unstable eigenspace, for k = 1 and k = 2, refined by bisection
towards the basin boundaries of the orbits that leave the source.

S^0 is two one-point members.  The circle S^1 is a cycle of arcs (a, b) of
two unit vectors, each halved at the normalised mean of its ends.  On these
two spheres the directions of the connections to the adjacent index are
exactly the boundaries between open labels, which bisection finds.  On
S^{k-1} with k >= 3 they are isolated points on curves between open labels,
which a bisection of label changes either refines along a whole curve or
never sees; ``morse.ConnectionFinder`` raises ``MorseError`` for them
before any orbit.

``Sphere`` walks the refinement of one source breadth-first and labels
ahead of itself, ``LOOK_AHEAD`` levels deep; ``morse.ConnectionFinder``
labels what every sphere wants in one ``flow.classify_limit`` batch, and
clusters and signs the witnesses that ``Sphere.replay`` returns.
"""
from __future__ import annotations

import numpy as np

from . import flow


def initial_simplices(k, n_min, rot):
    """The members of S^{k-1} before refinement, for k = 1 or 2: the two
    points +-1 of S^0, or the four quarter arcs of the circle between the
    axes, halved until there are at least ``n_min``, then rotated by
    ``rot`` to avoid axis coincidences."""
    if k == 1:
        return [(np.array([1.0]),), (np.array([-1.0]),)]
    arcs = [(np.array([a, 0.0]), np.array([0.0, b]))
            for a in (-1.0, 1.0) for b in (-1.0, 1.0)]
    while len(arcs) < n_min:
        arcs = [half for arc in arcs for half in split(arc)]
    return [(rot @ a, rot @ b) for a, b in arcs]


def _midpoint(arc):
    """The normalised mean of the two ends of an arc."""
    mid = 0.5 * (arc[0] + arc[1])
    return mid / np.linalg.norm(mid)


def split(arc):
    """The two halves of an arc, at its midpoint."""
    mid = _midpoint(arc)
    return [(arc[0], mid), (mid, arc[1])]


def direction_key(d):
    """Cache key of a direction: equal for directions equal to 14 places."""
    return tuple(np.round(d, 14))


def diameter(sp):
    """The chord of an arc; 0 for a point of S^0."""
    return float(np.linalg.norm(sp[0] - sp[1])) if len(sp) > 1 else 0.0


def _subtree(sp, depth, dir_tol):
    """The ends of the member sp and of its binary subtree ``depth`` levels
    deep, where an arc below ``dir_tol`` gives its midpoint instead of
    halves."""
    yield from sp
    if len(sp) > 1:
        if diameter(sp) < dir_tol:
            yield _midpoint(sp)
        elif depth:
            for child in split(sp):
                yield from _subtree(child, depth - 1, dir_tol)


# Levels of the binary subtree below a member that lacks a label, labelled
# in the same batch ahead of the walk.  `mcfhom hi
# tests/data/product_well_3d.json --seed 3` with the DOP853 integrator on a
# 2-core Xeon, as depth: integrator batches and orbits of the whole run,
# median CPU seconds of the whole run over 6 alternating runs:
#   2: 25, 21,870, 2.13   4: 20, 26,070, 2.63
# Deeper look-ahead takes fewer batches, but every batch pays for the
# orbits that the walk never reads.
LOOK_AHEAD = 2


class Sphere:
    """The breadth-first refinement of the unstable sphere of one source,
    labelled ahead of the walk.

    ``wanted`` walks the refinement as far as the known labels allow and
    returns the directions to label next: the ends of the subtree of depth
    ``LOOK_AHEAD`` below every member that lacks a label but has one, with
    the midpoints of the subtree's arcs below ``dir_tol``; the ends of
    every member with no label yet; and the midpoints the walk asked for.
    ``learn`` stores their labels.  The walk reads only a member's own
    labels, so the arcs it halves and the directions it reads do not depend
    on how far ahead a batch labelled.

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
        self.level = list(initial)  # members not refined yet
        self.labels = {}  # direction key -> (label, signed end time)
        self.error = None  # the first failure the walk read

    def wanted(self):
        if self.error is not None:
            return []
        try:
            return self._walk()
        except flow.IntegrationError as err:
            self.error = err
            return []

    def _walk(self):
        labels, want = self.labels, {}

        def ask(d):
            key = direction_key(d)
            if key not in labels:
                want.setdefault(key, d)

        blocked, level = [], self.level
        while level:
            nxt = []
            for sp in level:
                if any(direction_key(v) not in labels for v in sp):
                    blocked.append(sp)
                    continue
                children, mid = self._refine(sp)
                nxt.extend(children)
                if mid is not None:
                    ask(mid)
            level = nxt
        self.level = blocked
        for sp in blocked:
            # below a member with no label at all, such as an initial one,
            # nothing says where a basin boundary is: label it alone
            known = any(direction_key(v) in labels for v in sp)
            ahead = LOOK_AHEAD if known else 0
            for d in _subtree(sp, ahead, self.dir_tol):
                ask(d)
        return [*want.values()]

    def _refine(self, sp):
        """What a member asks for, given the labels of its ends: (halves,
        None) to split an arc, ([], midpoint) to label its midpoint once it
        is below ``dir_tol``, or ([], None).  Directions that hit the time
        budget count as non-connecting."""
        labs = {self._label(v)[0] for v in sp} - {("budget",)}
        if len(labs) < 2:
            return [], None
        if diameter(sp) < self.dir_tol:
            return [], _midpoint(sp)
        return (split(sp) if len(sp) > 1 else []), None

    def _label(self, d):
        """The label and signed end time of direction d; raises the error
        of a direction whose orbit failed."""
        lab, t = self.labels[direction_key(d)]
        if lab[0] == "failed":
            raise lab[1]
        return lab, t

    def learn(self, dirs, labels):
        self.labels.update(zip(map(direction_key, dirs), labels))

    def replay(self):
        """Replay the refinement depth-first.  Returns the witnesses
        (direction, target ident, capture time) in depth-first order of
        first touch, which fixes the cluster representatives that
        ``morse.ConnectionFinder._collect`` keeps, and the number of
        directions the refinement reads whose orbit hit the time budget.
        Every capture of a target counts: arc ends inside a capture window
        are as valid witnesses as the initial seeds, and the windows can be
        far narrower than the seed spacing.  ``_collect`` merges the
        cluster of directions inside one window into a single witness."""
        found = []
        seen = set()

        def touch(d):
            key = direction_key(d)
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
