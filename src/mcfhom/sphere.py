"""Direction spheres: the unit sphere S^{k-1} in the coefficient space of a
frame at a critical point, for k = 1 and k = 2, refined by bisection
towards the basin boundaries of the orbits that leave it.

A sphere is seeded along the unstable frame of a source and followed
forward in time, or along the stable frame of a target and followed
backward.  It is held as cycles of directions in angular order, each
direction with the label of its orbit and each gap between neighbours with
a flag that says whether it is final.  The circle S^1 is one cycle; S^0 is
two cycles of one point each, whose only gap joins the point to itself and
is never split.  On these two spheres the directions of the connections to
the adjacent index are exactly the boundaries between open labels, which
bisection finds: the orbit of each connection has a capture window, an
interval of directions captured at its target, and so a witness is a run of
neighbours with one such label.  On S^{k-1} with k >= 3 the connecting
directions are isolated points on curves between open labels, which a
bisection of label changes either refines along a whole curve or never
sees; ``morse.ConnectionFinder`` raises ``MorseError`` for them before any
orbit.

``morse.ConnectionFinder`` labels what every ``Circle`` wants in one
``flow.classify_limit`` batch, and signs the witnesses it returns, on S^1
by the label just past each window.
"""
from __future__ import annotations

import numpy as np

# Levels of halving labelled in one batch inside a gap whose end labels
# differ: the interior points of its 8-section.  `mcfhom hi
# tests/data/product_well_3d.json --seed 3` on a 2-core Xeon, as depth:
# integrator batches and orbits of the run, median CPU seconds of the
# process over 5 alternating runs, all with the same report:
#   2: 20, 2,364, 0.89   3: 14, 3,252, 0.86   4: 11, 4,884, 0.89
#   5: 9, 7,452, 1.09
# A deeper section takes fewer batches, but every batch pays for orbits
# inside gaps whose labels agree.
DEPTH = 3


def midpoint(a, b):
    """The normalised mean of two directions."""
    mid = 0.5 * (a + b)
    return mid / np.linalg.norm(mid)


def cycles(k, n_min, rot):
    """The cycles of S^{k-1} before refinement, for k = 1 or 2: the points
    +-1 of S^0, one cycle each, or the cycle of the four axis points of the
    circle with the midpoint of every two neighbours inserted until there
    are at least ``n_min``, rotated by ``rot`` to avoid axis
    coincidences."""
    if k == 1:
        return [[np.array([1.0])], [np.array([-1.0])]]
    points = [np.array(p)
              for p in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))]
    while len(points) < n_min:
        points = [p for a, b in zip(points, points[1:] + points[:1])
                  for p in (a, midpoint(a, b))]
    return [[rot @ p for p in points]]


class Circle:
    """The refinement of a direction sphere S^0 or S^1 at the critical
    point ``x``: seeded at x + delta_u (``frame`` @ d) for a direction d and
    followed in the direction of time ``time``, forward (1) along the
    (m, k) unstable frame of x or backward (-1) along its stable frame.
    ``targets`` are the idents of the critical points a witness reaches.

    ``cycles`` holds one list per cycle of entries [direction, label,
    final] in angular order: the (label, signed end time) of the orbit from
    the direction, None until it is known, and whether the gap from the
    direction to the next one is final.  ``wanted`` refines every gap that
    is not final and whose end labels differ: it inserts the points of the
    gap's section ``DEPTH`` levels deep, where a gap below ``dir_tol`` is
    halved once more and both halves are final.  It returns the directions
    with no label yet, and ``learn`` stores their labels, which
    ``morse.ConnectionFinder`` has read first: a failed orbit or one that
    hits the time budget never reaches a circle.
    """

    def __init__(self, x, time, frame, targets, cycles, dir_tol):
        self.x = x
        self.time = time
        self.frame = frame
        self.targets = targets
        self.dir_tol = dir_tol
        self.cycles = [[[d, None, False] for d in c] for c in cycles]

    def wanted(self):
        for c in self.cycles:
            c[:] = [e for a, b in zip(c, c[1:] + c[:1])
                    for e in (self._section(a, b[0], DEPTH)
                              if self._refines(a, b) else [a])]
        return [d for c in self.cycles for d, lab, _ in c if lab is None]

    @staticmethod
    def _refines(a, b):
        return not a[2] and a[1] is not None and b[1] is not None \
            and a[1][0] != b[1][0]

    def _section(self, a, b, depth):
        """The entry a and the new entries after it, in angular order, of
        ``depth`` levels of halving of the gap from a to the direction
        b."""
        small = float(np.linalg.norm(a[0] - b)) < self.dir_tol
        if not (small or depth):
            return [a]
        a[2] = small
        mid = [midpoint(a[0], b), None, small]
        if small:
            return [a, mid]
        return (self._section(a, mid[0], depth - 1)
                + self._section(mid, b, depth - 1))

    def learn(self, labels):
        """Store ``labels``, those of the directions ``wanted`` returned."""
        todo = (e for c in self.cycles for e in c if e[1] is None)
        for e, lab in zip(todo, labels):
            e[1] = lab

    def witnesses(self):
        """The witnesses {target: [(direction, capture time, label after)]}.

        A witness is a maximal run of neighbours captured at one target,
        the capture window of one connecting orbit; its direction is the
        first of the run in cyclic order, and a cycle captured at one
        target throughout is one run.  The label after it is that of the
        direction just past the run in angular order, the run's own where
        nothing follows it: on S^0, or on a cycle of one run.  Witnesses of
        one target are in the order of the cycles, and of their first
        directions in them."""
        found = {}
        for c in self.cycles:
            labs = [lab if lab[0] == "crit" and lab[1] in self.targets
                    else None for _, (lab, _), _ in c]
            firsts = [i for i, lab in enumerate(labs)
                      if lab is not None and lab != labs[i - 1]]
            if not firsts and labs[0] is not None:
                firsts = [0]
            for i in firsts:
                after = next((j for j in range(i + 1 - len(c), i)
                              if labs[j] != labs[i]), i)
                d, (lab, t), _ = c[i]
                found.setdefault(lab[1], []).append(
                    (d, abs(t), c[after][1][0]))
        return found
