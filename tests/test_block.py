"""Cubical blocks: construction, boundary classification, exit sets,
isolation."""
import dataclasses
import itertools
import warnings

import numpy as np
import pytest

import flow_oracle as oracle
from mcfhom import block, expr, flow
from mcfhom.config import DEFAULT


def test_box_counts_2d():
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.25)
    assert len(b.cubes) == 64
    assert len(b.boundary_faces) == 32


def test_box_counts_1d():
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    assert len(b.cubes) == 4
    assert len(b.boundary_faces) == 2


def test_annulus_has_inner_and_outer_boundary():
    cubes = [(i, j) for i in range(8) for j in range(8)
             if not (i in (3, 4) and j in (3, 4))]
    b = block.build_block(cubes=cubes, origin=(-2.0, -2.0), spacing=0.5)
    assert len(b.cubes) == 60
    # outer square contributes 32 faces, inner hole 8
    assert len(b.boundary_faces) == 40


def test_empty_block_rejected():
    with pytest.raises(block.BlockError):
        block.build_block(cubes=[], spacing=0.5)
    with pytest.raises(block.BlockError):
        block.build_block(box=[(-1, 1)], spacing=-0.5)


def test_box_must_align_with_grid():
    with pytest.raises(block.BlockError):
        block.build_block(box=[(0, 1.3)], spacing=0.5)


def test_contains_with_boundary_tolerance():
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    assert b.contains((1.0,))
    assert b.contains((-1.0,))
    assert not b.contains((1.1,))
    assert b.contains((1.0 + 0.5 * DEFAULT.boundary_tol,))


def test_boundary_tolerance_is_symmetric():
    # just outside the upper and the lower end, and every corner of a square
    tol = DEFAULT.boundary_tol
    for box in ([(0, 1)], [(0, 1), (0, 1)]):
        b = block.build_block(box=box, spacing=0.5)
        m = b.dimension
        for corner in itertools.product((-1, 1), repeat=m):
            near = [1e-10 * s + (1.0 if s > 0 else 0.0) for s in corner]
            far = [2 * tol * s + (1.0 if s > 0 else 0.0) for s in corner]
            assert b.contains(near) and not b.contains(far)
            assert list(b.contains_columns(np.array([near, far]).T)) == \
                [True, False]


def test_classify_saddle_faces():
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    fld = expr.parse_field(["x1", "-x2"], 2)
    cb = block.classify_boundary(b, fld)
    for f, tag in cb.face_tags.items():
        expected = block.EGRESS if f.axis == 0 else block.INGRESS
        assert tag == expected


def test_classify_double_well_ingress():
    b = block.build_block(box=[(-2, 2)], spacing=0.5)
    fld = expr.parse_field(["x1 - x1^3"], 1)
    cb = block.classify_boundary(b, fld)
    assert all(tag == block.INGRESS for tag in cb.face_tags.values())


def test_classify_semistable():
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    fld = expr.parse_field(["x1^2/(1 + x1^2)"], 1)
    cb = block.classify_boundary(b, fld)
    tags = {f.side: tag for f, tag in cb.face_tags.items()}
    assert tags[1] == block.EGRESS
    assert tags[0] == block.INGRESS


def test_classify_non_finite_sample_leaves_its_face_unresolved():
    # X . nu = +-1 on the x1 = +-1 sides, but the tangential component is
    # infinite at the samples with x2 = -0.5: those faces are not
    # transverse, as the NaN of inf * 0 in a dot product would say
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=1.0)
    fld = expr.parse_field(["1", "1/(x2 + 0.5)"], 2)
    cb = block.classify_boundary(b, fld)
    for f, tag in cb.face_tags.items():
        if f.axis == 0:
            want = block.EGRESS if f.side else block.INGRESS
            assert tag == (block.UNRESOLVED if f.cube[1] == 0 else want)


def test_classify_monotone_in_tol():
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    fld = expr.parse_field(["x1", "-x2"], 2)
    low = block.classify_boundary(
        b, fld, tols=dataclasses.replace(DEFAULT, margin_tol=1e-6))
    high = block.classify_boundary(
        b, fld, tols=dataclasses.replace(DEFAULT, margin_tol=10.0))
    for f in b.face_tags:
        if high.face_tags[f] != block.UNRESOLVED:
            assert high.face_tags[f] == low.face_tags[f]
    # raising the tolerance may only move tags toward Unresolved
    assert any(t == block.UNRESOLVED for t in high.face_tags.values())


def test_exit_set_saddle_closed():
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    fld = expr.parse_field(["x1", "-x2"], 2)
    cb = block.classify_boundary(b, fld)
    ex = block.exit_set(cb)
    # two vertical segments of 4 edges each, plus their 10 vertices
    edges = [c for c in ex if sum(1 for lo, hi in c if lo != hi) == 1]
    verts = [c for c in ex if all(lo == hi for lo, hi in c)]
    assert len(edges) == 8
    assert len(verts) == 10
    # closed under faces
    for c in ex:
        for f in block.cell_faces(c):
            assert f in ex


def test_exit_set_empty_for_attractor():
    b = block.build_block(box=[(-2, 2)], spacing=0.5)
    fld = expr.parse_field(["x1 - x1^3"], 1)
    cb = block.classify_boundary(b, fld)
    assert block.exit_set(cb) == set()


def test_exit_set_repeller_two_points():
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    fld = expr.parse_field(["x1"], 1)
    cb = block.classify_boundary(b, fld)
    ex = block.exit_set(cb)
    assert len(ex) == 2
    assert all(all(lo == hi for lo, hi in c) for c in ex)


def test_exit_set_unresolved_raises():
    # X = (x2, 0): the flux through the faces x1 = +-1 changes sign
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    fld = expr.parse_field(["x2", "0"], 2)
    cb = block.classify_boundary(b, fld)
    with pytest.raises(block.UnresolvedFacesError) as exc:
        block.exit_set(cb)
    assert exc.value.faces


def test_isolation_saddle_passes():
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    fld = expr.parse_field(["x1", "-x2"], 2)
    assert block.check_isolation(b, fld)


def test_isolation_drift_passes():
    b = block.build_block(box=[(0, 1)], spacing=0.5)
    fld = expr.parse_field(["1"], 1)
    rep = block.check_isolation(b, fld)
    assert rep.verdict
    assert all(outcome in ("forward", "backward")
               for _, outcome in rep.samples)


def test_isolation_fails_on_trapped_boundary():
    # sub-block [0, 2] of x' = x - x^3: the boundary point x = 0 is an
    # equilibrium and never leaves
    b = block.build_block(box=[(0, 2)], spacing=0.5)
    fld = expr.parse_field(["x1 - x1^3"], 1)
    rep = block.check_isolation(b, fld)
    assert not rep.verdict
    assert any(abs(s[0]) < 1e-12 for s in rep.failures)


def test_contains_is_false_for_non_finite_and_far_points():
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in ((np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.5),
                  (np.nan, np.nan), (np.inf, -np.inf), (1e300, 0.0)):
            assert not b.contains(p)
        assert b.contains((1.0, -1.0))


# ---------------------------------------------------------------------------
# column containment, boundary samples and batched isolation

def _l_shape():
    # three cubes of an L in the x1-x2 plane, two layers deep: non-convex
    cubes = [(i, j, k) for i, j in ((0, 0), (1, 0), (0, 1)) for k in (0, 1)]
    return block.build_block(cubes=cubes, origin=(-0.5, -0.5, -0.5),
                             spacing=0.5)


def _face_lattice(b, f, n):
    lo, hi = b.cube_bounds(f.cube)
    lo[f.axis] = hi[f.axis] if f.side else lo[f.axis]
    axes = [np.array([lo[i]]) if i == f.axis
            else np.linspace(lo[i], hi[i], n + 2)[1:-1]
            for i in range(b.dimension)]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_samples_are_the_face_lattices(n):
    for b in (_l_shape(), block.build_block(box=[(0, 1)], spacing=0.5),
              block.build_block(box=[(-1, 1), (-1, 0.5)], spacing=0.5)):
        want = np.concatenate([_face_lattice(b, f, n) for f in b.face_tags])
        assert np.array_equal(b.boundary_samples(n), want)


@pytest.mark.parametrize("n", [2, 5])
def test_lattice_rows_run_in_product_order(n):
    for b in (block.build_block(box=[(0, 1)], spacing=0.5),
              block.build_block(box=[(-1, 1), (-1, 0.5)], spacing=0.5),
              _l_shape()):
        lo, hi = b.bounding_box()
        axes = [np.linspace(lo[i], hi[i], n) for i in range(b.dimension)]
        want = np.array(list(itertools.product(*axes)))
        assert np.array_equal(b.lattice(n), want)


def _in_some_cube(b, p):
    """Brute force: p lies in some cube widened by the boundary tolerance
    on every side."""
    tol = DEFAULT.boundary_tol
    for c in b.cubes:
        lo, hi = b.cube_bounds(c)
        if all(lo[i] - tol <= p[i] <= hi[i] + tol for i in range(b.dimension)):
            return True
    return False


def test_contains_columns_equals_contains():
    # both forms against a scan of every cube, which shares nothing with
    # their candidate-cube shortcut
    rng = np.random.default_rng(11)
    tol = DEFAULT.boundary_tol
    for b in (_l_shape(),
              block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.25),
              block.build_block(box=[(0, 1)], spacing=0.5)):
        m = b.dimension
        lo, hi = b.bounding_box()
        P = rng.uniform(np.array(lo) - 0.6, np.array(hi) + 0.6,
                        size=(2000, m))
        # snap coordinates onto grid planes, on either side of the
        # tolerance: faces, edges and corners, inside and outside
        o = np.asarray(b.origin)
        plane = o + b.spacing * np.round((P - o) / b.spacing)
        jitter = rng.choice([0.0, 0.5 * tol, -0.5 * tol, 2 * tol, -2 * tol],
                            size=P.shape)
        P = np.where(rng.random(P.shape) < 0.6, plane + jitter, P)
        # far outside the occupancy grid, and not a number
        P = np.vstack([P, np.full((1, m), 1e6), np.full((1, m), -1e300),
                       np.full((1, m), np.nan)])
        want = [_in_some_cube(b, p) for p in P]
        assert any(want) and not all(want)
        assert [b.contains(p) for p in P] == want
        assert list(b.contains_columns(P.T)) == want


def test_batched_isolation_matches_single_orbits():
    b = _l_shape()
    # the plane x1 = 0, which holds boundary faces of the inner corner, is
    # all equilibria: its samples are trapped
    fld = expr.parse_field(
        ["x1", "-x1*x2 + 0.3*sin(x1)", "x1*x3*exp(x2)"], 3)
    rep = block.check_isolation(b, fld)

    def left(t, xprev, x):
        return ("out", t) if not b.contains(x) else None

    budget = DEFAULT.cert_t_budget
    margins = []
    for (s, outcome), p in zip(rep.samples,
                               b.boundary_samples(
                                   DEFAULT.isolation_samples_per_face)):
        assert s == tuple(p)
        want = "trapped"
        for direction, label in ((-1, "backward"), (1, "forward")):
            try:
                _, sv = oracle.integrate_until(fld, p, left, budget,
                                               direction=direction)
            except flow.IntegrationError:
                sv = None
            if sv is not None:
                want = label
                margins.append(budget - abs(sv[1]))
                break
        assert outcome == want
    outcomes = {o for _, o in rep.samples}
    assert outcomes == {"backward", "forward", "trapped"}
    assert not rep.verdict
    assert rep.worst_margin == pytest.approx(min(margins), abs=1e-9)
