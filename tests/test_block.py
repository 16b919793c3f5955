"""Cubical blocks: construction, boundary classification, exit sets,
isolation."""
import dataclasses
import glob
import itertools
import json
import os
import warnings

import numpy as np
import pytest

import block_oracle
import flow_oracle as oracle
from mcfhom import block, cli, expr, flow
from mcfhom.config import DEFAULT


def test_box_counts_2d():
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.25)
    assert len(b.cubes) == 64
    assert len(b.faces[0]) == 32


def test_box_counts_1d():
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    assert len(b.cubes) == 4
    assert len(b.faces[0]) == 2


def test_annulus_has_inner_and_outer_boundary():
    cubes = [(i, j) for i in range(8) for j in range(8)
             if not (i in (3, 4) and j in (3, 4))]
    b = block.build_block(cubes=cubes, origin=(-2.0, -2.0), spacing=0.5)
    assert len(b.cubes) == 60
    # outer square contributes 32 faces, inner hole 8
    assert len(b.faces[0]) == 40


def test_empty_block_rejected():
    with pytest.raises(block.BlockError):
        block.build_block(cubes=[], spacing=0.5)
    with pytest.raises(block.BlockError):
        block.build_block(box=[(-1, 1)], spacing=-0.5)


@pytest.mark.parametrize("origin", [[-1.0], [-1.0, -1.0, -1.0]])
def test_origin_must_have_one_entry_per_axis(origin):
    with pytest.raises(block.BlockError, match="origin has"):
        block.build_block(cubes=[(0, 0), (1, 0)], origin=origin, spacing=0.5)


def test_box_must_align_with_grid():
    with pytest.raises(block.BlockError):
        block.build_block(box=[(0, 1.3)], spacing=0.5)


def test_contains_with_boundary_tolerance():
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    assert block_oracle.contains(b, (1.0,))
    assert block_oracle.contains(b, (-1.0,))
    assert not block_oracle.contains(b, (1.1,))
    assert block_oracle.contains(b, (1.0 + 0.5 * block.BOUNDARY_TOL,))


def test_boundary_tolerance_is_symmetric():
    # just outside the upper and the lower end, and every corner of a square
    tol = block.BOUNDARY_TOL
    for box in ([(0, 1)], [(0, 1), (0, 1)]):
        b = block.build_block(box=box, spacing=0.5)
        m = b.dimension
        for corner in itertools.product((-1, 1), repeat=m):
            near = [1e-10 * s + (1.0 if s > 0 else 0.0) for s in corner]
            far = [2 * tol * s + (1.0 if s > 0 else 0.0) for s in corner]
            assert block_oracle.contains(b, near)
            assert not block_oracle.contains(b, far)
            assert list(b.contains_columns(np.array([near, far]).T)) == \
                [True, False]


def test_classify_saddle_faces():
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    fld = expr.parse_field(["x1", "-x2"], 2)
    tags = block.classify_boundary(b, fld)
    for f, tag in block_oracle.face_tags(b, tags).items():
        expected = block.EGRESS if f.axis == 0 else block.INGRESS
        assert tag == expected


def test_classify_double_well_ingress():
    b = block.build_block(box=[(-2, 2)], spacing=0.5)
    fld = expr.parse_field(["x1 - x1^3"], 1)
    assert (block.classify_boundary(b, fld) == block.INGRESS).all()


def test_classify_semistable():
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    fld = expr.parse_field(["x1^2/(1 + x1^2)"], 1)
    tags = {f.side: tag for f, tag in block_oracle.face_tags(
        b, block.classify_boundary(b, fld)).items()}
    assert tags[1] == block.EGRESS
    assert tags[0] == block.INGRESS


def test_classify_non_finite_sample_leaves_its_face_unresolved():
    # X . nu = +-1 on the x1 = +-1 sides, but the tangential component is
    # infinite at the samples with x2 = -0.5: those faces are not
    # transverse, as the NaN of inf * 0 in a dot product would say
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=1.0)
    fld = expr.parse_field(["1", "1/(x2 + 0.5)"], 2)
    tags = block.classify_boundary(b, fld)
    for f, tag in block_oracle.face_tags(b, tags).items():
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
    resolved = high != block.UNRESOLVED
    assert np.array_equal(high[resolved], low[resolved])
    # raising the tolerance may only move tags toward Unresolved
    assert (high == block.UNRESOLVED).any()


def _cell_dims(mask):
    """The dimension of every position of a doubled-grid mask: the number
    of axes along which it is odd."""
    return sum(np.ix_(*(np.arange(n) % 2 for n in mask.shape)))


def test_exit_set_saddle_closed():
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    fld = expr.parse_field(["x1", "-x2"], 2)
    ex = block.exit_set(b, block.classify_boundary(b, fld))
    assert ex.shape == (9, 9)
    # two vertical segments of 4 edges each, plus their 10 vertices
    dims = _cell_dims(ex)
    assert np.count_nonzero(ex & (dims == 1)) == 8
    assert np.count_nonzero(ex & (dims == 0)) == 10
    assert np.count_nonzero(ex) == 18
    # on the lines x1 = -1 and x1 = 1, and closed under faces
    assert not ex[1:-1].any()
    assert np.array_equal(block.closure(ex), ex)
    assert block.block_cells(b)[ex].all()


def test_exit_set_empty_for_attractor():
    b = block.build_block(box=[(-2, 2)], spacing=0.5)
    fld = expr.parse_field(["x1 - x1^3"], 1)
    ex = block.exit_set(b, block.classify_boundary(b, fld))
    assert ex.shape == (17,)
    assert np.count_nonzero(ex) == 0


def test_exit_set_repeller_two_points():
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    fld = expr.parse_field(["x1"], 1)
    ex = block.exit_set(b, block.classify_boundary(b, fld))
    assert np.count_nonzero(ex) == 2
    assert np.flatnonzero(ex).tolist() == [0, 8]
    assert (_cell_dims(ex)[ex] == 0).all()


def test_block_cells_of_an_off_origin_block():
    # cube indices from -2: the grid starts at the lowest cube index, and
    # the cube c sits at 2 (c - lo) + 1
    b = block.build_block(cubes=[(-2, 1), (-1, 1), (-1, 2)], spacing=0.5)
    cells = block.block_cells(b)
    assert cells.shape == (5, 5)
    assert np.flatnonzero(cells[1::2, 1::2]).tolist() == [0, 2, 3]
    # 3 squares, 10 edges, 8 vertices
    dims = _cell_dims(cells)
    assert [np.count_nonzero(cells & (dims == k)) for k in range(3)] == \
        [8, 10, 3]


def test_exit_set_unresolved_raises():
    # X = (x2, 0): the flux through the faces x1 = +-1 changes sign
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    fld = expr.parse_field(["x2", "0"], 2)
    tags = block.classify_boundary(b, fld)
    with pytest.raises(block.UnresolvedFacesError) as exc:
        block.exit_set(b, tags)
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
    assert all(block.OUTCOMES[o] in ("forward", "backward")
               for o in rep.outcome)


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
            assert not block_oracle.contains(b, p)
        assert block_oracle.contains(b, (1.0, -1.0))


# ---------------------------------------------------------------------------
# column containment, boundary samples and batched isolation

def _l_shape():
    # three cubes of an L in the x1-x2 plane, two layers deep: non-convex
    cubes = [(i, j, k) for i, j in ((0, 0), (1, 0), (0, 1)) for k in (0, 1)]
    return block.build_block(cubes=cubes, origin=(-0.5, -0.5, -0.5),
                             spacing=0.5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_samples_are_the_face_lattices(n):
    for b in (_l_shape(), block.build_block(box=[(0, 1)], spacing=0.5),
              block.build_block(box=[(-1, 1), (-1, 0.5)], spacing=0.5)):
        want = np.concatenate([block_oracle.face_lattice(b, f, n)
                               for f in block_oracle.boundary_faces(b)])
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
    tol = block.BOUNDARY_TOL
    for c in block_oracle.cube_set(b):
        lo, hi = block_oracle.cube_bounds(b, c)
        if all(lo[i] - tol <= p[i] <= hi[i] + tol for i in range(b.dimension)):
            return True
    return False


def test_contains_columns_equals_contains():
    # both forms against a scan of every cube, which shares nothing with
    # their candidate-cube shortcut
    rng = np.random.default_rng(11)
    tol = block.BOUNDARY_TOL
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
        assert [block_oracle.contains(b, p) for p in P] == want
        assert list(b.contains_columns(P.T)) == want


def _irregular_cubes(m, rng):
    """Half the cubes of a 5^m grid around the origin, with holes and
    cubes that touch only at edges or corners."""
    grid = np.array(list(itertools.product(range(-2, 3), repeat=m)))
    return [tuple(c) for c in grid[rng.random(len(grid)) < 0.5]] or \
        [(0,) * m]


def _assert_faces_and_tags_match_the_oracle(b, fld):
    # the face arrays in the oracle's order, and the tags of each face
    assert b.face_list() == block_oracle.boundary_faces(b)
    want = block_oracle.classify_boundary(b, fld)
    tags = block.classify_boundary(b, fld)
    assert tags.shape == b.faces[0].shape
    assert block_oracle.face_tags(b, tags) == want
    return want


def _shipped_systems():
    root = os.path.dirname(os.path.dirname(__file__))
    return sorted(glob.glob(os.path.join(root, "tests", "data", "*.json"))
                  + glob.glob(os.path.join(root, "benchmarks", "systems",
                                           "*.json")))


@pytest.mark.parametrize("path", _shipped_systems(), ids=os.path.basename)
def test_faces_and_tags_equal_the_oracle_on_shipped_systems(path):
    with open(path) as fh:
        doc = json.load(fh)
    if "continuation" in doc:  # it sweeps lam from 0
        doc["options"] = {"lam": 0.0}
    system = cli._fixed_system(doc)
    _assert_faces_and_tags_match_the_oracle(system.block, system.field)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_faces_and_tags_equal_the_oracle_on_irregular_cubes(m):
    rng = np.random.default_rng(40 + m)
    # a field that turns about the axes, so that some faces see both signs
    fld = expr.parse_field(
        [f"x{i + 1} - 2*x{(i + 1) % m + 1} + 0.1" for i in range(m)], m)
    for _ in range(3):
        cubes = _irregular_cubes(m, rng)
        b = block.build_block(cubes=cubes, origin=tuple(rng.uniform(-1, 1, m)),
                              spacing=0.3)
        tags = set(_assert_faces_and_tags_match_the_oracle(b, fld).values())
        assert block.EGRESS in tags and block.INGRESS in tags


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cube_list_is_sorted_and_merged(m):
    # the cube array is the sorted set of the listed cubes, however they
    # are listed, and the bounding box is that of the per-cube corners
    rng = np.random.default_rng(30 + m)
    cubes = _irregular_cubes(m, rng)
    listed = [cubes[i] for i in rng.integers(0, len(cubes), 3 * len(cubes))]
    b = block.build_block(cubes=listed + cubes, origin=(0.25,) * m,
                          spacing=0.3)
    assert b.cubes.dtype == np.int64
    assert b.cubes.tolist() == [list(c) for c in sorted(set(cubes))]
    corners = [block_oracle.cube_bounds(b, c) for c in cubes]
    assert b.bounding_box() == (
        [min(lo[i] for lo, _ in corners) for i in range(m)],
        [max(hi[i] for _, hi in corners) for i in range(m)])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_a_cube_list_gives_the_rows_of_np_unique(m):
    # random lists with repeats and negative indices, against np.unique
    # over the rows as the oracle
    rng = np.random.default_rng(70 + m)
    for n in (1, 2, 7, 60):
        idx = rng.integers(-3, 3, size=(n, m))
        b = block.build_block(cubes=idx.tolist(), spacing=0.5)
        assert np.array_equal(b.cubes, np.unique(idx, axis=0))


def test_a_box_over_the_grid_limit_is_a_block_error():
    # checked before any array of the box is allocated, as for cube lists
    with pytest.raises(block.BlockError, match="more than 4294967296"):
        block.build_block(box=[(0, 1)] * 3, spacing=1e-3)


@pytest.mark.parametrize("box,spacing,message", [
    ([(-1e308, 1e308)], 1,
     "box side [-1e+308, 1e+308] has too many cells to count at spacing 1"),
    ([(-1, 1), (0, 1)], 1e-320,
     "box side [-1, 1] has too many cells to count at spacing 1e-320"),
], ids=["side-overflows", "spacing-underflows"])
def test_a_box_whose_cell_count_overflows_is_a_block_error(box, spacing,
                                                          message):
    # (hi - lo) / spacing is inf, which no int holds
    with pytest.raises(block.BlockError) as err:
        block.build_block(box=box, spacing=spacing)
    assert str(err.value) == message


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_contains_columns_equals_the_oracle(m):
    rng = np.random.default_rng(20 + m)
    tol = block.BOUNDARY_TOL
    blocks = (block.build_block(box=[(-1, 1)] * m, spacing=0.5),
              block.build_block(cubes=_irregular_cubes(m, rng),
                                origin=tuple(rng.uniform(-1, 1, m)),
                                spacing=0.3))
    for b in blocks:
        lo, hi = b.bounding_box()
        P = rng.uniform(np.array(lo) - 0.5, np.array(hi) + 0.5,
                        size=(3000, m))
        # coordinates within 1e-12, 1e-10 and 1e-9 (the tolerance) of a
        # grid plane, on either side, and 2e-9 away
        o = np.asarray(b.origin)
        plane = o + b.spacing * np.round((P - o) / b.spacing)
        off = rng.choice([0.0, 1e-12, 1e-10, tol, 2 * tol], size=P.shape)
        off *= rng.choice([-1.0, 1.0], size=P.shape)
        P = np.where(rng.random(P.shape) < 0.7, plane + off, P)
        # not finite: whole columns and single coordinates
        bad = np.array([np.nan, np.inf, -np.inf])
        P[:3] = bad[:, None]
        P[3:9, 0] = np.tile(bad, 2)
        P[6:9, -1] = 0.0
        got = b.contains_columns(P.T)
        assert np.array_equal(got, block_oracle.contains_columns(b, P.T))
        assert got.any() and not got.all()
        assert not got[:6].any()


def test_batched_isolation_matches_single_orbits():
    b = _l_shape()
    # the plane x1 = 0, which holds boundary faces of the inner corner, is
    # all equilibria: its samples are trapped
    fld = expr.parse_field(
        ["x1", "-x1*x2 + 0.3*sin(x1)", "x1*x3*exp(x2)"], 3)
    rep = block.check_isolation(b, fld)

    def left(t, xprev, x):
        return ("out", t) if not block_oracle.contains(b, x) else None

    F = expr.compile_field(fld)
    budget = DEFAULT.cert_t_budget
    n = DEFAULT.isolation_samples_per_face
    tol = DEFAULT.margin_tol
    samples = [(f, p) for f in block_oracle.boundary_faces(b)
               for p in block_oracle.face_lattice(b, f, n)]
    assert np.array_equal(rep.samples, [p for _, p in samples])
    margins = []
    for (f, p), outcome in zip(samples, rep.outcome):
        # a sample whose outward flux has a strict sign leaves at once, by
        # that sign; the others by their oracle orbits
        v = [expr.evaluate(c, p) for c in fld.components]
        flux = v[f.axis] if f.side else -v[f.axis]
        if flux >= tol:
            want, t = "forward", 0.0
        elif flux <= -tol:
            want, t = "backward", 0.0
        else:
            want = "trapped"
            for direction, label in ((-1, "backward"), (1, "forward")):
                try:
                    _, sv = oracle.integrate_until(fld, p, left, budget,
                                                   direction=direction)
                except flow.IntegrationError:
                    sv = None
                if sv is not None:
                    want = label
                    break
            if want != "trapped":
                # the exit time of the same orbit as one column of the
                # compiled field: the oracle's sin and exp agree with
                # numpy's only to 1 ulp, and over the long steps of the
                # integrator its exit times drift from the batch's by up
                # to about 2e-9
                lc, run = flow.classify_limit(
                    F, p[:, None], (), b, budget, scale=None,
                    direction=-1 if want == "backward" else 1)
                assert lc.tag == (("exit",),)
                t = abs(run.t[0])
        assert block.OUTCOMES[outcome] == want
        if want != "trapped":
            margins.append(budget - t)
    outcomes = {block.OUTCOMES[o] for o in rep.outcome}
    assert outcomes == {"backward", "forward", "trapped"}
    assert not rep.verdict
    assert rep.failures == [tuple(p) for (_, p), o in zip(samples, rep.outcome)
                            if block.OUTCOMES[o] == "trapped"]
    assert rep.worst_margin == min(margins)


def test_only_the_tangent_samples_are_integrated(monkeypatch):
    # X = (x2, 0) is tangent to the faces of axis 1, where X . nu = 0, and
    # crosses those of axis 0, where no sample has x2 = 0
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "tangent.json")) as fh:
        system = cli._fixed_system(json.load(fh))
    b, n = system.block, DEFAULT.isolation_samples_per_face
    runs = []
    classify = flow.classify_limit

    def spy(F, x0, *args, **kwargs):
        runs.append(x0.T)
        return classify(F, x0, *args, **kwargs)

    monkeypatch.setattr(flow, "classify_limit", spy)
    rep = block.check_isolation(b, system.field)
    assert rep.verdict
    # the tangent samples flow along their face and leave backward through
    # the x1 = -1 side: one batch, of exactly the samples of axis 1
    tangent = np.repeat(b.faces[1] == 1, n)
    assert tangent.sum() == 16
    assert len(runs) == 1
    assert np.array_equal(runs[0], rep.samples[tangent])
    # the others leave at once, forward where x2 has the sign of the side
    forward = (np.repeat(b.faces[2], n)[~tangent] == 1) == \
        (rep.samples[~tangent, 1] > 0)
    assert np.array_equal(
        rep.outcome[~tangent],
        np.where(forward, block.OUTCOMES.index("forward"),
                 block.OUTCOMES.index("backward")))


@pytest.mark.parametrize("path", _shipped_systems(), ids=os.path.basename)
def test_isolation_equals_the_all_orbit_oracle_on_shipped_systems(path):
    # a continuation file is checked as continue checks it, on the field
    # bound at each value of its lam grid
    with open(path) as fh:
        doc = json.load(fh)
    if "continuation" in doc:
        system = cli._parse_system(doc)
        fields = [expr.bind_field(system.field, lv)
                  for lv in doc["continuation"]["grid"]]
    else:
        system = cli._fixed_system(doc)
        fields = [system.field]
    for fld in fields:
        rep = block.check_isolation(system.block, fld)
        want = block_oracle.check_isolation_by_orbits(system.block, fld)
        assert (rep.verdict, rep.failures) == (want.verdict, want.failures)
