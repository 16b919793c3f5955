"""Critical points, connection counting, and the Morse chain complex."""
import dataclasses
import logging
import math
import os

import numpy as np
import pytest

import sphere_oracle as oracle
from mcfhom import block, cli, conley, expr, flow, homalg, morse, sphere
from mcfhom.config import DEFAULT


def test_find_critical_points_double_well():
    f = expr.parse("(x1^2 - 1)^2 + x2^2", 2)
    b = block.build_block(box=[(-2, 2), (-2, 2)], spacing=0.5)
    crits = morse.find_critical_points(f, b)
    assert len(crits) == 3
    by_coords = sorted(crits, key=lambda c: c.coords)
    assert by_coords[0].coords == pytest.approx((-1.0, 0.0), abs=1e-8)
    assert by_coords[1].coords == pytest.approx((0.0, 0.0), abs=1e-8)
    assert by_coords[2].coords == pytest.approx((1.0, 0.0), abs=1e-8)
    assert [c.index for c in by_coords] == [0, 1, 0]
    saddle = by_coords[1]
    assert saddle.eigenvalues == pytest.approx((-4.0, 2.0))
    assert len(saddle.frame) == 1
    # unstable eigenvector of diag(-4, 2) is +-e1, sign-normalized to +e1
    assert np.allclose(saddle.frame[0], (1.0, 0.0))


def test_find_critical_points_perturbed_repeller():
    f = expr.parse("-(x1^4)/4 + 0.001*x1", 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    crits = morse.find_critical_points(f, b)
    assert len(crits) == 1
    assert crits[0].coords[0] == pytest.approx(0.001 ** (1 / 3), rel=1e-6)
    assert crits[0].index == 1


def test_find_critical_points_empty():
    f = expr.parse("-x1", 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    assert morse.find_critical_points(f, b) == []


def test_degenerate_critical_point_rejected():
    f = expr.parse("x1^4", 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    with pytest.raises(morse.DegenerateCriticalPointError):
        morse.find_critical_points(f, b)


def test_newton_takes_a_least_squares_step_at_a_singular_hessian():
    # the Hessian [[2 x1, 1], [1, 1]] is exactly singular at x1 = 1/2, which
    # makes a stacked solve over all three seeds raise; that seed reaches
    # the root (0, 0) only through its least-squares step
    f = expr.parse("x1^3/3 + x1*x2 + x2^2/2", 2)
    b = block.build_block(box=[(-2, 2), (-2, 2)], spacing=0.5)
    seeds = np.array([[0.5, 0.0], [1.5, -1.5], [-0.3, 0.2]]).T
    P, H = morse.newton(f, b, seeds, 1e-10, None, 1e-8)
    assert P.T == pytest.approx(np.array([[0.0, 0.0], [1.0, -1.0]]),
                                abs=1e-9)
    assert H == pytest.approx(np.array([[[0, 1], [1, 1]], [[2, 1], [1, 1]]]),
                              abs=1e-8)
    # every column steps as it would alone
    alone = [morse.newton(f, b, seeds[:, [j]], 1e-10, None, 1e-300)[0]
             for j in range(3)]
    assert np.array_equal(P[:, 0], alone[0][:, 0])
    assert np.array_equal(P[:, 1], alone[1][:, 0])


def test_newton_wraps_the_periodic_coordinate_across_the_seam():
    # f = x1^2/2 - cos(pi mu) on [-1, 1] x (R / 2Z): the Newton step from
    # mu = 1.9 goes past 2 and is wrapped to mu = 0.0034; from mu = 0.1 the
    # root is reached from below the seam, and both are the one minimum
    f = expr.parse("x1^2/2 - cos(3.141592653589793*x2)", 2)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    seeds = np.array([[0.0, 1.9], [0.0, 0.1]]).T
    for cols in ([0], [1], [0, 1]):
        P, _ = morse.newton(f, b, seeds[:, cols], 1e-10, 2.0, 1e-7)
        assert P.shape == (2, 1)
        assert 0.0 <= P[1, 0] < 2.0
        assert min(P[1, 0], 2.0 - P[1, 0]) < 1e-9
        if cols == [0]:
            assert P[1, 0] < 1.0  # wrapped, not left at 2 + 0.0034


def _double_well():
    f = expr.parse("(x1^2 - 1)^2 + x2^2", 2)
    b = block.build_block(box=[(-2, 2), (-2, 2)], spacing=0.5)
    return f, b, morse.find_critical_points(f, b)


def _double_well_complex(coeff="Z", seed=0):
    f, b, crits = _double_well()
    c, counts = morse.build_complex(f, b, crits, coeff=coeff, seed=seed)
    return c, counts, crits


def test_double_well_boundary_matrix():
    c, counts, crits = _double_well_complex()
    assert c.dims == [2, 1]
    col = [row[0] for row in c.boundary(1)]
    assert sorted(col) == [-1, 1]
    # one witness per connection, opposite signs
    nonzero = [cc for cc in counts if cc.n != 0]
    assert len(nonzero) == 2
    for cc in nonzero:
        assert len(cc.witnesses) == 1
        assert cc.n == sum(w.sign for w in cc.witnesses)
    assert homalg.verify_d_squared(c) is None


def test_double_well_witness_f_values_decrease():
    c, counts, crits = _double_well_complex()
    by_id = {cp.ident: cp for cp in crits}
    for cc in counts:
        if cc.n:
            assert by_id[cc.source].f_value > by_id[cc.target].f_value


def test_mod2_mode_matches_integer_reduction():
    cz, _, _ = _double_well_complex(coeff="Z")
    c2, _, _ = _double_well_complex(coeff="Z2")
    assert cz.dims == c2.dims
    for k in range(1, cz.top + 1):
        for ra, rb in zip(cz.boundary(k), c2.boundary(k)):
            assert [v % 2 for v in ra] == [v % 2 for v in rb]


def test_no_counts_without_lower_index_target():
    f = expr.parse("-(x1^4)/4 + 0.001*x1", 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    crits = morse.find_critical_points(f, b)
    c, counts = morse.build_complex(f, b, crits)
    assert c.dims == [0, 1]
    assert counts == []
    h = homalg.homology(c)
    assert h.describe() == "H_1 = Z"


def test_single_minimum_complex():
    f = expr.parse("x1^2 + x2^2", 2)
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    crits = morse.find_critical_points(f, b)
    c, counts = morse.build_complex(f, b, crits)
    assert c.dims == [1]
    assert homalg.homology(c).describe() == "H_0 = Z"


def test_count_connections_requires_adjacent_index():
    _, _, crits = _double_well_complex()
    mins = [c for c in crits if c.index == 0]
    with pytest.raises(morse.MorseError):
        morse.count_connections(mins[0], mins[1], finder=None)


def test_build_complex_flags_missing_orbits():
    # a hand-corrupted finder that drops one connection breaks d^2 = 0 only
    # for longer complexes; here we check the verifier surface directly
    c = homalg.ChainComplex([1, 1, 1], {1: [[1]], 2: [[1]]})
    assert homalg.verify_d_squared(c) == (1, 0, 0, 1)


def test_connection_counts_independent_of_seed():
    cols = set()
    for seed in range(3):
        c, _, _ = _double_well_complex(seed=seed)
        cols.add(tuple(row[0] for row in c.boundary(1)))
    # sign pattern is canonical given the frame normalization
    assert len(cols) == 1


# ---------------------------------------------------------------------------
# batched labelling of the direction sphere

def _index_two_source(f="(x1^2 - 1)^2 - x2^2", box=2.0):
    f = expr.parse(f, 2)
    b = block.build_block(box=[(-box, box)] * 2, spacing=0.5)
    return f, b, morse.find_critical_points(f, b)


# The product double well: index 2 at the origin, index 1 at the four
# points (+-1, 0), (0, +-1), index 0 at (+-1, +-1).  The basins of the
# minima meet on the source's unstable circle, so the search refines
# towards the four saddle connections level by level.  Coarse tolerances
# keep the orbits short.
_COARSE = dataclasses.replace(
    DEFAULT, rtol=1e-6, atol=1e-9, n_dir_seeds=8, dir_tol=1e-4,
    capture_radius=1e-3, speed_tol_factor=1e-3, delta_u=1e-2)


def _product_double_well():
    return _index_two_source("(x1^2 - 1)^2 + (x2^2 - 1)^2", box=1.5)


def _sphere_counts(f, b, crits, tols=DEFAULT, seed=0):
    """The connection counts of ``morse.build_complex``, with every source
    searched on its unstable direction sphere, as the search of 1 < k < m
    does; in 2-D ``build_complex`` itself counts on zero-spheres only."""
    finder = morse.ConnectionFinder(expr.negative_gradient(f, b.dimension),
                                    b, crits, tols=tols, seed=seed)
    finder.sphere_search([x for x in crits if x.index])
    return [morse.count_connections(x, y, finder) for x in crits
            for y in crits if x.index == y.index + 1]


def test_batched_labels_equal_one_column_labels(monkeypatch):
    f, b, crits = _product_double_well()
    assert sorted(c.index for c in crits) == [0] * 4 + [1] * 4 + [2]
    tols = _COARSE
    batched = _sphere_counts(f, b, crits, tols=tols, seed=3)
    _, complex_batched = morse.build_complex(f, b, crits, tols=tols, seed=3)
    source = next(c.ident for c in crits if c.index == 2)
    from_source = [cc for cc in batched if cc.source == source]
    assert sorted(cc.n for cc in from_source) == [-1, -1, 1, 1]

    classify = flow.classify_limit
    widths = []

    def one_column_at_a_time(gradfield, X0, *args, direction=1, **kwargs):
        widths.append(X0.shape[1])
        signs = np.broadcast_to(direction, X0.shape[1:])
        parts = [classify(gradfield, X0[:, j:j + 1], *args,
                          direction=signs[j], **kwargs)
                 for j in range(X0.shape[1])]
        lc = flow.LimitClass(*(sum((getattr(p[0], fd.name) for p in parts),
                                   ()) for fd in dataclasses.fields(
                                       flow.LimitClass)))
        run = flow._Run(*(np.concatenate([getattr(p[1], fd.name)
                                          for p in parts], axis=-1)
                          for fd in dataclasses.fields(flow._Run)))
        return lc, run

    monkeypatch.setattr(flow, "classify_limit", one_column_at_a_time)
    single = _sphere_counts(f, b, crits, tols=tols, seed=3)
    assert max(widths) > 1
    assert single == batched  # counts and witnesses, bit for bit
    del widths[:]
    _, complex_single = morse.build_complex(f, b, crits, tols=tols, seed=3)
    assert max(widths) > 1
    assert complex_single == complex_batched


def test_budget_hits_are_counted_and_logged(caplog):
    # index 2 at the origin, index 1 at (+-1, 0, 0): in 3-D the origin is
    # searched forward on its unstable circle
    f = expr.parse("(x1^2 - 1)^2 - x2^2 + x3^2", 3)
    b = block.build_block(box=[(-2, 2)] * 3, spacing=0.5)
    crits = morse.find_critical_points(f, b)
    assert sorted(c.index for c in crits) == [1, 1, 2]
    finder = morse.ConnectionFinder(
        expr.negative_gradient(f, 3), b, crits,
        tols=dataclasses.replace(DEFAULT, t_budget=1e-3))
    source = next(c for c in crits if c.index == 2)
    with caplog.at_level(logging.WARNING, logger="mcfhom.morse"):
        assert finder.witnesses_for(source.ident) == {}
    # every direction of the initial circle is still on its way
    assert finder.budget_hits == DEFAULT.n_dir_seeds
    records = [r for r in caplog.records if r.name == "mcfhom.morse"]
    assert len(records) == 1 and records[0].levelno == logging.WARNING
    assert f"{DEFAULT.n_dir_seeds} directions" in records[0].getMessage()


def _quarter_labels(crits):
    """A stub labelling that cuts the unstable circle of the product double
    well's source into four basins of minima, with a 2e-9 rad window to a
    saddle at each cut, so refinement runs down to dir_tol and several
    directions of one window become witnesses."""
    saddles = [c.ident for c in crits if c.index == 1]
    minima = [c.ident for c in crits if c.index == 0]
    quarter = math.pi / 2

    def label(d):
        a = (math.atan2(d[1], d[0]) - 0.3) % (2 * math.pi)
        q = int(a // quarter)
        if min(a - q * quarter, (q + 1) * quarter - a) < 1e-9:
            return ("crit", saddles[round(a / quarter) % 4]), a
        return ("crit", minima[q]), a

    return label


def _label_directions(monkeypatch, finder, source, label):
    """Make ``finder._classify`` label each direction of the unstable
    sphere of ``source`` by ``label``: its seed point is the direction
    itself.  Returns the list of batches, each a list of directions."""
    batches = []

    def seed_point(x, d):
        assert x is source
        return d

    def classify(seeds):
        batches.append([d for d, _ in seeds])
        return [label(d) for d, _ in seeds]

    monkeypatch.setattr(finder, "_seed_point", seed_point)
    monkeypatch.setattr(finder, "_classify", classify)
    return batches


def _stub_search(monkeypatch, f, b, crits, label):
    """Search the index-2 source with ``_classify`` replaced by ``label``
    and ``_collect`` by a recorder.  Returns the labelled direction keys,
    the batch sizes, the witnesses handed to ``_collect`` and the
    finder."""
    source = next(c for c in crits if c.index == 2)
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 2), b, crits)
    batches = _label_directions(monkeypatch, finder, source, label)
    got = []
    monkeypatch.setattr(finder, "_collect", lambda x, found: got.extend(
        (tuple(d), tgt, t) for d, tgt, t in found) or ())
    finder.sphere_search([source])
    labelled = [sphere.direction_key(d) for dirs in batches for d in dirs]
    return labelled, [len(dirs) for dirs in batches], got, finder


def _depth_first(finder, label):
    """The labels of the one-source depth-first search without look-ahead
    on the triangulated circle of ``sphere_oracle``, {direction key:
    (label, time)}, and its witnesses to saddles in order of first
    touch."""
    want, labels = [], {}

    def label_of(d):
        key = sphere.direction_key(d)
        if key not in labels:
            labels[key] = label(d)
            lab, t = labels[key]
            if lab[1] in finder.by_id and finder.by_id[lab[1]].index == 1:
                want.append((tuple(d), lab[1], t))
        return labels[key][0]

    work = list(oracle.initial_simplices(2, DEFAULT.n_dir_seeds,
                                         finder._rotation(2)))
    for sp in work:
        for v in sp:
            label_of(v)
    while work:
        sp = work.pop()
        if len({label_of(v) for v in sp}) < 2:
            continue
        if oracle.diameter(sp) < DEFAULT.dir_tol:
            label_of(oracle.midpoint(sp))
            continue
        work.extend(oracle.split(sp))
    return labels, want


@pytest.mark.parametrize("n", [64, 128])
def test_arcs_equal_the_triangulated_circle_bit_for_bit(n):
    # the quarter arcs, halved and rotated, and two levels of their halves,
    # chords and midpoints, against the cross-polytope of sphere_oracle
    f, b, crits = _product_double_well()
    gradfield = expr.negative_gradient(f, 2)

    def same(new, old):
        assert [[v.tobytes() for v in sp] for sp in new] == \
            [[v.tobytes() for v in sp] for sp in old]

    same(sphere.initial_simplices(1, n, np.eye(1)),
         oracle.initial_simplices(1, n, np.eye(1)))
    for seed in range(6):
        rot = morse.ConnectionFinder(gradfield, b, crits,
                                     seed=seed)._rotation(2)
        arcs = sphere.initial_simplices(2, n, rot)
        assert len(arcs) == n
        same(arcs, oracle.initial_simplices(2, n, rot))
        for _ in range(2):
            for arc in arcs:
                assert sphere.diameter(arc) == oracle.diameter(arc)
                assert sphere._midpoint(arc).tobytes() == \
                    oracle.midpoint(arc).tobytes()
            halves = [h for arc in arcs for h in sphere.split(arc)]
            same(halves, [h for arc in arcs for h in oracle.split(arc)])
            arcs = halves


def test_witnesses_keep_depth_first_order(monkeypatch):
    # The search labels ahead of its breadth-first walk: it must label
    # every direction the old depth-first search labelled, none twice, in
    # fewer batches than a walk without look-ahead, and hand _collect the
    # witnesses in depth-first order of first touch.
    f, b, crits = _product_double_well()
    label = _quarter_labels(crits)
    labelled, calls, got, finder = _stub_search(monkeypatch, f, b, crits,
                                                label)
    with monkeypatch.context() as mp:
        mp.setattr(sphere, "LOOK_AHEAD", 0)
        _, level_calls, level_got, _ = _stub_search(mp, f, b, crits, label)
    assert len(calls) < len(level_calls)
    assert level_got == got

    labels, want = _depth_first(finder, label)
    assert set(labelled) >= set(labels)
    assert len(set(labelled)) == len(labelled)
    assert len(level_calls) < len(labels) / 4
    assert len(want) > 2 * sum(c.index == 1 for c in crits)
    assert got == want


def test_failed_orbits_stop_the_search_only_where_it_reads_them(
        monkeypatch):
    # Every look-ahead direction outside the depth-first search fails: the
    # search still hands _collect the depth-first witnesses.  A failure of
    # a direction that the depth-first search labelled is raised.
    f, b, crits = _product_double_well()
    label = _quarter_labels(crits)
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 2), b, crits)
    labels, want = _depth_first(finder, label)

    def failing(fails):
        def stub(d):
            if fails(sphere.direction_key(d)):
                return ("failed", flow.StepUnderflowError(0.5, d)), 0.5
            return label(d)
        return stub

    labelled, _, got, _ = _stub_search(
        monkeypatch, f, b, crits, failing(lambda key: key not in labels))
    assert len(set(labelled) - set(labels)) > 100
    assert got == want
    for d, _, _ in (want[0], want[-1]):
        with pytest.raises(flow.StepUnderflowError):
            _stub_search(monkeypatch, f, b, crits, failing(
                lambda key: key == sphere.direction_key(np.array(d))))


def test_search_raises_failures_in_source_order(monkeypatch):
    # Two saddles of the product double well: every orbit of the second
    # fails.  Searched first, or after a first that signs cleanly, its
    # failure is raised; after a first whose signing fails, that error is.
    f, b, crits = _product_double_well()
    first, second = [c for c in crits if c.index == 1][:2]

    def search(sources, tols):
        finder = morse.ConnectionFinder(expr.negative_gradient(f, 2), b,
                                        crits, tols=tols, seed=3)
        seed_point, classify = finder._seed_point, finder._classify
        of_second = set()

        def recorded(x, d):
            p = seed_point(x, d)
            if x is second:
                of_second.add(p.tobytes())
            return p

        def second_fails(seeds):
            return [(("failed", flow.IntegrationError("injected")), 0.0)
                    if p.tobytes() in of_second else label
                    for (p, _), label in zip(seeds, classify(seeds))]

        monkeypatch.setattr(finder, "_seed_point", recorded)
        monkeypatch.setattr(finder, "_classify", second_fails)
        finder.sphere_search(sources)

    unsigned = dataclasses.replace(_COARSE, det_tol=10.0)
    with pytest.raises(flow.IntegrationError, match="injected"):
        search([first, second], _COARSE)
    with pytest.raises(morse.OrientationError, match="unresolved"):
        search([first, second], unsigned)
    with pytest.raises(flow.IntegrationError, match="injected"):
        search([second, first], unsigned)


def test_look_ahead_keeps_counts_and_witnesses(monkeypatch):
    f, b, crits = _product_double_well()
    ahead = _sphere_counts(f, b, crits, tols=_COARSE, seed=3)
    monkeypatch.setattr(sphere, "LOOK_AHEAD", 0)
    level = _sphere_counts(f, b, crits, tols=_COARSE, seed=3)
    assert sorted(cc.n for cc in ahead if cc.n) == [-1] * 6 + [1] * 6
    assert ahead == level  # counts and witnesses, bit for bit


def test_look_ahead_orbits_that_fail_leave_the_complex_unchanged(
        monkeypatch):
    # every orbit that the search without look-ahead does not start fails
    f, b, crits = _product_double_well()
    classify = flow.classify_limit
    started = set()

    def record(gradfield, X0, *args, **kwargs):
        started.update(col.tobytes() for col in X0.T)
        return classify(gradfield, X0, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(sphere, "LOOK_AHEAD", 0)
        mp.setattr(flow, "classify_limit", record)
        level = _sphere_counts(f, b, crits, tols=_COARSE, seed=3)
    failed = []

    def fail_the_rest(gradfield, X0, *args, **kwargs):
        lc, run = classify(gradfield, X0, *args, **kwargs)
        new = [col.tobytes() not in started for col in X0.T]
        failed.extend(j for j, fails in enumerate(new) if fails)
        return flow.LimitClass(
            tuple("failed" if fails else tag
                  for fails, tag in zip(new, lc.tag)),
            tuple(-1 if fails else i for fails, i in zip(new, lc.crit_id)),
            tuple(flow.StepUnderflowError(0.5, X0[:, j]) if fails else err
                  for j, (fails, err) in enumerate(zip(new, lc.errors)))), run

    monkeypatch.setattr(flow, "classify_limit", fail_the_rest)
    # at the package's depth, and at depth 4, which starts more of them
    for depth, least in ((sphere.LOOK_AHEAD, 50), (4, 100)):
        failed.clear()
        monkeypatch.setattr(sphere, "LOOK_AHEAD", depth)
        ahead = _sphere_counts(f, b, crits, tols=_COARSE, seed=3)
        assert len(failed) > least
        assert ahead == level  # counts and witnesses, bit for bit


def test_lockstep_search_equals_per_source_searches(monkeypatch):
    f, b, crits = _product_double_well()
    batches = []
    classify = flow.classify_limit

    def counted(gradfield, X0, *args, **kwargs):
        batches.append(X0.shape[1])
        return classify(gradfield, X0, *args, **kwargs)

    monkeypatch.setattr(flow, "classify_limit", counted)
    counts = _sphere_counts(f, b, crits, tols=_COARSE, seed=3)
    lockstep = len(batches)
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 2), b, crits,
                                    tols=_COARSE, seed=3)
    for x in crits:
        if x.index:
            finder.sphere_search([x])
    assert lockstep < len(batches) - lockstep
    assert counts
    for cc in counts:
        assert finder.witnesses_for(cc.source).get(cc.target, []) == \
            cc.witnesses


def test_signing_raises_for_the_first_failing_witness(monkeypatch):
    # the saddle of the double well has one witness to each minimum; the
    # transport is made to fail on the second.  When the first witness
    # fails its orientation test, that error comes first.
    f, b, crits = _double_well()
    transport = flow.transport_frame

    def second_fails(fieldd, X0, *args, **kwargs):
        out = transport(fieldd, X0, *args, **kwargs)
        if X0.shape[1] > 1:
            err = flow.FrameDegenerateError("injected")
            err.column = 1
            raise err
        return out

    saddle = next(c for c in crits if c.index == 1)

    def search(tols):
        morse.ConnectionFinder(expr.negative_gradient(f, 2), b, crits,
                               tols=tols).sphere_search([saddle])

    monkeypatch.setattr(flow, "transport_frame", second_fails)
    with pytest.raises(flow.FrameDegenerateError, match="injected"):
        search(DEFAULT)
    with pytest.raises(morse.OrientationError, match="unresolved"):
        search(dataclasses.replace(DEFAULT, det_tol=10.0))


def test_collect_labels_the_midpoints_of_the_sequential_clustering(
        monkeypatch):
    # Witness directions on the source's unstable circle, to two saddles.
    # A midpoint is labelled by the angle windows below: inside a window of
    # the target it joins the two directions into one orbit; elsewhere it
    # exits, or hits the time budget, and they stay apart.
    f, b, crits = _product_double_well()
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 2), b, crits)
    source = next(c for c in crits if c.index == 2)
    t1, t2 = [c.ident for c in crits if c.index == 1][:2]
    windows = {t1: [(0.0, 0.5), (1.0, 1.2), (2.0, 2.6)],
               t2: [(3.5, 4.0), (4.5, 5.2)], "budget": [(1.4, 1.7)]}

    def label(d):
        a = math.atan2(d[1], d[0]) % (2 * math.pi)
        for tgt, ws in windows.items():
            if any(lo <= a <= hi for lo, hi in ws):
                return (("budget",) if tgt == "budget" else ("crit", tgt)), a
        return ("exit",), a

    angles = [(0.1, t1), (3.6, t2), (1.1, t1), (0.4, t1), (4.6, t2),
              (2.1, t1), (3.9, t2), (1.15, t1), (5.1, t2), (2.5, t1),
              (0.2, t1), (3.55, t2), (2.9, t1)]
    found = [(np.array([math.cos(a), math.sin(a)]), tgt, a)
             for a, tgt in angles]

    # the sequential clustering, one midpoint label at a time
    cluster_tol = max(100 * DEFAULT.dir_tol, 1e-8)
    want, one_by_one, hits = [], 0, 0
    for tgt in (t1, t2):
        reps = []
        for d, tg, t in found:
            if tg != tgt:
                continue
            for rd, _ in reps:
                if np.linalg.norm(d - rd) < cluster_tol:
                    break
                mid = (d + rd) / np.linalg.norm(d + rd)
                one_by_one += 1
                lab = label(mid)[0]
                hits += lab == ("budget",)
                if lab == ("crit", tgt):
                    break
            else:
                reps.append((d, t))
        want.append((tgt, [(tuple(d), t) for d, t in reps]))
    assert 2 <= len(want[0][1]) < 7 and 2 <= len(want[1][1]) < 5
    assert hits

    stub = [label]
    calls = _label_directions(monkeypatch, finder, source,
                              lambda d: stub[0](d))
    got = [(tgt, [(tuple(d), t) for d, t in reps])
           for tgt, reps in finder._collect(source, found)]
    assert got == want
    assert finder.budget_hits == hits
    assert len(calls) < one_by_one

    # a failed midpoint label is raised where the clustering reads it,
    # after the targets clustered before it
    def failing(d):
        lab, a = label(d)
        if abs(a - 4.1) < 1e-9:  # the midpoint of 3.6 and 4.6
            return ("failed", flow.StepUnderflowError(0.5, d)), a
        return lab, a

    stub[0] = failing
    clusters = finder._collect(source, found)
    assert next(clusters)[0] == t1
    with pytest.raises(flow.StepUnderflowError):
        next(clusters)


# ---------------------------------------------------------------------------
# connections counted on a zero-sphere

def _product_well_3d():
    # index 3 at the origin, index 2 at the six points with one coordinate
    # +-1, index 1 at the twelve with two, index 0 at the eight corners
    f = expr.parse("(x1^2 - 1)^2 + (x2^2 - 1)^2 + (x3^2 - 1)^2", 3)
    b = block.build_block(box=[(-2, 2)] * 3, spacing=0.5)
    return f, b, morse.find_critical_points(f, b)


def test_zero_sphere_budget_hit_raises():
    # forward on the unstable S^0 of the double well's saddle, and backward
    # from the stable S^0 of the first index-1 target of an index-2 source
    short = dataclasses.replace(DEFAULT, t_budget=1e-3)
    f, b, crits = _double_well()
    saddle = next(c for c in crits if c.index == 1)
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 2), b, crits,
                                    tols=short)
    with pytest.raises(morse.MorseError, match=(
            rf"critical point {saddle.ident} at .* seed \+1 of its "
            r"unstable S\^0 hit the time budget")):
        finder.witnesses_for(saddle.ident)
    f, b, crits = _index_two_source()
    source = next(c for c in crits if c.index == 2)
    target = next(c for c in crits if c.index == 1)
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 2), b, crits,
                                    tols=short)
    with pytest.raises(morse.MorseError, match=(
            rf"critical point {target.ident} at .* seed \+1 of its "
            r"stable S\^0 hit the time budget")):
        finder.witnesses_for(source.ident)
    assert finder.budget_hits == 0


def test_zero_spheres_of_one_search_share_one_batch(monkeypatch):
    # the product double well in 2-D: the four index-1 saddles are searched
    # forward on their unstable S^0, and the source at the origin backward
    # from their stable S^0, all in one batch of 2 (4 + 4) orbits
    f, b, crits = _product_double_well()
    gradfield = expr.negative_gradient(f, 2)
    ones = [c for c in crits if c.index == 1]
    top = next(c for c in crits if c.index == 2)
    classify = flow.classify_limit
    widths = []

    def counted(gradfield, X0, *args, **kwargs):
        widths.append(X0.shape[1])
        return classify(gradfield, X0, *args, **kwargs)

    monkeypatch.setattr(flow, "classify_limit", counted)
    monkeypatch.setattr(sphere, "Sphere", None)
    one = morse.ConnectionFinder(gradfield, b, crits, tols=_COARSE)
    one.search(ones + [top])
    assert widths == [16]
    apart = morse.ConnectionFinder(gradfield, b, crits, tols=_COARSE)
    apart.search(ones)
    apart.search([top])
    assert widths == [16, 8, 8]
    for x in ones + [top]:
        assert one.witnesses_for(x.ident) == apart.witnesses_for(x.ident)
    assert sum(len(ws) for ws in one.witnesses_for(top.ident).values()) == 4

    # in one batch the forward orbits are still read first: with a short
    # budget every orbit hits it, and the first one of the first index-1
    # source is the one raised; the batch holds its two orbits and the
    # eight from the stable S^0 of every index-1 target
    short = dataclasses.replace(_COARSE, t_budget=1e-3)
    finder = morse.ConnectionFinder(gradfield, b, crits, tols=short)
    with pytest.raises(morse.MorseError, match=(
            rf"critical point {ones[0].ident} at .* seed \+1 of its "
            r"unstable S\^0 hit the time budget")):
        finder.search([top, ones[0]])
    assert widths[3:] == [10]


def _first_orbit_captured_at(monkeypatch, ident):
    classify = flow.classify_limit

    def stub(*args, **kwargs):
        lc, run = classify(*args, **kwargs)
        return dataclasses.replace(
            lc, tag=("converged",) + lc.tag[1:],
            crit_id=(ident,) + lc.crit_id[1:]), run

    monkeypatch.setattr(flow, "classify_limit", stub)


def test_zero_sphere_capture_outside_the_adjacent_index_raises(monkeypatch):
    # the first orbit of a zero-sphere is made to end at an index-1 point:
    # a saddle-to-saddle connection, which is not Morse-Smale
    f, b, crits = _double_well()
    saddle = next(c for c in crits if c.index == 1)
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 2), b, crits)
    with monkeypatch.context() as mp:
        _first_orbit_captured_at(mp, saddle.ident)
        with pytest.raises(morse.MorseError, match=(
                rf"critical point {saddle.ident} at .* unstable S\^0 is "
                rf"captured at critical point {saddle.ident} of index 1: "
                r"the connection is not Morse-Smale")):
            finder.witnesses_for(saddle.ident)
    f, b, crits = _index_two_source()
    source = next(c for c in crits if c.index == 2)
    first, other = [c for c in crits if c.index == 1]
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 2), b, crits)
    _first_orbit_captured_at(monkeypatch, other.ident)
    with pytest.raises(morse.MorseError, match=(
            rf"critical point {first.ident} at .* stable S\^0 is captured "
            rf"at critical point {other.ident} of index 1")):
        finder.witnesses_for(source.ident)


def test_closed_form_signs_equal_transported_signs():
    # every index-1 source of the double well and of the 3-D product well:
    # the witnesses of the zero-sphere search, with the sign of the
    # direction coefficient, are those of the sphere search, signed by
    # frame transport, bit for bit
    for f, b, crits in (_double_well(), _product_well_3d()):
        ones = [c for c in crits if c.index == 1]
        gradfield = expr.negative_gradient(f, b.dimension)
        closed = morse.ConnectionFinder(gradfield, b, crits)
        closed.search(ones)
        transported = morse.ConnectionFinder(gradfield, b, crits)
        transported.sphere_search(ones)
        signs = []
        for x in ones:
            assert closed.witnesses_for(x.ident) == \
                transported.witnesses_for(x.ident)
            signs.extend(w.sign for ws in closed.witnesses_for(
                x.ident).values() for w in ws)
        assert sorted(signs) == [-1] * len(ones) + [1] * len(ones)


def test_backward_search_finds_the_top_connections_of_the_3d_product_well(
        monkeypatch):
    # the stable S^0 of each index-2 saddle, 12 orbits of +grad f in one
    # batch, and no direction sphere: one orbit per saddle reaches the top
    f, b, crits = _product_well_3d()
    assert sorted(c.index for c in crits) == \
        [0] * 8 + [1] * 12 + [2] * 6 + [3]
    top = next(c for c in crits if c.index == 3)
    classify = flow.classify_limit
    widths = []

    def counted(gradfield, X0, *args, **kwargs):
        widths.append(X0.shape[1])
        return classify(gradfield, X0, *args, **kwargs)

    monkeypatch.setattr(flow, "classify_limit", counted)
    monkeypatch.setattr(sphere, "Sphere", None)
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 3), b, crits)
    ws = finder.witnesses_for(top.ident)
    assert widths == [12]
    assert sorted(ws) == sorted(c.ident for c in crits if c.index == 2)
    for items in ws.values():
        assert len(items) == 1 and abs(items[0].sign) == 1
        assert items[0].direction in ((1.0,), (-1.0,))


def test_sphere_search_refuses_the_unstable_s2_before_any_orbit(
        monkeypatch):
    # the sources of the 3-D product well in ident order: the spheres of
    # those before the index-3 source are built, and it raises before any
    # of them runs an orbit, naming the point, its index and its S^2
    f, b, crits = _product_well_3d()
    top = next(c for c in crits if c.index == 3)

    def no_orbit(*args, **kwargs):
        raise AssertionError("an orbit ran")

    monkeypatch.setattr(flow, "classify_limit", no_orbit)
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 3), b, crits)
    assert any(c.index and c.ident < top.ident for c in crits)
    with pytest.raises(morse.MorseError, match=(
            rf"critical point {top.ident} at .* has index 3: .* unstable "
            r"sphere S\^2 .* only S\^0 and S\^1 are searched")):
        finder.sphere_search([c for c in crits if c.index])


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_zero_sphere_counts_equal_sphere_counts_on_connections(seed):
    # the benchmark system `connections` through the pipeline: the counts
    # of build_complex (zero-spheres only) against the forward sphere
    # search of every source, equal in n and witness count; the index-1
    # witnesses are equal bit for bit
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "benchmarks", "systems", "connections.json")
    fieldd, b, lyap, s_decl, eps, pert = cli._fixed_system(
        cli.load_system(path))
    res = conley.compute_HI(fieldd, b, lyap, s_decl, seed=seed,
                            epsilon=eps, perturbation=pert)
    crits = res.quadruple.crits
    finder = morse.ConnectionFinder(
        expr.negative_gradient(res.quadruple.f, 2), b, crits, seed=seed)
    finder.sphere_search([x for x in crits if x.index])
    source = next(c for c in crits if c.index == 2)
    assert sum(len(cc.witnesses) for cc in res.counts
               if cc.source == source.ident) == 4
    for cc in res.counts:
        forward = finder.witnesses_for(cc.source).get(cc.target, [])
        assert (cc.n, len(cc.witnesses)) == \
            (sum(w.sign for w in forward), len(forward))
        if cc.source != source.ident:
            assert cc.witnesses == forward
