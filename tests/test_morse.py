"""Critical points, connection counting, and the Morse chain complex."""
import dataclasses
import itertools
import math
import os

import numpy as np
import pytest

import algebra_oracle
import block_oracle
import flow_oracle
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
    P, H = morse.newton(f, b, seeds, 1e-10, 1e-8)
    assert P.T == pytest.approx(np.array([[0.0, 0.0], [1.0, -1.0]]),
                                abs=1e-9)
    assert H == pytest.approx(np.array([[[0, 1], [1, 1]], [[2, 1], [1, 1]]]),
                              abs=1e-8)
    # every column steps as it would alone
    alone = [morse.newton(f, b, seeds[:, [j]], 1e-10, 1e-300)[0]
             for j in range(3)]
    assert np.array_equal(P[:, 0], alone[0][:, 0])
    assert np.array_equal(P[:, 1], alone[1][:, 0])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_newton_finds_every_critical_point_of_a_product_well(m):
    # sum of (x_i^2 - 1)^2: the 3^m points of {-1, 0, 1}^m, each once,
    # with the Hessian diag(8 or -4) there
    f = expr.parse(" + ".join(f"(x{i + 1}^2 - 1)^2" for i in range(m)), m)
    b = block.build_block(box=[(-2, 2)] * m, spacing=0.5)
    P, H = morse.newton(f, b, b.lattice(7).T, 1e-10, 1e-8)
    assert P.shape == (m, 3 ** m) and H.shape == (3 ** m, m, m)
    R = np.round(P)
    assert np.abs(P - R).max() < 1e-9
    assert sorted(map(tuple, R.T.tolist())) == \
        sorted(itertools.product((-1.0, 0.0, 1.0), repeat=m))
    want = np.array([np.diag(np.where(r == 0.0, -4.0, 8.0)) for r in R.T])
    assert H == pytest.approx(want, abs=1e-8)


def test_newton_drops_a_root_outside_the_block():
    # both seeds converge to (3, 0), inside the widened box but outside
    # the block
    f = expr.parse("(x1 - 3)^2 + x2^2", 2)
    b = block.build_block(box=[(-2, 2), (-2, 2)], spacing=0.5)
    P, H = morse.newton(f, b, np.array([[0.0, 0.0], [1.0, 1.0]]).T,
                        1e-10, 1e-8)
    assert P.shape == (2, 0) and H.shape == (0, 2, 2)


def test_newton_without_seeds_finds_nothing():
    f = expr.parse("(x1 - 3)^2 + x2^2", 2)
    b = block.build_block(box=[(-2, 2), (-2, 2)], spacing=0.5)
    P, H = morse.newton(f, b, np.zeros((2, 0)), 1e-10, 1e-8)
    assert P.shape == (2, 0) and H.shape == (0, 2, 2)


def test_newton_keeps_the_first_of_nearby_roots_in_seed_order():
    # every seed reaches the root 1 of x1^3/3 - x1 on [0, 2]; the points
    # within the radius of the first are dropped
    f = expr.parse("x1^3/3 - x1", 1)
    b = block.build_block(box=[(0, 2)], spacing=0.5)
    seeds = np.array([[0.5, 1.5, 1.0, 2.0]])
    P, H = morse.newton(f, b, seeds, 1e-10, 1e-8)
    first = morse.newton(f, b, seeds[:, :1], 1e-10, 1e-8)[0]
    assert P.shape == (1, 1) and np.array_equal(P, first)
    assert P[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert H == pytest.approx(np.array([[[2.0]]]))


def _double_well():
    f = expr.parse("(x1^2 - 1)^2 + x2^2", 2)
    b = block.build_block(box=[(-2, 2), (-2, 2)], spacing=0.5)
    return f, b, morse.find_critical_points(f, b)


def _double_well_complex(seed=0):
    f, b, crits = _double_well()
    c, counts = morse.build_complex(f, b, crits, seed=seed)
    return c, counts, crits


def test_double_well_boundary_matrix():
    c, counts, crits = _double_well_complex()
    assert c.dims == [2, 1]
    col = [row[0] for row in algebra_oracle.dense(c, 1)]
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
    # the Z/2 homology of the signed complex is that of its entries mod 2
    c, _, _ = _double_well_complex()
    ranks = [0] + [algebra_oracle.rank_mod2(algebra_oracle.dense(c, k))
                   for k in range(1, c.top + 1)] + [0]
    assert homalg.homology(c, coeff="Z2").betti == \
        [n - ranks[k] - ranks[k + 1] for k, n in enumerate(c.dims)]


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
        morse.count_connections(mins[0], mins[1], {})


def test_build_complex_flags_missing_orbits():
    # a hand-corrupted finder that drops one connection breaks d^2 = 0 only
    # for longer complexes; here we check the verifier surface directly
    c = algebra_oracle.complex_of([1, 1, 1], {1: [[1]], 2: [[1]]})
    assert homalg.verify_d_squared(c) == (1, 0, 0, 1)


def test_connection_counts_independent_of_seed():
    cols = set()
    for seed in range(3):
        c, _, _ = _double_well_complex(seed=seed)
        cols.add(tuple(row[0] for row in algebra_oracle.dense(c, 1)))
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
    speed_tol_factor=1e-3, delta_u=1e-2)


def _product_double_well():
    return _index_two_source("(x1^2 - 1)^2 + (x2^2 - 1)^2", box=1.5)


def _sphere_counts(f, b, crits, tols=DEFAULT, seed=0):
    """The connection counts of ``morse.build_complex``, with every source
    searched forward on its unstable direction sphere by the oracle, as the
    search of 1 < k < m does; in 2-D ``build_complex`` itself counts on
    zero-spheres only."""
    finder = morse.ConnectionFinder(expr.negative_gradient(f, b.dimension),
                                    b, crits, tols=tols, seed=seed)
    _, witnesses = oracle.forward_search(finder,
                                         [x for x in crits if x.index])
    return [morse.count_connections(x, y, witnesses) for x in crits
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


def _quarter_labels(crits):
    """A stub labelling that cuts the unstable circle of the product double
    well's source into four basins of minima, with a 2e-9 rad window to a
    saddle at each cut, so refinement runs down to dir_tol and several
    directions of one window become witnesses.  Returns it and the labels
    of the branches of each saddle, {ident: (+v_u label, -v_u label)}: the
    basin after its window in increasing angle, then the one before, so
    that every witness has the sign +1."""
    saddles = [c.ident for c in crits if c.index == 1]
    minima = [c.ident for c in crits if c.index == 0]
    quarter = math.pi / 2

    def label(d):
        a = (math.atan2(d[1], d[0]) - 0.3) % (2 * math.pi)
        q = int(a // quarter)
        if min(a - q * quarter, (q + 1) * quarter - a) < 1e-9:
            return ("crit", saddles[round(a / quarter) % 4]), a
        return ("crit", minima[q]), a

    return label, {saddles[j]: (("crit", minima[j]), ("crit", minima[j - 1]))
                   for j in range(4)}


def _label_directions(monkeypatch, finder, source, label, branches):
    """Make ``finder._classify`` label each direction of the unstable
    sphere of ``source`` by ``label``: its seed point is the direction
    itself.  The seed of the branch sigma = +-1 of another critical point
    x is labelled ``branches[x.ident][sigma < 0]``.  Returns the list of
    batches, each a list of directions of ``source``."""
    batches = []

    def seed_point(s, d):
        return d if s.x is source else (s.x.ident, d[0])

    def classify(seeds):
        batches.append([p for p, _ in seeds if isinstance(p, np.ndarray)])
        return [label(p) if isinstance(p, np.ndarray)
                else (branches[p[0]][int(p[1] < 0)], 1.0) for p, _ in seeds]

    monkeypatch.setattr(finder, "_seed_point", seed_point)
    monkeypatch.setattr(finder, "_classify", classify)
    return batches


def _stub_search(monkeypatch, f, b, crits, label, branches):
    """Search the index-2 source, and the unstable S^0 of its targets, with
    ``_classify`` replaced by ``label`` and ``branches``.  Returns the
    labelled directions of the source as bytes, the batch sizes, the
    witnesses of the source (direction, target ident, capture time, sign)
    and the finder."""
    source = next(c for c in crits if c.index == 2)
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 2), b, crits)
    batches = _label_directions(monkeypatch, finder, source, label, branches)
    _, found = oracle.forward_search(finder, [source])
    got = [(np.array(w.direction), tgt, w.capture_time, w.sign)
           for (x, tgt), ws in found.items() if x == source.ident
           for w in ws]
    labelled = [d.tobytes() for dirs in batches for d in dirs]
    return labelled, [len(dirs) for dirs in batches], got, finder


def _depth_first(finder, label):
    """The directions, as bytes, that the one-source depth-first bisection
    of the triangulated circle of ``sphere_oracle`` labels: an arc whose
    end labels differ is halved, down to ``dir_tol``, where its midpoint is
    labelled instead."""
    labels = {}

    def label_of(d):
        if d.tobytes() not in labels:
            labels[d.tobytes()] = label(d)[0]
        return labels[d.tobytes()]

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
    return labels


def _angle(d):
    return math.atan2(d[1], d[0])


@pytest.mark.parametrize("n", [64, 128])
def test_the_cycle_equals_the_triangulated_circle_bit_for_bit(n):
    # the points of S^0 and of the initial circle, and the neighbours of the
    # circle, against the vertices and arcs of the cross-polytope of
    # sphere_oracle; the section of every gap against its split, and the
    # midpoint of a gap below dir_tol against the oracle's
    f, b, crits = _product_double_well()
    gradfield = expr.negative_gradient(f, 2)

    def same(new, old):
        assert [v.tobytes() for v in new] == [v.tobytes() for v in old]

    same([d for c in sphere.cycles(1, n, np.eye(1)) for d in c],
         [v for sp in oracle.initial_simplices(1, n, np.eye(1)) for v in sp])
    for seed in range(6):
        rot = morse.ConnectionFinder(gradfield, b, crits,
                                     seed=seed)._rotation(2)
        [cycle] = sphere.cycles(2, n, rot)
        arcs = oracle.initial_simplices(2, n, rot)
        assert len(cycle) == len(arcs) == n
        vertices = {v.tobytes(): v for sp in arcs for v in sp}
        same(sorted(cycle, key=_angle), sorted(vertices.values(), key=_angle))
        gaps = [*zip(cycle, cycle[1:] + cycle[:1])]
        assert {frozenset((u.tobytes(), v.tobytes())) for u, v in gaps} == \
            {frozenset(v.tobytes() for v in sp) for sp in arcs}
        fine = sphere.Circle(None, 1, None, set(), [cycle], 0.0)
        coarse = sphere.Circle(None, 1, None, set(), [cycle], 1.0)
        for u, v in gaps:
            section = fine._section([u, None, False], v, sphere.DEPTH)
            halves = [(u, v)]
            for _ in range(sphere.DEPTH):
                halves = [h for arc in halves for h in oracle.split(arc)]
            same([d for d, _, _ in section], [h[0] for h in halves])
            assert not any(final for *_, final in section)
            [(_, _, final), (mid, _, final_mid)] = coarse._section(
                [u, None, False], v, sphere.DEPTH)
            same([mid], [oracle.midpoint((u, v))])
            assert final and final_mid


def test_the_search_labels_each_direction_once_and_one_witness_per_window(
        monkeypatch):
    # The search labels the section of every gap whose end labels differ:
    # every direction that the depth-first bisection labels, none twice, in
    # few batches; each window to a saddle is one run of neighbours, and so
    # one witness inside it
    f, b, crits = _product_double_well()
    label, branches = _quarter_labels(crits)
    labelled, calls, got, finder = _stub_search(monkeypatch, f, b, crits,
                                                label, branches)
    labels = _depth_first(finder, label)
    assert set(labelled) >= set(labels)
    assert len(set(labelled)) == len(labelled)
    assert len(calls) < len(labels) / 4
    assert sorted(tgt for _, tgt, _, _ in got) == \
        sorted(c.ident for c in crits if c.index == 1)
    for d, tgt, t, sign in got:
        assert label(d) == (("crit", tgt), t)
        assert sign == 1


def test_a_failed_label_stops_the_search_wherever_it_is(monkeypatch):
    # Every label is read, so the failure of any labelled direction is
    # raised: of a witness, of the last direction labelled, and of
    # directions that the depth-first bisection never labels
    f, b, crits = _product_double_well()
    label, branches = _quarter_labels(crits)
    labelled, _, got, finder = _stub_search(monkeypatch, f, b, crits, label,
                                            branches)
    depth_first = _depth_first(finder, label)
    ahead = [key for key in labelled if key not in depth_first]
    assert len(ahead) > 100
    for key in (ahead[0], ahead[-1], got[0][0].tobytes(), labelled[-1]):
        def failing(d):
            if d.tobytes() == key:
                return ("failed", flow.StepUnderflowError(0.5, d)), 0.5
            return label(d)

        with pytest.raises(flow.StepUnderflowError):
            _stub_search(monkeypatch, f, b, crits, failing, branches)


def test_a_circle_witness_without_two_branch_labels_raises(monkeypatch):
    # the stub labelling of the quarter circle with the saddles' branch
    # labels taken away, made equal, or moved off the basins next to their
    # windows: the first witness of the circle raises MorseError, naming
    # the source's S^1 and the saddle its window is captured at
    f, b, crits = _product_double_well()
    label, branches = _quarter_labels(crits)
    _, _, got, finder = _stub_search(monkeypatch, f, b, crits, label,
                                     branches)
    source = finder.by_id[next(c.ident for c in crits if c.index == 2)]
    saddle = got[0][1]
    where = (rf"the unstable S\^1 of critical point {source.ident} at .* "
             rf"has a witness at critical point {saddle}, ")
    circle = finder._circle(source, 1, source.frame_matrix(),
                            {c.ident for c in crits if c.index == 1})
    with pytest.raises(morse.MorseError, match=(
            where + r"which has no unstable S\^0 in the search")):
        finder._search_spheres([circle])
    minima = [c.ident for c in crits if c.index == 0]
    for bad in ({q: (plus, plus) for q, (plus, _) in branches.items()},
                {q: (("crit", minima[minima.index(plus[1]) - 2]), ("exit",))
                 for q, (plus, _) in branches.items()}):
        plus, minus = (rf"critical point {lab[1]}" if lab[0] == "crit"
                       else "the exit" for lab in bad[saddle])
        with pytest.raises(morse.MorseError, match=(
                where + r"past whose window the orbit ends in critical "
                rf"point \d+, and its \+-v_u branches in {plus} and "
                rf"{minus}: the witness has no sign")):
            _stub_search(monkeypatch, f, b, crits, label, bad)


def _witnesses(cycles, labels):
    """The witnesses of a circle of ``cycles`` whose i-th direction is
    labelled ``labels[i]``, with capture time i; the targets are 1 and 2."""
    circle = sphere.Circle(None, 1, None, {1, 2}, cycles, 1e-12)
    assert len(circle.wanted()) == len(labels)
    circle.learn((lab, float(i)) for i, lab in enumerate(labels))
    return circle.witnesses()


def _runs(cycles, labels):
    """The capture times of the witnesses of ``_witnesses``, {target:
    [capture time]}."""
    return {tgt: [t for _, t, _ in items]
            for tgt, items in _witnesses(cycles, labels).items()}


def _afters(cycles, labels):
    """The labels after the witnesses of ``_witnesses``, {target:
    [label]}."""
    return {tgt: [after for *_, after in items]
            for tgt, items in _witnesses(cycles, labels).items()}


def test_a_witness_is_a_run_of_neighbours_captured_at_one_target():
    [cycle] = sphere.cycles(2, 8, np.eye(2))
    q, r, other, exit = ("crit", 1), ("crit", 2), ("crit", 9), ("exit",)
    # a run that wraps past the list start is one witness, at its first
    # direction in cyclic order
    assert _runs([cycle], [q, q, exit, r, r, exit, q, q]) == \
        {1: [6.0], 2: [3.0]}
    # a run broken by an exit or another critical point
    assert _runs([cycle], [exit, q, q, exit, q, other, q, exit]) == \
        {1: [1.0, 4.0, 6.0]}
    assert _runs([cycle], [q, r] * 4) == \
        {1: [0.0, 2.0, 4.0, 6.0], 2: [1.0, 3.0, 5.0, 7.0]}
    # a cycle captured at one target throughout is one witness
    assert _runs([cycle], [q] * 8) == {1: [0.0]}
    assert _runs([cycle], [exit] * 8) == {}
    # the label after a run is that of the next direction in angular
    # order, past the list end too; a cycle of one run is followed by
    # its own label
    assert _afters([cycle], [q, q, exit, r, r, other, q, q]) == \
        {1: [exit], 2: [other]}
    assert _afters([cycle], [q, r, r, q, q, q, exit, q]) == \
        {1: [exit, r], 2: [q]}
    assert _afters([cycle], [q] * 8) == {1: [q]}


def test_s0_is_two_cycles_of_one_point():
    # two seeds captured at one target are two witnesses, and the gap of
    # each cycle, from its point to itself, is never split
    q, r = ("crit", 1), ("crit", 2)
    assert _runs(sphere.cycles(1, 8, np.eye(1)), [q, q]) == \
        {1: [0.0, 1.0]}
    zero = sphere.Circle(None, 1, None, {1, 2},
                         sphere.cycles(1, 8, np.eye(1)), 1.0)
    zero.wanted()
    zero.learn([(q, 0.0), (r, 1.0)])
    assert zero.wanted() == []
    assert _runs(sphere.cycles(1, 8, np.eye(1)), [q, r]) == \
        {1: [0.0], 2: [1.0]}
    assert _afters(sphere.cycles(1, 8, np.eye(1)), [q, r]) == \
        {1: [q], 2: [r]}


def test_search_raises_the_first_fault_of_the_batch(monkeypatch):
    # The source of the product double well on its unstable circle and a
    # saddle on its unstable S^0, searched forward: every orbit of the
    # saddle fails.  Its failure is the first fault of the first batch, in
    # either order, and raised before any witness is signed.
    f, b, crits = _product_double_well()
    first = next(c for c in crits if c.index == 2)
    second = next(c for c in crits if c.index == 1)

    def search(sources, tols):
        finder = morse.ConnectionFinder(expr.negative_gradient(f, 2), b,
                                        crits, tols=tols, seed=3)
        seed_point, classify = finder._seed_point, finder._classify
        of_second = set()

        def recorded(s, d):
            p = seed_point(s, d)
            if s.x is second:
                of_second.add(p.tobytes())
            return p

        def second_fails(seeds):
            return [(("failed", flow.IntegrationError("injected")), 0.0)
                    if p.tobytes() in of_second else label
                    for (p, _), label in zip(seeds, classify(seeds))]

        monkeypatch.setattr(finder, "_seed_point", recorded)
        monkeypatch.setattr(finder, "_classify", second_fails)
        oracle.forward_search(finder, sources)

    for sources in ([first, second], [second, first]):
        with pytest.raises(flow.IntegrationError, match="injected"):
            search(sources, _COARSE)


def test_the_sphere_search_counts_each_connection_once():
    f, b, crits = _product_double_well()
    counts = _sphere_counts(f, b, crits, tols=_COARSE, seed=3)
    assert sorted(cc.n for cc in counts if cc.n) == [-1] * 6 + [1] * 6
    assert all(len(cc.witnesses) == abs(cc.n) for cc in counts)


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
    apart = {}
    for x in crits:
        if x.index:
            apart.update(oracle.forward_search(finder, [x])[1])
    assert lockstep < len(batches) - lockstep
    assert counts
    for cc in counts:
        assert apart.get((cc.source, cc.target), []) == cc.witnesses


def _transported_sign(fld, finder, s, q, w):
    """The sign of the witness ``w`` of the forward sphere ``s``, captured
    at q, by the oracle: the unstable frame of s.x carried along the
    witness orbit to its capture, against the flow direction and the
    unstable frame of q there.  The orientation must be clear of zero."""
    x0 = finder._seed_point(s, np.array(w.direction))
    W, end = flow_oracle.transport_frame_one(fld, x0, w.capture_time,
                                             s.frame.T, tols=finder.tols)
    v = np.array([expr.evaluate(e, end) for e in fld.components])
    det = flow_oracle.orientation_det(W, v, q.frame)
    assert abs(det) > 1e-6
    return 1 if det > 0 else -1


def _assert_circle_signs_are_transported(fld, finder, spheres, witnesses):
    """Every witness of a circle of ``spheres`` has the oracle's sign;
    returns how many there are."""
    circles = {s.x.ident: s for s in spheres if s.frame.shape[1] == 2}
    n = 0
    for (x, tgt), ws in witnesses.items():
        for w in ws if x in circles else []:
            assert w.sign == _transported_sign(fld, finder, circles[x],
                                               finder.by_id[tgt], w)
            n += 1
    return n


@pytest.mark.parametrize("seed", [3, 5])
def test_branch_signs_equal_transported_signs_on_the_3d_product_well(seed):
    # the six circles of the 3-D product well at the seeds of its goldens,
    # whose seed cycles turn opposite ways: the sign of each of the 24
    # witnesses, read off the branch of its target past its window, is the
    # sign that frame transport gives it
    f, b, crits = _product_well_3d()
    fld = expr.negative_gradient(f, 3)
    finder = morse.ConnectionFinder(fld, b, crits, seed=seed)
    assert np.sign(np.linalg.det(finder._rotation(2))) == {3: -1, 5: 1}[seed]
    spheres = [s for s in finder._spheres() if s.time > 0]
    witnesses = finder._search_spheres(spheres)
    assert _assert_circle_signs_are_transported(
        fld, finder, spheres, witnesses) == 24


@pytest.mark.parametrize("seed", range(6))
def test_branch_signs_equal_transported_signs_on_2d_forward_circles(seed):
    # the unstable circle of the 2-D product well's source, searched
    # forward with the S^0 of its four saddles; its seed cycle turns
    # clockwise at seed 3
    f, b, crits = _product_double_well()
    fld = expr.negative_gradient(f, 2)
    source = next(c for c in crits if c.index == 2)
    finder = morse.ConnectionFinder(fld, b, crits, tols=_COARSE, seed=seed)
    spheres, witnesses = oracle.forward_search(finder, [source])
    assert _assert_circle_signs_are_transported(
        fld, finder, spheres, witnesses) == 4


# ---------------------------------------------------------------------------
# connections counted on a zero-sphere

def _product_well_3d():
    # index 3 at the origin, index 2 at the six points with one coordinate
    # +-1, index 1 at the twelve with two, index 0 at the eight corners
    f = expr.parse("(x1^2 - 1)^2 + (x2^2 - 1)^2 + (x3^2 - 1)^2", 3)
    b = block.build_block(box=[(-2, 2)] * 3, spacing=0.5)
    return f, b, morse.find_critical_points(f, b)


def _circle_source():
    # index 2 at the origin, index 1 at (+-1, 0, 0): in 3-D the origin is
    # searched forward on its unstable circle
    f = expr.parse("(x1^2 - 1)^2 - x2^2 + x3^2", 3)
    b = block.build_block(box=[(-2, 2)] * 3, spacing=0.5)
    crits = morse.find_critical_points(f, b)
    assert sorted(c.index for c in crits) == [1, 1, 2]
    return f, b, crits, next(c for c in crits if c.index == 2)


def test_zero_sphere_budget_hit_raises():
    # forward on the unstable S^0 of the double well's saddle, backward
    # from the stable S^0 of the first index-1 target of an index-2 source,
    # and forward on the unstable S^1 of an index-2 source in 3-D, where
    # every direction of the initial circle is still on its way
    short = dataclasses.replace(DEFAULT, t_budget=1e-3)
    f, b, crits = _double_well()
    saddle = next(c for c in crits if c.index == 1)
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 2), b, crits,
                                    tols=short)
    with pytest.raises(morse.MorseError, match=(
            rf"critical point {saddle.ident} at .* seed \+1 of its "
            r"unstable S\^0 hit the time budget")):
        finder.search()
    f, b, crits = _index_two_source()
    source = next(c for c in crits if c.index == 2)
    target = next(c for c in crits if c.index == 1)
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 2), b, crits,
                                    tols=short)
    with pytest.raises(morse.MorseError, match=(
            rf"critical point {target.ident} at .* seed \+1 of its "
            r"stable S\^0 hit the time budget")):
        finder.search()
    f, b, crits, source = _circle_source()
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 3), b, crits,
                                    tols=short)
    with pytest.raises(morse.MorseError, match=(
            rf"critical point {source.ident} at .* of its unstable S\^1 hit "
            r"the time budget")):
        finder.search()


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
    one = morse.ConnectionFinder(gradfield, b, crits, tols=_COARSE).search()
    assert widths == [16]
    finder = morse.ConnectionFinder(gradfield, b, crits, tols=_COARSE)
    spheres = finder._spheres()
    assert [s.time for s in spheres] == [1] * 4 + [-1] * 4
    apart = finder._search_spheres(spheres[:4])
    apart.update(finder._search_spheres(spheres[4:]))
    assert widths == [16, 8, 8]
    assert one == apart
    assert sum(len(ws) for (x, _), ws in one.items() if x == top.ident) == 4

    # in one batch the forward orbits are still read first: with a short
    # budget every orbit hits it, and the first one of the first index-1
    # source is the one raised, though the batch also holds the eight from
    # the stable S^0 of every index-1 target
    short = dataclasses.replace(_COARSE, t_budget=1e-3)
    finder = morse.ConnectionFinder(gradfield, b, crits, tols=short)
    with pytest.raises(morse.MorseError, match=(
            rf"critical point {ones[0].ident} at .* seed \+1 of its "
            r"unstable S\^0 hit the time budget")):
        finder.search()
    assert widths[3:] == [16]


def test_zero_sphere_seeds_and_backward_witnesses(monkeypatch):
    # the double well and the product double well, every source searched:
    # one batch of the forward S^0 of each index-1 source, then the
    # backward S^0 of each index-1 target of the index-2 source, each seed
    # x + delta_u (sigma v) bit for bit, v the unstable or the stable
    # vector of x.  Every backward witness is stored under the index-2
    # source that its orbit reaches, with the sign det(U_p) det[-sigma v_s,
    # U_q], and the index-1 sources keep only their forward witnesses
    for f, b, crits in (_double_well(), _product_double_well()):
        finder = morse.ConnectionFinder(expr.negative_gradient(f, 2), b,
                                        crits)
        classify, batches = finder._classify, []

        def recorded(seeds):
            batches.append((seeds, classify(seeds)))
            return batches[-1][1]

        monkeypatch.setattr(finder, "_classify", recorded)
        found = finder.search()
        ones = [c for c in crits if c.index == 1]
        tops = [c for c in crits if c.index == 2]
        want = [(x, sigma, time, v) for xs, time, vec in (
                    (ones, 1, lambda x: x.frame[0]),
                    (ones if tops else [], -1, lambda q: q.stable[0]))
                for x in xs for v in [np.asarray(vec(x))]
                for sigma in (1.0, -1.0)]
        [(seeds, labels)] = batches
        assert [(p.tobytes(), time) for p, time in seeds] == \
            [((np.asarray(x.coords) + DEFAULT.delta_u * (sigma * v))
              .tobytes(), time) for x, sigma, time, v in want]
        top = {p.ident for p in tops}
        backward = {}
        for (q, sigma, time, v), (lab, t) in zip(want, labels):
            if time < 0 and lab[0] == "crit" and lab[1] in top:
                p = finder.by_id[lab[1]]
                det = np.linalg.det(p.frame_matrix()) * np.linalg.det(
                    np.column_stack([-sigma * v, q.frame_matrix()]))
                backward.setdefault((p.ident, q.ident), []).append(
                    morse.Witness((sigma,), 1 if det > 0 else -1, abs(t)))
        assert {pair: ws for pair, ws in found.items()
                if pair[0] in top} == backward
        assert sum(map(len, backward.values())) == 4 * len(tops)
        assert {finder.by_id[tgt].index for x, tgt in found
                if x not in top} == {0}


def _first_orbit_captured_at(monkeypatch, ident):
    classify = flow.classify_limit

    def stub(*args, **kwargs):
        lc, run = classify(*args, **kwargs)
        return flow.LimitClass((("crit", ident),) + lc.tag[1:]), run

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
            finder.search()
    f, b, crits = _index_two_source()
    source = next(c for c in crits if c.index == 2)
    first, other = [c for c in crits if c.index == 1]
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 2), b, crits)
    _first_orbit_captured_at(monkeypatch, other.ident)
    with pytest.raises(morse.MorseError, match=(
            rf"critical point {first.ident} at .* stable S\^0 is captured "
            rf"at critical point {other.ident} of index 1")):
        finder.search()


def test_circle_capture_at_a_point_not_below_the_source_raises(
        monkeypatch):
    # the first orbit of the unstable circle of an index-2 source is made
    # to end at the source itself: a capture at index 2, not below it
    f, b, crits, source = _circle_source()
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 3), b, crits)
    _first_orbit_captured_at(monkeypatch, source.ident)
    with pytest.raises(morse.MorseError, match=(
            rf"critical point {source.ident} at .* unstable S\^1 is "
            rf"captured at critical point {source.ident} of index 2: the "
            r"connection is not Morse-Smale")):
        finder.search()


def test_closed_form_signs_equal_transported_signs():
    # every index-1 source of the double well and of the 3-D product well:
    # the witnesses of the zero-sphere search are those of the forward
    # search of the oracle, bit for bit, and the sign of each, its
    # direction coefficient, is the sign that frame transport gives the
    # same witness
    for f, b, crits in (_double_well(), _product_well_3d()):
        ones = [c for c in crits if c.index == 1]
        gradfield = expr.negative_gradient(f, b.dimension)
        closed = morse.ConnectionFinder(gradfield, b, crits)
        zero = closed._spheres()[:len(ones)]
        assert [s.x for s in zero] == ones
        found = closed._search_spheres(zero)
        transported = morse.ConnectionFinder(gradfield, b, crits)
        spheres, ws = oracle.forward_search(transported, ones)
        assert [s.x for s in spheres] == ones
        assert found == ws
        sphere_of = {s.x.ident: s for s in spheres}
        signs = [w.sign for items in ws.values() for w in items]
        assert [_transported_sign(gradfield, transported, sphere_of[x],
                                  closed.by_id[tgt], w)
                for (x, tgt), items in ws.items() for w in items] == signs
        assert sorted(signs) == [-1] * len(ones) + [1] * len(ones)


def test_backward_search_finds_the_top_connections_of_the_3d_product_well(
        monkeypatch):
    # the stable S^0 of each index-2 saddle, 12 orbits of +grad f in one
    # batch, and no circle: one orbit per saddle reaches the top
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
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 3), b, crits)
    ws = finder._search_spheres([s for s in finder._spheres() if s.time < 0])
    assert widths == [12]
    assert sorted(ws) == [(top.ident, c.ident) for c in crits
                          if c.index == 2]
    for items in ws.values():
        assert len(items) == 1 and abs(items[0].sign) == 1
        assert items[0].direction in ((1.0,), (-1.0,))


def test_search_refuses_the_unstable_s2_before_any_orbit(monkeypatch):
    # the sources of the 4-D product well in order of index: the spheres of
    # the index-1 and index-2 sources are built, and the first index-3
    # source raises before any of them runs an orbit, naming the point, its
    # index and its S^2
    f = expr.parse(" + ".join(f"(x{i}^2 - 1)^2" for i in range(1, 5)), 4)
    b = block.build_block(box=[(-2, 2)] * 4, spacing=0.5)
    crits = morse.find_critical_points(f, b)
    three = next(c for c in crits if c.index == 3)

    def no_orbit(*args, **kwargs):
        raise AssertionError("an orbit ran")

    monkeypatch.setattr(flow, "classify_limit", no_orbit)
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 4), b, crits)
    assert any(c.index in (1, 2) for c in crits)
    with pytest.raises(morse.MorseError, match=(
            rf"critical point {three.ident} at .* has index 3: .* unstable "
            r"sphere S\^2 .* only S\^0 and S\^1 are searched")):
        finder.search()


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_zero_sphere_counts_equal_sphere_counts_on_connections(seed):
    # the benchmark system `connections` through the pipeline: the counts
    # of build_complex (zero-spheres only) against the forward search of
    # the oracle for every source, equal in n and witness count; the index-1
    # witnesses are equal bit for bit
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "benchmarks", "systems", "connections.json")
    system = cli._fixed_system(cli.load_system(path))
    b = system.block
    res = conley.compute_HI(system, seed=seed)
    crits = res.crits
    finder = morse.ConnectionFinder(
        expr.negative_gradient(res.f, 2), b, crits, seed=seed)
    _, ws = oracle.forward_search(finder, [x for x in crits if x.index])
    source = next(c for c in crits if c.index == 2)
    assert sum(len(cc.witnesses) for cc in res.counts
               if cc.source == source.ident) == 4
    for cc in res.counts:
        forward = ws.get((cc.source, cc.target), [])
        assert (cc.n, len(cc.witnesses)) == \
            (sum(w.sign for w in forward), len(forward))
        if cc.source != source.ident:
            assert cc.witnesses == forward


# ---------------------------------------------------------------------------
# capture in the chart of a critical point against the step-end speed rule

def _ball_entries(monkeypatch):
    """Spy on every ``flow.classify_limit`` batch with critical points.
    Returns a list that fills with one (batch, entries) pair per batch, the
    batch the arguments (F, crits, block, t_end, scale, tols) and the
    entries (point, direction of time, index of the critical point,
    stopped) of every accepted step end that lies in the chart ball
    (``flow_oracle.chart_radii``) of a critical point and inside the block
    where the column's last step end did not, and whether the batch stopped
    the column there."""
    batches, batch = [], [None]
    classify, dop853 = flow.classify_limit, flow._dop853

    def spy(F, X0, crits, b, t_end, scale, direction=1, tols=DEFAULT):
        if len(crits):
            batch[0] = ((F, crits, b, t_end, scale, tols), [])
            batches.append(batch[0])
        try:
            return classify(F, X0, crits, b, t_end, scale,
                            direction=direction, tols=tols)
        finally:
            batch[0] = None

    def dop(F, x0, direction, target, rtol, atol, max_steps, accepted=None):
        if batch[0] is None:
            return dop853(F, x0, direction, target, rtol, atol, max_steps,
                          accepted)
        (_, crits, b, *_), entries = batch[0]
        radii = flow_oracle.chart_radii(crits, b)
        signs = np.broadcast_to(direction, (x0.shape[1],))
        last = [None] * x0.shape[1]

        def stop(cols, t, x_old, X, f_new):
            out = accepted(cols, t, x_old, X, f_new)
            for k, j in enumerate(cols):
                x = X[:, k]
                q = next((i for i, (c, r) in enumerate(zip(crits, radii))
                          if math.dist(x, c.coords) < r), None)
                if q is not None and q != last[j] and \
                        block_oracle.contains(b, x):
                    entries.append((x.copy(), int(signs[j]), q, bool(out[k])))
                last[j] = q
            return out

        return dop853(F, x0, direction, target, rtol, atol, max_steps, stop)

    monkeypatch.setattr(flow, "classify_limit", spy)
    monkeypatch.setattr(flow, "_dop853", dop)
    return batches


def _assert_chart_decisions_equal_the_speed_rule(batches, slack=1.0):
    """Run each ball entry of ``batches`` on from its point under the
    step-end speed rule of ``flow_oracle.classify_by_speed``, whose speed
    tolerance is ``slack`` times the batch's where the chart captured the
    column and 1 / ``slack`` times it where the column ran on: the speed
    rule must capture the column at the ball's critical point exactly where
    the chart did.  Returns the critical points of the balls where columns
    were captured, and of those where they ran on."""
    captured, ran_on = [], []
    for (F, crits, b, t_end, scale, tols), entries in batches:
        if not entries:
            continue
        X = np.column_stack([x for x, *_ in entries])
        direction = np.array([d for _, d, _, _ in entries])
        labels = {}
        for stopped, factor in ((True, slack), (False, 1 / slack)):
            labels[stopped], _ = flow_oracle.classify_by_speed(
                F, X, crits, b, t_end, scale, direction=direction,
                tols=dataclasses.replace(
                    tols, speed_tol_factor=tols.speed_tol_factor * factor))
        for j, (x, _, q, stopped) in enumerate(entries):
            label = labels[stopped][j]
            assert (label == ("crit", crits[q].ident)) == stopped, (x, label)
            (captured if stopped else ran_on).append(crits[q])
    return captured, ran_on


@pytest.mark.parametrize("seed", [3, 4])
def test_chart_captures_equal_the_speed_rule_on_connections(seed,
                                                             monkeypatch):
    # the 16 orbits of the zero-spheres of `connections` start in the ball
    # of their index-1 source and run on from it; 12 are captured at the
    # first ball they enter next, at a point that attracts them in their
    # direction of time, and 4 leave the block
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "benchmarks", "systems", "connections.json")
    system = cli._fixed_system(cli.load_system(path))
    batches = _ball_entries(monkeypatch)
    conley.compute_HI(system, seed=seed)
    assert len(batches) == 1
    captured, ran_on = _assert_chart_decisions_equal_the_speed_rule(batches)
    assert (len(captured), len(ran_on)) == (12, 16)
    assert {c.index for c in ran_on} == {1}


def test_chart_captures_equal_the_speed_rule_on_a_3d_circle(monkeypatch):
    # the unstable circle of one index-2 point of the 3-D product well at
    # seed 3, with the zero-spheres of its index-1 targets: its orbits enter
    # the balls of the targets, on their stable sets or off them, and of the
    # minima past them.  Bisection puts most of the orbits at the edges of
    # the windows of capture at a target, where the least speed of the
    # orbit is the tolerance: there the least speed of the linear flow of
    # the target's ball, of radius 0.1, is up to about 5% below that of the
    # orbit, so the speed rule needs a tolerance 10% higher to capture
    # every column that the chart captures at an index-1 point
    f, b, crits = _product_well_3d()
    finder = morse.ConnectionFinder(expr.negative_gradient(f, 3), b, crits,
                                    seed=3)
    forward = [s for s in finder._spheres() if s.time > 0]
    circle = next(s for s in forward if s.x.index == 2)
    batches = _ball_entries(monkeypatch)
    witnesses = finder._search_spheres(
        [s for s in forward if s.x.index == 1] + [circle])
    captured, ran_on = _assert_chart_decisions_equal_the_speed_rule(
        batches, slack=1.1)
    assert {c.index for c in captured} == {0, 1}
    assert {c.index for c in ran_on} >= {1, 2}
    assert sum(len(w) for (source, _), w in witnesses.items()
               if source == circle.x.ident) == 4
