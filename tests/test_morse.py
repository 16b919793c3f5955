"""Critical points, connection counting, and the Morse chain complex."""
import numpy as np
import pytest

from mcfhom import block, expr, homalg, morse


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


def _double_well_complex(coeff="Z", seed=0):
    f = expr.parse("(x1^2 - 1)^2 + x2^2", 2)
    b = block.build_block(box=[(-2, 2), (-2, 2)], spacing=0.5)
    crits = morse.find_critical_points(f, b)
    c, counts = morse.build_complex(f, b, crits, coeff=coeff, seed=seed)
    return c, counts, crits


def test_double_well_boundary_matrix():
    c, counts, crits = _double_well_complex()
    assert c.dims == [2, 1]
    col = [row[0] for row in c.boundaries[1]]
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
    for k in cz.boundaries:
        A = cz.boundaries[k]
        B = c2.boundaries[k]
        for ra, rb in zip(A, B):
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
        cols.add(tuple(row[0] for row in c.boundaries[1]))
    # sign pattern is canonical given the frame normalization
    assert len(cols) == 1
