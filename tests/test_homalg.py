"""Exact integer homological algebra."""
import math
import random

import numpy as np
import pytest

import algebra_oracle
import cubical_oracle
from mcfhom import block, expr, homalg


# ---------------------------------------------------------------------------
# Smith normal form

def test_snf_diag_2_3():
    d, U, V = homalg.smith_normal_form([[2, 0], [0, 3]])
    assert d == [1, 6]


def test_snf_zero_matrix():
    d, U, V = homalg.smith_normal_form([[0, 0], [0, 0]])
    assert d == []


def test_snf_empty_matrix():
    d, U, V = homalg.smith_normal_form([])
    assert d == []


def _check_snf(A, rows, cols):
    d, U, V = homalg.smith_normal_form(A)
    # unimodular transforms
    for M, n in ((U, rows), (V, cols)):
        det = _det_int(M)
        assert det in (1, -1)
    # reconstruction U A V = diag(d)
    P = homalg.matmul(homalg.matmul(U, A), V) if A else []
    for i in range(rows):
        for j in range(cols):
            want = d[i] if i == j and i < len(d) else 0
            assert P[i][j] == want
    # divisibility chain, positivity
    for a, b in zip(d, d[1:]):
        assert a >= 1 and b % a == 0
    return d


def _det_int(M):
    from fractions import Fraction
    n = len(M)
    A = [[Fraction(v) for v in row] for row in M]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    assert det.denominator == 1
    return int(det)


def test_snf_random_matrices_reconstruct():
    rng = random.Random(7)
    for _ in range(25):
        A = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(6)]
        d = _check_snf(A, 6, 7)
        assert len(d) == algebra_oracle.rank_fractions(A)


def test_rank_helpers_agree():
    rng = random.Random(1)
    for _ in range(20):
        A = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
        assert len(homalg.smith_normal_form(A)[0]) == \
            algebra_oracle.rank_fractions(A)


def test_rank_mod2():
    assert algebra_oracle.rank_mod2([[2, 0], [0, 1]]) == 1
    assert algebra_oracle.rank_mod2([[1, 1], [1, 1]]) == 1
    assert algebra_oracle.rank_mod2([[1, 0], [0, 1]]) == 2


def test_kernel_basis_spans_kernel():
    A = [[1, -1, 0], [0, 0, 0]]
    K = algebra_oracle.kernel_basis_fractions(A, ncols=3)
    assert len(K) == 2
    for v in K:
        for row in A:
            assert sum(a * x for a, x in zip(row, v)) == 0


def test_kernel_basis_of_empty_matrix_needs_ncols():
    K = algebra_oracle.kernel_basis_fractions([], ncols=2)
    assert len(K) == 2


def test_solve_fractions():
    A = [[2, 0], [0, 3]]
    x = algebra_oracle.solve_fractions(A, [4, 9])
    assert [int(v) for v in x] == [2, 3]
    assert algebra_oracle.solve_fractions([[1, 0], [1, 0]], [1, 2]) is None


def test_kernel_basis_is_a_z_basis_of_the_kernel():
    rng = random.Random(3)
    for trial in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        # rank at most 2 on odd trials, so that the kernel is large
        inner = rng.randint(1, 2) if trial % 2 else cols
        A = homalg.matmul(
            [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)],
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)])
        K = homalg.kernel_basis(A, cols)
        assert len(K) == cols
        nullity = cols - algebra_oracle.rank_fractions(A)
        assert all(len(row) == nullity for row in K)
        for j in range(nullity):
            v = [row[j] for row in K]
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)
        # a Z-basis of a kernel is a primitive lattice: invariant factors 1
        assert homalg.smith_normal_form(K)[0] == [1] * nullity


def test_kernel_basis_of_a_matrix_with_no_rows():
    assert homalg.kernel_basis([], 3) == homalg.identity(3)
    assert homalg.kernel_basis([], 0) == []


# ---------------------------------------------------------------------------
# chain complexes and homology

def test_homology_double_well_complex():
    c = homalg.ChainComplex([2, 1], {1: [[1], [-1]]})
    h = homalg.homology(c)
    assert h.betti == [1, 0]
    assert not any(h.torsion.values())


def test_homology_zero_complex_degree_one():
    c = homalg.ChainComplex([0, 1], {})
    h = homalg.homology(c)
    assert h.betti == [0, 1]


def test_homology_torsion():
    c = homalg.ChainComplex([1, 1], {1: [[2]]})
    h = homalg.homology(c)
    assert h.betti == [0, 0]
    assert h.torsion == {0: [2]}
    assert h.describe() == "H_0 = Z/2"


def test_homology_names_its_coefficient_ring():
    c = homalg.ChainComplex([2, 1], {1: [[0], [0]]})
    assert homalg.homology(c).describe() == "H_0 = Z^2; H_1 = Z"
    h2 = homalg.homology(c, coeff="Z2")
    assert h2.describe() == "H_0 = Z2^2; H_1 = Z2"
    assert h2 != homalg.homology(c)


def test_homology_rejects_non_complex():
    c = homalg.ChainComplex([1, 1, 1], {1: [[1]], 2: [[1]]})
    assert homalg.verify_d_squared(c) == (1, 0, 0, 1)
    with pytest.raises(homalg.NotAComplexError):
        homalg.homology(c)


def test_d_squared_is_checked_over_the_coefficient_ring():
    # d_1 . d_2 = [[2]]: not a complex over Z, but one over Z/2
    c = homalg.ChainComplex([1, 2, 1], {1: [[1, 1]], 2: [[1], [1]]})
    assert homalg.verify_d_squared(c) == (1, 0, 0, 2)
    assert homalg.verify_d_squared(c, "Z2") is None
    assert homalg.homology(c, coeff="Z2").betti == [0, 0, 0]
    with pytest.raises(homalg.NotAComplexError):
        homalg.homology(c)


def test_d_squared_reports_the_first_entry_in_row_major_order():
    rng = random.Random(5)
    for _ in range(30):
        dims = [rng.randint(1, 4) for _ in range(4)]
        c = homalg.ChainComplex(dims, {
            k: [[rng.choice((0, 0, 1, -1, 2)) for _ in range(dims[k])]
                for _ in range(dims[k - 1])] for k in (1, 2, 3)})
        for coeff in ("Z", "Z2"):
            want = None
            for k in (1, 2):
                P = homalg.matmul(c.boundary(k), c.boundary(k + 1))
                want = next(((k, i, j, v % 2 if coeff == "Z2" else v)
                             for i, row in enumerate(P)
                             for j, v in enumerate(row)
                             if (v % 2 if coeff == "Z2" else v)), None)
                if want:
                    break
            assert homalg.verify_d_squared(c, coeff) == want


def test_homology_invariant_under_column_negation():
    c1 = homalg.ChainComplex([2, 2], {1: [[1, 2], [-1, 0]]})
    c2 = homalg.ChainComplex([2, 2], {1: [[1, -2], [-1, 0]]})
    assert homalg.homology(c1) == homalg.homology(c2)


def test_euler_characteristic_matches_chain_ranks():
    c = homalg.ChainComplex([3, 2, 1], {1: [[0, 0], [0, 0], [0, 0]],
                                        2: [[0], [0]]})
    h = homalg.homology(c)
    assert h.euler() == 3 - 2 + 1


def test_mod2_homology():
    c = homalg.ChainComplex([1, 1], {1: [[2]]})
    h2 = homalg.homology(c, coeff="Z2")
    # Z/2 contributes a rank in degrees 0 and 1 over Z/2 coefficients
    assert h2.betti == [1, 1]


def test_mod2_residue_with_an_entry_is_an_error(monkeypatch):
    # over Z/2 every nonzero entry is a unit, so the reduction leaves no
    # entry; a residue that keeps one is reported, not taken as rank 0
    c = homalg.ChainComplex([1, 1], {1: [[1]]})
    monkeypatch.setattr(homalg, "_reduce",
                        lambda cols, dims, coeff: [list(range(n))
                                                   for n in dims])
    with pytest.raises(homalg.HomalgError, match="mod-2 residue of d_1"):
        homalg.homology(c, coeff="Z2")


# ---------------------------------------------------------------------------
# reduction against the Smith normal form of the unreduced complex

def _oracle_homology(c, coeff):
    """Homology from one SNF (or mod-2 rank) of every unreduced d_k."""
    ranks = [0] * (c.top + 2)
    torsion = {}
    for k in range(1, c.top + 1):
        if coeff == "Z2":
            ranks[k] = algebra_oracle.rank_mod2(c.boundary(k))
        else:
            diag = homalg.smith_normal_form(c.boundary(k))[0]
            ranks[k] = len(diag)
            torsion[k - 1] = [d for d in diag if d > 1]
    betti = [c.dims[k] - ranks[k] - ranks[k + 1] for k in range(c.top + 1)]
    return homalg.HomologyResult(betti, torsion, coeff)


def _unimodular(rng, n):
    """(P, P^-1) for a random product of elementary integer operations."""
    P, Q = homalg.identity(n), homalg.identity(n)
    for _ in range(rng.randint(0, 3 * n)):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j or rng.random() < 0.2:
            # negate row i of P and column i of P^-1
            P[i] = [-v for v in P[i]]
            for row in Q:
                row[i] = -row[i]
            continue
        q = rng.choice((-2, -1, 1, 1, 2))
        # P <- E P with E = I + q e_i e_j^T; P^-1 <- P^-1 E^-1
        P[i] = [a + q * b for a, b in zip(P[i], P[j])]
        for row in Q:
            row[j] -= q * row[i]
    return P, Q


def _known_complex(rng, top):
    """d_k = P_{k-1} D_k P_k^-1 with D_k diagonal over invariant factors
    drawn from 1, 2, 6 and 0, together with its homology over Z and Z/2.

    C_k is spanned by the targets of d_{k+1}, some free generators and the
    sources of d_k, in that order, so that D_k D_{k+1} = 0."""
    factors = [[]] + [[rng.choice((1, 1, 2, 6, 0)) for _ in
                       range(rng.randint(0, 3))] for _ in range(top)]
    factors.append([])
    free = [rng.randint(0, 2) for _ in range(top + 1)]
    dims = [len(factors[k + 1]) + free[k] + len(factors[k])
            for k in range(top + 1)]
    P = [_unimodular(rng, n) for n in dims]
    boundaries = {}
    for k in range(1, top + 1):
        D = homalg.zeros(dims[k - 1], dims[k])
        first = len(factors[k + 1]) + free[k]
        for s, t in enumerate(factors[k]):
            D[s][first + s] = t
        if dims[k - 1] and dims[k]:
            boundaries[k] = homalg.matmul(homalg.matmul(P[k - 1][0], D),
                                          P[k][1])
    betti = [free[k] + factors[k].count(0) + factors[k + 1].count(0)
             for k in range(top + 1)]
    torsion = {k - 1: sorted(t for t in factors[k] if t > 1)
               for k in range(1, top + 1)}
    odd = [sum(t % 2 for t in f) for f in factors]
    betti2 = [dims[k] - odd[k] - odd[k + 1] for k in range(top + 1)]
    return (homalg.ChainComplex(dims, boundaries),
            homalg.HomologyResult(betti, torsion),
            homalg.HomologyResult(betti2, {}, "Z2"))


def test_reduction_recovers_known_invariant_factors():
    rng = random.Random(11)
    for _ in range(40):
        c, want, want2 = _known_complex(rng, rng.randint(1, 3))
        assert homalg.verify_d_squared(c) is None
        assert homalg.homology(c) == want == _oracle_homology(c, "Z")
        assert homalg.homology(c, "Z2") == want2 == \
            _oracle_homology(c, "Z2")


def _random_picks(rng, shape):
    """Random cells of every dimension in the grid of the given shape."""
    picks = []
    for _ in range(rng.randint(1, 2 * math.prod(shape))):
        cell = []
        for n in shape:
            lo = rng.randrange(n)
            cell.append((lo, lo + rng.randint(0, 1)))
        picks.append(tuple(cell))
    return picks


def _random_cells(rng, shape):
    """A random closed cubical cell set in the grid of the given shape:
    the closure of random cells of every dimension."""
    return cubical_oracle.closure(_random_picks(rng, shape))


def _random_pairs(shape, cases):
    """Random closed cubical pairs (cells, subcomplex) in the grid, as
    (lo, hi) tuple sets and as masks on the doubled grid."""
    rng = random.Random(sum(shape))
    doubled = tuple(2 * n + 1 for n in shape)
    for _ in range(cases):
        cells = _random_cells(rng, shape)
        ordered = sorted(cells)
        sub = cubical_oracle.closure(rng.sample(
            ordered, rng.randint(0, len(ordered) // 3)))
        yield (cells, sub, cubical_oracle.mask_of(cells, doubled),
               cubical_oracle.mask_of(sub, doubled))


_RANDOM_PAIRS = [((5, 5), 30), ((3, 3, 3), 12), ((9,), 40),
                 ((2, 2, 2, 2), 38)]


@pytest.mark.parametrize("shape,cases", _RANDOM_PAIRS)
def test_closure_matches_the_oracle(shape, cases):
    rng = random.Random(-sum(shape))
    doubled = tuple(2 * n + 1 for n in shape)
    for _ in range(cases):
        picks = _random_picks(rng, shape)
        mask = cubical_oracle.mask_of(picks, doubled)
        closed = block.closure(mask)
        assert np.array_equal(closed, cubical_oracle.mask_of(
            cubical_oracle.closure(picks), doubled))
        assert np.array_equal(mask, cubical_oracle.mask_of(picks, doubled))


@pytest.mark.parametrize("shape,cases", _RANDOM_PAIRS)
def test_reduction_matches_snf_on_random_cubical_pairs(shape, cases):
    for _, _, cells, sub in _random_pairs(shape, cases):
        c = homalg.build_cubical_complex(cells, sub)
        for coeff in ("Z", "Z2"):
            assert homalg.homology(c, coeff) == _oracle_homology(c, coeff)


def _dense_cubical_boundaries(cells, sub):
    """Dense boundary matrices of the pair, filled entry by entry from
    the oracle's ``cell_boundary`` with the cells of each dimension in
    sorted order."""
    use = sorted(set(cells) - set(sub))
    by_dim = {}
    for c in use:
        by_dim.setdefault(sum(lo != hi for lo, hi in c), []).append(c)
    index = {c: i for lst in by_dim.values() for i, c in enumerate(lst)}
    top = max(by_dim, default=0)
    dims = [len(by_dim.get(k, ())) for k in range(top + 1)]
    boundaries = {}
    for k in range(1, top + 1):
        M = [[0] * dims[k] for _ in range(dims[k - 1])]
        for j, c in enumerate(by_dim[k]):
            for f, sign in cubical_oracle.cell_boundary(c):
                if f not in sub:
                    M[index[f]][j] += sign
        boundaries[k] = M
    return dims, boundaries


def _assert_matches_the_oracle(c, oc):
    """The same chain groups and columns, dict for dict, as the oracle's
    complex, and the same homology over Z and over Z/2."""
    assert c.dims == oc.dims
    assert c.columns == oc.columns
    for coeff in ("Z", "Z2"):
        assert homalg.homology(c, coeff) == homalg.homology(oc, coeff)


@pytest.mark.parametrize("shape,cases", _RANDOM_PAIRS)
def test_cubical_columns_match_the_dense_boundaries(shape, cases):
    for cells, sub, cell_mask, sub_mask in _random_pairs(shape, cases):
        c = homalg.build_cubical_complex(cell_mask, sub_mask)
        _assert_matches_the_oracle(c, cubical_oracle.build_cubical_complex(
            cells, sub))
        dims, boundaries = _dense_cubical_boundaries(cells, sub)
        assert c.dims == dims
        for k in range(1, c.top + 1):
            assert c.boundary(k) == boundaries[k]
            assert all(0 not in col.values() for col in c.columns[k])
        dense = homalg.ChainComplex(dims, boundaries)
        assert dense.columns == c.columns
        for coeff in ("Z", "Z2"):
            assert homalg.homology(dense, coeff) == homalg.homology(c, coeff)


def test_complexes_from_matrices_and_from_columns_agree():
    rng = random.Random(7)
    for _ in range(40):
        dims = [rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
        boundaries = {k: [[rng.choice((0, 0, 0, 1, -1, 2))
                           for _ in range(dims[k])]
                          for _ in range(dims[k - 1])]
                      for k in range(1, len(dims)) if rng.random() < 0.8}
        dense = homalg.ChainComplex(dims, boundaries)
        columns = {k: [{i: row[j] for i, row in enumerate(M) if row[j]}
                       for j in range(dims[k])]
                   for k, M in boundaries.items()}
        sparse = homalg.ChainComplex(dims, columns=columns)
        for k in range(len(dims) + 1):
            assert dense.boundary(k) == sparse.boundary(k)
        for coeff in ("Z", "Z2"):
            bad = homalg.verify_d_squared(dense, coeff)
            assert bad == homalg.verify_d_squared(sparse, coeff)
            if bad is None:
                assert homalg.homology(dense, coeff) == \
                    homalg.homology(sparse, coeff)


# ---------------------------------------------------------------------------
# cubical complexes

def _classified(box, field_text, spacing=0.5):
    m = len(box)
    b = block.build_block(box=box, spacing=spacing)
    fld = expr.parse_field(field_text, m)
    cb = block.classify_boundary(b, fld)
    return cb, block.exit_set(cb)


def test_cubical_square_relative_two_edges():
    cb, ex = _classified([(-1, 1), (-1, 1)], ["x1", "-x2"])
    h = homalg.cubical_relative_homology(cb, ex)
    assert h.describe() == "H_1 = Z"


def _assert_block_matches_the_oracle(b, ex=None):
    """The cells, the exit set ``ex`` (none by default) and the relative
    complex of a block agree with the oracle's tuple forms."""
    _, lo, _ = b._cube_box
    cells = block.block_cells(b)
    assert cubical_oracle.cells_of(cells, lo) == cubical_oracle.block_cells(b)
    if ex is None:
        ex, oex = np.zeros_like(cells), set()
    else:
        oex = cubical_oracle.exit_set(b)
    assert cubical_oracle.cells_of(ex, lo) == oex
    _assert_matches_the_oracle(homalg.build_cubical_complex(cells, ex),
                               cubical_oracle.build_cubical_complex(
                                   cubical_oracle.block_cells(b), oex))


def test_cubical_interval_absolute():
    cb, ex = _classified([(-2, 2)], ["x1 - x1^3"])
    assert np.count_nonzero(ex) == 0
    h = homalg.cubical_relative_homology(cb, ex)
    assert h.describe() == "H_0 = Z"


def test_cubical_interval_relative_endpoints():
    cb, ex = _classified([(-1, 1)], ["x1"])
    h = homalg.cubical_relative_homology(cb, ex)
    assert h.describe() == "H_1 = Z"


def test_cubical_annulus_absolute():
    cubes = [(i, j) for i in range(8) for j in range(8)
             if not (i in (3, 4) and j in (3, 4))]
    b = block.build_block(cubes=cubes, origin=(-2.0, -2.0), spacing=0.5)
    none = np.zeros_like(block.block_cells(b))
    h = homalg.cubical_relative_homology(b, none)
    assert h.describe() == "H_0 = Z; H_1 = Z"


def test_cubical_annulus_at_negative_cube_indices():
    # the annulus above, its cube indices starting at -4 instead of 0
    cubes = [(i, j) for i in range(-4, 4) for j in range(-4, 4)
             if not (i in (-1, 0) and j in (-1, 0))]
    b = block.build_block(cubes=cubes, origin=(0.0, 0.0), spacing=0.5)
    cells = block.block_cells(b)
    assert cells.shape == (17, 17)
    assert np.count_nonzero(cells) == len(cubical_oracle.block_cells(b))
    _assert_block_matches_the_oracle(b)
    h = homalg.cubical_relative_homology(b, np.zeros_like(cells))
    assert h.describe() == "H_0 = Z; H_1 = Z"


def test_cubical_saddle_3d_quarter_spacing():
    # 512 cubes, chain groups [567, 1656, 1600, 512]
    cb, ex = _classified([(-1, 1)] * 3, ["x1", "-x2", "-x3"], spacing=0.25)
    _assert_block_matches_the_oracle(cb, ex)
    for coeff, want in (("Z", "H_1 = Z"), ("Z2", "H_1 = Z2")):
        h = homalg.cubical_relative_homology(cb, ex, coeff=coeff)
        assert h.describe() == want


def test_cubical_path_builds_no_dense_matrix(monkeypatch):
    cb, ex = _classified([(-1, 1)] * 3, ["x1", "-x2", "-x3"], spacing=0.25)

    def dense(r, c):
        raise AssertionError("dense matrix on the cubical path")

    monkeypatch.setattr(homalg, "zeros", dense)
    for coeff, want in (("Z", "H_1 = Z"), ("Z2", "H_1 = Z2")):
        h = homalg.cubical_relative_homology(cb, ex, coeff=coeff)
        assert h.describe() == want


def test_cubical_saddle_3d_eighth_spacing():
    # 4,096 cubes, chain groups [4335, 12784, 12544, 4096]
    cb, ex = _classified([(-1, 1)] * 3, ["x1", "-x2", "-x3"], spacing=0.125)
    _assert_block_matches_the_oracle(cb, ex)
    for coeff, want in (("Z", "H_1 = Z"), ("Z2", "H_1 = Z2")):
        h = homalg.cubical_relative_homology(cb, ex, coeff=coeff)
        assert h.describe() == want


def test_cubical_rejects_non_closed_subcomplex():
    b = block.build_block(box=[(0, 1)], spacing=0.5)
    cells = block.block_cells(b)
    edge = np.zeros_like(cells)
    edge[1] = True  # the edge (0, 1) without its end points
    with pytest.raises(homalg.HomalgError, match="relative subcomplex"):
        homalg.build_cubical_complex(cells, edge)
    with pytest.raises(homalg.HomalgError, match="cell set"):
        homalg.build_cubical_complex(edge, np.zeros_like(cells))
    with pytest.raises(homalg.HomalgError, match="doubled grid"):
        homalg.build_cubical_complex(cells, edge[:3])
    with pytest.raises(homalg.HomalgError, match="doubled grid"):
        homalg.build_cubical_complex(cells[:4], edge[:4])


def test_cell_boundary_of_boundary_vanishes():
    # the closed unit cube of every dimension 1..4: each k-cell has 2k
    # faces of sign +-1, and d_{k-1} d_k = 0 entry by entry
    for m in range(1, 5):
        cube = np.zeros((3,) * m, dtype=bool)
        cube[(1,) * m] = True
        c = homalg.build_cubical_complex(block.closure(cube))
        assert c.dims == [math.comb(m, k) * 2 ** (m - k)
                          for k in range(m + 1)]
        for k in range(1, m + 1):
            assert all(len(col) == 2 * k and set(col.values()) <= {1, -1}
                       for col in c.columns[k])
        for k in range(2, m + 1):
            for col in c.columns[k]:
                acc = {}
                for face, s in col.items():
                    for sub, s2 in c.columns[k - 1][face].items():
                        acc[sub] = acc.get(sub, 0) + s * s2
                assert all(v == 0 for v in acc.values())


# ---------------------------------------------------------------------------
# Poincare polynomials and Morse relations

def test_poincare_from_homology():
    h = homalg.HomologyResult([1, 1], {})
    assert str(homalg.poincare(h)) == "1 + t"
    t_only = homalg.HomologyResult([0, 0], {1: [2]})
    assert str(homalg.poincare(t_only)) == "0"


def test_relations_double_well_decomposition():
    one = homalg.PoincarePolynomial((1,))
    t = homalg.PoincarePolynomial((0, 1))
    q = homalg.relations_check([one, one, t], one)
    assert q.coeffs == (1,)


def test_relations_trivial():
    one = homalg.PoincarePolynomial((1,))
    assert homalg.relations_check([one], one).coeffs == ()


def test_relations_chi_mismatch():
    one = homalg.PoincarePolynomial((1,))
    with pytest.raises(homalg.RelationsError, match="remainder"):
        homalg.relations_check([one, one], one)


def test_relations_negative_quotient():
    one = homalg.PoincarePolynomial((1,))
    t2 = homalg.PoincarePolynomial((0, 0, 1))
    # deficit t^2 - 1 = (1+t)(t-1) has a negative quotient coefficient
    with pytest.raises(homalg.RelationsError, match="negative"):
        homalg.relations_check([t2], one)


def test_relations_q_at_one_is_rank_slack():
    parts = [homalg.PoincarePolynomial((1,)),
             homalg.PoincarePolynomial((1,)),
             homalg.PoincarePolynomial((0, 1))]
    whole = homalg.PoincarePolynomial((1,))
    q = homalg.relations_check(parts, whole)
    assert 2 * q(1) == sum(p(1) for p in parts) - whole(1)
