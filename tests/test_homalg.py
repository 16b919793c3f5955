"""Exact integer homological algebra."""
import math
import random

import pytest

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
        assert len(d) == homalg.rank_fractions(A)


def test_rank_helpers_agree():
    rng = random.Random(1)
    for _ in range(20):
        A = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
        assert len(homalg.smith_normal_form(A)[0]) == \
            homalg.rank_fractions(A)


def test_rank_mod2():
    assert homalg.rank_mod2([[2, 0], [0, 1]]) == 1
    assert homalg.rank_mod2([[1, 1], [1, 1]]) == 1
    assert homalg.rank_mod2([[1, 0], [0, 1]]) == 2


def test_kernel_basis_spans_kernel():
    A = [[1, -1, 0], [0, 0, 0]]
    K = homalg.kernel_basis_fractions(A, ncols=3)
    assert len(K) == 2
    for v in K:
        for row in A:
            assert sum(a * x for a, x in zip(row, v)) == 0


def test_kernel_basis_of_empty_matrix_needs_ncols():
    K = homalg.kernel_basis_fractions([], ncols=2)
    assert len(K) == 2


def test_solve_fractions():
    A = [[2, 0], [0, 3]]
    x = homalg.solve_fractions(A, [4, 9])
    assert [int(v) for v in x] == [2, 3]
    assert homalg.solve_fractions([[1, 0], [1, 0]], [1, 2]) is None


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
            ranks[k] = homalg.rank_mod2(c.boundary(k))
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


def _random_cells(rng, shape):
    """A random closed cubical cell set in the grid of the given shape:
    the closure of random cells of every dimension."""
    picks = []
    for _ in range(rng.randint(1, 2 * math.prod(shape))):
        cell = []
        for n in shape:
            lo = rng.randrange(n)
            cell.append((lo, lo + rng.randint(0, 1)))
        picks.append(tuple(cell))
    return block.closure(picks)


@pytest.mark.parametrize("shape,cases", [((5, 5), 30), ((3, 3, 3), 12)])
def test_reduction_matches_snf_on_random_cubical_pairs(shape, cases):
    rng = random.Random(sum(shape))
    for _ in range(cases):
        cells = _random_cells(rng, shape)
        ordered = sorted(cells)
        sub = block.closure(rng.sample(ordered,
                                       rng.randint(0, len(ordered) // 3)))
        c = homalg.build_cubical_complex(cells, sub)
        for coeff in ("Z", "Z2"):
            assert homalg.homology(c, coeff) == _oracle_homology(c, coeff)


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


def test_cubical_interval_absolute():
    cb, ex = _classified([(-2, 2)], ["x1 - x1^3"])
    assert ex == set()
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
    h = homalg.cubical_relative_homology(b, set())
    assert h.describe() == "H_0 = Z; H_1 = Z"


def test_cubical_saddle_3d_quarter_spacing():
    # 512 cubes, chain groups [567, 1656, 1600, 512]
    cb, ex = _classified([(-1, 1)] * 3, ["x1", "-x2", "-x3"], spacing=0.25)
    for coeff, want in (("Z", "H_1 = Z"), ("Z2", "H_1 = Z2")):
        h = homalg.cubical_relative_homology(cb, ex, coeff=coeff)
        assert h.describe() == want


def test_cubical_rejects_non_closed_subcomplex():
    b = block.build_block(box=[(0, 1)], spacing=0.5)
    edge = ((0, 1),)
    with pytest.raises(homalg.HomalgError):
        homalg.build_cubical_complex(block.block_cells(b), {edge})


def test_cell_boundary_of_boundary_vanishes():
    square = ((0, 1), (0, 1))
    acc = {}
    for face, s in homalg.cell_boundary(square):
        for sub, s2 in homalg.cell_boundary(face):
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
