"""Exact integer homological algebra."""
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
