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

def _check_snf(A):
    """The invariant factors of A: a divisibility chain of positive
    integers, equal to the determinantal-divisor oracle's."""
    d = homalg.smith_normal_form(A)
    assert d == algebra_oracle.invariant_factors(A)
    assert all(a >= 1 and b % a == 0 for a, b in zip(d, d[1:]))
    return d


def test_snf_diag_2_3():
    assert _check_snf([[2, 0], [0, 3]]) == [1, 6]


def test_snf_zero_matrix():
    assert _check_snf([[0, 0], [0, 0]]) == []


def test_snf_empty_matrix():
    assert _check_snf([]) == []


def test_snf_random_matrices_match_the_determinantal_divisors():
    rng = random.Random(7)
    for _ in range(25):
        A = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(6)]
        assert len(_check_snf(A)) == algebra_oracle.rank_fractions(A)


@pytest.mark.parametrize("A,want", [
    ([[], [], []], []),
    ([[0, 0, 0], [0, 0, 0]], []),
    ([[4, -6, 10]], [2]),
    ([[0], [-9], [12]], [3]),
    ([[4, 0], [0, 6]], [2, 12]),
    ([[-4, 0, 0], [0, 0, -6], [0, 0, 0]], [2, 12]),
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12]),
    ([[10 ** 6, -10 ** 6 + 1], [999983, 10 ** 6 - 7]], [1, 1999975000017]),
], ids=["no-columns", "all-zero", "1xn", "nx1", "diag-4-6", "negative-diag",
        "negative-entries", "entries-1e6"])
def test_snf_edge_shapes_match_the_determinantal_divisors(A, want):
    assert _check_snf(A) == want


def test_snf_random_shapes_match_the_determinantal_divisors():
    # every shape up to 5 x 6, with zero, rank-2 and 10^6-sized matrices
    rng = random.Random(3)
    for trial in range(120):
        rows, cols = rng.randint(0, 5), rng.randint(0, 6)
        kind = trial % 4
        if kind == 1:
            A = [[0] * cols for _ in range(rows)]
        elif kind == 2:
            A = algebra_oracle.matmul(
                [[rng.randint(-3, 3) for _ in range(2)] for _ in range(rows)],
                [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(2)])
            A = A or [[] for _ in range(rows)]
        else:
            bound = 10 ** 6 if kind == 3 else 9
            A = [[rng.randint(-bound, bound) for _ in range(cols)]
                 for _ in range(rows)]
        assert len(_check_snf(A)) == algebra_oracle.rank_fractions(A)


def test_rank_helpers_agree():
    rng = random.Random(1)
    for _ in range(20):
        A = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
        assert len(_check_snf(A)) == algebra_oracle.rank_fractions(A)


def test_rank_mod2():
    assert algebra_oracle.rank_mod2([[2, 0], [0, 1]]) == 1
    assert algebra_oracle.rank_mod2([[1, 1], [1, 1]]) == 1
    assert algebra_oracle.rank_mod2([[1, 0], [0, 1]]) == 2


# ---------------------------------------------------------------------------
# chain complexes and homology

def test_homology_double_well_complex():
    c = algebra_oracle.complex_of([2, 1], {1: [[1], [-1]]})
    h = homalg.homology(c)
    assert h.betti == [1, 0]
    assert not any(h.torsion.values())


def test_homology_zero_complex_degree_one():
    c = algebra_oracle.complex_of([0, 1], {})
    h = homalg.homology(c)
    assert h.betti == [0, 1]


def test_homology_torsion():
    c = algebra_oracle.complex_of([1, 1], {1: [[2]]})
    h = homalg.homology(c)
    assert h.betti == [0, 0]
    assert h.torsion == {0: [2]}
    assert h.describe() == "H_0 = Z/2"


def test_homology_names_its_coefficient_ring():
    c = algebra_oracle.complex_of([2, 1], {1: [[0], [0]]})
    assert homalg.homology(c).describe() == "H_0 = Z^2; H_1 = Z"
    h2 = homalg.homology(c, coeff="Z2")
    assert h2.describe() == "H_0 = Z2^2; H_1 = Z2"
    assert h2 != homalg.homology(c)


def test_homology_rejects_non_complex():
    c = algebra_oracle.complex_of([1, 1, 1], {1: [[1]], 2: [[1]]})
    assert homalg.verify_d_squared(c) == (1, 0, 0, 1)
    with pytest.raises(homalg.NotAComplexError):
        homalg.homology(c)


def test_d_squared_is_checked_over_the_coefficient_ring():
    # d_1 . d_2 = [[2]]: a complex over Z/2 only.  The Z/2 homology is
    # read off the homology over Z, so it is refused over both rings
    c = algebra_oracle.complex_of([1, 2, 1], {1: [[1, 1]], 2: [[1], [1]]})
    assert homalg.verify_d_squared(c) == (1, 0, 0, 2)
    for coeff in ("Z", "Z2"):
        with pytest.raises(homalg.NotAComplexError,
                           match=r"d_1 \. d_2 has entry 2 at \(0, 0\)"):
            homalg.homology(c, coeff)


def test_d_squared_reports_the_first_entry_in_row_major_order():
    rng = random.Random(5)
    for _ in range(30):
        dims = [rng.randint(1, 4) for _ in range(4)]
        c = algebra_oracle.complex_of(dims, {
            k: [[rng.choice((0, 0, 1, -1, 2)) for _ in range(dims[k])]
                for _ in range(dims[k - 1])] for k in (1, 2, 3)})
        want = None
        for k in (1, 2):
            P = algebra_oracle.matmul(algebra_oracle.dense(c, k),
                                      algebra_oracle.dense(c, k + 1))
            want = next(((k, i, j, v) for i, row in enumerate(P)
                         for j, v in enumerate(row) if v), None)
            if want:
                break
        assert homalg.verify_d_squared(c) == want


def test_homology_invariant_under_column_negation():
    c1 = algebra_oracle.complex_of([2, 2], {1: [[1, 2], [-1, 0]]})
    c2 = algebra_oracle.complex_of([2, 2], {1: [[1, -2], [-1, 0]]})
    assert homalg.homology(c1) == homalg.homology(c2)


def test_euler_characteristic_matches_chain_ranks():
    c = algebra_oracle.complex_of([3, 2, 1], {1: [[0, 0], [0, 0], [0, 0]],
                                        2: [[0], [0]]})
    h = homalg.homology(c)
    assert sum((-1) ** k * b for k, b in enumerate(h.betti)) == 3 - 2 + 1


def test_mod2_homology():
    c = algebra_oracle.complex_of([1, 1], {1: [[2]]})
    h2 = homalg.homology(c, coeff="Z2")
    # Z/2 contributes a rank in degrees 0 and 1 over Z/2 coefficients
    assert h2.betti == [1, 1]


def test_mod2_homology_of_a_residue_with_unit_entries(monkeypatch):
    # with no cancellation, the Smith normal form takes the unit entries
    # too, and the mod-2 ranks read off it are still right
    c = algebra_oracle.complex_of([2, 2], {1: [[1, 0], [0, 2]]})
    monkeypatch.setattr(homalg, "_reduce",
                        lambda cols, dims: [list(range(n)) for n in dims])
    assert homalg.homology(c, coeff="Z2").betti == [1, 1]
    assert homalg.homology(c).torsion == {0: [2]}


# ---------------------------------------------------------------------------
# reduction against the Smith normal form of the unreduced complex

def _oracle_homology(c, coeff):
    """Homology from one SNF (or mod-2 rank) of every unreduced d_k."""
    ranks = [0] * (c.top + 2)
    torsion = {}
    for k in range(1, c.top + 1):
        if coeff == "Z2":
            ranks[k] = algebra_oracle.rank_mod2(algebra_oracle.dense(c, k))
        else:
            diag = homalg.smith_normal_form(algebra_oracle.dense(c, k))
            ranks[k] = len(diag)
            torsion[k - 1] = [d for d in diag if d > 1]
    betti = [c.dims[k] - ranks[k] - ranks[k + 1] for k in range(c.top + 1)]
    return homalg.HomologyResult(betti, torsion, coeff)


def _unimodular(rng, n):
    """(P, P^-1) for a random product of elementary integer operations."""
    P, Q = algebra_oracle.identity(n), algebra_oracle.identity(n)
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
    drawn from 1, 2, 3, 6 and 0, together with its homology over Z and
    over Z/2, the latter from the mod-2 ranks of the D_k.

    C_k is spanned by the targets of d_{k+1}, some free generators and the
    sources of d_k, in that order, so that D_k D_{k+1} = 0."""
    factors = [[]] + [[rng.choice((1, 1, 2, 3, 6, 0)) for _ in
                       range(rng.randint(0, 3))] for _ in range(top)]
    factors.append([])
    free = [rng.randint(0, 2) for _ in range(top + 1)]
    dims = [len(factors[k + 1]) + free[k] + len(factors[k])
            for k in range(top + 1)]
    P = [_unimodular(rng, n) for n in dims]
    boundaries = {}
    for k in range(1, top + 1):
        D = [[0] * dims[k] for _ in range(dims[k - 1])]
        first = len(factors[k + 1]) + free[k]
        for s, t in enumerate(factors[k]):
            D[s][first + s] = t
        if dims[k - 1] and dims[k]:
            boundaries[k] = algebra_oracle.matmul(
                algebra_oracle.matmul(P[k - 1][0], D), P[k][1])
    betti = [free[k] + factors[k].count(0) + factors[k + 1].count(0)
             for k in range(top + 1)]
    # diag(2, 3) has the invariant factors 1, 6
    torsion = {k - 1: [d for d in algebra_oracle.invariant_factors(
                   [[t * (i == j) for j in range(len(f))]
                    for i, t in enumerate(f)]) if d > 1]
               for k, f in enumerate(factors[1:top + 1], 1)}
    odd = [sum(t % 2 for t in f) for f in factors]
    betti2 = [dims[k] - odd[k] - odd[k + 1] for k in range(top + 1)]
    return (algebra_oracle.complex_of(dims, boundaries),
            homalg.HomologyResult(betti, torsion),
            homalg.HomologyResult(betti2, {}, "Z2"))


def test_reduction_recovers_known_invariant_factors():
    rng = random.Random(11)
    seen = set()
    for _ in range(40):
        c, want, want2 = _known_complex(rng, rng.randint(1, 3))
        assert homalg.verify_d_squared(c) is None
        assert homalg.homology(c) == want == _oracle_homology(c, "Z")
        assert homalg.homology(c, "Z2") == want2 == \
            _oracle_homology(c, "Z2")
        seen |= {"even" if d % 2 == 0 else "odd"
                 for ds in want.torsion.values() for d in ds}
        seen |= {"free"} if any(want.betti) else set()
    # the universal coefficients are checked on every kind of summand
    assert seen == {"even", "odd", "free"}


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


def _complex_of(dims, face, sign):
    """The chain complex of face and sign arrays in the form of
    ``homalg._cubical_arrays``, as sparse columns with no zero entry."""
    return homalg.ChainComplex(dims, columns={
        k: [{i: v for i, v in zip(fr, sr) if i >= 0 and v}
            for fr, sr in zip(face[k].tolist(), sign[k].tolist())]
        for k in face})


def _full_complex(cells, sub=None):
    """The whole cubical complex of the pair."""
    return _complex_of(*homalg._cubical_arrays(cells, sub)[-3:])


def _assert_no_reduction_pair(c):
    """No cell of the complex has exactly one face or exactly one coface
    with an entry."""
    for k in range(1, c.top + 1):
        assert all(len(col) != 1 for col in c.columns[k])
        cofaces = [0] * c.dims[k - 1]
        for col in c.columns[k]:
            for i in col:
                cofaces[i] += 1
        assert 1 not in cofaces


@pytest.mark.parametrize("shape,cases", _RANDOM_PAIRS)
def test_reduction_matches_snf_on_random_cubical_pairs(shape, cases):
    for cells, sub, cell_mask, sub_mask in _random_pairs(shape, cases):
        whole = cubical_oracle.build_cubical_complex(cells, sub)
        c = homalg.build_cubical_complex(cell_mask, sub_mask)
        assert len(c.dims) == len(whole.dims)
        _assert_no_reduction_pair(c)
        for coeff in ("Z", "Z2"):
            assert homalg.homology(c, coeff) == \
                _oracle_homology(whole, coeff)


def _corrupted(rng, shape, cases, change):
    """The arrays of random cubical pairs with one to six sign entries
    changed by ``change(sign)``, and the columns of the changed complex."""
    for _, _, cells, sub in _random_pairs(shape, cases):
        *_, dims, face, sign = homalg._cubical_arrays(cells, sub)
        if len(dims) < 3:
            continue
        entries = [(k, j, t) for k in face
                   for j, t in np.argwhere(face[k] >= 0).tolist()]
        for k, j, t in rng.sample(entries,
                                  min(len(entries), rng.randint(1, 6))):
            sign[k][j, t] = change(sign[k][j, t])
        yield face, sign, _complex_of(dims, face, sign)


def _assert_d_squared_check_agrees(face, sign, c):
    """The array check raises exactly when ``verify_d_squared`` finds an
    entry, and names that entry."""
    bad = homalg.verify_d_squared(c)
    if bad is None:
        homalg._check_d_squared(face, sign)
        return
    k, i, j, v = bad
    with pytest.raises(homalg.NotAComplexError) as err:
        homalg._check_d_squared(face, sign)
    assert str(err.value) == f"d_{k} . d_{k + 1} has entry {v} at ({i}, {j})"


@pytest.mark.parametrize("shape,cases", _RANDOM_PAIRS)
def test_array_d_squared_check_names_the_entry_of_the_columns(shape, cases):
    rng = random.Random(len(shape))
    failed = 0
    for face, sign, c in _corrupted(rng, shape, cases,
                                    lambda s: rng.choice((0, -s, 3 * s))):
        _assert_d_squared_check_agrees(face, sign, c)
        failed += homalg.verify_d_squared(c) is not None
    assert failed or shape == (9,)  # a 1-D pair has no d_1 . d_2


def test_array_d_squared_check_refuses_an_even_entry():
    # a sign turned over changes its entry by 2: the pair stays a complex
    # over Z/2 but is none over Z, and the check, over Z, names the entry
    rng = random.Random(2)
    seen = 0
    for face, sign, c in _corrupted(rng, (3, 3, 3), 12, lambda s: -s):
        bad = homalg.verify_d_squared(c)
        if bad is not None:
            seen += 1
            assert bad[-1] % 2 == 0
            _assert_d_squared_check_agrees(face, sign, c)
    assert seen


def test_d_squared_is_checked_on_the_whole_cubical_complex(monkeypatch):
    cube = np.zeros((5, 5, 5), dtype=bool)
    cube[1::2, 1::2, 1::2] = True
    cells = block.closure(cube)
    # the check runs before any reduction, on an entry that is even (a
    # sign turned over) and on one that is odd (a sign set to 0)
    monkeypatch.setattr(homalg, "_coreduce", None)
    for change in (-1, 0):
        arrays = homalg._cubical_arrays(cells)
        arrays[-1][2][0, 0] *= change
        with monkeypatch.context() as mp:
            mp.setattr(homalg, "_cubical_arrays", lambda *a: arrays)
            with pytest.raises(homalg.NotAComplexError, match="d_1 . d_2"):
                homalg.build_cubical_complex(cells)


@pytest.mark.parametrize("shape,cases", _RANDOM_PAIRS)
def test_array_d_squared_check_leaves_out_the_dropped_cells(shape, cases):
    # a sign at a slot whose face is in the relative subcomplex is on no
    # path between live cells: changing it leaves both checks silent
    rng = random.Random(-len(shape))
    changed = 0
    for _, _, cells, sub in _random_pairs(shape, cases):
        *_, dims, face, sign = homalg._cubical_arrays(cells, sub)
        for k in face:
            dropped = np.argwhere(face[k] < 0).tolist()
            for j, t in dropped:
                sign[k][j, t] = rng.choice((0, 2, -3))
            changed += len(dropped)
        c = _complex_of(dims, face, sign)
        assert homalg.verify_d_squared(c) is None
        homalg._check_d_squared(face, sign)
    assert changed


@pytest.mark.parametrize("k", [1, 2, 3])
def test_each_face_of_face_path_has_one_partner(k):
    # one (k+1)-cell of a 4-D grid, odd along axes that skip the first one
    # for k < 3, on the doubled grid of two cubes per axis
    axes = {1: (1, 3), 2: (1, 2, 3), 3: (0, 1, 2, 3)}[k]
    cell = tuple((0, 1) if a in axes else (1, 1) for a in range(4))
    cells = cubical_oracle.closure([cell])
    *_, dims, face, sign = homalg._cubical_arrays(
        cubical_oracle.mask_of(cells, (5,) * 4))
    assert dims[k + 1:] == [1]
    rank = {c: i for i, c in enumerate(sorted(
        c for c in cells if cubical_oracle.cell_dim(c) == k - 1))}
    reached, prod = [], []
    for t, (f, sf) in enumerate(cubical_oracle.cell_boundary(cell)):
        for u, (g, sg) in enumerate(cubical_oracle.cell_boundary(f)):
            reached.append(face[k][face[k + 1][0, t], u])
            prod.append(sign[k + 1][0, t] * sign[k][face[k + 1][0, t], u])
            assert reached[-1] == rank[g] and prod[-1] == sf * sg
    path, partner = homalg._partners(k)
    assert homalg._partners(k) is homalg._partners(k)
    other = dict(zip(path.tolist(), partner.tolist()))
    other.update(zip(partner.tolist(), path.tolist()))
    assert sorted(other) == list(range(len(reached)))
    for p, q in other.items():
        assert q != p and other[q] == p
        assert reached[q] == reached[p] and prod[q] == -prod[p]


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
        c = _full_complex(cell_mask, sub_mask)
        _assert_matches_the_oracle(c, cubical_oracle.build_cubical_complex(
            cells, sub))
        dims, boundaries = _dense_cubical_boundaries(cells, sub)
        assert c.dims == dims
        for k in range(1, c.top + 1):
            assert algebra_oracle.dense(c, k) == boundaries[k]
            assert all(0 not in col.values() for col in c.columns[k])
        dense = algebra_oracle.complex_of(dims, boundaries)
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
        dense = algebra_oracle.complex_of(dims, boundaries)
        sparse = homalg.ChainComplex(dims, columns={
            k: [{i: v for i, v in enumerate(col) if v} for col in zip(*M)]
            for k, M in boundaries.items() if dims[k - 1]})
        assert dense.columns == sparse.columns
        for k in range(len(dims) + 1):
            rows = dims[k - 1] if 1 <= k < len(dims) else 0
            cols = dims[k] if k < len(dims) else 0
            assert algebra_oracle.dense(sparse, k) == boundaries.get(
                k, [[0] * cols for _ in range(rows)])
        bad = homalg.verify_d_squared(dense)
        assert bad == homalg.verify_d_squared(sparse)
        for coeff in ("Z", "Z2") if bad is None else ():
            assert homalg.homology(dense, coeff) == \
                homalg.homology(sparse, coeff)


# ---------------------------------------------------------------------------
# cubical complexes

def _classified(box, field_text, spacing=0.5):
    m = len(box)
    b = block.build_block(box=box, spacing=spacing)
    fld = expr.parse_field(field_text, m)
    tags = block.classify_boundary(b, fld)
    return b, tags, block.exit_set(b, tags)


def test_cubical_square_relative_two_edges():
    b, _, ex = _classified([(-1, 1), (-1, 1)], ["x1", "-x2"])
    h = homalg.cubical_relative_homology(b, ex)
    assert h.describe() == "H_1 = Z"


def _assert_block_matches_the_oracle(b, tags=None):
    """The cells, the exit set of the face ``tags`` (none by default) and
    the relative complex of a block agree with the oracle's tuple forms."""
    lo = b.cubes.min(axis=0)
    cells = block.block_cells(b)
    assert cubical_oracle.cells_of(cells, lo) == cubical_oracle.block_cells(b)
    if tags is None:
        ex, oex = np.zeros_like(cells), set()
    else:
        ex, oex = block.exit_set(b, tags), cubical_oracle.exit_set(b, tags)
    assert cubical_oracle.cells_of(ex, lo) == oex
    _assert_matches_the_oracle(_full_complex(cells, ex),
                               cubical_oracle.build_cubical_complex(
                                   cubical_oracle.block_cells(b), oex))


def test_cubical_interval_absolute():
    b, _, ex = _classified([(-2, 2)], ["x1 - x1^3"])
    assert np.count_nonzero(ex) == 0
    h = homalg.cubical_relative_homology(b, ex)
    assert h.describe() == "H_0 = Z"


def test_cubical_interval_relative_endpoints():
    b, _, ex = _classified([(-1, 1)], ["x1"])
    h = homalg.cubical_relative_homology(b, ex)
    assert h.describe() == "H_1 = Z"


def test_cubical_cube_relative_to_its_boundary():
    # every chain group below the top one is zero
    for m in range(1, 5):
        cube = np.zeros((3,) * m, dtype=bool)
        cube[(1,) * m] = True
        cells = block.closure(cube)
        assert _full_complex(cells, cells & ~cube).dims == [0] * m + [1]
        c = homalg.build_cubical_complex(cells, cells & ~cube)
        for coeff in ("Z", "Z2"):
            assert homalg.homology(c, coeff).describe() == f"H_{m} = {coeff}"


def test_cubical_cube_relative_to_its_boundary_beside_an_edge():
    # live edges and a live cube, but no live square: d_1 . d_2 has no
    # column and d_2 . d_3 no row
    cube = np.zeros((7, 3, 3), dtype=bool)
    cube[1, 1, 1] = True
    edge = np.zeros_like(cube)
    edge[5, 0, 0] = True
    cells = block.closure(cube | edge)
    sub = block.closure(cube) & ~cube
    assert _full_complex(cells, sub).dims == [2, 1, 0, 1]
    c = homalg.build_cubical_complex(cells, sub)
    for coeff in ("Z", "Z2"):
        assert homalg.homology(c, coeff).describe() == \
            f"H_0 = {coeff}; H_3 = {coeff}"


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
    b, tags, ex = _classified([(-1, 1)] * 3, ["x1", "-x2", "-x3"],
                              spacing=0.25)
    _assert_block_matches_the_oracle(b, tags)
    # the coreductions and collapses leave one edge, the generator
    c = homalg.build_cubical_complex(block.block_cells(b), ex)
    assert c.dims == [0, 1, 0, 0]
    for coeff, want in (("Z", "H_1 = Z"), ("Z2", "H_1 = Z2")):
        h = homalg.cubical_relative_homology(b, ex, coeff=coeff)
        assert h.describe() == want


def test_cubical_path_builds_no_dense_matrix(monkeypatch):
    # the residue of the saddle has no entry: no degree needs the Smith
    # normal form, the one place a dense matrix is built
    b, _, ex = _classified([(-1, 1)] * 3, ["x1", "-x2", "-x3"], spacing=0.25)

    def dense(A):
        raise AssertionError("dense matrix on the cubical path")

    monkeypatch.setattr(homalg, "smith_normal_form", dense)
    for coeff, want in (("Z", "H_1 = Z"), ("Z2", "H_1 = Z2")):
        h = homalg.cubical_relative_homology(b, ex, coeff=coeff)
        assert h.describe() == want


def test_cubical_saddle_3d_eighth_spacing():
    # 4,096 cubes, chain groups [4335, 12784, 12544, 4096]
    b, tags, ex = _classified([(-1, 1)] * 3, ["x1", "-x2", "-x3"],
                              spacing=0.125)
    _assert_block_matches_the_oracle(b, tags)
    for coeff, want in (("Z", "H_1 = Z"), ("Z2", "H_1 = Z2")):
        h = homalg.cubical_relative_homology(b, ex, coeff=coeff)
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
        c = _full_complex(block.closure(cube))
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
    # a Poincare polynomial at t = 1 is the sum of its coefficients
    assert 2 * sum(q.coeffs) == \
        sum(sum(p.coeffs) for p in parts) - sum(whole.coeffs)
