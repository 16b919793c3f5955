"""Exact linear algebra over Q and Z/2: the references that the Smith
normal form routines of ``mcfhom.homalg`` and the connection-matrix
algebra of ``mcfhom.conley`` are tested against.

``rank_fractions``, ``kernel_basis_fractions`` and ``solve_fractions`` run
an exact Gauss-Jordan elimination over Fractions (``_rref``); ``rank_mod2``
eliminates on bit rows.  ``induced_rank`` and ``delta_squares_to_zero`` are
the first, Fraction forms of the connection-matrix checks: they solve for
the coordinates of every delta-image of a repeller cycle, assemble the
connection matrix D over all degrees and square it.  Matrices are lists of
rows; ``na[k]`` and ``nr[k]`` are the attractor and repeller ranks of C_k.
"""
from fractions import Fraction

from mcfhom import homalg


def _rref(rows, ncols):
    """Reduced row echelon form over Q by exact Gauss-Jordan elimination.

    Pivots are sought in the first ``ncols`` columns only; any further
    columns (an augmented right-hand side) are carried along.  Returns the
    reduced rows as Fractions and the list of pivot columns."""
    M = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        pv = M[r][col]
        M[r] = [v / pv for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][col]:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(col)
    return M, pivots


def rank_fractions(A):
    """Rank over Q by exact elimination."""
    return len(_rref(A, homalg.shape(A)[1])[1])


def kernel_basis_fractions(A, ncols=None):
    """Basis (list of Fraction column vectors) of ker A over Q.

    ``ncols`` disambiguates the domain dimension when A has no rows."""
    m = ncols if not A and ncols is not None else homalg.shape(A)[1]
    M, pivots = _rref(A, m)
    basis = []
    for j in range(m):
        if j in pivots:
            continue
        v = [Fraction(0)] * m
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -M[r][j]
        basis.append(v)
    return basis


def solve_fractions(A, b):
    """One exact solution of A z = b over Q, or None if inconsistent.

    ``A`` is a list of rows (ints or Fractions), ``b`` a column vector.
    """
    n, m = homalg.shape(A)
    M, pivots = _rref([list(row) + [b[i]] for i, row in enumerate(A)], m)
    if any(M[i][m] for i in range(len(pivots), n)):
        return None
    z = [Fraction(0)] * m
    for r, pc in enumerate(pivots):
        z[pc] = M[r][m]
    return z


def rank_mod2(A):
    """Rank over Z/2 of an integer matrix, by elimination on bit rows."""
    n, m = homalg.shape(A)
    rows = []
    for row in A:
        bits = 0
        for j, v in enumerate(row):
            if v & 1:
                bits |= 1 << j
        if bits:
            rows.append(bits)
    rank = 0
    for col in range(m):
        mask = 1 << col
        piv = None
        for i in range(rank, len(rows)):
            if rows[i] & mask:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & mask:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# connection-matrix checks over Q

def induced_rank(delta, dR_k, dA_k, nr_k):
    """Rank of the map H_k(R) -> H_{k-1}(A) induced by delta:
    rank([delta K | dA_k]) - rank(dA_k) over Q, K a kernel basis of dR_k.
    """
    K = kernel_basis_fractions(dR_k, ncols=nr_k)
    rows = len(delta)
    if rows == 0 or not K:
        return 0
    dK = [[sum(Fraction(delta[i][t]) * K[j][t] for t in range(len(K[j])))
           for j in range(len(K))] for i in range(rows)]
    acols = len(dA_k[0]) if dA_k and dA_k[0] else 0
    combined = [[dK[i][j] for j in range(len(K))]
                + [Fraction(dA_k[i][j]) for j in range(acols)]
                for i in range(rows)]
    return rank_fractions(combined) - rank_fractions(dA_k)


def delta_squares_to_zero(top, dA, dR, delta, na, nr):
    """Assemble the connection matrix Delta on cycle coordinates of
    H_*(A) + H_*(R) and verify its square vanishes exactly.

    ``dA``, ``dR`` and ``delta`` map each degree 1..top to its block.  The
    coordinates of delta_k of every R-cycle are solved for in
    [KA_{k-1} | im dA_k]; no solution means Delta does not exist."""
    KA = {k: kernel_basis_fractions(dA.get(k, []), ncols=na[k])
          for k in range(top + 1)}
    KR = {k: kernel_basis_fractions(dR.get(k, []), ncols=nr[k])
          for k in range(top + 1)}
    blocks = {}
    for k in range(1, top + 1):
        dk = delta[k]
        basisA = KA[k - 1]
        imA = dA[k]
        ncA = len(imA[0]) if imA and imA[0] else 0
        rows = na[k - 1]
        span = [[basisA[j][i] for j in range(len(basisA))]
                + [imA[i][j] for j in range(ncA)] for i in range(rows)]
        cols = []
        for v in KR[k]:
            img = [sum(Fraction(dk[i][t]) * v[t] for t in range(len(v)))
                   for i in range(rows)]
            z = solve_fractions(span, img) if rows else []
            if z is None:
                return False  # delta of a cycle fails to be a cycle
            cols.append(z[:len(basisA)])
        blocks[k] = cols
    offA, offR, N = {}, {}, 0
    for k in range(top + 1):
        offA[k] = N
        N += len(KA[k])
    for k in range(top + 1):
        offR[k] = N
        N += len(KR[k])
    D = [[Fraction(0)] * N for _ in range(N)]
    for k, cols in blocks.items():
        for j, col in enumerate(cols):
            for i, v in enumerate(col):
                D[offA[k - 1] + i][offR[k] + j] = v
    sq = homalg.matmul(D, D)
    return all(all(v == 0 for v in row) for row in sq)
