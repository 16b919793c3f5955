"""Exact linear algebra over Z, Q and Z/2, and dense views of chain
complexes: the references that ``mcfhom.homalg`` is tested against.

``invariant_factors`` reads the invariant factors of an integer matrix off
its determinantal divisors, the gcds of its k x k minors (Newman, Integral
Matrices, 1972), the reference for the Smith normal form.
``rank_fractions`` runs an exact Gauss-Jordan elimination over Fractions;
``rank_mod2`` eliminates on bit rows.  ``matmul`` multiplies matrices given
as lists of rows.  ``dense`` and ``complex_of`` convert between the sparse
columns of ``homalg.ChainComplex`` and dense boundary matrices.
"""
import math
from fractions import Fraction
from itertools import combinations

from mcfhom import homalg


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(A, B):
    """The product of two matrices given as lists of rows; [] when either
    has no rows."""
    if not A or not B:
        return []
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in A]


def dense(c, k):
    """The matrix of d_k of a ChainComplex as a list of rows, of shape
    (dims[k-1], dims[k]); a degree outside 0..top has none."""
    rows = c.dims[k - 1] if 1 <= k <= c.top else 0
    M = [[0] * (c.dims[k] if 0 <= k <= c.top else 0) for _ in range(rows)]
    for j, col in enumerate(c.columns.get(k, ())):
        for i, v in col.items():
            M[i][j] = v
    return M


def complex_of(dims, boundaries):
    """The ChainComplex whose d_k is the dense matrix ``boundaries[k]``, of
    shape (dims[k-1], dims[k]); a degree left out is zero."""
    return homalg.ChainComplex(dims, columns={
        k: [{i: row[j] for i, row in enumerate(M) if row[j]}
            for j in range(dims[k])] for k, M in boundaries.items()})


def determinant(M):
    """The determinant of a square integer matrix, by Bareiss's
    fraction-free elimination: every division is exact."""
    M = [row[:] for row in M]
    n, sign, prev = len(M), 1, 1
    for t in range(n - 1):
        piv = next((i for i in range(t, n) if M[i][t]), None)
        if piv is None:
            return 0
        if piv != t:
            M[t], M[piv] = M[piv], M[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                M[i][j] = (M[i][j] * M[t][t] - M[i][t] * M[t][j]) // prev
        prev = M[t][t]
    return sign * M[-1][-1] if n else 1


def invariant_factors(A):
    """The nonzero invariant factors d_k = D_k / D_{k-1} of an integer
    matrix, where D_k is the gcd of all its k x k minors and D_0 = 1.  The
    gcd of a degree stops at 1, and the first D_k = 0 ends the list: every
    larger minor expands into k x k ones."""
    rows, cols = range(len(A)), range(len(A[0]) if A else 0)
    divisors = [1]
    for k in range(1, min(len(rows), len(cols)) + 1):
        g = 0
        for r in combinations(rows, k):
            for c in combinations(cols, k):
                g = math.gcd(g, determinant([[A[i][j] for j in c]
                                             for i in r]))
                if g == 1:
                    break
            if g == 1:
                break
        if not g:
            break
        divisors.append(g)
    return [b // a for a, b in zip(divisors, divisors[1:])]


def rank_fractions(A):
    """Rank over Q by exact Gauss-Jordan elimination over Fractions."""
    M = [[Fraction(v) for v in row] for row in A]
    rank = 0
    for col in range(len(A[0]) if A else 0):
        piv = next((i for i in range(rank, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(len(M)):
            if i != rank and M[i][col]:
                f = M[i][col] / M[rank][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
    return rank


def rank_mod2(A):
    """Rank over Z/2 of an integer matrix, by elimination on bit rows."""
    m = len(A[0]) if A else 0
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
