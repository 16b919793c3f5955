"""Exact linear algebra over Q and Z/2, and the integer matrix product:
the references that the Smith normal form routines of ``mcfhom.homalg``
are tested against.

``rank_fractions`` runs an exact Gauss-Jordan elimination over Fractions;
``rank_mod2`` eliminates on bit rows.  ``matmul`` multiplies matrices
given as lists of rows, for the checks of U A V.
"""
from fractions import Fraction

from mcfhom import homalg


def matmul(A, B):
    """The product of two matrices given as lists of rows; [] when either
    has no rows."""
    if not A or not B:
        return []
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in A]


def rank_fractions(A):
    """Rank over Q by exact Gauss-Jordan elimination over Fractions."""
    M = [[Fraction(v) for v in row] for row in A]
    rank = 0
    for col in range(homalg.shape(A)[1]):
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
