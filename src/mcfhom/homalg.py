"""Exact integer homological algebra.

Matrices are lists of int rows (Python big integers throughout).  Homology
first reduces the chain complex: every boundary entry that is a unit of the
coefficient ring (+-1 over Z, odd over Z/2) cancels its pair of generators
by an elementary reduction, a chain homotopy equivalence.  What is left is
small, and one Smith normal form over Z (or one mod-2 rank) per degree of
that residue gives the homology.  Exact Gauss-Jordan elimination over Q
serves the connection-matrix algebra, and the tests use it, the Smith
normal form and the mod-2 rank as oracles.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import compress

from . import block as block_mod


class HomalgError(Exception):
    pass


class NotAComplexError(HomalgError):
    pass


# ---------------------------------------------------------------------------
# basic matrix helpers (dense lists of ints)

def zeros(r, c):
    return [[0] * c for _ in range(r)]


def identity(n):
    M = zeros(n, n)
    for i in range(n):
        M[i][i] = 1
    return M


def matmul(A, B):
    if not A or not B:
        return []
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = zeros(n, m)
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    Oi[j] += a * Bt[j]
    return out


def shape(A):
    return len(A), len(A[0]) if A else 0


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(A):
    """Return (diag, U, V) with U*A*V diagonal, d_i >= 1, d_i | d_{i+1},
    U and V unimodular.  ``diag`` lists only the nonzero invariant factors."""
    n, m = shape(A)
    M = [row[:] for row in A]
    U = identity(n)
    V = identity(m)

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        Ms, Md = M[src], M[dst]
        for j in range(m):
            Md[j] += q * Ms[j]
        Us, Ud = U[src], U[dst]
        for j in range(n):
            Ud[j] += q * Us[j]

    def add_col(src, dst, q):
        for row in M:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        M[i] = [-v for v in M[i]]
        U[i] = [-v for v in U[i]]

    t = 0
    r = min(n, m)
    while t < r:
        # pivot: smallest nonzero absolute value in the remaining block,
        # re-selected after every reduction pass to limit entry growth
        while True:
            piv = None
            best = None
            for i in range(t, n):
                for j in range(t, m):
                    v = M[i][j]
                    if v and (best is None or abs(v) < best):
                        best = abs(v)
                        piv = (i, j)
            if piv is None:
                break
            i, j = piv
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            p = M[t][t]
            clean = True
            for i in range(t + 1, n):
                v = M[i][t]
                if v:
                    add_row(t, i, -(v // p))
                    if M[i][t]:
                        clean = False
            for j in range(t + 1, m):
                v = M[t][j]
                if v:
                    add_col(t, j, -(v // p))
                    if M[t][j]:
                        clean = False
            if clean:
                break
        if piv is None or M[t][t] == 0:
            break
        if M[t][t] < 0:
            negate_row(t)
        t += 1
    # enforce divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            a, b = M[i][i], M[i + 1][i + 1]
            if b % a != 0:
                # standard 2x2 fix: add col i+1 to col i, re-reduce the block
                add_col(i + 1, i, 1)
                # now M[i+1][i] = b; clear it via row/col ops
                while True:
                    v = M[i + 1][i]
                    if v == 0:
                        break
                    q = v // M[i][i]
                    add_row(i, i + 1, -q)
                    if M[i + 1][i]:
                        swap_rows(i, i + 1)
                # clear fill-in in row i
                vij = M[i][i + 1]
                if vij:
                    q = vij // M[i][i]
                    add_col(i, i + 1, -q)
                if M[i][i] < 0:
                    negate_row(i)
                if M[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    diag = [M[i][i] for i in range(t) if M[i][i]]
    return diag, U, V


# ---------------------------------------------------------------------------
# rational elimination

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
    return len(_rref(A, shape(A)[1])[1])


def kernel_basis_fractions(A, ncols=None):
    """Basis (list of Fraction column vectors) of ker A over Q.

    ``ncols`` disambiguates the domain dimension when A has no rows."""
    m = ncols if not A and ncols is not None else shape(A)[1]
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
    n, m = shape(A)
    M, pivots = _rref([list(row) + [b[i]] for i, row in enumerate(A)], m)
    if any(M[i][m] for i in range(len(pivots), n)):
        return None
    z = [Fraction(0)] * m
    for r, pc in enumerate(pivots):
        z[pc] = M[r][m]
    return z


def rank_mod2(A):
    """Rank over Z/2 of an integer matrix, by elimination on bit rows.
    ``homology`` needs no mod-2 rank (its Z/2 residue is empty); this is the
    independent oracle that tests compare mod-2 Betti numbers against."""
    n, m = shape(A)
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
# chain complexes and homology

@dataclass
class ChainComplex:
    """Finitely generated free complex over Z (or Z/2).

    ``dims[k]`` is the rank of C_k; ``boundaries[k]`` is the matrix of
    d_k : C_k -> C_{k-1}, shape (dims[k-1], dims[k]).  Degrees run 0..top.
    """

    dims: list
    boundaries: dict  # k -> matrix
    labels: dict = dc_field(default_factory=dict)  # k -> generator names

    @property
    def top(self):
        return len(self.dims) - 1

    def boundary(self, k):
        if k in self.boundaries:
            return self.boundaries[k]
        rows = self.dims[k - 1] if 1 <= k <= self.top else 0
        cols = self.dims[k] if 0 <= k <= self.top else 0
        return zeros(rows, cols)


def _sparse_columns(c, coeff):
    """The boundaries of ``c`` as sparse columns: ``cols[k][j]`` is column
    j of d_k as a dict {row: nonzero value}, values reduced mod 2 with
    ``coeff="Z2"``."""
    cols = {}
    for k in range(1, c.top + 1):
        ck = [{} for _ in range(c.dims[k])]
        for i, row in enumerate(c.boundaries.get(k, ())):
            for j in compress(range(len(row)), row):
                v = row[j] % 2 if coeff == "Z2" else row[j]
                if v:
                    ck[j][i] = v
        cols[k] = ck
    return cols


def verify_d_squared(c, coeff="Z"):
    """Check d_{k} . d_{k+1} = 0 exactly over the coefficient ring (entries
    reduced mod 2 with ``coeff="Z2"``); returns the first offending entry
    (k, row, column, value) in row-major order, or None."""
    cols = _sparse_columns(c, coeff)
    for k in range(1, c.top):
        bad = []
        for j, col in enumerate(cols[k + 1]):
            acc = {}
            for t, a in col.items():
                for i, b in cols[k][t].items():
                    acc[i] = acc.get(i, 0) + a * b
            for i, v in acc.items():
                if coeff == "Z2":
                    v %= 2
                if v:
                    bad.append((i, j, v))
        if bad:
            return (k, *min(bad))
    return None


@dataclass
class HomologyResult:
    betti: list  # betti[k]
    torsion: dict  # k -> list of invariant factors > 1
    coeff: str = "Z"  # coefficient ring: "Z" or "Z2"

    def __eq__(self, other):
        return (self.coeff == other.coeff
                and self.trimmed_betti() == other.trimmed_betti()
                and {k: v for k, v in self.torsion.items() if v}
                == {k: v for k, v in other.torsion.items() if v})

    def trimmed_betti(self):
        b = list(self.betti)
        while b and b[-1] == 0:
            b.pop()
        return b

    def euler(self):
        return sum((-1) ** k * b for k, b in enumerate(self.betti))

    def describe(self):
        parts = []
        for k, b in enumerate(self.betti):
            tors = self.torsion.get(k, [])
            if b == 0 and not tors:
                continue
            terms = []
            if b:
                terms.append(self.coeff if b == 1 else f"{self.coeff}^{b}")
            terms.extend(f"Z/{d}" for d in tors)
            parts.append(f"H_{k} = " + " + ".join(terms))
        return "; ".join(parts) if parts else "0"


def _reduce(cols, dims, coeff):
    """Cancel every unit entry of the sparse boundaries ``cols`` in place,
    top degree first and each degree in index order, and return the
    surviving generators of each degree.

    Cancelling a pair (a in C_k, b in C_{k-1}) with u = <d a, b> a unit is
    an elementary reduction, a chain homotopy equivalence: it drops row a
    of d_{k+1}, column b of d_{k-1}, and column a and row b of d_k after
    <d a', b'> -= <d a', b> u <d a, b'> for every other column a' (u^-1 = u
    for u = +-1).  Degree k is passed over until it has no unit entry left;
    later reductions of lower degrees only delete entries of d_k, so the
    residue has no unit entry anywhere."""
    alive = [[True] * n for n in dims]
    # rows[k][i]: the columns of d_k with a nonzero entry in row i
    rows = {k: [set() for _ in range(dims[k - 1])] for k in cols}
    for k, ck in cols.items():
        for j, col in enumerate(ck):
            for i in col:
                rows[k][i].add(j)
    for k in range(len(dims) - 1, 0, -1):
        ck, rk = cols[k], rows[k]
        cancelled = True
        while cancelled:
            cancelled = False
            for a, col in enumerate(ck):
                units = [i for i, v in col.items() if v == 1 or v == -1]
                if not units:
                    continue
                b = min(units)
                u = col[b]
                for a2 in rk[b] - {a}:
                    other = ck[a2]
                    f = other[b] * u
                    for i, v in col.items():
                        w = other.get(i, 0) - f * v
                        if coeff == "Z2":
                            w %= 2
                        if w:
                            other[i] = w
                            rk[i].add(a2)
                        else:
                            del other[i]
                            rk[i].discard(a2)
                for i in col:
                    rk[i].discard(a)
                ck[a] = {}
                if k + 1 in cols:
                    for c2 in rows[k + 1][a]:
                        del cols[k + 1][c2][a]
                    rows[k + 1][a] = set()
                if k - 1 in cols:
                    for i in cols[k - 1][b]:
                        rows[k - 1][i].discard(b)
                    cols[k - 1][b] = {}
                alive[k][a] = alive[k - 1][b] = False
                cancelled = True
    return [[i for i, ok in enumerate(al) if ok] for al in alive]


def homology(c, coeff="Z"):
    """Homology of a chain complex; Betti numbers and torsion over Z, or
    mod-2 Betti numbers with ``coeff="Z2"``.

    d^2 = 0 is verified over the coefficient ring.  The boundaries are then
    reduced as sparse columns (``_reduce``), and the residue, which has no
    unit entry left, gets one Smith normal form per degree.  Over Z/2 every
    nonzero entry is a unit, so the residue has no entries and its ranks
    are 0; that is checked, not assumed."""
    bad = verify_d_squared(c, coeff)
    if bad is not None:
        k, i, j, v = bad
        raise NotAComplexError(
            f"d_{k} . d_{k + 1} has entry {v} at ({i}, {j})")
    cols = _sparse_columns(c, coeff)
    keep = _reduce(cols, c.dims, coeff)
    ranks = [0] * (c.top + 2)
    torsion = {}
    for k in range(1, c.top + 1):
        if coeff == "Z2":
            if any(cols[k][j] for j in keep[k]):
                raise HomalgError(f"mod-2 residue of d_{k} is not empty")
            continue
        pos = {i: r for r, i in enumerate(keep[k - 1])}
        M = zeros(len(keep[k - 1]), len(keep[k]))
        for r, j in enumerate(keep[k]):
            for i, v in cols[k][j].items():
                M[pos[i]][r] = v
        diag = smith_normal_form(M)[0]
        ranks[k] = len(diag)
        tors = [d for d in diag if d > 1]
        if tors:
            torsion[k - 1] = tors
    betti = []
    for k in range(c.top + 1):
        betti.append(len(keep[k]) - ranks[k] - ranks[k + 1])
        if betti[-1] < 0:
            raise HomalgError(f"negative Betti number in degree {k}")
    return HomologyResult(betti, torsion, coeff)


# ---------------------------------------------------------------------------
# cubical chain complex

def _cell_dim(cell):
    return sum(1 for lo, hi in cell if lo != hi)


def cell_boundary(cell):
    """Signed codimension-one boundary of a cubical cell: list of
    (face_cell, sign) with sign (-1)^(number of earlier nondegenerate axes)
    times (+1 for the upper face, -1 for the lower)."""
    out = []
    nd_seen = 0
    for i, (lo, hi) in enumerate(cell):
        if lo == hi:
            continue
        sign = (-1) ** nd_seen
        upper = cell[:i] + ((hi, hi),) + cell[i + 1:]
        lower = cell[:i] + ((lo, lo),) + cell[i + 1:]
        out.append((upper, sign))
        out.append((lower, -sign))
        nd_seen += 1
    return out


def build_cubical_complex(cells, relative_to=frozenset()):
    """Chain complex of a closed cubical cell set, modulo a closed subset.

    ``cells`` must be closed under faces; ``relative_to`` likewise.  Cells
    of the subcomplex are dropped (their chain groups are quotiented away).
    """
    sub = set(relative_to)
    for c in sub:
        for f in block_mod.cell_faces(c):
            if f not in sub:
                raise HomalgError(
                    "relative subcomplex is not closed under faces")
    allcells = set(cells) | sub
    for c in allcells:
        for f in block_mod.cell_faces(c):
            if f not in allcells:
                raise HomalgError("cell set is not closed under faces")
    use = sorted(c for c in allcells if c not in sub)
    if not use:
        return ChainComplex([0], {})
    top = max(_cell_dim(c) for c in use)
    by_dim = [[] for _ in range(top + 1)]
    for c in use:
        by_dim[_cell_dim(c)].append(c)
    index = {}
    for k, lst in enumerate(by_dim):
        lst.sort()
        for i, c in enumerate(lst):
            index[c] = i
    dims = [len(lst) for lst in by_dim]
    boundaries = {}
    for k in range(1, top + 1):
        Mtx = zeros(dims[k - 1], dims[k])
        for j, c in enumerate(by_dim[k]):
            for f, sign in cell_boundary(c):
                if f in sub:
                    continue
                Mtx[index[f]][j] += sign
        boundaries[k] = Mtx
    labels = {k: [str(c) for c in lst] for k, lst in enumerate(by_dim)}
    return ChainComplex(dims, boundaries, labels)


def cubical_relative_homology(b, subcells, coeff="Z"):
    """H_*(B, A) for a GridBlock B and a closed cubical subcomplex A of
    its boundary."""
    cells = block_mod.block_cells(b)
    sub = set(subcells)
    if not sub <= cells:
        raise HomalgError("subcomplex is not contained in the block")
    return homology(build_cubical_complex(cells, sub), coeff=coeff)


# ---------------------------------------------------------------------------
# Poincare polynomials and Morse relations

@dataclass(frozen=True)
class PoincarePolynomial:
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return PoincarePolynomial(tuple(x + y for x, y in zip(a, b)))

    def __call__(self, t):
        return sum(c * t ** k for k, c in enumerate(self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                tk = "t" if k == 1 else f"t^{k}"
                terms.append(tk if c == 1 else f"{c}*{tk}")
        return " + ".join(terms) if terms else "0"


def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poincare(h):
    """Free ranks as a polynomial; torsion carries no rank and is reported
    separately on the HomologyResult."""
    return PoincarePolynomial(tuple(h.betti))


class RelationsError(HomalgError):
    pass


def relations_check(parts, whole):
    """Check Sum_i P_t(part_i) = P_t(whole) + (1+t) Q_t; return Q_t.

    The deficit polynomial must be divisible by (1+t) with nonnegative
    quotient coefficients, otherwise the data is inconsistent with a Morse
    decomposition."""
    total = PoincarePolynomial(())
    for p in parts:
        total = total + p
    n = max(len(total.coeffs), len(whole.coeffs))
    a = list(total.coeffs) + [0] * (n - len(total.coeffs))
    b = list(whole.coeffs) + [0] * (n - len(whole.coeffs))
    deficit = [x - y for x, y in zip(a, b)]
    # synthetic division of deficit by (1 + t), low degree first:
    # d_0 = q_0, d_k = q_k + q_{k-1}
    q = []
    prev = 0
    for d in deficit:
        qk = d - prev
        q.append(qk)
        prev = qk
    if prev != 0:
        raise RelationsError(
            "data inconsistent with a Morse decomposition: "
            f"(1+t) does not divide the deficit (remainder {prev})")
    if any(v < 0 for v in q):
        raise RelationsError(
            "data inconsistent with a Morse decomposition: "
            f"negative coefficient in Q_t = {q}")
    return PoincarePolynomial(tuple(q))
