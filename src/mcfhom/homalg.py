"""Exact integer homological algebra.

A chain complex stores each boundary d_k once, as sparse columns over Z
(dicts {row: value}); a cubical complex is built straight into them from
two cell masks on a doubled grid (see ``block``), the faces of each cell
found by strides.  Other matrices are lists of int rows
(Python big integers throughout).  Homology first reduces the complex:
every boundary entry that is a unit of the coefficient ring (+-1 over Z,
odd over Z/2) cancels its pair of generators by an elementary reduction, a
chain homotopy equivalence.  What is left is small, and one Smith normal
form over Z per degree of that residue gives the homology; over Z/2 the
residue has no entries.  The Smith normal form is also the one routine of
the connection-matrix algebra: its number of invariant factors is a rank
over Q, and its V gives a kernel basis (``kernel_basis``).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

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


def kernel_basis(A, ncols):
    """Z-basis of ker A, as the columns of an (ncols, nullity) matrix: the
    columns of V after the rank, for U A V the Smith normal form.  Over Q
    the same columns are a basis of the kernel.  A matrix with no rows
    gives the identity basis."""
    if not A:
        return identity(ncols)
    diag, _, V = smith_normal_form(A)
    return [row[len(diag):] for row in V]


# ---------------------------------------------------------------------------
# chain complexes and homology

class ChainComplex:
    """Finitely generated free complex over Z; ``dims[k]`` is the rank of
    C_k, degrees 0..top.

    Each boundary d_k : C_k -> C_{k-1} is stored once, as sparse columns:
    ``columns[k][j]`` is column j of d_k, a dict {row: value} with no zero
    entry.  Pass ``columns`` (a degree left out is zero), or ``boundaries``,
    dense matrices of shape (dims[k-1], dims[k]) that are converted here.
    ``boundary(k)`` builds the dense matrix of d_k on request."""

    def __init__(self, dims, boundaries=None, columns=None):
        self.dims = list(dims)
        self.columns = {}
        for k in range(1, self.top + 1):
            ck = (columns or {}).get(k) or [{} for _ in range(self.dims[k])]
            for i, row in enumerate((boundaries or {}).get(k, ())):
                for j in compress(range(len(row)), row):
                    ck[j][i] = row[j]
            self.columns[k] = ck

    @property
    def top(self):
        return len(self.dims) - 1

    def boundary(self, k):
        rows = self.dims[k - 1] if 1 <= k <= self.top else 0
        M = zeros(rows, self.dims[k] if 0 <= k <= self.top else 0)
        for j, col in enumerate(self.columns.get(k, ())):
            for i, v in col.items():
                M[i][j] = v
        return M


def verify_d_squared(c, coeff="Z"):
    """Check d_{k} . d_{k+1} = 0 exactly over the coefficient ring (entries
    reduced mod 2 with ``coeff="Z2"``); returns the first offending entry
    (k, row, column, value) in row-major order, or None."""
    cols = c.columns
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

    d^2 = 0 is verified over the coefficient ring.  A copy of the stored
    columns, reduced mod 2 over Z/2, is then reduced (``_reduce``), and a
    residue degree with entries left, none of them a unit, gets one Smith
    normal form.  Over Z/2 every nonzero entry is a unit, so the residue
    has no entries and its ranks are 0; that is checked, not assumed."""
    bad = verify_d_squared(c, coeff)
    if bad is not None:
        k, i, j, v = bad
        raise NotAComplexError(
            f"d_{k} . d_{k + 1} has entry {v} at ({i}, {j})")
    cols = {k: [{i: v % 2 for i, v in col.items() if v % 2}
                if coeff == "Z2" else dict(col) for col in ck]
            for k, ck in c.columns.items()}
    keep = _reduce(cols, c.dims, coeff)
    ranks = [0] * (c.top + 2)
    torsion = {}
    for k in range(1, c.top + 1):
        if not any(cols[k][j] for j in keep[k]):
            continue
        if coeff == "Z2":
            raise HomalgError(f"mod-2 residue of d_{k} is not empty")
        diag = smith_normal_form([[cols[k][j].get(i, 0) for j in keep[k]]
                                  for i in keep[k - 1]])[0]
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

def build_cubical_complex(cells, relative_to=None):
    """Chain complex of a closed cubical cell set, modulo a closed subset.

    ``cells`` and ``relative_to`` are cell masks of one shape on a doubled
    grid (see ``block``), each closed under faces; the cells of
    ``relative_to`` are dropped (their chain groups are quotiented away).
    C_k has the cells odd along k axes, in C order.  A cell's faces lie one
    stride either side of it along each odd axis: the upper one with sign
    (-1)^(number of odd axes before it), the lower one the opposite."""
    cells = np.asarray(cells, dtype=bool)
    sub = (np.zeros_like(cells) if relative_to is None
           else np.asarray(relative_to, dtype=bool))
    if sub.shape != cells.shape or not all(n % 2 for n in cells.shape):
        raise HomalgError("cells and subcomplex are not masks of one "
                          "doubled grid")
    for mask, name in ((sub, "relative subcomplex"),
                       (cells | sub, "cell set")):
        if not np.array_equal(block_mod.closure(mask), mask):
            raise HomalgError(f"{name} is not closed under faces")
    use = np.flatnonzero(cells & ~sub)
    if not use.size:
        return ChainComplex([0])
    # bit a of a cell's code is set when the cell is odd along axis a
    code = sum(o << a for a, o in enumerate(
        np.ix_(*(np.arange(n) & 1 for n in cells.shape)))).ravel()[use]
    odd = (code[:, None] >> np.arange(cells.ndim)) & 1
    dim = odd.sum(axis=1)
    dims = np.bincount(dim).tolist()
    rank = np.full(cells.size, -1)  # stays -1 on the cells of ``sub``
    for k, n in enumerate(dims):
        rank[use[dim == k]] = np.arange(n)
    strides = np.cumprod((1,) + cells.shape[:0:-1])[::-1]
    columns = {}
    for k in range(1, len(dims)):
        c, o = use[dim == k], odd[dim == k]
        sign = 1 - 2 * ((np.cumsum(o, axis=1) - o) & 1)
        # the faces of each cell in axis order, upper then lower per axis
        face = rank[np.stack([c[:, None] + strides, c[:, None] - strides],
                             axis=2)[o == 1]].reshape(len(c), 2 * k)
        sign = np.stack([sign, -sign], axis=2)[o == 1].reshape(len(c), 2 * k)
        columns[k] = [{i: v for i, v in zip(fr, sr) if i >= 0}
                      for fr, sr in zip(face.tolist(), sign.tolist())]
    return ChainComplex(dims, columns=columns)


def cubical_relative_homology(b, subcells, coeff="Z"):
    """H_*(B, A) for a GridBlock B and a closed cubical subcomplex A of
    its boundary, a mask on the doubled grid of ``block.block_cells(b)``."""
    cells = block_mod.block_cells(b)
    sub = np.asarray(subcells, dtype=bool)
    if sub.shape != cells.shape or (sub & ~cells).any():
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
