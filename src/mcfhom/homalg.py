"""Exact integer homological algebra.

A chain complex stores each boundary d_k once, as sparse columns over Z
(dicts {row: value}, Python big integers throughout).  Homology first
reduces the complex over Z: every boundary entry +-1 cancels its pair of
generators by an elementary reduction, a chain homotopy equivalence.  What
is left is small, and the invariant factors of one Smith normal form per
degree of that residue, a list of int rows, give the homology over Z.  The
homology over Z/2 is read off that answer by the universal coefficient
theorem (Hatcher, Algebraic Topology, 3.A).

A cubical complex, given by two cell masks on a doubled grid (see
``block``), is never stored whole as columns.  The face ranks and signs of
its cells, found by strides, are arrays, and d^2 = 0 is checked on them:
each path from a cell to a face of a face plus its partner, no sort.
Rounds of coreductions and collapses, the elementary reductions that fill
nothing in, then remove cells on the grid itself, and only the few cells
left become sparse columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import block as block_mod


class HomalgError(Exception):
    pass


class NotAComplexError(HomalgError):
    pass


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(A):
    """The nonzero invariant factors d_1 | d_2 | ... of an integer matrix
    given as a list of rows, each d_i >= 1.

    Each step takes as pivot the entry of least absolute value and reduces
    its row and column by it; a remainder left is a smaller pivot for the
    next step.  Once the pivot divides everything it touched, its row and
    column are cleared, and they leave with the pivot as a diagonal entry.
    The diagonal is brought into a divisibility chain by replacing each
    pair (d_i, d_j), i < j, with (gcd, lcm), which keeps the invariant
    factors of diag(d_i, d_j).  Only a copy of A is transformed: the
    unimodular transforms of the form are not built."""
    M = [row[:] for row in A]
    diag = []
    while True:
        nonzero = [(abs(v), i, j) for i, row in enumerate(M)
                   for j, v in enumerate(row) if v]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        p, prow = M[i][j], M[i]
        for r, row in enumerate(M):
            if r != i and row[j]:
                q = row[j] // p
                M[r] = [a - q * b for a, b in zip(row, prow)]
        for c, v in enumerate(prow):
            if c != j and v:
                q = v // p
                for row in M:
                    row[c] -= q * row[j]
        if sum(map(bool, prow)) == 1 and sum(bool(row[j]) for row in M) == 1:
            diag.append(abs(p))
            del M[i]
            M = [row[:j] + row[j + 1:] for row in M]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


# ---------------------------------------------------------------------------
# chain complexes and homology

class ChainComplex:
    """Finitely generated free complex over Z; ``dims[k]`` is the rank of
    C_k, degrees 0..top.

    Each boundary d_k : C_k -> C_{k-1} is stored once, as sparse columns:
    ``columns[k][j]`` is column j of d_k, a dict {row: value} with no zero
    entry.  A degree left out of ``columns`` is zero."""

    def __init__(self, dims, columns=None):
        self.dims = list(dims)
        self.columns = {k: (columns or {}).get(k)
                        or [{} for _ in range(self.dims[k])]
                        for k in range(1, self.top + 1)}

    @property
    def top(self):
        return len(self.dims) - 1


def verify_d_squared(c):
    """Check d_{k} . d_{k+1} = 0 exactly over Z; returns the first
    offending entry (k, row, column, value) in row-major order, or None."""
    cols = c.columns
    for k in range(1, c.top):
        bad = []
        for j, col in enumerate(cols[k + 1]):
            acc = {}
            for t, a in col.items():
                for i, b in cols[k][t].items():
                    acc[i] = acc.get(i, 0) + a * b
            bad.extend((i, j, v) for i, v in acc.items() if v)
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


def _reduce(cols, dims):
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

    d^2 = 0 is verified over Z, also for ``coeff="Z2"``.  A copy of the
    stored columns is reduced (``_reduce``), and a residue degree with
    entries left, none of them a unit, gets one Smith normal form.  Over
    Z/2 the universal coefficient theorem, H_k(C; Z/2) = H_k (x) Z/2 +
    Tor(H_{k-1}, Z/2), gives the rank b_k + e_k + e_{k-1}, with e_k the
    number of even invariant factors of H_k."""
    bad = verify_d_squared(c)
    if bad is not None:
        raise _not_a_complex(*bad)
    cols = {k: [dict(col) for col in ck] for k, ck in c.columns.items()}
    keep = _reduce(cols, c.dims)
    ranks = [0] * (c.top + 2)
    torsion = {}
    for k in range(1, c.top + 1):
        if not any(cols[k][j] for j in keep[k]):
            continue
        diag = smith_normal_form([[cols[k][j].get(i, 0) for j in keep[k]]
                                  for i in keep[k - 1]])
        ranks[k] = len(diag)
        tors = [d for d in diag if d > 1]
        if tors:
            torsion[k - 1] = tors
    betti = []
    for k in range(c.top + 1):
        betti.append(len(keep[k]) - ranks[k] - ranks[k + 1])
        if betti[-1] < 0:
            raise HomalgError(f"negative Betti number in degree {k}")
    if coeff == "Z2":
        # e[k + 1] = e_k, and e_{-1} = 0
        e = [sum(d % 2 == 0 for d in torsion.get(k, ()))
             for k in range(-1, c.top + 1)]
        betti = [b + e[k + 1] + e[k] for k, b in enumerate(betti)]
        torsion = {}
    return HomologyResult(betti, torsion, coeff)


# ---------------------------------------------------------------------------
# cubical chain complex

def _cubical_arrays(cells, relative_to=None):
    """The whole chain complex of a cubical pair, as arrays.

    ``cells`` and ``relative_to`` are cell masks of one shape on a doubled
    grid (see ``block``), each closed under faces; the cells of
    ``relative_to`` are dropped (their chain groups are quotiented away).
    The grid is padded by one empty cell per side, so that each neighbour of
    a cell lies one stride away in the flat index.  Returns ``(live, code,
    rank, off, dims, face, sign)``: the flat mask of the cells kept; bit a
    of ``code`` set on the cells odd along axis a; each kept cell's rank in
    its degree, in C order; the flat offsets +s, -s of each axis; the ranks
    of the chain groups; and per degree k >= 1 the (dims[k], 2k) arrays of
    face ranks (-1 on ``relative_to``) and signs.  A cell's faces lie one
    stride either side of it along each odd axis, in axis order: the upper
    one with sign (-1)^(number of odd axes before it), the lower one the
    opposite."""
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
    live = np.pad(cells & ~sub, 1)
    strides = np.cumprod((1,) + live.shape[:0:-1])[::-1]
    off = np.stack([strides, -strides], axis=1).ravel()
    # the padding moves the odd positions of the grid to even ones
    code = sum(o << a for a, o in enumerate(
        np.ix_(*(~np.arange(n) & 1 for n in live.shape)))).ravel()
    live = live.ravel()
    use = np.flatnonzero(live)
    odd = (code[use, None] >> np.arange(cells.ndim)) & 1
    dim = odd.sum(axis=1)
    dims = np.bincount(dim, minlength=1).tolist()
    rank = np.full(live.size, -1)
    face, sign = {}, {}
    for k, n in enumerate(dims):
        c, o = use[dim == k], odd[dim == k]
        rank[c] = np.arange(n)
        if k:
            s = 1 - 2 * ((np.cumsum(o, axis=1) - o) & 1)
            face[k] = rank[(c[:, None] + off).reshape(n, cells.ndim, 2)[o == 1]
                           ].reshape(n, 2 * k)
            sign[k] = np.stack([s, -s], axis=2)[o == 1].reshape(n, 2 * k)
    return live, code, rank, off, dims, face, sign


def _not_a_complex(k, i, j, v):
    return NotAComplexError(f"d_{k} . d_{k + 1} has entry {v} at ({i}, {j})")


@cache
def _partners(k):
    """The paths c -> f -> g from a (k+1)-cell c to its faces of faces, in
    the pairs that reach the same (k-1)-cell g: two flat indices
    ``(path, partner)``, one entry per pair, with path t * 2k + u going
    through c's face at slot t and then that face's face at slot u of the
    arrays of ``_cubical_arrays``.  The two paths of a pair remove the same
    two odd axes of c, each on its own side, in the two orders."""
    t, u = np.indices((2 * k + 2, 2 * k))
    i, s = np.divmod(t, 2)
    p, r = np.divmod(u, 2)
    # path (t, u) removes c's i-th odd axis on side s, then the face's p-th
    # on side r, which is c's j-th; its partner removes c's j-th on side r,
    # after which c's i-th is the face's i-th or (i - 1)-th
    j = p + (p >= i)
    partner = ((2 * j + r) * 2 * k + 2 * (i - (i > j)) + s).ravel()
    path = np.arange(partner.size)
    one = path < partner
    out = path[one], partner[one]
    for a in out:
        a.flags.writeable = False  # cached: every caller gets these arrays
    return out


def _check_d_squared(face, sign):
    """Check d_k . d_{k+1} = 0 on the arrays of ``_cubical_arrays``.
    Entry (g, c) is the sum of the sign products along the two paths
    c -> f -> g, a path and its partner (``_partners``), so each path plus
    its partner is summed: no key, no sort.  A path through a dropped cell
    gives 0.  Raises ``NotAComplexError`` naming the entry that
    ``verify_d_squared`` finds on the columns."""
    for k in range(1, len(face)):
        if not (len(face[k]) and len(face[k + 1])):
            continue  # no (k+1)-cell, or every face of one is dropped
        f = face[k + 1]
        prod = np.take(np.where(face[k] >= 0, sign[k], 0), f, axis=0)
        prod *= np.where(f >= 0, sign[k + 1], 0)[:, :, None]
        prod = prod.reshape(len(f), -1)
        path, partner = _partners(k)
        tot = np.take(prod, path, axis=1)
        tot += np.take(prod, partner, axis=1)
        if tot.any():
            j, p = np.nonzero(tot)
            t, u = np.divmod(path[p], 2 * k)
            i = face[k][f[j, t], u]
            # the smallest row, and in it the smallest column: j ascends
            m = np.argmax(i == i.min())
            raise _not_a_complex(k, int(i[m]), int(j[m]), int(tot[j[m], p[m]]))


def _coreduce(live, code, off):
    """Reduce the complex of ``_cubical_arrays`` on its flat mask ``live``,
    in place, until no cell of it has exactly one live face or exactly one
    live coface.

    A coreduction pairs a cell with its only live face, a collapse a free
    face with its only live coface (Mrozek-Batko, DCG 41, 2009).  Each is
    an elementary reduction (see ``_reduce``) that fills nothing in, so the
    cells left keep their entries among themselves.  A round takes a set of
    pairs that share no cell, each of which stays valid when the others are
    applied, and the next round looks only at the cells next to the ones
    removed and at the pairs left out."""
    # down[c][n]: neighbour n of a cell of code c is a face, not a coface
    down = (np.arange(2 ** (len(off) // 2))[:, None]
            >> np.arange(len(off)) // 2) & 1 == 1
    front = np.flatnonzero(live)
    owner = np.empty(live.size, dtype=np.intp)
    while front.size:
        near = front[:, None] + off
        hit, below = live[near], down[code[front]]
        faces, cofaces = hit & below, hit & ~below
        co, cl = faces.sum(axis=1) == 1, cofaces.sum(axis=1) == 1
        up = np.concatenate([front[co], near[cl, cofaces[cl].argmax(axis=1)]])
        lo = np.concatenate([near[co, faces[co].argmax(axis=1)], front[cl]])
        # one pair per upper cell, one per lower cell, and no upper cell
        # that is the lower cell of a pair
        one = _once(up, owner)
        up, lo = up[one], lo[one]
        one = _once(lo, owner)
        up, lo = up[one], lo[one]
        # a pair whose upper cell is the lower cell of another pair waits:
        # its upper cell reads dead once the lower cells go
        live[lo] = False
        ok = live[up]
        live[lo[~ok]] = True
        live[up[ok]] = False
        gone = np.concatenate([up[ok], lo[ok]])
        front = np.concatenate([(gone[:, None] + off).ravel(), front[co | cl]])
        front = front[live[front]]
        front = front[_once(front, owner)]


def _once(x, owner):
    """Mask of one occurrence of each value of ``x``, by writing positions
    into the scratch array ``owner`` at the values and reading them back."""
    i = np.arange(len(x))
    owner[x] = i
    return owner[x] == i


def build_cubical_complex(cells, relative_to=None):
    """A small complex chain homotopy equivalent to the chain complex of a
    closed cubical cell set modulo a closed subset.

    The whole complex is built as arrays (``_cubical_arrays``), its d^2 = 0
    is checked there, and coreductions and collapses (``_coreduce``)
    remove most of its cells.  Only the cells left become sparse columns,
    with the entries they had, in C order per degree; the degrees run up to
    the top one of the whole complex."""
    live, code, rank, off, dims, face, sign = _cubical_arrays(cells,
                                                              relative_to)
    _check_d_squared(face, sign)
    _coreduce(live, code, off)
    left = np.flatnonzero(live)
    dim = ((code[left, None] >> np.arange(len(off) // 2)) & 1).sum(axis=1)
    keep = [rank[left[dim == k]] for k in range(len(dims))]
    columns = {}
    for k in range(1, len(dims)):
        new = {r: i for i, r in enumerate(keep[k - 1].tolist())}
        columns[k] = [{new[i]: v for i, v in zip(fr, sr) if i in new}
                      for fr, sr in zip(face[k][keep[k]].tolist(),
                                        sign[k][keep[k]].tolist())]
    return ChainComplex([len(r) for r in keep], columns=columns)


def cubical_relative_homology(b, subcells, coeff="Z"):
    """H_*(B, A) for a GridBlock B and a closed cubical subcomplex A of
    its boundary, a mask on the doubled grid of ``block.block_cells(b)``."""
    cells = block_mod.block_cells(b)
    sub = np.asarray(subcells, dtype=bool)
    if sub.shape != cells.shape or (sub & ~cells).any():
        raise HomalgError("subcomplex is not contained in the block")
    return homology(build_cubical_complex(cells, sub), coeff)


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
