"""Pipeline orchestration and structural theorems: exit-set equivalence,
block independence, Morse decompositions with connection matrices, and
continuation.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import block as block_mod
from . import expr, homalg, lyapunov, morse
from .config import DEFAULT


class ConleyError(Exception):
    pass


class PipelineError(ConleyError):
    pass


class NotAttractorRepellerError(ConleyError):
    pass


class ContinuationError(ConleyError):
    pass


@dataclass
class Quadruple:
    """The data the homology is computed from: a Morse function on a block
    with the Euclidean metric and the canonical orientation frames."""

    f: object          # Expr after perturbation
    block: object      # with its boundary faces classified
    crits: list
    certificate: object


@dataclass
class HIResult:
    homology: homalg.HomologyResult
    quadruple: Quadruple
    complex: homalg.ChainComplex
    counts: list


@dataclass(frozen=True)
class System:
    """The data HI_*(S) is computed from: a flow, a block, a Lyapunov
    function, the declared invariant set and the Morse perturbation's size
    and direction (None: ``lyapunov.morse_perturb`` chooses).  Expressions
    may mention lam until ``at`` binds it."""

    field: expr.FieldDef
    block: block_mod.GridBlock
    lyapunov: expr.Expr | None
    invariant_set: lyapunov.SDeclaration
    epsilon: float | None = None
    perturbation: expr.Expr | None = None

    def at(self, lam):
        """The system with ``lam`` substituted in the field, the Lyapunov
        function and the perturbation; ExprError on a constant domain error."""
        bind = (lambda e: None if e is None
                else expr.substitute_param(e, expr.Const(float(lam))))
        return replace(self, field=expr.bind_field(self.field, lam),
                       lyapunov=bind(self.lyapunov),
                       perturbation=bind(self.perturbation))


def _shared(systems, *names):
    """ConleyError unless ``systems`` share each attribute in ``names``."""
    for name in names:
        if any(getattr(s, name) != getattr(systems[0], name) for s in systems):
            raise ConleyError(f"the systems given do not share one {name}")


def compute_HI(system, seed=0, coeff="Z", tols=DEFAULT):
    """Full pipeline: verify the inputs, Morse-perturb the Lyapunov
    function, find critical points, count connections, take homology."""
    fieldd, b = system.field, system.block
    classified = block_mod.classify_boundary(b, fieldd, tols=tols)
    block_mod.exit_set(classified)  # raises on unresolved faces
    iso = block_mod.check_isolation(b, fieldd, tols=tols)
    if not iso:
        raise PipelineError(
            f"block is not isolating (trapped samples {iso.failures[:3]})")
    rep = lyapunov.verify_lyapunov(system.lyapunov, fieldd, b,
                                   system.invariant_set, tols=tols)
    if not rep:
        raise PipelineError(
            f"Lyapunov verification failed (min decrease "
            f"{rep.min_decrease:.3e} at {rep.min_location}, "
            f"f spread over S {rep.value_spread:.3e})")
    f, cert = lyapunov.morse_perturb(
        system.lyapunov, b, epsilon=system.epsilon, seed=seed,
        perturbation=system.perturbation, tols=tols)
    crits = morse.find_critical_points(f, b, tols=tols)
    complex_, counts = morse.build_complex(
        f, b, crits, tols=tols, coeff=coeff, seed=seed)
    h = homalg.homology(complex_, coeff=coeff)
    quad = Quadruple(f, classified, crits, cert)
    return HIResult(h, quad, complex_, counts)


@dataclass
class ExitTheoremReport:
    verdict: bool
    hi: homalg.HomologyResult
    relative: homalg.HomologyResult


def verify_exit_theorem(system, seed=0, coeff="Z", tols=DEFAULT):
    """Compare HI against the relative cubical homology of the block and
    its exit set."""
    res = compute_HI(system, seed=seed, coeff=coeff, tols=tols)
    classified = res.quadruple.block
    exitc = block_mod.exit_set(classified)
    rel = homalg.cubical_relative_homology(classified, exitc, coeff=coeff)
    return ExitTheoremReport(res.homology == rel, res.homology, rel), res


def block_independence(a, b, seed=0, coeff="Z", tols=DEFAULT):
    """Two blocks of one flow isolating the same invariant set must give
    equal HI."""
    _shared((a, b), "field")
    ra, rb = (compute_HI(s, seed=seed, coeff=coeff, tols=tols) for s in (a, b))
    return ra.homology == rb.homology, ra, rb


@dataclass
class DecompositionReport:
    q: homalg.PoincarePolynomial
    parts: list
    whole: homalg.PoincarePolynomial


def decomposition_analysis(whole, parts, seed=0, coeff="Z", tols=DEFAULT):
    """Morse relations for a declared decomposition: ``parts`` are the
    systems of the Morse sets, on the flow of ``whole``, with blocks
    pairwise disjoint inside its block."""
    _shared((whole, *parts), "field")
    whole, *parts = (compute_HI(s, seed=seed, coeff=coeff, tols=tols)
                     for s in (whole, *parts))
    pw = homalg.poincare(whole.homology)
    pp = [homalg.poincare(p.homology) for p in parts]
    q = homalg.relations_check(pp, pw)
    return DecompositionReport(q, pp, pw), whole, parts


# ---------------------------------------------------------------------------
# attractor-repeller pairs and connection matrices

@dataclass
class AttractorRepellerReport:
    boundary_blocks: dict      # k -> (dA, delta, dR) integer matrices
    delta_ranks: dict          # k -> rank of induced delta on homology
    q: homalg.PoincarePolynomial
    q_deficit: homalg.PoincarePolynomial
    connection_matrix_squares_to_zero: bool

    @property
    def verdict(self):
        return (self.connection_matrix_squares_to_zero
                and self.q == self.q_deficit)


def _split_complex(crits, top, a_block, r_block):
    """Partition the generators of the S complex into attractor and
    repeller generators by containment of their coordinates, and return
    per-degree index lists (A first).  The generators of degree k are the
    critical points of index k, in ``crits`` order, as ``morse.build_complex``
    lays them out."""
    by_degree = [[c for c in crits if c.index == k] for k in range(top + 1)]
    points = [c.coords for cs in by_degree for c in cs]
    X = np.array(points, dtype=float).reshape(len(points), a_block.dimension)
    in_a = a_block.contains_columns(X.T)
    bad = np.flatnonzero(in_a == r_block.contains_columns(X.T))
    if bad.size:
        raise NotAttractorRepellerError(
            f"critical point {points[bad[0]]} is in "
            f"{'both' if in_a[bad[0]] else 'neither'} sub-block")
    ends = np.cumsum([len(cs) for cs in by_degree])[:-1]
    return [(np.flatnonzero(a).tolist(), np.flatnonzero(~a).tolist())
            for a in np.split(in_a, ends)]


def attractor_repeller(s_result, a_block, r_block):
    """Reorder the S-level Morse boundary into the attractor-repeller block
    form, extract the connection data, and check the rank identity against
    the Poincare deficit."""
    complex_ = s_result.complex
    top = complex_.top
    order = _split_complex(s_result.quadruple.crits, top, a_block, r_block)
    na = [len(a_idx) for a_idx, _ in order]
    nr = [len(r_idx) for _, r_idx in order]
    blocks, dA, dR, delta = {}, {}, {}, {}
    for k in range(1, top + 1):
        M = complex_.boundary(k)
        arow, rrow = order[k - 1]
        acol, rcol = order[k]
        dA[k] = [[M[i][j] for j in acol] for i in arow]
        dR[k] = [[M[i][j] for j in rcol] for i in rrow]
        delta[k] = [[M[i][j] for j in rcol] for i in arow]
        lower_left = [(i, j, M[i][j]) for i in rrow for j in acol if M[i][j]]
        if lower_left:
            i, j, v = lower_left[0]
            raise NotAttractorRepellerError(
                "connection from the attractor up to the repeller detected "
                f"(entry {v} at boundary degree {k}, row {i}, col {j}); "
                "not an attractor-repeller pair at this resolution")
        blocks[k] = (dA[k], delta[k], dR[k])
    ha = homalg.homology(homalg.ChainComplex(na, dA))
    hr = homalg.homology(homalg.ChainComplex(nr, dR))
    # induced map on homology: rank of delta_k restricted to cycles of the
    # repeller complex, modulo boundaries of the attractor complex
    dranks = {k: _induced_rank(delta[k], dR[k], dA[k], nr[k])
              for k in range(1, top + 1)}
    squares = _delta_squares_to_zero(top, dA, dR, delta, na, nr)
    # rank identity: Q_t = sum_k rank(delta_k on homology) t^{k-1}
    q = homalg.PoincarePolynomial(tuple(dranks[k] for k in range(1, top + 1)))
    deficit = homalg.relations_check(
        [homalg.poincare(ha), homalg.poincare(hr)],
        homalg.poincare(s_result.homology))
    return AttractorRepellerReport(blocks, dranks, q, deficit, squares), ha, hr


def _rank(rows, *blocks):
    """Rank over Q of the integer matrix [B_1 | B_2 | ...] with ``rows``
    rows, as its number of Smith invariant factors.  A block with no
    columns may be given with no rows."""
    M = [[] for _ in range(rows)]
    for B in blocks:
        for out, row in zip(M, B):
            out.extend(row)
    return len(homalg.smith_normal_form(M)[0])


def _delta_squares_to_zero(top, dA, dR, delta, na, nr):
    """Check that the connection matrix Delta on H_*(A) + H_*(R) exists
    and squares to zero.

    Delta carries H_k(R) into H_{k-1}(A) via the induced delta_k and is
    zero on H_*(A).  It exists when delta_k takes every R-cycle into
    span(ker dA_{k-1}, im dA_k), that is when
    rank [KA_{k-1} | dA_k | delta_k KR_k] = rank [KA_{k-1} | dA_k]
    for the kernel bases KA and KR.  Its only nonzero block maps
    R-coordinates into A-coordinates, so Delta^2 = 0 for any such Delta."""
    for k in range(1, top + 1):
        span = (homalg.kernel_basis(dA.get(k - 1, []), na[k - 1]), dA[k])
        image = homalg.matmul(delta[k], homalg.kernel_basis(dR[k], nr[k]))
        if _rank(na[k - 1], *span, image) != _rank(na[k - 1], *span):
            return False  # delta of a cycle fails to be a cycle
    return True


def _induced_rank(delta, dR_k, dA_k, nr_k):
    """Rank of the map H_k(R) -> H_{k-1}(A) induced by delta.

    Restrict delta to ker(dR_k) and mod out by im(dA_k):
    rank = rank([delta K | dA_k]) - rank(dA_k) over Q, where K is a
    Z-basis of ker(dR_k), which is a basis over Q too.
    """
    K = homalg.kernel_basis(dR_k, nr_k)
    rows = len(delta)
    return _rank(rows, homalg.matmul(delta, K), dA_k) - _rank(rows, dA_k)


# ---------------------------------------------------------------------------
# continuation

def continuation_invariance(start, end, lam_grid, seed=0, coeff="Z",
                            tols=DEFAULT):
    """Check isolation along the grid, as one family batch, then equality
    of HI of ``start`` at the grid's first value and of ``end`` at its
    last.  Both are one family on one block; they differ in the Lyapunov
    function and the invariant set.  The error names the first lam at which
    the block is not isolating."""
    _shared((start, end), "field", "block")
    lams = [float(lv) for lv in lam_grid]
    rep = block_mod.check_isolation(start.block, start.field, lam=lams,
                                    tols=tols)
    for lv, r in zip(lams, rep.members):
        if not r:
            raise ContinuationError(
                f"block stops isolating at lam = {lv} (trapped "
                f"samples {r.failures[:3]}); not a continuation")
    r0, r1 = (compute_HI(s.at(lv), seed=seed, coeff=coeff, tols=tols)
              for s, lv in ((start, lams[0]), (end, lams[-1])))
    return r0.homology == r1.homology, r0, r1
