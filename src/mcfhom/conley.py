"""Pipeline orchestration and structural theorems: exit-set equivalence,
block independence, Morse decompositions with connection matrices, and
continuation.

For continuation, the critical points of F on B x S^1 come from the Newton
solver of ``morse`` with mu as a periodic coordinate, and the sampled bound
on the amplitude r is one array evaluation over the block's lattice and
the mu circle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import block as block_mod
from . import expr, flow, homalg, lyapunov, morse
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
    base: object       # base Lyapunov Expr
    epsilon: float
    seed: int
    certificate: object


@dataclass
class HIResult:
    homology: homalg.HomologyResult
    quadruple: Quadruple
    complex: homalg.ChainComplex
    counts: list


def compute_HI(fieldd, b, lyap, s_decl, lam=None, seed=0, epsilon=None,
               perturbation=None, coeff="Z", tols=DEFAULT):
    """Full pipeline: verify the inputs, Morse-perturb the Lyapunov
    function, find critical points, count connections, take homology."""
    classified = block_mod.classify_boundary(b, fieldd, lam=lam, tols=tols)
    block_mod.exit_set(classified)  # raises on unresolved faces
    iso = block_mod.check_isolation(b, fieldd, lam=lam, tols=tols)
    if not iso:
        raise PipelineError(
            f"block is not isolating (trapped samples {iso.failures[:3]})")
    rep = lyapunov.verify_lyapunov(lyap, fieldd, b, s_decl, lam=lam,
                                   tols=tols)
    if not rep:
        raise PipelineError(
            f"Lyapunov verification failed (min decrease "
            f"{rep.min_decrease:.3e} at {rep.min_location}, "
            f"f spread over S {rep.value_spread:.3e})")
    rng = np.random.default_rng(seed)
    eps = tols.epsilon if epsilon is None else epsilon
    f, cert = lyapunov.morse_perturb(lyap, b, epsilon=eps,
                                     perturbation=perturbation, rng=rng,
                                     lam=lam, tols=tols)
    crits = morse.find_critical_points(f, b, lam=lam, tols=tols)
    complex_, counts = morse.build_complex(
        f, b, crits, lam=lam, tols=tols, coeff=coeff, seed=seed)
    h = homalg.homology(complex_, coeff=coeff)
    quad = Quadruple(f, classified, crits, lyap, eps, seed, cert)
    return HIResult(h, quad, complex_, counts)


@dataclass
class ExitTheoremReport:
    verdict: bool
    hi: homalg.HomologyResult
    relative: homalg.HomologyResult


def verify_exit_theorem(fieldd, b, lyap, s_decl, lam=None, seed=0,
                        epsilon=None, perturbation=None, coeff="Z",
                        tols=DEFAULT):
    """Compare HI against the relative cubical homology of the block and
    its exit set."""
    res = compute_HI(fieldd, b, lyap, s_decl, lam=lam, seed=seed,
                     epsilon=epsilon, perturbation=perturbation,
                     coeff=coeff, tols=tols)
    classified = res.quadruple.block
    exitc = block_mod.exit_set(classified)
    rel = homalg.cubical_relative_homology(classified, exitc, coeff=coeff)
    return ExitTheoremReport(res.homology == rel, res.homology, rel), res


def block_independence(fieldd, lyap_a, block_a, lyap_b, block_b, s_decl_a,
                       s_decl_b, lam=None, seed=0, epsilon=None, coeff="Z",
                       tols=DEFAULT):
    """Two blocks isolating the same invariant set must give equal HI."""
    ra = compute_HI(fieldd, block_a, lyap_a, s_decl_a, lam=lam, seed=seed,
                    epsilon=epsilon, coeff=coeff, tols=tols)
    rb = compute_HI(fieldd, block_b, lyap_b, s_decl_b, lam=lam, seed=seed,
                    epsilon=epsilon, coeff=coeff, tols=tols)
    return ra.homology == rb.homology, ra, rb


@dataclass
class DecompositionReport:
    q: homalg.PoincarePolynomial
    parts: list
    whole: homalg.PoincarePolynomial


def decomposition_analysis(fieldd, s_block, s_lyap, s_decl, sub_specs,
                           lam=None, seed=0, epsilon=None, coeff="Z",
                           tols=DEFAULT):
    """Morse relations for a declared decomposition.

    ``sub_specs`` is a list of (block, lyapunov Expr, SDeclaration) for the
    Morse sets, pairwise disjoint inside the S block.
    """
    whole = compute_HI(fieldd, s_block, s_lyap, s_decl, lam=lam, seed=seed,
                       epsilon=epsilon, coeff=coeff, tols=tols)
    parts = []
    for sb, sl, sd in sub_specs:
        parts.append(compute_HI(fieldd, sb, sl, sd, lam=lam, seed=seed,
                                epsilon=epsilon, coeff=coeff, tols=tols))
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
    order = []
    for k in range(top + 1):
        a_idx, r_idx = [], []
        for i, c in enumerate(c for c in crits if c.index == k):
            p = np.asarray(c.coords)
            in_a = a_block.contains(p)
            in_r = r_block.contains(p)
            if in_a == in_r:
                raise NotAttractorRepellerError(
                    f"critical point {c.coords} is in "
                    f"{'both' if in_a else 'neither'} sub-block")
            (a_idx if in_a else r_idx).append(i)
        order.append((a_idx, r_idx))
    return order


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

@dataclass(frozen=True)
class ContinuationFunction:
    """F(x, mu) = f_{omega(mu)}(x) + r (1 + cos(pi mu)) on B x S^1, with
    S^1 = R / 2Z and omega the flat-ended even ramp profile."""

    f_lam: object   # Expr in x and lam
    delta: float
    kappa: float
    r: float

    @property
    def expr_in_mu(self):
        """F as an Expr in x1..xm and lam, where lam plays the role of mu."""
        omega = expr.RampProfile(0, self.delta, expr.Param())
        body = expr.substitute_param(self.f_lam, omega)
        bump = expr.mul(expr.Const(self.r),
                        expr.add(expr.ONE,
                                 expr.call("cos",
                                           expr.mul(expr.Const(math.pi),
                                                    expr.Param()))))
        return expr.add(body, bump)


def continuation_r_bound(f_lam, b, delta):
    """Sampled bound max |omega'(mu) d/dlam f_lam| / (pi sin(pi delta))
    over a 9-per-axis lattice on the block times 41 points of the mu
    circle, evaluated as one array."""
    dflam = expr.compile_scalar(expr.derive(f_lam, "lam"))
    mus = np.linspace(-1.0, 1.0, 41)[None, :]
    w0, w1 = (expr.compile_scalar(expr.RampProfile(k, delta, expr.Var(0)))(
        mus)[:, None] for k in (0, 1))
    with np.errstate(all="ignore"):
        v = np.abs(w1 * dflam(b.lattice(9).T, w0))
    # a value of mu with omega' = 0 adds nothing, even where d/dlam f_lam
    # is not finite, and NaN never raises the maximum
    best = np.fmax.reduce(np.where(w1 != 0.0, v, 0.0), axis=None, initial=0.0)
    return float(best) / (math.pi * math.sin(math.pi * delta))


def build_continuation_function(f_lam, b, delta=0.2, kappa=1.0, r=None):
    """Assemble the continuation function, choosing the amplitude r from
    the sampled bound when not supplied."""
    if not 0.0 < delta < 0.25:
        raise ContinuationError(f"delta must lie in (0, 1/4), got {delta}")
    bound = continuation_r_bound(f_lam, b, delta)
    if r is None:
        r = max(2.0 * bound, 1.0)
    elif r <= bound:
        raise ContinuationError(
            f"amplitude r = {r} does not exceed the sampled bound {bound}")
    return ContinuationFunction(f_lam, delta, kappa, float(r))


@dataclass
class IndexSplitReport:
    verdict: bool
    crit_mu: list        # (coords, mu, index of F)
    alpha_indices: list  # Morse indices of f_lam at lam=0
    beta_indices: list   # at lam=1
    failures: list


def verify_index_split(cf, b, tols=DEFAULT):
    """Find the critical points of F on B x S^1 and check they sit at
    mu in {0, 1} with the index shift of the endpoints' Morse functions.

    F is searched as a function of m + 1 coordinates, the last being the
    period-2 coordinate mu, by ``morse.newton`` from the seed lattice of the
    block times 16 values of mu."""
    m = b.dimension
    F = expr.substitute_param(cf.expr_in_mu, expr.Var(m))
    lat = b.lattice(tols.seed_density)
    mu_seeds = np.linspace(0.0, 2.0, 17)[:-1]
    seeds = np.column_stack([np.repeat(lat, mu_seeds.size, axis=0),
                             np.tile(mu_seeds, len(lat))]).T
    P, H = morse.newton(F, b, seeds, None, tols.newton_tol, 2.0,
                        max(10 * tols.newton_tol, 1e-7))
    index = np.sum(np.linalg.eigvalsh(0.5 * (H + H.transpose(0, 2, 1))) < 0,
                   axis=1)
    crit_mu = []
    failures = []
    for p, idx in zip(P.T, index):
        mu = float(p[m])
        crit_mu.append((tuple(float(v) for v in p[:m]), mu, int(idx)))
        dmu0 = min(mu, 2.0 - mu)
        dmu1 = abs(mu - 1.0)
        if min(dmu0, dmu1) > 1e-6:
            failures.append(
                f"critical point at interior mu = {mu} (r too small "
                "or bound undersampled)")
    # endpoint Morse indices of f_lam at lam = 0 and 1
    alpha = _endpoint_indices(cf.f_lam, b, 0.0, tols)
    beta = _endpoint_indices(cf.f_lam, b, 1.0, tols)
    at0 = sorted(idx for _, mu, idx in crit_mu
                 if min(mu, 2.0 - mu) <= 1e-6)
    at1 = sorted(idx for _, mu, idx in crit_mu if abs(mu - 1.0) <= 1e-6)
    if at0 != sorted(i + 1 for i in alpha):
        failures.append(
            f"indices at mu=0 are {at0}, expected shift of {sorted(alpha)}")
    if at1 != sorted(beta):
        failures.append(
            f"indices at mu=1 are {at1}, expected {sorted(beta)}")
    # chain-group split by cardinality: C_k(F) = C_{k-1}(f^a) + C_k(f^b)
    top = max([idx for _, _, idx in crit_mu], default=0)
    for k in range(top + 2):
        lhs = sum(1 for _, _, idx in crit_mu if idx == k)
        rhs = sum(1 for i in alpha if i == k - 1) \
            + sum(1 for i in beta if i == k)
        if lhs != rhs:
            failures.append(
                f"chain group split fails in degree {k}: {lhs} != {rhs}")
    return IndexSplitReport(not failures, crit_mu, sorted(alpha),
                            sorted(beta), failures)


def _endpoint_indices(f_lam, b, lam, tols):
    f = expr.substitute_param(f_lam, expr.Const(lam))
    crits = morse.find_critical_points(f, b, tols=tols)
    return [c.index for c in crits]


def continuation_invariance(family, b, lam_grid, lyap0, lyap1, s_decl0,
                            s_decl1, seed=0, epsilon=None, coeff="Z",
                            tols=DEFAULT):
    """Check isolation along the grid, as one family batch, then equality
    of endpoint HI.  The error names the first lam of the grid at which the
    block is not isolating."""
    lams = [float(lv) for lv in lam_grid]
    rep = block_mod.check_isolation(b, family, lam=lams, tols=tols)
    for lv, r in zip(lams, rep.members):
        if not r:
            raise ContinuationError(
                f"block stops isolating at lam = {lv} (trapped "
                f"samples {r.failures[:3]}); not a continuation")
    r0 = compute_HI(family, b, lyap0, s_decl0, lam=float(lam_grid[0]),
                    seed=seed, epsilon=epsilon, coeff=coeff, tols=tols)
    r1 = compute_HI(family, b, lyap1, s_decl1, lam=float(lam_grid[-1]),
                    seed=seed, epsilon=epsilon, coeff=coeff, tols=tols)
    return r0.homology == r1.homology, r0, r1
