"""Pipeline orchestration and structural theorems: the exit-set theorem,
the Morse relations of a decomposition, and continuation.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from . import block as block_mod
from . import expr, homalg, lyapunov, morse
from .config import DEFAULT


class ConleyError(Exception):
    pass


class PipelineError(ConleyError):
    pass


class ContinuationError(ConleyError):
    pass


@dataclass
class HIResult:
    """HI_* and the data it is computed from: a Morse function on a block
    with the Euclidean metric and the canonical orientation frames, and
    H_*(B, B-), which the exit-set theorem says HI_* equals."""

    homology: homalg.HomologyResult
    relative: homalg.HomologyResult
    exit_theorem: bool  # homology == relative
    f: object          # Expr after perturbation
    crits: list
    certificate: object
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
        function and the perturbation by ``expr.bind``; ExprError naming
        ``lam`` on a constant domain error."""
        bind = (lambda e: None if e is None else expr.bind(e, lam))
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
    function, find critical points, count connections, take homology, and
    take H_*(B, B-) from the block and its exit set."""
    fieldd, b = system.field, system.block
    tags = block_mod.classify_boundary(b, fieldd, tols=tols)
    exitc = block_mod.exit_set(b, tags)  # raises on unresolved faces
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
    complex_, counts = morse.build_complex(f, b, crits, tols=tols, seed=seed)
    h = homalg.homology(complex_, coeff=coeff)
    rel = homalg.cubical_relative_homology(b, exitc, coeff=coeff)
    return HIResult(h, rel, h == rel, f, crits, cert, complex_, counts)


def _checked(name, res):
    """``res``, the HI of the system ``name``, if it passes the exit-set
    theorem; PipelineError naming both homologies if not."""
    if not res.exit_theorem:
        raise PipelineError(f"exit-set theorem fails for {name}: HI is "
                            f"{res.homology.describe()}, H(B, B-) is "
                            f"{res.relative.describe()}")
    return res


@dataclass
class DecompositionReport:
    q: homalg.PoincarePolynomial
    parts: list
    whole: homalg.PoincarePolynomial


def _disjoint(parts):
    """ConleyError unless the blocks of ``parts`` share no interior point.
    A cube is the box origin + spacing * [i, i + 1] per axis, on its own
    block's spacing; two cubes overlap when their sides do, with positive
    length, on every axis.  The error names the two sets by position."""
    boxes = [(b.cubes * b.spacing + b.origin, b.spacing)
             for b in (p.block for p in parts)]
    for j, (lo_j, h_j) in enumerate(boxes):
        for i, (lo_i, h_i) in enumerate(boxes[:j]):
            if any(((lo < lo_j + h_j) & (lo_j < lo + h_i)).all(1).any()
                   for lo in lo_i):
                raise ConleyError(f"decomposition sets {i} and {j} overlap: "
                                  "their blocks share an interior point")


def decomposition_analysis(whole, parts, seed=0, coeff="Z", tols=DEFAULT):
    """Morse relations for a declared decomposition: ``parts`` are the
    systems of the Morse sets, on the flow of ``whole``, with blocks
    pairwise disjoint inside its block (overlapping ones are refused
    before any HI is computed), and each HI passing the exit-set theorem."""
    _shared((whole, *parts), "field")
    _disjoint(parts)
    whole, *parts = (_checked(f"set {i - 1}" if i else "the whole",
                              compute_HI(s, seed=seed, coeff=coeff, tols=tols))
                     for i, s in enumerate((whole, *parts)))
    pw = homalg.poincare(whole.homology)
    pp = [homalg.poincare(p.homology) for p in parts]
    q = homalg.relations_check(pp, pw)
    return DecompositionReport(q, pp, pw), whole, parts


# ---------------------------------------------------------------------------
# continuation

def continuation_invariance(start, end, lam_grid, seed=0, coeff="Z",
                            tols=DEFAULT):
    """Check isolation along the grid, one value at a time in grid order,
    each on the field bound there by ``expr.bind_field``, then equality of
    HI of ``start`` at the grid's first value and of ``end`` at its last.
    Both are one family on one block; they differ in the Lyapunov function
    and the invariant set.  The error names the first lam at which the
    field has no value (an ExprError) or the block is not isolating; both
    HI must pass the exit-set theorem."""
    _shared((start, end), "field", "block")
    lams = [float(lv) for lv in lam_grid]
    for lv in lams:
        rep = block_mod.check_isolation(
            start.block, expr.bind_field(start.field, lv), tols=tols)
        if not rep:
            raise ContinuationError(
                f"block stops isolating at lam = {lv} (trapped "
                f"samples {rep.failures[:3]}); not a continuation")
    ends = (("the start", start, lams[0]), ("the end", end, lams[-1]))
    r0, r1 = (_checked(f"{name} (lam = {lv})",
                       compute_HI(s.at(lv), seed=seed, coeff=coeff, tols=tols))
              for name, s, lv in ends)
    return r0.homology == r1.homology, r0, r1
