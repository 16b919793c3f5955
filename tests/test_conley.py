"""Pipeline orchestration: exit theorem, decompositions, attractor-repeller
pairs, and continuation."""
import math
import os
import random

import numpy as np
import pytest

import algebra_oracle
from mcfhom import block, cli, conley, expr, homalg, lyapunov, morse

DW_FIELD = ["x1 - x1^3"]
DW_LYAP = "x1^4/4 - x1^2/2"
DW_SDECL = lyapunov.SDeclaration(((-1.0,), (0.0,), (1.0,)), 0.15, 0.26)


def _dw():
    fld = expr.parse_field(DW_FIELD, 1)
    b = block.build_block(box=[(-2, 2)], spacing=0.5)
    return fld, b, expr.parse(DW_LYAP, 1), DW_SDECL


# ---------------------------------------------------------------------------
# compute_HI and the exit theorem

def test_hi_semistable_is_zero():
    fld = expr.parse_field(["x1^2/(1 + x1^2)"], 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    res = conley.compute_HI(fld, b, expr.parse("-x1", 1),
                            lyapunov.SDeclaration(((0.0,),), 0.1), seed=0)
    assert res.homology.describe() == "0"
    assert res.quadruple.crits == []


def test_hi_repeller():
    fld = expr.parse_field(["x1"], 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    rep, res = conley.verify_exit_theorem(
        fld, b, expr.parse("-(x1^4)/4", 1),
        lyapunov.SDeclaration(((0.0,),), 0.1), seed=0)
    assert rep.verdict
    assert rep.hi.describe() == "H_1 = Z"


def test_hi_attracting_interval():
    fld, b, lyap, sd = _dw()
    rep, res = conley.verify_exit_theorem(fld, b, lyap, sd, seed=0)
    assert rep.verdict
    assert rep.hi.describe() == "H_0 = Z"
    assert [c.index for c in res.quadruple.crits] == [0, 1, 0]


def test_exit_theorem_classifies_the_boundary_once(monkeypatch):
    path = os.path.join(os.path.dirname(__file__), "data", "saddle.json")
    fld, b, lyap, sd, lam, eps, pert = cli._parse_system(
        cli.load_system(path))
    calls = []
    classify = block.classify_boundary

    def counting(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr(block, "classify_boundary", counting)
    rep, res = conley.verify_exit_theorem(fld, b, lyap, sd, lam=lam, seed=0,
                                          epsilon=eps, perturbation=pert)
    assert rep.verdict
    assert len(calls) == 1
    assert block.UNRESOLVED not in res.quadruple.block.face_tags.values()


def test_hi_precheck_rejects_unresolved_faces():
    # the equilibrium at 0 sits on a face of [0, 2], so classification
    # cannot resolve that face
    fld = expr.parse_field(DW_FIELD, 1)
    bad = block.build_block(box=[(0, 2)], spacing=0.5)
    with pytest.raises(block.UnresolvedFacesError):
        conley.compute_HI(fld, bad, expr.parse(DW_LYAP, 1),
                          lyapunov.SDeclaration(((1.0,),), 0.1), seed=0)


def test_hi_precheck_rejects_non_isolating_block():
    # every face is transverse at the classification lattice, but the field
    # has an equilibrium at (1, 1/3), which is exactly an isolation sample
    # of the face x1 = 1: that sample never leaves the block
    fld = expr.parse_field(
        ["(x1 - 1)^2 + (x2 - 1/3)^2", "(x1 - 1)^2 + (x2 - 1/3)^2"], 2)
    bad = block.build_block(box=[(0, 1), (0, 1)], spacing=1.0)
    with pytest.raises(conley.PipelineError, match="isolating"):
        conley.compute_HI(fld, bad, expr.parse("-x1", 2),
                          lyapunov.SDeclaration((), 0.0), seed=0)


def test_hi_precheck_rejects_bad_lyapunov():
    fld = expr.parse_field(["x1"], 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    with pytest.raises(conley.PipelineError, match="Lyapunov"):
        conley.compute_HI(fld, b, expr.parse("(x1^2)/2", 1),
                          lyapunov.SDeclaration(((0.0,),), 0.1), seed=0)


# ---------------------------------------------------------------------------
# Morse relations / decompositions

def _dw_subspecs():
    V = expr.parse(DW_LYAP, 1)
    return [
        (block.build_block(box=[(-1.5, -0.5)], spacing=0.5), V,
         lyapunov.SDeclaration(((-1.0,),), 0.1)),
        (block.build_block(box=[(0.5, 1.5)], spacing=0.5), V,
         lyapunov.SDeclaration(((1.0,),), 0.1)),
        (block.build_block(box=[(-0.25, 0.25)], spacing=0.25), V,
         lyapunov.SDeclaration(((0.0,),), 0.1)),
    ]


def test_decomposition_double_well():
    fld, b, lyap, sd = _dw()
    dec, whole, parts = conley.decomposition_analysis(
        fld, b, lyap, sd, _dw_subspecs(), seed=0)
    assert str(dec.q) == "1"
    assert sorted(str(p) for p in dec.parts) == ["1", "1", "t"]
    assert str(dec.whole) == "1"


def test_decomposition_trivial():
    fld, b, lyap, sd = _dw()
    dec, _, _ = conley.decomposition_analysis(
        fld, b, lyap, sd, [(b, lyap, sd)], seed=0)
    assert str(dec.q) == "0"


def test_decomposition_saddle_alone():
    fld = expr.parse_field(["x1", "-x2"], 2)
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    lyap = expr.parse("-(x1^2 - x2^2)/2", 2)
    sd = lyapunov.SDeclaration(((0.0, 0.0),), 0.1)
    dec, _, _ = conley.decomposition_analysis(
        fld, b, lyap, sd, [(b, lyap, sd)], seed=0)
    assert str(dec.q) == "0"
    assert str(dec.whole) == "t"


def test_decomposition_chi_mismatch_rejected():
    fld, b, lyap, sd = _dw()
    # drop the repeller part: parts {1, 1} against whole {1}
    with pytest.raises(homalg.RelationsError):
        conley.decomposition_analysis(fld, b, lyap, sd, _dw_subspecs()[:2],
                                      seed=0)


# ---------------------------------------------------------------------------
# attractor-repeller pairs and the connection matrix

def test_attractor_repeller_double_well():
    fld, b, lyap, sd = _dw()
    res = conley.compute_HI(fld, b, lyap, sd, seed=0)
    a_block = block.build_block(cubes=[(1,), (2,), (5,), (6,)],
                                origin=(-2.0,), spacing=0.5)
    r_block = block.build_block(box=[(-0.25, 0.25)], spacing=0.25)
    rep, ha, hr = conley.attractor_repeller(res, a_block, r_block)
    assert ha.describe() == "H_0 = Z^2"
    assert hr.describe() == "H_1 = Z"
    assert rep.delta_ranks == {1: 1}
    assert str(rep.q) == "1"
    assert str(rep.q_deficit) == "1"
    assert rep.connection_matrix_squares_to_zero
    assert rep.verdict
    dA, delta, dR = rep.boundary_blocks[1]
    assert delta in ([[1], [-1]], [[-1], [1]])


def test_attractor_repeller_matches_decomposition_q():
    fld, b, lyap, sd = _dw()
    res = conley.compute_HI(fld, b, lyap, sd, seed=0)
    a_block = block.build_block(cubes=[(1,), (2,), (5,), (6,)],
                                origin=(-2.0,), spacing=0.5)
    r_block = block.build_block(box=[(-0.25, 0.25)], spacing=0.25)
    rep, _, _ = conley.attractor_repeller(res, a_block, r_block)
    dec, _, _ = conley.decomposition_analysis(
        fld, b, lyap, sd, _dw_subspecs(), seed=0)
    assert str(rep.q) == str(dec.q)


def test_attractor_repeller_decoupled_pair():
    # two attracting equilibria, no connecting orbits: delta = 0, Q = 0
    fld = expr.parse_field(DW_FIELD, 1)
    b = block.build_block(cubes=[(0,), (1,), (5,), (6,)], origin=(-1.75,),
                          spacing=0.5)
    lyap = expr.parse(DW_LYAP, 1)
    sd = lyapunov.SDeclaration(((-1.0,), (1.0,)), 0.15, 1e-8)
    res = conley.compute_HI(fld, b, lyap, sd, seed=0)
    assert res.homology.describe() == "H_0 = Z^2"
    a_block = block.build_block(box=[(-1.75, -0.75)], spacing=0.5)
    r_block = block.build_block(box=[(0.75, 1.75)], spacing=0.5)
    rep, ha, hr = conley.attractor_repeller(res, a_block, r_block)
    assert rep.delta_ranks.get(1, 0) == 0
    assert str(rep.q) == "0"
    assert rep.verdict


def test_attractor_repeller_rejects_upward_connection():
    # hand-built S-result with a generator in the attractor block mapping
    # down to one in the repeller block: the lower-left block is nonzero
    fld, b, lyap, sd = _dw()
    res = conley.compute_HI(fld, b, lyap, sd, seed=0)
    # swap roles: call the repeller sub-block the attractor and vice versa
    a_block = block.build_block(box=[(-0.25, 0.25)], spacing=0.25)
    r_block = block.build_block(cubes=[(1,), (2,), (5,), (6,)],
                                origin=(-2.0,), spacing=0.5)
    with pytest.raises(conley.NotAttractorRepellerError, match="connection"):
        conley.attractor_repeller(res, a_block, r_block)


def test_attractor_repeller_rejects_uncovered_generator():
    fld, b, lyap, sd = _dw()
    res = conley.compute_HI(fld, b, lyap, sd, seed=0)
    a_block = block.build_block(box=[(-1.5, -0.5)], spacing=0.5)
    r_block = block.build_block(box=[(-0.25, 0.25)], spacing=0.25)
    with pytest.raises(conley.NotAttractorRepellerError, match="neither"):
        conley.attractor_repeller(res, a_block, r_block)


def test_attractor_repeller_ring_and_its_repelling_centre():
    # the unit circle attracts, the origin repels; the connecting orbits
    # run from the index-2 maximum at the origin down into the ring
    fld = expr.parse_field(["x1*(1 - x1^2 - x2^2) - 0.2*x2",
                            "x2*(1 - x1^2 - x2^2) + 0.2*x1"], 2)
    b = block.build_block(box=[(-2, 2), (-2, 2)], spacing=0.5)
    V = expr.parse("-((x1^2 + x2^2)/2 - (x1^2 + x2^2)^2/4)", 2)
    ring = tuple((math.cos(math.pi * i / 16), math.sin(math.pi * i / 16))
                 for i in range(32))
    sd = lyapunov.SDeclaration(ring + ((0.0, 0.0),), 0.15, 0.26)
    res = conley.compute_HI(fld, b, V, sd, seed=0, epsilon=0.15,
                            perturbation=expr.parse("x1", 2))
    a_block = block.build_block(
        cubes=[(i, j) for i in range(8) for j in range(8)
               if not (3 <= i <= 4 and 3 <= j <= 4)],
        origin=(-2.0, -2.0), spacing=0.5)
    r_block = block.build_block(box=[(-0.5, 0.5), (-0.5, 0.5)], spacing=0.5)
    rep, ha, hr = conley.attractor_repeller(res, a_block, r_block)
    assert ha.describe() == "H_0 = Z; H_1 = Z"
    assert hr.describe() == "H_2 = Z"
    assert rep.delta_ranks == {1: 0, 2: 1}
    assert str(rep.q) == "t"
    assert rep.q == rep.q_deficit
    assert rep.connection_matrix_squares_to_zero
    assert rep.verdict


def _random_block_complex(rng):
    """Blocks dA, dR and delta of a random upper block-triangular boundary
    [[dA, delta], [0, dR]] with small entries; d^2 = 0 is not enforced."""
    top = rng.randint(1, 3)
    na = [rng.randint(0, 3) for _ in range(top + 1)]
    nr = [rng.randint(0, 3) for _ in range(top + 1)]

    def mat(rows, cols):
        return [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(cols)]
                for _ in range(rows)]

    dA = {k: mat(na[k - 1], na[k]) for k in range(1, top + 1)}
    dR = {k: mat(nr[k - 1], nr[k]) for k in range(1, top + 1)}
    delta = {k: mat(na[k - 1], nr[k]) for k in range(1, top + 1)}
    return top, dA, dR, delta, na, nr


def test_connection_matrix_algebra_agrees_with_the_fraction_oracle():
    rng = random.Random(5)
    flags = []
    for _ in range(300):
        top, dA, dR, delta, na, nr = _random_block_complex(rng)
        for k in range(1, top + 1):
            assert conley._induced_rank(delta[k], dR[k], dA[k], nr[k]) == \
                algebra_oracle.induced_rank(delta[k], dR[k], dA[k], nr[k])
        flag = conley._delta_squares_to_zero(top, dA, dR, delta, na, nr)
        assert flag == algebra_oracle.delta_squares_to_zero(
            top, dA, dR, delta, na, nr)
        flags.append(flag)
    assert True in flags and False in flags


# ---------------------------------------------------------------------------
# continuation functions and the index-split lemma

def test_build_continuation_constant_homotopy():
    f = expr.parse("(x1^2 - 1)^2 + x2^2", 2)
    b = block.build_block(box=[(-2, 2), (-2, 2)], spacing=0.5)
    cf = conley.build_continuation_function(f, b)
    assert cf.r == 1.0  # zero sampled bound, floor amplitude
    assert conley.continuation_r_bound(f, b, cf.delta) == 0.0


def test_build_continuation_rejects_bad_delta():
    f = expr.parse("x1^2", 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    with pytest.raises(conley.ContinuationError, match="delta"):
        conley.build_continuation_function(f, b, delta=0.3)


def test_build_continuation_rejects_small_r():
    fl = expr.parse("x1^2/2 + lam*x1", 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    bound = conley.continuation_r_bound(fl, b, 0.2)
    assert bound > 0
    with pytest.raises(conley.ContinuationError, match="bound"):
        conley.build_continuation_function(fl, b, r=0.5 * bound)


def test_index_split_1d_repeller_homotopy():
    fl = expr.parse(
        "-(x1^2)/2 + lam*((-(x1^4)/4 + 0.001*x1) - (-(x1^2)/2))", 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    cf = conley.build_continuation_function(fl, b)
    rep = conley.verify_index_split(cf, b)
    assert rep.verdict, rep.failures
    mus = sorted(round(mu, 6) for _, mu, _ in rep.crit_mu)
    assert mus == [0.0, 1.0]
    at0 = [idx for _, mu, idx in rep.crit_mu if min(mu, 2 - mu) <= 1e-6]
    at1 = [idx for _, mu, idx in rep.crit_mu if abs(mu - 1) <= 1e-6]
    assert at0 == [2] and at1 == [1]
    assert rep.alpha_indices == [1] and rep.beta_indices == [1]


def test_index_split_detects_interior_critical_point_when_r_zero():
    fl = expr.parse(
        "-(x1^2)/2 + lam*((-(x1^4)/4 + 0.001*x1) - (-(x1^2)/2))", 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    cf = conley.ContinuationFunction(fl, 0.2, 1.0, 0.0)
    rep = conley.verify_index_split(cf, b)
    assert not rep.verdict
    assert any("interior mu" in msg for msg in rep.failures)


# ---------------------------------------------------------------------------
# continuation invariance

def test_continuation_translated_double_well():
    fam = expr.parse_field(["x1 - x1^3 + 0.1*lam"], 1)
    b = block.build_block(box=[(-2, 2)], spacing=0.5)
    V0 = expr.parse(DW_LYAP, 1)
    V1 = expr.parse("x1^4/4 - x1^2/2 - 0.1*x1", 1)
    sd1 = lyapunov.SDeclaration(
        ((-0.9460,), (-0.1024,), (1.0484,)), 0.15, 0.40)
    ok, r0, r1 = conley.continuation_invariance(
        fam, b, [0, 0.5, 1.0], V0, V1, DW_SDECL, sd1, seed=0)
    assert ok
    assert r0.homology.describe() == "H_0 = Z"
    assert r1.homology == r0.homology


def test_continuation_breach_names_lambda():
    # x' = x^2 + 0.2 - 1.2 lam: at lam = 1 the equilibria sit at +-1 on the
    # block boundary, so isolation fails there
    fam = expr.parse_field(["x1^2 + 0.2 - 1.2*lam"], 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    sd = lyapunov.SDeclaration((), 0.0)
    with pytest.raises(conley.ContinuationError, match="lam = 1.0"):
        conley.continuation_invariance(
            fam, b, [0, 0.5, 1.0], expr.parse("-x1", 1),
            expr.parse("-x1", 1), sd, sd, seed=0)


@pytest.mark.parametrize("family", [
    "x1^2 + 0.2 - 1.2*lam",
    "x1 - x1^3 + 0.1*sin(3*lam)",
    "x1*cos(lam) - x1^3 + 0.05*lam^2",
    "exp(-lam)*x1 - x1^3/(1 + lam)"])
def test_isolation_family_equals_one_lam_at_a_time(family):
    # the grid as one batch, lam a value per column, against a check of
    # every lam by itself
    fam = expr.parse_field([family], 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    rep = block.check_isolation(b, fam, lam=grid)
    assert len(rep.members) == len(grid)
    for lv, r in zip(grid, rep.members):
        w = block.check_isolation(b, fam, lam=lv)
        assert (r.verdict, r.samples, r.failures, r.worst_margin) == \
            (w.verdict, w.samples, w.failures, w.worst_margin)
    assert rep.verdict == all(rep.members)
    assert rep.samples == [s for r in rep.members for s in r.samples]
    # the worst margin is over the samples that left, as in each member
    assert rep.worst_margin == min(
        r.worst_margin for r in rep.members
        if any(o != "trapped" for _, o in r.samples))


def test_block_independence_repeller():
    fld = expr.parse_field(["x1"], 1)
    V = expr.parse("-(x1^4)/4", 1)
    sd = lyapunov.SDeclaration(((0.0,),), 0.05)
    ok, ra, rb = conley.block_independence(
        fld, V, block.build_block(box=[(-0.5, 0.5)], spacing=0.25),
        V, block.build_block(box=[(-1, 1)], spacing=0.5), sd, sd, seed=0)
    assert ok
    assert ra.homology.describe() == "H_1 = Z"
