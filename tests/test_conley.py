"""Pipeline orchestration: exit theorem, decompositions and continuation."""
import dataclasses
import json
import math
import os
import types

import numpy as np
import pytest

import algebra_oracle
import conley_oracle
from mcfhom import block, cli, conley, expr, homalg, lyapunov

DW_FIELD = ["x1 - x1^3"]
DW_LYAP = "x1^4/4 - x1^2/2"
DW_SDECL = lyapunov.SDeclaration(((-1.0,), (0.0,), (1.0,)), 0.15, 0.26)


def _dw():
    return conley.System(expr.parse_field(DW_FIELD, 1),
                         block.build_block(box=[(-2, 2)], spacing=0.5),
                         expr.parse(DW_LYAP, 1), DW_SDECL)


def test_system_at_binds_lam_in_every_expression():
    system = conley.System(
        expr.parse_field(["lam*x1", "-x2"], 2), None,
        expr.parse("x1^2 - lam*x2^2", 2), DW_SDECL, epsilon=0.1,
        perturbation=expr.parse("x1 + lam", 2))
    at = system.at(2)
    assert at.field == expr.parse_field(["2*x1", "-x2"], 2)
    assert at.lyapunov == expr.parse("x1^2 - 2*x2^2", 2)
    assert at.perturbation == expr.parse("x1 + 2", 2)
    assert (at.block, at.invariant_set, at.epsilon) == \
        (None, DW_SDECL, 0.1)
    assert conley.System(system.field, None, None, DW_SDECL).at(2) \
        == dataclasses.replace(at, lyapunov=None, epsilon=None,
                               perturbation=None)
    with pytest.raises(expr.ExprError, match="division by zero"):
        dataclasses.replace(system, perturbation=expr.parse("x1/lam", 2)).at(0)


# ---------------------------------------------------------------------------
# compute_HI and the exit theorem

def test_hi_semistable_is_zero():
    fld = expr.parse_field(["x1^2/(1 + x1^2)"], 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    res = conley.compute_HI(conley.System(
        fld, b, expr.parse("-x1", 1), lyapunov.SDeclaration(((0.0,),), 0.1)),
        seed=0)
    assert res.homology.describe() == "0"
    assert res.crits == []


def test_hi_repeller():
    fld = expr.parse_field(["x1"], 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    res = conley.compute_HI(conley.System(
        fld, b, expr.parse("-(x1^4)/4", 1),
        lyapunov.SDeclaration(((0.0,),), 0.1)), seed=0)
    assert res.exit_theorem
    assert res.homology.describe() == "H_1 = Z"


def test_hi_attracting_interval():
    res = conley.compute_HI(_dw(), seed=0)
    assert res.exit_theorem
    assert res.homology.describe() == "H_0 = Z"
    assert [c.index for c in res.crits] == [0, 1, 0]


def test_hi_ring_and_its_repelling_centre():
    # the unit circle attracts, the origin repels: an index-2 source on a
    # flow that is not a gradient, over the square block, whose connecting
    # orbits run down into the ring
    fld = expr.parse_field(["x1*(1 - x1^2 - x2^2) - 0.2*x2",
                            "x2*(1 - x1^2 - x2^2) + 0.2*x1"], 2)
    b = block.build_block(box=[(-2, 2), (-2, 2)], spacing=0.5)
    V = expr.parse("-((x1^2 + x2^2)/2 - (x1^2 + x2^2)^2/4)", 2)
    ring = tuple((math.cos(math.pi * i / 16), math.sin(math.pi * i / 16))
                 for i in range(32))
    sd = lyapunov.SDeclaration(ring + ((0.0, 0.0),), 0.15, 0.26)
    res = conley.compute_HI(conley.System(
        fld, b, V, sd, epsilon=0.15, perturbation=expr.parse("x1", 2)),
        seed=0)
    assert res.homology.describe() == "H_0 = Z"
    assert res.complex.dims == [1, 1, 1]
    assert algebra_oracle.dense(res.complex, 1) == [[0]]
    assert algebra_oracle.dense(res.complex, 2) in ([[1]], [[-1]])


def test_hi_decoupled_pair():
    # two attracting equilibria on a block of two components, no
    # connecting orbit between them
    fld = expr.parse_field(DW_FIELD, 1)
    b = block.build_block(cubes=[(0,), (1,), (5,), (6,)], origin=(-1.75,),
                          spacing=0.5)
    sd = lyapunov.SDeclaration(((-1.0,), (1.0,)), 0.15, 1e-8)
    res = conley.compute_HI(
        conley.System(fld, b, expr.parse(DW_LYAP, 1), sd), seed=0)
    assert res.homology.describe() == "H_0 = Z^2"
    assert [c.index for c in res.crits] == [0, 0]


def test_hi_classifies_the_boundary_once_and_takes_one_relative_homology(
        monkeypatch, capsys):
    path = os.path.join(os.path.dirname(__file__), "data", "saddle.json")
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)

    counting(block, "classify_boundary")
    counting(homalg, "cubical_relative_homology")
    assert cli.main(["hi", path]) == 0
    assert json.loads(capsys.readouterr().out)["exit_theorem"] is True
    assert calls == ["classify_boundary", "cubical_relative_homology"]


def test_hi_precheck_rejects_unresolved_faces():
    # the equilibrium at 0 sits on a face of [0, 2], so classification
    # cannot resolve that face
    fld = expr.parse_field(DW_FIELD, 1)
    bad = block.build_block(box=[(0, 2)], spacing=0.5)
    with pytest.raises(block.UnresolvedFacesError):
        conley.compute_HI(conley.System(
            fld, bad, expr.parse(DW_LYAP, 1),
            lyapunov.SDeclaration(((1.0,),), 0.1)), seed=0)


def test_hi_precheck_rejects_non_isolating_block():
    # every face is transverse at the classification lattice, but the field
    # has an equilibrium at (1, 1/3), which is exactly an isolation sample
    # of the face x1 = 1: that sample never leaves the block
    fld = expr.parse_field(
        ["(x1 - 1)^2 + (x2 - 1/3)^2", "(x1 - 1)^2 + (x2 - 1/3)^2"], 2)
    bad = block.build_block(box=[(0, 1), (0, 1)], spacing=1.0)
    with pytest.raises(conley.PipelineError, match="isolating"):
        conley.compute_HI(conley.System(
            fld, bad, expr.parse("-x1", 2), lyapunov.SDeclaration((), 0.0)),
            seed=0)


def test_hi_precheck_rejects_bad_lyapunov():
    fld = expr.parse_field(["x1"], 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    with pytest.raises(conley.PipelineError, match="Lyapunov"):
        conley.compute_HI(conley.System(
            fld, b, expr.parse("(x1^2)/2", 1),
            lyapunov.SDeclaration(((0.0,),), 0.1)), seed=0)


# ---------------------------------------------------------------------------
# Morse relations / decompositions

def _dw_parts(dw):
    """The Morse sets of the double well: its two wells and the repeller
    between them, on the flow of ``dw``."""
    return [dataclasses.replace(
        dw, block=block.build_block(box=box, spacing=h),
        invariant_set=lyapunov.SDeclaration(((x,),), 0.1))
        for box, h, x in (([(-1.5, -0.5)], 0.5, -1.0),
                          ([(0.5, 1.5)], 0.5, 1.0),
                          ([(-0.25, 0.25)], 0.25, 0.0))]


def test_decomposition_double_well():
    dw = _dw()
    dec, whole, parts = conley.decomposition_analysis(
        dw, _dw_parts(dw), seed=0)
    assert str(dec.q) == "1"
    assert sorted(str(p) for p in dec.parts) == ["1", "1", "t"]
    assert str(dec.whole) == "1"


def test_decomposition_trivial():
    dw = _dw()
    dec, _, _ = conley.decomposition_analysis(dw, [dw], seed=0)
    assert str(dec.q) == "0"


def test_decomposition_saddle_alone():
    fld = expr.parse_field(["x1", "-x2"], 2)
    b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
    lyap = expr.parse("-(x1^2 - x2^2)/2", 2)
    saddle = conley.System(fld, b, lyap,
                           lyapunov.SDeclaration(((0.0, 0.0),), 0.1))
    dec, _, _ = conley.decomposition_analysis(saddle, [saddle], seed=0)
    assert str(dec.q) == "0"
    assert str(dec.whole) == "t"


def test_decomposition_chi_mismatch_rejected():
    dw = _dw()
    # drop the repeller part: parts {1, 1} against whole {1}
    with pytest.raises(conley.RelationsError):
        conley.decomposition_analysis(dw, _dw_parts(dw)[:2], seed=0)


def test_poincare_text():
    assert conley.poincare([1, 1]) == "1 + t"
    assert conley.poincare([1, 2, 0, 1]) == "1 + 2*t + t^3"
    assert conley.poincare([0, 3]) == "3*t"
    # torsion carries no rank: H_1 = Z/2 alone has no Betti number
    h = homalg.HomologyResult([0, 0], {1: [2]})
    assert conley.poincare(h.trimmed_betti()) == "0"
    assert conley.poincare([0, 0]) == "0"


def test_relations_double_well_betti():
    assert conley.relations_check([[1], [1], [0, 1]], [1]) == [1]


def test_relations_trivial_betti():
    assert not any(conley.relations_check([[1]], [1]))


def test_relations_remainder_refused():
    with pytest.raises(conley.RelationsError, match="remainder 1"):
        conley.relations_check([[1], [1]], [1])


def test_relations_negative_coefficient_refused():
    # deficit t^2 - 1 = (1+t)(t-1) has a negative quotient coefficient
    with pytest.raises(conley.RelationsError,
                       match=r"negative coefficient in Q_t = \[-1, 1, 0\]"):
        conley.relations_check([[0, 0, 1]], [1])


def test_relations_q_at_one_is_rank_slack():
    parts, whole = [[1], [1], [0, 1]], [1]
    q = conley.relations_check(parts, whole)
    # a Poincare polynomial at t = 1 is the sum of its coefficients
    assert 2 * sum(q) == sum(map(sum, parts)) - sum(whole)


def test_decomposition_sets_must_not_overlap(monkeypatch):
    dw = _dw()
    left, right, centre = _dw_parts(dw)
    # refused before any HI is computed
    monkeypatch.setattr(conley, "compute_HI", None)
    with pytest.raises(conley.ConleyError, match="^decomposition sets 0 "
                       "and 1 overlap: their blocks share an interior point"):
        conley.decomposition_analysis(dw, [left, left, centre])


@pytest.mark.parametrize("box,spacing,overlap", [
    ([(1, 1.5), (0.5, 1)], 0.5, False),        # a shared edge
    ([(1, 1.25), (1, 1.25)], 0.25, False),     # a shared corner
    ([(0.5, 0.75), (0.25, 0.5)], 0.25, False),  # between the two cubes
    ([(0.25, 0.5), (0.25, 0.5)], 0.25, True),
    ([(0.75, 1.75), (0.75, 1.75)], 0.25, True),
])
def test_disjoint_reads_the_cube_boxes_on_each_spacing(box, spacing, overlap):
    # against the cubes [0, 0.5]^2 and [0.5, 1]^2: two sets overlap when
    # two of their cubes do, with positive length on every axis
    diagonal = types.SimpleNamespace(block=block.build_block(
        cubes=[(0, 0), (1, 1)], spacing=0.5))
    other = types.SimpleNamespace(
        block=block.build_block(box=box, spacing=spacing))
    if overlap:
        with pytest.raises(conley.ConleyError, match="sets 0 and 1 overlap"):
            conley._disjoint([diagonal, other])
    else:
        conley._disjoint([diagonal, other])


def test_systems_compared_must_share_one_field():
    dw = _dw()
    other = dataclasses.replace(
        dw, field=expr.parse_field(["x1 - x1^3 + 0.01"], 1))
    with pytest.raises(conley.ConleyError, match="share one field"):
        conley.decomposition_analysis(dw, [*_dw_parts(dw)[:2], other])
    with pytest.raises(conley.ConleyError, match="share one field"):
        conley_oracle.block_independence(dw, other)
    # a field parsed again from the same text is the same field
    again = dataclasses.replace(dw, field=expr.parse_field(DW_FIELD, 1))
    assert conley_oracle.block_independence(dw, again)[0]


# ---------------------------------------------------------------------------
# continuation invariance

def test_continuation_translated_double_well():
    fam = expr.parse_field(["x1 - x1^3 + 0.1*lam"], 1)
    b = block.build_block(box=[(-2, 2)], spacing=0.5)
    V0 = expr.parse(DW_LYAP, 1)
    V1 = expr.parse("x1^4/4 - x1^2/2 - 0.1*x1", 1)
    sd1 = lyapunov.SDeclaration(
        ((-0.9460,), (-0.1024,), (1.0484,)), 0.15, 0.40)
    start = conley.System(fam, b, V0, DW_SDECL)
    end = dataclasses.replace(start, lyapunov=V1, invariant_set=sd1)
    ok, r0, r1 = conley.continuation_invariance(start, end, [0, 0.5, 1.0],
                                                seed=0)
    assert ok
    assert r0.homology.describe() == "H_0 = Z"
    assert r1.homology == r0.homology
    with pytest.raises(conley.ConleyError, match="share one block"):
        conley.continuation_invariance(
            start, dataclasses.replace(end, block=_dw().block), [0, 1.0])


def test_continuation_binds_the_perturbation_at_both_ends():
    # the gradient of sqrt(x1 + lam + 3) is finite on the block [-2, 2]
    # at lam = 0 and 1, and infinite at x1 = -2 when lam = -1: there the
    # perturbation is refused, at either end of the grid
    fam = expr.parse_field(["x1 - x1^3 + 0.1*lam"], 1)
    b = block.build_block(box=[(-2, 2)], spacing=0.5)
    system = conley.System(
        fam, b, expr.parse(DW_LYAP, 1), DW_SDECL, epsilon=1e-3,
        perturbation=expr.parse("sqrt(x1 + lam + 3)", 1))
    assert conley.continuation_invariance(system, system, [0, 1.0])[0]
    for grid in ([0, -1.0], [-1.0, 0]):
        with pytest.raises(expr.ExprError,
                           match=r"no finite gradient at \(-2\.0,\)"):
            conley.continuation_invariance(system, system, grid)


def test_continuation_breach_names_lambda():
    # x' = x^2 + 0.2 - 1.2 lam: at lam = 1 the equilibria sit at +-1 on the
    # block boundary, so isolation fails there
    fam = expr.parse_field(["x1^2 + 0.2 - 1.2*lam"], 1)
    b = block.build_block(box=[(-1, 1)], spacing=0.5)
    system = conley.System(fam, b, expr.parse("-x1", 1),
                           lyapunov.SDeclaration((), 0.0))
    with pytest.raises(conley.ContinuationError, match="lam = 1.0"):
        conley.continuation_invariance(system, system, [0, 0.5, 1.0], seed=0)


def test_block_independence_repeller():
    fld = expr.parse_field(["x1"], 1)
    V = expr.parse("-(x1^4)/4", 1)
    a = conley.System(fld, block.build_block(box=[(-0.5, 0.5)], spacing=0.25),
                      V, lyapunov.SDeclaration(((0.0,),), 0.05))
    ok, ra, rb = conley_oracle.block_independence(
        a, dataclasses.replace(
            a, block=block.build_block(box=[(-1, 1)], spacing=0.5)), seed=0)
    assert ok
    assert ra.homology.describe() == "H_1 = Z"
