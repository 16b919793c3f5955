"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test also fails normally under plain pytest if its criterion fails.
"""
import math
import random
import time

import numpy as np
import pytest

import algebra_oracle
import conley_oracle
from mcfhom import block, conley, expr, homalg, lyapunov, morse
from mcfhom.config import DEFAULT
import dataclasses


def _verdict(num, name, ok, detail=""):
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _gradient_complex(f_text, box, spacing, m, seed=0, tols=DEFAULT):
    f = expr.parse(f_text, m)
    b = block.build_block(box=box, spacing=spacing)
    crits = morse.find_critical_points(f, b, tols=tols)
    c, counts = morse.build_complex(f, b, crits, seed=seed, tols=tols)
    return f, b, crits, c, counts


def test_criterion_01_d_squared_zero_suite():
    t0 = time.time()
    failures = []
    systems = [
        ("double well 1d", "(x1^2 - 1)^2", [(-2, 2)], 0.5, 1, "H_0 = Z"),
        ("double well 2d", "(x1^2 - 1)^2 + x2^2", [(-2, 2), (-2, 2)],
         0.5, 2, "H_0 = Z"),
        ("three minima", "x1^6 - 2*x1^4 + x1^2 + 0.5*x2^2",
         [(-2, 2), (-2, 2)], 0.5, 2, "H_0 = Z"),
        ("3d product", "(x1^2 - 1)^2 + (x2^2 - 1)^2 + x3^2",
         [(-2, 2), (-2, 2), (-2, 2)], 0.5, 3, "H_0 = Z"),
        ("perturbed repeller", "-(x1^4)/4 + 0.001*x1", [(-1, 1)], 0.5, 1,
         "H_1 = Z"),
    ]
    for name, ftext, box, h, m, want in systems:
        try:
            _, _, crits, c, _ = _gradient_complex(ftext, box, h, m)
            bad = homalg.verify_d_squared(c)
            if bad is not None:
                failures.append(f"{name}: d^2 entry {bad}")
            got = homalg.homology(c).describe()
            if got != want:
                failures.append(f"{name}: homology {got}, expected {want}")
        except Exception as exc:
            failures.append(f"{name}: {exc}")
    elapsed = time.time() - t0
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.0f}s exceeds 2 min")
    _verdict(1, "exact d^2 = 0 on five gradient systems", not failures,
             "; ".join(failures))


def _exit_case(name, field, box_or_cubes, h, lyap_text, samples, radius, m,
               want, eps=None, pert=None, vtol=1e-8, origin=None):
    fld = expr.parse_field(field, m)
    if isinstance(box_or_cubes[0], tuple) and origin is None:
        b = block.build_block(box=box_or_cubes, spacing=h)
    else:
        b = block.build_block(cubes=box_or_cubes, origin=origin, spacing=h)
    lyap = expr.parse(lyap_text, m)
    sd = lyapunov.SDeclaration(tuple(tuple(s) for s in samples), radius,
                               vtol)
    p = expr.parse(pert, m) if pert else None
    res = conley.compute_HI(
        conley.System(fld, b, lyap, sd, epsilon=eps, perturbation=p), seed=0)
    errs = []
    if not res.exit_theorem:
        errs.append(f"{name}: HI {res.homology.describe()} != relative "
                    f"{res.relative.describe()}")
    if res.homology.describe() != want:
        errs.append(f"{name}: HI {res.homology.describe()}, expected {want}")
    return errs


def test_criterion_02_exit_set_theorem_suite():
    t0 = time.time()
    failures = []
    cases = [
        ("saddle", ["x1", "-x2"], [(-1, 1), (-1, 1)], 0.5,
         "-(x1^2 - x2^2)/2", [[0, 0]], 0.1, 2, "H_1 = Z", {}),
        ("sink", ["-x1"], [(-1, 1)], 0.5, "(x1^2)/2", [[0]], 0.1, 1,
         "H_0 = Z", {}),
        ("repeller 1d", ["x1"], [(-1, 1)], 0.5, "-(x1^4)/4", [[0]], 0.1, 1,
         "H_1 = Z", {}),
        ("repeller 2d", ["x1", "x2"], [(-1, 1), (-1, 1)], 0.5,
         "-((x1^2 + x2^2)^2)/4", [[0, 0]], 0.1, 2, "H_2 = Z",
         {"eps": 1e-3, "pert": "x1"}),
        ("double well interval", ["x1 - x1^3"], [(-2, 2)], 0.5,
         "x1^4/4 - x1^2/2", [[-1], [0], [1]], 0.15, 1, "H_0 = Z",
         {"vtol": 0.26}),
        ("semistable", ["x1^2/(1 + x1^2)"], [(-1, 1)], 0.5, "-x1",
         [[0]], 0.1, 1, "0", {}),
        ("empty invariant set", ["1"], [(0, 1)], 0.5, "-x1", [], 0.0, 1,
         "0", {}),
    ]
    for name, field, box, h, ly, ss, rad, m, want, kw in cases:
        try:
            failures.extend(
                _exit_case(name, field, box, h, ly, ss, rad, m, want, **kw))
        except Exception as exc:
            failures.append(f"{name}: {exc}")
    # attracting limit cycle on an annulus block (slowed rotation keeps the
    # gradient-like behavior dominant at the boundary)
    try:
        cubes = [(i, j) for i in range(8) for j in range(8)
                 if not (i in (3, 4) and j in (3, 4))]
        samples = [[math.cos(2 * math.pi * k / 32),
                    math.sin(2 * math.pi * k / 32)] for k in range(32)]
        failures.extend(_exit_case(
            "limit cycle annulus",
            ["x1*(1 - (x1^2 + x2^2)) - 0.2*x2",
             "x2*(1 - (x1^2 + x2^2)) + 0.2*x1"],
            cubes, 0.5, "-((x1^2 + x2^2)/2 - (x1^2 + x2^2)^2/4)",
            samples, 0.15, 2, "H_0 = Z; H_1 = Z",
            eps=0.15, pert="x1", origin=(-2.0, -2.0)))
    except Exception as exc:
        failures.append(f"limit cycle annulus: {exc}")
    elapsed = time.time() - t0
    if elapsed > 300:
        failures.append(f"runtime {elapsed:.0f}s exceeds 5 min")
    _verdict(2, "exit-set theorem across the corpus", not failures,
             "; ".join(failures))


def _dw_inputs():
    dw = conley.System(
        expr.parse_field(["x1 - x1^3"], 1),
        block.build_block(box=[(-2, 2)], spacing=0.5),
        expr.parse("x1^4/4 - x1^2/2", 1),
        lyapunov.SDeclaration(((-1.0,), (0.0,), (1.0,)), 0.15, 0.26))
    subs = [dataclasses.replace(
        dw, block=block.build_block(box=box, spacing=h),
        invariant_set=lyapunov.SDeclaration(((x,),), 0.1))
        for box, h, x in (([(-1.5, -0.5)], 0.5, -1.0),
                          ([(0.5, 1.5)], 0.5, 1.0),
                          ([(-0.25, 0.25)], 0.25, 0.0))]
    return dw, subs


def test_criterion_03_morse_conley_relations():
    failures = []
    dw, subs = _dw_inputs()
    try:
        dec, _, _ = conley.decomposition_analysis(dw, subs, seed=0)
        if str(dec.q) != "1":
            failures.append(f"double-well Q_t = {dec.q}, expected 1")
        triv, _, _ = conley.decomposition_analysis(dw, [dw], seed=0)
        if str(triv.q) != "0":
            failures.append(f"trivial Q_t = {triv.q}, expected 0")
    except Exception as exc:
        failures.append(str(exc))
    try:
        conley.decomposition_analysis(dw, subs[:2], seed=0)
        failures.append("chi-mismatch decomposition was not rejected")
    except homalg.RelationsError:
        pass
    _verdict(3, "Morse-Conley relations with Q_t = 1 / 0 / rejection",
             not failures, "; ".join(failures))


def test_criterion_05_continuation_invariance():
    failures = []
    try:
        fam = expr.parse_field(["x1 - x1^3 + 0.1*lam"], 1)
        b = block.build_block(box=[(-2, 2)], spacing=0.5)
        V0 = expr.parse("x1^4/4 - x1^2/2", 1)
        V1 = expr.parse("x1^4/4 - x1^2/2 - 0.1*x1", 1)
        sd0 = lyapunov.SDeclaration(((-1.0,), (0.0,), (1.0,)), 0.15, 0.26)
        sd1 = lyapunov.SDeclaration(
            ((-0.946,), (-0.1024,), (1.0484,)), 0.15, 0.40)
        start = conley.System(fam, b, V0, sd0)
        ok, r0, r1 = conley.continuation_invariance(
            start, dataclasses.replace(start, lyapunov=V1, invariant_set=sd1),
            [0, 0.25, 0.5, 0.75, 1.0], seed=0)
        if not ok:
            failures.append("translated double-well endpoints differ")
    except Exception as exc:
        failures.append(f"translated double-well: {exc}")
    try:
        c = "cos(lam*0.5235987755982988)"
        s = "sin(lam*0.5235987755982988)"
        fam2 = expr.parse_field(
            [f"{c}*x1 + {s}*x2", f"{s}*x1 - {c}*x2"], 2)
        ch = "cos(lam*0.2617993877991494)"
        sh = "sin(lam*0.2617993877991494)"
        V1b_text = (f"-({ch}*{ch} - {sh}*{sh})*(x1^2 - x2^2)/2 "
                    f"- 2*{sh}*{ch}*x1*x2")
        V0b = expr.parse("-(x1^2 - x2^2)/2", 2)
        V1b = expr.substitute_param(expr.parse(V1b_text, 2),
                                    expr.Const(1.0))
        b2 = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
        sdo = lyapunov.SDeclaration(((0.0, 0.0),), 0.1)
        start2 = conley.System(fam2, b2, V0b, sdo)
        ok2, q0, q1 = conley.continuation_invariance(
            start2, dataclasses.replace(start2, lyapunov=V1b),
            [0, 0.2, 0.4, 0.6, 0.8, 1.0], seed=0)
        if not ok2 or q0.homology.describe() != "H_1 = Z":
            failures.append("rotating saddle endpoints differ")
    except Exception as exc:
        failures.append(f"rotating saddle: {exc}")
    try:
        fam3 = expr.parse_field(["x1^2 + 0.2 - 1.2*lam"], 1)
        b3 = block.build_block(box=[(-1, 1)], spacing=0.5)
        s3 = conley.System(fam3, b3, expr.parse("-x1", 1),
                           lyapunov.SDeclaration((), 0.0))
        try:
            conley.continuation_invariance(s3, s3, [0, 0.5, 1.0], seed=0)
            failures.append("isolation-breaking family was not rejected")
        except conley.ContinuationError as exc:
            if "1.0" not in str(exc):
                failures.append(f"breach reported without lambda: {exc}")
    except Exception as exc:
        failures.append(f"breach family: {exc}")
    _verdict(5, "continuation invariance on two families plus breach "
                "detection", not failures, "; ".join(failures))


def test_criterion_07_block_independence():
    failures = []
    cases = []
    fld = expr.parse_field(["x1", "-x2"], 2)
    V = expr.parse("-(x1^2 - x2^2)/2", 2)
    sd = lyapunov.SDeclaration(((0.0, 0.0),), 0.1)
    cases.append(("saddle", fld, V, sd,
                  block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5),
                  block.build_block(box=[(-0.75, 1.25), (-1.25, 0.75)],
                                    spacing=0.5)))
    fld1 = expr.parse_field(["x1"], 1)
    V1 = expr.parse("-(x1^4)/4", 1)
    sd1 = lyapunov.SDeclaration(((0.0,),), 0.05)
    cases.append(("repeller", fld1, V1, sd1,
                  block.build_block(box=[(-0.5, 0.5)], spacing=0.25),
                  block.build_block(box=[(-1, 1)], spacing=0.5)))
    fld2 = expr.parse_field(["x1 - x1^3"], 1)
    V2 = expr.parse("x1^4/4 - x1^2/2", 1)
    sd2 = lyapunov.SDeclaration(((-1.0,), (0.0,), (1.0,)), 0.15, 0.26)
    cases.append(("double well", fld2, V2, sd2,
                  block.build_block(box=[(-2, 2)], spacing=0.5),
                  block.build_block(box=[(-1.5, 1.75)], spacing=0.25)))
    for name, f, Vx, sx, ba, bb in cases:
        try:
            a = conley.System(f, ba, Vx, sx)
            ok, ra, rb = conley_oracle.block_independence(
                a, dataclasses.replace(a, block=bb), seed=0)
            if not ok:
                failures.append(
                    f"{name}: {ra.homology.describe()} != "
                    f"{rb.homology.describe()}")
        except Exception as exc:
            failures.append(f"{name}: {exc}")
    _verdict(7, "two isolating blocks per system give identical homology",
             not failures, "; ".join(failures))


def test_criterion_08_quadruple_independence():
    failures = []
    systems = [
        ("saddle", expr.parse_field(["x1", "-x2"], 2),
         expr.parse("-(x1^2 - x2^2)/2", 2),
         lyapunov.SDeclaration(((0.0, 0.0),), 0.1),
         block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)),
        ("repeller", expr.parse_field(["x1"], 1),
         expr.parse("-(x1^4)/4", 1),
         lyapunov.SDeclaration(((0.0,),), 0.05),
         block.build_block(box=[(-1, 1)], spacing=0.5)),
        ("double well", expr.parse_field(["x1 - x1^3"], 1),
         expr.parse("x1^4/4 - x1^2/2", 1),
         lyapunov.SDeclaration(((-1.0,), (0.0,), (1.0,)), 0.15, 0.26),
         block.build_block(box=[(-2, 2)], spacing=0.5)),
    ]
    for name, fld, V, sd, b in systems:
        try:
            hs = [conley.compute_HI(conley.System(fld, b, V, sd),
                                    seed=seed).homology for seed in range(5)]
            if not all(h == hs[0] for h in hs):
                failures.append(f"{name}: homology varies with the seed")
        except Exception as exc:
            failures.append(f"{name}: {exc}")
    _verdict(8, "five perturbation seeds per system give identical "
                "homology", not failures, "; ".join(failures))


def test_criterion_09_algebra_property_tests():
    failures = []
    rng = random.Random(42)
    for trial in range(100):
        A = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(6)]
        d = homalg.smith_normal_form(A)
        if d != algebra_oracle.invariant_factors(A):
            failures.append(f"trial {trial}: invariant factors differ from "
                            "the determinantal divisors")
        for a, bv in zip(d, d[1:]):
            if a < 1 or bv % a:
                failures.append(f"trial {trial}: divisibility broken")
        if len(d) != algebra_oracle.rank_fractions(A):
            failures.append(f"trial {trial}: rank disagrees with the "
                            "fraction elimination oracle")
        if failures:
            break
    # homology degree bounds 0..m on a pipeline result
    try:
        fld = expr.parse_field(["x1", "-x2"], 2)
        b = block.build_block(box=[(-1, 1), (-1, 1)], spacing=0.5)
        res = conley.compute_HI(conley.System(
            fld, b, expr.parse("-(x1^2 - x2^2)/2", 2),
            lyapunov.SDeclaration(((0.0, 0.0),), 0.1)), seed=0)
        if len(res.homology.betti) > 3 or any(bv < 0
                                              for bv in res.homology.betti):
            failures.append("homology outside degrees 0..m")
    except Exception as exc:
        failures.append(f"degree bounds: {exc}")
    # mod-2 homology of a torsion complex equals the Z complex reduced mod 2
    c = algebra_oracle.complex_of([1, 1], {1: [[2]]})
    if homalg.homology(c, coeff="Z2").betti != [1, 1]:
        failures.append("mod-2 homology of the torsion complex is wrong")
    f = expr.parse("(x1^2 - 1)^2 + x2^2", 2)
    b2 = block.build_block(box=[(-2, 2), (-2, 2)], spacing=0.5)
    crits = morse.find_critical_points(f, b2)
    cz, _ = morse.build_complex(f, b2, crits, seed=0)
    ranks = [0] + [algebra_oracle.rank_mod2(algebra_oracle.dense(cz, k))
                   for k in range(1, cz.top + 1)] + [0]
    if homalg.homology(cz, coeff="Z2").betti != \
            [n - ranks[k] - ranks[k + 1] for k, n in enumerate(cz.dims)]:
        failures.append("mod-2 homology differs from the mod-2 ranks")
    _verdict(9, "Smith normal form and homology property tests",
             not failures, "; ".join(failures))


def test_criterion_10_numerics_property_tests():
    failures = []
    # symbolic derivatives against central differences on corpus expressions
    rng = np.random.default_rng(0)
    corpus = [
        ("(x1^2 - 1)^2 + x2^2", 2),
        ("x1^4/4 - x1^2/2", 1),
        ("-(x1^2 - x2^2)/2", 2),
        ("-((x1^2 + x2^2)^2)/4", 2),
        ("x1^6 - 2*x1^4 + x1^2 + 0.5*x2^2", 2),
        ("-((x1^2 + x2^2)/2 - (x1^2 + x2^2)^4/4)", 2),
    ]
    h = 1e-5
    for text, m in corpus:
        e = expr.parse(text, m)
        ds = [expr.derive(e, i) for i in range(m)]
        for _ in range(1000 // len(corpus)):
            p = rng.uniform(-2, 2, size=m)
            for i in range(m):
                up = p.copy()
                dn = p.copy()
                up[i] += h
                dn[i] -= h
                approx = (expr.evaluate(e, up)
                          - expr.evaluate(e, dn)) / (2 * h)
                exact = expr.evaluate(ds[i], p)
                if abs(exact - approx) > 1e-6 * (1 + abs(exact)):
                    failures.append(f"derivative mismatch for {text}")
                    break
    # connection counts stable under refinement of the direction sphere and
    # the integrator tolerance
    def boundary_of(f_text, box, m, tols):
        f = expr.parse(f_text, m)
        b = block.build_block(box=box, spacing=0.5)
        crits = morse.find_critical_points(f, b, tols=tols)
        c, _ = morse.build_complex(f, b, crits, seed=0, tols=tols)
        return {k: algebra_oracle.dense(c, k) for k in range(1, c.top + 1)}

    refined = dataclasses.replace(DEFAULT,
                                  n_dir_seeds=2 * DEFAULT.n_dir_seeds,
                                  rtol=DEFAULT.rtol / 2,
                                  atol=DEFAULT.atol / 2)
    for f_text, box, m in [
            ("(x1^2 - 1)^2 + x2^2", [(-2, 2), (-2, 2)], 2),
            ("x1^6 - 2*x1^4 + x1^2 + 0.5*x2^2", [(-2, 2), (-2, 2)], 2)]:
        try:
            base = boundary_of(f_text, box, m, DEFAULT)
            fine = boundary_of(f_text, box, m, refined)
            if base != fine:
                failures.append(f"counts changed under refinement for "
                                f"{f_text}")
        except Exception as exc:
            failures.append(f"{f_text}: {exc}")
    _verdict(10, "derivative oracle and resolution-independent counts",
             not failures, "; ".join(failures))
