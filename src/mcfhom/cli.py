"""Command-line driver: JSON system files in, JSON reports out.

Exit codes: 0 on pass, 1 on a mathematical failure (failed verdicts or
pipeline errors), 2 on input errors (bad JSON, schema violations, unknown
expressions).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import jsonschema

from . import __version__, block as block_mod, conley, expr, homalg, \
    lyapunov, morse
from .config import profile

_BLOCK_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "box": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "cubes": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "items": {"type": "integer"}},
        },
        "origin": {"type": "array", "items": {"type": "number"}},
        "spacing": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["spacing"],
}

_SDECL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "samples": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
        "radius": {"type": "number", "minimum": 0},
        "value_tol": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["samples", "radius"],
}

SYSTEM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "dimension": {"type": "integer", "minimum": 1},
        "field": {"type": "array", "minItems": 1, "items": {"type": "string"}},
        "block": _BLOCK_SCHEMA,
        "lyapunov": {"type": "string"},
        "invariant_set": _SDECL_SCHEMA,
        "options": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "perturbation": {"type": "string"},
                "lam": {"type": "number"},
            },
        },
        "decomposition": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sets": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "properties": {
                            "block": _BLOCK_SCHEMA,
                            "lyapunov": {"type": "string"},
                            "invariant_set": _SDECL_SCHEMA,
                        },
                        "required": ["block", "lyapunov", "invariant_set"],
                    },
                },
            },
            "required": ["sets"],
        },
        "continuation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "grid": {
                    "type": "array",
                    "minItems": 2,
                    "items": {"type": "number"},
                },
                "lyapunov_end": {"type": "string"},
                "invariant_set_end": _SDECL_SCHEMA,
            },
            "required": ["grid", "lyapunov_end", "invariant_set_end"],
        },
    },
    "required": ["dimension", "field", "block"],
}


class InputError(Exception):
    pass


_validator = None  # of SYSTEM_SCHEMA, made by the first load_system


def load_system(path):
    global _validator
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    if _validator is None:
        # SYSTEM_SCHEMA itself is checked against its meta-schema by a test
        _validator = jsonschema.Draft202012Validator(SYSTEM_SCHEMA)
    # the error jsonschema.validate would raise
    err = jsonschema.exceptions.best_match(_validator.iter_errors(doc))
    if err is not None:
        raise InputError(f"invalid system file: {err.message}")
    return doc


def _build_block(spec, m):
    try:
        if "box" in spec:
            if len(spec["box"]) != m:
                raise block_mod.BlockError(
                    f"box has {len(spec['box'])} sides, dimension is {m}")
            return block_mod.build_block(box=spec["box"],
                                         spacing=spec["spacing"])
        if "cubes" in spec:
            return block_mod.build_block(
                cubes=spec["cubes"], origin=spec.get("origin"),
                spacing=spec["spacing"], dimension=m)
    except block_mod.BlockError as exc:
        raise InputError(str(exc)) from exc
    raise InputError("block needs either box or cubes")


def _parse_system(doc):
    m = doc["dimension"]
    try:
        fieldd = expr.parse_field(doc["field"], m)
        lyap = expr.parse(doc["lyapunov"], m) if "lyapunov" in doc else None
        pert = None
        if "perturbation" in doc.get("options", {}):
            pert = expr.parse(doc["options"]["perturbation"], m)
    except expr.ExprError as exc:
        raise InputError(str(exc)) from exc
    b = _build_block(doc["block"], m)
    s_decl = _s_decl(doc.get("invariant_set"))
    lam = doc.get("options", {}).get("lam")
    eps = doc.get("options", {}).get("epsilon")
    return fieldd, b, lyap, s_decl, lam, eps, pert


def _fixed_system(doc):
    """``_parse_system`` for the commands that work at one parameter value:
    an expression that mentions lam needs ``options.lam``."""
    fieldd, b, lyap, s_decl, lam, eps, pert = _parse_system(doc)
    if lam is None and (fieldd.has_param or any(
            e is not None and expr.mentions_param(e) for e in (lyap, pert))):
        raise InputError("the system mentions lam but options.lam is absent")
    return fieldd, b, lyap, s_decl, lam, eps, pert


def _s_decl(spec):
    if spec is None:
        return lyapunov.SDeclaration((), 0.0)
    return lyapunov.SDeclaration(
        tuple(tuple(p) for p in spec["samples"]), spec["radius"],
        spec.get("value_tol", 1e-8))


def _homology_table(h):
    return {
        "betti": list(h.betti),
        "torsion": {str(k): v for k, v in h.torsion.items() if v},
        "pretty": h.describe(),
    }


def _base_report(args):
    tols = profile(args.tol_profile)
    return {
        "version": __version__,
        "seed": args.seed,
        "coeff": args.coeff,
        "tol_profile": args.tol_profile,
        "tolerances": dataclasses.asdict(tols),
    }, tols


def cmd_block(args):
    doc = load_system(args.file)
    fieldd, b, _, _, lam, _, _ = _fixed_system(doc)
    report, tols = _base_report(args)
    classified = block_mod.classify_boundary(b, fieldd, lam=lam, tols=tols)
    tags = sorted((str(f), tag) for f, tag in classified.face_tags.items())
    iso = block_mod.check_isolation(b, fieldd, lam=lam, tols=tols)
    report["faces"] = [{"face": f, "tag": t} for f, t in tags]
    report["unresolved"] = [f for f, t in tags if t == block_mod.UNRESOLVED]
    report["isolation"] = {
        "verdict": bool(iso),
        "trapped_samples": [list(s) for s in iso.failures],
    }
    ok = bool(iso) and not report["unresolved"]
    report["verdict"] = ok
    return report, 0 if ok else 1


def cmd_lyapunov(args):
    doc = load_system(args.file)
    fieldd, b, lyap, s_decl, lam, _, _ = _fixed_system(doc)
    if lyap is None:
        raise InputError("system file has no lyapunov expression")
    report, tols = _base_report(args)
    rep = lyapunov.verify_lyapunov(lyap, fieldd, b, s_decl, lam=lam,
                                   tols=tols)
    report["lyapunov"] = {
        "verdict": rep.verdict,
        "min_decrease": rep.min_decrease,
        "min_location": rep.min_location,
        "value_spread": rep.value_spread,
    }
    report["verdict"] = rep.verdict
    return report, 0 if rep.verdict else 1


def cmd_hi(args):
    doc = load_system(args.file)
    fieldd, b, lyap, s_decl, lam, eps, pert = _fixed_system(doc)
    if lyap is None:
        raise InputError("system file has no lyapunov expression")
    report, tols = _base_report(args)
    et, res = conley.verify_exit_theorem(
        fieldd, b, lyap, s_decl, lam=lam, seed=args.seed, epsilon=eps,
        perturbation=pert, coeff=args.coeff, tols=tols)
    report["hi"] = _homology_table(et.hi)
    report["relative_cubical"] = _homology_table(et.relative)
    report["exit_theorem"] = et.verdict
    report["critical_points"] = [
        {"coords": list(c.coords), "index": c.index, "f": c.f_value}
        for c in res.quadruple.crits]
    report["connection_counts"] = [
        {"source": c.source, "target": c.target, "n": c.n,
         "witnesses": len(c.witnesses)}
        for c in res.counts]
    report["verdict"] = et.verdict
    return report, 0 if et.verdict else 1


def cmd_cubical(args):
    doc = load_system(args.file)
    fieldd, b, _, _, lam, _, _ = _fixed_system(doc)
    report, tols = _base_report(args)
    classified = block_mod.classify_boundary(b, fieldd, lam=lam, tols=tols)
    exitc = block_mod.exit_set(classified)
    h = homalg.cubical_relative_homology(classified, exitc, coeff=args.coeff)
    report["exit_cells"] = int(exitc.sum())
    report["relative_cubical"] = _homology_table(h)
    report["verdict"] = True
    return report, 0


def cmd_relations(args):
    doc = load_system(args.file)
    fieldd, b, lyap, s_decl, lam, eps, _ = _fixed_system(doc)
    if "decomposition" not in doc:
        raise InputError("system file has no decomposition section")
    if lyap is None:
        raise InputError("system file has no lyapunov expression")
    report, tols = _base_report(args)
    m = doc["dimension"]
    subs = []
    for entry in doc["decomposition"]["sets"]:
        try:
            sl = expr.parse(entry["lyapunov"], m)
        except expr.ExprError as exc:
            raise InputError(str(exc)) from exc
        subs.append((_build_block(entry["block"], m), sl,
                     _s_decl(entry["invariant_set"])))
    dec, whole, parts = conley.decomposition_analysis(
        fieldd, b, lyap, s_decl, subs, lam=lam, seed=args.seed,
        epsilon=eps, coeff=args.coeff, tols=tols)
    report["poincare_whole"] = str(dec.whole)
    report["poincare_parts"] = [str(p) for p in dec.parts]
    report["q_t"] = str(dec.q)
    report["verdict"] = True
    return report, 0


def cmd_continue(args):
    doc = load_system(args.file)
    if "continuation" not in doc:
        raise InputError("system file has no continuation section")
    fieldd, b, lyap, s_decl, lam, eps, _ = _parse_system(doc)
    if lyap is None:
        raise InputError("system file has no lyapunov expression")
    report, tols = _base_report(args)
    cont = doc["continuation"]
    m = doc["dimension"]
    try:
        lyap1 = expr.parse(cont["lyapunov_end"], m)
    except expr.ExprError as exc:
        raise InputError(str(exc)) from exc
    ok, r0, r1 = conley.continuation_invariance(
        fieldd, b, cont["grid"], lyap, lyap1, s_decl,
        _s_decl(cont["invariant_set_end"]), seed=args.seed, epsilon=eps,
        coeff=args.coeff, tols=tols)
    report["hi_start"] = _homology_table(r0.homology)
    report["hi_end"] = _homology_table(r1.homology)
    report["verdict"] = ok
    return report, 0 if ok else 1


_COMMANDS = {
    "block": cmd_block,
    "lyapunov": cmd_lyapunov,
    "hi": cmd_hi,
    "relations": cmd_relations,
    "continue": cmd_continue,
    "cubical": cmd_cubical,
}


def make_parser():
    p = argparse.ArgumentParser(
        prog="mcfhom",
        description="Morse-Conley-Floer homology of flows on cubical blocks")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("file", help="system definition JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol-profile", choices=["default", "strict"],
                   default="default")
    p.add_argument("--coeff", choices=["Z", "Z2"], default="Z")
    p.add_argument("--out", default=None, help="write the report to PATH")
    p.add_argument("--json", action="store_true",
                   help="print the full JSON report to stdout")
    return p


def _finite(v):
    """``v`` with every non-finite float in it replaced by None."""
    if isinstance(v, float):
        return v if v - v == 0 else None  # inf - inf and NaN - NaN are NaN
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return v


def _emit(report, args):
    text = json.dumps(_finite(report), sort_keys=True, indent=2,
                      default=str, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.json or not args.out:
        sys.stdout.write(text)


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        report, code = _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (block_mod.BlockError, lyapunov.LyapunovError, morse.MorseError,
            homalg.HomalgError, conley.ConleyError, expr.ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
