"""Command-line driver: JSON system files in, JSON reports out.

A system file is checked against ``SYSTEM_SCHEMA``, the one statement of
its format, by ``_violation``, a walk of the schema that reads only the
keywords it uses; JSON numbers must be finite.

Exit codes: 0 on pass, 1 on a mathematical failure (failed verdicts or
pipeline errors), 2 on input errors (bad JSON, non-finite numbers, files
that break the schema, unknown expressions, an ``--out`` it cannot write).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__, block as block_mod, conley, expr, flow, homalg, \
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


# Draft 2020-12 types: a bool is not a number, and 2.0 is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}
# the keywords of SYSTEM_SCHEMA, the only ones _violation reads
SCHEMA_KEYWORDS = frozenset((
    "type", "properties", "additionalProperties", "required", "items",
    "minItems", "maxItems", "minimum", "exclusiveMinimum"))


def _violation(v, schema, path=""):
    """The first way the JSON value ``v`` breaks ``schema``, in document
    order, as a message naming its path; None if it keeps to it."""
    where = path or "top level"
    if not _TYPES[schema["type"]](v):
        return f"{where}: {json.dumps(v)} is not of type {schema['type']}"
    if isinstance(v, dict):
        props = schema.get("properties", {})
        for key, x in v.items():
            if key in props:
                msg = _violation(x, props[key],
                                 f"{path}.{key}" if path else key)
                if msg:
                    return msg
            elif schema.get("additionalProperties") is False:
                return f"{where}: unknown property {json.dumps(key)}"
        for key in schema.get("required", ()):
            if key not in v:
                return f"{where}: missing required property {json.dumps(key)}"
    elif isinstance(v, list):
        if len(v) < schema.get("minItems", 0):
            return (f"{where}: {json.dumps(v)} has length {len(v)}, "
                    f"less than {schema['minItems']}")
        if "maxItems" in schema and len(v) > schema["maxItems"]:
            return (f"{where}: {json.dumps(v)} has length {len(v)}, "
                    f"more than {schema['maxItems']}")
        for i, x in enumerate(v):
            msg = _violation(x, schema["items"], f"{path}[{i}]")
            if msg:
                return msg
    elif schema["type"] in ("number", "integer"):
        if "minimum" in schema and v < schema["minimum"]:
            return f"{where}: {json.dumps(v)} is less than {schema['minimum']}"
        if "exclusiveMinimum" in schema and v <= schema["exclusiveMinimum"]:
            return (f"{where}: {json.dumps(v)} is not greater than "
                    f"{schema['exclusiveMinimum']}")
    return None


def load_system(path):
    def non_finite(text):
        raise InputError(
            f"malformed JSON in {path}: non-finite number {text}")

    def number(text):
        x = float(text)
        if x - x != 0:  # inf - inf is NaN
            non_finite(text)
        return x

    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=number,
                            parse_constant=non_finite)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    msg = _violation(doc, SYSTEM_SCHEMA)
    if msg:
        raise InputError(f"invalid system file: {msg}")
    return doc


def _require(doc, keys):
    """Check for the top-level ``keys`` a command reads beyond the schema's."""
    for key in keys:
        if key not in doc:
            noun = "expression" if key == "lyapunov" else "section"
            raise InputError(f"system file has no {key} {noun}")


def _build_block(spec, m):
    beside = [key for key in ("cubes", "origin") if key in spec]
    if "box" in spec and beside:
        raise InputError(f"block has box and {' and '.join(beside)}: a box "
                         f"sets its own cubes and origin")
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
    """The ``conley.System`` of a checked system file, lam left free."""
    m = doc["dimension"]
    opts = doc.get("options", {})
    fieldd = expr.parse_field(doc["field"], m)
    lyap, pert = (None if text is None else expr.parse(text, m)
                  for text in (doc.get("lyapunov"), opts.get("perturbation")))
    return conley.System(fieldd, _build_block(doc["block"], m), lyap,
                         _s_decl(doc.get("invariant_set"), m),
                         opts.get("epsilon"), pert)


def _fixed_system(doc, *needs):
    """``_parse_system`` for the commands that work at one parameter value:
    the system at ``options.lam``; without it, no expression may mention
    lam.  The file must hold the keys ``needs`` (see ``_require``)."""
    system = _parse_system(doc)
    lam = doc.get("options", {}).get("lam")
    if lam is not None:
        system = system.at(lam)
    elif system.field.has_param or any(
            e is not None and expr.mentions_param(e)
            for e in (system.lyapunov, system.perturbation)):
        raise InputError("the system mentions lam but options.lam is absent")
    _require(doc, needs)
    return system


def _s_decl(spec, m):
    if spec is None:
        return lyapunov.SDeclaration((), 0.0)
    for p in spec["samples"]:
        if len(p) != m:
            raise InputError(f"invariant set sample {p} has {len(p)} "
                             f"coordinates, dimension is {m}")
    return lyapunov.SDeclaration(
        tuple(tuple(p) for p in spec["samples"]), spec["radius"],
        **({"value_tol": spec["value_tol"]} if "value_tol" in spec else {}))


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
    system = _fixed_system(load_system(args.file))
    fieldd, b = system.field, system.block
    report, tols = _base_report(args)
    tags = block_mod.classify_boundary(b, fieldd, tols=tols).tolist()
    tags = sorted(zip(map(str, b.face_list()), tags))
    iso = block_mod.check_isolation(b, fieldd, tols=tols)
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
    system = _fixed_system(load_system(args.file), "lyapunov")
    report, tols = _base_report(args)
    rep = lyapunov.verify_lyapunov(system.lyapunov, system.field,
                                   system.block, system.invariant_set,
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
    system = _fixed_system(load_system(args.file), "lyapunov")
    report, tols = _base_report(args)
    res = conley.compute_HI(system, seed=args.seed, coeff=args.coeff,
                            tols=tols)
    report["hi"] = _homology_table(res.homology)
    report["relative_cubical"] = _homology_table(res.relative)
    report["exit_theorem"] = res.exit_theorem
    report["perturbation"] = expr.to_str(res.certificate.perturbation)
    report["critical_points"] = [
        {"coords": list(c.coords), "index": c.index, "f": c.f_value}
        for c in res.crits]
    # each count as its entry over the report's ring
    report["connection_counts"] = [
        {"source": c.source, "target": c.target,
         "n": c.n % 2 if args.coeff == "Z2" else c.n,
         "witnesses": len(c.witnesses)}
        for c in res.counts]
    report["verdict"] = res.exit_theorem
    return report, 0 if res.exit_theorem else 1


def cmd_cubical(args):
    system = _fixed_system(load_system(args.file))
    report, tols = _base_report(args)
    b = system.block
    exitc = block_mod.exit_set(
        b, block_mod.classify_boundary(b, system.field, tols=tols))
    h = homalg.cubical_relative_homology(b, exitc, coeff=args.coeff)
    report["exit_cells"] = int(exitc.sum())
    report["relative_cubical"] = _homology_table(h)
    report["verdict"] = True
    return report, 0


def cmd_relations(args):
    doc = load_system(args.file)
    system = _fixed_system(doc, "decomposition", "lyapunov")
    report, tols = _base_report(args)
    # a set is the file's system with the set's block, Lyapunov function
    # and invariant set: it keeps the field and the options
    parts = [_fixed_system(dict(doc, **entry))
             for entry in doc["decomposition"]["sets"]]
    dec, _, _ = conley.decomposition_analysis(
        system, parts, seed=args.seed, coeff=args.coeff, tols=tols)
    report["poincare_whole"] = str(dec.whole)
    report["poincare_parts"] = [str(p) for p in dec.parts]
    report["q_t"] = str(dec.q)
    report["verdict"] = True
    return report, 0


def cmd_continue(args):
    doc = load_system(args.file)
    _require(doc, ("continuation", "lyapunov"))
    start = _parse_system(doc)
    report, tols = _base_report(args)
    cont, m = doc["continuation"], doc["dimension"]
    end = dataclasses.replace(
        start, lyapunov=expr.parse(cont["lyapunov_end"], m),
        invariant_set=_s_decl(cont["invariant_set_end"], m))
    ok, r0, r1 = conley.continuation_invariance(
        start, end, cont["grid"], seed=args.seed, coeff=args.coeff,
        tols=tols)
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


def _seed(text):
    """A ``--seed`` value: a non-negative int."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a non-negative integer")
    return n


def make_parser():
    p = argparse.ArgumentParser(
        prog="mcfhom",
        description="Morse-Conley-Floer homology of flows on cubical blocks")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("file", help="system definition JSON file")
    p.add_argument("--seed", type=_seed, default=0,
                   help="selects the perturbation direction when the file "
                        "gives none, and the rotation of the seeds on the "
                        "unstable direction spheres")
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
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    if args.json or not args.out:
        sys.stdout.write(text)


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        report, code = _COMMANDS[args.command](args)
        _emit(report, args)
    except (InputError, expr.ExprError) as exc:
        # an ExprError is a file's expression that does not parse or whose
        # constants fold to a domain error, such as a zero denominator
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (block_mod.BlockError, lyapunov.LyapunovError, morse.MorseError,
            homalg.HomalgError, conley.ConleyError,
            flow.IntegrationError, flow.AmbiguousCaptureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
