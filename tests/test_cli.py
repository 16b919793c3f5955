"""Command-line driver: subcommands, exit codes, and report determinism."""
import json
import os

import jsonschema
import pytest

from mcfhom import cli, conley

DATA = os.path.join(os.path.dirname(__file__), "data")


def _path(name):
    return os.path.join(DATA, name)


def test_block_command(capsys):
    code = cli.main(["block", _path("saddle.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] is True
    assert out["unresolved"] == []
    tags = {e["tag"] for e in out["faces"]}
    assert tags == {"Egress", "Ingress"}


def test_block_command_unresolved_exits_one(capsys):
    code = cli.main(["block", _path("tangent.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["unresolved"]


def test_lyapunov_command(capsys):
    code = cli.main(["lyapunov", _path("saddle.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["lyapunov"]["verdict"] is True
    assert out["lyapunov"]["min_decrease"] > 0


def test_hi_command(capsys):
    code = cli.main(["hi", _path("saddle.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["exit_theorem"] is True
    assert out["hi"]["pretty"] == "H_1 = Z"
    assert out["relative_cubical"]["pretty"] == "H_1 = Z"
    assert len(out["critical_points"]) == 1
    assert out["tolerances"]["rtol"] == 1e-9


def test_cubical_command(capsys):
    code = cli.main(["cubical", _path("saddle.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["relative_cubical"]["pretty"] == "H_1 = Z"
    assert out["exit_cells"] == 18


def test_relations_command(capsys):
    code = cli.main(["relations", _path("double_well_relations.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["q_t"] == "1"
    assert sorted(out["poincare_parts"]) == ["1", "1", "t"]
    assert out["poincare_whole"] == "1"


def test_continue_command(capsys):
    code = cli.main(["continue", _path("double_well_continue.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] is True
    assert out["hi_start"]["pretty"] == "H_0 = Z"
    assert out["hi_end"]["pretty"] == "H_0 = Z"


@pytest.mark.parametrize("command",
                         ["hi", "block", "lyapunov", "cubical", "relations"])
def test_lam_without_a_value_is_an_input_error(command, capsys):
    # the field mentions lam, which only `continue` sweeps
    assert cli.main([command, _path("double_well_continue.json")]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "options.lam" in err


def test_reports_are_byte_identical_under_fixed_seed(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["hi", _path("saddle.json"), "--seed", "3",
                     "--out", str(a)]) == 0
    assert cli.main(["hi", _path("saddle.json"), "--seed", "3",
                     "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_hi_report_on_connections_matches_the_golden_report(capsys):
    # connections_hi_seed3.out is the report of the forward sphere search of
    # every source; the zero-sphere searches must not change a byte of it
    system = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "benchmarks", "systems", "connections.json")
    code = cli.main(["hi", system, "--seed", "3"])
    with open(_path("connections_hi_seed3.out"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()
    assert code == 0


def test_hi_report_on_certificate_matches_the_golden_report(capsys):
    # certificate_hi_seed3.out is the report of the homotopy certificate
    # checked one lambda at a time; the batched grid must not change a byte
    system = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "benchmarks", "systems", "certificate.json")
    code = cli.main(["hi", system, "--seed", "3"])
    with open(_path("certificate_hi_seed3.out"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()
    assert code == 0


@pytest.mark.parametrize("system,name", [
    ("benchmarks/systems/cubical.json", "cubical"),
    ("tests/data/saddle.json", "saddle"),
])
@pytest.mark.parametrize("coeff", ["Z", "Z2"])
def test_cubical_report_matches_the_golden_report(system, name, coeff,
                                                  capsys):
    # the golden reports were written by the builder of tuple cells
    root = os.path.dirname(os.path.dirname(__file__))
    code = cli.main(["cubical", os.path.join(root, system), "--coeff", coeff])
    with open(_path(f"{name}_cubical_{coeff}.out"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()
    assert code == 0


def test_hi_on_the_3d_product_well(capsys):
    # one index-3 source, searched backward from its six targets
    code = cli.main(["hi", _path("product_well_3d.json"), "--seed", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["hi"]["betti"] == [1, 0, 0, 0]
    assert out["exit_theorem"] is True
    assert sorted(c["index"] for c in out["critical_points"]) == \
        [0] * 8 + [1] * 12 + [2] * 6 + [3]


def test_malformed_json_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    assert cli.main(["hi", str(p)]) == 2
    assert "input error" in capsys.readouterr().err


def test_unknown_key_exits_two(tmp_path, capsys):
    doc = json.loads(open(_path("saddle.json")).read())
    doc["extra_knob"] = 1
    p = tmp_path / "unknown.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["hi", str(p)]) == 2
    assert "input error" in capsys.readouterr().err


def test_system_schema_is_a_valid_schema():
    # load_system builds its validator without checking the schema
    jsonschema.Draft202012Validator.check_schema(cli.SYSTEM_SCHEMA)
    assert jsonschema.validators.validator_for(cli.SYSTEM_SCHEMA) is \
        jsonschema.Draft202012Validator


@pytest.mark.parametrize("doc", [
    {"dimension": 0, "field": [], "block": {"spacing": -1}, "extra": 1},
    {"dimension": "2", "field": ["x1", 3], "block": {"box": [[0]]}},
    {"field": ["x1"], "block": {"spacing": 1, "cubes": []},
     "options": {"epsilon": 0, "lam": "a"}},
    {"dimension": 1, "field": ["x1"], "block": {"spacing": 1},
     "invariant_set": {"samples": [["a"]], "radius": -1, "x": 0}},
    {"dimension": 1, "field": ["x1"], "block": {"spacing": 1},
     "decomposition": {"sets": [{"block": {}}]},
     "continuation": {"grid": [0]}},
])
def test_schema_errors_are_those_of_jsonschema_validate(doc, tmp_path,
                                                        capsys):
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, cli.SYSTEM_SCHEMA)
    code = cli.main(["block", _write(tmp_path, doc)])
    assert code == 2
    assert capsys.readouterr().err == \
        f"input error: invalid system file: {want.value.message}\n"


@pytest.mark.parametrize("origin", [[-1.0], [-1.0, -1.0, -1.0]])
def test_origin_of_the_wrong_length_exits_two(origin, tmp_path, capsys):
    doc = {"dimension": 2, "field": ["x1", "-x2"],
           "block": {"cubes": [[0, 0], [1, 0]], "origin": origin,
                     "spacing": 0.5}}
    assert cli.main(["block", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == \
        f"input error: origin has {len(origin)} entries, dimension is 2\n"


def test_missing_file_exits_two(capsys):
    assert cli.main(["hi", "/nonexistent/system.json"]) == 2


def test_bad_expression_exits_two(tmp_path, capsys):
    doc = json.loads(open(_path("saddle.json")).read())
    doc["field"] = ["x1", "x9"]
    p = tmp_path / "badexpr.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["hi", str(p)]) == 2


def test_relations_requires_decomposition_section(capsys):
    assert cli.main(["relations", _path("saddle.json")]) == 2


def test_continue_requires_continuation_section(capsys):
    assert cli.main(["continue", _path("saddle.json")]) == 2


def test_z2_coefficients(capsys):
    code = cli.main(["hi", _path("saddle.json"), "--coeff", "Z2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["hi"]["pretty"] == "H_1 = Z2"
    assert out["relative_cubical"]["pretty"] == "H_1 = Z2"
    assert out["coeff"] == "Z2"


@pytest.mark.parametrize("command", ["relations", "continue"])
def test_z2_coefficients_reach_every_homology(command, monkeypatch, capsys):
    coeffs = []
    compute = conley.compute_HI

    def spy(*args, **kwargs):
        coeffs.append(kwargs.get("coeff", "Z"))
        return compute(*args, **kwargs)

    monkeypatch.setattr(conley, "compute_HI", spy)
    code = cli.main([command, _path(f"double_well_{command}.json"),
                     "--coeff", "Z2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["coeff"] == "Z2"
    assert coeffs and set(coeffs) == {"Z2"}
    if command == "continue":
        assert out["hi_start"]["pretty"] == "H_0 = Z2"
        assert out["hi_end"]["pretty"] == "H_0 = Z2"


def test_strict_profile_echoed(capsys):
    code = cli.main(["block", _path("saddle.json"), "--tol-profile",
                     "strict"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tolerances"]["rtol"] == 1e-11


# x1 + 0.9 < 0 on the strip x1 < -0.9: the field has no value at the
# boundary samples of the x1 = -1 side
_UNDEFINED_ON_A_SIDE = {
    "dimension": 2,
    "field": ["sqrt(x1 + 0.9)", "-x2"],
    "block": {"box": [[-1, 1], [-1, 1]], "spacing": 1},
    "lyapunov": "x1^2 - x2^2",
}


def _write(tmp_path, doc):
    p = tmp_path / "system.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_block_with_undefined_field_has_a_false_verdict(tmp_path, capsys):
    code = cli.main(["block", _write(tmp_path, _UNDEFINED_ON_A_SIDE)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["verdict"] is False
    assert out["unresolved"]


@pytest.mark.parametrize("command", ["hi", "cubical"])
def test_undefined_field_is_an_untransverse_face_error(command, tmp_path,
                                                       capsys):
    code = cli.main([command, _write(tmp_path, _UNDEFINED_ON_A_SIDE)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: boundary faces not transverse" in err


def test_lyapunov_undefined_at_an_s_sample_has_a_false_verdict(tmp_path,
                                                               capsys):
    # f has no value at the S sample x1 = -0.5
    doc = dict(_UNDEFINED_ON_A_SIDE, lyapunov="x1^2 + sqrt(x1 + 0.1)",
               invariant_set={"samples": [[-0.5, 0.0]], "radius": 0.1})
    code = cli.main(["lyapunov", _write(tmp_path, doc)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["verdict"] is False
    assert out["lyapunov"]["verdict"] is False


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_non_finite_report_values_are_null(tmp_path, capsys):
    # f has no value at the S sample x1 = -0.5, so the spread is NaN
    doc = dict(_UNDEFINED_ON_A_SIDE, lyapunov="x1^2 + sqrt(x1 + 0.1)",
               invariant_set={"samples": [[-0.5, 0.0], [0.5, 0.0]],
                              "radius": 0.1})
    code = cli.main(["lyapunov", _write(tmp_path, doc)])
    out = _strict_json(capsys.readouterr().out)
    assert code == 1
    assert out["lyapunov"]["value_spread"] is None
    assert out["lyapunov"]["verdict"] is False
