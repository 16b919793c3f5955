"""Command-line driver: subcommands, exit codes, and report determinism."""
import json
import os

import pytest

from mcfhom import cli

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


def test_strict_profile_echoed(capsys):
    code = cli.main(["block", _path("saddle.json"), "--tol-profile",
                     "strict"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tolerances"]["rtol"] == 1e-11
