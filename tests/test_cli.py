"""Command-line driver: subcommands, exit codes, and report determinism."""
import copy
import glob
import json
import math
import os
import random
import re
import subprocess
import sys
import types
import warnings

import jsonschema
import pytest

import mcfhom
from mcfhom import block, cli, conley, expr, flow, homalg
from mcfhom.config import DEFAULT

DATA = os.path.join(os.path.dirname(__file__), "data")
ROOT = os.path.dirname(os.path.dirname(__file__))
CONNECTIONS = os.path.join(ROOT, "benchmarks", "systems", "connections.json")


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


def test_continue_checks_isolation_on_the_field_bound_at_each_lam(
        monkeypatch, capsys):
    # one check per grid value, in grid order, each on the field bound
    # there; compute_HI then checks each end system once more
    path = _path("double_well_continue.json")
    with open(path) as fh:
        doc = json.load(fh)
    calls, check, compute = [], block.check_isolation, conley.compute_HI

    def spy_check(b, field, **kwargs):
        calls.append(field)
        return check(b, field, **kwargs)

    def spy_compute(system, **kwargs):
        calls.append("compute_HI")
        return compute(system, **kwargs)

    monkeypatch.setattr(block, "check_isolation", spy_check)
    monkeypatch.setattr(conley, "compute_HI", spy_compute)
    assert cli.main(["continue", path]) == 0
    fam = expr.parse_field(doc["field"], doc["dimension"])
    grid = doc["continuation"]["grid"]
    assert len(grid) == 3
    assert calls == [expr.bind_field(fam, lv) for lv in grid] + [
        "compute_HI", expr.bind_field(fam, grid[0]),
        "compute_HI", expr.bind_field(fam, grid[-1])]


@pytest.mark.parametrize("grid", [[0, 0.5, 1], [1, 0.5, 0]])
def test_continue_names_the_lam_at_which_the_field_has_no_value(
        grid, tmp_path, capsys):
    # the field has no value at lam = 0, first or last in the grid: an
    # input error naming that lam, not a block that stops isolating
    with open(_path("double_well_continue.json")) as fh:
        doc = json.load(fh)
    doc["field"] = ["x1 - x1^3 + 0.1*x1/lam"]
    doc["continuation"]["grid"] = grid
    assert cli.main(["continue", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "input error: at lam = 0.0: constant division by zero\n"


@pytest.mark.parametrize("command",
                         ["hi", "block", "lyapunov", "cubical", "relations"])
def test_lam_without_a_value_is_an_input_error(command, capsys):
    # the field mentions lam, which only `continue` sweeps
    assert cli.main([command, _path("double_well_continue.json")]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "options.lam" in err


def _relations_with_lam_in_a_set(tmp_path, options):
    with open(_path("double_well_relations.json")) as fh:
        doc = json.load(fh)
    doc["decomposition"]["sets"][0]["lyapunov"] = "lam*(x1^4/4 - x1^2/2)"
    return _write(tmp_path, dict(doc, **options))


def test_relations_with_lam_in_a_set_and_no_value_is_an_input_error(
        tmp_path, capsys):
    path = _relations_with_lam_in_a_set(tmp_path, {})
    assert cli.main(["relations", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: the system mentions lam but "
                            "options.lam is absent\n")


def test_relations_binds_options_lam_in_a_set(tmp_path, capsys):
    # lam = 2 scales the set's Lyapunov function, which leaves its HI
    path = _relations_with_lam_in_a_set(tmp_path, {"options": {"lam": 2}})
    assert cli.main(["relations", path, "--seed", "3"]) == 0
    with open(_path("double_well_relations_seed3.out"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


@pytest.mark.parametrize("command", ["hi", "block", "lyapunov", "cubical"])
@pytest.mark.parametrize("field,lam,message", [
    ("x1/lam", 0, "at lam = 0: constant division by zero"),
    ("x1*log(lam)", -1, "at lam = -1: log of non-positive value -1.0 in "
                        "log(-1)"),
    ("x1*lam^-2", 0, "at lam = 0: zero raised to negative power in "
                     "0^(-2)"),
])
def test_a_constant_domain_error_at_options_lam_exits_two(
        command, field, lam, message, tmp_path, capsys):
    with open(_path("saddle_lam.json")) as fh:
        doc = json.load(fh)
    doc["field"][0] = field
    doc["options"]["lam"] = lam
    assert cli.main([command, _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("command", ["hi", "lyapunov"])
def test_a_constant_division_by_zero_of_a_derivative_exits_two(
        command, tmp_path, capsys):
    # the literal zero denominator is refused where the file is parsed,
    # before the pipeline differentiates the Lyapunov function
    with open(_path("saddle.json")) as fh:
        doc = json.load(fh)
    doc["lyapunov"] = "-(x1^2 - x2^2)/2 + x1^3/0"
    assert cli.main([command, _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == \
        "input error: constant division by zero\n"


_COMMAND_FILES = [("block", "saddle.json"), ("cubical", "saddle.json"),
                  ("lyapunov", "saddle.json"), ("hi", "saddle.json"),
                  ("relations", "double_well_relations.json"),
                  ("continue", "double_well_continue.json")]


@pytest.mark.parametrize("command,name", _COMMAND_FILES)
@pytest.mark.parametrize("key,text", [("field", "1/0"),
                                      ("lyapunov", "x1^2 + 1/(1-1)")])
@pytest.mark.parametrize("lam", [None, 0.5])
def test_a_constant_division_by_zero_exits_two_with_or_without_lam(
        command, name, key, text, lam, tmp_path, capsys):
    # the constant subtree folds where the file is parsed, before lam is
    # bound: one message with options.lam or without
    with open(_path(name)) as fh:
        doc = json.load(fh)
    doc[key] = [text] + doc["field"][1:] if key == "field" else text
    if lam is not None:
        doc["options"] = {"lam": lam}
    assert cli.main([command, _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: constant division by zero\n"


@pytest.mark.parametrize("command,name", _COMMAND_FILES)
@pytest.mark.parametrize("side,spacing,message", [
    ([-1e308, 1e308], 1, "box side [-1e+308, 1e+308] has too many cells to "
                         "count at spacing 1"),
    ([0, 1], 1e-320, "box side [0, 1] has too many cells to count at "
                     "spacing 1e-320"),
], ids=["side-overflows", "spacing-underflows"])
def test_a_box_whose_cell_count_overflows_exits_two(
        command, name, side, spacing, message, tmp_path, capsys):
    with open(_path(name)) as fh:
        doc = json.load(fh)
    doc["block"] = {"box": [side] * doc["dimension"], "spacing": spacing}
    assert cli.main([command, _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_an_infinite_perturbation_fails_the_certificate_without_a_warning(
        tmp_path, capsys):
    # 1e308/lam at lam = 1e-10 binds to inf: the perturbation has no
    # finite gradient anywhere, and it is refused as a file error
    with open(_path("saddle_lam.json")) as fh:
        doc = json.load(fh)
    doc["options"] = {"lam": 1e-10, "perturbation": "1e308/lam*x1 + x2"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["hi", _write(tmp_path, doc), "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(
        "input error: perturbation inf * x1 + x2 has no finite gradient at ")


def test_reports_are_byte_identical_under_fixed_seed(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["hi", _path("saddle.json"), "--seed", "3",
                     "--out", str(a)]) == 0
    assert cli.main(["hi", _path("saddle.json"), "--seed", "3",
                     "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_hi_report_on_connections_matches_the_golden_report(capsys):
    # connections_hi_seed3.out was written with the draws of
    # random.Random (config.normals): the perturbation direction and the
    # rotation of the sphere seeds
    code = cli.main(["hi", CONNECTIONS, "--seed", "3"])
    with open(_path("connections_hi_seed3.out"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()
    assert code == 0


def test_hi_report_on_certificate_matches_the_golden_report(capsys):
    # certificate_hi_seed3.out was written with the perturbation direction
    # drawn by random.Random (config.normals) and the batched homotopy
    # certificate
    system = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "benchmarks", "systems", "certificate.json")
    code = cli.main(["hi", system, "--seed", "3"])
    with open(_path("certificate_hi_seed3.out"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()
    assert code == 0


@pytest.mark.parametrize("system,stage,batches,most", [
    ("connections.json", "classify_limit", 1, 60),
    ("certificate.json", "check_isolation", 0, 10),
])
def test_hi_integrator_work_stays_low(system, stage, batches, most,
                                      monkeypatch, capsys):
    # attempts (accepted and rejected steps) of every column of each
    # integrator run of `hi --seed 3`, by the function that made the run.
    # The counts are deterministic; an order-5 pair took 241 attempts per
    # column in the zero-sphere batch of connections.  Every isolation
    # sample of certificate crosses its face, so its isolation checks
    # start no run.  A run is counted for the outermost of the two, as
    # check_isolation integrates through classify_limit
    runs = {"classify_limit": [], "check_isolation": [], None: []}
    caller = []
    dop853 = flow._dop853

    def within(name, fn):
        def spy(*args, **kwargs):
            caller.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                caller.pop()
        return spy

    def spy_dop853(*args, **kwargs):
        run = dop853(*args, **kwargs)
        runs[caller[0] if caller else None].append(run.steps + run.rejected)
        return run

    monkeypatch.setattr(flow, "_dop853", spy_dop853)
    monkeypatch.setattr(flow, "classify_limit",
                        within("classify_limit", flow.classify_limit))
    monkeypatch.setattr(block, "check_isolation",
                        within("check_isolation", block.check_isolation))
    assert cli.main(["hi", os.path.join(ROOT, "benchmarks", "systems",
                                        system), "--seed", "3"]) == 0
    capsys.readouterr()
    assert len(runs[stage]) == batches
    assert all(attempts.max() <= most for attempts in runs[stage])


@pytest.mark.parametrize("seed", ["3", "4"])
def test_the_integrator_work_of_connections(seed, monkeypatch, capsys):
    # `hi` on connections makes one integrator batch, the zero-sphere
    # search: 16 columns for 43 lockstep rounds, 452 accepted and 175
    # rejected attempts. The counts are deterministic, so a change to the
    # step sequence shows here
    runs = []
    dop853 = flow._dop853

    def spy(*args, **kwargs):
        run = dop853(*args, **kwargs)
        runs.append(run)
        return run

    monkeypatch.setattr(flow, "_dop853", spy)
    assert cli.main(["hi", CONNECTIONS, "--seed", seed]) == 0
    capsys.readouterr()
    assert [(r.t.size, int((r.steps + r.rejected).max()), int(r.steps.sum()),
             int(r.rejected.sum())) for r in runs] == [(16, 43, 452, 175)]


@pytest.mark.parametrize("name", ["connections", "certificate"])
def test_the_compile_work_of_hi(name, monkeypatch, capsys):
    # from an empty compile cache, `hi` at seed 3 generates 9 functions on
    # either system: every field, gradient, Hessian and scalar f once
    expr._compile_field_cached.cache_clear()
    generated = []
    generate = expr._generate

    def spy(src, consts):
        generated.append(src)
        return generate(src, consts)

    monkeypatch.setattr(expr, "_generate", spy)
    path = os.path.join(ROOT, "benchmarks", "systems", f"{name}.json")
    assert cli.main(["hi", path, "--seed", "3"]) == 0
    capsys.readouterr()
    assert len(generated) == 9


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


@pytest.mark.parametrize("system,golden,code", [
    ("saddle.json", "saddle_block.out", 0),
    ("tangent.json", "tangent_block.out", 1),  # unresolved faces
    # a cube list with a hole, unsorted, with one cube listed twice
    ("annulus_block.json", "annulus_block.out", 0),
])
def test_block_report_matches_the_golden_report(system, golden, code, capsys):
    # the golden reports pin every face line, its tag and the unresolved
    # list, as the builder of a frozenset of cube tuples wrote them
    assert cli.main(["block", _path(system)]) == code
    with open(_path(golden), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


@pytest.mark.parametrize("argv,golden", [
    (["continue", "double_well_continue.json", "--seed", "3"],
     "double_well_continue_seed3.out"),
    (["relations", "double_well_relations.json", "--seed", "3"],
     "double_well_relations_seed3.out"),
    # a field and options.lam = 0.5 at one parameter value
    (["hi", "saddle_lam.json", "--seed", "3"], "saddle_lam_hi_seed3.out"),
    (["lyapunov", "saddle_lam.json"], "saddle_lam_lyapunov.out"),
    # the signed counts of the Z complex, each printed mod 2
    (["hi", CONNECTIONS, "--seed", "3", "--coeff", "Z2"],
     "connections_hi_seed3_Z2.out"),
])
def test_report_matches_the_golden_report(argv, golden, capsys):
    assert cli.main([argv[0], _path(argv[1]), *argv[2:]]) == 0
    with open(_path(golden), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


def _same_complex(a, b):
    """Assert that the hi reports ``a`` and ``b`` have the same homology
    and the same Morse complex up to the order and orientation of its
    generators.  Each critical point of ``b`` is the one of ``a`` within
    1e-2 (the perturbations move them by at most epsilon each), with the
    same index.  The (source, target) pairs, |n| and witness counts are
    equal, and n_b(p, q) = s_p s_q n_a(p, q) for one sign s_p per critical
    point."""
    assert (a["hi"], a["relative_cubical"]) == \
        (b["hi"], b["relative_cubical"])
    pa, pb = a["critical_points"], b["critical_points"]
    assert len(pa) == len(pb)
    to_a = []  # critical point of b -> the one of a at its place
    for cb in pb:
        near = [i for i, ca in enumerate(pa)
                if math.dist(ca["coords"], cb["coords"]) < 1e-2]
        assert len(near) == 1 and pa[near[0]]["index"] == cb["index"], cb
        to_a.append(near[0])
    assert len(set(to_a)) == len(pa)
    counts = {(c["source"], c["target"]): c for c in a["connection_counts"]}
    assert len(counts) == len(b["connection_counts"])
    ratio = {}  # (p, q) -> n_b / n_a, for every n_a != 0
    for cb in b["connection_counts"]:
        pair = (to_a[cb["source"]], to_a[cb["target"]])
        ca = counts[pair]
        assert (abs(ca["n"]), ca["witnesses"]) == \
            (abs(cb["n"]), cb["witnesses"]), pair
        if ca["n"]:
            ratio[pair] = ratio[pair[::-1]] = cb["n"] // ca["n"]
    sign = {}
    for first in range(len(pa)):
        if first in sign:
            continue
        sign[first], todo = 1, [first]
        while todo:
            p = todo.pop()
            for (s, q), r in ratio.items():
                if s != p:
                    continue
                if q not in sign:
                    sign[q] = sign[p] * r
                    todo.append(q)
                assert sign[q] == sign[p] * r, (p, q)


def _hi(capsys, system, seed):
    assert cli.main(["hi", system, "--seed", str(seed)]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("seed", range(5))
def test_the_morse_complex_of_connections_does_not_depend_on_the_seed(
        seed, capsys):
    with open(_path("connections_hi_seed3.out")) as fh:
        golden = json.load(fh)
    _same_complex(golden, _hi(capsys, CONNECTIONS, seed))


def test_the_morse_complex_of_the_3d_product_well_does_not_depend_on_the_seed(
        capsys):
    # the sphere search of the six index-2 sources on S^1 with another
    # rotation of its seeds, and another perturbation direction; the report
    # at seed 5 pins the branch signs of the windows of a second rotation,
    # whose seed cycle turns the other way
    assert cli.main(["hi", _path("product_well_3d.json"), "--seed", "5"]) == 0
    out = capsys.readouterr().out
    with open(_path("product_well_3d_hi_seed5.out"), "rb") as fh:
        assert out.encode() == fh.read()
    with open(_path("product_well_3d_hi_seed3.out")) as fh:
        golden = json.load(fh)
    _same_complex(golden, json.loads(out))


def test_hi_on_the_3d_product_well(capsys):
    # one index-3 source, searched backward from its six targets
    code = cli.main(["hi", _path("product_well_3d.json"), "--seed", "3"])
    text = capsys.readouterr().out
    with open(_path("product_well_3d_hi_seed3.out"), "rb") as fh:
        assert text.encode() == fh.read()
    out = json.loads(text)
    assert code == 0
    assert out["hi"]["betti"] == [1, 0, 0, 0]
    assert out["exit_theorem"] is True
    assert sorted(c["index"] for c in out["critical_points"]) == \
        [0] * 8 + [1] * 12 + [2] * 6 + [3]


@pytest.mark.parametrize("seed", [3, 5])
def test_the_work_of_the_3d_product_well(seed, monkeypatch, capsys):
    # the 24 forward and 12 backward zero-sphere seeds ride in the first
    # batch of the six circles: 14 label batches of 3,252 orbits in all.
    # The 24 witnesses of the circles are signed from their labels, so
    # every integration of the run is of a 3-row state, the orbits alone
    batches, rows = [], []
    classify, dop853 = flow.classify_limit, flow._dop853

    def counted(gradfield, X0, *args, **kwargs):
        batches.append(X0.shape[1])
        return classify(gradfield, X0, *args, **kwargs)

    def counted_dop853(F, x0, *args, **kwargs):
        rows.append(x0.shape[0])
        return dop853(F, x0, *args, **kwargs)

    monkeypatch.setattr(flow, "classify_limit", counted)
    monkeypatch.setattr(flow, "_dop853", counted_dop853)
    assert cli.main(["hi", _path("product_well_3d.json"),
                     "--seed", str(seed)]) == 0
    with open(_path(f"product_well_3d_hi_seed{seed}.out"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()
    assert (len(batches), sum(batches)) == (14, 3252)
    assert batches[0] == 36 + 6 * DEFAULT.n_dir_seeds
    assert rows and set(rows) == {3}


def test_hi_on_the_4d_product_well_stops_before_any_orbit(monkeypatch,
                                                         capsys):
    # eight index-3 sources would search an unstable S^2, where bisection
    # of label changes cannot isolate the connecting directions: the
    # connection search, the only stage that classifies orbit limits,
    # raises before its first batch.  Every isolation sample of the
    # unperturbed field crosses its face, and the certificate settles every
    # sample by the two ends of its homotopy, so no stage integrates an
    # orbit at all
    calls, runs = [], []
    classify, dop853 = flow.classify_limit, flow._dop853

    def counted(*args, **kwargs):
        calls.append(1)
        return classify(*args, **kwargs)

    def counted_runs(*args, **kwargs):
        runs.append(1)
        return dop853(*args, **kwargs)

    monkeypatch.setattr(flow, "classify_limit", counted)
    monkeypatch.setattr(flow, "_dop853", counted_runs)
    code = cli.main(["hi", _path("product_well_4d.json"), "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert re.fullmatch(
        r"error: critical point \d+ at \(.*\) has index 3: its connections "
        r"to index 2 leave its unstable sphere S\^2 through isolated points "
        r"on curves, which bisection cannot find; only S\^0 and S\^1 are "
        r"searched\n", captured.err)
    assert calls == [] and runs == []


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


@pytest.mark.parametrize("doc,message", [
    ({"dimension": 0, "field": [], "block": {"spacing": -1}, "extra": 1},
     "dimension: 0 is less than 1"),
    ({"dimension": "2", "field": ["x1", 3], "block": {"box": [[0]]}},
     'dimension: "2" is not of type integer'),
    ({"field": ["x1"], "block": {"spacing": 1, "cubes": []},
      "options": {"epsilon": 0, "lam": "a"}},
     "block.cubes: [] has length 0, less than 1"),
    ({"dimension": 1, "field": ["x1"], "block": {"spacing": 1},
      "invariant_set": {"samples": [["a"]], "radius": -1, "x": 0}},
     'invariant_set.samples[0][0]: "a" is not of type number'),
    ({"dimension": 1, "field": ["x1"], "block": {"spacing": 1},
      "decomposition": {"sets": [{"block": {}}]},
      "continuation": {"grid": [0]}},
     'decomposition.sets[0].block: missing required property "spacing"'),
], ids=[f"doc{i}" for i in range(5)])
def test_schema_errors_are_those_of_jsonschema_validate(doc, message,
                                                        tmp_path, capsys):
    # jsonschema, the reference, rejects each document; the message is the
    # first violation in document order
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, cli.SYSTEM_SCHEMA)
    code = cli.main(["block", _write(tmp_path, doc)])
    assert code == 2
    assert capsys.readouterr().err == \
        f"input error: invalid system file: {message}\n"


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_system_schema_uses_only_the_keywords_the_walker_reads():
    for schema in _subschemas(cli.SYSTEM_SCHEMA):
        assert set(schema) <= cli.SCHEMA_KEYWORDS
        assert schema["type"] in cli._TYPES
        assert schema.get("additionalProperties", False) is False
        assert ("items" in schema) == (schema["type"] == "array")


def _nodes(doc, schema, path=()):
    """(path, value, schema) of every node of doc that schema describes."""
    yield path, doc, schema
    if isinstance(doc, dict):
        for key, x in doc.items():
            if key in schema.get("properties", {}):
                yield from _nodes(x, schema["properties"][key], path + (key,))
    elif isinstance(doc, list):
        for i, x in enumerate(doc):
            yield from _nodes(x, schema["items"], path + (i,))


def _replaced(doc, path, value):
    """doc with value at path; only the containers on the path are
    copied."""
    if not path:
        return value
    out = copy.copy(doc)
    out[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return out


def _mutations(doc, rng):
    """Single mutations of doc, as (path, new value, schema at the path): a
    dropped or an extra key, a value of another type, true for a number,
    2.0 for an integer, numbers at and past each bound, and arrays one
    short and one long."""
    for path, v, schema in _nodes(doc, cli.SYSTEM_SCHEMA):
        values = [None, True, "1", 1, 1.5, [], {}]
        if isinstance(v, dict):
            values += [{k: x for k, x in v.items() if k != key} for key in v]
            values.append(dict(v, extra=1))
        if isinstance(v, list):
            values += [v[:-1], v + v[rng.randrange(len(v)):][:1]]
        if schema["type"] == "integer":
            values.append(float(v))
        for bound in ("minimum", "exclusiveMinimum"):
            if bound in schema:
                b = schema[bound]
                values += [b, float(b), b - 1, b - 1e-9, b + 1e-9,
                           rng.uniform(b - 2, b + 2)]
        for value in values:
            yield path, value, schema


# Each of these keywords checks the value at its own node, or hands each
# child to the one sub-schema named for it (properties, items); none reads
# a sibling or a parent.  With no other keyword in the schema, a valid
# document with one subtree replaced is valid exactly when that subtree is
# valid against the sub-schema at its path.
_LOCAL_KEYWORDS = frozenset((
    "type", "properties", "additionalProperties", "required", "items",
    "minItems", "maxItems", "minimum", "exclusiveMinimum"))


def test_walker_agrees_with_jsonschema():
    assert cli.SCHEMA_KEYWORDS <= _LOCAL_KEYWORDS
    for schema in _subschemas(cli.SYSTEM_SCHEMA):
        # a schema here would apply to the keys that properties does not
        # name, a second way for a child to be checked
        assert schema.get("additionalProperties", False) is False
    reference = jsonschema.Draft202012Validator(cli.SYSTEM_SCHEMA)
    validators = {}
    docs = []
    for f in sorted(glob.glob(os.path.join(DATA, "*.json"))
                    + glob.glob(os.path.join(ROOT, "benchmarks", "systems",
                                             "*.json"))):
        with open(f) as fh:
            docs.append(json.load(fh))
    assert len(docs) == 13
    docs.append({"dimension": 2, "field": ["x1", "-x2"],
                 "block": {"cubes": [[0, 0], [1, 0]], "origin": [-1, -0.5],
                           "spacing": 0.5}})
    rng = random.Random(17)
    verdicts = []
    for doc in docs:
        assert cli._violation(doc, cli.SYSTEM_SCHEMA) is None
        assert reference.is_valid(doc)
        for path, value, schema in _mutations(doc, rng):
            mutant = _replaced(doc, path, value)
            valid = cli._violation(mutant, cli.SYSTEM_SCHEMA) is None
            sub = validators.setdefault(
                id(schema), jsonschema.Draft202012Validator(schema))
            assert valid == sub.is_valid(value), mutant
            if len(verdicts) % 100 == 0:  # the locality, on a sample
                assert valid == reference.is_valid(mutant), mutant
            verdicts.append(valid)
    assert len(verdicts) > 3000
    assert 0 < verdicts.count(True) < verdicts.count(False)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("section,key", [
    ("block", "spacing"), ("invariant_set", "radius"),
    ("options", "epsilon"), ("options", "lam"),
])
def test_non_finite_numbers_exit_two(section, key, text, tmp_path, capsys):
    # json.load reads NaN and Infinity, and 1e400 as inf, all of which
    # pass the schema's bounds or types
    with open(CONNECTIONS) as fh:
        doc = json.load(fh)
    doc.setdefault(section, {})[key] = "@"
    p = tmp_path / "system.json"
    p.write_text(json.dumps(doc).replace('"@"', text))
    assert cli.main(["hi", str(p)]) == 2
    assert capsys.readouterr().err == \
        f"input error: malformed JSON in {p}: non-finite number {text}\n"


def test_the_runtime_never_imports_jsonschema(tmp_path):
    bad = _write(tmp_path, {"dimension": 1, "field": ["x1"],
                            "block": {"spacing": -1}})
    script = (
        "import sys\n"
        "from mcfhom import cli\n"
        f"cli.load_system({CONNECTIONS!r})\n"
        f"assert cli.main(['hi', {CONNECTIONS!r}]) == 0\n"
        "assert 'jsonschema' not in sys.modules\n"
        "sys.modules['jsonschema'] = None  # an import of it now fails\n"
        f"assert cli.main(['hi', {CONNECTIONS!r}]) == 0\n"
        f"assert cli.main(['block', {bad!r}]) == 2\n")
    src = os.path.dirname(os.path.dirname(mcfhom.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.endswith("invalid system file: block.spacing: -1 is "
                                "not greater than 0\n")


def test_the_runtime_never_imports_numpy_random():
    # the seeded draws come from the standard library's random module
    runs = [["hi", CONNECTIONS],
            ["relations", _path("double_well_relations.json")],
            ["continue", _path("double_well_continue.json")]]
    script = (
        "import contextlib, io, sys\n"
        "from mcfhom import cli\n"
        f"runs = {runs!r}\n"
        "def run_all():\n"
        "    for argv in runs:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert cli.main(argv) == 0, argv\n"
        "run_all()\n"
        "assert 'numpy.random' not in sys.modules\n"
        "sys.modules['numpy.random'] = None  # an import of it now fails\n"
        "run_all()\n")
    src = os.path.dirname(os.path.dirname(mcfhom.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_block_never_imports_numpy_ma():
    # np.unique imports numpy.ma on its first call; a cube list is merged
    # without it
    argv = ["block", _path("annulus_block.json")]
    script = (
        "import contextlib, io, sys\n"
        "from mcfhom import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(mcfhom.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command,system", [
    ("hi", "saddle.json"), ("cubical", "saddle.json")])
@pytest.mark.parametrize("seed", ["-1", "-0.5", "x"])
def test_a_seed_that_is_not_a_non_negative_integer_exits_two(
        command, system, seed, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, _path(system), "--seed", seed])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"argument --seed: {seed!r} is not a non-negative integer\n")


def test_the_reported_perturbation_gives_the_same_report(tmp_path, capsys):
    # the seeded direction, passed back as options.perturbation
    report = _hi(capsys, CONNECTIONS, 3)
    with open(CONNECTIONS) as fh:
        doc = json.load(fh)
    doc.setdefault("options", {})["perturbation"] = report["perturbation"]
    path = _write(tmp_path, doc)
    assert cli.main(["hi", path, "--seed", "3"]) == 0
    with open(_path("connections_hi_seed3.out")) as fh:
        assert capsys.readouterr().out == fh.read()


@pytest.mark.parametrize("origin", [[-1.0], [-1.0, -1.0, -1.0]])
def test_origin_of_the_wrong_length_exits_two(origin, tmp_path, capsys):
    doc = {"dimension": 2, "field": ["x1", "-x2"],
           "block": {"cubes": [[0, 0], [1, 0]], "origin": origin,
                     "spacing": 0.5}}
    assert cli.main(["block", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == \
        f"input error: origin has {len(origin)} entries, dimension is 2\n"


@pytest.mark.parametrize("beside,named", [
    ({"cubes": [[5], [6]], "origin": [100]}, "cubes and origin"),
    ({"cubes": [[5], [6]]}, "cubes"),
    ({"origin": [100]}, "origin"),
])
def test_a_box_beside_cubes_or_origin_exits_two(beside, named, tmp_path,
                                                capsys):
    # the box alone would write the report: the keys beside it are not
    # silently dropped, in the block of the file or of a decomposition set
    with open(_path("double_well_relations.json")) as fh:
        doc = json.load(fh)
    message = (f"input error: block has box and {named}: a box sets its own "
               f"cubes and origin\n")
    top = dict(doc, block=dict(doc["block"], **beside))
    assert cli.main(["block", _write(tmp_path, top)]) == 2
    assert capsys.readouterr().err == message
    doc["decomposition"]["sets"][1]["block"].update(beside)
    assert cli.main(["relations", _write(tmp_path, doc), "--seed", "3"]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("command", ["block", "cubical"])
@pytest.mark.parametrize("cubes,message", [
    ([[0], [10 ** 21]], "a cube index does not fit in 64 bits"),
    ([[0, 0], [300000, 300000]],
     "the cube-index box spans 360003600009 grid cells, more than "
     "4294967296"),
], ids=["int64-overflow", "grid-too-large"])
def test_cube_lists_out_of_range_exit_two(command, cubes, message, tmp_path,
                                          capsys):
    # a valid JSON cube list whose indices or box the block arrays cannot
    # hold: an input error, before any array of the box is allocated
    m = len(cubes[0])
    doc = {"dimension": m, "field": [f"x{i + 1}" for i in range(m)],
           "block": {"cubes": cubes, "spacing": 0.5}}
    assert cli.main([command, _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {message}\n"


@pytest.mark.parametrize("command,name,section", [
    ("hi", "double_well_relations.json", ["invariant_set"]),
    ("relations", "double_well_relations.json",
     ["decomposition", "sets", 1, "invariant_set"]),
    ("continue", "double_well_continue.json",
     ["continuation", "invariant_set_end"]),
])
def test_invariant_set_sample_of_the_wrong_length_exits_two(
        command, name, section, tmp_path, capsys):
    with open(_path(name)) as fh:
        doc = json.load(fh)
    spec = doc
    for key in section:
        spec = spec[key]
    spec["samples"].append([0, 0])
    assert cli.main([command, _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == ("input error: invariant set sample "
                                       "[0, 0] has 2 coordinates, dimension "
                                       "is 1\n")


@pytest.mark.parametrize("error", [
    flow.StepUnderflowError(0.25, [0.5, 0.0]),
    flow.IntegrationError("exceeded 5 steps at t=1.0"),
    flow.AmbiguousCaptureError(types.SimpleNamespace(ident=0),
                               types.SimpleNamespace(ident=1), 1e-05),
], ids=lambda e: type(e).__name__)
def test_flow_errors_exit_one(error, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(flow, "classify_limit", fail)
    system = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "benchmarks", "systems", "connections.json")
    assert cli.main(["hi", system]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {error}\n"


def _wrong_relative_homology(monkeypatch, bad_call):
    """Make the ``bad_call``-th relative homology (from 1) H_3 = Z."""
    real = homalg.cubical_relative_homology
    calls = []

    def fake(*args, **kwargs):
        calls.append(args)
        if len(calls) == bad_call:
            return homalg.HomologyResult([0, 0, 0, 1], {})
        return real(*args, **kwargs)

    monkeypatch.setattr(homalg, "cubical_relative_homology", fake)


def test_hi_reports_a_failed_exit_theorem_and_exits_one(monkeypatch,
                                                        capsys):
    _wrong_relative_homology(monkeypatch, 1)
    assert cli.main(["hi", _path("saddle.json")]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["exit_theorem"] is False and out["verdict"] is False
    assert out["hi"]["pretty"] == "H_1 = Z"
    assert out["relative_cubical"]["pretty"] == "H_3 = Z"


@pytest.mark.parametrize("command,bad_call,name,hi", [
    ("relations", 1, "the whole", "H_0 = Z"),
    ("relations", 2, "set 0", "H_0 = Z"),
    ("relations", 4, "set 2", "H_1 = Z"),
    ("continue", 1, "the start (lam = 0.0)", "H_0 = Z"),
    ("continue", 2, "the end (lam = 1.0)", "H_0 = Z"),
])
def test_a_failed_exit_theorem_stops_relations_and_continue(
        command, bad_call, name, hi, monkeypatch, capsys):
    _wrong_relative_homology(monkeypatch, bad_call)
    assert cli.main([command, _path(f"double_well_{command}.json"),
                     "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: exit-set theorem fails for {name}: "
                            f"HI is {hi}, H(B, B-) is H_3 = Z\n")


def test_missing_file_exits_two(capsys):
    assert cli.main(["hi", "/nonexistent/system.json"]) == 2


def test_an_out_path_that_cannot_be_written_exits_two(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "r.json"
    assert cli.main(["block", _path("saddle.json"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: cannot write {out}: ")
    assert "No such file or directory" in captured.err


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_out_writes_the_report_and_json_also_prints_it(flags, tmp_path,
                                                       capsys):
    out = tmp_path / "r.json"
    assert cli.main(["block", _path("saddle.json"), "--out", str(out),
                     *flags]) == 0
    printed = capsys.readouterr().out
    with open(_path("saddle_block.out")) as fh:
        assert out.read_text() == fh.read()
    assert printed == (out.read_text() if flags else "")


@pytest.mark.parametrize("side,message", [
    ([1, -1], "box side [1, -1] is empty"),
    ([0, 0], "box side [0, 0] is empty"),
    ([0, 0.75], "box side [0, 0.75] is not a whole number of cells at "
                "spacing 0.5"),
    ([0, 1e-12], "box side [0, 1e-12] is shorter than one cell at spacing "
                 "0.5"),
], ids=["reversed", "zero-length", "not-whole", "shorter-than-a-cell"])
def test_a_box_side_that_is_empty_or_not_whole_cells_exits_two(
        side, message, tmp_path, capsys):
    doc = {"dimension": 1, "field": ["x1"],
           "block": {"box": [side], "spacing": 0.5}}
    assert cli.main(["block", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_options_lam_leaves_a_field_without_lam_as_it_is(tmp_path, capsys):
    # 0*sqrt(x1 + 0.5) has no value on the side x1 = -1, with or without
    # a value of lam to bind
    doc = {"dimension": 1, "field": ["x1 + 0*sqrt(x1 + 0.5)"],
           "block": {"box": [[-1, 1]], "spacing": 0.5}}
    assert cli.main(["block", _write(tmp_path, doc)]) == 1
    plain = capsys.readouterr().out
    assert json.loads(plain)["unresolved"] == [
        "face(cube=(0,), axis=0, side=-)"]
    doc["options"] = {"lam": 0}
    assert cli.main(["block", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().out == plain


def test_bad_expression_exits_two(tmp_path, capsys):
    doc = json.loads(open(_path("saddle.json")).read())
    doc["field"] = ["x1", "x9"]
    p = tmp_path / "badexpr.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["hi", str(p)]) == 2


def test_relations_refuses_overlapping_sets(tmp_path, monkeypatch, capsys):
    # the left well twice and the saddle: the Poincare polynomials of the
    # sets would still sum to the whole's plus (1 + t), but the sets overlap
    with open(_path("double_well_relations.json")) as fh:
        doc = json.load(fh)
    left, _, saddle = doc["decomposition"]["sets"]
    doc["decomposition"]["sets"] = [left, left, saddle]
    calls = []
    monkeypatch.setattr(conley, "compute_HI", calls.append)
    assert cli.main(["relations", _write(tmp_path, doc), "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and calls == []
    assert captured.err == ("error: decomposition sets 0 and 1 overlap: "
                            "their blocks share an interior point\n")


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


@pytest.mark.parametrize("command,calls", [("relations", 4),
                                           ("continue", 2)])
def test_the_file_perturbation_reaches_every_homology(
        command, calls, monkeypatch, tmp_path, capsys):
    # the whole system and every decomposition set, or both ends of the
    # continuation, are perturbed along options.perturbation
    with open(_path(f"double_well_{command}.json")) as fh:
        doc = json.load(fh)
    doc["options"] = {"perturbation": "x1^3"}
    perturbations = []
    compute = conley.compute_HI

    def spy(system, **kwargs):
        perturbations.append(system.perturbation)
        return compute(system, **kwargs)

    monkeypatch.setattr(conley, "compute_HI", spy)
    assert cli.main([command, _write(tmp_path, doc)]) == 0
    assert perturbations == [expr.parse("x1^3", 1)] * calls


@pytest.mark.parametrize("command", ["hi", "relations", "continue"])
def test_a_perturbation_that_fails_its_certificate_fails_every_command(
        command, tmp_path, capsys, monkeypatch):
    # the gradient of sqrt(x1) is not finite on x1 <= 0: the file is at
    # fault, and the first boundary sample without a value is named before
    # the certificate integrates any orbit
    name = "continue" if command == "continue" else "relations"
    with open(_path(f"double_well_{name}.json")) as fh:
        doc = json.load(fh)
    doc["options"] = {"perturbation": "sqrt(x1)"}
    calls = []
    check = block.check_isolation

    def spy(b, fieldd, *args, **kwargs):
        calls.append(fieldd)
        return check(b, fieldd, *args, **kwargs)

    monkeypatch.setattr(block, "check_isolation", spy)
    assert cli.main([command, _write(tmp_path, doc), "--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: perturbation sqrt(x1) has no "
                            "finite gradient at (-2.0,)\n")
    if command == "hi":
        # the one unperturbed isolation check of compute_HI
        assert len(calls) == 1 and isinstance(calls[0], expr.FieldDef)


def test_a_perturbation_without_a_value_inside_the_block_exits_two(
        tmp_path, capsys):
    # log(x1^2) has a finite gradient at every boundary sample but none at
    # x1 = 0, a point of the Newton lattice inside the block, where the
    # index-1 point sits
    with open(_path("double_well_relations.json")) as fh:
        doc = json.load(fh)
    doc["options"] = {"perturbation": "log(x1^2)", "epsilon": 0.01}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["hi", _write(tmp_path, doc), "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("input error: perturbation log(x1^2) has no "
                            "finite gradient at (0.0,)\n")


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
