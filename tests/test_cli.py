"""End-to-end CLI tests: exit codes, report shape, determinism."""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import argshift
from argshift import cli, jsonio, regcert
from argshift.cli import COMMANDS, main
from argshift.liealg import LieAlgebraData, make_centralizer_sl, make_classical, make_takiff
from argshift.mpoly import MPoly
from argshift.poisson import CasimirSet, classical_casimirs, estimate_index, takiff_lift
from argshift.regcert import PlaneCertificate, find_regular_plane
from oracles import estimate_index_all_trials

SL2 = make_classical("sl", 2)

HEISENBERG = {"dim": 3, "basis": ["e", "f", "z"],
              "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}]}

TAMPERED = {"dim": 3, "basis": ["e", "h", "f"],
            "brackets": [{"i": 0, "j": 1, "coeffs": {"0": "-3"}},
                         {"i": 0, "j": 2, "coeffs": {"1": "1"}},
                         {"i": 1, "j": 2, "coeffs": {"2": "-2"}}]}


def run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else {})


@pytest.fixture
def sl2_file(tmp_path):
    path = tmp_path / "sl2.json"
    assert main(["algebra", "build", "sl", "2", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def sl2_casimirs(tmp_path):
    x = [MPoly.variable(3, i) for i in range(3)]
    cas = x[1] * x[1] + 4 * x[0] * x[2]
    path = tmp_path / "cas.json"
    jsonio.write_json(str(path), {"nvars": 3,
                                  "generators": [jsonio.poly_to_json(cas)]})
    return str(path)


def poly_file(tmp_path, name, poly):
    path = tmp_path / name
    jsonio.write_json(str(path), jsonio.poly_to_json(poly))
    return str(path)


def test_casimir_file_with_a_generator_on_more_variables_is_a_usage_error(
        capsys, tmp_path, sl2_file):
    x = [MPoly.variable(4, i) for i in range(4)]
    path = tmp_path / "cas4.json"
    jsonio.write_json(str(path), {"nvars": 3, "generators": [
        jsonio.poly_to_json(x[1] * x[1] + 4 * x[0] * x[2] + x[3])]})
    code = main(["reg", "point", sl2_file, "--xi", "1,0,1", "--casimirs", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == (f"error: {path}: generator 0 has nvars 4, "
                            "but the Casimir file has nvars 3\n")


def test_every_exported_name_resolves():
    assert [name for name in argshift.__all__ if not hasattr(argshift, name)] == []


def test_algebra_build_emits_parseable_algebra(sl2_file):
    data = jsonio.read_json(sl2_file)
    assert jsonio.algebra_from_json(data) == SL2


def test_algebra_validate_pass(capsys, sl2_file):
    code, report = run(capsys, "algebra", "validate", sl2_file)
    assert code == 0
    assert report["schema"] == 6
    assert report["status"] == "pass"
    assert report["verdicts"]["validate"]["ok"]
    assert "sha256" in report["inputs"]["algebra"]


def test_algebra_validate_tampered_table(capsys, tmp_path):
    path = tmp_path / "bad.json"
    jsonio.write_json(str(path), TAMPERED)
    code, report = run(capsys, "algebra", "validate", str(path))
    assert code == 1
    v = report["verdicts"]["validate"]
    assert v["kind"] == "jacobi"
    assert "Jacobi fails" in report["witnesses"]["validate"]


def test_algebra_build_unknown_kind(capsys):
    code, _ = run(capsys, "algebra", "build", "sporadic", "1")
    assert code == 2


def test_usage_error_on_missing_subcommand(capsys):
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, code, stream", [
    ([], 2, "err"), (["reg"], 2, "err"), (["reg", "nope"], 2, "err"),
    (["nope", "x"], 2, "err"), (["-h"], 0, "out"), (["reg", "--help"], 0, "out")])
def test_incomplete_command_prints_the_table(capsys, argv, code, stream):
    assert main(argv) == code
    captured = capsys.readouterr()
    printed, other = ((captured.out, captured.err) if stream == "out"
                      else (captured.err, captured.out))
    assert printed.startswith("usage: argshift GROUP COMMAND")
    assert "argshift reg      point|plane|codim2|compl|bols\n" in printed
    assert other == ""


def test_command_help_and_argparse_errors_name_the_command(capsys):
    assert main(["reg", "plane", "-h"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: argshift reg plane [-h]") and not captured.err
    assert main(["reg", "plane"]) == 2
    assert capsys.readouterr().err.endswith(
        "argshift reg plane: error: the following arguments are required: "
        "algebra, --xi, --eta\n")
    assert main(["poisson", "index", "a.json", "--nope"]) == 2
    assert capsys.readouterr().err.endswith(
        "argshift poisson index: error: unrecognized arguments: --nope\n")


def test_one_parser_per_call(monkeypatch, capsys, sl2_file):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(2):
        assert main(["poisson", "index", sl2_file]) == 0
    assert built == ["argshift poisson index"] * 2
    capsys.readouterr()


COMMON = {"seed": 0, "trials": 24, "bound": 9, "out": None}
PARSED = {
    ("algebra", "validate", "A"): {"algebra": "A"},
    ("algebra", "build", "sl", "2"): {"kind": "sl", "params": ["2"]},
    ("poisson", "bracket", "A", "F", "G"): {"algebra": "A", "f": "F", "g": "G"},
    ("poisson", "casimir-check", "A", "P"): {"algebra": "A", "poly": "P"},
    ("poisson", "index", "A"): {"algebra": "A"},
    ("shift", "build", "A", "C", "--xi", "1"): {"algebra": "A", "casimirs": "C", "xi": "1"},
    ("shift", "certify", "A", "C", "--xi", "1"): {"algebra": "A", "casimirs": "C",
                                                  "xi": "1"},
    ("reg", "point", "A", "--xi", "1"): {"algebra": "A", "xi": "1", "ind": None,
                                         "casimirs": None},
    ("reg", "plane", "A", "--xi", "1", "--eta", "2"): {"algebra": "A", "xi": "1",
                                                       "eta": "2", "ind": None},
    ("reg", "codim2", "A"): {"algebra": "A", "ind": None, "planes": 4},
    ("reg", "compl", "A", "C", "--xi", "1", "--eta", "2"): {
        "algebra": "A", "casimirs": "C", "xi": "1", "eta": "2", "ind": None,
        "nsamples": 8},
    ("reg", "bols", "A", "C", "--xi", "1"): {"algebra": "A", "casimirs": "C", "xi": "1",
                                             "ind": None},
    ("pencil", "analyze"): {"algebra": None, "xi": None, "eta": None, "matrices": None},
    ("pipeline", "run", "A"): {"algebra": "A", "casimirs": None, "classical": False,
                               "xi": None, "attempts": 20, "nsamples": 8, "planes": 4},
}


@pytest.mark.parametrize("argv", list(PARSED))
def test_parsed_destinations_and_defaults(monkeypatch, argv):
    # stop after parsing; routing keys an implementation may add are not options
    seen = []
    parse = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        seen.append(vars(parse(self, *args, **kwargs)))
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    assert main(list(argv)) == 0
    routing = ("group", "cmd", "handler", "command_name")
    assert {k: v for k, v in seen[0].items() if k not in routing} == {**COMMON,
                                                                      **PARSED[argv]}


def test_readme_command_block_is_the_usage(capsys):
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
                  encoding="utf-8").read()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    assert main(["-h"]) == 0
    assert capsys.readouterr().out == block


def test_poisson_bracket_sl2(capsys, tmp_path, sl2_file):
    f = poly_file(tmp_path, "xe.json", MPoly.variable(3, 0))
    g = poly_file(tmp_path, "xf.json", MPoly.variable(3, 2))
    code, report = run(capsys, "poisson", "bracket", sl2_file, f, g)
    assert code == 0
    assert report["verdicts"]["bracket"]["pretty"] == "x_h"
    assert jsonio.poly_from_json(report["result"]) == MPoly.variable(3, 1)


def test_poisson_casimir_check(capsys, tmp_path, sl2_file):
    x = [MPoly.variable(3, i) for i in range(3)]
    good = poly_file(tmp_path, "good.json", x[1] * x[1] + 4 * x[0] * x[2])
    code, report = run(capsys, "poisson", "casimir-check", sl2_file, good)
    assert code == 0 and report["verdicts"]["casimir"]["ok"]
    bad = poly_file(tmp_path, "bad.json", x[0])
    code, report = run(capsys, "poisson", "casimir-check", sl2_file, bad)
    assert code == 1
    assert report["witnesses"]["casimir"]["pretty"] == "2*x_e"
    assert report["witnesses"]["casimir"]["name"] == "h"


def test_poisson_index(capsys, sl2_file):
    code, report = run(capsys, "poisson", "index", sl2_file)
    assert code == 0
    v = report["verdicts"]["index"]
    assert (v["dim"], v["ind"], v["b_q"]) == (3, 1, 2)
    assert report["seed"] == 0


def test_shift_build_family_format(capsys, sl2_file, sl2_casimirs):
    code, fam_json = run(capsys, "shift", "build", sl2_file, sl2_casimirs,
                         "--xi", "1,0,0")
    assert code == 0
    pretties = [m["pretty"] for m in fam_json["members"]]
    assert pretties == ["4*x_e*x_f + x_h^2", "4*x_f"]
    assert [(m["generator"], m["power"]) for m in fam_json["members"]] == [(0, 0), (0, 1)]


def test_shift_certify(capsys, sl2_file, sl2_casimirs):
    code, report = run(capsys, "shift", "certify", sl2_file, sl2_casimirs,
                       "--xi", "1,0,0")
    assert code == 0
    assert report["verdicts"]["commutative"] == {
        "ok": True, "pairs_checked": 1, "members": 2, "method": "casimir-pencil"}


def test_reg_point(capsys, sl2_file):
    code, report = run(capsys, "reg", "point", sl2_file, "--xi", "1,0,0")
    assert code == 0 and report["verdicts"]["point"]["regular"]
    code, report = run(capsys, "reg", "point", sl2_file, "--xi", "0,0,0")
    assert code == 1
    assert report["witnesses"]["point"]["rank_drop"] == 2


def test_reg_point_bad_vector_is_usage_error(capsys, sl2_file):
    code, _ = run(capsys, "reg", "point", sl2_file, "--xi", "1,0")
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("ind", ["5", "2", "0", "-1"])
@pytest.mark.parametrize("command", [["point"], ["plane", "--eta", "0,0,1"], ["codim2"],
                                     ["compl", "CAS", "--eta", "0,0,1"], ["bols", "CAS"]])
def test_reg_rejects_an_index_that_does_not_fit(capsys, sl2_file, sl2_casimirs,
                                                command, ind):
    # sl2 has dim 3: a declared index must lie in [0, 3] with 3 - ind even
    argv = ["reg", command[0], sl2_file,
            *[sl2_casimirs if a == "CAS" else a for a in command[1:]], f"--ind={ind}"]
    if command[0] != "codim2":
        argv += ["--xi", "1,0,0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --ind {ind} does not fit dim 3")


@pytest.mark.parametrize("command", [["point", "--xi", "1,0,0"],
                                     ["plane", "--xi", "1,0,0", "--eta", "0,0,1"],
                                     ["codim2"]])
def test_reg_rejects_an_index_equal_to_dim(capsys, sl2_file, tmp_path, command):
    # --ind 3 on sl2 leaves generic rank 0, which a nonzero form refutes
    assert main(["reg", command[0], sl2_file, *command[1:], "--ind", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the declared index looks wrong" in captured.err
    # on an abelian algebra generic rank 0 is right, and every check passes
    ab = tmp_path / "ab.json"
    jsonio.write_json(str(ab), jsonio.algebra_to_json(LieAlgebraData.abelian(3)))
    code, report = run(capsys, "reg", command[0], str(ab), *command[1:], "--ind", "3")
    assert code == 0 and report["status"] == "pass"


@pytest.mark.parametrize("command", [" ".join(key) for key in COMMANDS])
@pytest.mark.parametrize("option", ["--trials", "--bound"])
def test_every_command_rejects_a_zero_sample_count(capsys, command, option):
    # the counts are checked at parse time, before any input is read
    assert main([*command.split(), option, "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be at least 1, got 0" in captured.err


@pytest.mark.parametrize("argv, option, value, least", [
    (["pipeline", "run", "SL2", "--classical"], "--trials", "0", 1),
    (["pipeline", "run", "SL2", "--classical"], "--bound", "0", 1),
    (["pipeline", "run", "SL2", "--classical"], "--nsamples", "-3", 1),
    (["pipeline", "run", "SL2", "--classical"], "--attempts", "0", 1),
    (["pipeline", "run", "SL2", "--classical"], "--planes", "-1", 0),
    (["reg", "codim2", "SL2"], "--planes", "-1", 0),
    (["reg", "compl", "SL2", "CAS", "--xi", "1,0,0", "--eta", "0,0,1"],
     "--nsamples", "0", 1),
    (["poisson", "index", "SL2"], "--trials", "-2", 1),
])
def test_count_options_below_their_least_value_are_usage_errors(
        capsys, sl2_file, sl2_casimirs, argv, option, value, least):
    # a count below its least value is a usage error, not a stage failure
    argv = [{"SL2": sl2_file, "CAS": sl2_casimirs}.get(a, a) for a in argv]
    assert main([*argv, option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be at least {least}, got {value}" in captured.err


def test_count_options_reject_non_integers_and_accept_their_least_value(capsys, sl2_file):
    assert main(["reg", "codim2", sl2_file, "--planes", "two"]) == 2
    assert "argument --planes: invalid int value: 'two'" in capsys.readouterr().err
    code, report = run(capsys, "reg", "codim2", sl2_file, "--planes", "0",
                       "--trials", "1", "--bound", "1")
    assert code == 0 and report["verdicts"]["codim2"]["ok"]


def test_reg_point_rank_above_the_index(capsys, sl2_file, tmp_path):
    # a declared index too high is a usage error, as in reg plane
    assert main(["reg", "point", sl2_file, "--xi", "1,0,0", "--ind", "3"]) == 2
    assert "the declared index looks wrong" in capsys.readouterr().err
    # one sample at height 1 misses the Heisenberg regular set z != 0, so
    # the estimated index is 3 and a regular point contradicts it
    heis = tmp_path / "heis.json"
    jsonio.write_json(str(heis), HEISENBERG)
    code, report = run(capsys, "reg", "point", str(heis), "--xi", "0,0,1",
                       "--trials", "1", "--bound", "1")
    assert code == 3
    assert report["status"] == "falsified"
    assert report["bundle"]["kirillov_rank"] == 2 and report["bundle"]["m"] == 0
    assert report["algebra"]["dim"] == 3


def test_reg_plane_certificate_embeds_gcd(capsys, sl2_file):
    code, report = run(capsys, "reg", "plane", sl2_file,
                       "--xi", "1,0,0", "--eta", "0,0,1")
    assert code == 0
    plane = report["verdicts"]["plane"]
    assert plane["ok"] and plane["gcd"] == "1"


@pytest.mark.parametrize("eta", ["2,0,-4", "0,0,0", "-1/2,0,1"])
def test_reg_plane_rejects_dependent_points(capsys, sl2_file, eta):
    assert main(["reg", "plane", sl2_file, "--xi", "1,0,-2", f"--eta={eta}"]) == 2
    assert capsys.readouterr() == (
        "", "error: plane spanning points are linearly dependent\n")


def test_reg_plane_singular_directions(capsys, tmp_path):
    path = tmp_path / "con.json"
    assert main(["algebra", "build", "contraction-sl2-so2",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    code, report = run(capsys, "reg", "plane", str(path),
                       "--xi", "0,1,0", "--eta", "1,0,0")
    assert code == 1
    assert report["witnesses"]["plane"]["singular_directions"] == [["0", "1"]]


def test_reg_codim2(capsys, sl2_file, tmp_path):
    code, report = run(capsys, "reg", "codim2", sl2_file)
    assert code == 0 and report["verdicts"]["codim2"]["ok"]
    heis = tmp_path / "heis.json"
    jsonio.write_json(str(heis), HEISENBERG)
    code, report = run(capsys, "reg", "codim2", str(heis))
    assert code == 1
    assert report["witnesses"]["codim2"]["divisor"] == "x_z^2"


def test_reg_compl_and_bols(capsys, sl2_file, sl2_casimirs):
    code, report = run(capsys, "reg", "compl", sl2_file, sl2_casimirs,
                       "--xi", "1,0,0", "--eta", "0,0,1")
    assert code == 0
    v = report["verdicts"]["compl"]
    assert v["ok"] and v["required_rank"] == 2 and v["pairs_checked"] == 8
    assert all(rank == 2 for _, _, rank in v["pairs"])
    code, report = run(capsys, "reg", "bols", sl2_file, sl2_casimirs,
                       "--xi", "1,0,0")
    assert code == 0 and report["verdicts"]["bols"]["ok"]


def test_compl_ratios_respect_bound(capsys, sl2_file, sl2_casimirs):
    def ratio_heights(report):
        return {abs(Fraction(x)) for r1, r2, _ in report["verdicts"]["compl"]["pairs"]
                for x in r1 + r2}

    plane = ["--xi", "1,0,0", "--eta", "0,0,1"]
    code, wide = run(capsys, "reg", "compl", sl2_file, sl2_casimirs, *plane)
    assert code == 0 and max(ratio_heights(wide)) > 2
    code, narrow = run(capsys, "reg", "compl", sl2_file, sl2_casimirs, *plane,
                       "--bound", "2")
    assert code == 0 and max(ratio_heights(narrow)) <= 2
    code, piped = run(capsys, "pipeline", "run", sl2_file, "--classical",
                      "--bound", "2")
    assert code == 0 and max(ratio_heights(piped)) <= 2


@pytest.mark.parametrize("poly, degrees, message", [
    # C^2 is central but its degree list claims 2, which would make the
    # degree sum meet the bound
    ("square", [2], "do not match"),
    # x_e is not central; with a matching degree list the generator
    # check rejects it, with a wrong one the parser does
    ("x_e", [2], "do not match"),
    ("x_e", [1], "not a Casimir"),
])
@pytest.mark.parametrize("command", [["bols", "--xi", "1,2,3"],
                                     ["compl", "--xi", "1,0,0", "--eta", "0,0,1"]])
def test_reg_bols_and_compl_reject_unverified_casimirs(capsys, tmp_path, sl2_file,
                                                       poly, degrees, message, command):
    x = [MPoly.variable(3, i) for i in range(3)]
    cas = x[1] * x[1] + 4 * x[0] * x[2]
    gen = cas * cas if poly == "square" else x[0]
    path = tmp_path / "claimed.json"
    jsonio.write_json(str(path), {"nvars": 3, "generators": [jsonio.poly_to_json(gen)],
                                  "degrees": degrees})
    code = main(["reg", command[0], sl2_file, str(path), *command[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


def test_reg_point_falsification_exit(capsys, tmp_path, sl2_file):
    x = MPoly.variable(3, 0)
    bogus = tmp_path / "bogus.json"
    jsonio.write_json(str(bogus), {"nvars": 3,
                                   "generators": [jsonio.poly_to_json(x * x)],
                                   "degrees": [2]})
    # x_e^2 is not central: re-verifying the file refuses it before the
    # dual routes are compared, at a point where they would disagree
    # and at one where they would agree
    for xi in ("0,0,1", "1,1,1"):
        assert main(["reg", "point", sl2_file, "--xi", xi, "--casimirs", str(bogus)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a Casimir" in captured.err


def test_pencil_analyze_algebra_mode(capsys, sl2_file):
    code, report = run(capsys, "pencil", "analyze", sl2_file,
                       "--xi", "1,0,0", "--eta", "0,0,1")
    assert code == 0
    v = report["verdicts"]["pencil"]
    assert v["kind"] == "kronecker" and v["m"] == 2 and v["L_dim"] == 2
    assert report["subspaces"]["L"]["basis"] == [["1", "0", "0"], ["0", "0", "1"]]


def test_pencil_analyze_matrices_mode(capsys, tmp_path):
    A = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    B = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    path = tmp_path / "pencil.json"
    jsonio.write_json(str(path), {"A": [[str(x) for x in r] for r in A],
                                  "B": [[str(x) for x in r] for r in B]})
    code, report = run(capsys, "pencil", "analyze", "--matrices", str(path))
    assert code == 0
    v = report["verdicts"]["pencil"]
    assert v["kind"] == "jordan-mixed"
    assert v["eigenvalues"] == [["0", 2], ["1", 2]]
    assert v["char_poly"] == ["0", "0", "1", "-2", "1"]


@pytest.mark.parametrize("A, B, kind", [
    # a generic 5 x 5 pencil: Kronecker, L of dimension 3
    ([[0, 1, -2, 3, 1], [-1, 0, 4, -1, 2], [2, -4, 0, 5, -3], [-3, 1, -5, 0, 1],
      [-1, -2, 3, -1, 0]],
     [[0, 2, 1, -1, 3], [-2, 0, -3, 2, 1], [-1, 3, 0, 1, -2], [1, -2, -1, 0, 4],
      [-3, -1, 2, -4, 0]], "kronecker"),
    # a Jordan block at 3 with A halved: B - 6 A is the singular member
    ([[0, 0, Fraction(1, 2), 0], [0, 0, 0, Fraction(1, 2)], [Fraction(-1, 2), 0, 0, 0],
      [0, Fraction(-1, 2), 0, 0]],
     [[0, 0, 3, 1], [0, 0, 0, 3], [-3, 0, 0, 0], [-1, -3, 0, 0]], "jordan-mixed"),
])
def test_pencil_analyze_ignores_a_common_factor(capsys, tmp_path, A, B, kind):
    seen = []
    for c in (Fraction(1), Fraction(1, 7)):
        path = tmp_path / f"pencil_{c.denominator}.json"
        jsonio.write_json(str(path), {"A": [[str(c * x) for x in r] for r in A],
                                      "B": [[str(c * x) for x in r] for r in B]})
        code, report = run(capsys, "pencil", "analyze", "--matrices", str(path))
        assert code == 0
        assert report["verdicts"]["pencil"]["kind"] == kind
        seen.append((report["verdicts"], report["subspaces"]))
    assert seen[0] == seen[1]
    if kind == "jordan-mixed":
        assert seen[0][0]["pencil"]["eigenvalues"] == [["6", 4]]


@pytest.mark.parametrize("content, missing", [
    ({"A": [["0", "1"], ["-1", "0"]]}, "B"),
    ([[["0", "1"], ["-1", "0"]], [["0", "2"], ["-2", "0"]]], "A"),
])
def test_pencil_analyze_names_the_missing_matrix(capsys, tmp_path, content, missing):
    path = tmp_path / "m.json"
    jsonio.write_json(str(path), content)
    assert main(["pencil", "analyze", "--matrices", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}: pencil file must be an object with {missing!r}\n")


def test_a_json_boolean_is_not_a_rational(capsys, tmp_path):
    # true would read as the rational 1 and false as 0
    mats = tmp_path / "bool.json"
    mats.write_text(json.dumps({"A": [["0", True], ["-1", "0"]], "B": [["0", "2"], ["-2", "0"]]}))
    assert main(["pencil", "analyze", "--matrices", str(mats)]) == 2
    assert capsys.readouterr() == ("", f"error: {mats}: cannot interpret True as a rational\n")


def test_a_json_boolean_is_not_a_coefficient(capsys, tmp_path, sl2_file):
    f = poly_file(tmp_path, "f.json", MPoly.variable(3, 0))
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"nvars": 3, "terms": [{"coeff": True, "exps": [0, 0, 1]}]}))
    assert main(["poisson", "bracket", sl2_file, f, str(g)]) == 2
    assert capsys.readouterr() == ("", f"error: {g}: cannot interpret True as a rational\n")


def test_negative_dim_is_named_on_every_route(capsys, tmp_path):
    path = tmp_path / "neg.json"
    jsonio.write_json(str(path), {"dim": -1})
    message = "dim must be a nonnegative integer, not -1"
    for command in (["poisson", "index"], ["reg", "codim2"]):
        assert main([*command, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    code, report = run(capsys, "algebra", "validate", str(path))
    assert code == 1
    assert report["verdicts"]["validate"]["detail"] == message
    code, report = run(capsys, "pipeline", "run", str(path))
    assert code == 1
    assert report["failed_stage"] == "validate"
    assert report["verdicts"]["validate"] == {"ok": False, "error": message}


def test_pencil_analyze_requires_input(capsys):
    code, _ = run(capsys, "pencil", "analyze")
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("extra", [["SL2"], ["--xi", "1,0,0"], ["--eta", "0,0,1"],
                                   ["SL2", "--xi", "1,0,0", "--eta", "0,0,1"]])
def test_pencil_analyze_refuses_matrices_with_an_algebra_or_a_plane(capsys, tmp_path,
                                                                    sl2_file, extra):
    path = tmp_path / "pencil.json"
    jsonio.write_json(str(path), {"A": [["0", "1"], ["-1", "0"]], "B": [["0", "2"], ["-2", "0"]]})
    argv = [sl2_file if x == "SL2" else x for x in extra]
    assert main(["pencil", "analyze", *argv, "--matrices", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: choose either --matrices FILE or an algebra file with --xi and --eta\n")


def test_pipeline_sl3_classical(capsys, tmp_path):
    alg = tmp_path / "sl3.json"
    assert main(["algebra", "build", "sl", "3", "--out", str(alg)]) == 0
    out = tmp_path / "report.json"
    assert main(["pipeline", "run", str(alg), "--classical",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    report = jsonio.read_json(str(out))
    assert report["status"] == "pass"
    assert report["verdicts"]["build-family"]["members"] == 5
    assert report["verdicts"]["commutative"]["pairs_checked"] == 10
    assert report["verdicts"]["compl"]["required_rank"] == 5
    assert all(rank == 5 for _, _, rank in report["verdicts"]["compl"]["pairs"])
    assert report["verdicts"]["bols"]["ok"]
    assert report["verdicts"]["conclusions"]["maximal-transcendence-degree"] == "verified"
    # the report carries the Casimir set, shift build gives the family
    assert "family" not in report
    cas, fam_out = tmp_path / "cas.json", tmp_path / "family.json"
    jsonio.write_json(str(cas), report["casimirs"])
    xi = ",".join(report["verdicts"]["build-family"]["xi"])
    assert main(["shift", "build", str(alg), str(cas), f"--xi={xi}",
                 "--out", str(fam_out)]) == 0
    assert len(jsonio.read_json(str(fam_out))["members"]) == 5


def test_pipeline_sl4_commutes_by_the_shift_chain(coadjoint_reads, capsys, tmp_path):
    alg = tmp_path / "sl4.json"
    assert main(["algebra", "build", "sl", "4", "--out", str(alg)]) == 0
    capsys.readouterr()
    code, report = run(capsys, "pipeline", "run", str(alg), "--classical")
    assert code == 0
    assert report["verdicts"]["build-family"]["members"] == 9
    assert report["verdicts"]["commutative"] == {"ok": True, "pairs_checked": 36,
                                                 "method": "casimir-pencil"}
    assert "conclusions" not in report["witnesses"]
    # the witness search computes member actions as its walk reads them,
    # and the walk stops once the rows rule every witness out
    assert len(coadjoint_reads) == 1 and coadjoint_reads[0] <= 2


def test_classical_pipeline_verifies_on_the_loaded_table(capsys, tmp_path):
    # sl3 with basis vectors 0 and 3 swapped consistently and meta still
    # sl3: the generators built for sl3's own basis order are not
    # Casimirs of this table, so the casimirs stage must refuse them
    L = make_classical("sl", 3)
    swap = {0: 3, 3: 0}
    perm = [swap.get(i, i) for i in range(L.dim)]
    brackets = []
    for i, j, coeffs in L.pairs():
        sign = 1 if perm[i] < perm[j] else -1
        brackets.append({"i": min(perm[i], perm[j]), "j": max(perm[i], perm[j]),
                         "coeffs": {str(perm[k]): str(sign * c) for k, c in coeffs.items()}})
    alg = tmp_path / "sl3_swapped.json"
    alg.write_text(json.dumps({"dim": L.dim, "basis": [L.basis_names[p] for p in perm],
                               "brackets": brackets, "meta": dict(L.meta)}))
    code, report = run(capsys, "pipeline", "run", str(alg), "--classical")
    assert code == 1
    assert report["verdicts"]["validate"]["ok"]
    assert report["failed_stage"] == "casimirs"
    assert report["verdicts"]["casimirs"]["error"].startswith("not a Casimir")


@pytest.mark.parametrize("n, error", [
    (40, "meta names sl(40) of dimension 1599, but the table has dimension 8"),
    (2, "meta names sl(2) of dimension 3, but the table has dimension 8"),
    (None, "meta n must be an integer, not None"),
    (2.5, "meta n must be an integer, not 2.5")])
def test_classical_pipeline_checks_meta_n_against_the_table(capsys, tmp_path, n, error):
    # an sl3 file whose meta names another n: the stage must fail on n
    # before building sl(n)'s generators
    data = jsonio.algebra_to_json(make_classical("sl", 3))
    data["meta"]["n"] = n
    alg = tmp_path / "sl3_meta.json"
    jsonio.write_json(str(alg), data)
    code, report = run(capsys, "pipeline", "run", str(alg), "--classical")
    assert code == 1
    assert report["failed_stage"] == "casimirs"
    assert report["verdicts"]["casimirs"] == {"ok": False, "error": error}


def test_pipeline_vinberg_fails_at_codim2(capsys, tmp_path):
    alg = tmp_path / "vin.json"
    assert main(["algebra", "build", "vinberg", "1", "--out", str(alg)]) == 0
    code, report = run(capsys, "pipeline", "run", str(alg))
    assert code == 1
    assert report["status"] == "fail"
    assert report["failed_stage"] == "codim2"
    assert "x_v1" in report["witnesses"]["codim2"]["divisor"]
    assert report["verdicts"]["casimirs"] == {"skipped": "stage 'codim2' failed"}


def test_pipeline_contraction_attaches_witness(capsys, tmp_path):
    alg = tmp_path / "con.json"
    assert main(["algebra", "build", "contraction-sl2-so2",
                 "--out", str(alg)]) == 0
    x = [MPoly.variable(3, i) for i in range(3)]
    cas = tmp_path / "cas.json"
    jsonio.write_json(str(cas), {"nvars": 3, "generators": [
        jsonio.poly_to_json(x[1] * x[1] + x[2] * x[2])]})
    code, report = run(capsys, "pipeline", "run", str(alg),
                       "--casimirs", str(cas), "--xi", "0,1,0")
    assert code == 0
    assert report["status"] == "pass"
    assert report["witnesses"]["conclusions"]["pretty"] == "x_r"
    assert "refuted" in report["verdicts"]["conclusions"]["inclusion-maximality"]


def test_pipeline_with_a_non_homogeneous_casimir_skips_the_witness_search(
        capsys, tmp_path, sl2_file):
    # C + 1 is central and verifies, but its shift family is not graded,
    # so the linear witness search says nothing about maximality
    x = [MPoly.variable(3, i) for i in range(3)]
    cas = tmp_path / "cas1.json"
    jsonio.write_json(str(cas), {"nvars": 3, "generators": [
        jsonio.poly_to_json(x[1] * x[1] + 4 * x[0] * x[2] + MPoly.one(3))]})
    code, report = run(capsys, "pipeline", "run", sl2_file, "--casimirs", str(cas))
    assert code == 0 and report["status"] == "pass"
    assert "failed_stage" not in report and report["witnesses"] == {}
    assert report["verdicts"]["conclusions"]["inclusion-maximality"] == (
        "not machine-checked (the family has non-homogeneous members, "
        "so the linear witness search does not apply)")


def test_pipeline_rejects_noncentral_casimir_file(capsys, tmp_path, sl2_file,
                                                  sl2_casimirs):
    x = MPoly.variable(3, 0)
    bad = tmp_path / "bad.json"
    jsonio.write_json(str(bad), {"nvars": 3,
                                 "generators": [jsonio.poly_to_json(x)]})
    code, report = run(capsys, "pipeline", "run", sl2_file,
                       "--casimirs", str(bad))
    assert code == 1
    assert report["failed_stage"] == "casimirs"
    assert "not a Casimir" in report["verdicts"]["casimirs"]["error"]


def test_pipeline_deterministic_reports(capsys, tmp_path, sl2_file,
                                        sl2_casimirs):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["pipeline", "run", sl2_file, "--casimirs", sl2_casimirs,
                     "--out", str(out), "--seed", "7"]) == 0
        outs.append(jsonio.read_json(str(out)))
    capsys.readouterr()
    a, b = outs
    a.pop("timings"), b.pop("timings")
    # byte-identical verdict sections once timings are dropped
    assert jsonio.dumps(a) == jsonio.dumps(b)
    assert a["seed"] == 7


def test_pipeline_singular_xi_fails_cleanly(capsys, sl2_file, sl2_casimirs):
    code, report = run(capsys, "pipeline", "run", sl2_file,
                       "--casimirs", sl2_casimirs, "--xi", "0,0,0")
    assert code == 1
    assert report["failed_stage"] == "build-family"
    assert "singular" in report["verdicts"]["build-family"]["error"]


def test_pipeline_refuses_a_wrong_length_xi_before_any_stage(capsys, sl2_file):
    code = main(["pipeline", "run", sl2_file, "--classical", "--xi", "1,0"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == "error: --xi has 2 entries, expected 3\n"


STAGES = ["validate", "estimate-index", "codim2", "casimirs", "degree-profile",
          "build-family", "commutative", "regular-plane", "compl", "bols", "conclusions"]


def test_pipeline_times_the_stages_that_ran_and_names_a_falsified_one(
        capsys, tmp_path, sl2_file, sl2_casimirs):
    vin = tmp_path / "vin.json"
    assert main(["algebra", "build", "vinberg", "1", "--out", str(vin)]) == 0
    for argv, failed in (([sl2_file, "--casimirs", sl2_casimirs], None),
                         ([sl2_file, "--casimirs", sl2_casimirs, "--xi", "0,0,0"],
                          "build-family"),
                         ([str(vin)], "codim2")):
        code, report = run(capsys, "pipeline", "run", *argv)
        assert code == (1 if failed else 0)
        assert report["stage_order"] == STAGES
        assert report.get("failed_stage") == failed
        ran = STAGES[:STAGES.index(failed) + 1] if failed else STAGES
        assert set(report["timings"]) == {*ran, "total"}
        assert all(report["verdicts"][name] == {"skipped": f"stage '{failed}' failed"}
                   for name in STAGES[len(ran):])
    # one sample at height 1 lands where z = 0 and reads the index as 3;
    # codim2 then meets a Kirillov rank of 2 and raises
    heis = tmp_path / "heis.json"
    heis.write_text(json.dumps(HEISENBERG))
    code, report = run(capsys, "pipeline", "run", str(heis), "--trials", "1", "--bound", "1")
    assert code == 3
    assert report["status"] == "falsified"
    assert report["stage"] == "codim2"
    assert report["algebra"] == jsonio.algebra_to_json(jsonio.algebra_from_json(HEISENBERG))


@pytest.mark.parametrize("argv", [["reg", "point", "SL2", "--xi=1,,0,0"],
                                  ["reg", "point", "SL2", "--xi=1,0,0,"],
                                  ["reg", "point", "SL2", "--xi=,1,0,0"],
                                  ["pipeline", "run", "SL2", "--classical", "--xi=1,,0,0"],
                                  ["pipeline", "run", "SL2", "--classical", "--xi="]])
def test_an_empty_xi_field_is_a_usage_error(capsys, sl2_file, argv):
    argv = [sl2_file if a == "SL2" else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith(f"error: cannot parse --xi {argv[-1][5:]!r}")


@pytest.mark.parametrize("argv", [["reg", "point", "SL2", "--xi", "-1,2,1"],
                                  ["reg", "plane", "SL2", "--xi", "-1,2,1", "--eta", "-3,0,1"],
                                  ["pencil", "analyze", "SL2", "--eta", "-3,0,1",
                                   "--xi", "-1/2,2,1"],
                                  ["pipeline", "run", "SL2", "--classical", "--xi", "-1,2,1"]])
def test_a_negative_point_after_its_option_reads_as_the_glued_form(capsys, sl2_file, argv):
    # argparse takes "-1,2,1" for an option; after --xi or --eta it is the value
    argv = [sl2_file if a == "SL2" else a for a in argv]
    glued = []
    for a in argv:
        if glued and glued[-1] in ("--xi", "--eta"):
            glued[-1] += "=" + a
        else:
            glued.append(a)
    reports = []
    for form in (argv, glued):
        code, report = run(capsys, *form)
        assert code == 0
        report.pop("timings")
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", [["poisson", "bracket", "SL2", "F", "BAD"],
                                     ["poisson", "casimir-check", "SL2", "BAD"]])
def test_a_malformed_polynomial_file_is_named(capsys, tmp_path, sl2_file, command):
    x = MPoly.variable(3, 0)
    f, bad = poly_file(tmp_path, "f.json", x), str(tmp_path / "bad.json")
    jsonio.write_json(bad, {"terms": []})
    argv = [{"SL2": sl2_file, "F": f, "BAD": bad}.get(a, a) for a in command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == f"error: {bad}: polynomial must be an object with 'nvars'\n"


def test_a_number_literal_json_refuses_is_reported_with_its_file(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"0": 1'
                    + "0" * 5000 + "}}]}")
    for command in (["poisson", "index"], ["algebra", "validate"], ["pipeline", "run"]):
        code = main([*command, str(path)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err.startswith(f"error: {path}: Exceeds the limit (4300 digits)")


def test_malformed_containers_are_reported_not_raised(capsys, tmp_path, sl2_file):
    # a list where an object belongs: exit 2 with an error line where the
    # input is a precondition, a failed verdict where checking it is the job
    # a missing key or a wrong inner type is reported the same way
    bad_algebras = ({"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": [1]}]},
                    {"dim": 2, "brackets": [{"j": 1, "coeffs": {}}]},
                    {"dim": 2, "brackets": [{"i": [0], "j": 1, "coeffs": {}}]},
                    {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"0": [1]}}]},
                    {"dim": 2, "brackets": {"i": 0}},
                    {"dim": [2]},
                    {"dim": 3.9, "brackets": [{"i": 0, "j": 1.5, "coeffs": {"2": "1"}}]})
    bad_casimirs = ([],
                    {"nvars": 3, "generators": [{"nvars": 3, "terms": [[1]]}]},
                    {"generators": []},
                    {"nvars": 3, "generators": [{"nvars": 3, "terms": [{"exps": [2, 0, 0]}]}]},
                    {"nvars": 3, "generators": [{"nvars": 3, "terms": {"exps": [1]}}]},
                    {"nvars": 3, "generators": [], "degrees": 2},
                    {"nvars": 3, "generators": [{"nvars": 3, "terms": [
                        {"exps": [True, 0, 1], "coeff": "1"}]}]})
    for k, data in enumerate(bad_algebras + bad_casimirs):
        (tmp_path / f"bad{k}.json").write_text(json.dumps(data))
    algs = [str(tmp_path / f"bad{k}.json") for k in range(len(bad_algebras))]
    cass = [str(tmp_path / f"bad{k}.json")
            for k in range(len(bad_algebras), len(bad_algebras) + len(bad_casimirs))]
    for argv in ([["poisson", "index", alg] for alg in algs]
                 + [["reg", "compl", sl2_file, cas, "--xi=1,0,0", "--eta=0,0,1"]
                    for cas in cass]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
    for alg in algs:
        code, report = run(capsys, "algebra", "validate", alg)
        assert code == 1
        assert report["verdicts"]["validate"]["kind"] == "table"
    for argv, stage in ([(["pipeline", "run", alg], "validate") for alg in algs]
                        + [(["pipeline", "run", sl2_file, "--casimirs", cas], "casimirs")
                           for cas in cass]):
        code, report = run(capsys, *argv)
        assert code == 1
        assert report["failed_stage"] == stage


def test_algebra_validate_names_the_first_fault(capsys, tmp_path):
    # coefficients are read before indices are checked; then entries in order
    cases = [({"dim": 2, "brackets": [{"i": 0, "j": 5, "coeffs": {"0": "1"}},
                                      {"i": 0, "j": 1, "coeffs": {"0": "1/0"}}]},
              "table", "cannot interpret '1/0' as a rational"),
             ({"dim": 2, "brackets": [{"i": 1, "j": 1, "coeffs": {"0": "1/2"}},
                                      {"i": 0, "j": 4, "coeffs": {"0": "1"}}]},
              "diagonal", "[b1, b1] must vanish"),
             ({"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"0": "1/2"}},
                                      {"i": 1, "j": 0, "coeffs": {"0": "1/2"}},
                                      {"i": 0, "j": 1, "coeffs": {"9": "1"}}]},
              "antisymmetry", "entries for (0,1) and its flip disagree"),
             ({"dim": 2, "basis": ["a", "a"], "brackets": [{"i": 0, "j": 1, "coeffs": {"0": "2/4"}}]},
              "table", "basis names must be unique")]
    for k, (data, kind, detail) in enumerate(cases):
        path = tmp_path / f"alg{k}.json"
        path.write_text(json.dumps(data))
        code, report = run(capsys, "algebra", "validate", str(path))
        assert code == 1
        assert report["verdicts"]["validate"]["kind"] == kind
        assert report["verdicts"]["validate"]["detail"] == detail


def test_dim_zero_algebra_exits_instead_of_hanging(tmp_path):
    # a point of Q^0 is never nonzero: sampling one used to loop forever
    path = tmp_path / "dim0.json"
    path.write_text(json.dumps({"dim": 0, "basis": [], "brackets": []}))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(argshift.__file__)))

    def cli_run(*argv):
        return subprocess.run([sys.executable, "-m", "argshift.cli", *argv, str(path)],
                              capture_output=True, text=True, env=env, timeout=20)

    index = cli_run("poisson", "index")
    assert index.returncode == 2
    assert "no nonzero point in dimension 0" in index.stderr
    pipeline = cli_run("pipeline", "run")
    assert pipeline.returncode == 1
    report = json.loads(pipeline.stdout)
    assert report["failed_stage"] == "estimate-index"
    assert "dimension 0" in report["verdicts"]["estimate-index"]["error"]


def test_a_huge_dim_with_a_short_basis_is_refused_at_once(tmp_path):
    # a 50-byte file: building 10^9 default names for it would take
    # minutes and tens of GB, so the child runs under a 1 GiB address
    # space and fails fast if it tries
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 10 ** 9, "basis": ["a"], "brackets": []}))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(argshift.__file__)))

    def cli_run(*argv):
        return subprocess.run([sys.executable, "-m", "argshift.cli", *argv, str(path)],
                              capture_output=True, text=True, env=env, timeout=20,
                              preexec_fn=lambda: resource.setrlimit(
                                  resource.RLIMIT_AS, (2 ** 30, 2 ** 30)))

    message = "basis name count does not match dimension"
    index = cli_run("poisson", "index")
    assert index.returncode == 2
    assert index.stderr == f"error: {path}: {message}\n"
    validate = cli_run("algebra", "validate")
    assert validate.returncode == 1
    assert json.loads(validate.stdout)["witnesses"]["validate"] == message



def test_huge_exponent_is_refused_instead_of_hanging(tmp_path):
    # 11 bytes whose numerator has 10^8 digits: building it took minutes,
    # and no report could have printed it
    huge = "1e100000000"
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"0": huge}}]}))
    sl2 = tmp_path / "sl2.json"
    assert main(["algebra", "build", "sl", "2", "--out", str(sl2)]) == 0
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(argshift.__file__)))
    for argv in (["poisson", "index", str(alg)],
                 ["pipeline", "run", str(sl2), f"--xi={huge},0,0"],
                 ["algebra", "build", "vinberg", "1", huge]):
        proc = subprocess.run([sys.executable, "-m", "argshift.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert f"'{huge}' as a rational: it would need more than 4300 digits" in proc.stderr


def test_plane_with_a_large_constant_term_does_not_hang(tmp_path):
    # the singular direction's polynomial has constant term about 10^18:
    # a rational root search by trial division never finished here
    path = tmp_path / "v12.json"
    assert main(["algebra", "build", "vinberg", "1", "2", "--out", str(path)]) == 0
    q = 1000000007
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(argshift.__file__)))
    proc = subprocess.run([sys.executable, "-m", "argshift.cli", "reg", "plane", str(path),
                           "--xi=1,3,5", f"--eta=0,{3 * q},{5 * q}"],
                          capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["verdicts"]["plane"]["ok"] is False
    assert report["witnesses"]["plane"]["singular_directions"] == [["1", f"-1/{q}"]]
    assert report["verdicts"]["plane"]["gcd"] == \
        "a^2 + 2000000014*a*b + 1000000014000000049*b^2"


# --- one regular-plane search per pipeline -------------------------------------

@pytest.fixture
def plane_pipelines(tmp_path):
    """name -> (algebra file, pipeline arguments): sl3 with its classical
    Casimirs and takiff(sl2, 1) with its lifted Casimirs."""
    sl3, tk, tk_cas = (str(tmp_path / f) for f in ("sl3.json", "takiff.json", "tk-cas.json"))
    assert main(["algebra", "build", "sl", "3", "--out", sl3]) == 0
    takiff = make_takiff(SL2, 1)
    jsonio.write_json(tk, jsonio.algebra_to_json(takiff))
    [f] = classical_casimirs("sl", 2).generators
    jsonio.write_json(tk_cas, jsonio.casimirs_to_json(
        CasimirSet.verified(takiff, takiff_lift(SL2, f, 1))))
    return {"sl3": (sl3, ["--classical"]), "takiff_sl2_1": (tk, ["--casimirs", tk_cas])}


def _loaded(path: str) -> LieAlgebraData:
    return jsonio.algebra_from_json(jsonio.read_json(path))


def _as_json(obj: dict) -> dict:
    return json.loads(jsonio.dumps(obj))


@pytest.mark.parametrize("name", ["sl3", "takiff_sl2_1"])
def test_a_passing_pipeline_certifies_one_plane(monkeypatch, capsys, plane_pipelines, name):
    path, extra = plane_pipelines[name]
    L = _loaded(path)
    want = find_regular_plane(L, estimate_index(L, seed=3), seed=3, attempts=20)
    calls = []
    certify = regcert.certify_regular_plane

    def counted(*args):
        calls.append(args)
        return certify(*args)
    monkeypatch.setattr(regcert, "certify_regular_plane", counted)
    code, report = run(capsys, "pipeline", "run", path, *extra, "--seed", "3")
    assert code == 0 and len(calls) == 1
    verdicts = report["verdicts"]
    assert verdicts["regular-plane"] == _as_json(want.as_dict())
    assert verdicts["codim2"]["method"] == "plane"
    assert verdicts["codim2"]["planes_tried"] == want.attempts_used


@pytest.mark.parametrize("planes, attempts", [("1", "20"), ("3", "1")])
def test_a_failing_first_plane_is_drawn_once_for_both_stages(
        monkeypatch, capsys, plane_pipelines, planes, attempts):
    path, extra = plane_pipelines["sl3"]
    L = _loaded(path)
    prof = estimate_index(L)
    first = find_regular_plane(L, prof, attempts=1)
    assert first.found
    forced = PlaneCertificate(False, 6, 0, all_zero=True, witness_pretty="forced")
    certify = regcert.certify_regular_plane

    def failing_first(L, profile, xi, eta):
        if (tuple(xi), tuple(eta)) == (first.spec.xi, first.spec.eta):
            return forced
        return certify(L, profile, xi, eta)
    monkeypatch.setattr(regcert, "certify_regular_plane", failing_first)
    code, report = run(capsys, "pipeline", "run", path, *extra,
                       "--planes", planes, "--attempts", attempts)
    codim2, plane = report["verdicts"]["codim2"], report["verdicts"]["regular-plane"]
    if planes == "1":
        # codim-2 falls back to the Pfaffians; the stage searches on
        assert code == 0
        assert (codim2["ok"], codim2["method"], codim2["planes_tried"]) == (True, "symbolic", 1)
        assert plane["found"] and plane["attempts_used"] == 2
        assert plane == _as_json(find_regular_plane(L, prof, attempts=20).as_dict())
    else:
        # codim-2's plane came at draw 2, past the stage's one attempt
        assert code == 1 and report["failed_stage"] == "regular-plane"
        assert (codim2["method"], codim2["planes_tried"]) == ("plane", 2)
        assert plane == {"found": False, "attempts_used": 1, "spec": None,
                         "certificate": _as_json(forced.as_dict())}


def test_codim2_planes_tried_counts_dependent_draws(capsys, sl2_file):
    # at seed 2 and bound 1 the first drawn sl2 plane is spanned by
    # dependent points, and the second certifies
    code, report = run(capsys, "reg", "codim2", sl2_file, "--seed", "2", "--bound", "1")
    assert code == 0
    assert report["verdicts"]["codim2"] == {
        "m": 2, "method": "plane", "ok": True, "pfaffians_checked": 0,
        "planes_tried": 2, "seed": 2, "witness": None}


@pytest.fixture
def sl3_classical(tmp_path):
    alg, cas = tmp_path / "sl3.json", tmp_path / "sl3_cas.json"
    assert main(["algebra", "build", "sl", "3", "--out", str(alg)]) == 0
    jsonio.write_json(str(cas), jsonio.casimirs_to_json(classical_casimirs("sl", 3)))
    return str(alg), str(cas)


def test_reg_bols_draws_its_codim2_certificate_at_the_bound(capsys, sl3_classical):
    # at seed 2 and bound 1 the first sl3 plane drawn does not certify
    # and the second does; at the default bound the first one does
    alg, cas = sl3_classical
    sampled = ["--seed", "2", "--bound", "1"]
    code, codim2 = run(capsys, "reg", "codim2", alg, *sampled)
    assert code == 0 and codim2["verdicts"]["codim2"]["planes_tried"] == 2
    code, bols = run(capsys, "reg", "bols", alg, cas, "--xi", "1,0,0,0,1,0,0,0", *sampled)
    assert code == 0
    assert bols["verdicts"]["bols"]["codim2"] == codim2["verdicts"]["codim2"]


@pytest.mark.parametrize("bound", [1, 2])
def test_classical_pipeline_draws_its_independence_witness_within_the_bound(
        capsys, sl3_classical, bound):
    alg, _ = sl3_classical
    code, report = run(capsys, "pipeline", "run", alg, "--classical", "--bound", str(bound))
    assert code == 0
    witness = [Fraction(x) for x in report["casimirs"]["independence_witness"]]
    assert max(map(abs, witness)) <= bound


SL3_REGULAR = "1,0,0,0,1,0,0,0"


def test_reg_commands_sample_the_index_up_to_the_ceiling_of_their_casimirs(
        capsys, index_samples, sl3_classical):
    # sl3 has dim 8 and two independent Casimirs: the first sample of
    # rank 6 ends the estimate; without them the ceiling is 8, never reached
    alg, cas = sl3_classical
    for argv in (["point", alg, "--xi", SL3_REGULAR, "--casimirs", cas],
                 ["bols", alg, cas, "--xi", SL3_REGULAR],
                 ["compl", alg, cas, "--xi", SL3_REGULAR, "--eta", "0,1,0,0,0,0,1,0"]):
        index_samples.clear()
        code, report = run(capsys, "reg", *argv)
        assert code == 0 and index_samples == [0]
        assert report["verdicts"]["profile"] == estimate_index_all_trials(_loaded(alg)).as_dict()
    index_samples.clear()
    code, report = run(capsys, "reg", "point", alg, "--xi", SL3_REGULAR)
    assert code == 0 and index_samples == list(range(24))
    assert "kostant" not in report["verdicts"]


def test_classical_pipeline_samples_the_index_once(capsys, index_samples, sl3_classical):
    alg, _ = sl3_classical
    code, report = run(capsys, "pipeline", "run", alg, "--classical")
    assert code == 0 and index_samples == [0]
    assert report["verdicts"]["estimate-index"] == estimate_index_all_trials(
        _loaded(alg)).as_dict()


def test_codim2_on_a_centralizer_samples_every_trial(capsys, index_samples, tmp_path):
    alg = tmp_path / "z_sl5.json"
    jsonio.write_json(str(alg), jsonio.algebra_to_json(make_centralizer_sl(5, [2, 2, 1])))
    code, report = run(capsys, "reg", "codim2", str(alg))
    assert code == 0 and index_samples == list(range(24))
    assert report["verdicts"]["profile"]["ind"] == 4


@pytest.mark.parametrize("casimirs", ["noncentral", "meta"])
def test_pipeline_casimirs_that_fail_certify_no_ceiling_and_fail_at_their_stage(
        capsys, index_samples, sl3_classical, tmp_path, casimirs):
    # a Casimir file with a non-Casimir, or --classical on a table whose
    # meta names another n: the Casimirs are built before estimate-index,
    # and their error is raised at the casimirs stage, as it was before
    alg, _ = sl3_classical
    if casimirs == "noncentral":
        gens = [*classical_casimirs("sl", 3).generators, MPoly.variable(8, 0)]
        bad = tmp_path / "bad.json"
        jsonio.write_json(str(bad), {"nvars": 8, "generators": [
            jsonio.poly_to_json(p) for p in gens]})
        argv, entry = [alg, "--casimirs", str(bad)], {"path": "bad.json"}
        error = "not a Casimir: bracket with x_"
    else:
        data = jsonio.algebra_to_json(make_classical("sl", 3))
        data["meta"]["n"] = 2
        alg = str(tmp_path / "sl3_meta.json")
        jsonio.write_json(alg, data)
        argv, entry = [alg, "--classical"], {"derived": "classical"}
        error = "meta names sl(2) of dimension 3, but the table has dimension 8"
    code, report = run(capsys, "pipeline", "run", *argv)
    assert code == 1 and index_samples == list(range(24))
    assert report["failed_stage"] == "casimirs"
    verdicts = report["verdicts"]
    assert verdicts["estimate-index"] == estimate_index_all_trials(_loaded(alg)).as_dict()
    assert verdicts["codim2"]["ok"]
    assert verdicts["casimirs"]["ok"] is False
    assert verdicts["casimirs"]["error"].startswith(error)
    assert all(verdicts[name] == {"skipped": "stage 'casimirs' failed"}
               for name in STAGES[STAGES.index("casimirs") + 1:])
    assert entry.items() <= report["inputs"]["casimirs"].items()
    assert "casimirs" not in report


def test_pipeline_times_the_casimirs_at_their_own_stage(capsys, monkeypatch, sl2_file):
    # the Casimirs are built during the estimate-index step, and their
    # time is reported under casimirs, not estimate-index
    polys = cli.classical_casimir_polys

    def slow(*args):
        time.sleep(0.2)
        return polys(*args)

    monkeypatch.setattr(cli, "classical_casimir_polys", slow)
    code, report = run(capsys, "pipeline", "run", sl2_file, "--classical")
    assert code == 0
    assert report["timings"]["casimirs"] >= 0.2 > report["timings"]["estimate-index"]


def test_a_zero_denominator_in_a_point_is_a_parse_error(capsys, sl2_file):
    assert main(["reg", "point", sl2_file, "--xi", "1/0,0,0"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == ("error: cannot parse --xi '1/0,0,0': "
                            "cannot interpret '1/0' as a rational\n")


def test_classical_pipeline_names_the_algebra_by_meta_n_read_as_an_int(capsys, tmp_path):
    data = jsonio.algebra_to_json(make_classical("sl", 2))
    data["meta"]["n"] = " 2"
    alg = tmp_path / "sl2_meta.json"
    jsonio.write_json(str(alg), data)
    code, report = run(capsys, "pipeline", "run", str(alg), "--classical")
    assert code == 0
    assert report["inputs"]["casimirs"] == {"derived": "classical sl(2)"}
