"""Pinned `pencil analyze`, `reg plane` and `pipeline run` reports.

The reports below, without their `timings`, were written by an earlier
version of the program and are kept in `golden/pencil_reports.json` and
`golden/pipeline_reports.json`.  Any change to the pencil analysis or
to the subspaces behind it must leave them byte-identical: regular
planes on sl4 and takiff(sl3, 1), regular planes on sl5 and takiff(sl3,
2) (dim 24, where the canonical rows of the kernel sum pass 100 bits),
the subregular plane of sl3 (a pencil
with Jordan blocks), a generic 9 x 9 pencil (Kronecker type), a 4 x 4
Jordan block at 2 under an integer congruence, a 3 x 3 Kronecker block
beside a 4 x 4 Jordan block at -1/2 under a rational congruence (so the
pencil has denominators and its Ltilde echelon rows are not unit
vectors), and four pipelines: the
sl2/so2 contraction with Casimir x_p^2 + x_r^2, whose `conclusions`
witness x_r comes from the linear commutant and the member span, gl3
with its classical Casimirs, and two that fail and skip the stages
after: vinberg(1) at `codim2`, and sl2 with its Casimir file at the
singular direction 0 at `build-family`.

`golden/poly_reports.json` pins the polynomial output the reports
above leave out: the sl3 shift family at a direction with denominators,
the bracket of two sl3 polynomials with fractional and negative
coefficients, a failing Casimir check with its witness, and the
codim-2 witness divisor of vinberg(1).

A pipeline report carries its verified Casimir set as a `--casimirs`
file, not the shift family.  `golden/family_reports.json` pins `shift
build` on the two passing pipelines' reported Casimir sets at the
direction each report names: the family those pipelines verify, with
each member's pretty form.  `pipeline run --casimirs` on the same file
and direction gives the same verdicts.  The same file pins `shift
certify` on three generator sets: the classical Casimirs of sl3 at a
fixed direction, which pass; and x_e, x_h on sl2 and the classical
Casimirs of gl3 with x_0 added to the first, which are no Casimirs and
whose failing pairs the report lists.  Every passing pinned pipeline's
family, rebuilt from its report's `casimirs` and `build-family` xi,
passes the argument-shift chain of `oracles.shift_chain_holds`: the
fact its `casimir-pencil` verdict derives from the Casimir check.

`golden/regcert_reports.json` pins the plane-certificate route of the
nonreductive algebras: `reg codim2` on the sl4 and sl5 nilpotent
centralizers z_sl4 [2,1,1], z_sl5 [3,2], [2,2,1] and [3,1,1], and `reg
plane` on takiff(sl2, 2) at a fixed regular plane; and `reg codim2` on
sl5, whose plane certificate runs on a pencil of dim 24.

`golden/build_digests.json` pins, as sha256, the bytes of matrix-built
algebras that no report above covers: `algebra build` of so3, so4, so5,
gl2, gl4 and sl5, and the files of the centralizers z_sl3 [2,1], z_sl4
[2,2] and [3,1] and z_sl6 [3,2,1] from `liealg.make_centralizer_sl`.  Their
structure constants come from one integer solve on the flattened
matrices cleared of their common denominator, and the centralizers'
bases from the canonical kernel rows of `exactlin.annihilator`, each
over its pivot entry.  It also pins builders
whose tables carry denominators: takiff(vinberg(1/2, 2/3, 3), 1), sl2
acting on k^2 through the standard matrices and through their
conjugate with a 1/2 entry, and the Z/2 contraction of the sl2/so2
splitting table with every constant divided by 3.

`golden/fraction_reports.json` pins algebras whose structure constants
have denominators: the file of vinberg(1/2, 2/3), a bracket, a pencil
analysis and the codim-2 witness on such tables, and a table with
[a, c] = b/2 that fails Jacobi by a fractional coefficient.

`golden/sample_reports.json` pins the commands that sample points on
a plane or at a point given by the user: `reg compl` on sl3 at a plane
whose xi has denominator 2 and whose eta has denominator 3, `reg
compl` on takiff(sl2, 1) at an integer plane, `reg point --casimirs`
and `reg bols` on sl3 at that xi.

`golden/seed_reports.json` pins the sampled plane searches away from
the default seed: `reg codim2` and `pipeline run` at seeds 1 and 2 on
sl3 and gl3 with `--classical` and on takiff(sl2, 1) with its lifted
Casimirs.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from argshift import jsonio
from argshift.cli import main
from argshift.exactlin import MatQ, rat
from argshift.liealg import (LieAlgebraData, make_centralizer_sl, make_classical,
                             make_semidirect, make_sl2_so2_contraction, make_takiff,
                             make_vinberg, make_z2_contraction)
from argshift.mfshift import build_family
from argshift.mpoly import MPoly
from argshift.poisson import CasimirSet, classical_casimirs, takiff_lift
from oracles import shift_chain_holds

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "pencil_reports.json")
PIPELINE_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "pipeline_reports.json")
POLY_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "poly_reports.json")
FRACTION_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "fraction_reports.json")
FAMILY_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "family_reports.json")
REGCERT_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "regcert_reports.json")
BUILD_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "build_digests.json")
SAMPLE_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "sample_reports.json")
SEED_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "seed_reports.json")

# a point pair in dim 24: xi, then eta, drawn as randint(-9, 9) per
# coordinate from random.Random(7)
SEEDED_XI = "1,-5,3,-8,-7,8,-6,2,9,-8,7,-3,-8,-7,4,4,-7,-2,-7,8,4,-8,9,-6"
SEEDED_ETA = "-2,9,-8,9,9,3,-8,-2,-8,8,-5,0,4,-5,8,-6,9,0,8,-4,-6,9,9,-3"

# algebra build arguments, xi, eta
PLANES = {
    "sl4-plane": (["sl", "4"], "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15",
                  "3,-1,4,1,-5,9,2,-6,5,3,-5,8,9,7,-9"),
    "takiff-sl3-1-plane": (["takiff", "sl", "3", "1"],
                           "2,-1,3,0,1,4,-2,1,1,0,-3,2,5,1,-1,2",
                           "1,3,-2,4,0,-1,2,2,-3,1,4,0,1,-2,3,1"),
    "sl3-subregular-plane": (["sl", "3"], "0,0,0,0,3,0,0,0", "1,0,0,0,0,0,0,1"),
    "sl5-plane": (["sl", "5"], SEEDED_XI, SEEDED_ETA),
    "takiff-sl3-2-plane": (["takiff", "sl", "3", "2"], SEEDED_XI, SEEDED_ETA),
}


def _skew(entry, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = entry(i, j)
            rows[j][i] = -rows[i][j]
    return rows


def _congruent(M, P):
    n = len(M)
    return [[sum(P[k][i] * M[k][l] * P[l][j] for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)]


def _block_diag(M, N):
    m, n = len(M), len(N)
    return ([list(row) + [0] * n for row in M]
            + [[0] * m + list(row) for row in N])


JORDAN_P = [[1, 2, 0, 1], [0, 1, -1, 0], [0, 0, 1, 3], [1, 2, 1, 2]]
# a 3 x 3 Kronecker block (e1^e2, e2^e3) beside a 2 x 2 Jordan block at -1/2
MIXED_A = _block_diag([[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
                      [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
MIXED_B = _block_diag([[0, 0, 0], [0, 0, 1], [0, -1, 0]],
                      [[0, 0, Fraction(-1, 2), 1], [0, 0, 0, Fraction(-1, 2)],
                       [Fraction(1, 2), 0, 0, 0], [-1, Fraction(1, 2), 0, 0]])
MIXED_P = [[Fraction(x) for x in row.split()] for row in (
    "1/2 0 2/3 2 0 2/3 3/4", "-1 0 -1 2/3 2/3 2 3/4", "-1 2 0 1/2 1/2 3/4 -5/2",
    "2/3 2 -1/3 0 0 3/4 1/2", "3/4 -1/3 1 0 3/4 0 2", "-5/2 0 1/2 0 2 3/4 3/4",
    "2/3 0 2 -5/2 3/4 1/2 1/2")]
MATRICES = {
    "kronecker-9": (_skew(lambda i, j: (3 * i + 5 * j * j + 7) % 11 - 5, 9),
                    _skew(lambda i, j: (2 * i * i + 7 * j + 1) % 13 - 6, 9)),
    "jordan-4": (_congruent([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
                            JORDAN_P),
                 _congruent([[0, 0, 2, 1], [0, 0, 0, 2], [-2, 0, 0, 0], [-1, -2, 0, 0]],
                            JORDAN_P)),
    "jordan-mixed-7-fractional": (_congruent(MIXED_A, MIXED_P), _congruent(MIXED_B, MIXED_P)),
}


def _run(argv):
    with redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    report = json.loads(out.getvalue())
    report.pop("timings")
    return {"exit": code, "report": report}


def golden_reports(tmp_path) -> dict:
    """Every pinned case's exit code and report without timings."""
    out = {}
    for name, (build, xi, eta) in PLANES.items():
        path = str(tmp_path / f"{name}.json")
        assert main(["algebra", "build", *build, "--out", path]) == 0
        for command in (["pencil", "analyze"], ["reg", "plane"]):
            out[f"{' '.join(command)} {name}"] = _run(
                [*command, path, f"--xi={xi}", f"--eta={eta}"])
    for name, (A, B) in MATRICES.items():
        path = str(tmp_path / f"{name}.json")
        jsonio.write_json(path, {"A": [[str(x) for x in r] for r in A],
                                 "B": [[str(x) for x in r] for r in B]})
        out[f"pencil analyze {name}"] = _run(
            ["pencil", "analyze", "--matrices", path])
    return out


def pipeline_reports(tmp_path) -> dict:
    """Every pinned pipeline's exit code and report without timings."""
    con, gl3, cas, vin, sl2, sl2_cas = (str(tmp_path / f) for f in (
        "contraction.json", "gl3.json", "cas.json", "vinberg.json", "sl2.json", "sl2_cas.json"))
    assert main(["algebra", "build", "contraction-sl2-so2", "--out", con]) == 0
    assert main(["algebra", "build", "gl", "3", "--out", gl3]) == 0
    assert main(["algebra", "build", "vinberg", "1", "--out", vin]) == 0
    assert main(["algebra", "build", "sl", "2", "--out", sl2]) == 0
    x_p, x_r = MPoly.variable(3, 1), MPoly.variable(3, 2)
    jsonio.write_json(cas, {"nvars": 3, "generators": [jsonio.poly_to_json(x_p * x_p + x_r * x_r)]})
    jsonio.write_json(sl2_cas, jsonio.casimirs_to_json(classical_casimirs("sl", 2)))
    return {"pipeline run contraction-sl2-so2":
            _run(["pipeline", "run", con, "--casimirs", cas, "--xi", "0,1,0"]),
            "pipeline run gl3": _run(["pipeline", "run", gl3, "--classical"]),
            "pipeline run vinberg-1": _run(["pipeline", "run", vin]),
            "pipeline run sl2-singular-xi":
            _run(["pipeline", "run", sl2, "--casimirs", sl2_cas, "--xi", "0,0,0"])}


def family_reports(tmp_path, pipelines) -> dict:
    """`shift build` and `pipeline run --casimirs` on each passing
    pipeline's reported Casimir set at its reported xi."""
    out = {}
    for name, build in (("contraction-sl2-so2", ["contraction-sl2-so2"]), ("gl3", ["gl", "3"])):
        report = pipelines[f"pipeline run {name}"]["report"]
        alg, cas = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}-casimirs.json")
        assert main(["algebra", "build", *build, "--out", alg]) == 0
        jsonio.write_json(cas, report["casimirs"])
        xi = "--xi=" + ",".join(report["verdicts"]["build-family"]["xi"])
        with redirect_stdout(io.StringIO()) as buf:
            code = main(["shift", "build", alg, cas, xi])
        out[f"shift build {name}"] = {"exit": code, "report": json.loads(buf.getvalue())}
        out[f"pipeline run {name}"] = _run(["pipeline", "run", alg, "--casimirs", cas, xi])
    return out


# name, algebra build arguments, generators, xi
CERTIFY = (
    ("sl3", ["sl", "3"], lambda: classical_casimirs("sl", 3).generators, "2,-1,3,1,-2,1,0,1"),
    ("sl2-not-casimirs", ["sl", "2"], lambda: [MPoly.variable(3, 0), MPoly.variable(3, 1)],
     "1,2,3"),
    ("gl3-perturbed", ["gl", "3"],
     lambda: [g + MPoly.variable(9, 0) if k == 0 else g
              for k, g in enumerate(classical_casimirs("gl", 3).generators)],
     "1,-2,0,3,1,-1,2,0,1"),
)


def certify_reports(tmp_path) -> dict:
    """`shift certify` on each of CERTIFY: exit code and report without timings."""
    out = {}
    for name, build, gens, xi in CERTIFY:
        alg, cas = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}-generators.json")
        assert main(["algebra", "build", *build, "--out", alg]) == 0
        polys = gens()
        jsonio.write_json(cas, {"nvars": polys[0].nvars,
                                "generators": [jsonio.poly_to_json(p) for p in polys]})
        out[f"shift certify {name}"] = _run(["shift", "certify", alg, cas, f"--xi={xi}"])
    return out


@pytest.fixture(scope="module")
def families(tmp_path_factory, pipelines):
    return family_reports(tmp_path_factory.mktemp("families"), pipelines)


@pytest.fixture(scope="module")
def certified(tmp_path_factory):
    return certify_reports(tmp_path_factory.mktemp("certify"))


def test_certify_cases_fail_where_they_should(certified):
    assert {k: v["exit"] for k, v in certified.items()} == {
        "shift certify sl3": 0, "shift certify sl2-not-casimirs": 1,
        "shift certify gl3-perturbed": 1}


@pytest.mark.parametrize("name", [name for name, *_ in CERTIFY])
def test_shift_certify_matches_the_pinned_bytes(certified, name):
    with open(FAMILY_GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)[f"shift certify {name}"]
    assert jsonio.dumps(certified[f"shift certify {name}"]) == jsonio.dumps(want)


@pytest.mark.parametrize("name", ["contraction-sl2-so2", "gl3"])
def test_shift_build_on_the_reported_casimirs_matches_the_pinned_bytes(families, name):
    with open(FAMILY_GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)[f"shift build {name}"]
    assert jsonio.dumps(families[f"shift build {name}"]) == jsonio.dumps(want)


@pytest.mark.parametrize("name", ["contraction-sl2-so2", "gl3"])
def test_pipeline_on_the_reported_casimirs_gives_the_same_verdicts(pipelines, families, name):
    first = pipelines[f"pipeline run {name}"]
    again = families[f"pipeline run {name}"]
    assert again["exit"] == first["exit"] == 0
    for key in ("verdicts", "witnesses", "casimirs"):
        assert jsonio.dumps(again["report"][key]) == jsonio.dumps(first["report"][key])


# the algebra behind each input file name of a passing pinned pipeline
PIPELINE_ALGEBRAS = {
    "contraction.json": make_sl2_so2_contraction, "gl3.json": lambda: make_classical("gl", 3),
    "sl3.json": lambda: make_classical("sl", 3),
    "takiff.json": lambda: make_takiff(make_classical("sl", 2), 1),
}


def test_the_shift_chain_holds_on_every_passing_pinned_pipeline_family():
    # the family each report certifies, rebuilt from its Casimirs and xi,
    # passes the chain the Casimir pencil derives from the Casimir check
    passing = []
    for path in (PIPELINE_GOLDEN, SEED_GOLDEN):
        with open(path, encoding="utf-8") as fh:
            passing += [(k, v["report"]) for k, v in json.load(fh).items()
                        if k.startswith("pipeline run") and v["exit"] == 0]
    assert len(passing) == 8
    for case, report in passing:
        source = report["inputs"]["algebra"]
        L = PIPELINE_ALGEBRAS[source["path"]]()
        assert _digest(jsonio.dumps(jsonio.algebra_to_json(L))) == source["sha256"], case
        fam = build_family(L, jsonio.casimirs_from_json(report["casimirs"], L.dim),
                           [rat(x) for x in report["verdicts"]["build-family"]["xi"]])
        assert len(fam) == report["verdicts"]["build-family"]["members"], case
        assert report["verdicts"]["commutative"]["method"] == "casimir-pencil", case
        assert shift_chain_holds(fam), case


SL3_F = {(2, 0, 0, 1, 0, 0, 0, 0): "1/2", (0, 1, 0, 0, 0, 1, 0, 0): "-3/4",
         (0, 0, 0, 0, 0, 0, 0, 1): "2/3"}
SL3_G = {(0, 0, 1, 0, 1, 0, 0, 0): "-5/3", (0, 0, 0, 0, 0, 0, 2, 0): "7/2",
         (1, 0, 0, 0, 0, 0, 0, 0): "-1"}
SL3_NOT_CASIMIR = {(1, 1, 0, 0, 0, 0, 0, 0): "-2/3", (0, 0, 0, 0, 2, 0, 0, 0): "1/5"}


def _poly_file(path, terms, nvars=8):
    jsonio.write_json(path, {"nvars": nvars, "terms": [{"coeff": c, "exps": list(e)}
                                                   for e, c in terms.items()]})
    return path


def poly_reports(tmp_path) -> dict:
    """Every pinned polynomial case's exit code and output without timings."""
    sl3, vin, cas = (str(tmp_path / f) for f in ("sl3.json", "vinberg.json", "cas.json"))
    f, g, bad = (_poly_file(str(tmp_path / f"{name}.json"), terms) for name, terms
                 in (("f", SL3_F), ("g", SL3_G), ("bad", SL3_NOT_CASIMIR)))
    assert main(["algebra", "build", "sl", "3", "--out", sl3]) == 0
    assert main(["algebra", "build", "vinberg", "1", "--out", vin]) == 0
    jsonio.write_json(cas, jsonio.casimirs_to_json(classical_casimirs("sl", 3)))
    with redirect_stdout(io.StringIO()) as out:
        code = main(["shift", "build", sl3, cas, "--xi", "1/2,-2/3,1,3/4,0,5,-1/5,2"])
    return {"shift build sl3": {"exit": code, "report": json.loads(out.getvalue())},
            "poisson bracket sl3": _run(["poisson", "bracket", sl3, f, g]),
            "poisson casimir-check sl3": _run(["poisson", "casimir-check", sl3, bad]),
            "reg codim2 vinberg-1": _run(["reg", "codim2", vin])}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    return golden_reports(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    return pipeline_reports(tmp_path_factory.mktemp("pipelines"))


def test_cases_cover_both_pencil_kinds_and_both_plane_verdicts(reports):
    kinds = {v["report"]["verdicts"]["pencil"]["kind"]
             for k, v in reports.items() if k.startswith("pencil")}
    assert kinds == {"kronecker", "jordan-mixed"}
    assert {v["exit"] for k, v in reports.items() if k.startswith("reg")} == {0, 1}


CASES = ([f"{command} {name}" for name in PLANES for command in ("pencil analyze", "reg plane")]
         + [f"pencil analyze {name}" for name in MATRICES])


@pytest.mark.parametrize("case", CASES)
def test_report_matches_the_pinned_bytes(reports, case):
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)[case]
    assert jsonio.dumps(reports[case]) == jsonio.dumps(want)


def test_pipeline_cases_fail_where_they_should(pipelines):
    assert {k: v["report"].get("failed_stage") for k, v in pipelines.items()} == {
        "pipeline run contraction-sl2-so2": None, "pipeline run gl3": None,
        "pipeline run vinberg-1": "codim2", "pipeline run sl2-singular-xi": "build-family"}


@pytest.mark.parametrize("case", ["pipeline run contraction-sl2-so2", "pipeline run gl3",
                                  "pipeline run vinberg-1", "pipeline run sl2-singular-xi"])
def test_pipeline_report_matches_the_pinned_bytes(pipelines, case):
    with open(PIPELINE_GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)[case]
    assert jsonio.dumps(pipelines[case]) == jsonio.dumps(want)


@pytest.fixture(scope="module")
def polys(tmp_path_factory):
    return poly_reports(tmp_path_factory.mktemp("polys"))


def test_poly_cases_fail_where_they_should(polys):
    assert {k: v["exit"] for k, v in polys.items()} == {
        "shift build sl3": 0, "poisson bracket sl3": 0,
        "poisson casimir-check sl3": 1, "reg codim2 vinberg-1": 1}


@pytest.mark.parametrize("case", ["shift build sl3", "poisson bracket sl3",
                                  "poisson casimir-check sl3", "reg codim2 vinberg-1"])
def test_poly_report_matches_the_pinned_bytes(polys, case):
    with open(POLY_GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)[case]
    assert jsonio.dumps(polys[case]) == jsonio.dumps(want)


CENTRALIZERS = {"z_sl4_211": (4, [2, 1, 1]), "z_sl5_32": (5, [3, 2]),
                "z_sl5_221": (5, [2, 2, 1]), "z_sl5_311": (5, [3, 1, 1])}
TAKIFF_SL2_2_PLANE = ("1,-2,3,2,1,-1,3,-2,1", "2,1,-1,-3,2,1,1,4,-2")


def regcert_reports(tmp_path) -> dict:
    """Every pinned nonreductive plane-certificate case's exit code and
    report without timings."""
    out = {}
    for name, (n, part) in CENTRALIZERS.items():
        path = str(tmp_path / f"{name}.json")
        jsonio.write_json(path, jsonio.algebra_to_json(make_centralizer_sl(n, part)))
        out[f"reg codim2 {name}"] = _run(["reg", "codim2", path])
    path = str(tmp_path / "takiff_sl2_2.json")
    jsonio.write_json(path, jsonio.algebra_to_json(make_takiff(make_classical("sl", 2), 2)))
    xi, eta = TAKIFF_SL2_2_PLANE
    out["reg plane takiff_sl2_2"] = _run(["reg", "plane", path, "--xi", xi, "--eta", eta])
    path = str(tmp_path / "sl5.json")
    assert main(["algebra", "build", "sl", "5", "--out", path]) == 0
    out["reg codim2 sl5"] = _run(["reg", "codim2", path])
    return out


@pytest.fixture(scope="module")
def regcert_cases(tmp_path_factory):
    return regcert_reports(tmp_path_factory.mktemp("regcert"))


def test_regcert_cases_pass(regcert_cases):
    assert {v["exit"] for v in regcert_cases.values()} == {0}
    assert [v["report"]["verdicts"]["profile"]["ind"]
            for k, v in regcert_cases.items() if k.startswith("reg codim2")] == [3, 4, 4, 4, 4]


@pytest.mark.parametrize("case", [*(f"reg codim2 {name}" for name in CENTRALIZERS),
                                  "reg plane takiff_sl2_2", "reg codim2 sl5"])
def test_regcert_report_matches_the_pinned_bytes(regcert_cases, case):
    with open(REGCERT_GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)[case]
    assert jsonio.dumps(regcert_cases[case]) == jsonio.dumps(want)


BUILDS = {"so3": ["so", "3"], "so4": ["so", "4"], "so5": ["so", "5"],
          "gl2": ["gl", "2"], "gl4": ["gl", "4"], "sl5": ["sl", "5"]}
BUILT_CENTRALIZERS = {"z_sl3_21": (3, [2, 1]), "z_sl4_22": (4, [2, 2]), "z_sl4_31": (4, [3, 1]),
                      "z_sl6_321": (6, [3, 2, 1])}
# the sl2 table in the basis (t, p, r) of make_sl2_so2_contraction, every constant divided by 3
SPLIT_SL2_THIRDS = [(0, 1, {2: Fraction(-2, 3)}), (0, 2, {1: Fraction(2, 3)}),
                    (1, 2, {0: Fraction(2, 3)})]
# sl2 on k^2 in the basis (e, h, f): the standard matrices, and their
# conjugate by diag(1, 2), whose e and f carry 1/2 and 2
SL2_ON_K2 = {"standard": [[[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]]],
             "halved": [[[0, "1/2"], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [2, 0]]]}
# algebras with denominators that no report above carries
BUILT_WITH_DENOMINATORS = {
    "make_takiff vinberg(1/2,2/3,3) 1":
        lambda: make_takiff(make_vinberg(["1/2", "2/3", 3]), 1),
    "make_semidirect sl2 standard":
        lambda: make_semidirect(make_classical("sl", 2), [MatQ(m) for m in SL2_ON_K2["standard"]]),
    "make_semidirect sl2 halved":
        lambda: make_semidirect(make_classical("sl", 2), [MatQ(m) for m in SL2_ON_K2["halved"]]),
    "make_z2_contraction sl2/so2 thirds":
        lambda: make_z2_contraction(
            LieAlgebraData.from_table(3, ["t", "p", "r"], SPLIT_SL2_THIRDS), [0, 1, 1]),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_digests() -> dict:
    """The sha256 of the bytes of every pinned matrix-built algebra, and
    the exit code of each `algebra build`."""
    out = {}
    for name, build in BUILDS.items():
        with redirect_stdout(io.StringIO()) as buf:
            code = main(["algebra", "build", *build])
        out[f"algebra build {name}"] = {"exit": code, "sha256": _digest(buf.getvalue())}
    for name, (n, part) in BUILT_CENTRALIZERS.items():
        text = jsonio.dumps(jsonio.algebra_to_json(make_centralizer_sl(n, part)))
        out[f"make_centralizer_sl {name}"] = {"sha256": _digest(text)}
    for name, build in BUILT_WITH_DENOMINATORS.items():
        out[name] = {"sha256": _digest(jsonio.dumps(jsonio.algebra_to_json(build())))}
    return out


def test_matrix_built_algebras_match_the_pinned_digests():
    with open(BUILD_GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    assert jsonio.dumps(build_digests()) == jsonio.dumps(want)


# on vinberg(1/2, 2/3), basis (s, v1, v2)
VIN_F = {(1, 1, 0): "1", (0, 0, 2): "1/3"}
VIN_G = {(0, 1, 1): "1", (1, 0, 0): "-2"}
# [a, c] = b/2, [a, d] = b, [c, d] = c: Jacobi fails on (a, c, d) by b/2
JACOBI_HALF = {"dim": 4, "basis": ["a", "b", "c", "d"],
               "brackets": [{"i": 0, "j": 2, "coeffs": {"1": "1/2"}},
                            {"i": 0, "j": 3, "coeffs": {"1": "1"}},
                            {"i": 2, "j": 3, "coeffs": {"2": "1"}}]}


def fraction_reports(tmp_path) -> dict:
    """Every pinned fractional-table case's exit code and output without timings."""
    vin, vin1, bad = (str(tmp_path / f) for f in ("vinberg.json", "vinberg1.json", "half.json"))
    f, g = (_poly_file(str(tmp_path / f"{name}.json"), terms, nvars=3)
            for name, terms in (("f", VIN_F), ("g", VIN_G)))
    with redirect_stdout(io.StringIO()) as out:
        code = main(["algebra", "build", "vinberg", "1/2", "2/3"])
    with open(vin, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    assert main(["algebra", "build", "vinberg", "1/2", "--out", vin1]) == 0
    jsonio.write_json(bad, JACOBI_HALF)
    return {"algebra build vinberg-1/2-2/3": {"exit": code, "text": out.getvalue()},
            "poisson bracket vinberg-1/2-2/3": _run(["poisson", "bracket", vin, f, g]),
            "pencil analyze vinberg-1/2-2/3": _run(
                ["pencil", "analyze", vin, "--xi", "1,1,1", "--eta", "2,-1,1"]),
            "reg codim2 vinberg-1/2": _run(["reg", "codim2", vin1]),
            "algebra validate jacobi-half": _run(["algebra", "validate", bad]),
            "pipeline run jacobi-half": _run(["pipeline", "run", bad])}


@pytest.fixture(scope="module")
def fraction_cases(tmp_path_factory):
    return fraction_reports(tmp_path_factory.mktemp("fractions"))


def test_fraction_cases_fail_where_they_should(fraction_cases):
    assert {k: v["exit"] for k, v in fraction_cases.items()} == {
        "algebra build vinberg-1/2-2/3": 0, "poisson bracket vinberg-1/2-2/3": 0,
        "pencil analyze vinberg-1/2-2/3": 0, "reg codim2 vinberg-1/2": 1,
        "algebra validate jacobi-half": 1, "pipeline run jacobi-half": 1}
    assert fraction_cases["reg codim2 vinberg-1/2"]["report"]["verdicts"]["codim2"][
        "witness"] == "x_v1^2"
    detail = "Jacobi fails on (a, c, d): coefficient of b is 1/2"
    assert fraction_cases["algebra validate jacobi-half"]["report"]["witnesses"] == {
        "validate": detail}
    assert fraction_cases["pipeline run jacobi-half"]["report"]["witnesses"] == {
        "validate": detail}


@pytest.mark.parametrize("case", ["algebra build vinberg-1/2-2/3",
                                  "poisson bracket vinberg-1/2-2/3",
                                  "pencil analyze vinberg-1/2-2/3", "reg codim2 vinberg-1/2",
                                  "algebra validate jacobi-half", "pipeline run jacobi-half"])
def test_fractional_table_report_matches_the_pinned_bytes(fraction_cases, case):
    with open(FRACTION_GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)[case]
    assert jsonio.dumps(fraction_cases[case]) == jsonio.dumps(want)


# a regular sl3 plane with denominators 2 (xi) and 3 (eta), and a
# regular takiff(sl2, 1) plane at integer points
SL3_FRACTIONAL_PLANE = ("1/2,-1,3/2,2,0,-5/2,1,3", "2/3,1,-1/3,0,4/3,-2,1,5/3")
TAKIFF_SL2_1_PLANE = ("1,-2,3,2,1,-1", "2,1,-1,-3,2,1")


def sample_reports(tmp_path) -> dict:
    """Every pinned sampling case's exit code and report without timings."""
    sl3, sl3_cas, tk, tk_cas = (str(tmp_path / f) for f in (
        "sl3.json", "sl3-casimirs.json", "takiff.json", "takiff-casimirs.json"))
    assert main(["algebra", "build", "sl", "3", "--out", sl3]) == 0
    jsonio.write_json(sl3_cas, jsonio.casimirs_to_json(classical_casimirs("sl", 3)))
    sl2 = make_classical("sl", 2)
    takiff = make_takiff(sl2, 1)
    jsonio.write_json(tk, jsonio.algebra_to_json(takiff))
    [f] = classical_casimirs("sl", 2).generators
    jsonio.write_json(tk_cas, jsonio.casimirs_to_json(
        CasimirSet.verified(takiff, takiff_lift(sl2, f, 1))))
    xi, eta = SL3_FRACTIONAL_PLANE
    txi, teta = TAKIFF_SL2_1_PLANE
    return {"reg compl sl3-fractional": _run(
                ["reg", "compl", sl3, sl3_cas, "--xi", xi, "--eta", eta]),
            "reg compl takiff_sl2_1": _run(
                ["reg", "compl", tk, tk_cas, "--xi", txi, "--eta", teta]),
            "reg point sl3-fractional": _run(
                ["reg", "point", sl3, "--xi", xi, "--casimirs", sl3_cas]),
            "reg bols sl3-fractional": _run(["reg", "bols", sl3, sl3_cas, "--xi", xi])}


@pytest.fixture(scope="module")
def sample_cases(tmp_path_factory):
    return sample_reports(tmp_path_factory.mktemp("samples"))


def test_sample_cases_pass_with_fractional_samples(sample_cases):
    assert {v["exit"] for v in sample_cases.values()} == {0}
    spec = sample_cases["reg compl sl3-fractional"]["report"]["verdicts"]["compl"]["spec"]
    assert {x.partition("/")[2] for x in spec["xi"]} == {"", "2"}
    assert {x.partition("/")[2] for x in spec["eta"]} == {"", "3"}


@pytest.mark.parametrize("case", ["reg compl sl3-fractional", "reg compl takiff_sl2_1",
                                  "reg point sl3-fractional", "reg bols sl3-fractional"])
def test_sample_report_matches_the_pinned_bytes(sample_cases, case):
    with open(SAMPLE_GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)[case]
    assert jsonio.dumps(sample_cases[case]) == jsonio.dumps(want)


# the algebras whose codim-2 and regular-plane searches are pinned at
# seeds other than the default
SEEDS = (1, 2)


def seed_reports(tmp_path) -> dict:
    """`reg codim2` and `pipeline run` on sl3 and gl3 with their classical
    Casimirs and on takiff(sl2, 1) with its lifted Casimirs, at each of
    SEEDS: each pinned case's exit code and report without timings."""
    sl3, gl3, tk, tk_cas = (str(tmp_path / f) for f in (
        "sl3.json", "gl3.json", "takiff.json", "takiff-casimirs.json"))
    assert main(["algebra", "build", "sl", "3", "--out", sl3]) == 0
    assert main(["algebra", "build", "gl", "3", "--out", gl3]) == 0
    sl2 = make_classical("sl", 2)
    takiff = make_takiff(sl2, 1)
    jsonio.write_json(tk, jsonio.algebra_to_json(takiff))
    [f] = classical_casimirs("sl", 2).generators
    jsonio.write_json(tk_cas, jsonio.casimirs_to_json(
        CasimirSet.verified(takiff, takiff_lift(sl2, f, 1))))
    out = {}
    for name, path, casimirs in (("sl3", sl3, ["--classical"]), ("gl3", gl3, ["--classical"]),
                                 ("takiff_sl2_1", tk, ["--casimirs", tk_cas])):
        for seed in map(str, SEEDS):
            out[f"reg codim2 {name} seed {seed}"] = _run(
                ["reg", "codim2", path, "--seed", seed])
            out[f"pipeline run {name} seed {seed}"] = _run(
                ["pipeline", "run", path, *casimirs, "--seed", seed])
    return out


@pytest.fixture(scope="module")
def seed_cases(tmp_path_factory):
    return seed_reports(tmp_path_factory.mktemp("seeds"))


SEED_CASES = [f"{command} {name} seed {seed}" for name in ("sl3", "gl3", "takiff_sl2_1")
              for seed in SEEDS for command in ("reg codim2", "pipeline run")]


def test_seed_cases_pass(seed_cases):
    assert sorted(seed_cases) == sorted(SEED_CASES)
    assert {v["exit"] for v in seed_cases.values()} == {0}


@pytest.mark.parametrize("case", SEED_CASES)
def test_seed_report_matches_the_pinned_bytes(seed_cases, case):
    with open(SEED_GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)[case]
    assert jsonio.dumps(seed_cases[case]) == jsonio.dumps(want)
