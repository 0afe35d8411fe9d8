"""Pinned `pencil analyze`, `reg plane` and `pipeline run` reports.

The reports below, without their `timings`, were written by an earlier
version of the program and are kept in `golden/pencil_reports.json` and
`golden/pipeline_reports.json`.  Any change to the pencil analysis or
to the subspaces behind it must leave them byte-identical: regular
planes on sl4 and takiff(sl3, 1), the subregular plane of sl3 (a pencil
with Jordan blocks), a generic 9 x 9 pencil (Kronecker type), a 4 x 4
Jordan block at 2 under an integer congruence, and two pipelines: the
sl2/so2 contraction with Casimir x_p^2 + x_r^2, whose `conclusions`
witness x_r comes from the linear commutant and the member span, and
gl3 with its classical Casimirs.
"""

import io
import json
import os
from contextlib import redirect_stdout

import pytest

from argshift import jsonio
from argshift.cli import main
from argshift.mpoly import MPoly

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "pencil_reports.json")
PIPELINE_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "pipeline_reports.json")

# algebra build arguments, xi, eta
PLANES = {
    "sl4-plane": (["sl", "4"], "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15",
                  "3,-1,4,1,-5,9,2,-6,5,3,-5,8,9,7,-9"),
    "takiff-sl3-1-plane": (["takiff", "sl", "3", "1"],
                           "2,-1,3,0,1,4,-2,1,1,0,-3,2,5,1,-1,2",
                           "1,3,-2,4,0,-1,2,2,-3,1,4,0,1,-2,3,1"),
    "sl3-subregular-plane": (["sl", "3"], "0,0,0,0,3,0,0,0", "1,0,0,0,0,0,0,1"),
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


JORDAN_P = [[1, 2, 0, 1], [0, 1, -1, 0], [0, 0, 1, 3], [1, 2, 1, 2]]
MATRICES = {
    "kronecker-9": (_skew(lambda i, j: (3 * i + 5 * j * j + 7) % 11 - 5, 9),
                    _skew(lambda i, j: (2 * i * i + 7 * j + 1) % 13 - 6, 9)),
    "jordan-4": (_congruent([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
                            JORDAN_P),
                 _congruent([[0, 0, 2, 1], [0, 0, 0, 2], [-2, 0, 0, 0], [-1, -2, 0, 0]],
                            JORDAN_P)),
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
                [*command, path, "--xi", xi, "--eta", eta])
    for name, (A, B) in MATRICES.items():
        path = str(tmp_path / f"{name}.json")
        jsonio.write_json(path, {"A": [[str(x) for x in r] for r in A],
                                 "B": [[str(x) for x in r] for r in B]})
        out[f"pencil analyze {name}"] = _run(
            ["pencil", "analyze", "--matrices", path])
    return out


def pipeline_reports(tmp_path) -> dict:
    """Every pinned pipeline's exit code and report without timings."""
    con, gl3, cas = (str(tmp_path / f) for f in ("contraction.json", "gl3.json", "cas.json"))
    assert main(["algebra", "build", "contraction-sl2-so2", "--out", con]) == 0
    assert main(["algebra", "build", "gl", "3", "--out", gl3]) == 0
    x_p, x_r = MPoly.variable(3, 1), MPoly.variable(3, 2)
    jsonio.write_json(cas, {"nvars": 3, "generators": [jsonio.poly_to_json(x_p * x_p + x_r * x_r)]})
    return {"pipeline run contraction-sl2-so2":
            _run(["pipeline", "run", con, "--casimirs", cas, "--xi", "0,1,0"]),
            "pipeline run gl3": _run(["pipeline", "run", gl3, "--classical"])}


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


@pytest.mark.parametrize("case", ["pipeline run contraction-sl2-so2", "pipeline run gl3"])
def test_pipeline_report_matches_the_pinned_bytes(pipelines, case):
    with open(PIPELINE_GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)[case]
    assert jsonio.dumps(pipelines[case]) == jsonio.dumps(want)
