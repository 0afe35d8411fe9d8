"""The benchmark's workloads: inputs built from a seed, the command
sequence each workload runs through ``argshift.cli.main``, and the
verdict oracle every command is checked against.

Inputs are generated through the library during set-up and written as
JSON files, as a user would prepare them.  A random input must keep its
verdict for every seed, so it is certified here by exact integer
linear algebra that shares no code with the command under test:

* a random plane span(xi, eta) is kept as a regular (Kronecker) plane
  only when B has rank m and the principal m x m minors of A + tB have
  no common root over C (their gcd in Q[t] is constant), so no member
  of the pencil drops rank;
* a random skew pencil is kept as a Kronecker pencil by the same test;
* a random point or direction is kept as regular when its skew form
  has rank m;
* the Jordan pencil is a random congruence P^T (A, B) P, det P = 1, of
  one canonical block, which keeps the block and its eigenvalue.

Commands run with the program's default ``--seed``, as a user types
them.  That seed picks random planes and minor orders, and the length of
a minor stream varies several-fold with it: over 30 seeds, codim2 took
0.5-3.4 s on z_sl5(e) with partition [2,2,1].  With the program's seed
drawn from the benchmark seed, one draw would decide a run's figure.
The benchmark seed varies the generated inputs instead.

The oracle keeps exit code, ``status``, ``failed_stage`` and verdict
fields that do not depend on the seed.  It leaves out ``timings`` and
the minor bookkeeping (``minors_checked``, ``minor_indices``,
``total_minors``), which a change of plane-certificate route may alter
under a schema bump without changing any verdict.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

WORKLOADS = ("classical-ladder", "nonreductive-ladder", "singular-probes")

# reg plane on vinberg(1, 2) through (1, 3, 5) and (0, 3Q, 5Q): the gcd's
# constant term is about Q, and rational root search is trial division
# up to sqrt(Q)
VINBERG_Q = 10000019
# diag(1, 1, -2) in sl(3)* under the trace form: subregular, rank 4 of 6
SL3_SUBREGULAR = (0, 0, 0, 0, 3, 0, 0, 0)


@dataclass
class Command:
    """One CLI invocation and what its report must say."""

    label: str
    argv: list[str]
    budget_s: float
    exit_code: int
    status: str
    failed_stage: str | None = None
    # (path, expected): the path is dotted keys into the report, where
    # "*" maps over a list; a trailing "[]" asks for list membership
    fields: list[tuple[str, Any]] = field(default_factory=list)

    def check(self, code: int, report: dict | None) -> str | None:
        """None when the outcome matches the oracle, else the reason."""
        if code != self.exit_code:
            return f"exit {code}, expected {self.exit_code}"
        if report is None:
            return "no report"
        if report.get("status") != self.status:
            return f"status {report.get('status')!r}, expected {self.status!r}"
        if report.get("failed_stage") != self.failed_stage:
            return (f"failed_stage {report.get('failed_stage')!r}, "
                    f"expected {self.failed_stage!r}")
        for path, want in self.fields:
            member = path.endswith("[]")
            got = _lookup(report, (path[:-2] if member else path).split("."))
            ok = (isinstance(got, list) and want in got) if member else got == want
            if not ok:
                return f"{path} = {got!r}, expected {want!r}"
        return None


def _lookup(cur: Any, keys: list[str]) -> Any:
    for i, key in enumerate(keys):
        if key == "*":
            return ([_lookup(x, keys[i + 1:]) for x in cur]
                    if isinstance(cur, list) else None)
        if isinstance(cur, list) and key.isdigit() and int(key) < len(cur):
            cur = cur[int(key)]
        elif isinstance(cur, dict) and key in cur:
            cur = cur[key]
        else:
            return None
    return cur


# --- exact integer linear algebra for certifying inputs ----------------------

Mat = list[list[int]]
Poly = list[Fraction]          # coefficients, lowest degree first


def _matmul(a: Mat, b: Mat) -> Mat:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _rank(a: Mat) -> int:
    rows = [list(r) for r in a]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                f = rows[r][c]
                rows[r] = [p[c] * x - f * y for x, y in zip(rows[r], p)]
        rank += 1
    return rank


def _det(a: Mat) -> int:
    """Determinant by Bareiss elimination."""
    a = [list(r) for r in a]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _interpolate(ys: list[int]) -> Poly:
    """The polynomial of degree < len(ys) through the points (t, ys[t])."""
    out = [Fraction(0)] * len(ys)
    for i, y in enumerate(ys):
        basis, denom = [Fraction(1)], 1
        for j in range(len(ys)):
            if j != i:
                basis = [Fraction(0)] + basis          # times (t - j)
                for k in range(len(basis) - 1):
                    basis[k] -= j * basis[k + 1]
                denom *= i - j
        for k, c in enumerate(basis):
            out[k] += y * c / denom
    return _trim(out)


def _poly_gcd(f: Poly, g: Poly) -> Poly:
    """A gcd in Q[t], by Euclid's algorithm."""
    while g:
        r = list(f)
        while len(r) >= len(g):
            q = r[-1] / g[-1]
            for k, c in enumerate(g):
                r[len(r) - len(g) + k] -= q * c
            r = _trim(r)
        f, g = g, r
    return f


def _regular_pencil(a: Mat, b: Mat, m: int, rng: random.Random) -> bool:
    """True when every member a A + b B with (a, b) != 0 has rank m."""
    if _rank(b) != m:
        return False
    g: Poly | None = None
    for _ in range(24):
        idx = sorted(rng.sample(range(len(a)), m))
        f = _interpolate([_det([[a[i][j] + t * b[i][j] for j in idx] for i in idx])
                          for t in range(m + 1)])
        if f:
            g = f if g is None else _poly_gcd(g, f)
            if len(g) == 1:
                return True
    return False


def _kirillov(L: Any, xi: list[int]) -> Mat:
    """The skew form xi([e_i, e_j]) read off the structure constants."""
    k = [[0] * L.dim for _ in range(L.dim)]
    for i, j, coeffs in L.pairs():
        v = sum(c * xi[t] for t, c in coeffs.items())
        k[i][j], k[j][i] = int(v), -int(v)
    return k


def _point(dim: int, rng: random.Random, nonzero: bool = False) -> list[int]:
    values = [v for v in range(-9, 10) if v or not nonzero]
    return [rng.choice(values) for _ in range(dim)]


def _regular_point(L: Any, m: int, rng: random.Random, nonzero: bool = False) -> list[int]:
    while True:
        xi = _point(L.dim, rng, nonzero)
        if _rank(_kirillov(L, xi)) == m:
            return xi


def _regular_plane(L: Any, m: int, rng: random.Random) -> tuple[list[int], list[int]]:
    while True:
        xi, eta = _point(L.dim, rng), _point(L.dim, rng)
        if _regular_pencil(_kirillov(L, xi), _kirillov(L, eta), m, rng):
            return xi, eta


def _random_skew(n: int, rng: random.Random) -> Mat:
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = rng.randint(-9, 9)
            a[j][i] = -a[i][j]
    return a


def _skew_block(f: Mat) -> Mat:
    """[[0, f], [-f^T, 0]] for an r x c block f."""
    r, c = len(f), len(f[0])
    out = [[0] * (r + c) for _ in range(r + c)]
    for i in range(r):
        for j in range(c):
            out[i][r + j] = f[i][j]
            out[r + j][i] = -f[i][j]
    return out


def _congruence(n: int, rng: random.Random) -> Callable[[Mat], Mat]:
    """a -> P^T a P for a random integer P of determinant 1."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in p:                      # P <- P (I + c E_ij)
            row[j] += c * row[i]
    pt = [list(col) for col in zip(*p)]
    return lambda a: _matmul(_matmul(pt, a), p)


def _csv(v: list[int] | tuple[int, ...]) -> str:
    return ",".join(str(x) for x in v)


# --- workloads ----------------------------------------------------------------

class Inputs:
    """Writes validated input files into the work directory."""

    def __init__(self, workdir: str):
        import argshift.jsonio as jsonio
        self.jsonio = jsonio
        self.workdir = workdir

    def write(self, name: str, obj: Any) -> str:
        path = os.path.join(self.workdir, name)
        self.jsonio.write_json(path, obj)
        return path

    def algebra(self, name: str, L: Any) -> str:
        from argshift.liealg import validate
        rep = validate(L)
        if not rep.ok:
            raise ValueError(f"{name}: generated algebra fails Jacobi: {rep.detail}")
        return self.write(name + ".json", self.jsonio.algebra_to_json(L))


def _passing_pipeline(label: str, argv: list[str], budget: float, dim: int,
                      ind: int) -> Command:
    return Command(label, argv, budget, 0, "pass", fields=[
        ("verdicts.validate.ok", True),
        ("verdicts.estimate-index.ind", ind),
        ("verdicts.codim2.ok", True),
        ("verdicts.degree-profile.classification", "EXACT"),
        ("verdicts.build-family.members", (dim + ind) // 2),
        ("verdicts.commutative.ok", True),
        ("verdicts.regular-plane.found", True),
        ("verdicts.compl.ok", True),
        ("verdicts.bols.ok", True),
        ("verdicts.conclusions.maximal-transcendence-degree", "verified"),
    ])


def _classical_pipeline(inp: Inputs, rng: random.Random, fam: str, n: int, ind: int,
                        budget: float) -> Command:
    """pipeline run --classical along a random regular xi without zero entries.

    A zero entry drops terms from the family, and on sl4 the bracket
    work would then vary by about 7% from seed to seed.
    """
    from argshift.liealg import make_classical
    L = make_classical(fam, n)
    path = inp.algebra(f"{fam}{n}", L)
    xi = _regular_point(L, L.dim - ind, rng, nonzero=True)
    return _passing_pipeline(f"pipeline.{fam}{n}", ["pipeline", "run", path, "--classical",
                                                    "--xi=" + _csv(xi)], budget, L.dim, ind)


def _takiff_pipeline(inp: Inputs, seed: int, n: int, level: int, budget: float) -> Command:
    """pipeline run --casimirs on takiff(sl(n), level) with lifted Casimirs."""
    from argshift.liealg import make_classical, make_takiff
    from argshift.poisson import CasimirSet, classical_casimirs, takiff_lift
    base = make_classical("sl", n)
    T = make_takiff(base, level)
    lifts = [p for g in classical_casimirs("sl", n, seed=seed).generators
             for p in takiff_lift(base, g, level)]
    name = f"takiff_sl{n}_{level}"
    alg = inp.algebra(name, T)
    cas = inp.write(name + "_casimirs.json", inp.jsonio.casimirs_to_json(
        CasimirSet.verified(T, lifts, seed=seed)))
    # ind of q[t]/t^(k+1) is (k+1) ind q (Rais-Tauvel)
    return _passing_pipeline(f"pipeline.{name}",
                             ["pipeline", "run", alg, "--casimirs", cas],
                             budget, T.dim, (level + 1) * (n - 1))


# members of the sl4 shift family by (generator, power), generators of
# degree 2, 3, 4: the pairs bracketed are degree 3 x 2, 2 x 4, 3 x 4, 2 x 2
SL4_PAIRS = (((1, 0), (2, 2)), ((1, 1), (2, 0)), ((1, 0), (2, 0)), ((1, 1), (2, 2)))


def classical_ladder(inp: Inputs, seed: int, rng: random.Random) -> list[Command]:
    """The reductive path: pipeline run --classical on sl2, sl3 and gl3,
    then Lie-Poisson brackets of members of the sl4 shift family.

    The whole sl4 pipeline brackets 36 pairs twice in about 19 s, one
    sample per run; four of its pairs, one command each, keep the bracket
    core dominant in a pass of about 2 s.
    """
    from argshift.liealg import make_classical
    from argshift.mfshift import build_family
    from argshift.poisson import classical_casimirs
    cmds = [_classical_pipeline(inp, rng, fam, n, ind, budget)
            for fam, n, ind, budget in (("sl", 2, 1, 5.0), ("sl", 3, 2, 10.0),
                                        ("gl", 3, 3, 10.0))]
    sl4 = make_classical("sl", 4)
    path = inp.algebra("sl4", sl4)
    xi = _regular_point(sl4, 12, rng, nonzero=True)
    family = build_family(sl4, classical_casimirs("sl", 4, seed=seed), xi)
    members = {(m.generator_index, m.power): m.poly for m in family.members}
    for f, g in SL4_PAIRS:
        files = [inp.write(f"sl4_F{i}{j}.json", inp.jsonio.poly_to_json(members[i, j]))
                 for i, j in (f, g)]
        cmds.append(Command(
            f"bracket.sl4_F{f[0]}{f[1]}_F{g[0]}{g[1]}", ["poisson", "bracket", path] + files,
            10.0, 0, "pass", fields=[("verdicts.bracket.zero", True)]))
    return cmds


def nonreductive_ladder(inp: Inputs, seed: int, rng: random.Random) -> list[Command]:
    """Takiff pipelines with lifted Casimirs, then codim2 on centralizers."""
    from argshift.liealg import make_centralizer_sl
    cmds = [_takiff_pipeline(inp, seed, 2, level, budget)
            for level, budget in ((1, 5.0), (2, 10.0))]
    # ind z_sl(n)(e) = n - 1 for every nilpotent e (Panyushev, Yakimova)
    for n, part, budget in ((4, (2, 1, 1), 5.0), (5, (3, 2), 5.0),
                            (5, (2, 2, 1), 20.0), (5, (3, 1, 1), 5.0)):
        name = f"z_sl{n}_{''.join(map(str, part))}"
        alg = inp.algebra(name, make_centralizer_sl(n, list(part)))
        cmds.append(Command(f"codim2.{name}", ["reg", "codim2", alg],
                            budget, 0, "pass", fields=[("verdicts.profile.ind", n - 1),
                                                       ("verdicts.codim2.ok", True)]))
    return cmds


def roadmap_baseline_sl4(inp: Inputs, seed: int, rng: random.Random) -> list[Command]:
    """The whole sl4 pipeline of the ROADMAP baseline; not a workload."""
    return [_classical_pipeline(inp, rng, "sl", 4, 3, 90.0)]


def roadmap_baseline_takiff(inp: Inputs, seed: int, rng: random.Random) -> list[Command]:
    """The takiff(sl3,1) pipeline of the ROADMAP baseline; not a workload."""
    return [_takiff_pipeline(inp, seed, 3, 1, 90.0)]


def singular_probes(inp: Inputs, seed: int, rng: random.Random) -> list[Command]:
    """Minor streams without early exit, root search, witnesses, pencils."""
    from argshift.exactlin import MatQ
    from argshift.liealg import (make_classical, make_sl2_so2_contraction,
                                 make_takiff, make_vinberg)
    from argshift.mpoly import MPoly
    from argshift.poisson import CasimirSet, classical_casimirs
    js = inp.jsonio
    cmds: list[Command] = []

    sl3 = make_classical("sl", 3)
    sl3_path = inp.algebra("sl3", sl3)
    # no zero entry in eta: a zero drops terms from the minors; with zeros
    # allowed the stream's time moved by 30% from seed to seed, without 17%
    eta = _point(8, rng, nonzero=True)
    # the stream never reaches a constant gcd: the plane holds a singular point
    cmds.append(Command(
        "plane.sl3_subregular",
        ["reg", "plane", sl3_path, "--xi=" + _csv(SL3_SUBREGULAR), "--eta=" + _csv(eta)],
        30.0, 1, "fail",
        fields=[("verdicts.plane.ok", False),
                ("witnesses.plane.singular_directions[]", ["1", "0"])]))

    v12 = inp.algebra("vinberg_1_2", make_vinberg([1, 2]))
    q = VINBERG_Q
    cmds.append(Command(
        "plane.vinberg_1_2",
        ["reg", "plane", v12, "--xi=1,3,5", f"--eta=0,{3 * q},{5 * q}"],
        20.0, 1, "fail",
        fields=[("verdicts.plane.ok", False),
                ("witnesses.plane.singular_directions[]", ["1", f"-1/{q}"])]))

    v1 = inp.algebra("vinberg_1", make_vinberg([1]))
    cmds.append(Command("codim2.vinberg_1", ["reg", "codim2", v1],
                        5.0, 1, "fail", fields=[("verdicts.codim2.ok", False),
                                                ("verdicts.codim2.witness", "x_v1^2")]))
    con_alg = make_sl2_so2_contraction()
    con = inp.algebra("contraction_sl2_so2", con_alg)
    for label, path, stage in (("vinberg_1", v1, "codim2"),
                               ("vinberg_1_2", v12, "degree-profile"),
                               ("contraction_sl2_so2", con, "degree-profile")):
        cmds.append(Command(f"pipeline.{label}", ["pipeline", "run", path],
                            5.0, 1, "fail", stage))
    # with its Casimir x_p^2 + x_r^2 the contraction passes every stage, and
    # the last one refutes maximality with the commuting linear form x_r
    x = [MPoly.variable(3, i) for i in range(3)]
    cas = inp.write("contraction_sl2_so2_casimirs.json", js.casimirs_to_json(
        CasimirSet.verified(con_alg, [x[1] * x[1] + x[2] * x[2]], seed=seed)))
    cmds.append(Command(
        "pipeline.contraction_sl2_so2_witness",
        ["pipeline", "run", con, "--casimirs", cas, "--xi=0,1,0"],
        5.0, 0, "pass", fields=[("verdicts.commutative.ok", True),
                                ("witnesses.conclusions.pretty", "x_r")]))

    def pencil(label: str, argv: list[str], budget: float,
               fields: list[tuple[str, Any]]) -> None:
        cmds.append(Command(label, ["pencil", "analyze"] + argv,
                            budget, 0, "pass", fields=fields))

    def kronecker(n: int, m: int) -> list[tuple[str, Any]]:
        return [("verdicts.pencil.kind", "kronecker"), ("verdicts.pencil.m", m),
                ("verdicts.pencil.L_dim", n - m // 2)]

    sl4 = make_classical("sl", 4)
    sl4_path = inp.algebra("sl4", sl4)
    tk = make_takiff(sl3, 1)
    tk_path = inp.algebra("takiff_sl3_1", tk)
    for label, L, path in (("sl4", sl4, sl4_path), ("takiff_sl3_1", tk, tk_path)):
        xi, eta = _regular_plane(L, 12, rng)
        pencil(f"pencil.{label}_regular",
               [path, "--xi=" + _csv(xi), "--eta=" + _csv(eta)], 30.0,
               kronecker(L.dim, 12))
    for n in (9, 11):
        a, b = _random_skew(n, rng), _random_skew(n, rng)
        while not _regular_pencil(a, b, n - 1, rng):
            a, b = _random_skew(n, rng), _random_skew(n, rng)
        mats = inp.write(f"kronecker_{n}.json", {"A": js.matrix_to_json(MatQ(a)),
                                                  "B": js.matrix_to_json(MatQ(b))})
        pencil(f"pencil.kronecker_{n}", ["--matrices", mats], 20.0, kronecker(n, n - 1))

    # A = [[0, I], [-I, 0]], B = [[0, J], [-J^T, 0]] with J a 2 x 2 Jordan
    # block at lam: B - mu A is singular only at mu = lam
    lam = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
    congruent = _congruence(4, rng)
    mats = inp.write("jordan_4.json", {
        "A": js.matrix_to_json(MatQ(congruent(_skew_block([[1, 0], [0, 1]])))),
        "B": js.matrix_to_json(MatQ(congruent(_skew_block([[lam, 1], [0, lam]]))))})
    pencil("pencil.jordan_4", ["--matrices", mats], 10.0,
           [("verdicts.pencil.kind", "jordan-mixed"), ("verdicts.pencil.m", 4),
            ("verdicts.pencil.eigenvalues", [[str(lam), 4]])])

    cas = inp.write("sl3_casimirs.json",
                    js.casimirs_to_json(classical_casimirs("sl", 3, seed=seed)))
    for label, xi, code, status, rank, independent in (
            ("regular", _regular_point(sl3, 6, rng), 0, "pass", 6, True),
            ("subregular", list(SL3_SUBREGULAR), 1, "fail", 4, False)):
        cmds.append(Command(
            f"point.sl3_{label}",
            ["reg", "point", sl3_path, "--xi=" + _csv(xi), "--casimirs", cas],
            5.0, code, status, fields=[("verdicts.point.kirillov_rank", rank),
                                       ("verdicts.kostant.independent", independent)]))
    return cmds


COMMAND_SETS: dict[str, Callable[[Inputs, int, random.Random], list[Command]]] = {
    "classical-ladder": classical_ladder,
    "nonreductive-ladder": nonreductive_ladder,
    "singular-probes": singular_probes,
    # single commands behind the ROADMAP baseline, run by record.py
    "roadmap-baseline-sl4": roadmap_baseline_sl4,
    "roadmap-baseline-takiff": roadmap_baseline_takiff,
}



def build(workload: str, seed: int, workdir: str) -> list[Command]:
    """Generate the workload's inputs into workdir and return its commands."""
    rng = random.Random(f"argshift-bench/{workload}/{seed}")
    return COMMAND_SETS[workload](Inputs(workdir), seed, rng)
