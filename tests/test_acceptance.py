"""End-to-end acceptance checks, one test per criterion.

Every criterion computes a verdict dict through a helper parameterized
by the sampling height bound.  Tests 1 through 9 run the helpers at
bound 9, compare against expectations frozen here, and record one
PASS/FAIL line for the terminal summary.  Test 10 reruns all nine
helpers at bound 99 and demands identical verdicts: the arithmetic is
exact, so verdicts must not depend on how tall the random integers are.
The verdicts therefore contain only counts, ranks, flags, and canonical
strings, never the sampled points themselves.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from argshift.exactlin import MatQ, rank_kernel, rat_str
from argshift.liealg import (classical_matrix_basis, make_classical,
                             make_semidirect, make_sl2_so2_contraction,
                             make_takiff, make_vinberg,
                             semidirect_index_report)
from argshift.mfshift import (build_family, certify_commutative,
                              degree_profile, find_nonmaximality_witness,
                              nonmembership_linear)
from argshift.mpoly import MPoly, try_divide
from argshift.poisson import (CasimirSet, bracket, classical_casimirs,
                              estimate_index, frozen_bracket, is_casimir,
                              kirillov, takiff_lift)
from argshift.regcert import (FalsificationError, find_regular_plane,
                              is_regular, jacobian_rank, kostant_criterion,
                              certify_codim2, verify_bols, verify_compl)
from argshift.sampling import rng_stream
from argshift.skewpencil import (SkewPencil, compute_L, rank_profile,
                                 verify_com1)

from conftest import ACCEPTANCE_LINES
from oracles import integer_point

SL2 = make_classical("sl", 2)
SL3 = make_classical("sl", 3)

VERDICTS: dict[int, dict] = {}


@contextmanager
def _criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"CRITERION {num:02d}: FAIL - {title}")
        raise
    ACCEPTANCE_LINES.append(f"CRITERION {num:02d}: PASS - {title}")


def _sample_regular(L, profile, label, bound):
    rng = rng_stream(4200, "acceptance", label)
    for _ in range(200):
        xi = integer_point(rng, L.dim, bound, nonzero=True)
        if is_regular(L, profile, xi):
            return xi
    raise AssertionError(f"no regular point found for {label}")


def _best_rank(polys, dim, target, label, bound):
    """Largest jacobian rank over sampled points, stopping at target.

    The rank can only under-report at special points (criterion 7 hits
    one: the rank of the contraction family drops where x_r = 0), so
    scanning until the target appears is sound.
    """
    rng = rng_stream(4300, "acceptance", label)
    best = 0
    for _ in range(20):
        eta = integer_point(rng, dim, bound, nonzero=True)
        best = max(best, jacobian_rank(polys, eta))
        if best == target:
            break
    return best


# criterion 1: shift families commute symbolically on sl2 and sl3

def criterion_1(bound: int) -> dict:
    out = {}
    for name, n in (("sl2", 2), ("sl3", 3)):
        L = make_classical("sl", n)
        prof = estimate_index(L, seed=101, bound=bound)
        cas = classical_casimirs("sl", n)
        xi = _sample_regular(L, prof, f"c1-{name}", bound)
        fam = build_family(L, cas, xi)
        cert = certify_commutative(fam)
        out[name] = {"members": len(fam.members), "pairs": cert.pairs_checked,
                     "ok": cert.ok, "failures": len(cert.failures)}
    return out


def test_criterion_01():
    with _criterion(1, "shift families commute symbolically (sl2, sl3)"):
        t0 = time.perf_counter()
        v = criterion_1(9)
        elapsed = time.perf_counter() - t0
        assert v == {
            "sl2": {"members": 2, "pairs": 1, "ok": True, "failures": 0},
            "sl3": {"members": 5, "pairs": 10, "ok": True, "failures": 0},
        }
        assert elapsed < 10.0
        VERDICTS[1] = v


# criterion 2: certified regular plane with full-rank shift differentials

def criterion_2(bound: int) -> dict:
    prof = estimate_index(SL3, seed=102, bound=bound)
    cas = classical_casimirs("sl", 3)
    dp = degree_profile(cas, prof)
    plane = find_regular_plane(SL3, prof, seed=202, attempts=5, bound=bound)
    assert plane.found and plane.attempts_used <= 5
    compl = verify_compl(SL3, cas, prof, plane.spec,
                         certificate=plane.certificate, nsamples=20, seed=302)
    return {
        "degrees": cas.degrees, "degree_sum": cas.sum_degrees,
        "b": prof.b_q, "classification": dp.classification,
        "plane_found": plane.found, "compl_ok": compl.ok,
        "pairs_checked": compl.pairs_checked,
        "required_rank": compl.required_rank,
        "ranks_seen": tuple(sorted({row[-1] for row in compl.rows})),
        "star_rank": compl.star_rank,
    }


def test_criterion_02():
    with _criterion(2, "plane certificate and rank-5 differentials (sl3)"):
        t0 = time.perf_counter()
        v = criterion_2(9)
        elapsed = time.perf_counter() - t0
        assert v == {
            "degrees": (2, 3), "degree_sum": 5, "b": 5,
            "classification": "EXACT", "plane_found": True,
            "compl_ok": True, "pairs_checked": 20, "required_rank": 5,
            "ranks_seen": (5,), "star_rank": 2,
        }
        assert elapsed < 30.0
        VERDICTS[2] = v


# criterion 3: rank regularity and differential independence agree

def criterion_3(bound: int) -> dict:
    out = {}
    for name, n in (("sl2", 2), ("sl3", 3)):
        L = make_classical("sl", n)
        cas = classical_casimirs("sl", n)
        prof = estimate_index(L, seed=103, bound=bound)
        rng = rng_stream(4103, "acceptance", f"c3-{name}")
        pts = [integer_point(rng, L.dim, bound) for _ in range(100)]
        pts.append(tuple(Fraction(0) for _ in range(L.dim)))
        disagreements = 0
        for pt in pts:
            try:
                verdict = kostant_criterion(L, cas, prof, pt)
            except FalsificationError:
                disagreements += 1
                continue
            if verdict.regular != verdict.independent:
                disagreements += 1
        origin = kostant_criterion(L, cas, prof, pts[-1])
        out[name] = {"checked": len(pts), "disagreements": disagreements,
                     "origin_regular": origin.regular,
                     "origin_independent": origin.independent}
    # dual of 3*h2 pairs with a semisimple element of diag(1,1,-2) type:
    # the doubled eigenvalue inflates the stabilizer to dimension 4, so
    # the orbit has dimension 4 < 6 and the point is singular.
    singular = (0, 0, 0, 0, 3, 0, 0, 0)
    prof3 = estimate_index(SL3, seed=103, bound=bound)
    verdict = kostant_criterion(SL3, classical_casimirs("sl", 3), prof3, singular)
    out["sl3"]["checked"] += 1
    out["sl3_singular"] = {"kirillov_rank": verdict.kirillov_rank,
                           "regular": verdict.regular,
                           "independent": verdict.independent}
    return out


def test_criterion_03():
    with _criterion(3, "regularity and independence agree at 203 points"):
        v = criterion_3(9)
        assert v == {
            "sl2": {"checked": 101, "disagreements": 0,
                    "origin_regular": False, "origin_independent": False},
            "sl3": {"checked": 102, "disagreements": 0,
                    "origin_regular": False, "origin_independent": False},
            "sl3_singular": {"kirillov_rank": 4, "regular": False,
                             "independent": False},
        }
        VERDICTS[3] = v


# criterion 4: hand-derived sl2 micro-oracle, reproduced bit-exactly
#
# Basis (e, h, f) with [h,e] = 2e, [h,f] = -2f, [e,f] = h, coordinates
# (x_e, x_h, x_f).  Casimir C = x_h^2 + 4*x_e*x_f.  Shifting the
# argument along xi = (1,0,0) replaces x_e by x_e + a:
#   C(x + a*xi) = x_h^2 + 4*(x_e + a)*x_f
#               = (x_h^2 + 4*x_e*x_f) + a*(4*x_f),
# so the family is exactly {x_h^2 + 4*x_e*x_f, 4*x_f}.
# The form K_xi has entries <xi, [x_i, x_j]>; with xi dual to e only
# [e,h] = -2e and [h,e] = 2e contribute:
#   K = [[0, -2, 0], [2, 0, 0], [0, 0, 0]], rank 2.
# At eta = (0,1,0) the gradients are dC = (4*x_f, 2*x_h, 4*x_e)|_eta
# = (0, 2, 0) and d(4*x_f) = (0, 0, 4): independent rows, rank 2.

def criterion_4(bound: int) -> dict:
    del bound  # nothing here is sampled
    xi = (1, 0, 0)
    names = [f"x_{n}" for n in SL2.basis_names]
    x_e = MPoly.variable(3, 0)
    x_h = MPoly.variable(3, 1)
    x_f = MPoly.variable(3, 2)
    fam = build_family(SL2, [x_h * x_h + 4 * x_e * x_f], xi)
    expected = [x_h * x_h + 4 * x_e * x_f, 4 * x_f]
    return {
        "members": tuple(m.poly.pretty(names) for m in fam.members),
        "members_match_hand_expansion":
            [m.poly for m in fam.members] == expected,
        "powers": tuple(m.power for m in fam.members),
        "kirillov_matrix": tuple(tuple(rat_str(x) for x in row)
                                 for row in kirillov(SL2, xi).matrix.to_lists()),
        "kirillov_rank": kirillov(SL2, xi).rank,
        "jacobian_rank_at_eta": jacobian_rank(fam.polys, (0, 1, 0)),
    }


def test_criterion_04():
    with _criterion(4, "hand-derived sl2 micro-oracle reproduced exactly"):
        v = criterion_4(9)
        assert v == {
            "members": ("4*x_e*x_f + x_h^2", "4*x_f"),
            "members_match_hand_expansion": True,
            "powers": (0, 1),
            "kirillov_matrix": (("0", "-2", "0"), ("2", "0", "0"),
                                ("0", "0", "0")),
            "kirillov_rank": 2,
            "jacobian_rank_at_eta": 2,
        }
        VERDICTS[4] = v


# criterion 5: codimension-two certificates, with one refusal

def criterion_5(bound: int) -> dict:
    out = {}
    cases = (("sl2", SL2), ("sl3", SL3), ("takiff_sl2_1", make_takiff(SL2, 1)),
             ("contraction", make_sl2_so2_contraction()))
    for name, L in cases:
        prof = estimate_index(L, seed=105, bound=bound)
        out[name] = certify_codim2(L, prof, seed=105, bound=bound).ok
    single = make_vinberg([1])
    prof = estimate_index(single, seed=105, bound=bound)
    cert = certify_codim2(single, prof, seed=105, bound=bound)
    x_v1 = MPoly.variable(single.dim, 1)
    out["vinberg_single"] = {
        "ok": cert.ok,
        "witness": cert.witness_pretty,
        "witness_divisible_by_x_v1":
            cert.witness is not None and try_divide(cert.witness, x_v1) is not None,
    }
    pair = make_vinberg([1, 2])
    out["vinberg_pair_ind"] = estimate_index(pair, seed=105, bound=bound).ind
    return out


def test_criterion_05():
    with _criterion(5, "codimension-two certificates and refusal witness"):
        v = criterion_5(9)
        assert v == {
            "sl2": True, "sl3": True, "takiff_sl2_1": True,
            "contraction": True,
            "vinberg_single": {"ok": False, "witness": "x_v1^2",
                               "witness_divisible_by_x_v1": True},
            "vinberg_pair_ind": 1,
        }
        VERDICTS[5] = v


# criterion 6: Takiff lifts of the sl2 Casimir give a rank-4 family

def criterion_6(bound: int) -> dict:
    tak = make_takiff(SL2, 1)
    prof = estimate_index(tak, seed=106, bound=bound)
    lifts = takiff_lift(SL2, classical_casimirs("sl", 2).generators[0], 1)
    cas = CasimirSet.verified(tak, lifts, seed=106, bound=bound)
    dp = degree_profile(cas, prof)
    xi = _sample_regular(tak, prof, "c6-takiff", bound)
    bols = verify_bols(tak, cas, prof, xi, seed=106)
    fam = build_family(tak, cas, xi)
    return {
        "dim": tak.dim, "ind": prof.ind, "b": prof.b_q,
        "lifts": len(lifts),
        "lifts_are_casimirs": all(is_casimir(tak, p).ok for p in lifts),
        "degrees": cas.degrees, "classification": dp.classification,
        "bols_ok": bols.ok, "members": len(fam.members),
        "family_rank": _best_rank(fam.polys, tak.dim, prof.b_q,
                                  "c6-eta", bound),
    }


def test_criterion_06():
    with _criterion(6, "Takiff lifts give an exact-profile family of rank 4"):
        v = criterion_6(9)
        assert v == {
            "dim": 6, "ind": 2, "b": 4, "lifts": 2,
            "lifts_are_casimirs": True, "degrees": (2, 2),
            "classification": "EXACT", "bols_ok": True, "members": 4,
            "family_rank": 4,
        }
        VERDICTS[6] = v


# criterion 7: maximal dimension without inclusion-maximality

def criterion_7(bound: int) -> dict:
    con = make_sl2_so2_contraction()
    prof = estimate_index(con, seed=107, bound=bound)
    names = [f"x_{n}" for n in con.basis_names]
    x_p = MPoly.variable(3, 1)
    x_r = MPoly.variable(3, 2)
    cas = CasimirSet.verified(con, [x_p * x_p + x_r * x_r],
                              seed=107, bound=bound)
    xi = (0, 1, 0)
    fam = build_family(con, cas, xi)
    witness = find_nonmaximality_witness(fam)
    assert witness is not None
    commutes = all(bracket(con, witness, p).is_zero()
                   and frozen_bracket(con, xi, witness, p).is_zero()
                   for p in fam.polys)
    return {
        "members": tuple(m.poly.pretty(names) for m in fam.members),
        "b": prof.b_q,
        "family_rank": _best_rank(fam.polys, con.dim, prof.b_q,
                                  "c7-eta", bound),
        "witness": witness.pretty(names),
        "witness_commutes_both_brackets": commutes,
        "witness_outside_degree_one": nonmembership_linear(fam, witness),
    }


def test_criterion_07():
    with _criterion(7, "non-maximality witness on the sl2/so2 contraction"):
        v = criterion_7(9)
        assert v == {
            "members": ("x_p^2 + x_r^2", "2*x_p"),
            "b": 2, "family_rank": 2, "witness": "x_r",
            "witness_commutes_both_brackets": True,
            "witness_outside_degree_one": True,
        }
        VERDICTS[7] = v


# criterion 8: skew pencil suite

def _random_skew(rng, n, bound):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-bound, bound))
            rows[i][j] = v
            rows[j][i] = -v
    return rows


def criterion_8(bound: int) -> dict:
    pencil = SkewPencil.from_kirillov(SL2, (1, 0, 0), (0, 0, 1))
    analysis = verify_com1(pencil)
    L = compute_L(pencil)
    sl2_part = {
        "kind": analysis.kind,
        "L_basis": tuple(tuple(rat_str(x) for x in v) for v in L.basis),
        "L_equals_Ltilde": analysis.L_dim == analysis.Ltilde_dim,
        "isotropic": analysis.isotropic,
    }

    # two 2x2 Jordan blocks, eigenvalues 0 and 1, embedded skewly
    A = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    B = [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, -1, 0, 0]]
    block = SkewPencil.from_matrices(A, B)
    banalysis = verify_com1(block)
    ar, br = banalysis.A_ratio, banalysis.B_ratio
    cross = all(
        rank_kernel(block.member(br[0] - lam * ar[0],
                                 br[1] - lam * ar[1]))[0] < 4
        for lam, _ in banalysis.eigenvalues)
    block_part = {
        "kind": banalysis.kind,
        "eigenvalues": tuple((rat_str(lam), mult)
                             for lam, mult in banalysis.eigenvalues),
        "eigendirections_singular": cross,
    }

    checked = precondition = conclusion = 0
    for n in (5, 7):
        for trial in range(25):
            rng = rng_stream(4108, "acceptance", "c8", n, trial)
            pencil = SkewPencil.from_matrices(_random_skew(rng, n, bound),
                                              _random_skew(rng, n, bound))
            checked += 1
            profile = rank_profile(pencil)
            if profile.m != n - 1 or len(profile.regular_ratios()) != len(profile.ranks):
                continue
            precondition += 1
            analysis = verify_com1(pencil)
            if (analysis.kind == "kronecker"
                    and analysis.L_dim == (n + 1) // 2
                    and analysis.Ltilde_dim == analysis.L_dim
                    and analysis.isotropic):
                conclusion += 1
    return {
        "sl2": sl2_part, "block": block_part,
        "random": {"checked": checked, "precondition_holds": precondition,
                   "conclusion_holds": conclusion},
    }


def test_criterion_08():
    with _criterion(8, "pencil suite: kronecker, jordan blocks, 50 random"):
        t0 = time.perf_counter()
        v = criterion_8(9)
        elapsed = time.perf_counter() - t0
        assert v == {
            "sl2": {"kind": "kronecker",
                    "L_basis": (("1", "0", "0"), ("0", "0", "1")),
                    "L_equals_Ltilde": True, "isotropic": True},
            "block": {"kind": "jordan-mixed",
                      "eigenvalues": (("0", 2), ("1", 2)),
                      "eigendirections_singular": True},
            "random": {"checked": 50, "precondition_holds": 50,
                       "conclusion_holds": 50},
        }
        assert v["random"]["conclusion_holds"] == v["random"]["precondition_holds"]
        assert elapsed < 60.0
        VERDICTS[8] = v


# criterion 9: semidirect index formula spot check on sl2 acting on k^8

def _block_diag(m: MatQ, copies: int) -> MatQ:
    rows = m.to_lists()
    n = len(rows)
    big = [[Fraction(0)] * (n * copies) for _ in range(n * copies)]
    for c in range(copies):
        for i in range(n):
            for j in range(n):
                big[c * n + i][c * n + j] = rows[i][j]
    return MatQ(big)


def criterion_9(bound: int) -> dict:
    rho = [_block_diag(m, 4) for m in classical_matrix_basis("sl", 2)]
    sd = make_semidirect(SL2, rho)
    prof = estimate_index(sd, trials=30, seed=109, bound=bound)
    report = semidirect_index_report(SL2, rho, trials=20, seed=9109,
                                     bound=bound)
    zero = [MatQ([[Fraction(0)] * 2 for _ in range(2)]) for _ in range(3)]
    trivial = semidirect_index_report(SL2, zero, trials=20, seed=9109,
                                      bound=bound)
    return {
        "dim": sd.dim, "dim_g": report["dim_g"], "dim_v": report["dim_v"],
        "estimated_ind": prof.ind,
        "formula_applies": report["formula_applies"],
        "predicted_ind": report["predicted_ind"],
        "prediction_matches": report["predicted_ind"] == prof.ind,
        "trivial_rep": {
            "formula_applies": trivial["formula_applies"],
            "predicted_ind": trivial["predicted_ind"],
            "declines_honestly": "not established" in trivial["note"],
        },
    }


def test_criterion_09():
    with _criterion(9, "semidirect index formula spot check (ind = 8 - 3)"):
        v = criterion_9(9)
        assert v == {
            "dim": 11, "dim_g": 3, "dim_v": 8, "estimated_ind": 5,
            "formula_applies": True, "predicted_ind": 5,
            "prediction_matches": True,
            "trivial_rep": {"formula_applies": False, "predicted_ind": None,
                            "declines_honestly": True},
        }
        VERDICTS[9] = v


# criterion 10: verdicts are invariant under the sampling height bound

HELPERS = {1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
           5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
           9: criterion_9}


def test_criterion_10():
    with _criterion(10, "all verdicts identical at sampling bound 99"):
        for num, helper in HELPERS.items():
            base = VERDICTS.get(num) or helper(9)
            wide = helper(99)
            assert wide == base, f"criterion {num} verdict changed at bound 99"
