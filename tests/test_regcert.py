"""Regularity certificate tests.

Hand-worked singular point for sl(3): the functional that is 3 on the
second diagonal coweight and 0 elsewhere.  Only [e13, f31] and
[e23, f32] have a component there, so the skew form has exactly two
symmetric pairs of nonzero entries and rank 4 < 6.
"""

import json
import time
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from argshift import exactlin, jsonio, mfshift, mpoly, poisson, regcert, skewpencil
from argshift.liealg import AlgebraProfile, LieAlgebraData, make_centralizer_sl, \
    make_classical, make_sl2_so2_contraction, make_takiff, make_vinberg
from argshift.mfshift import build_family
from argshift.mpoly import MPoly
from argshift.poisson import CasimirSet, classical_casimirs, estimate_index, takiff_lift
from argshift.regcert import (Codim2Certificate, FalsificationError, PlaneCertificate,
                              PlaneSpec, certify_codim2, certify_regular_plane,
                              find_regular_plane, generic_kirillov, is_regular,
                              jacobian_rank, kostant_criterion, verify_bols,
                              verify_compl, _pfaffian, _pfaffian_gcd)
from argshift.sampling import rng_stream
from oracles import integer_point, stream_minor_gcd, to_sympy

SL2 = make_classical("sl", 2)
SL2_PROFILE = estimate_index(SL2)
X_E = MPoly.variable(3, 0)
X_H = MPoly.variable(3, 1)
X_F = MPoly.variable(3, 2)
CAS = X_H * X_H + 4 * X_E * X_F
SL2_CASIMIRS = CasimirSet.verified(SL2, [CAS])


def heisenberg() -> LieAlgebraData:
    return LieAlgebraData(3, ["e", "f", "z"], {(0, 1): {2: Fraction(1)}})


def test_generic_kirillov_sl2():
    K = generic_kirillov(SL2)
    assert K[0][1] == -2 * X_E
    assert K[0][2] == X_H
    assert K[1][2] == -2 * X_F
    assert K[1][0] == 2 * X_E
    assert K[0][0].is_zero()


def test_is_regular_sl2():
    assert is_regular(SL2, SL2_PROFILE, (0, 1, 0))
    assert is_regular(SL2, SL2_PROFILE, (1, 0, 0))
    assert not is_regular(SL2, SL2_PROFILE, (0, 0, 0))


def test_profile_mismatch_rejected():
    with pytest.raises(ValueError):
        is_regular(SL2, AlgebraProfile.declared(4, 2), (0, 1, 0))
    with pytest.raises(ValueError):
        is_regular(SL2, AlgebraProfile.declared(3, 2), (0, 1, 0))


def test_jacobian_rank():
    assert jacobian_rank([CAS], (0, 1, 0)) == 1
    assert jacobian_rank([CAS], (0, 0, 0)) == 0
    assert jacobian_rank([], (0, 1, 0)) == 0


def test_kostant_agreement_sl2():
    v = kostant_criterion(SL2, SL2_CASIMIRS, SL2_PROFILE, (0, 1, 0))
    assert v.regular and v.independent
    assert v.kirillov_rank == 2 and v.jacobian_rank == 1
    v0 = kostant_criterion(SL2, SL2_CASIMIRS, SL2_PROFILE, (0, 0, 0))
    assert not v0.regular and not v0.independent


def test_kostant_premise_errors():
    empty = CasimirSet.verified(SL2, [])
    with pytest.raises(ValueError, match="needs ind"):
        kostant_criterion(SL2, empty, SL2_PROFILE, (0, 1, 0))
    squared = CasimirSet.verified(SL2, [CAS * CAS])
    with pytest.raises(ValueError, match="degree sum"):
        kostant_criterion(SL2, squared, SL2_PROFILE, (0, 1, 0))


def test_kostant_falsification_on_bogus_generators():
    # x_e^2 is not central; smuggle it past verification to show the
    # dual routes really are compared
    bogus = CasimirSet(3, (X_E * X_E,), (2,), None)
    with pytest.raises(FalsificationError) as exc:
        kostant_criterion(SL2, bogus, SL2_PROFILE, (0, 1, 0))
    bundle = exc.value.bundle
    assert json.loads(jsonio.dumps(bundle)) == bundle
    assert bundle["kirillov_rank"] == 2
    assert bundle["jacobian_rank"] == 0


def test_sl3_singular_point_oracle():
    sl3 = make_classical("sl", 3)
    prof = estimate_index(sl3)
    assert (prof.dim, prof.ind) == (8, 2)
    pt = (0, 0, 0, 0, 3, 0, 0, 0)
    from argshift.poisson import kirillov
    assert kirillov(sl3, pt).rank == 4
    assert not is_regular(sl3, prof, pt)
    cs = classical_casimirs("sl", 3)
    v = kostant_criterion(sl3, cs, prof, pt)
    assert not v.regular and not v.independent


def test_kostant_many_points_never_disagrees():
    heis = heisenberg()
    # sl(2) is singular only at the origin; the nilpotent algebra is
    # singular on the whole plane x_z = 0, so the sweep must hit both
    # verdicts there without ever raising
    cases = [
        (SL2, SL2_CASIMIRS, SL2_PROFILE, False),
        (heis, CasimirSet.verified(
            heis, [MPoly.variable(3, 2) * MPoly.variable(3, 2)]),
         estimate_index(heis), True),
    ]
    for L, cs, prof, expect_singular in cases:
        rng = rng_stream(5, "criterion-sweep", L.dim)
        saw_singular = False
        for _ in range(200):
            pt = integer_point(rng, L.dim, 3)
            v = kostant_criterion(L, cs, prof, pt)
            saw_singular = saw_singular or not v.regular
        assert saw_singular == expect_singular
        kostant_criterion(L, cs, prof, (0,) * L.dim)


def test_certify_regular_plane_sl2():
    cert = certify_regular_plane(SL2, SL2_PROFILE, (1, 0, 0), (0, 0, 1))
    assert cert.ok
    assert cert.m == 2
    assert cert.singular_directions == ()


def test_certify_regular_plane_rejects_dependent():
    with pytest.raises(ValueError, match="dependent"):
        certify_regular_plane(SL2, SL2_PROFILE, (1, 0, 0), (-2, 0, 0))


def test_contraction_plane_singular_direction():
    q = make_sl2_so2_contraction()
    prof = estimate_index(q)
    # plane through the p-axis and the torus axis: the torus direction
    # (0 : 1) is singular because the form vanishes on it entirely
    cert = certify_regular_plane(q, prof, (0, 1, 0), (1, 0, 0))
    assert not cert.ok
    assert cert.gcd_degree == 2
    assert cert.singular_directions == ((Fraction(0), Fraction(1)),)
    assert cert.residual_degree == 0
    good = certify_regular_plane(q, prof, (0, 1, 0), (0, 0, 1))
    assert good.ok


def test_vinberg_plane_rational_direction():
    vin = make_vinberg((1,))
    prof = estimate_index(vin)
    assert prof.ind == 0
    cert = certify_regular_plane(vin, prof, (1, 0), (0, 1))
    assert not cert.ok
    # det of the pencil is b^2: the singular direction is (1 : 0)
    assert cert.singular_directions == ((Fraction(1), Fraction(0)),)


def test_abelian_everything_trivially_regular():
    ab = LieAlgebraData(2, ["a", "b"], {})
    prof = estimate_index(ab)
    assert is_regular(ab, prof, (1, 1))
    assert certify_regular_plane(ab, prof, (1, 0), (0, 1)).ok
    assert certify_codim2(ab, prof).ok
    cs = CasimirSet.verified(ab, [MPoly.variable(2, 0), MPoly.variable(2, 1)])
    v = kostant_criterion(ab, cs, prof, (3, 4))
    assert v.regular and v.independent


@pytest.mark.parametrize("name", ["sl3", "abelian"])
def test_a_plane_certificate_walks_the_table_once(monkeypatch, name):
    # sl3 takes the pencil route, the abelian algebra the m = 0 branch
    L = SL3 if name == "sl3" else LieAlgebraData(3, ["a", "b", "c"], {})
    prof = estimate_index(L)
    xi, eta = (1, -2, 3, 0, 1, 2, -1, 1)[:L.dim], (2, 1, -1, 3, 0, 1, 1, -2)[:L.dim]
    want = certify_regular_plane(L, prof, xi, eta)
    walks, walk = [], poisson._kirillov_walk

    def counted(L):
        walks.append(L)
        return walk(L)
    for module in (poisson, skewpencil, regcert):
        if hasattr(module, "_kirillov_walk"):
            monkeypatch.setattr(module, "_kirillov_walk", counted)
    assert certify_regular_plane(L, prof, xi, eta) == want
    assert want.ok and len(walks) == 1


def test_certify_codim2_pass_cases():
    assert certify_codim2(SL2, SL2_PROFILE).ok
    q = make_sl2_so2_contraction()
    assert certify_codim2(q, estimate_index(q)).ok
    sl3 = make_classical("sl", 3)
    cert = certify_codim2(sl3, estimate_index(sl3))
    assert cert.ok
    assert cert.method == "plane" and cert.pfaffians_checked == 0


def test_certify_codim2_vinberg_witness():
    vin = make_vinberg((1,))
    cert = certify_codim2(vin, estimate_index(vin))
    assert not cert.ok
    assert cert.method == "symbolic"
    assert cert.witness_pretty == "x_v1^2"


def test_certify_codim2_heisenberg_witness():
    heis = heisenberg()
    cert = certify_codim2(heis, estimate_index(heis))
    assert not cert.ok
    assert cert.witness_pretty == "x_z^2"


def test_certify_codim2_deterministic():
    sl3 = make_classical("sl", 3)
    prof = estimate_index(sl3)
    a = certify_codim2(sl3, prof, seed=3)
    b = certify_codim2(sl3, prof, seed=3)
    assert a.as_dict() == b.as_dict()
    c = certify_codim2(sl3, prof, seed=4)
    assert c.ok == a.ok


# --- the Pfaffian gcd against the minor-gcd oracle ----------------------------

def direct_sum(A: LieAlgebraData, B: LieAlgebraData) -> LieAlgebraData:
    """A + B: B's basis follows A's, with primed names."""
    n = A.dim
    table = {(i, j): dict(c) for i, j, c in A.pairs()}
    for i, j, c in B.pairs():
        table[(i + n, j + n)] = {k + n: x for k, x in c.items()}
    return LieAlgebraData(n + B.dim, list(A.basis_names)
                          + [f"{nm}'" for nm in B.basis_names], table)


V1 = make_vinberg([1])
PFAFFIAN_ALGEBRAS = {
    "sl2": make_classical("sl", 2),
    "sl3": make_classical("sl", 3),
    "gl2": make_classical("gl", 2),
    "so3": make_classical("so", 3),
    "takiff_sl2_1": make_takiff(make_classical("sl", 2), 1),
    "z_sl5_32": make_centralizer_sl(5, [3, 2]),
    "z_sl4_211": make_centralizer_sl(4, [2, 1, 1]),
    "vinberg_1": V1,
    "vinberg_1_2": make_vinberg([1, 2]),
    "contraction": make_sl2_so2_contraction(),
    "heisenberg": heisenberg(),
    "v1+v1": direct_sum(V1, V1),
    "v1+sl2": direct_sum(V1, make_classical("sl", 2)),
    "vinberg_1_2+v1": direct_sum(make_vinberg([1, 2]), V1),
    "v1+sl3": direct_sum(V1, make_classical("sl", 3)),
}


def shell_order(sets):
    """Pairs of index sets; the first k^2 pairs are those among the first
    k sets, so a constant gcd there ends the stream early."""
    for k, I in enumerate(sets):
        yield I, I
        for J in sets[:k]:
            yield I, J
            yield J, I


# the v1+sl3 minor stream takes about 9 s
@pytest.mark.parametrize("name", [pytest.param(k, marks=pytest.mark.slow) if k == "v1+sl3" else k
                                  for k in PFAFFIAN_ALGEBRAS])
def test_pfaffian_gcd_squared_is_the_minor_gcd(name):
    L = PFAFFIAN_ALGEBRAS[name]
    m = L.dim - estimate_index(L).ind
    K = generic_kirillov(L)
    g, _ = _pfaffian_gcd(K, m)
    minors, _ = stream_minor_gcd(K, shell_order(list(combinations(range(L.dim), m))))
    assert g * g == minors


@st.composite
def skew_matrices(draw):
    n = draw(st.sampled_from([2, 4, 6]))
    entry = st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                            st.integers(-3, 3), max_size=2).map(lambda t: MPoly(2, t))
    K = [[MPoly.zero(2) for _ in range(n)] for _ in range(n)]
    for i, j in combinations(range(n), 2):
        K[i][j] = draw(entry)
        K[j][i] = -K[i][j]
    return K


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(skew_matrices())
def test_pfaffian_squared_is_the_determinant(K):
    syms = sympy.symbols("x0:2")
    S = sympy.Matrix([[to_sympy(p, syms) for p in row] for row in K])
    pf = to_sympy(_pfaffian(K, tuple(range(len(K))), {}), syms)
    assert sympy.expand(pf ** 2 - S.det(method="berkowitz")) == 0


@pytest.mark.parametrize("family", ["sl", "gl"])
def test_codim2_symbolic_route_on_a_direct_sum(family):
    # every sample plane meets the divisor x_v1 = 0, so the Pfaffians
    # decide; the minor stream took about 20 s here
    L = direct_sum(V1, make_classical(family, 3))
    profile = estimate_index(L)
    started = time.perf_counter()
    cert = certify_codim2(L, profile)
    assert time.perf_counter() - started < 1.0
    assert not cert.ok and cert.method == "symbolic"
    assert cert.witness_pretty == "x_v1^2"
    assert cert.witness == MPoly.variable(L.dim, 1) ** 2


def test_find_regular_plane():
    res = find_regular_plane(SL2, SL2_PROFILE)
    assert res.found
    assert res.certificate.ok
    assert res.spec is not None
    heis = heisenberg()
    bad = find_regular_plane(heis, estimate_index(heis), attempts=5)
    assert not bad.found
    assert bad.attempts_used == 5
    assert bad.certificate is not None and not bad.certificate.ok


def test_verify_compl_sl2():
    res = find_regular_plane(SL2, SL2_PROFILE)
    verdict = verify_compl(SL2, SL2_CASIMIRS, SL2_PROFILE, res.spec,
                           certificate=res.certificate)
    assert verdict.ok
    assert verdict.pairs_checked == 8
    assert verdict.required_rank == 2
    assert all(rank == 2 for _, _, rank in verdict.rows)
    assert verdict.star_rank == 1
    # every recorded pair is genuinely non-proportional
    for r1, r2, _ in verdict.rows:
        assert r1[0] * r2[1] - r1[1] * r2[0] != 0


def test_verify_compl_recomputes_certificate():
    spec = PlaneSpec(tuple(map(Fraction, (1, 0, 0))),
                     tuple(map(Fraction, (0, 0, 1))))
    assert verify_compl(SL2, SL2_CASIMIRS, SL2_PROFILE, spec).ok


def test_verify_compl_premises():
    spec = PlaneSpec(tuple(map(Fraction, (1, 0, 0))),
                     tuple(map(Fraction, (0, 0, 1))))
    with pytest.raises(ValueError, match="need ind"):
        verify_compl(SL2, CasimirSet.verified(SL2, []), SL2_PROFILE, spec)
    q = make_sl2_so2_contraction()
    x_p, x_r = MPoly.variable(3, 1), MPoly.variable(3, 2)
    qcs = CasimirSet.verified(q, [x_p * x_p + x_r * x_r])
    bad_spec = PlaneSpec(tuple(map(Fraction, (0, 1, 0))),
                         tuple(map(Fraction, (1, 0, 0))))
    with pytest.raises(ValueError, match="not certified regular"):
        verify_compl(q, qcs, estimate_index(q), bad_spec)


SL3 = make_classical("sl", 3)
SL3_CASIMIRS = classical_casimirs("sl", 3)
# a regular sl3 point with denominator 2, and the singular point diag(1, 1, -2) / 2
SL3_HALF_XI = tuple(Fraction(x) for x in "1/2 -1 3/2 2 0 -5/2 1 3".split())
SL3_HALF_SUBREGULAR = tuple(Fraction(x) for x in "0 0 0 0 3/2 0 0 0".split())


def _refuse_fraction_points(monkeypatch):
    """Make PlaneSpec.point, and kirillov and vec at every binding site,
    raise: a sampled route that runs on integer points never calls them."""
    def refused(*args, **kwargs):
        raise AssertionError("a sampled route made a Fraction point")
    monkeypatch.setattr(PlaneSpec, "point", refused)
    for module in (exactlin, mpoly, poisson, mfshift, skewpencil, regcert):
        for name in ("kirillov", "vec"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)


@pytest.mark.parametrize("name", ["sl3", "takiff_sl2_1"])
def test_passing_sampled_routes_never_make_fraction_points(monkeypatch, name):
    if name == "sl3":
        L, cas = SL3, SL3_CASIMIRS
    else:
        L = make_takiff(SL2, 1)
        cas = CasimirSet.verified(L, [p for g in SL2_CASIMIRS.generators
                                      for p in takiff_lift(SL2, g, 1)])
    prof = estimate_index(L)
    fractional = PlaneSpec(SL3_HALF_XI, tuple(Fraction(x, 3) for x in range(1, 9)))

    def runs():
        plane = find_regular_plane(L, prof, seed=4)
        out = [plane.as_dict(), certify_codim2(L, prof, seed=4).as_dict(),
               verify_compl(L, cas, prof, plane.spec, plane.certificate, nsamples=4).as_dict()]
        if name == "sl3":
            out.append(verify_compl(L, cas, prof, fractional, nsamples=4, seed=2).as_dict())
        return out
    want = runs()
    assert want[0]["found"] and want[1]["method"] == "plane"
    _refuse_fraction_points(monkeypatch)
    assert runs() == want
    with pytest.raises(AssertionError, match="Fraction point"):
        is_regular(L, prof, (1,) * L.dim)
    with pytest.raises(AssertionError, match="Fraction point"):
        fractional.point(1, 0)


def test_verify_compl_falsifies_a_lying_certificate_at_a_singular_pair_point():
    # (8, 1) is the first pair ratio drawn at seed 0 and bound 9 (the
    # pinned sl3 `reg compl` report starts with it): the point
    # 8 xi + eta is the singular diag(1, 1, -2) / 2 on this plane
    eta = tuple(s - 8 * x for x, s in zip(SL3_HALF_XI, SL3_HALF_SUBREGULAR))
    spec = PlaneSpec(SL3_HALF_XI, eta)
    prof = estimate_index(SL3)
    assert not certify_regular_plane(SL3, prof, spec.xi, spec.eta).ok
    lying = PlaneCertificate(True, 6, 0)
    with pytest.raises(FalsificationError, match="certified-regular plane point is singular") as exc:
        verify_compl(SL3, SL3_CASIMIRS, prof, spec, lying)
    bundle = exc.value.bundle
    assert bundle["ratio"] == ["8", "1"]
    assert bundle["point"] == ["0", "0", "0", "0", "3/2", "0", "0", "0"]
    assert bundle["kirillov_rank"] == 4 and bundle["generic_rank"] == 6
    assert bundle["spec"] == {"xi": ["1/2", "-1", "3/2", "2", "0", "-5/2", "1", "3"],
                              "eta": ["-4", "8", "-12", "-16", "3/2", "20", "-8", "-24"]}
    assert json.loads(jsonio.dumps(bundle)) == bundle


def test_verify_compl_falsifies_bogus_generators():
    # x_e^2 is not central; every family built from it stays rank <= 1
    spec = PlaneSpec(tuple(map(Fraction, (1, 0, 0))),
                     tuple(map(Fraction, (0, 0, 1))))
    bogus = CasimirSet(3, (X_E * X_E,), (2,), None)
    with pytest.raises(FalsificationError) as exc:
        verify_compl(SL2, bogus, SL2_PROFILE, spec)
    assert json.loads(jsonio.dumps(exc.value.bundle)) == exc.value.bundle
    assert exc.value.bundle["required_rank"] == 2
    assert exc.value.bundle["jacobian_rank"] < 2
    # the failure path still reports the size of the family at the pair
    xi = tuple(Fraction(x) for x in exc.value.bundle["xi"])
    assert exc.value.bundle["members"] == len(build_family(SL2, bogus, xi))


def test_verify_bols_pass():
    verdict = verify_bols(SL2, SL2_CASIMIRS, SL2_PROFILE, (1, 0, 0))
    assert verdict.ok
    assert verdict.codim2.ok
    q = make_sl2_so2_contraction()
    x_p, x_r = MPoly.variable(3, 1), MPoly.variable(3, 2)
    qcs = CasimirSet.verified(q, [x_p * x_p + x_r * x_r])
    assert verify_bols(q, qcs, estimate_index(q), (0, 1, 0)).ok


def test_verify_bols_failure_branches():
    vin = make_vinberg((1,))
    vd = verify_bols(vin, CasimirSet.verified(vin, []), estimate_index(vin),
                     (1, 1))
    assert not vd.ok and vd.degree_classification == "DEFICIT"
    heis = heisenberg()
    z2 = MPoly.variable(3, 2) * MPoly.variable(3, 2)
    hv = verify_bols(heis, CasimirSet.verified(heis, [z2]),
                     estimate_index(heis), (0, 0, 1))
    assert not hv.ok and hv.degree_classification == "EXACT"
    assert not hv.codim2_ok
    assert hv.codim2.witness_pretty == "x_z^2"
    sl2_bad_point = verify_bols(SL2, SL2_CASIMIRS, SL2_PROFILE, (0, 0, 0))
    assert not sl2_bad_point.ok and sl2_bad_point.codim2_ok
    assert not sl2_bad_point.xi_regular


def test_verify_bols_accepts_precomputed_certificate():
    cert = certify_codim2(SL2, SL2_PROFILE)
    verdict = verify_bols(SL2, SL2_CASIMIRS, SL2_PROFILE, (0, 1, 0),
                          codim2=cert)
    assert verdict.ok
    assert verdict.codim2 is cert
