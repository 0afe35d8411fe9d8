"""Shift-family tests against hand-expanded oracles.

sl(2) with C = x_h^2 + 4 x_e x_f, shifted along xi = (1, 0, 0):
    C(x + a*xi) = x_h^2 + 4 (x_e + a) x_f = C + 4 x_f a,
so the family members are C and 4 x_f.  Along (0, 1, 0):
    (x_h + a)^2 + 4 x_e x_f = C + 2 x_h a + a^2,
giving members C and 2 x_h.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argshift.exactlin import MatQ, SubspaceQ, rank_kernel
from argshift.liealg import (AlgebraProfile, LieAlgebraData, make_classical,
                             make_sl2_so2_contraction, make_takiff)
from argshift.mfshift import (DEFICIT, EXACT, EXCESS, build_family, certify_commutative,
                              degree_profile, find_nonmaximality_witness,
                              linear_member_span, nonmembership_linear)
from argshift.mpoly import MPoly
from argshift.poisson import (CasimirSet, bracket, classical_casimirs, estimate_index,
                              frozen_bracket, is_casimir, takiff_lift)
from argshift.sampling import rng_stream
from oracles import integer_point, partial, shift_chain_holds

SL2 = make_classical("sl", 2)
X_E = MPoly.variable(3, 0)
X_H = MPoly.variable(3, 1)
X_F = MPoly.variable(3, 2)
CAS = X_H * X_H + 4 * X_E * X_F


def test_build_family_sl2_oracle():
    fam = build_family(SL2, [CAS], (1, 0, 0))
    assert fam.polys == (CAS, 4 * X_F)
    assert [(m.generator_index, m.power) for m in fam.members] == [(0, 0), (0, 1)]
    fam_h = build_family(SL2, [CAS], (0, 1, 0))
    assert fam_h.polys == (CAS, 2 * X_H)


def test_build_family_accepts_casimir_set():
    cs = CasimirSet.verified(SL2, [CAS])
    fam = build_family(SL2, cs, (1, 0, 0))
    assert len(fam) == 2


def test_build_family_zero_direction():
    # all shifts vanish identically; only the generators remain
    fam = build_family(SL2, [CAS], (0, 0, 0))
    assert fam.polys == (CAS,)


def test_build_family_linear_generator():
    fam = build_family(SL2, [X_E], (1, 2, 3))
    assert fam.polys == (X_E,)


def test_build_family_rejects_bad_input():
    with pytest.raises(ValueError):
        build_family(SL2, [], (1, 0, 0))
    with pytest.raises(ValueError):
        build_family(SL2, [MPoly.zero(3)], (1, 0, 0))
    with pytest.raises(ValueError):
        build_family(SL2, [CAS], (1, 0))


def test_certify_commutative_sl2():
    fam = build_family(SL2, [CAS], (1, 0, 0))
    cert = certify_commutative(fam)
    assert cert.ok
    assert cert.pairs_checked == 1
    assert cert.failures == ()


def test_certify_commutative_sl3():
    sl3 = make_classical("sl", 3)
    cs = classical_casimirs("sl", 3)
    fam = build_family(sl3, cs, (1, 2, 3, 4, 5, 6, 7, 8))
    assert len(fam) == 5
    cert = certify_commutative(fam)
    assert cert.ok
    assert cert.pairs_checked == 10


def test_certify_commutative_detects_failure():
    fam = build_family(SL2, [X_E, X_H], (1, 0, 0))
    cert = certify_commutative(fam)
    assert not cert.ok
    assert cert.method == "pairwise"
    assert cert.failures == pairwise_oracle(fam)
    # {x_e, x_h} = -2 x_e fails the lie-poisson route; frozen at
    # (1, 0, 0) gives <xi, [e, h]> = -2 as well
    assert (0, 1, "lie-poisson") in cert.failures
    assert (0, 1, "frozen") in cert.failures


def test_degree_profile_exact():
    cs = CasimirSet.verified(SL2, [CAS])
    prof = estimate_index(SL2)
    dp = degree_profile(cs, prof)
    assert (dp.b_q, dp.sum_degrees, dp.classification) == (2, 2, EXACT)


def test_degree_profile_mismatched_count():
    cs = CasimirSet.verified(SL2, [])
    with pytest.raises(ValueError, match="need ind = 1"):
        degree_profile(cs, estimate_index(SL2))


def test_degree_profile_deficit_and_excess():
    cs = CasimirSet.verified(SL2, [CAS])
    assert degree_profile(cs, AlgebraProfile.declared(5, 1)).classification == DEFICIT
    assert degree_profile(cs, AlgebraProfile.declared(1, 1)).classification == EXCESS


def contraction_family():
    q = make_sl2_so2_contraction()
    x_p = MPoly.variable(3, 1)
    x_r = MPoly.variable(3, 2)
    c = x_p * x_p + x_r * x_r
    fam = build_family(q, [c], (0, 1, 0))
    return q, fam, x_p, x_r


def test_contraction_family_members():
    q, fam, x_p, x_r = contraction_family()
    c = x_p * x_p + x_r * x_r
    assert fam.polys == (c, 2 * x_p)
    assert certify_commutative(fam).ok
    # degree data alone promises maximal dimension...
    cs = CasimirSet.verified(q, [c])
    dp = degree_profile(cs, estimate_index(q))
    assert dp.classification == EXACT


def test_contraction_nonmaximality_witness():
    q, fam, x_p, x_r = contraction_family()
    w = find_nonmaximality_witness(fam)
    # ...yet x_r commutes with the family and is not a member
    assert w == x_r
    for p in fam.polys:
        assert bracket(q, w, p).is_zero()
    assert nonmembership_linear(fam, w)


def test_sl2_family_has_no_witness():
    fam = build_family(SL2, [CAS], (1, 0, 0))
    assert find_nonmaximality_witness(fam) is None


@pytest.mark.parametrize("k, want", [(0, 1), (1, 0), (2, 0)])
def test_witness_is_the_first_canonical_commutant_vector_outside_the_span(k, want):
    # on an abelian algebra every linear form commutes; the members of
    # x_k^2 shifted along e_k span x_k alone, so the witness is the first
    # other coordinate in pivot order
    ab = LieAlgebraData(3, ["a", "b", "c"], {})
    x = [MPoly.variable(3, i) for i in range(3)]
    fam = build_family(ab, [x[k] * x[k]], [int(i == k) for i in range(3)])
    assert fraction_linear_commutant(ab, fam.polys).dim == 3
    assert find_nonmaximality_witness(fam) == x[want]


def test_nonmembership_linear():
    q, fam, x_p, x_r = contraction_family()
    assert nonmembership_linear(fam, x_r)
    assert not nonmembership_linear(fam, x_p)
    assert not nonmembership_linear(fam, Fraction(1, 3) * x_p)


def test_nonmembership_requires_homogeneous():
    one = MPoly.const(3, 1)
    x_p = MPoly.variable(3, 1)
    x_r = MPoly.variable(3, 2)
    q = make_sl2_so2_contraction()
    fam = build_family(q, [x_p * x_p + x_r * x_r + one], (0, 1, 0))
    with pytest.raises(ValueError, match="homogeneous"):
        nonmembership_linear(fam, x_r)
    with pytest.raises(ValueError, match="homogeneous"):
        find_nonmaximality_witness(fam)


def test_linear_member_span():
    fam = build_family(SL2, [CAS], (1, 0, 0))
    span = linear_member_span(fam)
    assert span.dim == 1
    assert span.contains((0, 0, 7))
    assert not span.contains((1, 0, 0))


def test_linear_commutant_oracle():
    # {y, x_e} = 0 forces y into span{x_e}: the h and f components
    # produce 2 x_e and -x_h respectively; x_e spans the family's own
    # linear members, so nothing is left to witness
    assert fraction_linear_commutant(SL2, [X_E]) == SubspaceQ.span([(1, 0, 0)], 3)
    assert find_nonmaximality_witness(build_family(SL2, [X_E], (1, 2, 3))) is None


def test_linear_commutant_abelian_is_everything():
    ab = LieAlgebraData(2, ["a", "b"], {})
    x = [MPoly.variable(2, i) for i in range(2)]
    assert fraction_linear_commutant(ab, [x[0]]) == SubspaceQ.full(2)
    assert find_nonmaximality_witness(build_family(ab, [x[0]], (1, 0))) == x[1]
    assert find_nonmaximality_witness(build_family(ab, x, (1, 0))) is None


# --- the Casimir pencil against the chain and the pairwise route ------------

def pairwise_oracle(family):
    """Failures of the pair-by-pair check, in the order the pairwise
    route reports them."""
    L, polys = family.algebra, family.polys
    failures = []
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not bracket(L, polys[i], polys[j]).is_zero():
                failures.append((i, j, "lie-poisson"))
            if not frozen_bracket(L, family.xi, polys[i], polys[j]).is_zero():
                failures.append((i, j, "frozen"))
    return tuple(failures)


def fraction_linear_commutant(L, polys):
    """The linear commutant from {x_i, p} = sum_j C(i, j) d_j p written
    with MPoly arithmetic, and rank_kernel on Fraction rows."""
    rows = []
    for p in polys:
        per_var = []
        for i in range(L.dim):
            acc = MPoly.zero(L.dim)
            for j in range(L.dim):
                form = MPoly.linear_form([L.bracket_coeffs(i, j).get(k, 0)
                                          for k in range(L.dim)])
                acc = acc + form * partial(p, j)
            per_var.append(acc)
        for mono in sorted(set().union(*(q.terms for q in per_var))):
            rows.append([q.terms.get(mono, Fraction(0)) for q in per_var])
    if not rows:
        return SubspaceQ.full(L.dim)
    return rank_kernel(MatQ(rows))[1]


def _contraction():
    q = make_sl2_so2_contraction()
    x = [MPoly.variable(3, i) for i in range(3)]
    return q, [x[1] * x[1] + x[2] * x[2]]


def _takiff(level):
    base = make_classical("sl", 2)
    T = make_takiff(base, level)
    return T, takiff_lift(base, classical_casimirs("sl", 2).generators[0], level)


FAMILIES = {
    "sl2": lambda: (SL2, [CAS]),
    "sl3": lambda: (make_classical("sl", 3), classical_casimirs("sl", 3).generators),
    "sl4": lambda: (make_classical("sl", 4), classical_casimirs("sl", 4).generators),
    "gl3": lambda: (make_classical("gl", 3), classical_casimirs("gl", 3).generators),
    "takiff_sl2_1": lambda: _takiff(1),
    "takiff_sl2_2": lambda: _takiff(2),
    "contraction": _contraction,
}


def seeded_family(name, t):
    L, gens = FAMILIES[name]()
    xi = integer_point(rng_stream(0, "shift-chain", name, t), L.dim, 5)
    return build_family(L, gens, xi)


def assert_member_scans_agree(fam):
    """all_homogeneous and linear_member_span, which read the generators
    and the powers, against a scan of every member's terms."""
    homogeneous = all(m.poly.is_homogeneous() for m in fam.members)
    assert fam.all_homogeneous() == homogeneous
    if homogeneous:
        rows = []
        for m in fam.members:
            if m.poly.degree() == 1:
                row = [0] * fam.algebra.dim
                for exps, c in m.poly.num.items():
                    row[exps.index(1)] = c
                rows.append(row)
        assert linear_member_span(fam) == SubspaceQ(fam.algebra.dim, rows)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(FAMILIES)), st.data())
def test_the_chain_holds_exactly_when_the_generators_are_casimirs(name, data):
    # x_v added to a generator (v drawn or None) makes it no Casimir on
    # these algebras, so both sides are drawn; the chain on the expanded
    # members, the Casimir check on the generators and the route
    # certify_commutative takes must agree
    L, gens = FAMILIES[name]()
    gens = list(gens)
    v = data.draw(st.none() | st.integers(0, L.dim - 1))
    if v is not None:
        gens[-1] = gens[-1] + MPoly.variable(L.dim, v)
    xi = data.draw(st.lists(st.integers(-5, 5), min_size=L.dim, max_size=L.dim))
    fam = build_family(L, gens, xi)
    assert_member_scans_agree(fam)
    casimirs = all(is_casimir(L, f).ok for f in gens)
    cert = certify_commutative(fam)
    assert shift_chain_holds(fam) == casimirs == (cert.method == "casimir-pencil")
    assert cert.pairs_checked == len(fam) * (len(fam) - 1) // 2
    if casimirs:
        assert cert.ok and cert.failures == ()
        if name != "sl4":
            assert pairwise_oracle(fam) == ()


@pytest.mark.parametrize("name", list(FAMILIES))
def test_chain_verdict_equals_pairwise(name):
    for t in range(2 if name == "sl4" else 3):
        fam = seeded_family(name, t)
        assert shift_chain_holds(fam)
        cert = certify_commutative(fam)
        assert cert.ok and cert.method == "casimir-pencil"
        assert cert.pairs_checked == len(fam) * (len(fam) - 1) // 2
        assert pairwise_oracle(fam) == ()


@pytest.mark.parametrize("name", ["sl2", "sl3", "gl3", "takiff_sl2_1", "contraction"])
def test_perturbed_generator_fails_the_chain(name):
    # a Casimir plus x_0 is no Casimir: the chain fails at {x_i, f_0},
    # and the pairwise route decides the verdict
    L, gens = FAMILIES[name]()
    gens = list(gens)
    gens[0] = gens[0] + MPoly.variable(L.dim, 0)
    xi = integer_point(rng_stream(0, "perturbed", name), L.dim, 5)
    fam = build_family(L, gens, xi)
    assert not shift_chain_holds(fam)
    cert = certify_commutative(fam)
    assert cert.method == "pairwise"
    assert not cert.ok and cert.failures == pairwise_oracle(fam)
    assert cert.pairs_checked == len(fam) * (len(fam) - 1) // 2


def oracle_witness(family):
    """The first canonical basis vector of the Fraction-route commutant,
    in pivot order, outside the span of the degree-one members."""
    span = linear_member_span(family)
    com = fraction_linear_commutant(family.algebra, family.polys)
    return next((MPoly.linear_form(v) for v in com.basis if not span.contains(v)), None)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_linear_commutant_matches_fraction_route(name):
    fam = seeded_family(name, 0)
    assert_member_scans_agree(fam)
    want = oracle_witness(fam)
    assert find_nonmaximality_witness(fam) == want


def test_linear_commutant_matches_fraction_route_on_random_polys():
    # homogeneous generators that are no Casimirs: the linear members
    # need not commute with the family, and the stop rule must not
    # assume they do
    sl3 = make_classical("sl", 3)
    outside = 0
    for t in range(8):
        rng = rng_stream(0, "commutant", t)
        gens = []
        for _ in range(rng.randint(1, 3)):
            deg, terms = rng.randint(1, 3), {}
            for _ in range(rng.randint(1, 4)):
                e = [0] * sl3.dim
                for _ in range(deg):
                    e[rng.randrange(sl3.dim)] += 1
                terms[tuple(e)] = Fraction(rng.randint(1, 5) * rng.choice((-1, 1)),
                                           rng.randint(1, 3))
            gens.append(MPoly(sl3.dim, terms))
        xi = integer_point(rng, sl3.dim, 3)
        fam = build_family(sl3, gens, xi)
        assert_member_scans_agree(fam)
        # a constant makes the last generator, and so the family, non-homogeneous
        mixed = build_family(sl3, [*gens[:-1], gens[-1] + MPoly.one(sl3.dim)], xi)
        assert_member_scans_agree(mixed)
        assert not mixed.all_homogeneous()
        com = fraction_linear_commutant(sl3, fam.polys)
        outside += not linear_member_span(fam).is_subspace_of(com)
        assert find_nonmaximality_witness(fam) == oracle_witness(fam)
    assert outside


GL2 = make_classical("gl", 2)
Y = [MPoly.variable(4, i) for i in range(4)]


@pytest.mark.parametrize("L, gens, xi, want", [
    (SL2, [CAS], (0, 0, 0), X_E),               # S = 0, and CAS commutes with every x_i
    (SL2, [X_E * X_F], (0, 0, 0), X_H),         # S = 0, commutant span{x_h}
    (SL2, [X_E * X_H], (0, 0, 0), None),        # S = 0, commutant 0
    (SL2, [X_E, X_H, X_F], (1, 2, 3), None),    # S = the whole space
    # x_12 and x_21 do not commute, so their rows reach rank 3, past
    # dim - dim S = 2, while the trace form commutes with both: a stop
    # at that rank would miss the witness
    (GL2, [Y[1], Y[2]], (1, 0, 0, 1), Y[0] + Y[3]),
])
def test_witness_edge_cases(L, gens, xi, want):
    fam = build_family(L, gens, xi)
    assert find_nonmaximality_witness(fam) == want == oracle_witness(fam)


def test_the_contraction_witness_reads_every_member_action(coadjoint_reads):
    # a witness exists, so the walk never stops early: both members of
    # the sl2/so2 family are read, and x_r comes out
    q, fam, x_p, x_r = contraction_family()
    assert find_nonmaximality_witness(fam) == x_r
    assert coadjoint_reads == [len(fam)] == [2]
