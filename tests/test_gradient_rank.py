"""Integer gradient ranks against the Fraction route.

`gradient_rank` evaluates gradients on integer rows, each a positive
multiple of the true gradient, and with a shift direction xi takes the
rows grad f(eta + a xi), a = 0, ..., deg f - 1, in place of the shift
family's member gradients.  The oracle is the route it replaced: every
partial evaluated in Fractions, and for shifts the family expanded by
`build_family`, its rank taken by `exactlin.rank_kernel`.  The integer entry
`mpoly._gradient_rank`, which takes numerators over one denominator, is
also held against sympy's rank of the shifted gradients.
"""

from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from argshift.exactlin import MatQ, rank_kernel
from argshift.liealg import (LieAlgebraData, make_classical, make_sl2_so2_contraction,
                             make_takiff)
from argshift.mfshift import build_family
from argshift.mpoly import MPoly, _gradient_rank, gradient_rank, gradient_table
from argshift.poisson import CasimirSet, classical_casimirs, takiff_lift
from argshift.sampling import rng_stream
from oracles import grad_at, integer_point, to_sympy


def fraction_jacobian_rank(polys, pt):
    if not polys:
        return 0
    return rank_kernel(MatQ([grad_at(p, pt) for p in polys]))[0]


def family_rank(L, gens, xi, eta):
    """Rank at eta of the differentials of the shift family built at xi."""
    return fraction_jacobian_rank(build_family(L, gens, xi).polys, eta)


def shifted_rank(gens, xi, eta):
    return gradient_rank(gradient_table(gens), eta, xi)


# --- the integer Jacobian -----------------------------------------------------

NVARS = 3
coeff = st.one_of(st.integers(-5, 5),
                  st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
exponents = st.tuples(*[st.integers(0, 3)] * NVARS)
polys = st.dictionaries(exponents, coeff, max_size=5).map(lambda t: MPoly(NVARS, t))
point = st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
                 min_size=NVARS, max_size=NVARS)


@settings(max_examples=150, deadline=None)
@given(st.lists(polys, min_size=1, max_size=3), point)
def test_integer_jacobian_matches_fraction_route(ps, pt):
    # the linear form whose coefficients are grad ps[0](pt) has that
    # gradient too: a dependency that holds only at pt, which a row
    # scaled wrongly on some terms of a non-homogeneous ps[0] breaks
    ps = ps + [MPoly.linear_form(grad_at(ps[0], pt))]
    assert gradient_rank(gradient_table(ps), pt) == fraction_jacobian_rank(ps, pt)


SYMPY_NVARS = 5


def sympy_shifted_rank(ps, eta, xi=None):
    """sympy's rank of the rows grad f(eta + a xi), a = 0, ..., deg f - 1,
    or of grad f(eta) with no direction."""
    syms = sympy.symbols(f"x0:{SYMPY_NVARS}")
    rows = []
    for p in ps:
        f = to_sympy(p, syms)
        grads = [sympy.diff(f, x) for x in syms]
        for a in range(p.degree() if xi is not None else 1):
            at = eta if xi is None else [e + a * x for e, x in zip(eta, xi)]
            sub = {x: sympy.Rational(v.numerator, v.denominator) for x, v in zip(syms, at)}
            rows.append([g.subs(sub) for g in grads])
    return sympy.Matrix(rows).rank() if rows else 0


# monomials of degree at most 3, as multisets of variables; polynomials
# whose terms have at least two degrees, at most 4 shifted rows in all
monomials = st.lists(st.integers(0, SYMPY_NVARS - 1), max_size=3).map(
    lambda vs: tuple(vs.count(i) for i in range(SYMPY_NVARS)))
non_homogeneous = (st.dictionaries(monomials, coeff.filter(bool), min_size=2, max_size=4)
                   .filter(lambda t: len({sum(e) for e in t}) > 1)
                   .map(lambda t: MPoly(SYMPY_NVARS, t)))
numerators = st.lists(st.integers(-6, 6), min_size=SYMPY_NVARS, max_size=SYMPY_NVARS)


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(st.lists(non_homogeneous, min_size=1, max_size=2).filter(
           lambda ps: sum(p.degree() for p in ps) <= 4),
       numerators, numerators, st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True))
def test_integer_gradient_rank_matches_fraction_route_and_sympy(ps, pnum, xnum, dens):
    # eta and xi have different denominators, so the shared D scales the
    # terms of each non-homogeneous f by D^(deg f - deg e) unevenly.  The
    # linear form with gradient grad ps[0](eta + xi) adds a dependency
    # that holds only at the exact point, among at most 5 rows in 5
    # variables, so a row scaled wrongly on some terms shows in the rank
    eta = [Fraction(x, dens[0]) for x in pnum]
    xi = [Fraction(x, dens[1]) for x in xnum]
    ps = ps + [MPoly.linear_form(grad_at(ps[0], [e + x for e, x in zip(eta, xi)]))]
    table = gradient_table(ps)
    D = lcm(*dens)
    P, X = ([int(x * D) for x in v] for v in (eta, xi))
    for direction, nums in ((None, None), (xi, X)):
        want = sympy_shifted_rank(ps, eta, direction)
        assert gradient_rank(table, eta, direction) == want
        assert _gradient_rank(table, P, nums, D) == want
        # any common denominator gives the same rank
        assert _gradient_rank(table, [3 * x for x in P],
                              None if nums is None else [3 * x for x in nums], 3 * D) == want


def test_non_homogeneous_rows_are_scaled_per_term():
    # grad (x0^2 + x1) = (2 x0, 1) and grad (x0 + x1) = (1, 1) meet at
    # x0 = 1/2; on integer rows, x1 needs the factor D = 2 that x0^2 has
    x0, x1 = MPoly.variable(2, 0), MPoly.variable(2, 1)
    gens = [x0 * x0 + x1, x0 + x1]
    eta = (Fraction(1, 2), Fraction(0))
    assert gradient_rank(gradient_table(gens), eta) == fraction_jacobian_rank(gens, eta) == 1
    assert gradient_rank(gradient_table(gens), (Fraction(1, 3), Fraction(0))) == 2
    L = LieAlgebraData.abelian(2)
    xi = (Fraction(0), Fraction(1))
    assert shifted_rank(gens, xi, eta) == family_rank(L, gens, xi, eta) == 1


def test_empty_and_mismatched_inputs():
    x = MPoly.variable(3, 0)
    assert gradient_rank(gradient_table([]), (0, 1, 0)) == 0
    assert gradient_rank(gradient_table([MPoly.zero(3), MPoly.one(3)]), (1, 2, 3)) == 0
    with pytest.raises(ValueError, match="point length"):
        gradient_rank(gradient_table([x]), (1, 2))
    with pytest.raises(ValueError, match="direction length"):
        gradient_rank(gradient_table([x]), (1, 2, 3), (1, 2))


# --- shifted gradients against the expanded family ---------------------------

def _takiff_case(level):
    base = make_classical("sl", 2)
    T = make_takiff(base, level)
    lifts = [p for g in classical_casimirs("sl", 2).generators
             for p in takiff_lift(base, g, level)]
    return T, CasimirSet.verified(T, lifts).generators


def _contraction_case():
    L = make_sl2_so2_contraction()
    x = [MPoly.variable(3, i) for i in range(3)]
    return L, (x[1] * x[1] + x[2] * x[2],)


CASES = {
    "sl2": lambda: (make_classical("sl", 2), classical_casimirs("sl", 2).generators),
    "sl3": lambda: (make_classical("sl", 3), classical_casimirs("sl", 3).generators),
    "gl3": lambda: (make_classical("gl", 3), classical_casimirs("gl", 3).generators),
    "takiff_sl2_1": lambda: _takiff_case(1),
    "takiff_sl2_2": lambda: _takiff_case(2),
    "contraction": _contraction_case,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_shifted_rank_matches_family_rank(name):
    L, gens = CASES[name]()
    b = sum(p.degree() for p in gens)
    seen = set()
    for t in range(6):
        rng = rng_stream(17, "shifted-rank", name, t)
        xi = integer_point(rng, L.dim, 5)
        eta = integer_point(rng, L.dim, 5)
        if t % 2:
            # points with denominators
            xi = tuple(x / rng.randint(1, 4) for x in xi)
            eta = tuple(x / rng.randint(1, 4) for x in eta)
        want = family_rank(L, gens, xi, eta)
        assert shifted_rank(gens, xi, eta) == want
        assert gradient_rank(gradient_table(build_family(L, gens, xi).polys), eta) == want
        seen.add(want)
    # eta on the line of xi: the family's differentials drop rank there
    for scale in (Fraction(2), Fraction(-1, 3)):
        eta = tuple(scale * x for x in xi)
        want = family_rank(L, gens, xi, eta)
        assert shifted_rank(gens, xi, eta) == want
        seen.add(want)
    assert min(seen) < b


@pytest.mark.parametrize("name", ["sl2", "sl3", "gl3", "takiff_sl2_1"])
def test_shifted_rank_at_singular_directions(name):
    L, gens = CASES[name]()
    rng = rng_stream(5, "singular-xi", name)
    eta = integer_point(rng, L.dim, 5)
    # xi = 0 is singular, and so is the first basis vector of these
    # algebras beyond sl2 (a root vector of sl3, E11 in gl3)
    directions = [(0,) * L.dim]
    if name != "sl2":
        directions.append(tuple(int(i == 0) for i in range(L.dim)))
    for xi in directions:
        xi = tuple(Fraction(x) for x in xi)
        want = family_rank(L, gens, xi, eta)
        assert shifted_rank(gens, xi, eta) == want
        assert want < sum(p.degree() for p in gens)


def test_shifted_rank_sl3_subregular_direction():
    # diag(1, 1, -2) under the trace form: the family at it loses rank
    L, gens = CASES["sl3"]()
    xi = tuple(Fraction(x) for x in (0, 0, 0, 0, 3, 0, 0, 0))
    for t in range(3):
        eta = integer_point(rng_stream(3, "subregular", t), L.dim, 5)
        want = family_rank(L, gens, xi, eta)
        assert shifted_rank(gens, xi, eta) == want < 5


def test_shifted_rank_non_homogeneous_generator():
    # f mixes term degrees 3, 2, 1 and 0; at points with denominators its
    # three shifted rows need per-term scales, and the linear g, whose
    # gradient is grad f(eta + xi), adds a dependency that holds only there
    x = [MPoly.variable(5, i) for i in range(5)]
    f = x[0] * x[0] * x[1] + x[2] * x[3] - 3 * x[4] + MPoly.const(5, Fraction(1, 2))
    L = LieAlgebraData.abelian(5)
    for t in range(8):
        rng = rng_stream(23, "non-homogeneous", t)
        xi = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(5))
        eta = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(5))
        g = MPoly.linear_form(grad_at(f, [e + s for e, s in zip(eta, xi)]))
        assert shifted_rank([f, g], xi, eta) == family_rank(L, [f, g], xi, eta)
