"""Polynomial layer tests.

The worked quadratic below is C = x_h^2 + 4*x_e*x_f in coordinates
ordered (x_e, x_h, x_f).  Hand expansions used as frozen oracles:

  C(mu + a*(1,0,0)) = mu_h^2 + 4*(mu_e + a)*mu_f = C(mu) + (4*mu_f)*a + 0*a^2
  C(mu + a*(0,1,0)) = (mu_h + a)^2 + 4*mu_e*mu_f = C(mu) + (2*mu_h)*a + 1*a^2
"""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from argshift.mpoly import (
    MPoly,
    determinant,
    exact_divide,
    poly_gcd,
    rational_roots,
    try_divide,
)
from argshift.jsonio import poly_from_json, poly_to_json
from oracles import (evaluate, fraction_add, fraction_mul, fraction_param_expand, grad_at,
                     partial, to_sympy)

C = MPoly(3, {(0, 2, 0): 1, (1, 0, 1): 4})


NAMES = ["x_e", "x_h", "x_f"]


def rand_poly(rng, nvars=3, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[e] = rng.randint(-9, 9)
    return MPoly(nvars, terms)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.integers(-9, 9),
    min_size=0,
    max_size=4,
).map(lambda t: MPoly(3, t))


def test_basic_arithmetic_and_display():
    x = MPoly.variable(3, 0)
    y = MPoly.variable(3, 1)
    assert (x + y) * (x - y) == x * x - y * y
    assert (2 * x) * Fraction(1, 2) == x
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert C.pretty(NAMES) == "4*x_e*x_f + x_h^2"
    assert MPoly.zero(3).pretty() == "0"


def test_string_coefficients_build_the_integer_form_and_render_from_it():
    p = MPoly(2, {(1, 0): "-1/2", (0, 1): "3/2", (0, 0): "1", (1, 1): "0"})
    assert p == MPoly._make(2, {(1, 0): -1, (0, 1): 3, (0, 0): 2}, 2)
    assert (p.num, p.den) == ({(1, 0): -1, (0, 1): 3, (0, 0): 2}, 2)
    assert p.pretty() == "-1/2*x0 + 3/2*x1 + 1"
    q = MPoly(2, {(2, 0): "1/2", (0, 1): "-1"})
    assert (q.num, q.den) == ({(2, 0): 1, (0, 1): -2}, 2)
    assert q.pretty(["a", "b"]) == "1/2*a^2 - b"


def test_degree_and_homogeneity():
    assert C.degree() == 2 and C.is_homogeneous()
    assert MPoly.zero(3).degree() == -1
    assert not (C + MPoly.one(3)).is_homogeneous()


def test_partial_and_evaluate_oracles():
    # grad C = (4 x_f, 2 x_h, 4 x_e); at (0,1,0) this is (0,2,0)
    assert grad_at(C, [0, 1, 0]) == (0, 2, 0)
    assert evaluate(C, [1, 0, 1]) == 4
    assert partial(C, 0) == MPoly(3, {(0, 0, 1): 4})


def test_param_expand_frozen_oracles():
    f0, f1, f2 = C.param_expand([1, 0, 0])
    assert f0 == C
    assert f1 == MPoly(3, {(0, 0, 1): 4})
    assert f2.is_zero()

    g0, g1, g2 = C.param_expand([0, 1, 0])
    assert g0 == C
    assert g1 == MPoly(3, {(0, 1, 0): 2})
    assert g2 == MPoly.const(3, 1)

    with pytest.raises(ValueError):
        MPoly.zero(3).param_expand([1, 0, 0])


def test_param_expand_reconstruction_identity():
    rng = random.Random(7)
    for _ in range(20):
        f = rand_poly(rng)
        if f.is_zero():
            continue
        xi = [rng.randint(-9, 9) for _ in range(3)]
        mu = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        parts = f.param_expand(xi)
        shifted = [m + a * x for m, x in zip(mu, xi)]
        assert sum(evaluate(p, mu) * a ** j for j, p in enumerate(parts)) == evaluate(f, shifted)


def test_param_expand_symmetry_for_homogeneous_inputs():
    # for homogeneous f of degree d: f_xi^j(mu) = f_mu^(d-j)(xi)
    rng = random.Random(11)
    cubic = MPoly(3, {(3, 0, 0): 2, (1, 1, 1): -5, (0, 2, 1): 3})
    for f in (C, cubic):
        d = f.degree()
        for _ in range(20):
            xi = [rng.randint(-5, 5) for _ in range(3)]
            mu = [rng.randint(-5, 5) for _ in range(3)]
            at_xi = f.param_expand(xi)
            at_mu = f.param_expand(mu)
            for j in range(d + 1):
                assert evaluate(at_xi[j], mu) == evaluate(at_mu[d - j], xi)


def test_param_expand_top_coefficient_is_differential():
    # f_xi^(d-1) is the linear form  x -> grad f(xi) . x  for homogeneous f
    xi = [2, -1, 3]
    parts = C.param_expand(xi)
    grad = grad_at(C, xi)
    assert parts[1] == MPoly.linear_form(grad)


def test_exact_division():
    x = MPoly.variable(2, 0)
    y = MPoly.variable(2, 1)
    f = (x + y) * (x - 2 * y)
    assert try_divide(f, x + y) == x - 2 * y
    assert try_divide(f, x + 3 * y) is None
    assert exact_divide(MPoly.zero(2), x).is_zero()


def test_gcd_oracles():
    x = MPoly.variable(2, 0)
    y = MPoly.variable(2, 1)
    assert poly_gcd([x * x, x * y]) == x
    assert poly_gcd([x * x, y * y]) == MPoly.one(2)
    assert poly_gcd([(x + y) ** 2 * x, (x + y) * y]) == x + y
    # single argument, normalized monic under grlex
    assert poly_gcd([3 * x * y]) == x * y
    with pytest.raises(ValueError):
        poly_gcd([MPoly.zero(2), MPoly.zero(2)])


def test_gcd_contraction_minors_oracle():
    # minors of the contracted 3x3 form: gcd(4 x_r^2, -4 x_p x_r, 4 x_p^2) = 1
    p = MPoly.variable(2, 0)
    r = MPoly.variable(2, 1)
    assert poly_gcd([4 * r * r, -4 * p * r, 4 * p * p]) == MPoly.one(2)
    assert poly_gcd([4 * r * r, -4 * p * r]) == r
    assert poly_gcd([MPoly.zero(2), r * r]) == r * r


def test_gcd_divides_inputs_and_sees_common_factors():
    rng = random.Random(23)
    for _ in range(15):
        h = rand_poly(rng, max_terms=2, max_exp=2)
        a = rand_poly(rng, max_terms=2, max_exp=2)
        b = rand_poly(rng, max_terms=2, max_exp=2)
        if h.is_zero() or a.is_zero() or b.is_zero():
            continue
        g = poly_gcd([h * a, h * b])
        assert try_divide(h * a, g) is not None
        assert try_divide(h * b, g) is not None
        # the common factor h divides the gcd
        assert try_divide(g, h.monic()) is not None or h.is_constant()


def test_gcd_multivariate_three_vars():
    x, y, z = (MPoly.variable(3, i) for i in range(3))
    h = x + y + z
    f = h * (x * x + y)
    g = h * (y * z - 2 * x)
    assert poly_gcd([f, g]) == h


def test_determinant_oracles():
    x = MPoly.variable(2, 0)
    y = MPoly.variable(2, 1)
    zero = MPoly.zero(2)
    assert determinant([[x, y], [y, x]]) == x * x - y * y
    assert determinant([[x, y], [2 * x, 2 * y]]).is_zero()
    # skew 3x3 has zero determinant
    assert determinant([[zero, x, y], [-x, zero, x], [-y, -x, zero]]).is_zero()
    # hand expansion of a dense 3x3 with constant row
    one = MPoly.one(2)
    m = [[one, x, y], [x, one, zero], [y, zero, one]]
    assert determinant(m) == one - x * x - y * y


def test_determinant_matches_cofactor_on_random_matrices():
    rng = random.Random(5)

    def cofactor(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        acc = MPoly.zero(rows[0][0].nvars)
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = rows[0][j] * cofactor(minor)
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    for _ in range(8):
        rows = [[rand_poly(rng, nvars=2, max_terms=2, max_exp=1) for _ in range(3)]
                for _ in range(3)]
        assert determinant(rows) == cofactor(rows)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_product_rule(f, g):
    fg = f * g
    for i in range(3):
        assert partial(fg, i) == partial(f, i) * g + f * partial(g, i)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_evaluate_is_a_ring_homomorphism(f, g):
    pt = [Fraction(1, 2), Fraction(-3), Fraction(2, 5)]
    assert evaluate(f + g, pt) == evaluate(f, pt) + evaluate(g, pt)
    assert evaluate(f * g, pt) == evaluate(f, pt) * evaluate(g, pt)


# --- the integer core against the Fraction route and sympy --------------------

fracs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
rat_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    fracs, min_size=0, max_size=4,
).map(lambda t: MPoly(3, t))
wide_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=2 ** 32)
SYMS = sympy.symbols("x0:3")


def _canonical(p):
    # lowest terms: a positive denominator sharing no factor with every numerator
    assert p.den > 0 and gcd(p.den, *p.num.values()) == 1
    assert all(isinstance(c, int) and c for c in p.num.values())
    return p.num, p.den, hash(p)


@settings(max_examples=60, deadline=None)
@given(rat_polys, rat_polys, wide_fracs, st.integers(0, 3))
def test_ring_operations_match_the_fraction_route_and_sympy(f, g, c, k):
    neg_g = {e: -v for e, v in g.terms.items()}
    power = {(0, 0, 0): Fraction(1)}
    for _ in range(k):
        power = fraction_mul(power, f.terms)
    cases = [(f + g, fraction_add(f.terms, g.terms), to_sympy(f, SYMS) + to_sympy(g, SYMS)),
             (f - g, fraction_add(f.terms, neg_g), to_sympy(f, SYMS) - to_sympy(g, SYMS)),
             (f * g, fraction_mul(f.terms, g.terms), to_sympy(f, SYMS) * to_sympy(g, SYMS)),
             (f * c, fraction_mul(f.terms, {(0, 0, 0): c}),
              to_sympy(f, SYMS) * sympy.Rational(c.numerator, c.denominator)),
             (f ** k, power, to_sympy(f, SYMS) ** k)]
    for got, want, expr in cases:
        _canonical(got)
        assert got.terms == want
        assert sympy.expand(to_sympy(got, SYMS) - expr) == 0


@settings(max_examples=60, deadline=None)
@given(rat_polys, rat_polys)
def test_monic_and_exact_division_match_sympy(f, g):
    for p in (f, g):
        if not p.is_zero():
            lead = p.leading()[1]
            assert p.monic().terms == {e: v / lead for e, v in p.terms.items()}
            assert p.monic().leading()[1] == 1
            _canonical(p.monic())
    if g.is_zero():
        return
    q = try_divide(f * g, g)
    assert q == f and _canonical(q) == _canonical(f)
    F, G = to_sympy(f, SYMS), to_sympy(g, SYMS)
    quo, rem = sympy.div(F, G, *SYMS)
    got = try_divide(f, g)
    # one divisor is a Groebner basis of the ideal it generates, so the
    # remainder is zero exactly when g divides f
    assert (got is None) == (rem != 0)
    if got is not None:
        _canonical(got)
        assert sympy.expand(to_sympy(got, SYMS) - quo) == 0


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(rat_polys.filter(lambda p: not p.is_zero()), st.lists(wide_fracs, min_size=3, max_size=3))
def test_param_expand_matches_the_fraction_route_and_sympy(f, xi):
    shifts = f.param_expand(xi)
    assert [p.terms for p in shifts] == fraction_param_expand(f.terms, xi)
    for p in shifts:
        _canonical(p)
    a = sympy.Symbol("a")
    shifted = to_sympy(f, SYMS).subs(
        {x: x + a * sympy.Rational(v.numerator, v.denominator) for x, v in zip(SYMS, xi)},
        simultaneous=True)
    assert sympy.expand(sum(to_sympy(p, SYMS) * a ** j for j, p in enumerate(shifts))
                        - shifted) == 0


@settings(max_examples=60, deadline=None)
@given(rat_polys, rat_polys, wide_fracs.filter(lambda c: c != 0))
def test_equal_polynomials_have_one_representation(f, g, c):
    routes = [f, (f + g) - g, (f * c) * (1 / c), MPoly(3, f.terms), -(-f),
              MPoly(3, {e: Fraction(v.numerator * 6, v.denominator * 6)
                        for e, v in f.terms.items()}),
              poly_from_json(poly_to_json(f), 3)]
    if not g.is_zero():
        routes.append(try_divide(f * g, g))
    want = _canonical(f)
    for p in routes:
        assert p == f and _canonical(p) == want
    # f's linear part from Fraction, string and zero coefficients
    units = [tuple(int(j == i) for j in range(3)) for i in range(3)]
    coeffs = [f.terms.get(u, 0) for u in units]
    lin = MPoly(3, dict(zip(units, coeffs)))
    for form in (MPoly.linear_form(coeffs), MPoly.linear_form([str(c) for c in coeffs])):
        assert form == lin and _canonical(form) == _canonical(lin)


# --- sympy differential tests for gcd and determinant ------------------------

def bivariate_polys(max_terms):
    return st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           st.fractions(min_value=-9, max_value=9, max_denominator=4),
                           min_size=1, max_size=max_terms).map(lambda t: MPoly(2, t))


@st.composite
def homogeneous_pairs(draw):
    # binary forms with a common factor
    def form(max_degree):
        d = draw(st.integers(0, max_degree))
        return MPoly(2, draw(st.dictionaries(
            st.integers(0, d).map(lambda i: (i, d - i)),
            st.fractions(min_value=-9, max_value=9, max_denominator=4),
            min_size=1, max_size=3)))
    common = form(2)
    return common * form(3), common * form(3)


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(bivariate_polys(3), bivariate_polys(3), bivariate_polys(2), small_polys, small_polys,
       homogeneous_pairs())
def test_poly_gcd_matches_sympy(a, b, common, f3, g3, forms):
    for f, g in ((common * a, common * b), (f3, g3), forms):
        if f.is_zero() or g.is_zero():
            continue
        syms = sympy.symbols(f"x0:{f.nvars}")
        ratio = sympy.cancel(sympy.gcd(to_sympy(f, syms), to_sympy(g, syms))
                             / to_sympy(poly_gcd([f, g]), syms))
        assert ratio.is_number and ratio != 0


def univariate_coeffs(max_terms):
    return st.dictionaries(st.integers(0, 3),
                           st.fractions(min_value=-9, max_value=9, max_denominator=4),
                           min_size=1, max_size=max_terms)


def in_variable(coeffs, nvars, v):
    """The univariate polynomial with these coefficients, in x_v of an
    nvars-variable ring."""
    return MPoly(nvars, {tuple(k if i == v else 0 for i in range(nvars)): c
                         for k, c in coeffs.items()})


@settings(max_examples=40, deadline=None)
@given(univariate_coeffs(3), univariate_coeffs(3), univariate_coeffs(2), st.integers(0, 2))
def test_univariate_poly_gcd_is_the_monic_sympy_gcd(a, b, common, v):
    # one variable of support, alone in its ring and among three
    for nvars, var in ((1, 0), (3, v)):
        c = in_variable(common, nvars, var)
        f, g = c * in_variable(a, nvars, var), c * in_variable(b, nvars, var)
        if f.is_zero() or g.is_zero():
            continue
        syms = sympy.symbols(f"x0:{nvars}")
        want = sympy.Poly(sympy.gcd(to_sympy(f, syms), to_sympy(g, syms)), *syms).monic()
        assert sympy.expand(to_sympy(poly_gcd([f, g]), syms) - want.as_expr()) == 0


@st.composite
def poly_matrices(draw):
    q = draw(st.integers(1, 4))
    return [[draw(bivariate_polys(2) | st.just(MPoly.zero(2))) for _ in range(q)]
            for _ in range(q)]


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(poly_matrices())
def test_determinant_matches_sympy(rows):
    syms = sympy.symbols("x0:2")
    S = sympy.Matrix([[to_sympy(p, syms) for p in row] for row in rows])
    assert sympy.expand(to_sympy(determinant(rows), syms) - S.det(method="berkowitz")) == 0


# --- rational roots ---------------------------------------------------------

def int_divisors(n):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def trial_division_roots(coeffs):
    """Rational roots with multiplicity by the rational root theorem:
    every p/q with p dividing the constant and q the leading coefficient
    is tried by synthetic division.  The divisors come from trial
    division up to a square root, so this serves as the oracle for
    small constants only."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has no root set")
    roots = {}
    shift = 0
    while cs[0] == 0:
        cs.pop(0)
        shift += 1
    if shift:
        roots[Fraction(0)] = shift
    if len(cs) == 1:
        return roots
    den = 1
    for c in cs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in cs]
    for p in int_divisors(ints[0]):
        for q in int_divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                mult = 0
                cur = [Fraction(x) for x in ints]
                while len(cur) > 1:
                    # synthetic division by (t - cand); quo holds the
                    # Horner values [b_d, ..., b_1, remainder]
                    rem = Fraction(0)
                    quo = []
                    for c in reversed(cur):
                        rem = rem * cand + c
                        quo.append(rem)
                    if rem != 0:
                        break
                    mult += 1
                    cur = list(reversed(quo[:-1]))
                if mult:
                    roots[cand] = mult
    return roots


def sympy_roots(coeffs):
    """Rational roots with multiplicity, read off the linear factors of
    sympy's factorization over Q."""
    t = sympy.Symbol("t")
    poly = sympy.Poly([sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
                       for c in reversed(coeffs)], t, domain=sympy.QQ)
    roots = {}
    for factor, mult in poly.factor_list()[1]:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            r = -b / a
            roots[Fraction(int(r.p), int(r.q))] = mult
    return roots


def times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


LARGE_PRIMES = (10000019, 998244353, 1000000007, 999999999989, 1000000000039)
roots_num = st.integers(-10 ** 12, 10 ** 12) | st.sampled_from(LARGE_PRIMES) \
    | st.sampled_from(LARGE_PRIMES).map(lambda p: -p)
roots_den = st.integers(1, 10 ** 12) | st.sampled_from(LARGE_PRIMES)
small_fracs = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def test_rational_roots_fixed_cases():
    assert rational_roots([6, -5, 1]) == {2: 1, 3: 1}
    assert rational_roots([0, 0, 2, -3]) == {0: 2, Fraction(2, 3): 1}
    assert rational_roots([1, -2, 1]) == {1: 2}
    assert rational_roots([5]) == {} and rational_roots([0, 0, 7]) == {0: 2}
    assert rational_roots(["1/3", "-1/2"]) == {Fraction(2, 3): 1}
    # irreducible quadratics, real roots or none
    assert rational_roots([-2, 0, 1]) == {} and rational_roots([1, 0, 1]) == {}
    # (t^2 + 1)^2 (t^2 - 3) (7t + 5)^3: only -5/7 is rational
    cs = times(times(times([1, 0, 1], [1, 0, 1]), [-3, 0, 1]),
               times(times([5, 7], [5, 7]), [5, 7]))
    assert rational_roots(cs) == {Fraction(-5, 7): 3}
    # the vinberg(1, 2) direction at Q = 1000000007: a double root with a
    # constant term near 10^18 that trial division cannot reach
    q = 1000000007
    assert rational_roots([q * q, 2 * q, 1]) == {Fraction(-q): 2}
    for zero in ([], [0], [0, 0, 0], [Fraction(0)]):
        with pytest.raises(ValueError):
            rational_roots(zero)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(roots_num, roots_den, st.integers(1, 3)), max_size=3),
       st.lists(small_fracs, max_size=4),
       st.integers(0, 2),
       small_fracs.filter(lambda c: c != 0))
def test_rational_roots_match_sympy(linear, cofactor, zero_mult, lead):
    # prod (q t - p)^mult times a rational cofactor, a non-monic lead
    # and a power of t
    cs = [lead]
    for p, q, mult in linear:
        for _ in range(mult):
            cs = times(cs, [-p, q])
    if cofactor and cofactor[-1] != 0:
        cs = times(cs, cofactor)
    cs = [Fraction(0)] * zero_mult + cs
    roots = rational_roots(cs)
    assert roots == sympy_roots(cs)
    for p, q, _ in linear:
        assert Fraction(p, q) in roots


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-40, 40) | small_fracs, min_size=1, max_size=7)
       .filter(lambda cs: any(cs)))
def test_rational_roots_match_trial_division(cs):
    roots = rational_roots(cs)
    assert roots == trial_division_roots(cs)
    assert list(roots) == sorted(roots, key=lambda r: (r != 0, r))
