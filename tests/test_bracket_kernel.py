"""Differential and property tests for the coadjoint bracket kernel.

Two oracles that share no code with the kernel check bracket,
frozen_bracket and coordinate_bracket(s): the partial-derivative formula
sum_{i<j} C(i,j) (d_i f d_j g - d_j f d_i g) written with MPoly
arithmetic, and the same formula evaluated by sympy's diff.  The batched
coordinate_brackets must agree with coordinate_bracket.  The
field-width cases put deg f + deg g at 2^k - 1, 2^k and 2^k + 1 with
one exponent field at its largest possible value.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from argshift.liealg import (LieAlgebraData, make_classical, make_sl2_so2_contraction,
                             make_takiff, make_vinberg)
from argshift.mpoly import MPoly
from argshift.poisson import (bracket, classical_casimir_polys, coordinate_bracket,
                              coordinate_brackets, frozen_bracket)
from argshift.sampling import rng_stream
from oracles import partial, to_sympy

ALGEBRAS = {
    "sl3": make_classical("sl", 3),
    "gl3": make_classical("gl", 3),
    "takiff_sl2_2": make_takiff(make_classical("sl", 2), 2),
    "vinberg_1_2": make_vinberg([1, 2]),
    "contraction": make_sl2_so2_contraction(),
    "heisenberg": LieAlgebraData(3, ["e", "f", "z"], {(0, 1): {2: Fraction(1)}}),
    "abelian": LieAlgebraData.abelian(4),
}
SL2 = make_classical("sl", 2)   # basis (e, h, f), [e, f] = h


# --- oracles -----------------------------------------------------------------

def formula_bracket(L, f, g):
    pf = [partial(f, i) for i in range(L.dim)]
    pg = [partial(g, i) for i in range(L.dim)]
    acc = MPoly.zero(L.dim)
    for i, j, coeffs in L.pairs():
        form = MPoly.linear_form([coeffs.get(k, 0) for k in range(L.dim)])
        acc = acc + form * (pf[i] * pg[j] - pf[j] * pg[i])
    return acc


def formula_frozen(L, xi, f, g):
    pf = [partial(f, i) for i in range(L.dim)]
    pg = [partial(g, i) for i in range(L.dim)]
    acc = MPoly.zero(L.dim)
    for i, j, coeffs in L.pairs():
        s = sum((c * Fraction(xi[k]) for k, c in coeffs.items()), Fraction(0))
        acc = acc + s * (pf[i] * pg[j] - pf[j] * pg[i])
    return acc


def sympy_bracket(L, f, g, xi=None):
    syms = sympy.symbols(f"x0:{L.dim}")
    F, G = to_sympy(f, syms), to_sympy(g, syms)
    acc = sympy.Integer(0)
    for i, j, coeffs in L.pairs():
        if xi is None:
            form = sum(sympy.Rational(c.numerator, c.denominator) * syms[k]
                       for k, c in coeffs.items())
        else:
            s = sum((c * Fraction(xi[k]) for k, c in coeffs.items()), Fraction(0))
            form = sympy.Rational(s.numerator, s.denominator)
        acc += form * (sympy.diff(F, syms[i]) * sympy.diff(G, syms[j])
                       - sympy.diff(F, syms[j]) * sympy.diff(G, syms[i]))
    return sympy.expand(acc), syms


# --- inputs --------------------------------------------------------------------

def random_fraction(rng):
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))


def random_poly(rng, nvars, max_deg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = random_fraction(rng)
    return MPoly(nvars, terms)


def seeded_cases(per_algebra):
    for name, L in ALGEBRAS.items():
        for t in range(per_algebra):
            rng = rng_stream(0, f"bracket-kernel-{name}", t)
            f, g = random_poly(rng, L.dim), random_poly(rng, L.dim)
            xi = [random_fraction(rng) for _ in range(L.dim)]
            yield name, L, f, g, xi


CASES = list(seeded_cases(6))


@pytest.mark.parametrize("name,L,f,g,xi", CASES,
                         ids=[f"{c[0]}-{k % 6}" for k, c in enumerate(CASES)])
def test_matches_partial_derivative_formula(name, L, f, g, xi):
    assert bracket(L, f, g) == formula_bracket(L, f, g)
    assert frozen_bracket(L, xi, f, g) == formula_frozen(L, xi, f, g)
    batched = coordinate_brackets(L, f)
    for i in range(L.dim):
        assert coordinate_bracket(L, i, f) == formula_bracket(L, MPoly.variable(L.dim, i), f)
        assert batched[i] == coordinate_bracket(L, i, f)


def test_seeded_cases_include_nonzero_results():
    nonzero = {name for name, L, f, g, xi in CASES if not bracket(L, f, g).is_zero()}
    frozen = {name for name, L, f, g, xi in CASES
              if not frozen_bracket(L, xi, f, g).is_zero()}
    assert nonzero == frozen == set(ALGEBRAS) - {"abelian"}


@pytest.mark.parametrize("name,L,f,g,xi", CASES[::3], ids=[c[0] for c in CASES[::3]])
def test_matches_sympy_diff(name, L, f, g, xi):
    want, syms = sympy_bracket(L, f, g)
    assert sympy.expand(to_sympy(bracket(L, f, g), syms) - want) == 0
    want, syms = sympy_bracket(L, f, g, xi)
    assert sympy.expand(to_sympy(frozen_bracket(L, xi, f, g), syms) - want) == 0
    x0 = MPoly.variable(L.dim, 0)
    want, syms = sympy_bracket(L, x0, f)
    assert sympy.expand(to_sympy(coordinate_bracket(L, 0, f), syms) - want) == 0


# --- field width -----------------------------------------------------------------

@pytest.mark.parametrize("total", [3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33])
def test_field_width_edges(total):
    # {x_h^(a-1) x_e, x_h^(b-1) x_f} has the term x_h^(a+b-1), whose h
    # field is deg f + deg g - 1, the largest value a field can reach
    a = total // 2
    b = total - a
    xe, xh, xf = (MPoly.variable(3, v) for v in range(3))
    f = Fraction(2, 3) * xh ** (a - 1) * xe + xe ** a
    g = Fraction(-5, 7) * xh ** (b - 1) * xf + xf ** b + xh ** b
    got = bracket(SL2, f, g)
    assert got == formula_bracket(SL2, f, g)
    assert got.terms[(0, total - 1, 0)] != 0
    want, syms = sympy_bracket(SL2, f, g)
    assert sympy.expand(to_sympy(got, syms) - want) == 0
    xi = (Fraction(1, 2), 3, Fraction(-4, 5))
    assert frozen_bracket(SL2, xi, f, g) == formula_frozen(SL2, xi, f, g)


# --- properties ------------------------------------------------------------------

SL3 = ALGEBRAS["sl3"]
coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
monomial = st.lists(st.integers(0, 2), min_size=SL3.dim, max_size=SL3.dim).map(tuple)
poly = st.dictionaries(monomial, coeff, max_size=3).map(lambda t: MPoly(SL3.dim, t))
point = st.lists(coeff, min_size=SL3.dim, max_size=SL3.dim)


C2, C3 = classical_casimir_polys("sl", 3)
# Casimirs, whose coadjoint action vanishes, among the arguments
poly_or_casimir = st.one_of(poly, st.sampled_from([C2, C3, C2 * C3, C2 + MPoly.one(SL3.dim)]))


@settings(max_examples=40, deadline=None)
@given(poly_or_casimir, poly_or_casimir, point)
def test_kernel_matches_formula_both_orders(f, g, xi):
    for a, b in ((f, g), (g, f)):
        assert bracket(SL3, a, b) == formula_bracket(SL3, a, b)
        assert frozen_bracket(SL3, xi, a, b) == formula_frozen(SL3, xi, a, b)
    batched = coordinate_brackets(SL3, f)
    for i in range(SL3.dim):
        assert batched[i] == formula_bracket(SL3, MPoly.variable(SL3.dim, i), f)


def test_casimir_argument_brackets_to_zero():
    f = MPoly.variable(SL3.dim, 0) * MPoly.variable(SL3.dim, 4) + MPoly.variable(SL3.dim, 7)
    for c in (C2, C3):
        assert all(q.is_zero() for q in coordinate_brackets(SL3, c))
        assert bracket(SL3, f, c).is_zero() and bracket(SL3, c, f).is_zero()
        assert formula_bracket(SL3, f, c).is_zero()


@settings(max_examples=30, deadline=None)
@given(poly, poly, point)
def test_antisymmetry(f, g, xi):
    assert bracket(SL3, f, g) == -bracket(SL3, g, f)
    assert frozen_bracket(SL3, xi, f, g) == -frozen_bracket(SL3, xi, g, f)


@settings(max_examples=30, deadline=None)
@given(poly, poly, poly, point)
def test_leibniz_rule(f, g, h, xi):
    assert bracket(SL3, f, g * h) == bracket(SL3, f, g) * h + g * bracket(SL3, f, h)
    assert (frozen_bracket(SL3, xi, f, g * h)
            == frozen_bracket(SL3, xi, f, g) * h + g * frozen_bracket(SL3, xi, f, h))


# --- errors ------------------------------------------------------------------------

def test_wrong_variable_count_raises():
    f, g = MPoly.variable(3, 0), MPoly.variable(4, 0)
    with pytest.raises(ValueError, match="dual of the algebra"):
        bracket(SL2, f, g)
    with pytest.raises(ValueError, match="dual of the algebra"):
        frozen_bracket(SL2, (1, 2, 3), g, f)
    with pytest.raises(ValueError):
        coordinate_bracket(SL2, 0, g)
    with pytest.raises(ValueError, match="dual of the algebra"):
        coordinate_brackets(SL2, g)


def test_point_length_mismatch_raises():
    f = MPoly.variable(3, 0)
    with pytest.raises(ValueError, match="point length mismatch"):
        frozen_bracket(SL2, (1, 2), f, f)
