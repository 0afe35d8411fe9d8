"""Poisson layer tests with hand-checked oracles.

sl(2) in basis order (e, h, f) with [e, f] = h, [h, e] = 2e,
[h, f] = -2f is the main worked example; its quadratic Casimir is
C = x_h^2 + 4 x_e x_f:
    {x_e, C} = 2 x_h {x_e, x_h} + 4 x_e {x_e, x_f}
             = 2 x_h (-2 x_e) + 4 x_e x_h = 0,
and symmetrically for the other coordinates.
"""

import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import argshift
from argshift.exactlin import MatQ, faddeev_leverrier, solve_many
from argshift.liealg import (classical_matrix_basis, make_centralizer_sl, make_classical,
                             make_sl2_so2_contraction, make_takiff, make_vinberg)
from argshift.jsonio import poly_to_json
from argshift.mpoly import MPoly, determinant
from argshift.poisson import (CasimirSet, bracket, classical_casimir_polys, classical_casimirs,
                              coordinate_bracket, estimate_index,
                              frozen_bracket, is_casimir, kirillov,
                              takiff_lift)
from argshift.sampling import integer_coords, rng_stream
from oracles import (bareiss_skew_rank, estimate_index_all_trials, estimate_index_by_bareiss,
                     evaluate, fraction_kirillov, grad_at, integer_point, randint_coords,
                     takiff_lift_by_substitution, var_coeffs)

SL2 = make_classical("sl", 2)
X_E = MPoly.variable(3, 0)
X_H = MPoly.variable(3, 1)
X_F = MPoly.variable(3, 2)
CAS = X_H * X_H + 4 * X_E * X_F


def abelian(n: int):
    from argshift.liealg import LieAlgebraData
    return LieAlgebraData(n, [f"a{i}" for i in range(n)], {})


def random_poly(rng, nvars: int, max_deg: int = 2, nterms: int = 3) -> MPoly:
    terms = {}
    for _ in range(nterms):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-4, 4))
    return MPoly(nvars, terms)


def test_bracket_coordinates_oracle():
    # {x_e, x_f} = x_h, {x_h, x_e} = 2 x_e, {x_h, x_f} = -2 x_f
    assert bracket(SL2, X_E, X_F) == X_H
    assert bracket(SL2, X_H, X_E) == 2 * X_E
    assert bracket(SL2, X_H, X_F) == -2 * X_F
    assert bracket(SL2, X_F, X_E) == -X_H


def test_bracket_casimir_annihilates():
    for v in (X_E, X_H, X_F, X_E * X_H + X_F):
        assert bracket(SL2, CAS, v).is_zero()
    chk = is_casimir(SL2, CAS)
    assert chk.ok and chk.witness is None


def test_non_casimir_witness():
    chk = is_casimir(SL2, X_E)
    # first failing coordinate is x_h: {x_h, x_e} = 2 x_e
    assert not chk.ok
    assert chk.witness_index == 1
    assert chk.witness == 2 * X_E


def test_coordinate_bracket_matches_bracket():
    f = X_E * X_F + X_H * X_H
    for i, v in enumerate((X_E, X_H, X_F)):
        assert coordinate_bracket(SL2, i, f) == bracket(SL2, v, f)


def test_frozen_bracket_constants():
    # at xi = (0, 1, 0): {x_e, x_f}_xi = <xi, h> = 1
    one = MPoly.const(3, 1)
    assert frozen_bracket(SL2, (0, 1, 0), X_E, X_F) == one
    assert frozen_bracket(SL2, (0, 1, 0), X_F, X_E) == -one
    assert frozen_bracket(SL2, (0, 0, 0), X_E, X_F).is_zero()


def test_kirillov_matrix_oracle():
    # K[e][h] = <xi, [e, h]> = -2 xi_e, K[e][f] = xi_h, K[h][f] = -2 xi_f
    K = kirillov(SL2, (0, 1, 0))
    assert K.matrix == MatQ([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    assert K.rank == 2
    K2 = kirillov(SL2, (1, 2, 3))
    assert K2.matrix == MatQ([[0, -2, 2], [2, 0, -6], [-2, 6, 0]])


def test_bracket_evaluation_matches_kirillov():
    rng = rng_stream(7, "poisson-cross")
    for _ in range(15):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        pt = integer_point(rng, 3, 5)
        K = kirillov(SL2, pt).matrix
        gf = grad_at(f, pt)
        gg = grad_at(g, pt)
        expect = sum(gf[i] * K[i, j] * gg[j] for i in range(3) for j in range(3))
        assert evaluate(bracket(SL2, f, g), pt) == expect


def test_jacobi_and_leibniz_properties():
    so3 = make_classical("so", 3)
    for L in (SL2, so3):
        rng = rng_stream(11, "poisson-jacobi", L.dim)
        for _ in range(8):
            f = random_poly(rng, L.dim)
            g = random_poly(rng, L.dim)
            h = random_poly(rng, L.dim)
            cyc = (bracket(L, f, bracket(L, g, h))
                   + bracket(L, g, bracket(L, h, f))
                   + bracket(L, h, bracket(L, f, g)))
            assert cyc.is_zero()
            assert bracket(L, f, g * h) == bracket(L, f, g) * h + g * bracket(L, f, h)
            assert bracket(L, f, g) == -bracket(L, g, f)


def test_frozen_bracket_is_bracket_at_frozen_point():
    # freezing the linear coefficients: both brackets agree after
    # replacing each structure form <x, [b_i, b_j]> by its value at xi
    rng = rng_stream(3, "poisson-frozen")
    for _ in range(10):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        xi = integer_point(rng, 3, 5)
        pt = integer_point(rng, 3, 5)
        K = kirillov(SL2, xi).matrix
        gf = grad_at(f, pt)
        gg = grad_at(g, pt)
        expect = sum(gf[i] * K[i, j] * gg[j] for i in range(3) for j in range(3))
        assert evaluate(frozen_bracket(SL2, xi, f, g), pt) == expect


def test_estimate_index_oracles():
    assert estimate_index(SL2).ind == 1
    assert estimate_index(abelian(3)).ind == 3
    assert estimate_index(make_vinberg((1, 2))).ind == 1
    assert estimate_index(make_takiff(SL2, 1)).ind == 2
    prof = estimate_index(SL2, trials=5, seed=2)
    assert prof.status == "estimated"
    assert prof.max_rank_seen == 2
    assert prof.witness is not None
    assert prof.b_q == 2
    with pytest.raises(ValueError):
        estimate_index(SL2, trials=0)


ORACLE_ALGEBRAS = {
    "sl2": lambda: make_classical("sl", 2),
    "sl3": lambda: make_classical("sl", 3),
    "gl3": lambda: make_classical("gl", 3),
    "sl4": lambda: make_classical("sl", 4),
    "takiff(sl2,1)": lambda: make_takiff(SL2, 1),
    "takiff(sl2,2)": lambda: make_takiff(SL2, 2),
    "z_sl4[2,1,1]": lambda: make_centralizer_sl(4, [2, 1, 1]),
    "z_sl5[2,2,1]": lambda: make_centralizer_sl(5, [2, 2, 1]),
    "vinberg(1)": lambda: make_vinberg((1,)),
    "vinberg(1,2)": lambda: make_vinberg((1, 2)),
    "sl2/so2": make_sl2_so2_contraction,
    "abelian(3)": lambda: abelian(3),
}


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_estimate_index_matches_the_fraction_bareiss_route(name):
    # integer points, the cached integer table and Pfaffian ranks give
    # the profile of Fraction forms ranked by Bareiss elimination
    L = ORACLE_ALGEBRAS[name]()
    for seed in range(4):
        for bound in (9, 99):
            got = estimate_index(L, seed=seed, bound=bound)
            want = estimate_index_by_bareiss(L, trials=24, seed=seed, bound=bound)
            assert (got.ind, got.max_rank_seen, got.witness, got.seed, got.trials,
                    got.bound) == (want.ind, want.max_rank_seen, want.witness,
                                   want.seed, want.trials, want.bound)
            assert got.as_dict() == want.as_dict()


def _known_casimirs(name: str) -> tuple:
    """An algebra and Casimirs known to be central and independent."""
    if name in ("sl2", "sl3", "gl3"):
        family, n = name[:2], int(name[2])
        return make_classical(family, n), classical_casimir_polys(family, n)
    if name.startswith("takiff"):
        level = int(name[-2])
        return make_takiff(SL2, level), takiff_lift(SL2, CAS, level)
    x = [MPoly.variable(3, i) for i in range(3)]
    if name == "vinberg(1,-1)":    # s scales v1 and v2 by 1 and -1
        return make_vinberg((1, -1)), [x[1] * x[2]]
    if name == "vinberg(1,2)":     # only the rational invariant v1^2 / v2
        return make_vinberg((1, 2)), []
    if name == "sl2/so2":
        return make_sl2_so2_contraction(), [x[1] * x[1] + x[2] * x[2]]
    # the centralizer of e in sl(n) has e, here its basis vector z2, as centre
    n, parts = {"z_sl3[2,1]": (3, [2, 1]), "z_sl4[2,1,1]": (4, [2, 1, 1])}[name]
    L = make_centralizer_sl(n, parts)
    return L, [MPoly.variable(L.dim, 1)]


CEILING_CASES = ["sl2", "sl3", "gl3", "takiff(sl2,1)", "takiff(sl2,2)", "vinberg(1,-1)",
                 "vinberg(1,2)", "sl2/so2", "z_sl3[2,1]", "z_sl4[2,1,1]"]


@lru_cache(maxsize=None)
def _verified_subsets(name: str) -> tuple:
    """The algebra and every subset of its known Casimirs, verified."""
    L, polys = _known_casimirs(name)
    return L, [CasimirSet.verified(L, list(compress(polys, mask)))
               for mask in product((0, 1), repeat=len(polys))]


@pytest.mark.parametrize("name", CEILING_CASES)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), trials=st.integers(1, 30),
       bound=st.sampled_from([1, 2, 3, 9, 99]))
@example(seed=0, trials=1, bound=9)
@example(seed=0, trials=24, bound=9)
def test_sampling_to_the_ceiling_gives_the_profile_of_every_trial(name, seed, trials, bound):
    # a verified set of l Casimirs caps every rank at dim - l, so the
    # first sample that reaches it is the witness all trials would pick
    L, subsets = _verified_subsets(name)
    want = estimate_index_all_trials(L, trials, seed, bound).as_dict()
    for cs in (None, *subsets):
        got = estimate_index(L, trials=trials, seed=seed, bound=bound, casimirs=cs)
        assert got.as_dict() == want


def test_the_ceiling_ends_sampling_at_the_first_sample_that_reaches_it(index_samples):
    L, subsets = _verified_subsets("gl3")
    # gl3 has dim 9 and index 3, and seed 0 reaches rank 6 at its first
    # sample: the ceiling is 6 with two or three Casimirs, 8 with fewer
    every = list(range(24))
    for cs, want in ((subsets[-1], [0]), (subsets[3], [0]), (subsets[1], every),
                     (subsets[0], every), (None, every)):
        index_samples.clear()
        assert estimate_index(L, casimirs=cs).max_rank_seen == 6
        assert index_samples == want
    # the parity bound alone: sl2 has dim 3, so no rank passes 2
    index_samples.clear()
    assert estimate_index(SL2).max_rank_seen == 2 and index_samples == [0]
    with pytest.raises(ValueError, match="wrong space"):
        estimate_index(L, casimirs=_verified_subsets("sl3")[1][-1])


@pytest.mark.parametrize("name", ["sl3", "takiff(sl2,1)", "vinberg(1,2)"])
def test_kirillov_matches_the_fraction_form_at_rational_points(name):
    L = ORACLE_ALGEBRAS[name]()
    rng = rng_stream(5, "kirillov-rational")
    for _ in range(10):
        xi = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(L.dim)]
        K = kirillov(L, xi)
        assert K.matrix.to_lists() == fraction_kirillov(L, xi)
        assert K.rank == bareiss_skew_rank(K.rows, L.dim)


@pytest.mark.parametrize("dim, bound, nonzero", [(1, 1, True), (3, 5, True),
                                                 (8, 9, False), (15, 99, True)])
def test_integer_point_is_integer_coords_as_fractions(dim, bound, nonzero):
    for t in range(20):
        coords = integer_coords(rng_stream(7, "index-sample", t), dim, bound, nonzero)
        point = integer_point(rng_stream(7, "index-sample", t), dim, bound, nonzero)
        assert all(type(x) is int for x in coords)
        assert point == tuple(Fraction(x) for x in coords)
        assert all(abs(x) <= bound for x in coords)
        assert not nonzero or any(coords)


@pytest.mark.parametrize("bound", [1, 2, 9, 100, 2 ** 40])
@pytest.mark.parametrize("nonzero", [True, False])
def test_integer_coords_draw_as_randint_does(bound, nonzero):
    # the same points and the same stream state after them, so every
    # later draw from a shared stream is unchanged too
    for dim in range(1, 17):
        for seed in range(6):
            got, want = (rng_stream(seed, "sampler", dim) for _ in range(2))
            pt = randint_coords(want, dim, bound, nonzero)
            assert integer_coords(got, dim, bound, nonzero) == pt
            assert got.getstate() == want.getstate()
            again = rng_stream(seed, "sampler", dim)
            assert integer_point(again, dim, bound, nonzero) == tuple(map(Fraction, pt))
            assert again.getstate() == want.getstate()


def test_integer_coords_redraw_an_all_zero_point_as_randint_does():
    # dim 1, bound 1: a third of the first draws are 0 and are redrawn
    redrawn = 0
    for seed in range(30):
        first = rng_stream(seed, "zero-redraw").randint(-1, 1)
        got, want = (rng_stream(seed, "zero-redraw") for _ in range(2))
        pt = randint_coords(want, 1, 1)
        assert integer_coords(got, 1, 1) == pt != (0,)
        assert got.getstate() == want.getstate()
        redrawn += first == 0
    assert redrawn > 0


def test_integer_coords_checks_its_arguments():
    rng = rng_stream(0, "args")
    with pytest.raises(ValueError, match="bound"):
        integer_coords(rng, 3, 0)
    with pytest.raises(ValueError, match="dimension 0"):
        integer_coords(rng, 0, 5)
    assert integer_coords(rng, 0, 5, nonzero=False) == ()


def test_casimir_set_verified():
    cs = CasimirSet.verified(SL2, [CAS])
    assert cs.degrees == (2,)
    assert cs.sum_degrees == 2
    assert cs.independence_witness is not None
    with pytest.raises(ValueError, match="not a Casimir"):
        CasimirSet.verified(SL2, [X_E])
    with pytest.raises(ValueError, match="zero polynomial"):
        CasimirSet.verified(SL2, [MPoly.zero(3)])
    empty = CasimirSet.verified(SL2, [])
    assert len(empty) == 0 and empty.independence_witness is None


def test_classical_casimirs_sl2():
    cs = classical_casimirs("sl", 2)
    assert len(cs) == 1
    # monic in graded lex order: x_e x_f + x_h^2 / 4
    assert 4 * cs.generators[0] == CAS


def test_classical_casimirs_gl2():
    cs = classical_casimirs("gl", 2)
    assert cs.degrees == (1, 2)
    # trace form: the linear generator is x_e11 + x_e22
    lin = cs.generators[0]
    assert lin == MPoly.variable(4, 0) + MPoly.variable(4, 3)


def test_classical_casimirs_sl3():
    cs = classical_casimirs("sl", 3)
    assert cs.degrees == (2, 3)
    assert cs.sum_degrees == 5
    assert cs.independence_witness is not None


def test_classical_casimirs_unsupported():
    with pytest.raises(ValueError):
        classical_casimirs("so", 3)


def determinant_casimirs(family, n):
    """The generators as coefficients of det(tI - X) by the polynomial
    determinant over Q[x, t], X the generic matrix of the trace-form
    dual basis: the route classical_casimir_polys replaced."""
    mats = classical_matrix_basis(family, n)
    d = len(mats)
    gram = MatQ([[sum(a[i, j] * b[j, i] for i in range(n) for j in range(n))
                  for b in mats] for a in mats])
    cols = solve_many(gram, [[int(i == j) for i in range(d)] for j in range(d)])
    nv = d + 1
    t = MPoly.variable(nv, d)
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            p = MPoly.linear_form([sum(cols[a][b] * mats[b][i, j] for b in range(d))
                                   for a in range(d)] + [0])
            row.append(t - p if i == j else -p)
        entries.append(row)
    coeffs = var_coeffs(determinant(entries), d)
    gens = []
    for k in range(1, n + 1):
        c = coeffs.get(n - k)
        if c is not None and not c.is_constant():
            gens.append(c.monic())
    return gens


@pytest.mark.parametrize("family,n", [("sl", 2), ("sl", 3), ("sl", 4),
                                      ("gl", 2), ("gl", 3), ("gl", 4)])
def test_casimir_polys_match_the_determinant_route(family, n):
    assert classical_casimir_polys(family, n) == determinant_casimirs(family, n)


def test_faddeev_leverrier_over_polynomials_matches_determinant():
    # a 3x3 matrix of mixed-degree entries with rational coefficients
    x, y = MPoly.variable(3, 0), MPoly.variable(3, 1)
    t = MPoly.variable(3, 2)
    M = [[x, y * Fraction(1, 2), MPoly.one(3)],
         [x * y, MPoly.zero(3), 3 * y + x],
         [MPoly.const(3, -2), x * x, y]]
    got = faddeev_leverrier(M, MPoly.one(3))
    tI_M = [[(t if i == j else MPoly.zero(3)) - M[i][j] for j in range(3)] for i in range(3)]
    want = var_coeffs(determinant(tI_M), 2)
    # got is free of t: its coefficient of t^0 is got without the t slot
    assert [var_coeffs(c, 2).get(0, MPoly.zero(2)) for c in got] == \
        [want.get(k, MPoly.zero(2)) for k in range(4)]


def test_casimir_polys_reject_small_n():
    for family in ("sl", "gl"):
        with pytest.raises(ValueError, match="n >= 2"):
            classical_casimir_polys(family, 1)


def test_sl5_casimirs_are_quick():
    # the determinant route took about 4 s here, the recurrence about 0.4 s
    code = ("from argshift.poisson import classical_casimirs, is_casimir\n"
            "from argshift.liealg import make_classical\n"
            "cs = classical_casimirs('sl', 5)\n"
            "L = make_classical('sl', 5)\n"
            "assert cs.degrees == (2, 3, 4, 5), cs.degrees\n"
            "assert all(is_casimir(L, p).ok for p in cs.generators)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(argshift.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr


def test_takiff_lift_sl2_level1():
    lifts = takiff_lift(SL2, CAS, 1)
    assert len(lifts) == 2
    # order (e, h, f, e.t1, h.t1, f.t1); top-level copy comes first in s
    z_e, z_h, z_f = (MPoly.variable(6, i) for i in (3, 4, 5))
    y_e, y_h, y_f = (MPoly.variable(6, i) for i in (0, 1, 2))
    assert lifts[0] == z_h * z_h + 4 * z_e * z_f
    assert lifts[1] == 2 * z_h * y_h + 4 * z_e * y_f + 4 * z_f * y_e
    cs = CasimirSet.verified(make_takiff(SL2, 1), lifts)
    assert cs.degrees == (2, 2)


@pytest.mark.parametrize("family,n,level", [
    *((family, n, level) for family, n in (("sl", 2), ("sl", 3), ("gl", 2))
      for level in range(4)),
    ("sl", 4, 1)])
def test_takiff_lift_matches_substitution(family, n, level):
    for f in classical_casimirs(family, n).generators:
        lifts = takiff_lift(make_classical(family, n), f, level)
        want = takiff_lift_by_substitution(f, level)
        assert lifts == want
        assert [poly_to_json(p) for p in lifts] == [poly_to_json(p) for p in want]


def test_takiff_lift_rejects_non_casimir():
    with pytest.raises(ValueError):
        takiff_lift(SL2, X_E, 1)
    with pytest.raises(ValueError):
        takiff_lift(SL2, CAS, -1)


def test_takiff_lift_level0_is_identity():
    lifts = takiff_lift(SL2, CAS, 0)
    assert lifts == [CAS]


@settings(max_examples=30, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_kirillov_linearity(a, b, c, d, e, f):
    K1 = kirillov(SL2, (a, b, c)).matrix
    K2 = kirillov(SL2, (d, e, f)).matrix
    Ksum = kirillov(SL2, (a + d, b + e, c + f)).matrix
    assert K1 + K2 == Ksum
    assert Ksum.is_skew()
