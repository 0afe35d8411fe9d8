"""Plane regularity: the pencil-structure route against the minor-gcd oracle.

``certify_regular_plane`` decides a plane span(xi, eta) from the
Kronecker/Jordan structure of its Kirillov pencil.  The oracle below is
the older route kept for comparison: the monic gcd of every m x m minor
of the bivariate pencil matrix, with the singular directions read off
its rational projective roots.  Both must give the same verdict, the
same gcd, the same rational directions and the same residual degree.
"""

import json
from fractions import Fraction
from itertools import combinations, product

import pytest

from argshift import jsonio
from argshift.liealg import (AlgebraProfile, LieAlgebraData, make_centralizer_sl,
                             make_classical, make_sl2_so2_contraction,
                             make_takiff, make_vinberg)
from argshift.mpoly import MPoly, rational_roots
from argshift.poisson import estimate_index, kirillov
from argshift.regcert import FalsificationError, certify_regular_plane
from argshift.sampling import rng_stream
from oracles import integer_point, stream_minor_gcd

HEISENBERG = LieAlgebraData(3, ["e", "f", "z"], {(0, 1): {2: Fraction(1)}})

ALGEBRAS = {
    "sl2": make_classical("sl", 2),
    "sl3": make_classical("sl", 3),
    "gl3": make_classical("gl", 3),
    "takiff_sl2_1": make_takiff(make_classical("sl", 2), 1),
    "z_sl4_211": make_centralizer_sl(4, [2, 1, 1]),
    "contraction": make_sl2_so2_contraction(),
    "vinberg_1_2": make_vinberg([1, 2]),
    "heisenberg": HEISENBERG,
}


def minor_route(L, profile, xi, eta) -> dict:
    """Plane verdict from the gcd of all m x m pencil minors."""
    n, m = L.dim, L.dim - profile.ind
    K1, K2 = kirillov(L, xi).matrix, kirillov(L, eta).matrix
    entries = [[MPoly(2, {e: c for e, c in (((1, 0), K1[i, j]), ((0, 1), K2[i, j]))
                          if c != 0})
                for j in range(n)] for i in range(n)]
    # a seeded order reaches a constant gcd after a few minors on a
    # regular plane; the lexicographic order can take thousands
    order = list(product(combinations(range(n), m), repeat=2))
    rng_stream(0, "oracle-minor-order").shuffle(order)
    g, _ = stream_minor_gcd(entries, order)
    if g is None:
        return {"ok": False, "all_zero": True, "gcd": None, "directions": (),
                "residual_degree": 0}
    if g.is_constant():
        return {"ok": True, "all_zero": False, "gcd": g, "directions": (),
                "residual_degree": 0}
    # directions from g(1, t), plus the degree deficiency at (0 : 1)
    deg = g.degree()
    by_t = {e[1]: c for e, c in g.terms.items()}
    coeffs = [by_t.get(k, Fraction(0)) for k in range(deg + 1)]
    t_deg = max(k for k, c in enumerate(coeffs) if c != 0)
    roots = rational_roots(coeffs[:t_deg + 1])
    directions = [(Fraction(1), r) for r in sorted(roots)]
    rational_mult = sum(roots.values())
    if t_deg < deg:
        directions.append((Fraction(0), Fraction(1)))
        rational_mult += deg - t_deg
    return {"ok": False, "all_zero": False, "gcd": g,
            "directions": tuple(directions),
            "residual_degree": deg - rational_mult}


def assert_routes_agree(L, profile, xi, eta) -> None:
    cert = certify_regular_plane(L, profile, xi, eta)
    oracle = minor_route(L, profile, xi, eta)
    assert cert.ok == oracle["ok"]
    assert cert.all_zero == oracle["all_zero"]
    assert cert.gcd == oracle["gcd"]
    assert cert.singular_directions == oracle["directions"]
    assert cert.residual_degree == oracle["residual_degree"]
    assert cert.gcd_degree == (oracle["gcd"].degree() if oracle["gcd"] else 0)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_seeded_planes_agree(name):
    L = ALGEBRAS[name]
    profile = estimate_index(L)
    for t in range(2):
        rng = rng_stream(7, "plane-routes", name, t)
        xi = integer_point(rng, L.dim, 9)
        eta = integer_point(rng, L.dim, 9)
        assert_routes_agree(L, profile, xi, eta)


@pytest.mark.parametrize("name, xi, eta", [
    # subregular diag(1, 1, -2): the direction (1 : 0) is singular, and
    # this eta adds a second singular direction (0 : 1)
    ("sl3", (0, 0, 0, 0, 3, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 1)),
    # the torus axis: the form vanishes there entirely
    ("contraction", (0, 1, 0), (1, 0, 0)),
    ("heisenberg", (1, 2, 3), (2, -1, 1)),
    # singular along (1 : -1/Q), Q = 1009
    ("vinberg_1_2", (1, 3, 5), (0, 3 * 1009, 5 * 1009)),
])
def test_singular_planes_agree(name, xi, eta):
    L = ALGEBRAS[name]
    profile = estimate_index(L)
    assert not certify_regular_plane(L, profile, xi, eta).ok
    assert_routes_agree(L, profile, xi, eta)


def test_vinberg_1_plane_agrees():
    vin = make_vinberg([1])
    cert = certify_regular_plane(vin, estimate_index(vin), (1, 0), (0, 1))
    assert cert.gcd == MPoly(2, {(0, 2): 1})
    assert_routes_agree(vin, estimate_index(vin), (1, 0), (0, 1))


def test_pencil_rank_below_m_is_all_zero():
    sl3 = ALGEBRAS["sl3"]
    # declared ind 0 asks for rank 8; every sl3 pencil has rank 6
    profile = AlgebraProfile.declared(8, 0)
    xi, eta = (1, 2, -3, 4, 5, -6, 7, 8), (-2, 1, 3, 1, -5, 2, 7, 1)
    cert = certify_regular_plane(sl3, profile, xi, eta)
    assert not cert.ok and cert.all_zero
    assert cert.witness_pretty == "all pencil minors vanish"
    assert_routes_agree(sl3, profile, xi, eta)


def test_pencil_rank_above_m_raises():
    sl3 = ALGEBRAS["sl3"]
    xi, eta = (1, 2, -3, 4, 5, -6, 7, 8), (-2, 1, 3, 1, -5, 2, 7, 1)
    with pytest.raises(ValueError, match="declared index looks wrong"):
        certify_regular_plane(sl3, AlgebraProfile.declared(8, 4), xi, eta)
    estimated = AlgebraProfile(dim=8, ind=4, status="estimated")
    with pytest.raises(FalsificationError) as exc:
        certify_regular_plane(sl3, estimated, xi, eta)
    assert json.loads(jsonio.dumps(exc.value.bundle)) == exc.value.bundle
    assert exc.value.bundle["pencil_rank"] == 6
    assert exc.value.bundle["m"] == 4
