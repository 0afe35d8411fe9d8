"""Constructor and validation tests.

Bracket oracles are classical tables checked by hand:
sl(2) in basis (e, h, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h.
so(3) in basis r12, r13, r23: [r12, r13] = -r23.
"""

import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argshift import exactlin, jsonio, liealg
from argshift.exactlin import MatQ, rank_kernel, solve_many
from argshift.liealg import (
    AlgebraProfile,
    LieAlgebraData,
    TableError,
    algebra_from_matrices,
    make_centralizer_sl,
    make_classical,
    make_semidirect,
    make_sl2_so2_contraction,
    make_takiff,
    make_vinberg,
    make_z2_contraction,
    validate,
)
from argshift.mpoly import MPoly
from argshift.poisson import bracket, coordinate_bracket, frozen_bracket, kirillov
from argshift.regcert import generic_kirillov
from oracles import fraction_kirillov, fraction_validate, semidirect_index_report

SL2_ENTRIES = [(0, 1, {0: -2}), (0, 2, {1: 1}), (1, 2, {2: -2})]


def sl2_standard_rep():
    return [MatQ([[0, 1], [0, 0]]), MatQ([[1, 0], [0, -1]]), MatQ([[0, 0], [1, 0]])]


def block_diag(mats):
    n = sum(m.rows for m in mats)
    rows = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                rows[off + i][off + j] = m[i, j]
        off += m.rows
    return MatQ(rows)


def test_sl2_table_oracle():
    L = make_classical("sl", 2)
    assert L.basis_names == ("e", "h", "f")
    assert L.bracket_coeffs(0, 1) == {0: Fraction(-2)}   # [e,h] = -2e
    assert L.bracket_coeffs(0, 2) == {1: Fraction(1)}    # [e,f] = h
    assert L.bracket_coeffs(1, 2) == {2: Fraction(-2)}   # [h,f] = -2f
    assert L.bracket_coeffs(1, 0) == {0: Fraction(2)}    # antisymmetry
    assert validate(L).ok


def test_classical_dimensions():
    assert make_classical("gl", 2).dim == 4
    assert make_classical("sl", 3).dim == 8
    assert make_classical("so", 4).dim == 6
    with pytest.raises(ValueError):
        make_classical("sp", 4)
    with pytest.raises(ValueError):
        make_classical("so", 2)


def test_so3_bracket_oracle():
    L = make_classical("so", 3)
    assert L.bracket_coeffs(0, 1) == {2: Fraction(-1)}
    assert validate(L).ok


def test_validate_reports_jacobi_violation():
    # tamper [e,f] = e instead of h; Jacobi defect on (e,h,f) is -2e
    bad = [(0, 1, {0: -2}), (0, 2, {0: 1}), (1, 2, {2: -2})]
    report = validate(LieAlgebraData.from_table(3, ["e", "h", "f"], bad))
    assert not report.ok and report.kind == "jacobi"
    assert report.where == (0, 1, 2)
    assert "e" in report.detail


def test_validate_reports_antisymmetry_and_diagonal():
    # the table is refused as it is normalized, with the report it breaks
    for entries, kind, where in [([(0, 1, {0: 1}), (1, 0, {0: 1})], "antisymmetry", (0, 1)),
                                 ([(0, 0, {1: 1})], "diagonal", (0, 0))]:
        with pytest.raises(TableError) as err:
            LieAlgebraData.from_table(2, ["a", "b"], entries)
        report = err.value.report
        assert not report.ok and (report.kind, report.where) == (kind, where)
        assert str(err.value) == f"invalid bracket table: {report.detail}"


def test_algebra_from_matrices_errors():
    e12 = MatQ([[0, 1], [0, 0]])
    e21 = MatQ([[0, 0], [1, 0]])
    with pytest.raises(ValueError, match="not closed"):
        algebra_from_matrices(["a", "b"], [e12, e21])
    with pytest.raises(ValueError, match="dependent"):
        algebra_from_matrices(["a", "b"], [e12, e12.scale(2)])


def test_semidirect_standard_rep():
    g = make_classical("sl", 2)
    L = make_semidirect(g, sl2_standard_rep())
    assert L.dim == 5
    assert L.basis_names[3:] == ("v1", "v2")
    assert L.bracket_coeffs(1, 3) == {3: Fraction(1)}    # [h, v1] = v1
    assert L.bracket_coeffs(0, 4) == {3: Fraction(1)}    # [e, v2] = v1
    assert validate(L).ok


def test_semidirect_rejects_non_representation():
    g = make_classical("sl", 2)
    e, h, f = sl2_standard_rep()
    with pytest.raises(ValueError, match="not a representation"):
        make_semidirect(g, [f, h, e])


def test_vinberg():
    L = make_vinberg([1, 2])
    assert L.dim == 3
    assert L.bracket_coeffs(0, 2) == {2: Fraction(2)}
    assert validate(L).ok
    with pytest.raises(ValueError):
        make_vinberg([1, 0])
    with pytest.raises(ValueError):
        make_vinberg([])


def test_takiff_levels():
    q = make_classical("sl", 2)
    L = make_takiff(q, 1)
    assert L.dim == 6
    assert L.basis_names == ("e", "h", "f", "e.t1", "h.t1", "f.t1")
    # [f, e.t1] = -h.t1 ; level overflow kills [e.t1, f.t1]
    assert L.bracket_coeffs(2, 3) == {4: Fraction(-1)}
    assert L.bracket_coeffs(3, 5) == {}
    assert validate(L).ok
    assert make_takiff(q, 0) == q


def test_takiff_abelian_base():
    q = LieAlgebraData.abelian(2)
    L = make_takiff(q, 3)
    assert L.dim == 8
    assert list(L.pairs()) == []


def test_z2_contraction_worked_example():
    L = make_sl2_so2_contraction()
    assert L.basis_names == ("t", "p", "r")
    assert L.bracket_coeffs(0, 1) == {2: Fraction(-2)}
    assert L.bracket_coeffs(0, 2) == {1: Fraction(2)}
    assert L.bracket_coeffs(1, 2) == {}
    assert validate(L).ok


def test_z2_contraction_grading_checked():
    g = make_classical("sl", 2)
    with pytest.raises(ValueError, match="not graded"):
        make_z2_contraction(g, [1, 1, 1])
    # all-even grading contracts nothing
    assert make_z2_contraction(g, [0, 0, 0]) == g


def test_centralizer_dimensions():
    # one Jordan block: centralizer in sl(3) is span{e, e^2}, abelian
    L = make_centralizer_sl(3, [3])
    assert L.dim == 2 and list(L.pairs()) == []
    assert make_centralizer_sl(3, [2, 1]).dim == 4
    assert make_centralizer_sl(3, [1, 1, 1]).dim == 8
    with pytest.raises(ValueError):
        make_centralizer_sl(3, [2, 2])


def test_centralizer_tables_validate():
    for partition in ([3], [2, 1]):
        assert validate(make_centralizer_sl(3, partition)).ok


def test_profile_magic_number():
    assert AlgebraProfile.declared(3, 1).b_q == 2
    with pytest.raises(ArithmeticError):
        _ = AlgebraProfile.declared(3, 2).b_q


def test_semidirect_index_report_rais_case():
    g = make_classical("sl", 2)
    e, h, f = sl2_standard_rep()
    rho = [block_diag([m] * 4) for m in (e, h, f)]
    report = semidirect_index_report(g, rho, trials=20, seed=0)
    assert report["formula_applies"]
    assert report["predicted_ind"] == 8 - 3 == 5


def test_semidirect_index_report_refuses_small_module():
    g = make_classical("sl", 2)
    report = semidirect_index_report(g, sl2_standard_rep(), trials=20, seed=0)
    assert not report["formula_applies"]
    assert report["predicted_ind"] is None
    assert "not established" in report["note"]


# --- sparse commutators against the dense route ----------------------------

def dense_algebra_from_matrices(names, mats, meta=None):
    """Every commutator by full MatQ products, one solve on the span."""
    d = len(mats)
    flat = [tuple(M[i, j] for i in range(M.rows) for j in range(M.cols)) for M in mats]
    span = MatQ(flat).transpose()
    assert rank_kernel(span)[0] == d
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    comm = [mats[i] * mats[j] - mats[j] * mats[i] for i, j in pairs]
    sols = solve_many(span, [[C[a, b] for a in range(C.rows) for b in range(C.cols)]
                             for C in comm])
    table = {}
    for (i, j), x in zip(pairs, sols):
        assert x is not None
        coeffs = {k: c for k, c in enumerate(x) if c != 0}
        if coeffs:
            table[(i, j)] = coeffs
    return LieAlgebraData(d, names, table, meta)


@pytest.mark.parametrize("build", [
    *[lambda n=n: make_classical("sl", n) for n in (2, 3, 4, 5)],
    *[lambda n=n: make_classical("gl", n) for n in (2, 3, 4)],
    *[lambda n=n: make_classical("so", n) for n in (3, 4, 5)],
    *[lambda n=n, p=p: make_centralizer_sl(n, p)
      for n, p in ((3, [3]), (4, [2, 2]), (4, [2, 1, 1]), (5, [3, 2]), (5, [2, 2, 1]),
                   (5, [3, 1, 1]))],
], ids=["sl2", "sl3", "sl4", "sl5", "gl2", "gl3", "gl4", "so3", "so4", "so5",
        "z_sl3_3", "z_sl4_22", "z_sl4_211", "z_sl5_32", "z_sl5_221", "z_sl5_311"])
def test_sparse_commutators_match_dense_route(monkeypatch, build):
    real = liealg.algebra_from_matrices
    built = []

    def both(names, mats, meta=None):
        got = real(names, mats, meta)
        assert got == dense_algebra_from_matrices(names, mats, meta)
        built.append(got)
        return got

    monkeypatch.setattr(liealg, "algebra_from_matrices", both)
    L = build()
    assert built == [L]


# --- the builders stay on integers -----------------------------------------

# the Fraction and MatQ round trip the builders skip
FRACTION_ROUTE = (MatQ.__init__, MatQ.to_lists, solve_many, rank_kernel, LieAlgebraData.pairs)


def called_code(build):
    """build() and the code object of every Python function it called."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        out = build()
    finally:
        sys.setprofile(None)
    return out, seen


def thirds_split_sl2():
    """sl2 in the basis (t, p, r) of the sl2/so2 splitting, every constant divided by 3."""
    return LieAlgebraData.from_table(3, ["t", "p", "r"], [
        (0, 1, {2: Fraction(-2, 3)}), (0, 2, {1: Fraction(2, 3)}), (1, 2, {0: Fraction(2, 3)})])


# a matrix realization eliminates its span once, inside its solve
@pytest.mark.parametrize("inputs, build, also", [
    (tuple, lambda: make_classical("sl", 4), (exactlin._rank_int,)),
    (tuple, lambda: make_classical("so", 4), (exactlin._rank_int,)),
    (tuple, lambda: make_centralizer_sl(5, [2, 2, 1]), (exactlin._rank_int,)),
    (lambda: (make_vinberg(["1/2", "2/3", 3]),), lambda q: make_takiff(q, 2),
     (LieAlgebraData.bracket_coeffs,)),
    (lambda: (make_classical("sl", 3),), lambda q: make_takiff(q, 1),
     (LieAlgebraData.bracket_coeffs,)),
    (lambda: (thirds_split_sl2(),), lambda g: make_z2_contraction(g, [0, 1, 1]), ()),
    (lambda: (make_classical("sl", 2),
              [MatQ([[0, "1/2"], [0, 0]]), MatQ([[1, 0], [0, -1]]), MatQ([[0, 0], [2, 0]])]),
     lambda g, rho: make_semidirect(g, rho), ()),
], ids=["sl4", "so4", "z_sl5_221", "takiff_vinberg", "takiff_sl3", "z2_thirds", "semidirect"])
def test_builders_skip_the_fraction_round_trip(inputs, build, also):
    # the inputs are built before the spy starts
    args = inputs()
    L, seen = called_code(lambda: build(*args))
    assert validate(L).ok
    called = [f.__qualname__ for f in (*FRACTION_ROUTE, *also) if f.__code__ in seen]
    assert not called


def test_the_fraction_route_is_gone_from_the_package():
    assert not hasattr(liealg, "_commutator")
    assert not hasattr(exactlin, "rank")


# --- the integer structure table --------------------------------------------

RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def rational_tables(draw):
    """(dim, table) with i < j keys: random constants, which mostly break
    Jacobi, or a Lie algebra in a randomly rescaled basis b_i -> a_i b_i,
    whose constants become c a_i a_j / a_k."""
    if draw(st.booleans()):
        dim = draw(st.integers(2, 5))
        keys = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        return dim, {key: draw(st.dictionaries(st.integers(0, dim - 1), RATIONALS,
                                               max_size=3))
                     for key in draw(st.lists(st.sampled_from(keys), unique=True))}
    base = draw(st.sampled_from([make_classical("sl", 2), make_classical("so", 3),
                                 make_classical("gl", 2), make_vinberg([1, 2, -3]),
                                 make_centralizer_sl(4, [2, 2])]))
    a = draw(st.lists(RATIONALS.filter(bool), min_size=base.dim, max_size=base.dim))
    return base.dim, {(i, j): {k: c * a[i] * a[j] / a[k] for k, c in coeffs.items()}
                      for i, j, coeffs in base.pairs()}


def _algebra(dim, table):
    return LieAlgebraData(dim, [f"b{i}" for i in range(dim)], table)


def _clean(table):
    return {key: {k: c for k, c in coeffs.items() if c}
            for key, coeffs in table.items() if any(coeffs.values())}


@settings(max_examples=60, deadline=None)
@given(rational_tables())
def test_integer_jacobi_check_matches_the_fraction_route(case):
    L = _algebra(*case)
    assert validate(L).as_dict() == fraction_validate(L).as_dict()


@settings(max_examples=40, deadline=None)
@given(rational_tables())
def test_rational_views_return_the_input_constants(case):
    dim, table = case
    L = _algebra(dim, table)
    want = _clean(table)
    assert {(i, j): coeffs for i, j, coeffs in L.pairs()} == want
    for i in range(dim):
        assert L.bracket_coeffs(i, i) == {}
        for j in range(i + 1, dim):
            assert L.bracket_coeffs(i, j) == want.get((i, j), {})
            assert L.bracket_coeffs(j, i) == {k: -c for k, c in want.get((i, j), {}).items()}
    # one denominator in lowest terms: the lcm of the constants' own
    dens = [c.denominator for coeffs in want.values() for c in coeffs.values()]
    assert all(L.den % d == 0 for d in dens)
    assert gcd(L.den, *(c for form in L.num.values() for c in form.values())) == 1


@settings(max_examples=40, deadline=None)
@given(rational_tables(), st.randoms(use_true_random=False))
def test_equal_tables_share_one_representation(case, rnd):
    dim, table = case
    L = _algebra(dim, table)
    # the same constants in another key order, with explicit zeros and
    # an empty pair that is absent from the first table
    items = list(table.items())
    rnd.shuffle(items)
    other = {}
    for key, coeffs in items:
        form = dict(reversed(list(coeffs.items())))
        form.setdefault(rnd.randrange(dim), Fraction(0))
        other[key] = form
    missing = [(i, j) for i in range(dim) for j in range(i + 1, dim) if (i, j) not in table]
    if missing:
        other[rnd.choice(missing)] = {}
    M = _algebra(dim, other)
    assert (M.num, M.den) == (L.num, L.den)
    assert M == L
    # halving every constant gives another table
    if L.num:
        assert _algebra(dim, {key: {k: c / 2 for k, c in coeffs.items()}
                              for key, coeffs in table.items()}) != L


@settings(max_examples=40, deadline=None)
@given(rational_tables())
def test_json_round_trip_keeps_the_table(case):
    L = _algebra(*case)
    assert jsonio.algebra_from_json(jsonio.algebra_to_json(L)) == L


@settings(max_examples=30, deadline=None)
@given(rational_tables(), st.lists(RATIONALS, min_size=7, max_size=7))
def test_bracket_routes_read_the_table_at_its_denominator(case, point):
    dim, table = case
    L = _algebra(dim, table)
    xi = point[:dim]
    K = fraction_kirillov(L, xi)
    assert kirillov(L, xi).matrix.to_lists() == K
    G = generic_kirillov(L)
    x = [MPoly.variable(dim, i) for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            form = MPoly.linear_form([L.bracket_coeffs(i, j).get(k, 0) for k in range(dim)])
            assert G[i][j] == form
            assert bracket(L, x[i], x[j]) == form
            assert coordinate_bracket(L, i, x[j]) == form
            assert frozen_bracket(L, xi, x[i], x[j]) == MPoly.const(dim, K[i][j])
