"""Exact linear algebra tests.

Frozen expected values below are hand derivations: the 3x3 skew matrix
is eliminated on paper (row2 = -2*col swap of row1 pattern), and the
kernel vectors are checked by direct substitution.
"""

import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from argshift.exactlin import (
    MatQ,
    SubspaceQ,
    _cleared,
    _matvec,
    _ratio_str,
    _rank_int,
    _skew_kernel,
    _skew_rank,
    _skew_rows,
    _skew_triangle,
    _solve,
    annihilator,
    image,
    rank_kernel,
    rat,
    rat_str,
    solve_many,
    vec,
)
from oracles import (_rank_kernel_int, bareiss_skew_kernel, bareiss_skew_rank, cascade_reduce,
                     rref_span)
from oracles import (fraction_matrix_add, fraction_matrix_mul, fraction_matrix_scale,
                     fraction_matvec, fraction_transpose)

# hand derivation: K = [[0,-2,0],[2,0,0],[0,0,0]]; rows 1,2 are
# independent (pivot cols 0,1), row 3 zero; rank 2.  K v = 0 forces
# v1 = v2 = 0, v3 free, so kernel = span{(0,0,1)}.
SKEW_3 = MatQ([[0, -2, 0], [2, 0, 0], [0, 0, 0]])


def identity(n):
    return MatQ([[int(i == j) for j in range(n)] for i in range(n)])


def invert(M):
    """Inverse of a square matrix by solve_many on the unit vectors; it
    is singular exactly when a unit vector is outside the column space."""
    if M.rows != M.cols:
        raise ValueError("inverse of non-square matrix")
    n = M.rows
    cols = solve_many(M, [[int(i == j) for i in range(n)] for j in range(n)])
    if any(x is None for x in cols):
        raise ArithmeticError("matrix is singular")
    return MatQ([[x[i] for x in cols] for i in range(n)], cols=n)


def small_matrix(rows, cols):
    return st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(MatQ)


def test_rat_parsing_and_rendering():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-5") == Fraction(-5)
    assert rat("−2") == Fraction(-2)
    assert rat_str(Fraction(-3, 7)) == "-3/7"
    assert rat_str(Fraction(8, 4)) == "2"


@settings(max_examples=100, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))
def test_ratio_str_renders_p_over_q_in_lowest_terms(p, q):
    assert _ratio_str(p, q) == str(Fraction(p, q)) == rat_str(Fraction(p, q))


# a rational as an int, a Fraction or a "p/q" string, all of which _cleared takes
scalars = st.one_of(
    st.integers(-50, 50),
    st.fractions(-50, 50, max_denominator=60),
    st.tuples(st.integers(-50, 50), st.integers(1, 60)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(scalars, max_size=5), max_size=4))
@example([])
@example([[], []])
def test_cleared_gives_numerators_in_lowest_terms_over_one_denominator(vectors):
    # the vectors go in as lists and as generators; both clear alike
    D, nums = _cleared(*vectors)
    assert (D, nums) == _cleared(*(iter(v) for v in vectors))
    assert D > 0
    if not any(vectors):
        assert D == 1
    assert [len(num) for num in nums] == [len(v) for v in vectors]
    for v, num in zip(vectors, nums):
        assert all(type(x) is int for x in num)
        assert [Fraction(x, D) for x in num] == [rat(x) for x in v]
    assert gcd(D, *(x for num in nums for x in num)) == 1


def test_string_entries_build_the_integer_form():
    M = MatQ([["1/2", "-2/3"], ["0", "5"]])
    assert M == MatQ._make(((3, -4), (0, 30)), 2, 6)
    assert (M.num, M.den) == (((3, -4), (0, 30)), 6)
    assert M.matvec(["1/3", 1]) == (Fraction(-1, 2), Fraction(5))


def test_rank_kernel_skew_example():
    r, ker = rank_kernel(SKEW_3)
    assert r == 2
    assert ker.dim == 1
    assert ker.basis == (vec([0, 0, 1]),)
    for v in ker.basis:
        assert all(x == 0 for x in SKEW_3.matvec(v))


def test_rank_kernel_degenerate_shapes():
    r, ker = rank_kernel(MatQ([], cols=4))
    assert r == 0 and ker == SubspaceQ.full(4)
    r, ker = rank_kernel(identity(5))
    assert r == 5 and ker.dim == 0
    r, ker = rank_kernel(MatQ.zeros(3, 3))
    assert r == 0 and ker == SubspaceQ.full(3)


def test_rank_kernel_rational_entries():
    M = MatQ([[rat("1/2"), rat("1/3")], [rat("3/2"), 1]])
    r, ker = rank_kernel(M)
    assert r == 1
    assert ker.dim == 1
    assert all(x == 0 for x in M.matvec(ker.basis[0]))


def test_skew_even_rank_assertion_is_not_triggered_on_valid_input():
    # every skew matrix over a field has even rank; the helper asserts it
    M = MatQ([[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]])
    assert M.is_skew()
    r, _ = rank_kernel(M)
    assert r % 2 == 0


def test_solve_and_invert():
    M = MatQ([[2, 1], [1, 3]])
    x = solve_many(M, [[5, 5]])[0]
    assert x is not None and M.matvec(x) == vec([5, 5])
    assert solve_many(MatQ([[1, 1], [1, 1]]), [[0, 1]]) == [None]
    Minv = invert(M)
    assert M * Minv == identity(2)
    with pytest.raises(ArithmeticError):
        invert(MatQ([[1, 1], [1, 1]]))


def test_matq_refuses_ragged_rows_and_a_column_count_they_do_not_have():
    with pytest.raises(ValueError, match="ragged matrix"):
        MatQ([[1, 2], [3]])
    with pytest.raises(ValueError, match="rows of 2 entries for 3 columns"):
        MatQ([[1, 2]], cols=3)
    assert MatQ([[1, 2]], cols=2) == MatQ([[1, 2]])
    assert MatQ([], cols=3).cols == 3


def test_solve_many_matches_solve():
    M = MatQ([[2, 1], [1, 3], [3, 4]])
    rhs = [[1, 2, 3], [0, 0, 1], [2, 1, 3]]
    got = solve_many(M, rhs)
    # one elimination for all right-hand sides gives what one per b gives
    for b, x in zip(rhs, got):
        assert x == solve_many(M, [b])[0]
        assert x is None or M.matvec(x) == vec(b)


def test_subspace_canonical_equality():
    U = SubspaceQ.span([[1, 2, 3], [0, 0, 1]], 3)
    W = SubspaceQ.span([[2, 4, 7], [1, 2, 4]], 3)
    assert U == W
    assert U.contains([3, 6, 11])
    assert not U.contains([0, 1, 0])


def test_subspace_sum_properties():
    U = SubspaceQ.span([[1, 0, 0]], 3)
    W = SubspaceQ.span([[0, 1, 0]], 3)
    assert U + W == W + U
    assert U + U == U
    assert U + SubspaceQ.zero(3) == U


def test_annihilator_example():
    U = SubspaceQ.span([[1, 0, 0], [0, 1, 0]], 3)
    assert annihilator(U) == SubspaceQ.span([[0, 0, 1]], 3)


def test_image_example():
    U = SubspaceQ.span([[1, 0, 0], [0, 0, 1]], 3)
    img = image(SKEW_3, U)
    assert img == SubspaceQ.span([[0, 1, 0]], 3)


@settings(max_examples=60, deadline=None)
@given(small_matrix(4, 5))
def test_kernel_vectors_are_killed_and_rank_transposes(M):
    r, ker = rank_kernel(M)
    assert r == rank_kernel(M.transpose())[0]
    assert r + ker.dim == M.cols
    for v in ker.basis:
        assert all(x == 0 for x in M.matvec(v))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=0, max_size=4))
def test_annihilator_is_an_involution(rows):
    U = SubspaceQ.span(rows, 4)
    assert annihilator(annihilator(U)) == U
    assert U.dim + annihilator(U).dim == 4


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=1, max_size=3),
    st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=1, max_size=3),
)
def test_dimension_formula(rows_u, rows_w):
    U = SubspaceQ.span(rows_u, 4)
    W = SubspaceQ.span(rows_w, 4)
    S = U + W
    I = annihilator(annihilator(U) + annihilator(W))
    assert S.dim + I.dim == U.dim + W.dim
    assert U.is_subspace_of(S) and I.is_subspace_of(U) and I.is_subspace_of(W)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=5, max_size=5), min_size=5, max_size=5))
def test_random_skew_part_has_even_rank(rows):
    M = MatQ(rows)
    S = M - M.transpose()
    assert S.is_skew()
    r, _ = rank_kernel(S)
    assert r % 2 == 0


# --- the Bareiss rank, which has no kernel ---------------------------------------

fraction_entry = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def int_or_fraction_matrix(max_rows=5, max_cols=5):
    entry = st.one_of(st.integers(-9, 9), fraction_entry)
    return st.integers(0, max_rows).flatmap(lambda r: st.integers(1, max_cols).flatmap(
        lambda c: st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)
        .map(lambda rows: MatQ(rows, cols=c))))


def to_sympy(M):
    import sympy
    return sympy.Matrix(M.rows, M.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in M.to_lists() for x in row])


def sympy_rank(M):
    return to_sympy(M).rank()


@settings(max_examples=80, deadline=None)
@given(int_or_fraction_matrix())
def test_rank_matches_rank_kernel_and_sympy(M):
    assert _rank_int(M.num, M.cols) == rank_kernel(M)[0] == sympy_rank(M)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.one_of(st.integers(-4, 4), fraction_entry),
                                min_size=n, max_size=n), min_size=n, max_size=n)))
def test_rank_of_skew_matrices(rows):
    M = MatQ(rows)
    S = M - M.transpose()
    assert S.is_skew()
    r = rank_kernel(S)[0]
    assert r % 2 == 0
    assert r == _rank_int(S.num, S.cols) == sympy_rank(S)


def test_rank_low_rank_product():
    # a 5x5 product of a 5x2 and a 2x5 factor has rank 2
    u = MatQ([[1, 2], [Fraction(1, 3), 0], [0, 1], [4, -1], [2, 2]])
    v = MatQ([[1, 0, Fraction(-1, 2), 3, 1], [0, 1, 1, Fraction(2, 7), -1]])
    assert _rank_int((u * v).num, 5) == rank_kernel(u * v)[0] == 2


def test_rank_odd_skew_rank_still_raises(monkeypatch):
    import argshift.exactlin as exactlin
    # an elimination that lost a pivot would report odd rank on skew input
    monkeypatch.setattr(exactlin.SubspaceQ, "dim", property(lambda U: len(U.rows) - 1))
    with pytest.raises(ArithmeticError, match="odd rank"):
        rank_kernel(SKEW_3)
    assert rank_kernel(MatQ([[1, 2], [3, 4]]))[0] == 1


# --- skew rank by Pfaffian elimination ------------------------------------------

BIG = 2 ** 64


def wedge_sum(n, pairs):
    """The skew matrix sum over (u, v) of u v^T - v u^T."""
    rows = [[0] * n for _ in range(n)]
    for u, v in pairs:
        for a in range(n):
            for b in range(n):
                rows[a][b] += u[a] * v[b] - u[b] * v[a]
    return rows


@st.composite
def low_rank_skew(draw):
    # rank at most 2 * terms; small coordinates make zero rows and
    # dependent terms, large ones make entries of about 2^64
    n = draw(st.integers(0, 12))
    coord = st.one_of(st.integers(-2, 2), st.integers(-2 ** 32, 2 ** 32))
    vector = st.lists(coord, min_size=n, max_size=n)
    pairs = draw(st.lists(st.tuples(vector, vector), max_size=n // 2 + 1))
    return n, wedge_sum(n, pairs)


@st.composite
def dense_skew(draw):
    n = draw(st.integers(0, 12))
    entry = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
    upper = iter(draw(st.lists(entry, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)))
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            rows[a][b] = next(upper)
            rows[b][a] = -rows[a][b]
    return n, rows


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(st.one_of(low_rank_skew(), dense_skew()))
def test_skew_rank_matches_bareiss_and_sympy(case):
    import sympy
    n, rows = case
    tri = _skew_triangle(rows)
    assert _skew_rows(tri, n) == rows
    r = _skew_rank(tri, n)
    assert r == bareiss_skew_rank(rows, n)
    assert r == sympy.Matrix(n, n, [x for row in rows for x in row]).rank()


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(st.one_of(low_rank_skew(), dense_skew()))
def test_skew_kernel_matches_bareiss_and_sympy(case):
    import sympy
    n, rows = case
    tri = _skew_triangle(rows)
    r, ker = _skew_kernel(tri, n)
    want_r, want_ker = bareiss_skew_kernel(rows, n)
    assert r == want_r == _skew_rank(tri, n)
    assert len(ker) == n - r
    for v in ker:
        assert gcd(*v) == 1
        assert not any(sum(x * y for x, y in zip(row, v)) for row in rows)
    null = sympy.Matrix(n, n, [x for row in rows for x in row]).nullspace()
    assert SubspaceQ(n, ker) == rref_span(ker, n) == rref_span(want_ker, n) == SubspaceQ.span(
        [[Fraction(int(x.p), int(x.q)) for x in v] for v in null], n)


@settings(max_examples=80, deadline=None)
@given(low_rank_skew().filter(lambda case: case[0] > 0), st.data())
def test_skew_rank_rejects_rows_that_are_not_skew(case, data):
    # rows are checked once, where they enter as rows
    n, rows = case
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows[i][j] += data.draw(st.one_of(st.integers(1, BIG), st.integers(-BIG, -1)))
    with pytest.raises(ArithmeticError, match="not skew"):
        _skew_triangle(rows)


@pytest.mark.parametrize("rows, ncols", [
    ([[0, 1], [-1, 0]], 3),
    ([[0, 1, 0], [-1, 0, 0]], 3),
    ([[0, 1], [-1, 0, 0]], 2),
    ([[0, 1, 2], [-1, 0, 3]], 2),
])
def test_skew_rank_rejects_rows_that_are_not_square(rows, ncols):
    # rows that are not square stop at the boundary; square rows of an
    # order other than ncols give a triangle of the wrong length
    if any(len(row) != len(rows) for row in rows):
        with pytest.raises(ArithmeticError, match="not skew"):
            _skew_triangle(rows)
    else:
        for route in (_skew_rank, _skew_kernel):
            with pytest.raises(ArithmeticError, match="no skew triangle of order 3"):
                route(_skew_triangle(rows), ncols)


@pytest.mark.parametrize("tri, n", [([1], 3), ([1, 2], 2), ([], 2), ([0], 1), ([0], 0),
                                    ([1, 2, 3, 4, 5], 4), ([0] * 7, 4)])
def test_skew_rank_rejects_a_triangle_of_the_wrong_length(tri, n):
    for route in (_skew_rank, _skew_kernel):
        with pytest.raises(ArithmeticError, match=f"no skew triangle of order {n}"):
            route(tri, n)


def test_skew_triangle_and_rows_are_inverse_views():
    rows = [[0, 1, -2, 3], [-1, 0, 4, -5], [2, -4, 0, 6], [-3, 5, -6, 0]]
    assert _skew_triangle(rows) == [1, -2, 3, 4, -5, 6]
    assert _skew_rows([1, -2, 3, 4, -5, 6], 4) == rows
    assert _skew_triangle([]) == [] and _skew_rows([], 0) == []
    assert _skew_triangle([[0]]) == [] and _skew_rows([], 1) == [[0]]


def test_skew_rank_of_empty_and_zero_matrices():
    assert _skew_rank([], 0) == 0
    assert _skew_kernel([], 0) == (0, [])
    assert _skew_rank([], 1) == 0
    assert _skew_kernel([], 1) == (0, [[1]])
    assert _skew_rank([0] * 10, 5) == 0
    assert _skew_kernel([0] * 3, 3) == (0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # the pivot sits in the last two rows, below four zero rows
    rows = [[0] * 6 for _ in range(6)]
    rows[4][5], rows[5][4] = 7, -7
    tri = _skew_triangle(rows)
    assert tri == [0] * 14 + [7]
    assert _skew_rank(tri, 6) == 2
    assert _skew_kernel(tri, 6) == (2, [[int(i == k) for i in range(6)] for k in range(4)])


# --- the subspace grown one vector at a time ------------------------------------

@st.composite
def dependent_vectors(draw):
    # integer combinations of a few generators, so that many vectors
    # depend on the ones before them
    n = draw(st.integers(0, 8))
    coord = st.one_of(st.integers(-2, 2), st.integers(-BIG, BIG))
    gens = draw(st.lists(st.lists(coord, min_size=n, max_size=n), max_size=4))
    combos = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(gens),
                                    max_size=len(gens)), max_size=8))
    vectors = gens + [[sum(c * g[i] for c, g in zip(cs, gens)) for i in range(n)]
                      for cs in combos]
    return n, vectors


@settings(max_examples=150, deadline=None)
@given(dependent_vectors(), st.data())
def test_basis_grown_in_any_order_is_the_canonical_span(case, data):
    n, vectors = case
    want = rref_span(vectors, n)
    for order in (vectors, vectors[::-1], data.draw(st.permutations(vectors))):
        S = SubspaceQ(n)
        for k, v in enumerate(order):
            inside = _rank_int(order[:k + 1], n) == S.dim
            assert (not any(S.reduce(v))) == S.contains(v) == inside
            row = S.add(v)
            assert (row is None) == inside
            if row is not None:
                assert gcd(*row) == 1 and row in S.rows.values()
        assert S == SubspaceQ(n, order) == want
        assert S.rows == want.rows and S.basis == want.basis
        for pc, row in S.rows.items():
            assert row[pc] > 0 and [c for c in S.rows if row[c]] == [pc]


# --- one combination over the lcm of the pivots, against the cascade ------------

DIGITS = 10 ** 30


@st.composite
def long_rows(draw):
    # k rows of n entries with up to 30 digits and a vector to reduce;
    # independent generic rows give canonical rows whose pivots all
    # carry the determinant of their pivot minor, and the last rows may
    # repeat combinations of the first
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-3, 3), st.integers(-DIGITS, DIGITS))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n))
    combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(rows),
                                    max_size=len(rows)), max_size=2))
    rows += [[sum(c * r[i] for c, r in zip(cs, rows)) for i in range(n)] for cs in combos]
    return n, rows, draw(st.lists(entry, min_size=n, max_size=n))


def bits(v):
    return max((abs(x).bit_length() for x in v), default=0)


def check_reduce_against_cascade(S, v):
    got, want = S.reduce(v), cascade_reduce(S, v)
    pivots = [row[pc] for pc, row in S.rows.items() if v[pc]]
    # the lcm of the hit pivots where the cascade takes their product
    assert [prod(pivots) * x for x in got] == [lcm(*pivots) * x for x in want]
    k = next((i for i, x in enumerate(want) if x), None)
    assert (k is None) == (not any(got))
    if k is not None:
        assert got[k] * want[k] > 0 and all(got[k] * y == want[k] * x
                                            for x, y in zip(got, want))
    assert bits(got) <= bits(want)
    return got, want


@settings(max_examples=150, deadline=None)
@given(long_rows())
def test_reduce_is_the_cascade_over_one_lcm(case):
    n, rows, v = case
    S = SubspaceQ(n, rows)
    assert S.rows == rref_span(rows, n).rows
    check_reduce_against_cascade(S, v)
    for row in rows:
        assert not any(check_reduce_against_cascade(S, row)[0])


def test_pivots_sharing_a_determinant_cost_the_cascade_their_product():
    rng = random.Random(5)
    n, k = 8, 5
    rows = [[rng.randint(-DIGITS, DIGITS) for _ in range(n)] for _ in range(k)]
    S = SubspaceQ(n, rows)
    # the pivots are the determinant of the pivot minor over small factors
    g = gcd(*(row[pc] for pc, row in S.rows.items()))
    assert S.dim == k and g.bit_length() > 400
    got, want = check_reduce_against_cascade(S, [rng.randint(-9, 9) for _ in range(n)])
    assert bits(want) - bits(got) >= (k - 1) * (g.bit_length() - 1)


# --- subspaces with large rational entries against sympy ----------------------

def sympy_rref(rows, n):
    """The nonzero rows of sympy's RREF of rational rows of length n."""
    import sympy
    if not rows:
        return ()
    S = sympy.Matrix(len(rows), n, [sympy.Rational(x.numerator, x.denominator)
                                    for row in rows for x in vec(row)])
    rref, pivots = S.rref()
    return from_sympy_rows(rref[:len(pivots), :])


def sympy_dim(rows, n):
    return len(sympy_rref(rows, n))


@st.composite
def rational_vectors(draw):
    # rational combinations of a few generators with denominators up to
    # 2^32, so that many vectors depend on the others
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.integers(-3, 3), st.builds(
        Fraction, st.integers(-2 ** 40, 2 ** 40), st.integers(1, 2 ** 32)))
    gens = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
    combos = draw(st.lists(st.lists(entry, min_size=len(gens), max_size=len(gens)),
                           max_size=4))
    vectors = gens + [[sum((c * g[i] for c, g in zip(cs, gens)), Fraction(0))
                       for i in range(n)] for cs in combos]
    return n, vectors


@settings(max_examples=100, deadline=None)
@given(rational_vectors(), st.data())
def test_subspace_operations_match_sympy_on_large_rationals(case, data):
    n, vectors = case
    S = SubspaceQ.span(vectors, n)
    assert S.basis == sympy_rref(vectors, n)
    assert SubspaceQ.span(data.draw(st.permutations(vectors)), n) == S
    cut = data.draw(st.integers(0, len(vectors)))
    U, W = SubspaceQ.span(vectors[:cut], n), SubspaceQ.span(vectors[cut:], n)
    assert (U + W).basis == sympy_rref(U.basis + W.basis, n)
    assert U + W == W + U == S
    assert U.is_subspace_of(W) == (sympy_dim(U.basis + W.basis, n) == W.dim)
    assert W.is_subspace_of(S) and U.is_subspace_of(S)
    for u in vectors + [[x + 1 for x in v] for v in vectors]:
        assert S.contains(u) == (sympy_dim(S.basis + (vec(u),), n) == S.dim)
    dual = annihilator(S)
    if S.dim:
        import sympy
        null = to_sympy(MatQ(S.basis)).nullspace()
        assert dual.basis == sympy_rref([[Fraction(int(x.p), int(x.q)) for x in v]
                                         for v in null], n)
    else:
        assert dual == SubspaceQ.full(n)
    assert dual.dim + S.dim == n


# --- one elimination against sympy ----------------------------------------------

def from_sympy_rows(S):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in S.row(i)) for i in range(S.rows))


def sympy_kernel_rref(M):
    """RREF rows of sympy's nullspace basis: the canonical kernel basis."""
    import sympy
    null = to_sympy(M).nullspace()
    if not null:
        return ()
    rref, pivots = sympy.Matrix.hstack(*null).T.rref()
    return from_sympy_rows(rref[:len(pivots), :])


def skew_matrix(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(st.one_of(st.integers(-4, 4), fraction_entry),
                                    min_size=n, max_size=n), min_size=n, max_size=n)
        .map(lambda rows: MatQ(rows) - MatQ(rows).transpose()))


DEGENERATE = [MatQ([], cols=1), MatQ([], cols=4), MatQ.zeros(1, 1), MatQ.zeros(3, 2),
              MatQ.zeros(2, 5), MatQ.zeros(4, 4)]


def check_kernel(M):
    r, ker = rank_kernel(M)
    assert ker.ambient_dim == M.cols
    assert ker.basis == sympy_kernel_rref(M)
    assert SubspaceQ.span(ker.basis, M.cols) == ker
    assert r + ker.dim == M.cols


@settings(max_examples=80, deadline=None)
@given(int_or_fraction_matrix())
def test_kernel_is_sympy_nullspace_in_rref(M):
    check_kernel(M)


@settings(max_examples=60, deadline=None)
@given(skew_matrix())
def test_kernel_of_skew_matrices_is_sympy_nullspace_in_rref(S):
    check_kernel(S)


@pytest.mark.parametrize("M", DEGENERATE, ids=repr)
def test_kernel_of_degenerate_shapes(M):
    check_kernel(M)
    assert rank_kernel(M)[1] == SubspaceQ.full(M.cols)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-12, 12), min_size=cols, max_size=cols), max_size=6)
    .map(lambda rows: (rows, cols))))
def test_integer_entry_matches_rank_kernel(rows_cols):
    # the batch route gives rank_kernel's rank and, line for line, its
    # canonical kernel, each vector primitive with a positive lead
    rows, cols = rows_cols
    M = MatQ(rows, cols=cols)
    r, ker = _rank_kernel_int(rows, cols)
    R, K = rank_kernel(M)
    assert r == R == _rank_int(rows, cols)
    assert len(ker) == K.dim
    for v, canonical in zip(ker, K.basis):
        lead = next(x for x in v if x)
        assert lead > 0 and gcd(*v) == 1
        assert tuple(Fraction(x, lead) for x in v) == canonical
    assert K.basis == sympy_kernel_rref(M)
    assert rref_span(rows, cols) == SubspaceQ.span(rows, cols) == SubspaceQ(cols, rows)


def check_solve_many(M, rhs):
    import sympy
    S = to_sympy(M)
    got = solve_many(M, rhs)
    assert len(got) == len(rhs)
    # the integer solve of the same systems: num y = den N for b = N / d
    d, nums = _cleared(*rhs)
    ints = [[M.den * c for c in num] for num in nums]
    rank, D, ys = _solve(M.num, M.cols, ints)
    assert rank == (S.rank() if M.rows else 0) and D > 0
    for b, x, c_b, y in zip(rhs, got, ints, ys):
        bs = sympy.Matrix(M.rows, 1, [sympy.Rational(c.numerator, c.denominator)
                                      for c in vec(b)])
        consistent = S.row_join(bs).rank() == S.rank() if M.rows else True
        assert (x is not None) == (y is not None) == consistent
        if x is not None:
            assert M.matvec(x) == vec(b)
            assert _matvec(M.num, y) == [D * c for c in c_b]
            assert x == tuple(Fraction(c, D * d) for c in y)
        assert solve_many(M, [b])[0] == x


@pytest.mark.slow
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_solve_many_agrees_with_sympy(data):
    M = data.draw(int_or_fraction_matrix())
    entry = st.one_of(st.integers(-9, 9), fraction_entry)
    free = data.draw(st.lists(st.lists(entry, min_size=M.rows, max_size=M.rows), max_size=3))
    # right-hand sides in the column space, so both outcomes are exercised
    ys = data.draw(st.lists(st.lists(entry, min_size=M.cols, max_size=M.cols), max_size=2))
    check_solve_many(M, free + [M.matvec(y) for y in ys])


@settings(max_examples=40, deadline=None)
@given(skew_matrix(), st.data())
def test_solve_many_on_skew_matrices(S, data):
    rhs = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=S.rows,
                                      max_size=S.rows), min_size=1, max_size=3))
    check_solve_many(S, rhs + [S.matvec(rhs[0])])


@pytest.mark.parametrize("M", DEGENERATE, ids=repr)
def test_solve_many_degenerate_shapes(M):
    rhs = [[0] * M.rows, [1] * M.rows]
    check_solve_many(M, rhs)


def check_invert(M):
    S = to_sympy(M)
    if S.det() == 0:
        with pytest.raises(ArithmeticError, match="singular"):
            invert(M)
        return
    inv = invert(M)
    assert inv == MatQ(from_sympy_rows(S.inv()), cols=M.cols)
    assert M * inv == identity(M.rows)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(-4, 4), fraction_entry), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_invert_agrees_with_sympy(rows):
    check_invert(MatQ(rows))


@settings(max_examples=30, deadline=None)
@given(skew_matrix(5))
def test_invert_skew_matrices(S):
    check_invert(S)


def test_invert_degenerate_shapes():
    assert invert(MatQ([], cols=0)) == MatQ([], cols=0)
    for n in (1, 3):
        with pytest.raises(ArithmeticError, match="singular"):
            invert(MatQ.zeros(n, n))
    with pytest.raises(ValueError, match="non-square"):
        invert(MatQ.zeros(2, 3))


# --- MatQ's integer rows against Fraction-list arithmetic ----------------------

matq_entry = st.one_of(st.integers(-9, 9), fraction_entry)


def entry_rows(rows, cols):
    return st.lists(st.lists(matq_entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def fractions_of(rows):
    return [[Fraction(x) for x in row] for row in rows]


def canonical_key(M, rows, cols):
    """M's (num, den, hash), after checking its shape and lowest terms."""
    assert (M.rows, M.cols) == (rows, cols)
    assert isinstance(M.num, tuple) and len(M.num) == rows
    assert all(isinstance(row, tuple) and len(row) == cols for row in M.num)
    assert all(type(x) is int for row in M.num for x in row)
    assert M.den > 0 and gcd(M.den, *(x for row in M.num for x in row)) == 1
    return M.num, M.den, hash(M)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_matq_arithmetic_matches_fraction_lists(r, c, k, data):
    # shapes with a zero dimension included: zip(*num) of no rows, and a
    # matvec over no columns
    a, b, m = data.draw(entry_rows(r, c)), data.draw(entry_rows(r, c)), data.draw(entry_rows(c, k))
    s = Fraction(data.draw(matq_entry))
    v = [Fraction(x) for x in data.draw(st.lists(matq_entry, min_size=c, max_size=c))]
    A, B, M = MatQ(a, cols=c), MatQ(b, cols=c), MatQ(m, cols=k)
    fa, fb, fm = fractions_of(a), fractions_of(b), fractions_of(m)
    minus_fb = fraction_matrix_scale(fb, Fraction(-1))
    cases = [(A, fa, (r, c)),
             (A + B, fraction_matrix_add(fa, fb), (r, c)),
             (A - B, fraction_matrix_add(fa, minus_fb), (r, c)),
             (-B, minus_fb, (r, c)),
             (A.scale(s), fraction_matrix_scale(fa, s), (r, c)),
             (A * M, fraction_matrix_mul(fa, fm, k), (r, k)),
             (A.transpose(), fraction_transpose(fa, c), (c, r))]
    for got, want, (rows, cols) in cases:
        assert got.to_lists() == want
        assert all(got[i, j] == x for i, row in enumerate(want) for j, x in enumerate(row))
        built = MatQ(want, cols=cols)
        assert got == built
        assert canonical_key(got, rows, cols) == canonical_key(built, rows, cols)
    out = A.matvec(v)
    assert all(type(x) is Fraction for x in out)
    assert list(out) == fraction_matvec(fa, v)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_equal_matrices_built_different_ways_share_one_representation(r, c, data):
    A = MatQ(data.draw(entry_rows(r, c)), cols=c)
    s = Fraction(data.draw(matq_entry.filter(lambda x: x != 0)))
    key = canonical_key(A, r, c)
    for M in (A.scale(s).scale(1 / s), A.transpose().transpose(), (A + A).scale(Fraction(1, 2)),
              A - MatQ.zeros(r, c), -(-A), identity(r) * A, MatQ(A.to_lists(), cols=c)):
        assert M == A
        assert canonical_key(M, r, c) == key


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(2, 12), st.data())
def test_solve_many_and_rank_kernel_with_a_denominator(r, c, d, data):
    rows = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                              min_size=r, max_size=r))
    rows[0][0] = 1
    M = MatQ(rows).scale(Fraction(1, d))
    assert M.den == d
    # scaling by 1/d keeps the rank and the kernel
    assert rank_kernel(M) == rank_kernel(MatQ(rows))
    fm = fraction_matrix_scale(fractions_of(rows), Fraction(1, d))
    entry = st.lists(matq_entry, min_size=c, max_size=c)
    reached = [fraction_matvec(fm, [Fraction(x) for x in y])
               for y in data.draw(st.lists(entry, min_size=1, max_size=2))]
    free = data.draw(st.lists(st.lists(matq_entry, min_size=r, max_size=r), max_size=2))
    # M x = b is num x = den b: a solution of num x = b would miss b by d
    sols = solve_many(M, reached + free)
    assert all(x is not None for x in sols[:len(reached)])
    for b, x in zip(reached + free, sols):
        assert x is None or fraction_matvec(fm, x) == [Fraction(y) for y in b]
