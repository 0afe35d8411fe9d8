"""Exact linear algebra tests.

Frozen expected values below are hand derivations: the 3x3 skew matrix
is eliminated on paper (row2 = -2*col swap of row1 pattern), and the
kernel vectors are checked by direct substitution.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argshift.exactlin import (
    MatQ,
    SubspaceQ,
    annihilator,
    det,
    image,
    invert,
    is_zero_vec,
    rank,
    rank_kernel,
    rat,
    rat_str,
    solve,
    solve_many,
    subspace_intersection,
    subspace_sum,
    vec,
)

# hand derivation: K = [[0,-2,0],[2,0,0],[0,0,0]]; rows 1,2 are
# independent (pivot cols 0,1), row 3 zero; rank 2.  K v = 0 forces
# v1 = v2 = 0, v3 free, so kernel = span{(0,0,1)}.
SKEW_3 = MatQ([[0, -2, 0], [2, 0, 0], [0, 0, 0]])


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


def test_rank_kernel_skew_example():
    r, ker = rank_kernel(SKEW_3)
    assert r == 2
    assert ker.dim == 1
    assert ker.basis == (vec([0, 0, 1]),)
    for v in ker.basis:
        assert is_zero_vec(SKEW_3.matvec(v))


def test_rank_kernel_degenerate_shapes():
    r, ker = rank_kernel(MatQ([], cols=4))
    assert r == 0 and ker == SubspaceQ.full(4)
    r, ker = rank_kernel(MatQ.identity(5))
    assert r == 5 and ker.dim == 0
    r, ker = rank_kernel(MatQ.zeros(3, 3))
    assert r == 0 and ker == SubspaceQ.full(3)


def test_rank_kernel_rational_entries():
    M = MatQ([[rat("1/2"), rat("1/3")], [rat("3/2"), 1]])
    r, ker = rank_kernel(M)
    assert r == 1
    assert ker.dim == 1
    assert is_zero_vec(M.matvec(ker.basis[0]))


def test_skew_even_rank_assertion_is_not_triggered_on_valid_input():
    # every skew matrix over a field has even rank; the helper asserts it
    M = MatQ([[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]])
    assert M.is_skew()
    r, _ = rank_kernel(M)
    assert r % 2 == 0


def test_det_examples():
    assert det(MatQ([[0, -2], [2, 0]])) == 4
    assert det(MatQ([[1, 2], [2, 4]])) == 0
    assert det(MatQ([[rat("1/2"), 0], [7, rat("2/3")]])) == Fraction(1, 3)
    assert det(MatQ.identity(4)) == 1


def test_solve_and_invert():
    M = MatQ([[2, 1], [1, 3]])
    x = solve(M, [5, 5])
    assert x is not None and M.matvec(x) == vec([5, 5])
    assert solve(MatQ([[1, 1], [1, 1]]), [0, 1]) is None
    Minv = invert(M)
    assert M * Minv == MatQ.identity(2)
    with pytest.raises(ArithmeticError):
        invert(MatQ([[1, 1], [1, 1]]))


def test_solve_many_matches_solve():
    M = MatQ([[2, 1], [1, 3], [3, 4]])
    rhs = [[1, 2, 3], [0, 0, 1], [2, 1, 3]]
    got = solve_many(M, rhs)
    for b, x in zip(rhs, got):
        assert x == solve(M, b)


def test_subspace_canonical_equality():
    U = SubspaceQ.span([[1, 2, 3], [0, 0, 1]], 3)
    W = SubspaceQ.span([[2, 4, 7], [1, 2, 4]], 3)
    assert U == W
    assert U.contains([3, 6, 11])
    assert not U.contains([0, 1, 0])


def test_subspace_sum_properties():
    U = SubspaceQ.span([[1, 0, 0]], 3)
    W = SubspaceQ.span([[0, 1, 0]], 3)
    assert subspace_sum(U, W) == subspace_sum(W, U)
    assert subspace_sum(U, U) == U
    assert subspace_sum(U, SubspaceQ.zero(3)) == U


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
    assert r == rank(M.transpose())
    assert r + ker.dim == M.cols
    for v in ker.basis:
        assert is_zero_vec(M.matvec(v))


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
    S = subspace_sum(U, W)
    I = subspace_intersection(U, W)
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


# --- rank without a kernel -----------------------------------------------------

fraction_entry = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def int_or_fraction_matrix(max_rows=5, max_cols=5):
    entry = st.one_of(st.integers(-9, 9), fraction_entry)
    return st.integers(0, max_rows).flatmap(lambda r: st.integers(1, max_cols).flatmap(
        lambda c: st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)
        .map(lambda rows: MatQ(rows, cols=c))))


def sympy_rank(M):
    import sympy
    return sympy.Matrix(M.rows, M.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in M.to_lists() for x in row]).rank()


@settings(max_examples=80, deadline=None)
@given(int_or_fraction_matrix())
def test_rank_matches_rank_kernel_and_sympy(M):
    assert rank(M) == rank_kernel(M)[0] == sympy_rank(M)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.one_of(st.integers(-4, 4), fraction_entry),
                                min_size=n, max_size=n), min_size=n, max_size=n)))
def test_rank_of_skew_matrices(rows):
    M = MatQ(rows)
    S = M - M.transpose()
    assert S.is_skew()
    r = rank(S)
    assert r % 2 == 0
    assert r == rank_kernel(S)[0] == sympy_rank(S)


def test_rank_low_rank_product():
    # a 5x5 product of a 5x2 and a 2x5 factor has rank 2
    u = MatQ([[1, 2], [Fraction(1, 3), 0], [0, 1], [4, -1], [2, 2]])
    v = MatQ([[1, 0, Fraction(-1, 2), 3, 1], [0, 1, 1, Fraction(2, 7), -1]])
    assert rank(u * v) == rank_kernel(u * v)[0] == 2


def test_rank_odd_skew_rank_still_raises(monkeypatch):
    import argshift.exactlin as exactlin
    # an elimination that lost a pivot would report odd rank on skew input
    monkeypatch.setattr(exactlin, "_echelon", lambda work, ncols: [0])
    with pytest.raises(ArithmeticError, match="odd rank"):
        rank(SKEW_3)
    assert rank(MatQ([[1, 2], [3, 4]])) == 1
