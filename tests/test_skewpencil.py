"""Skew pencil analysis against fully worked small examples.

Two-block pencil on dim 4: A acts on the first coordinate plane, B on
the second.  det(aA + bB) = a^2 b^2, so both generators are singular
members; every mixed direction is regular with trivial kernel, hence
L = 0, the common image is 0, and the annihilator is everything.  The
recursion operator for A + B against B fixes the B-plane and kills the
A-plane, giving eigenvalues {0, 0, 1, 1}.
"""

from fractions import Fraction

import pytest

from argshift.exactlin import MatQ, SubspaceQ, annihilator
from argshift.liealg import make_classical, make_takiff
from argshift.regcert import FalsificationError
from argshift.sampling import rng_stream
from argshift.skewpencil import (PencilAnalysis, SkewPencil, base_ratios,
                                 char_poly, check_image_equality, compute_L,
                                 phi_operator, rank_profile,
                                 rational_eigenvalues, verify_com1)

SL2 = make_classical("sl", 2)

BLOCK_A = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
BLOCK_B = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]


def sl2_pencil() -> SkewPencil:
    return SkewPencil.from_kirillov(SL2, (1, 0, 0), (0, 0, 1))


def test_pencil_validation():
    with pytest.raises(ValueError, match="skew"):
        SkewPencil.from_matrices([[0, 1], [1, 0]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="square"):
        SkewPencil.from_matrices([[0, 1], [-1, 0]], [[0]])


def test_base_ratios_distinct():
    rs = base_ratios(5)
    assert len(rs) == 7
    assert len(set(rs)) == 7


def test_rank_profile_sl2():
    prof = rank_profile(sl2_pencil())
    assert prof.m == 2
    assert all(rank == 2 for _, rank in prof.ranks)
    assert len(prof.regular_ratios()) == 5


def test_compute_L_sl2():
    # kernels: a=1,b=0 gives the f-axis, a=0,b=1 the e-axis, mixed
    # members give (k, 0, 1); the sum is the (e, f) coordinate plane
    L = compute_L(sl2_pencil())
    assert L == SubspaceQ.span([(0, 0, 1), (1, 0, 0)], 3)


def test_image_and_annihilator_sl2():
    pencil = sl2_pencil()
    L = compute_L(pencil)
    W = check_image_equality(pencil, L)
    assert W == SubspaceQ.span([(0, 1, 0)], 3)
    Lt = annihilator(W)
    assert Lt == L


def test_verify_com1_sl2_kronecker():
    analysis = verify_com1(sl2_pencil())
    assert analysis.kind == "kronecker"
    assert analysis.m == 2
    assert analysis.L_dim == 2
    assert analysis.Ltilde_dim == 2
    assert analysis.image_dim == 1
    assert analysis.isotropic
    assert analysis.eigenvalues == ()
    # maximal isotropic dimension: dim V - m/2
    assert analysis.L_dim == 3 - 1


def test_block_pencil_analysis():
    pencil = SkewPencil.from_matrices(BLOCK_A, BLOCK_B)
    prof = rank_profile(pencil)
    assert prof.m == 4
    assert dict(((tuple(r), k) for r, k in prof.ranks))[(1, 0)] == 2
    L = compute_L(pencil, prof.m)
    assert L.dim == 0
    Lt = annihilator(check_image_equality(pencil, L))
    assert Lt.dim == 4
    analysis = verify_com1(pencil)
    assert analysis.kind == "jordan-mixed"
    assert analysis.A_ratio == (1, 1)
    assert analysis.B_ratio == (0, 1)
    assert analysis.eigenvalues == ((Fraction(0), 2), (Fraction(1), 2))


def test_analysis_carries_the_subspaces():
    # the subspaces verify_com1 returns are the ones the three steps give
    # when called directly
    pencils = [sl2_pencil(), SkewPencil.from_matrices(BLOCK_A, BLOCK_B),
               SkewPencil.from_kirillov(make_takiff(SL2, 1), (1, 2, -1, 3, 0, 1),
                                        (2, -1, 1, 0, 1, 4))]
    for pencil in pencils:
        analysis = verify_com1(pencil)
        L = compute_L(pencil)
        W = check_image_equality(pencil, L)
        assert analysis.L == L
        assert analysis.image == W
        assert analysis.Ltilde == annihilator(W)
        assert (analysis.L_dim, analysis.image_dim) == (L.dim, W.dim)


def test_block_pencil_phi_matrix():
    pencil = SkewPencil.from_matrices(BLOCK_A, BLOCK_B)
    L = compute_L(pencil)
    Lt = annihilator(check_image_equality(pencil, L))
    phi = phi_operator(pencil, L, Lt, (Fraction(1), Fraction(1)),
                       (Fraction(0), Fraction(1)))
    assert phi.matrix == MatQ([[0, 0, 0, 0], [0, 0, 0, 0],
                               [0, 0, 1, 0], [0, 0, 0, 1]])


def test_phi_requires_regular_a_direction():
    pencil = SkewPencil.from_matrices(BLOCK_A, BLOCK_B)
    L = compute_L(pencil)
    Lt = annihilator(check_image_equality(pencil, L))
    with pytest.raises(ValueError, match="regular"):
        phi_operator(pencil, L, Lt, (Fraction(1), Fraction(0)),
                     (Fraction(0), Fraction(1)))


def test_equal_generators_pencil():
    A = MatQ(BLOCK_A)
    pencil = SkewPencil(A, A)
    prof = rank_profile(pencil)
    assert prof.m == 2
    L = compute_L(pencil)
    assert L == SubspaceQ.span([(0, 0, 1, 0), (0, 0, 0, 1)], 4)
    analysis = verify_com1(pencil)
    assert analysis.kind == "jordan-mixed"
    assert analysis.eigenvalues == ((Fraction(1), 2),)


def test_zero_pencil():
    Z = MatQ.zeros(3, 3)
    analysis = verify_com1(SkewPencil(Z, Z))
    assert analysis.kind == "kronecker"
    assert analysis.m == 0
    assert analysis.L_dim == 3


def test_char_poly_oracles():
    assert char_poly(MatQ([[2, 1], [0, 3]])) == [6, -5, 1]
    assert rational_eigenvalues(MatQ([[2, 1], [0, 3]])) == {2: 1, 3: 1}
    assert rational_eigenvalues(MatQ([[0, 2], [1, 0]])) == {}
    assert rational_eigenvalues(MatQ([[0, 1], [0, 0]])) == {Fraction(0): 2}
    assert char_poly(MatQ.zeros(0, 0)) == [1]


def random_skew(rng, n: int) -> MatQ:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-9, 9))
            rows[i][j] = v
            rows[j][i] = -v
    return MatQ(rows)


@pytest.mark.parametrize("n", [5, 7])
def test_random_odd_pencils_maximal_isotropic(n):
    # generic odd-dimensional pencils are Kronecker: the kernel sum is
    # maximal isotropic of dimension (n + 1) / 2
    for trial in range(15):
        rng = rng_stream(17, "pencil-random", n, trial)
        pencil = SkewPencil(random_skew(rng, n), random_skew(rng, n))
        analysis = verify_com1(pencil)
        assert analysis.m == n - 1
        assert analysis.kind == "kronecker"
        assert analysis.L_dim == (n + 1) // 2
        assert analysis.isotropic


def test_sl2_pencil_from_eta_on_other_axis():
    pencil = SkewPencil.from_kirillov(SL2, (0, 1, 0), (1, 0, 0))
    analysis = verify_com1(pencil)
    assert analysis.m == 2
    assert analysis.L_dim == 2
