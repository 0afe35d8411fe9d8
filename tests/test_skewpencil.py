"""Skew pencil analysis against fully worked small examples.

Two-block pencil on dim 4: A acts on the first coordinate plane, B on
the second.  det(aA + bB) = a^2 b^2, so both generators are singular
members; every mixed direction is regular with trivial kernel, hence
L = 0, the common image is 0, and the annihilator is everything.  The
recursion operator for A + B against B fixes the B-plane and kills the
A-plane, giving eigenvalues {0, 0, 1, 1}.
"""

import json
from fractions import Fraction
from itertools import combinations, product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from argshift import exactlin, jsonio, poisson, regcert, skewpencil
from argshift.exactlin import (MatQ, SubspaceQ, annihilator, faddeev_leverrier, rank_kernel,
                               solve_many)
from argshift.liealg import make_centralizer_sl, make_classical, make_takiff
from argshift.mpoly import MPoly, rational_roots
from argshift.poisson import classical_casimirs, estimate_index, kirillov
from argshift.regcert import FalsificationError, find_regular_plane, verify_compl
from argshift.sampling import rng_stream
from argshift.skewpencil import (PencilAnalysis, SkewPencil, _image_and_annihilator,
                                 _kernel_walk, base_ratios, char_poly, check_image_equality,
                                 compute_L, phi_operator, rank_profile, verify_com1)
from oracles import (ambient_image_equality, fraction_char_poly, stream_minor_gcd,
                     two_solve_phi)
from test_golden_reports import MATRICES, PLANES as GOLDEN_PLANES

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
    assert phi == MatQ([[0, 0, 0, 0], [0, 0, 0, 0],
                        [0, 0, 1, 0], [0, 0, 0, 1]])
    # halving the A-direction doubles the solutions of A w = B v
    half = phi_operator(pencil, L, Lt, (Fraction(1, 2), Fraction(1, 2)),
                        (Fraction(0), Fraction(1)))
    assert half == phi.scale(2)


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
    assert rational_roots(char_poly(MatQ([[2, 1], [0, 3]]))) == {2: 1, 3: 1}
    assert rational_roots(char_poly(MatQ([[0, 2], [1, 0]]))) == {}
    assert rational_roots(char_poly(MatQ([[0, 1], [0, 0]]))) == {Fraction(0): 2}
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


# --- the image check against the minor-gcd oracle ---------------------------

def minor_image_oracle(pencil: SkewPencil, L: SubspaceQ) -> SubspaceQ:
    """The common image W of L, certified by the older route: A(L) = B(L),
    then a constant gcd of the order-dim W minors of (aA + bB) on L."""
    n = pencil.dim
    avs = [pencil.member(1, 0).matvec(v) for v in L.basis]
    bvs = [pencil.member(0, 1).matvec(v) for v in L.basis]
    W = SubspaceQ.span(avs, n)
    if W != SubspaceQ.span(bvs, n):
        raise FalsificationError("images differ", {})
    w = W.dim
    if w == 0:
        return W
    entries = [[MPoly(2, {k: c for k, c in (((1, 0), av[i]), ((0, 1), bv[i])) if c != 0})
                for av, bv in zip(avs, bvs)] for i in range(n)]
    g, _ = stream_minor_gcd(entries, product(combinations(range(n), w),
                                             combinations(range(L.dim), w)))
    if g is None or not g.is_constant():
        raise FalsificationError("rank drop", {"minor_gcd": g})
    return W


def raised(route, pencil: SkewPencil, L: SubspaceQ):
    """The route's W, or the claim and bundle it raised."""
    try:
        return route(pencil, L)
    except FalsificationError as exc:
        return exc.claim, exc.bundle


def image_routes(pencil: SkewPencil, L: SubspaceQ):
    """The route's W, None where it raised.  The ambient-space Wong
    sequence must give the same W or raise the same claim and bundle;
    the minor route must agree on W."""
    got = raised(check_image_equality, pencil, L)
    assert got == raised(ambient_image_equality, pencil, L)
    W = got if isinstance(got, SubspaceQ) else None
    minor = raised(minor_image_oracle, pencil, L)
    assert W == (minor if isinstance(minor, SubspaceQ) else None)
    return W


def test_image_routes_agree_on_analysed_pencils():
    pencils = [sl2_pencil(), SkewPencil.from_kirillov(SL2, (0, 1, 0), (1, 0, 0)),
               SkewPencil.from_matrices(BLOCK_A, BLOCK_B),
               SkewPencil(MatQ(BLOCK_A), MatQ(BLOCK_A)),
               SkewPencil(MatQ.zeros(3, 3), MatQ.zeros(3, 3)),
               SkewPencil.from_kirillov(make_takiff(SL2, 1), (1, 2, -1, 3, 0, 1),
                                        (2, -1, 1, 0, 1, 4))]
    for n in (5, 7):
        for trial in range(3):
            rng = rng_stream(17, "pencil-random", n, trial)
            pencils.append(SkewPencil(random_skew(rng, n), random_skew(rng, n)))
    for pencil in pencils:
        assert image_routes(pencil, compute_L(pencil)) is not None


def off_diagonal_pencil(P, Q) -> SkewPencil:
    """Skew A, B on Q^(l + w) whose columns on the first l coordinates
    are the w x l matrices P and Q placed below them."""
    w, l = len(P), len(P[0])
    n = l + w

    def skew(M):
        rows = [[0] * n for _ in range(n)]
        for i in range(w):
            for j in range(l):
                rows[l + i][j], rows[j][l + i] = M[i][j], -M[i][j]
        return MatQ(rows)
    return SkewPencil(skew(P), skew(Q))


def test_image_routes_raise_on_jordan_block():
    # A = [[0, I], [-I, 0]], B = [[0, J], [-J^T, 0]], J the Jordan block at 3:
    # A - B / 3 maps span(e1, e2) onto a line; no analysed pencil gets here
    pencil = SkewPencil.from_matrices(
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
        [[0, 0, 3, 1], [0, 0, 0, 3], [-3, 0, 0, 0], [-1, -3, 0, 0]])
    L = SubspaceQ.span([(1, 0, 0, 0), (0, 1, 0, 0)], 4)
    assert image_routes(pencil, L) is None
    with pytest.raises(FalsificationError) as exc:
        check_image_equality(pencil, L)
    assert json.loads(jsonio.dumps(exc.value.bundle)) == exc.value.bundle
    assert exc.value.bundle["W_dim"] == 2
    assert exc.value.bundle["reached_dim"] == 0


@pytest.mark.parametrize("w, l", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 2), (3, 3), (3, 5)])
def test_image_routes_agree_on_seeded_pencils(w, l):
    # P = W0 P', Q = W0 Q' with P', Q' of r rows share their image col(W0);
    # forcing the first rows of P' and lam Q' equal makes e_1 a common left
    # eigenvector, so the member A - lam B drops rank on L; with r = l
    # the pencil P', Q' is square and drops rank at a root of its determinant
    seen = set()
    for forced in (False, True):
        for trial in range(8):
            rng = rng_stream(23, "image-routes", w, l, forced, trial)

            def rand(rows, cols):
                return [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            r = rng.randint(1, min(w, l))
            W0, P1, Q1 = rand(w, r), rand(r, l), rand(r, l)
            if rank_kernel(MatQ(W0))[0] < r or rank_kernel(MatQ(Q1))[0] < r:
                continue
            if forced:
                lam = rng.randint(-3, 3)
                P1[0] = [lam * x for x in Q1[0]]
            P, Q = (MatQ(W0) * MatQ(M) for M in (P1, Q1))
            pencil = off_diagonal_pencil(P.to_lists(), Q.to_lists())
            L = SubspaceQ.span([tuple(int(i == j) for j in range(l + w)) for i in range(l)],
                               l + w)
            W = image_routes(pencil, L)
            seen.add(W is None)
            if forced:
                assert W is None
    assert seen == ({False, True} if l > 1 else {True})


def test_image_route_raises_the_oracle_bundle_when_images_differ():
    pencil = SkewPencil.from_matrices(BLOCK_A, BLOCK_B)
    # B(L) = 0 inside A(L), and B(L) outside A(L) with the same dimension
    for basis, b_dim in (([(1, 0, 0, 0)], 0), ([(1, 0, 1, 0)], 1)):
        L = SubspaceQ.span(basis, 4)
        got = raised(check_image_equality, pencil, L)
        assert got == raised(ambient_image_equality, pencil, L)
        assert got == ("kernel-sum images under the two pencil generators differ",
                       {"dim": 4, "L_dim": 1, "A_image_dim": 1, "B_image_dim": b_dim})


def grown_basis(vectors, n: int) -> tuple[SubspaceQ, list]:
    """The span of integer vectors and those that grew it, one after the
    other: a basis of it."""
    S = SubspaceQ(n)
    return S, [v for v in vectors if S.add(v) is not None]


def test_image_route_matches_the_ambient_oracle_on_every_pencil():
    # the kernel sum of every pencil above, and random subspaces in its
    # place, which mostly raise; on L's canonical rows and on the basis
    # that grew L: the walk's kernel vectors, or the random vectors
    pairs = oracle_pencils() + [(MatQ(BLOCK_A), MatQ(BLOCK_A)),
                                (MatQ.zeros(3, 3), MatQ.zeros(3, 3))]
    claims = set()
    for k, (A, B) in enumerate(pairs):
        pencil = SkewPencil(A, B)
        n = pencil.dim
        _, L, basis, _ = _kernel_walk(pencil, rank_profile(pencil).m)
        assert L == compute_L(pencil) and len(basis) == L.dim
        W = check_image_equality(pencil, L, basis)
        assert _image_and_annihilator(pencil, L, basis) == (W, annihilator(W))
        rng = rng_stream(41, "image-ambient", k)
        spans = [(L, basis)] + [
            grown_basis([[rng.randint(-2, 2) for _ in range(n)]
                         for _ in range(rng.randint(1, n))], n) for _ in range(4)]
        for L, basis in spans:
            got = raised(check_image_equality, pencil, L)
            assert got == raised(ambient_image_equality, pencil, L)
            assert got == raised(lambda p, L: check_image_equality(p, L, basis), pencil, L)
            if not isinstance(got, SubspaceQ):
                claims.add(got[0])
    assert claims == {"kernel-sum images under the two pencil generators differ",
                      "some pencil member maps the kernel sum onto a smaller image"}


# --- the integer pencil layer against the Fraction route -----------------------

def fraction_analysis(A: MatQ, B: MatQ) -> dict:
    """The analysis verify_com1 reports, by the Fraction route: exact
    members, the is_subspace_of walk for the kernel sum, MatQ.matvec
    images with the Wong sequence on SubspaceQ, and the recursion
    operator through solve_many."""
    n = A.rows

    def member(a, b):
        return A.scale(a) + B.scale(b)
    ranks = [((a, b), rank_kernel(member(a, b))) for a, b in base_ratios(n)]
    m = max(r for _, (r, _) in ranks)
    extra = [(Fraction(1), Fraction(k)) for k in range(n + 1, 4 * n + 10)]
    L, consecutive = SubspaceQ.zero(n), 0
    for a, b in [r for r, _ in ranks] + extra:
        r, ker = rank_kernel(member(a, b))
        if r != m:
            continue
        if ker.is_subspace_of(L):
            consecutive += 1
        else:
            L, consecutive = L + ker, 0
        if consecutive >= n:
            break
    avs = [A.matvec(v) for v in L.basis]
    W = SubspaceQ.span(avs, n)
    assert W == SubspaceQ.span([B.matvec(v) for v in L.basis], n)
    AL = MatQ([[av[i] for av in avs] for i in range(n)], cols=L.dim)
    K = SubspaceQ.zero(n)
    while K.dim < W.dim:
        cols = [B.matvec(v) for v in L.basis] + [tuple(-x for x in k) for k in K.basis]
        _, ker = rank_kernel(MatQ([[c[i] for c in cols] for i in range(n)], cols=len(cols)))
        grown = SubspaceQ.span([AL.matvec(u[:L.dim]) for u in ker.basis], n)
        if grown.dim == K.dim:
            break
        K = grown
    assert K == W
    Lt = annihilator(W)
    assert L.is_subspace_of(Lt)
    out = {"m": m, "L": L, "image": W, "Ltilde": Lt, "kind": "kronecker",
           "ranks": tuple((ratio, r) for ratio, (r, _) in ranks),
           "eigenvalues": (), "char_poly": None}
    if L == Lt:
        return out
    A_ratio = next(ratio for ratio, (r, _) in ranks if r == m)
    B_ratio = (Fraction(1), Fraction(0)) if A_ratio[0] == 0 else (Fraction(0), Fraction(1))
    Am, Bm = member(*A_ratio), member(*B_ratio)
    comp, cur = [], L
    for v in Lt.basis:
        if not cur.contains(v):
            comp.append(v)
            cur = cur + SubspaceQ.span([v], n)
    ws = solve_many(Am, [Bm.matvec(v) for v in comp])
    frame = comp + list(L.basis)
    coords = solve_many(MatQ([[u[i] for u in frame] for i in range(n)], cols=len(frame)), ws)
    q = len(comp)
    cp = char_poly(MatQ([[coords[j][i] for j in range(q)] for i in range(q)], cols=q))
    out.update(kind="jordan-mixed", char_poly=cp,
               eigenvalues=tuple(sorted(rational_roots(cp).items())))
    return out


def analysis_fields(analysis: PencilAnalysis) -> dict:
    return {"m": analysis.m, "L": analysis.L, "image": analysis.image,
            "Ltilde": analysis.Ltilde, "kind": analysis.kind, "ranks": analysis.ranks,
            "eigenvalues": analysis.eigenvalues, "char_poly": analysis.char_poly}


def congruent(M, P):
    return (MatQ(P).transpose() * MatQ(M) * MatQ(P)).to_lists()


SL3 = make_classical("sl", 3)
SUBREGULAR = (0, 0, 0, 0, 3, 0, 0, 0)
E = (1, 0, 0, 0, 0, 0, 0, 1)


def halved(v):
    return tuple(Fraction(x, 2) for x in v)


# Kirillov pencils.  On span(S + E, E), S subregular, the singular
# directions are (0 : 1) and (1 : -1), so scaling one form alone moves
# the second; halving one point gives its form denominator 2.
S_E = tuple(x + y for x, y in zip(SUBREGULAR, E))
PLANES = [(SL2, (1, 0, 0), (0, 0, 1)), (SL3, SUBREGULAR, E), (SL3, S_E, E),
          (SL3, halved(S_E), E), (SL3, S_E, halved(E)),
          (SL3, (1, Fraction(-1, 3), 2, 0, 1, 5, 0, -1), (2, 1, 0, -1, 3, 0, 1, 1))]


def oracle_pencils():
    """(A, B) pairs: seeded integer pencils, Jordan-type congruences, Kirillov
    forms, and pencils whose two forms have different denominators."""
    pairs = [(MatQ(BLOCK_A), MatQ(BLOCK_B)), (MatQ(BLOCK_A), MatQ(BLOCK_A))]
    pairs += [(kirillov(L, xi).matrix, kirillov(L, eta).matrix) for L, xi, eta in PLANES]
    for trial in range(6):
        rng = rng_stream(31, "pencil-oracle", trial)
        n = rng.randint(4, 7)
        pairs.append((random_skew(rng, n), random_skew(rng, n)))
        # a Jordan block at lam under a random congruence, one form scaled
        # by 1/2 so that the two forms have different denominators
        lam = rng.randint(-3, 3)
        P = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        if rank_kernel(MatQ(P))[0] == 4:
            J = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
            K = [[0, 0, lam, 1], [0, 0, 0, lam], [-lam, 0, 0, 0], [-1, -lam, 0, 0]]
            pairs.append((MatQ(congruent(J, P)).scale(Fraction(1, 2)), MatQ(congruent(K, P))))
        # fractional entries with unrelated denominators in A and B
        A, B = random_skew(rng, n), random_skew(rng, n)
        pairs.append((A.scale(Fraction(1, rng.choice((2, 3, 6)))), B.scale(Fraction(2, 5))))
    return pairs


@pytest.mark.parametrize("k", range(len(oracle_pencils())))
def test_integer_layer_matches_fraction_route(k):
    A, B = oracle_pencils()[k]
    want = fraction_analysis(A, B)
    for c in (1, 7, Fraction(1, 7)):
        pencil = SkewPencil(A.scale(c), B.scale(c))
        assert rank_profile(pencil).m == want["m"]
        assert compute_L(pencil) == want["L"]
        assert check_image_equality(pencil, want["L"]) == want["image"]
        assert analysis_fields(verify_com1(pencil)) == want


@pytest.mark.parametrize("L, xi, eta", PLANES)
def test_kirillov_pencils_match_fraction_route(L, xi, eta):
    want = fraction_analysis(kirillov(L, xi).matrix, kirillov(L, eta).matrix)
    assert analysis_fields(verify_com1(SkewPencil.from_kirillov(L, xi, eta))) == want


def test_oracle_pencils_cover_both_kinds_and_denominators():
    pairs = oracle_pencils()
    kinds = {fraction_analysis(A, B)["kind"] for A, B in pairs}
    assert kinds == {"kronecker", "jordan-mixed"}
    # pencils whose forms differ in denominator, where scaling one form
    # alone changes the answer
    assert any(SkewPencil(A, B)._den > 1 and
               fraction_analysis(A, B) != fraction_analysis(A, B.scale(2))
               for A, B in pairs)


# --- a Kronecker block beside a Jordan block, under a rational congruence ------

def mixed_pencil() -> tuple[MatQ, MatQ]:
    """The pinned 7 x 7 report's pencil: e1^e2 and e2^e3 (one Kronecker
    block) beside a 2 x 2 Jordan block at -1/2, under a rational
    congruence."""
    A, B = MATRICES["jordan-mixed-7-fractional"]
    return MatQ(A), MatQ(B)


def test_phi_on_primitive_rows_matches_the_unit_lead_fraction_route():
    # Ltilde's echelon rows are not unit vectors here, so the quotient
    # basis of primitive rows differs from the unit-lead one by a
    # diagonal similarity, which keeps char_poly and the eigenvalues
    A, B = mixed_pencil()
    pencil = SkewPencil(A, B)
    assert pencil._den > 1
    analysis = verify_com1(pencil)
    assert analysis.kind == "jordan-mixed"
    assert any(row[pc] > 1 for pc, row in analysis.Ltilde.rows.items())
    assert analysis.eigenvalues == ((Fraction(-1, 2), 4),)
    assert analysis_fields(analysis) == fraction_analysis(A, B)


@pytest.mark.parametrize("pencil", [sl2_pencil(), SkewPencil(*mixed_pencil())],
                         ids=["sl2", "mixed-7"])
def test_a_degenerate_gram_matrix_is_a_kernel_escaping_the_sum(pencil):
    # with L = 0 and Ltilde = V the Gram matrix of A is A itself, singular
    # below the generic rank n however regular A is
    n = pencil.dim
    prof = rank_profile(pencil)
    assert prof.m < n
    A_ratio = prof.regular_ratios()[0]
    B_ratio = (1, 0) if A_ratio[0] == 0 else (0, 1)
    with pytest.raises(FalsificationError) as err:
        phi_operator(pencil, SubspaceQ(n), SubspaceQ.full(n), A_ratio, B_ratio)
    assert err.value.claim == "kernel of a regular member escapes the kernel sum"
    assert err.value.bundle == {"dim": n, "L_dim": 0, "Ltilde_dim": n}


def phi_against_two_solves(pencil: SkewPencil) -> PencilAnalysis:
    analysis = verify_com1(pencil)
    if analysis.kind == "jordan-mixed":
        args = (pencil, analysis.L, analysis.Ltilde, analysis.A_ratio, analysis.B_ratio)
        assert phi_operator(*args, analysis.m) == phi_operator(*args) == two_solve_phi(*args)
    return analysis


def test_phi_matches_the_two_solve_route_on_the_oracle_pencils():
    kinds = [phi_against_two_solves(SkewPencil(A, B)).kind for A, B in oracle_pencils()]
    assert kinds.count("jordan-mixed") >= 10


@pytest.mark.parametrize("name", ["sl3-subregular-plane", "jordan-4",
                                  "jordan-mixed-7-fractional"])
def test_phi_matches_the_two_solve_route_on_the_golden_jordan_pencils(name):
    assert phi_against_two_solves(golden_pencil(name)).kind == "jordan-mixed"


# --- char_poly against sympy ------------------------------------------------

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def square_matrices(draw, entries):
    q = draw(st.integers(0, 5))
    return [[draw(entries) for _ in range(q)] for _ in range(q)]


def sympy_char_poly(rows) -> list[Fraction]:
    q = len(rows)
    S = sympy.Matrix(q, q, [sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                            for row in rows for x in row])
    return [Fraction(int(c.p), int(c.q)) for c in reversed(S.charpoly().all_coeffs())]


# rationals with denominators up to 10^6, and small integers
wide_fractions = st.one_of(st.integers(-3, 3), st.builds(
    Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)))


@st.composite
def wide_matrices(draw):
    q = draw(st.integers(0, 8))
    return [[draw(wide_fractions) for _ in range(q)] for _ in range(q)]


@settings(max_examples=100, deadline=None)
@given(st.one_of(square_matrices(st.integers(-30, 30)), square_matrices(fractions),
                 wide_matrices()))
def test_char_poly_matches_sympy(rows):
    M = MatQ(rows, cols=len(rows))
    # the recurrence runs on ints; Fractions appear only in the rescale
    assert all(type(c) is int for c in faddeev_leverrier(M.num, 1))
    assert char_poly(M) == fraction_char_poly(M) == sympy_char_poly(rows)


def test_char_poly_runs_the_recurrence_on_the_integer_rows(monkeypatch):
    calls = []

    def counted(rows, one, fn=skewpencil.faddeev_leverrier):
        calls.append((rows, one))
        return fn(rows, one)
    monkeypatch.setattr(skewpencil, "faddeev_leverrier", counted)
    M = MatQ([[Fraction(1, 2), 3], [Fraction(-2, 3), Fraction(5, 6)]])
    assert char_poly(M) == fraction_char_poly(M)
    assert calls == [(M.num, 1)] and type(calls[0][1]) is int


def test_integer_faddeev_leverrier_checks_each_division():
    # non-integer entries leave a trace of 1/2 for the division by 1, and
    # one that 2 does not divide for the division by 2
    with pytest.raises(ArithmeticError, match="lost exact divisibility"):
        faddeev_leverrier([[Fraction(1, 2)]], 1)
    with pytest.raises(ArithmeticError, match="lost exact divisibility"):
        faddeev_leverrier([[1, Fraction(1, 2)], [1, 0]], 1)


# --- one elimination per member ------------------------------------------------

GOLDEN_ALGEBRAS = {"sl4-plane": make_classical("sl", 4),
                   "takiff-sl3-1-plane": make_takiff(make_classical("sl", 3), 1),
                   "sl3-subregular-plane": SL3, "sl5-plane": make_classical("sl", 5),
                   "takiff-sl3-2-plane": make_takiff(make_classical("sl", 3), 2)}


def golden_pencil(name: str) -> SkewPencil:
    if name in MATRICES:
        return SkewPencil.from_matrices(*MATRICES[name])
    _, xi, eta = GOLDEN_PLANES[name]
    return SkewPencil.from_kirillov(GOLDEN_ALGEBRAS[name], xi.split(","), eta.split(","))


def eliminations(monkeypatch, pencil: SkewPencil) -> tuple[PencilAnalysis, list]:
    """verify_com1's analysis and its member eliminations, in order, as
    (function name, member triangle)."""
    calls = []
    for name in ("_skew_rank", "_skew_kernel"):
        def counted(tri, n, name=name, fn=getattr(skewpencil, name)):
            assert len(tri) == n * (n - 1) // 2
            calls.append((name, tuple(tri)))
            return fn(tri, n)
        monkeypatch.setattr(skewpencil, name, counted)
    return verify_com1(pencil), calls


@pytest.mark.parametrize("name", ["sl4-plane", "takiff-sl3-1-plane", "kronecker-9"])
def test_a_kronecker_certificate_takes_no_rank_profile(monkeypatch, name):
    analysis, calls = eliminations(monkeypatch, golden_pencil(name))
    assert analysis.kind == "kronecker"
    assert {fn for fn, _ in calls} == {"_skew_kernel"}
    assert len(calls) < len(analysis.ranks)


@pytest.mark.parametrize("name", ["sl3-subregular-plane", "jordan-4"])
def test_a_jordan_analysis_eliminates_each_member_once(monkeypatch, name):
    pencil = golden_pencil(name)
    analysis, calls = eliminations(monkeypatch, pencil)
    assert analysis.kind == "jordan-mixed"
    # the eigenvalue cross-check ranks one member per eigenvalue, last
    (a1, a2), (b1, b2) = analysis.A_ratio, analysis.B_ratio
    checks = [("_skew_rank", tuple(pencil._member(
        lam.denominator * b1 - lam.numerator * a1, lam.denominator * b2 - lam.numerator * a2)))
        for lam, _ in analysis.eigenvalues]
    assert checks and calls[len(calls) - len(checks):] == checks
    members = [rows for _, rows in calls[:len(calls) - len(checks)]]
    assert len(set(members)) == len(members)
    # every base ratio is ranked, by the kernel walk or by the profile
    assert len(members) >= len(analysis.ranks)


@pytest.mark.parametrize("name", ["sl3-subregular-plane", "jordan-4"])
def test_a_jordan_analysis_solves_one_gram_system(monkeypatch, name):
    calls = []

    def counted(rows, cols, rhs, fn=skewpencil._solve):
        calls.append((len(rows), cols, len(rhs)))
        return fn(rows, cols, rhs)
    monkeypatch.setattr(skewpencil, "_solve", counted)
    analysis = verify_com1(golden_pencil(name))
    q = analysis.Ltilde_dim - analysis.L_dim
    w, l = analysis.image_dim, analysis.L_dim
    assert analysis.kind == "jordan-mixed" and q > 0 and (w, l) != (q, q)
    assert calls.count((q, q, q)) == 1
    # every other solve is the Wong sequence's right inverse of B on L
    assert set(calls) - {(q, q, q)} <= {(w, l, w)}


def test_phi_operator_builds_its_matrix_from_the_one_solve(monkeypatch):
    pencil = golden_pencil("jordan-4")
    analysis = verify_com1(pencil)
    args = (pencil, analysis.L, analysis.Ltilde, analysis.A_ratio, analysis.B_ratio)
    want = two_solve_phi(*args)

    def refuse(*_args, **_kwargs):
        raise AssertionError("phi_operator took a second route")
    monkeypatch.setattr(skewpencil, "_rank_int", refuse)
    monkeypatch.setattr(MatQ, "__init__", refuse)
    assert phi_operator(*args, analysis.m) == want


def annihilators(monkeypatch, pencil: SkewPencil) -> tuple[PencilAnalysis, list[int]]:
    """verify_com1's analysis and the dimension of each subspace whose
    annihilator it takes."""
    calls = []

    def counted(U, fn=skewpencil.annihilator):
        calls.append(U.dim)
        return fn(U)
    monkeypatch.setattr(skewpencil, "annihilator", counted)
    return verify_com1(pencil), calls


@pytest.mark.parametrize("name", ["sl4-plane", "takiff-sl3-1-plane", "kronecker-9",
                                  "sl5-plane", "takiff-sl3-2-plane"])
def test_a_kronecker_certificate_takes_no_annihilator(monkeypatch, name):
    analysis, calls = annihilators(monkeypatch, golden_pencil(name))
    assert analysis.kind == "kronecker" and calls == []
    # dim L + dim W = n: L is the annihilator of W by the dimension count
    assert analysis.L_dim + analysis.image_dim == analysis.dim
    assert analysis.Ltilde == analysis.L == annihilator(analysis.image)


@pytest.mark.parametrize("name", ["jordan-4", "jordan-mixed-7-fractional",
                                  "sl3-subregular-plane"])
def test_a_jordan_analysis_takes_the_annihilator_of_the_image(monkeypatch, name):
    analysis, calls = annihilators(monkeypatch, golden_pencil(name))
    assert analysis.kind == "jordan-mixed" and analysis.image_dim in calls
    assert analysis.Ltilde == annihilator(analysis.image) != analysis.L


def longest(vectors) -> int:
    return max((abs(x).bit_length() for v in vectors for x in v), default=0)


@pytest.mark.parametrize("name", ["sl4-plane", "kronecker-9", "sl5-plane",
                                  "takiff-sl3-2-plane", "jordan-mixed-7-fractional"])
def test_the_image_check_runs_on_the_walks_kernel_vectors(monkeypatch, name):
    pencil = golden_pencil(name)
    _, L, basis, _ = _kernel_walk(pencil)
    calls = []

    def counted(pencil, L, basis=None, fn=skewpencil.check_image_equality):
        calls.append((L, basis))
        return fn(pencil, L, basis)
    monkeypatch.setattr(skewpencil, "check_image_equality", counted)
    analysis = verify_com1(pencil)
    assert calls == [(analysis.L, basis)] and analysis.L == L
    if analysis.kind == "kronecker":
        # the canonical rows of L run to 56-133 bits on these pencils
        assert 2 * longest(basis) < longest(L.rows.values())


@pytest.mark.parametrize("name", ["sl3", "takiff-sl3-1", "z-sl5-311"])
@pytest.mark.parametrize("trials", [1, 5, 24])
def test_estimate_index_eliminates_once_per_trial(monkeypatch, name, trials):
    L = {"sl3": SL3, "takiff-sl3-1": GOLDEN_ALGEBRAS["takiff-sl3-1-plane"],
         "z-sl5-311": make_centralizer_sl(5, [3, 1, 1])}[name]
    calls = []

    def counted(tri, n, fn=poisson._skew_rank):
        calls.append(tuple(tri))
        return fn(tri, n)
    want = estimate_index(L, trials=trials, seed=3)
    monkeypatch.setattr(poisson, "_skew_rank", counted)
    assert estimate_index(L, trials=trials, seed=3) == want
    assert len(calls) == trials
    assert all(len(tri) == L.dim * (L.dim - 1) // 2 for tri in calls)


def test_forms_skew_by_construction_are_never_rechecked(monkeypatch):
    # rows are checked skew where they enter as rows (SkewPencil(A, B));
    # sampled Kirillov forms and the members built from them never are
    cas = classical_casimirs("sl", 3)
    prof = estimate_index(SL3)
    plane = find_regular_plane(SL3, prof)
    want = verify_compl(SL3, cas, prof, plane.spec, nsamples=3).as_dict()
    pencil_want = analysis_fields(verify_com1(golden_pencil("sl3-subregular-plane")))

    def refused(rows):
        raise AssertionError("a form skew by construction was re-checked")
    for module in (exactlin, poisson, skewpencil, regcert):
        if hasattr(module, "_skew_triangle"):
            monkeypatch.setattr(module, "_skew_triangle", refused)
    assert estimate_index(SL3) == prof
    for name in ("sl4-plane", "sl3-subregular-plane"):
        verify_com1(golden_pencil(name))
    assert analysis_fields(verify_com1(golden_pencil("sl3-subregular-plane"))) == pencil_want
    assert verify_compl(SL3, cas, prof, plane.spec, nsamples=3).as_dict() == want
    with pytest.raises(AssertionError, match="re-checked"):
        SkewPencil(MatQ(BLOCK_A), MatQ(BLOCK_B))


def test_a_pencil_refuses_a_matrix_that_is_not_skew():
    for A, B in (([[0, 1], [1, 0]], [[0, 0], [0, 0]]),
                 ([[0, 1], [-1, 0]], [[1, 0], [0, -1]]),
                 ([[0, 2, 0], [-2, 0, 1], [0, -1, 0]], [[0, 1, 0], [-1, 1, 0], [0, 0, 0]])):
        for pair in ((A, B), (B, A)):
            with pytest.raises(ValueError, match="^pencil matrices must be skew-symmetric$"):
                SkewPencil(*map(MatQ, pair))


@pytest.mark.parametrize("n", [4, 5])
def test_a_walk_stopping_below_the_generic_rank_is_redone_at_it(n):
    # A = 0: the first member's kernel, all of V, is a sum of the target
    # dimension n - 0/2 at rank 0, which the image check refutes
    B = random_skew(rng_stream(5, "pencil-zero-A", n), n)
    A = MatQ.zeros(n, n)
    pencil = SkewPencil(A, B)
    assert _kernel_walk(pencil)[:2] == (0, SubspaceQ(n, [[int(i == j) for j in range(n)]
                                                         for i in range(n)]))
    analysis = verify_com1(pencil)
    assert analysis.m == rank_kernel(B)[0] > 0
    assert analysis_fields(analysis) == fraction_analysis(A, B)
