"""Structure analysis of pencils of skew-symmetric bilinear forms.

For a pencil aA + bB the generic rank m is reached outside finitely
many directions.  The sum L of the kernels of regular members is
isotropic for every member, all members map it onto one common image
W, and the annihilator of W gives L with the degenerate directions'
contribution attached.  When the two coincide the pencil has no
singular directions at the generic rank ("Kronecker" type) and L is
maximal isotropic of dimension dim V - m/2; otherwise the recursion
operator on the quotient carries the singular directions as its
eigenvalues, which are cross-checked against the ranks of the
corresponding members.  L lies in the radical of every member on
Ltilde, so the operator solves the Gram pair of the forms on Ltilde / L.
A Kronecker certificate also proves the rank of every member, so only
the other pencils take a rank profile.  Ltilde, of dimension
dim V - dim W, holds L once L is checked isotropic, so it is L when
dim L + dim W = dim V: only a Jordan pencil computes the annihilator.

A pencil is integer forms over one denominator, sampled at integer
directions, so ranks and kernels of members come from fraction-free
Pfaffian elimination of their integer triangles.  The kernel sum, the
complement of L in Ltilde and the Wong sequence each grow one echelon
basis a vector at a time; the Wong sequence runs in the coordinates of
W, not of V.  The image and isotropy checks run on the kernel vectors
that grew L, far shorter than L's canonical rows, and the operator's
characteristic polynomial on its integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .exactlin import (MatQ, Scalar, SubspaceQ, _cleared, _int_rows, _matvec, _rank_int,
                       _skew_kernel, _skew_rank, _skew_rows, _skew_triangle, _solve,
                       annihilator, faddeev_leverrier, rat, rat_str)
from .liealg import LieAlgebraData
from .mpoly import rational_roots
from .poisson import _kirillov_triangle, _kirillov_walk

Ratio = tuple[Fraction, Fraction]
IntRatio = tuple[int, int]


class FalsificationError(Exception):
    """Two independently certified routes disagreed.

    Carries a reproduction bundle: everything needed to replay the
    contradiction with exact arithmetic.
    """

    def __init__(self, claim: str, bundle: dict):
        super().__init__(claim)
        self.claim, self.bundle = claim, bundle


class SkewPencil:
    """A pair of skew forms on the same space, spanning the pencil.

    A and B are kept as A' = d A and B' = d B, d = lcm(A.den, B.den), as
    triangles, which members are eliminated in, and as integer rows.
    Every question asked below (ranks, kernels, images, spans) has the
    same answer for c A and c B, c > 0, so the analysis runs on A' and B'.
    """

    __slots__ = ("_ta", "_tb", "_a", "_b", "_den")

    def __init__(self, A: MatQ, B: MatQ):
        if A.rows != A.cols or B.rows != B.cols or A.rows != B.rows:
            raise ValueError("pencil needs two square matrices of equal size")
        try:
            self._set(A.rows, (_skew_triangle(A.num), A.den), (_skew_triangle(B.num), B.den))
        except ArithmeticError:
            raise ValueError("pencil matrices must be skew-symmetric") from None

    def _set(self, n: int, *forms: tuple[list[int], int]) -> "SkewPencil":
        self._den = den = lcm(*(d for _, d in forms))
        self._ta, self._tb = ([x * (den // d) for x in a] for a, d in forms)
        self._a, self._b = _skew_rows(self._ta, n), _skew_rows(self._tb, n)
        return self

    @classmethod
    def from_matrices(cls, a_rows: Sequence[Sequence[Scalar]],
                      b_rows: Sequence[Sequence[Scalar]]) -> "SkewPencil":
        return cls(MatQ(a_rows), MatQ(b_rows))

    @classmethod
    def from_kirillov(cls, L: LieAlgebraData, xi: Sequence[Scalar],
                      eta: Sequence[Scalar]) -> "SkewPencil":
        """The Kirillov forms at xi and eta, formed at their integer
        numerators over one denominator D along one walk of L's table."""
        D, pts = _cleared(xi, eta)
        walk = _kirillov_walk(L)
        return cls.__new__(cls)._set(L.dim, *((_kirillov_triangle(L, p, walk), D * L.den)
                                              for p in pts))

    @property
    def dim(self) -> int:
        return len(self._a)

    def member(self, a: Scalar, b: Scalar) -> MatQ:
        """The exact member a A + b B."""
        a, b = rat(a), rat(b)
        tri = self._member(a.numerator * b.denominator, b.numerator * a.denominator)
        return MatQ._make(tuple(map(tuple, _skew_rows(tri, self.dim))), self.dim,
                          self._den * a.denominator * b.denominator)

    def _member(self, a: int, b: int) -> list[int]:
        """The triangle of a A' + b B' = d (a A + b B)."""
        return [a * x + b * y for x, y in zip(self._ta, self._tb)]


def base_ratios(dim: int) -> list[IntRatio]:
    """dim + 2 pairwise distinct integer directions in the pencil plane.

    Every nonzero minor of the pencil is homogeneous of degree at most
    dim, so it cannot vanish at all of these; the maximum sampled rank
    is therefore the generic rank.
    """
    return [(1, 0), (0, 1)] + [(1, k) for k in range(1, dim + 1)]


@dataclass
class PencilRankProfile:
    m: int
    ranks: tuple[tuple[IntRatio, int], ...]

    def regular_ratios(self) -> list[IntRatio]:
        return [r for r, rank in self.ranks if rank == self.m]


def rank_profile(pencil: SkewPencil,
                 known: Optional[dict[IntRatio, int]] = None) -> PencilRankProfile:
    """Generic rank and the per-direction ranks over the base ratios;
    `known` holds ranks already taken, by direction."""
    known = known or {}
    ranks = tuple((ab, known[ab] if ab in known else _skew_rank(pencil._member(*ab), pencil.dim))
                  for ab in base_ratios(pencil.dim))
    return PencilRankProfile(max(r for _, r in ranks), ranks)


def _kernel_walk(pencil: SkewPencil, m: Optional[int] = None
                 ) -> tuple[int, SubspaceQ, list[list[int]], dict[IntRatio, int]]:
    """compute_L's walk at rank m or, for m None, at the highest rank r
    seen so far, a higher rank restarting the sum: r, the sum, the
    kernel vectors that grew it (a basis of it) and the ranks of the
    members walked.  A walk reaching the cap has passed every base
    ratio, so r is m there."""
    n = pencil.dim
    cap = 4 * n + 10
    r = -1 if m is None else m
    total, grew, ranks, consecutive = SubspaceQ(n), [], {}, 0
    for a, b in chain(base_ratios(n), ((1, k) for k in range(n + 1, cap))):
        rank, ker = _skew_kernel(pencil._member(a, b), n)
        ranks[a, b] = rank
        if m is None and rank > r:
            r, total, grew, consecutive = rank, SubspaceQ(n), [], 0
        if rank != r:
            continue
        before = total.dim
        grew += [v for v in ker if total.add(v) is not None]
        consecutive = consecutive + 1 if total.dim == before else 0
        if consecutive >= n or total.dim == n - r // 2:
            return r, total, grew, ranks
    raise ArithmeticError("kernel sum did not stabilize within the direction cap")


def compute_L(pencil: SkewPencil, m: Optional[int] = None) -> SubspaceQ:
    """Sum of the kernels of regular members, m the generic rank.

    The sum is isotropic for a regular member, a form of rank m, so its
    dimension is at most dim V - m/2; it is final as soon as it gets
    there.  A sum that stays smaller (a pencil with a Jordan part) is
    declared stable after dim V consecutive regular members bring no
    growth.  Directions are walked in a fixed order, the base ratios
    and then past them up to a hard cap, at which point a
    non-stabilized sum is an error rather than a silent answer; only
    the members walked are eliminated.  Each member's kernel comes out
    of its Pfaffian elimination and its vectors are reduced into one
    growing echelon basis of the sum.
    """
    if m is None:
        m = rank_profile(pencil).m
    return _kernel_walk(pencil, m)[1]


def check_image_equality(pencil: SkewPencil, L: SubspaceQ,
                         basis: Optional[Sequence[Sequence[int]]] = None) -> SubspaceQ:
    """The common image of L under every nonzero member, certified,
    taken on basis, integer vectors spanning L, dim L of them: by
    default L's canonical rows.  The kernel vectors that grew L in the
    walk are such a basis, with far shorter entries than those rows.

    A(L) = B(L) pins the candidate W and already forces every member
    to map L into W.  No member may map L onto less, which a Wong
    sequence decides: from K = 0, repeat K <- A(L & B^-1 K) until dim K
    stops growing.  With N = A(L & ker B) and M = A B^-1 on W (defined
    modulo N), each step is K <- N + M K, so the limit is the smallest
    M-invariant subspace containing N.  It stops below W exactly when
    some y != 0 on W is a left eigenvector of M orthogonal to N, that
    is, when y (A - lam B) vanishes on L for some lam, possibly
    irrational (Popov-Belevitch-Hautus): the member A - lam B then maps
    L into the hyperplane ker y.  Violations contradict the pencil
    structure theory, so they raise FalsificationError.

    Everything after W runs in W's coordinates, the entries at the
    pivot columns of its echelon basis, on the l = dim L columns
    A v_j and B v_j.  One solve for W's unit vectors gives the rank of
    B_L and an integer right inverse R, B_L R = D I; then N is spanned
    by the columns of D A_L - M B_L with M = A_L R, and K is grown from
    N one vector at a time, each new vector's image under M queued.
    """
    n = pencil.dim
    l = L.dim
    if basis is None:
        basis = list(L.rows.values())
    avs = [_matvec(pencil._a, v) for v in basis]
    bvs = [_matvec(pencil._b, v) for v in basis]
    image = SubspaceQ(n, avs)
    pivots = sorted(image.rows)
    w = len(pivots)
    acols = [[av[c] for c in pivots] for av in avs]
    bcols = [[bv[c] for c in pivots] for bv in bvs]
    # A(L) = B(L) exactly when B(L) lies in W = A(L) with rank w there
    inside = not any(any(image.reduce(bv)) for bv in bvs)
    if inside:
        rank, D, xs = _solve([[bc[i] for bc in bcols] for i in range(w)], l,
                             [[int(k == i) for i in range(w)] for k in range(w)])
    if not inside or rank != w:
        raise FalsificationError(
            "kernel-sum images under the two pencil generators differ",
            {"dim": n, "L_dim": L.dim, "A_image_dim": w,
             "B_image_dim": rank if inside else _rank_int(bvs, n)})
    # the nonzero rows of R, at the pivot columns of B_L
    inverse = [(c, r) for c, r in enumerate(zip(*xs)) if any(r)]

    def apply_m(u: Sequence[int]) -> list[int]:
        """M u = A_L R u."""
        x = [(pc, sum(map(mul, r, u))) for pc, r in inverse]
        return [sum(c * acols[pc][i] for pc, c in x) for i in range(w)]

    queue = [[D * a - y for a, y in zip(ac, apply_m(bc))] for ac, bc in zip(acols, bcols)]
    K = SubspaceQ(w)
    while queue and K.dim < w:
        row = K.add(queue.pop())
        if row is not None:
            queue.append(apply_m(row))
    if K.dim != w:
        raise FalsificationError(
            "some pencil member maps the kernel sum onto a smaller image",
            {"dim": n, "L_dim": L.dim, "W_dim": w, "reached_dim": K.dim})
    return image


def phi_operator(pencil: SkewPencil, L: SubspaceQ, Ltilde: SubspaceQ,
                 A_ratio: Ratio, B_ratio: Ratio, m: Optional[int] = None) -> MatQ:
    """Matrix of the recursion operator on Ltilde / L, v -> w with A w = B v.

    L lies in the radical of both forms on Ltilde, so u.A w = u.B v for u
    in Ltilde gives the Gram identity A_bar M = B_bar on Ltilde / L.

    The quotient basis c_1 .. c_q is the primitive integer rows of Ltilde
    outside L, positive multiples of its unit-lead rows, so the matrix is
    a positive diagonal similarity of the unit-lead one, with the same
    characteristic polynomial and eigenvalues.  A_bar = [c_i.A c_j] is
    nondegenerate exactly when the kernel of A lies in L; then w exists,
    lies in Ltilde and has one class mod L, and M = A_bar^-1 B_bar.  The
    A-direction must be regular: with m None it is ranked against the
    rank profile, with m given it is taken as regular.
    """
    n = pencil.dim
    # one factor clears both ratios, so A w = B v keeps its solutions
    a1, a2, b1, b2 = _int_rows([tuple(A_ratio) + tuple(B_ratio)])[0]
    if m is None and _skew_rank(pencil._member(a1, a2), n) != rank_profile(pencil).m:
        raise ValueError("the A-direction of the recursion operator must be regular")
    # the complement of L in Ltilde, grown on a basis of L
    grown = SubspaceQ(n, L.rows.values())
    comp = [row for _, row in sorted(Ltilde.rows.items()) if grown.add(row) is not None]
    q = len(comp)
    Am, Bm = _skew_rows(pencil._member(a1, a2), n), _skew_rows(pencil._member(b1, b2), n)
    acs, bcs = [_matvec(Am, c) for c in comp], [_matvec(Bm, c) for c in comp]
    gram = [[sum(map(mul, u, ac)) for ac in acs] for u in comp]
    rank, D, columns = _solve(gram, q, [[sum(map(mul, u, bc)) for u in comp] for bc in bcs])
    if rank != q:
        raise FalsificationError(
            "kernel of a regular member escapes the kernel sum",
            {"dim": n, "L_dim": L.dim, "Ltilde_dim": Ltilde.dim})
    return MatQ._make(tuple(zip(*columns)), q, D)


def char_poly(M: MatQ) -> list[Fraction]:
    """Coefficients of det(tI - M), ascending in t.

    Faddeev-LeVerrier runs over Z on the integer rows N = den M.  As
    det(tI - N / den) = den^-q det(den t - N), the coefficient of t^k
    is N's over den^(q - k).
    """
    q = M.rows
    return [Fraction(c, M.den ** (q - k)) for k, c in enumerate(faddeev_leverrier(M.num, 1))]


@dataclass
class PencilAnalysis:
    dim: int
    m: int
    kind: str                    # "kronecker" | "jordan-mixed"
    L: SubspaceQ = field(repr=False)
    Ltilde: SubspaceQ = field(repr=False)
    image: SubspaceQ = field(repr=False)
    isotropic: bool
    ranks: tuple[tuple[IntRatio, int], ...]
    A_ratio: Optional[IntRatio] = None
    B_ratio: Optional[IntRatio] = None
    eigenvalues: tuple[tuple[Fraction, int], ...] = ()
    char_poly: Optional[list[Fraction]] = field(default=None, repr=False)

    @property
    def L_dim(self) -> int:
        return self.L.dim

    @property
    def Ltilde_dim(self) -> int:
        return self.Ltilde.dim

    @property
    def image_dim(self) -> int:
        return self.image.dim

    def as_dict(self) -> dict:
        return {
            "dim": self.dim, "m": self.m, "kind": self.kind,
            "L_dim": self.L_dim, "Ltilde_dim": self.Ltilde_dim,
            "image_dim": self.image_dim, "isotropic": self.isotropic,
            "ranks": [[[rat_str(a), rat_str(b)], rank]
                      for (a, b), rank in self.ranks],
            "A_ratio": [rat_str(x) for x in self.A_ratio] if self.A_ratio else None,
            "B_ratio": [rat_str(x) for x in self.B_ratio] if self.B_ratio else None,
            "eigenvalues": [[rat_str(v), mult] for v, mult in self.eigenvalues],
            "char_poly": ([rat_str(c) for c in self.char_poly]
                          if self.char_poly is not None else None),
        }


def _image_and_annihilator(pencil: SkewPencil, L: SubspaceQ, basis: Sequence[Sequence[int]]
                           ) -> tuple[SubspaceQ, SubspaceQ]:
    """W, certified by check_image_equality on the basis of L, and
    Ltilde, its annihilator, once L is checked to lie in it.

    The annihilator has dimension n - dim W and then holds L, so when
    dim L + dim W = n it is L, by that count, and is not computed.
    """
    n = pencil.dim
    W = check_image_equality(pencil, L, basis)
    # W = A(L) = B(L), so L inside the annihilator of W is exactly
    # isotropy of L for A and B
    if any(sum(map(mul, v, w)) for v in basis for w in W.rows.values()):
        raise FalsificationError(
            "kernel sum is not isotropic for the pencil",
            {"dim": n, "L_dim": L.dim, "Ltilde_dim": n - W.dim})
    return W, L if L.dim + W.dim == n else annihilator(W)


def verify_com1(pencil: SkewPencil) -> PencilAnalysis:
    """Full exact analysis of a skew pencil.

    Kronecker type (L equals its member-orthogonal): verifies that L
    is maximal isotropic of dimension dim V - m/2.  Mixed type: builds
    the recursion operator, A the first regular base ratio and B the
    direction (0, 1), or (1, 0) when A starts with 0, and cross-checks
    each rational eigenvalue against the rank drop of the corresponding
    member.  Violated theory-implied invariants raise FalsificationError.

    The analysis starts with compute_L's walk at the highest rank r
    seen so far and certifies the sum L it stops at.  When every member
    maps L onto W, L is the annihilator of W and dim L = n - r/2, this
    Kronecker certificate proves the rank profile, so none is taken:
    - the generic rank is r: each member maps L into W, so L is
      isotropic for it, and isotropic subspaces of a form of rank s
      have dimension at most n - s/2; the member that set r reaches it;
    - every nonzero member has rank r: in a basis of L and a complement
      its matrix is [[0, X], [-X^T, Y]], X of rank dim W = r/2 as the
      member maps L onto W, so its rank is at least 2 rank X = r.
    The images are taken on the kernel vectors that grew L in the walk.
    Ltilde, the annihilator of W, has dimension n - dim W and holds L
    once isotropy is checked, so dim L + dim W = n makes Ltilde = L by
    that count, with no annihilator computed.
    Otherwise the profile is taken, reusing the walked ranks.  When its
    m is r the walk was compute_L(m)'s, so L, W and a check's error
    stand; m exceeds r only when the walk stopped before the last base
    ratio, and then compute_L(m) is rerun.
    """
    n = pencil.dim
    r, L, basis, walked = _kernel_walk(pencil)
    try:
        W, Ltilde = _image_and_annihilator(pencil, L, basis)
    except FalsificationError:
        prof = rank_profile(pencil, walked)
        if prof.m == r:
            raise
    else:
        if L == Ltilde and L.dim == n - r // 2:
            return PencilAnalysis(n, r, "kronecker", L, Ltilde, W, True,
                                  tuple((ab, r) for ab in base_ratios(n)))
        prof = rank_profile(pencil, walked)
    m = prof.m
    if m != r:
        L = compute_L(pencil, m)
        W, Ltilde = _image_and_annihilator(pencil, L, list(L.rows.values()))
    if L == Ltilde:
        if L.dim != n - m // 2:
            raise FalsificationError(
                "Kronecker-type kernel sum has the wrong dimension",
                {"dim": n, "m": m, "L_dim": L.dim, "expected": n - m // 2})
        return PencilAnalysis(n, m, "kronecker", L, Ltilde, W,
                              True, prof.ranks)
    A_ratio = prof.regular_ratios()[0]
    B_ratio = (1, 0) if A_ratio[0] == 0 else (0, 1)
    cp = char_poly(phi_operator(pencil, L, Ltilde, A_ratio, B_ratio, m))
    eigs = rational_roots(cp)
    (a1, a2), (b1, b2) = A_ratio, B_ratio
    for lam in eigs:
        p, q = lam.numerator, lam.denominator  # q (B_ratio - lam A_ratio) below
        rank = _skew_rank(pencil._member(q * b1 - p * a1, q * b2 - p * a2), n)
        if rank >= m:
            raise FalsificationError(
                "recursion eigenvalue does not match a singular direction",
                {"dim": n, "eigenvalue": rat_str(lam), "member_rank": rank,
                 "generic_rank": m,
                 "A_ratio": [rat_str(x) for x in A_ratio],
                 "B_ratio": [rat_str(x) for x in B_ratio]})
    eig_items = tuple(sorted(eigs.items()))
    return PencilAnalysis(n, m, "jordan-mixed", L, Ltilde, W,
                          True, prof.ranks, A_ratio, B_ratio, eig_items, cp)
