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
corresponding members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .exactlin import (MatQ, Scalar, SubspaceQ, annihilator, rank, rank_kernel, rat,
                       rat_str, solve_many)
from .liealg import LieAlgebraData
from .mpoly import rational_roots
from .poisson import kirillov
from .regcert import FalsificationError

Ratio = tuple[Fraction, Fraction]


class SkewPencil:
    """A pair of skew forms on the same space, spanning the pencil."""

    __slots__ = ("A", "B")

    def __init__(self, A: MatQ, B: MatQ):
        if A.rows != A.cols or B.rows != B.cols or A.rows != B.rows:
            raise ValueError("pencil needs two square matrices of equal size")
        if not (A.is_skew() and B.is_skew()):
            raise ValueError("pencil matrices must be skew-symmetric")
        self.A = A
        self.B = B

    @classmethod
    def from_matrices(cls, a_rows: Sequence[Sequence[Scalar]],
                      b_rows: Sequence[Sequence[Scalar]]) -> "SkewPencil":
        return cls(MatQ(a_rows), MatQ(b_rows))

    @classmethod
    def from_kirillov(cls, L: LieAlgebraData, xi: Sequence[Scalar],
                      eta: Sequence[Scalar]) -> "SkewPencil":
        return cls(kirillov(L, xi).matrix, kirillov(L, eta).matrix)

    @property
    def dim(self) -> int:
        return self.A.rows

    def member(self, a: Scalar, b: Scalar) -> MatQ:
        a, b = rat(a), rat(b)
        # one pass; entries zero in both forms stay zero without arithmetic
        return MatQ([[a * x + b * y if x or y else x for x, y in zip(ra, rb)]
                     for ra, rb in zip(self.A.to_lists(), self.B.to_lists())])


def base_ratios(dim: int) -> list[Ratio]:
    """dim + 2 pairwise distinct directions in the pencil plane.

    Every nonzero minor of the pencil is homogeneous of degree at most
    dim, so it cannot vanish at all of these; the maximum sampled rank
    is therefore the generic rank.
    """
    out = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    out += [(Fraction(1), Fraction(k)) for k in range(1, dim + 1)]
    return out


@dataclass
class PencilRankProfile:
    m: int
    ranks: tuple[tuple[Ratio, int], ...]
    kernels: tuple[SubspaceQ, ...] = field(repr=False)

    def regular_ratios(self) -> list[Ratio]:
        return [r for r, rank in self.ranks if rank == self.m]

    def as_dict(self) -> dict:
        return {"m": self.m,
                "ranks": [[[rat_str(a), rat_str(b)], rank]
                          for (a, b), rank in self.ranks]}


def rank_profile(pencil: SkewPencil) -> PencilRankProfile:
    """Generic rank and the per-direction ranks over the base ratios.

    The members' kernels are kept for compute_L.
    """
    ranks, kernels = [], []
    for a, b in base_ratios(pencil.dim):
        r, ker = rank_kernel(pencil.member(a, b))
        ranks.append(((a, b), r))
        kernels.append(ker)
    m = max(r for _, r in ranks)
    return PencilRankProfile(m, tuple(ranks), tuple(kernels))


def compute_L(pencil: SkewPencil, m: Optional[int] = None,
              profile: Optional[PencilRankProfile] = None) -> SubspaceQ:
    """Sum of the kernels of regular members.

    Directions are walked in a fixed order; the sum is declared stable
    after dim V consecutive regular members bring no growth.  The walk
    extends past the base ratios up to a hard cap, at which point a
    non-stabilized sum is an error rather than a silent answer.  The
    base-ratio kernels come from the rank profile, reused when given.
    """
    n = pencil.dim
    if profile is None:
        profile = rank_profile(pencil)
    if m is None:
        m = profile.m
    cap = 4 * n + 10
    extra = (rank_kernel(pencil.member(Fraction(1), Fraction(k)))
             for k in range(n + 1, cap))
    base = zip((r for _, r in profile.ranks), profile.kernels)
    L = SubspaceQ.zero(n)
    consecutive = 0
    for r, ker in chain(base, extra):
        if r != m:
            continue
        if ker.is_subspace_of(L):
            consecutive += 1
        else:
            L, consecutive = L + ker, 0
        if consecutive >= n:
            return L
    raise ArithmeticError("kernel sum did not stabilize within the direction cap")


def check_image_equality(pencil: SkewPencil, L: SubspaceQ) -> SubspaceQ:
    """The common image of L under every nonzero member, certified.

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
    """
    n = pencil.dim
    avs = [pencil.A.matvec(v) for v in L.basis]
    bvs = [pencil.B.matvec(v) for v in L.basis]
    WA = SubspaceQ.span(avs, n)
    WB = SubspaceQ.span(bvs, n)
    if WA != WB:
        raise FalsificationError(
            "kernel-sum images under the two pencil generators differ",
            {"dim": n, "L_dim": L.dim, "A_image_dim": WA.dim,
             "B_image_dim": WB.dim})
    W = WA
    AL = MatQ([[av[i] for av in avs] for i in range(n)], cols=L.dim)
    K = SubspaceQ.zero(n)
    while K.dim < W.dim:
        # kernel vectors (c, d) of [B v_1 .. B v_l | -k_1 .. -k_k] are the
        # x = sum c_j v_j in L with B x in K
        cols = bvs + [tuple(-x for x in k) for k in K.basis]
        _, ker = rank_kernel(MatQ([[c[i] for c in cols] for i in range(n)],
                                  cols=len(cols)))
        grown = SubspaceQ.span([AL.matvec(u[:L.dim]) for u in ker.basis], n)
        if grown.dim == K.dim:
            break
        K = grown
    if K != W:
        raise FalsificationError(
            "some pencil member maps the kernel sum onto a smaller image",
            {"dim": n, "L_dim": L.dim, "W_dim": W.dim, "reached_dim": K.dim})
    return W


def phi_operator(pencil: SkewPencil, L: SubspaceQ, Ltilde: SubspaceQ,
                 A_ratio: Ratio, B_ratio: Ratio, m: Optional[int] = None) -> MatQ:
    """Matrix of the recursion operator on Ltilde / L solving A w = B v.

    Requires the A-direction to be regular, so its kernel sits inside
    L and the class of w does not depend on the particular solution;
    that independence is still re-verified by solving with a shifted
    particular solution.
    """
    n = pencil.dim
    if m is None:
        m = rank_profile(pencil).m
    Am = pencil.member(*A_ratio)
    Bm = pencil.member(*B_ratio)
    r, kerA = rank_kernel(Am)
    if r != m:
        raise ValueError("the A-direction of the recursion operator must be regular")
    if not kerA.is_subspace_of(L):
        raise FalsificationError(
            "kernel of a regular member escapes the kernel sum",
            {"dim": n, "member_rank": r, "kernel_dim": kerA.dim, "L_dim": L.dim})
    comp: list[tuple[Fraction, ...]] = []
    cur = L
    for v in Ltilde.basis:
        if not cur.contains(v):
            comp.append(v)
            cur = cur + SubspaceQ.span([v], n)
    ws = solve_many(Am, [Bm.matvec(v) for v in comp])
    for v, w in zip(comp, ws):
        if w is None:
            raise FalsificationError(
                "A w = B v has no solution for v in the annihilator space",
                {"dim": n, "v": [rat_str(x) for x in v]})
        if not Ltilde.contains(w):
            raise FalsificationError(
                "recursion image escapes the annihilator space",
                {"dim": n, "v": [rat_str(x) for x in v],
                 "w": [rat_str(x) for x in w]})
    # coordinates in the basis comp + L.basis; independence from the
    # particular solution is checked rather than assumed, by expanding
    # every image shifted by a kernel vector as well
    shifts = [tuple(x + k for x, k in zip(w, kerA.basis[0])) for w in ws] \
        if kerA.dim > 0 else []
    frame = list(comp) + list(L.basis)
    coords = solve_many(MatQ([[u[i] for u in frame] for i in range(n)], cols=len(frame)),
                        ws + shifts)
    q = len(comp)
    columns: list[tuple[Fraction, ...]] = []
    for j, w in enumerate(ws):
        if coords[j] is None:
            raise FalsificationError(
                "recursion image not expressible in the quotient basis",
                {"dim": n, "w": [rat_str(x) for x in w]})
        col = coords[j][:q]
        if shifts and (coords[q + j] is None or coords[q + j][:q] != col):
            raise FalsificationError(
                "recursion operator depends on the particular solution",
                {"dim": n, "kernel_shift": [rat_str(x) for x in kerA.basis[0]]})
        columns.append(col)
    return MatQ([[columns[j][i] for j in range(q)] for i in range(q)]) \
        if q else MatQ.zeros(0, 0)


def char_poly(M: MatQ) -> list[Fraction]:
    """Coefficients of det(tI - M), ascending in t.

    Faddeev-LeVerrier: N_k = M N_(k-1) + c_(q-k+1) I from N_0 = 0, and
    c_(q-k) = -tr(M N_k) / k; exact over Q, dividing only by k.
    """
    q = M.rows
    coeffs = [Fraction(1)]
    MN = MatQ.zeros(q, q)
    for k in range(1, q + 1):
        MN = M * (MN + MatQ.identity(q).scale(coeffs[-1]))
        coeffs.append(-sum(MN[i, i] for i in range(q)) / k)
    return coeffs[::-1]


@dataclass
class PencilAnalysis:
    dim: int
    m: int
    kind: str                    # "kronecker" | "jordan-mixed"
    L: SubspaceQ = field(repr=False)
    Ltilde: SubspaceQ = field(repr=False)
    image: SubspaceQ = field(repr=False)
    isotropic: bool
    ranks: tuple[tuple[Ratio, int], ...]
    A_ratio: Optional[Ratio] = None
    B_ratio: Optional[Ratio] = None
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
        }


def verify_com1(pencil: SkewPencil, A_ratio: Optional[Ratio] = None,
                B_ratio: Optional[Ratio] = None) -> PencilAnalysis:
    """Full exact analysis of a skew pencil.

    Kronecker type (L equals its member-orthogonal): verifies that L
    is maximal isotropic of dimension dim V - m/2.  Mixed type: builds
    the recursion operator and cross-checks each rational eigenvalue
    against the rank drop of the corresponding member.  Violated
    theory-implied invariants raise FalsificationError.
    """
    n = pencil.dim
    prof = rank_profile(pencil)
    m = prof.m
    L = compute_L(pencil, m, prof)
    W = check_image_equality(pencil, L)
    Ltilde = annihilator(W)
    # W = A(L) = B(L), so L inside the annihilator of W is exactly
    # isotropy of L for A and B
    if not L.is_subspace_of(Ltilde):
        raise FalsificationError(
            "kernel sum is not isotropic for the pencil",
            {"dim": n, "L_dim": L.dim, "Ltilde_dim": Ltilde.dim})
    if L == Ltilde:
        if L.dim != n - m // 2:
            raise FalsificationError(
                "Kronecker-type kernel sum has the wrong dimension",
                {"dim": n, "m": m, "L_dim": L.dim, "expected": n - m // 2})
        return PencilAnalysis(n, m, "kronecker", L, Ltilde, W,
                              True, prof.ranks)
    if A_ratio is None:
        A_ratio = next(r for r, rank in prof.ranks if rank == m)
    if B_ratio is None:
        B_ratio = (Fraction(0), Fraction(1))
        if A_ratio[0] == 0:
            B_ratio = (Fraction(1), Fraction(0))
    cp = char_poly(phi_operator(pencil, L, Ltilde, A_ratio, B_ratio, m))
    eigs = rational_roots(cp)
    Am = pencil.member(*A_ratio)
    Bm = pencil.member(*B_ratio)
    for lam in eigs:
        drop = Bm + Am.scale(-lam)
        r = rank(drop)
        if r >= m:
            raise FalsificationError(
                "recursion eigenvalue does not match a singular direction",
                {"dim": n, "eigenvalue": rat_str(lam), "member_rank": r,
                 "generic_rank": m,
                 "A_ratio": [rat_str(x) for x in A_ratio],
                 "B_ratio": [rat_str(x) for x in B_ratio]})
    eig_items = tuple(sorted(eigs.items()))
    return PencilAnalysis(n, m, "jordan-mixed", L, Ltilde, W,
                          True, prof.ranks, A_ratio, B_ratio, eig_items, cp)
