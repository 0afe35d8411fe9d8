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
from math import lcm
from typing import Optional, Sequence, Union

from .exactlin import (MatQ, Scalar, SubspaceQ, _int_rows, _rank_int, _rank_kernel_int,
                       _rref, _skew_rank, _solve, _span_int, _unit_lead, annihilator,
                       faddeev_leverrier, rat, rat_str)
from .liealg import LieAlgebraData
from .mpoly import rational_roots
from .poisson import kirillov
from .regcert import FalsificationError

Ratio = tuple[Fraction, Fraction]
IntRows = list[list[int]]


class SkewPencil:
    """A pair of skew forms on the same space, spanning the pencil.

    A and B are kept as integer rows A' = d A and B' = d B over one
    positive denominator d.  Every question asked below (ranks, kernels,
    images, spans) has the same answer for c A and c B, c > 0, so the
    analysis runs on A' and B' alone.
    """

    __slots__ = ("_a", "_b", "_den")

    def __init__(self, A: MatQ, B: MatQ):
        if A.rows != A.cols or B.rows != B.cols or A.rows != B.rows:
            raise ValueError("pencil needs two square matrices of equal size")
        if not (A.is_skew() and B.is_skew()):
            raise ValueError("pencil matrices must be skew-symmetric")
        a, b = A.to_lists(), B.to_lists()
        den = lcm(*(x.denominator for rows in (a, b) for row in rows for x in row))
        self._a = [[x.numerator * (den // x.denominator) for x in row] for row in a]
        self._b = [[x.numerator * (den // x.denominator) for x in row] for row in b]
        self._den = den

    @classmethod
    def from_matrices(cls, a_rows: Sequence[Sequence[Scalar]],
                      b_rows: Sequence[Sequence[Scalar]]) -> "SkewPencil":
        return cls(MatQ(a_rows), MatQ(b_rows))

    @classmethod
    def from_kirillov(cls, L: LieAlgebraData, xi: Sequence[Scalar],
                      eta: Sequence[Scalar]) -> "SkewPencil":
        ka, kb = kirillov(L, xi), kirillov(L, eta)
        den = lcm(ka.den, kb.den)
        pencil = object.__new__(cls)
        pencil._a = [[x * (den // ka.den) for x in row] for row in ka.rows]
        pencil._b = [[x * (den // kb.den) for x in row] for row in kb.rows]
        pencil._den = den
        return pencil

    @property
    def A(self) -> MatQ:
        return self.member(1, 0)

    @property
    def B(self) -> MatQ:
        return self.member(0, 1)

    @property
    def dim(self) -> int:
        return len(self._a)

    def member(self, a: Scalar, b: Scalar) -> MatQ:
        """The exact member a A + b B."""
        a, b = rat(a) / self._den, rat(b) / self._den
        return MatQ([[a * x + b * y for x, y in zip(ra, rb)]
                     for ra, rb in zip(self._a, self._b)])

    def _member(self, a: int, b: int) -> IntRows:
        """Integer rows of a A' + b B' = d (a A + b B).  A rational ratio
        enters as _int_rows([ratio])[0], proportional to it by a positive
        factor."""
        return [[a * x + b * y for x, y in zip(ra, rb)] for ra, rb in zip(self._a, self._b)]


def _matvec(rows: IntRows, v: Sequence[Union[int, Fraction]]) -> list:
    return [sum(a * x for a, x in zip(row, v)) for row in rows]


def _skew_kernel(rows: IntRows, n: int) -> tuple[int, IntRows]:
    """Rank and integer kernel basis of a skew member, the rank checked even."""
    r, ker = _rank_kernel_int(rows, n)
    if r % 2 != 0:
        raise ArithmeticError("skew matrix produced odd rank")
    return r, ker


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

    def regular_ratios(self) -> list[Ratio]:
        return [r for r, rank in self.ranks if rank == self.m]

    def as_dict(self) -> dict:
        return {"m": self.m,
                "ranks": [[[rat_str(a), rat_str(b)], rank]
                          for (a, b), rank in self.ranks]}


def rank_profile(pencil: SkewPencil) -> PencilRankProfile:
    """Generic rank and the per-direction ranks over the base ratios."""
    ranks = tuple(((a, b), _skew_rank(pencil._member(*_int_rows([(a, b)])[0]), pencil.dim))
                  for a, b in base_ratios(pencil.dim))
    return PencilRankProfile(max(r for _, r in ranks), ranks)


def compute_L(pencil: SkewPencil, m: Optional[int] = None) -> SubspaceQ:
    """Sum of the kernels of regular members, m the generic rank.

    The sum is isotropic for a regular member, a form of rank m, so its
    dimension is at most dim V - m/2; it is final as soon as it gets
    there.  A sum that stays smaller (a pencil with a Jordan part) is
    declared stable after dim V consecutive regular members bring no
    growth.  Directions are walked in a fixed order, the base ratios
    and then past them up to a hard cap, at which point a
    non-stabilized sum is an error rather than a silent answer; only
    the members walked are eliminated.  A kernel adds nothing when it
    leaves the rank of the sum unchanged.
    """
    n = pencil.dim
    if m is None:
        m = rank_profile(pencil).m
    cap = 4 * n + 10
    ratios = chain(_int_rows(base_ratios(n)), ((1, k) for k in range(n + 1, cap)))
    rows: IntRows = []    # a basis of the sum so far
    consecutive = 0
    for a, b in ratios:
        r, ker = _skew_kernel(pencil._member(a, b), n)
        if r != m:
            continue
        if _rank_int(rows + ker, n) == len(rows):
            consecutive += 1
        else:
            rows, consecutive = _rref(rows + ker, n)[0], 0
        if consecutive >= n or len(rows) == n - m // 2:
            return _span_int(rows, n)
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
    lrows = _int_rows(L.basis)
    avs = [_matvec(pencil._a, v) for v in lrows]
    bvs = [_matvec(pencil._b, v) for v in lrows]
    W = _span_int(avs, n)
    # A(L) = B(L) exactly when both images and their sum have one dimension
    b_dim = _rank_int(bvs, n)
    if b_dim != W.dim or _rank_int(avs + bvs, n) != W.dim:
        raise FalsificationError(
            "kernel-sum images under the two pencil generators differ",
            {"dim": n, "L_dim": L.dim, "A_image_dim": W.dim,
             "B_image_dim": b_dim})
    K: IntRows = []     # a basis of K, which stays inside W
    while len(K) < W.dim:
        # kernel vectors (c, e) of [B v_1 .. B v_l | -k_1 .. -k_k] are the
        # x = sum c_j v_j in L with B x in K
        cols = bvs + [[-x for x in k] for k in K]
        _, ker = _rank_kernel_int([[c[i] for c in cols] for i in range(n)], len(cols))
        # zip stops after the l coefficients c, so each row is A x
        grown, _ = _rref([[sum(c * av[i] for c, av in zip(u, avs)) for i in range(n)]
                          for u in ker], n)
        if len(grown) == len(K):
            break
        K = grown
    if len(K) != W.dim:
        raise FalsificationError(
            "some pencil member maps the kernel sum onto a smaller image",
            {"dim": n, "L_dim": L.dim, "W_dim": W.dim, "reached_dim": len(K)})
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
    # one factor clears both ratios, so A w = B v keeps its solutions
    a1, a2, b1, b2 = _int_rows([tuple(A_ratio) + tuple(B_ratio)])[0]
    Am = pencil._member(a1, a2)
    Bm = pencil._member(b1, b2)
    r, kerA = _skew_kernel(Am, n)
    if r != m:
        raise ValueError("the A-direction of the recursion operator must be regular")
    lrows = _int_rows(L.basis)
    if _rank_int(lrows + kerA, n) != len(lrows):
        raise FalsificationError(
            "kernel of a regular member escapes the kernel sum",
            {"dim": n, "member_rank": r, "kernel_dim": len(kerA), "L_dim": L.dim})
    comp: list[tuple[Fraction, ...]] = []
    cur = lrows
    for v, iv in zip(Ltilde.basis, _int_rows(Ltilde.basis)):
        if _rank_int(cur + [iv], n) > len(cur):
            comp.append(v)
            cur = cur + [iv]
    ws = _solve(Am, n, [_matvec(Bm, v) for v in comp])
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
    shift = _unit_lead(kerA[0]) if kerA else None
    shifts = [tuple(x + k for x, k in zip(w, shift)) for w in ws] if shift else []
    frame = list(comp) + list(L.basis)
    coords = _solve([[u[i] for u in frame] for i in range(n)], len(frame), ws + shifts)
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
                {"dim": n, "kernel_shift": [rat_str(x) for x in shift]})
        columns.append(col)
    return MatQ([[columns[j][i] for j in range(q)] for i in range(q)]) \
        if q else MatQ.zeros(0, 0)


def char_poly(M: MatQ) -> list[Fraction]:
    """Coefficients of det(tI - M), ascending in t (Faddeev-LeVerrier)."""
    return faddeev_leverrier(M.to_lists(), Fraction(1))


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


def verify_com1(pencil: SkewPencil) -> PencilAnalysis:
    """Full exact analysis of a skew pencil.

    Kronecker type (L equals its member-orthogonal): verifies that L
    is maximal isotropic of dimension dim V - m/2.  Mixed type: builds
    the recursion operator, A the first regular base ratio and B the
    direction (0, 1), or (1, 0) when A starts with 0, and cross-checks
    each rational eigenvalue against the rank drop of the corresponding
    member.  Violated theory-implied invariants raise FalsificationError.
    """
    n = pencil.dim
    prof = rank_profile(pencil)
    m = prof.m
    L = compute_L(pencil, m)
    W = check_image_equality(pencil, L)
    Ltilde = annihilator(W)
    # W = A(L) = B(L), so L inside the annihilator of W is exactly
    # isotropy of L for A and B
    wrows = _int_rows(W.basis)
    if any(sum(x * y for x, y in zip(v, w)) for v in _int_rows(L.basis) for w in wrows):
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
    A_ratio = prof.regular_ratios()[0]
    B_ratio = (Fraction(1), Fraction(0)) if A_ratio[0] == 0 else (Fraction(0), Fraction(1))
    cp = char_poly(phi_operator(pencil, L, Ltilde, A_ratio, B_ratio, m))
    eigs = rational_roots(cp)
    for lam in eigs:
        drop = (B_ratio[0] - lam * A_ratio[0], B_ratio[1] - lam * A_ratio[1])
        r = _skew_rank(pencil._member(*_int_rows([drop])[0]), n)
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
