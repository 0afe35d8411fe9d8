"""Regularity certificates for points, planes, and whole duals.

A point is regular when the skew form there reaches the generic rank
m = dim - ind.  The certificates below are exact: a plane is certified
by the structure of its Kirillov pencil (generic rank m and Kronecker
blocks only; a Jordan part carries the singular directions as the
roots of det(mu I + nu Phi), Phi the recursion operator), and the dual
space is certified singular-in-codimension-two when the gcd of all
symbolic m x m minors is constant.  That gcd is g^2, g the gcd of the
principal m x m Pfaffians: the generic Kirillov matrix K has rank m
over k(x), so each minor is +-Pf(K_I) Pf(K_J).  g is the fundamental
semi-invariant of Ooms-Van den Bergh and Joseph-Shafrir.

The symbolic gcd is usually avoided: restricting the matrix to a plane
maps every minor to its restriction, and a nonconstant homogeneous
divisor stays nonconstant on any plane where it does not vanish
outright.  A regular plane therefore certifies the full-space verdict;
only failures fall back to one running gcd over the Pfaffians, with
early exit, and those carry g^2 as the witness divisor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .exactlin import Scalar, _cleared, _ratio_str, _skew_rank, rat_str
from .liealg import AlgebraProfile, LieAlgebraData
from .mfshift import EXACT, build_family, degree_profile
from .mpoly import MPoly, _gradient_rank, gradient_table, poly_gcd
from .poisson import CasimirSet, _kirillov_triangle, _kirillov_walk, kirillov
from .sampling import integer_coords, rng_stream
from .skewpencil import FalsificationError, SkewPencil, verify_com1


def generic_kirillov(L: LieAlgebraData) -> list[list[MPoly]]:
    """The skew matrix of structure linear forms over the coordinate ring."""
    n = L.dim
    rows = [[MPoly.zero(n) for _ in range(n)] for _ in range(n)]
    for (i, j), form in L.num.items():
        lin = MPoly._make(n, {tuple(1 if m == k else 0 for m in range(n)): c
                              for k, c in form.items()}, L.den)
        rows[i][j] = lin
        rows[j][i] = -lin
    return rows


def _check_profile(L: LieAlgebraData, profile: AlgebraProfile) -> int:
    if profile.dim != L.dim:
        raise ValueError("profile dimension does not match the algebra")
    m = L.dim - profile.ind
    if not 0 <= m <= L.dim or m % 2 != 0:
        raise ValueError("dim - ind must be an even rank in [0, dim]")
    return m


def is_regular(L: LieAlgebraData, profile: AlgebraProfile, xi: Sequence[Scalar]) -> bool:
    """Does the skew form at xi reach the generic rank dim - ind?"""
    return _check_profile(L, profile) == kirillov(L, xi).rank


@dataclass
class KostantVerdict:
    point: tuple[Fraction, ...]
    kirillov_rank: int
    regular: bool
    jacobian_rank: int
    independent: bool

    def as_dict(self) -> dict:
        return {"point": [rat_str(x) for x in self.point],
                "kirillov_rank": self.kirillov_rank, "regular": self.regular,
                "jacobian_rank": self.jacobian_rank,
                "independent": self.independent}


def kostant_criterion(L: LieAlgebraData, casimirs: CasimirSet,
                      profile: AlgebraProfile, xi: Sequence[Scalar]) -> KostantVerdict:
    """Dual-route regularity test at a point.

    With ind independent central generators whose degrees sum to
    (dim + ind) / 2, a point is regular exactly when the generator
    differentials are independent there.  Both sides are computed
    separately; disagreement is a falsification, not a failure.
    """
    casimirs.check_on(L)
    m = _check_profile(L, profile)
    if (dp := degree_profile(casimirs, profile)).classification != EXACT:
        raise ValueError(dp.note)
    # one integer point P / D for both ranks
    D, [P] = _cleared(xi)
    krank = _skew_rank(_kirillov_triangle(L, P), L.dim)
    jrank = _gradient_rank(gradient_table(casimirs.generators), P, None, D)
    regular = krank == m
    independent = jrank == len(casimirs)
    if regular != independent:
        raise FalsificationError(
            "regularity and differential independence disagree",
            {"dim": L.dim, "ind": profile.ind,
             "point": _rendered(P, D),
             "kirillov_rank": krank, "generic_rank": m,
             "jacobian_rank": jrank, "generator_count": len(casimirs),
             "degrees": list(casimirs.degrees)})
    return KostantVerdict(tuple(Fraction(x, D) for x in P), krank, regular, jrank, independent)


# --- plane certificates -----------------------------------------------------

@dataclass(frozen=True)
class PlaneSpec:
    xi: tuple[Scalar, ...]
    eta: tuple[Scalar, ...]

    def point(self, a: Scalar, b: Scalar) -> tuple[Fraction, ...]:
        af, bf = Fraction(a), Fraction(b)
        return tuple(af * x + bf * y for x, y in zip(self.xi, self.eta))

    def as_dict(self) -> dict:
        return {"xi": [rat_str(x) for x in self.xi],
                "eta": [rat_str(x) for x in self.eta]}


@dataclass
class PlaneCertificate:
    ok: bool
    m: int
    gcd_degree: int
    singular_directions: tuple[tuple[Fraction, Fraction], ...] = ()
    residual_degree: int = 0
    all_zero: bool = False
    witness_pretty: Optional[str] = None
    gcd: Optional[MPoly] = field(default=None, repr=False)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok, "m": self.m,
            "gcd_degree": self.gcd_degree,
            "singular_directions": [[rat_str(a), rat_str(b)]
                                    for a, b in self.singular_directions],
            "residual_degree": self.residual_degree,
            "all_zero": self.all_zero,
            "witness": self.witness_pretty,
            "gcd": self.gcd.pretty(["a", "b"]) if self.gcd is not None else None,
        }


def _wrong_index(claim: str, bundle: dict, profile: AlgebraProfile) -> Exception:
    """The error for a generic rank that contradicts the profile's index."""
    if profile.status == "estimated":
        return FalsificationError(claim, bundle)
    return ValueError(f"{claim}; the declared index looks wrong")


def _recursion_gcd(cp: Sequence[Fraction], A_ratio: tuple[Fraction, Fraction],
                   B_ratio: tuple[Fraction, Fraction]) -> MPoly:
    """Monic det(mu I + nu Phi) as a form in (a, b), from the ascending
    coefficients c_k of det(tI - Phi): it is sum c_k mu^k (-nu)^(q-k).

    (a, b) = mu A_ratio + nu B_ratio; Cramer's rule gives mu and nu as
    linear forms in (a, b) up to the common factor 1 / det, which the
    monic normalization drops.
    """
    (a1, a2), (b1, b2) = A_ratio, B_ratio
    a, b = MPoly.variable(2, 0), MPoly.variable(2, 1)
    mu = b2 * a - b1 * b
    neg_nu = a2 * a - a1 * b
    q = len(cp) - 1
    return sum((c * mu ** k * neg_nu ** (q - k) for k, c in enumerate(cp) if c),
               MPoly.zero(2)).monic()


def _rendered(nums: Sequence[int], den: int) -> list[str]:
    """The point nums / den as rational strings."""
    return [_ratio_str(x, den) for x in nums]


def _spans_plane(xi: Sequence[Scalar], eta: Sequence[Scalar]) -> bool:
    """Are xi and eta linearly independent, some 2 x 2 minor
    xi_i eta_j - xi_j eta_i nonzero?  The minors through one nonzero
    entry xi_i decide it: when they all vanish, eta = (eta_i / xi_i) xi."""
    i = next((i for i, x in enumerate(xi) if x), None)
    return i is not None and any(xi[i] * e != x * eta[i] for x, e in zip(xi, eta))


def certify_regular_plane(L: LieAlgebraData, profile: AlgebraProfile,
                          xi: Sequence[Scalar], eta: Sequence[Scalar]
                          ) -> PlaneCertificate:
    """Certify that every nonzero point of span(xi, eta) is regular.

    The plane is regular exactly when its Kirillov pencil reaches the
    generic rank m and has only Kronecker blocks (Thompson, LAA 1991),
    both decided by verify_com1.  A pencil with a Jordan part drops
    rank where det(mu I + nu Phi) vanishes, Phi its recursion
    operator; as a form in (a, b) this is the gcd of the pencil's
    m x m minors, reported with its rational projective roots, read
    off the rational eigenvalues of Phi.  The residual degree counts
    directions outside Q.
    """
    m = _check_profile(L, profile)
    D, (ixi, ieta) = _cleared(xi, eta)
    if not _spans_plane(ixi, ieta):
        raise ValueError("plane spanning points are linearly dependent")
    if m == 0:
        # the form is linear in the point: it vanishes on the plane
        # exactly when it vanishes at xi and at eta
        walk = _kirillov_walk(L)
        krank = max(_skew_rank(_kirillov_triangle(L, p, walk), L.dim) for p in (ixi, ieta))
        if krank:
            raise _wrong_index(
                "a Kirillov rank on the plane exceeds the generic rank",
                {"dim": L.dim, "ind": profile.ind, "m": 0, "kirillov_rank": krank,
                 "profile_status": profile.status, "xi": _rendered(ixi, D),
                 "eta": _rendered(ieta, D)}, profile)
        return PlaneCertificate(True, 0, 0)
    analysis = verify_com1(SkewPencil.from_kirillov(L, ixi, ieta))
    if analysis.m < m:
        return PlaneCertificate(False, m, 0, all_zero=True,
                                witness_pretty="all pencil minors vanish")
    if analysis.m > m:
        raise _wrong_index(
            "a plane pencil exceeds the generic rank",
            {"dim": L.dim, "ind": profile.ind, "m": m,
             "pencil_rank": analysis.m, "profile_status": profile.status,
             "xi": _rendered(ixi, D), "eta": _rendered(ieta, D)}, profile)
    if analysis.kind == "kronecker":
        return PlaneCertificate(True, m, 0, gcd=MPoly.one(2))
    g = _recursion_gcd(analysis.char_poly, analysis.A_ratio, analysis.B_ratio)
    # eigenvalue lam of Phi is the direction B_ratio - lam A_ratio, with
    # the same multiplicity as a root of g
    (a1, a2), (b1, b2) = analysis.A_ratio, analysis.B_ratio
    finite: list[tuple[Fraction, Fraction]] = []
    infinite: list[tuple[Fraction, Fraction]] = []
    for lam, _ in analysis.eigenvalues:
        a, b = b1 - lam * a1, b2 - lam * a2
        if a == 0:
            infinite = [(Fraction(0), Fraction(1))]
        else:
            finite.append((Fraction(1), b / a))
    directions = sorted(finite) + infinite
    rational_mult = sum(mult for _, mult in analysis.eigenvalues)
    return PlaneCertificate(
        False, m, g.degree(),
        singular_directions=tuple(directions),
        residual_degree=g.degree() - rational_mult,
        witness_pretty=g.pretty(["a", "b"]), gcd=g)


@dataclass
class FindPlaneResult:
    found: bool
    attempts_used: int
    spec: Optional[PlaneSpec] = None
    certificate: Optional[PlaneCertificate] = None
    # the certificate of each draw, None where its points span no plane
    tried: tuple[Optional[PlaneCertificate], ...] = field(default=(), repr=False)

    def as_dict(self) -> dict:
        return {"found": self.found, "attempts_used": self.attempts_used,
                "spec": self.spec.as_dict() if self.spec else None,
                "certificate": self.certificate.as_dict() if self.certificate else None}


def find_regular_plane(L: LieAlgebraData, profile: AlgebraProfile, seed: int = 0,
                       attempts: int = 20, bound: int = 9,
                       tried: Sequence[Optional[PlaneCertificate]] = ()) -> FindPlaneResult:
    """Search seeded sample planes for one that certifies regular.

    tried is the `tried` of an earlier search on L and profile at the
    same seed and bound: its draws are read, not certified again."""
    _check_profile(L, profile)
    last: Optional[PlaneCertificate] = None
    certs: list[Optional[PlaneCertificate]] = []
    for t in range(attempts):
        rng = rng_stream(seed, "plane-search", t)
        xi = integer_coords(rng, L.dim, bound)
        eta = integer_coords(rng, L.dim, bound)
        cert = (tried[t] if t < len(tried) else
                certify_regular_plane(L, profile, xi, eta) if _spans_plane(xi, eta) else None)
        certs.append(cert)
        if cert is not None:
            last = cert
            if cert.ok:
                return FindPlaneResult(True, t + 1, PlaneSpec(xi, eta), cert, tuple(certs))
    return FindPlaneResult(False, attempts, None, last, tuple(certs))


# --- whole-dual certificate -------------------------------------------------

@dataclass
class Codim2Certificate:
    ok: bool
    m: int
    method: str                 # "trivial" | "plane" | "symbolic"
    planes_tried: int
    pfaffians_checked: int
    seed: int
    witness: Optional[MPoly] = field(default=None, repr=False)
    witness_pretty: Optional[str] = None
    plane: Optional[FindPlaneResult] = field(default=None, repr=False)

    def as_dict(self) -> dict:
        return {"ok": self.ok, "m": self.m, "method": self.method,
                "planes_tried": self.planes_tried,
                "pfaffians_checked": self.pfaffians_checked, "seed": self.seed,
                "witness": self.witness_pretty}


def _pfaffian(K: Sequence[Sequence[MPoly]], idx: tuple[int, ...],
              memo: dict[tuple[int, ...], MPoly]) -> MPoly:
    """Pfaffian of the principal submatrix of the skew K on idx, a sorted
    tuple of even length >= 2.

    Expansion along the first row: Pf(K_I) = sum_p (-1)^p K[i, j_p]
    Pf(K_{I - i - j_p}) over the other indices j_p of I = (i, j_0, ...).
    The smaller Pfaffians are memoized on their index tuples in memo.
    """
    if len(idx) == 2:
        return K[idx[0]][idx[1]]
    got = memo.get(idx)
    if got is None:
        i, rest = idx[0], idx[1:]
        got = K[i][i]               # zero: a skew matrix has a zero diagonal
        for p, j in enumerate(rest):
            if not K[i][j].is_zero():
                t = K[i][j] * _pfaffian(K, rest[:p] + rest[p + 1:], memo)
                got = got - t if p % 2 else got + t
        memo[idx] = got
    return got


def _pfaffian_gcd(K: Sequence[Sequence[MPoly]], m: int
                  ) -> tuple[Optional[MPoly], int]:
    """Running monic gcd of the principal m x m Pfaffians of the skew K,
    over index sets in lexicographic order, stopped once it is constant.
    Returns (gcd, Pfaffians examined); gcd is None when all vanished."""
    memo: dict[tuple[int, ...], MPoly] = {}
    g: Optional[MPoly] = None
    for checked, idx in enumerate(combinations(range(len(K)), m), 1):
        p = _pfaffian(K, idx, memo)
        if p.is_zero():
            continue
        g = p.monic() if g is None else poly_gcd([g, p])
        if g.is_constant():
            break
    return g, checked


def certify_codim2(L: LieAlgebraData, profile: AlgebraProfile, seed: int = 0,
                   planes: int = 4, bound: int = 9) -> Codim2Certificate:
    """Certify that the singular set of the dual has codimension >= 2.

    Equivalent statement: the gcd of all m x m minors of the symbolic
    skew matrix is constant, that is, the gcd g of its principal m x m
    Pfaffians is (see module docstring).  A regular plane is a sound
    shortcut: find_regular_plane draws up to `planes`, all counted in
    planes_tried, and the certificate keeps that search, found or not,
    so a later search can go on from it.  Else g
    is computed over the Pfaffians themselves, and a nonconstant g^2,
    the gcd of the minors, is returned as the witness divisor.
    """
    m = _check_profile(L, profile)
    if m == 0:
        # generic rank 0 holds only when every structure constant is 0
        if L.num:
            raise _wrong_index("a nonzero structure constant exceeds the generic rank",
                               {"dim": L.dim, "ind": profile.ind, "m": 0,
                                "profile_status": profile.status}, profile)
        return Codim2Certificate(True, 0, "trivial", 0, 0, seed)
    plane = find_regular_plane(L, profile, seed=seed, attempts=planes if L.dim >= 3 else 0,
                               bound=bound)
    if plane.found:
        return Codim2Certificate(True, m, "plane", plane.attempts_used, 0, seed, plane=plane)
    g, checked = _pfaffian_gcd(generic_kirillov(L), m)
    if g is None:
        raise _wrong_index("no nonzero minor at the declared generic rank",
                           {"dim": L.dim, "ind": profile.ind, "m": m,
                            "profile_status": profile.status}, profile)
    if g.is_constant():
        return Codim2Certificate(True, m, "symbolic", plane.attempts_used, checked, seed,
                                 plane=plane)
    names = [f"x_{nm}" for nm in L.basis_names]
    witness = g * g
    return Codim2Certificate(False, m, "symbolic", plane.attempts_used, checked, seed,
                             witness=witness, witness_pretty=witness.pretty(names), plane=plane)


# --- completeness checks ----------------------------------------------------

@dataclass
class ComplVerdict:
    ok: bool
    pairs_checked: int
    required_rank: int
    star_rank: int
    rows: tuple[tuple[tuple[int, int], tuple[int, int], int], ...]
    skipped_proportional: int
    spec: PlaneSpec

    def as_dict(self) -> dict:
        return {"ok": self.ok, "pairs_checked": self.pairs_checked,
                "required_rank": self.required_rank,
                "star_rank": self.star_rank,
                "pairs": [[[rat_str(a) for a in r1], [rat_str(b) for b in r2],
                           rank] for r1, r2, rank in self.rows],
                "skipped_proportional": self.skipped_proportional,
                "spec": self.spec.as_dict()}


def verify_compl(L: LieAlgebraData, casimirs: CasimirSet, profile: AlgebraProfile,
                 spec: PlaneSpec, certificate: Optional[PlaneCertificate] = None,
                 nsamples: int = 8, seed: int = 0, bound: int = 9) -> ComplVerdict:
    """Shift families built along a certified plane reach the maximal rank.

    Premises: generator degrees sum to the bound and the plane is
    certified regular; the span condition (central gradient rank = ind)
    is checked first at a base point.  Then, for nsamples pairs of
    non-proportional directions, the shift family built at the first
    point must have differentials of rank (dim + ind) / 2 at the
    second; each pair and its rank are recorded.  Any rank drop
    contradicts certified facts and raises FalsificationError;
    proportional draws are skipped and counted.  Pair ratios r are
    integers in [-bound, bound]; the plane is cleared once to integer rows
    X and E over one D, and a pair point is the row r1 X + r2 E over D.

    The family is never expanded: at xi and eta, its differentials span
    what the gradients grad f(eta + a xi), a = 0, ..., deg f - 1, of
    the generators f span (the Vandermonde argument of gradient_rank),
    so one integer rank per pair decides it.  Only a failure builds the
    family, to report its size.
    """
    casimirs.check_on(L)
    if (dp := degree_profile(casimirs, profile)).classification != EXACT:
        raise ValueError(dp.note)
    if certificate is None:
        certificate = certify_regular_plane(L, profile, spec.xi, spec.eta)
    if not certificate.ok:
        raise ValueError("plane is not certified regular")
    if nsamples < 1:
        raise ValueError("need at least one sample pair")
    if bound < 1:
        raise ValueError("bound must be positive")
    b = profile.b_q
    m = L.dim - profile.ind
    D, (X, E) = _cleared(spec.xi, spec.eta)
    table = gradient_table(casimirs.generators)
    star = _gradient_rank(table, X, None, D)
    if star != profile.ind:
        raise FalsificationError(
            "central differentials drop rank at a certified-regular point",
            {"dim": L.dim, "ind": profile.ind,
             "point": _rendered(X, D), "gradient_rank": star,
             "spec": spec.as_dict()})
    walk = _kirillov_walk(L)
    rng = rng_stream(seed, "compl-pairs")
    rows: list[tuple[tuple[int, int], tuple[int, int], int]] = []
    skipped = 0
    while len(rows) < nsamples:
        r1, r2 = integer_coords(rng, 2, bound, False), integer_coords(rng, 2, bound, False)
        if not any(r1) or not any(r2):
            continue
        if r1[0] * r2[1] - r1[1] * r2[0] == 0:
            # the independence premise does not cover proportional pairs
            skipped += 1
            continue
        xi_pt, eta_pt = ([a * x + c * e for x, e in zip(X, E)] for a, c in (r1, r2))
        krank = _skew_rank(_kirillov_triangle(L, xi_pt, walk), L.dim)
        if krank != m:
            raise FalsificationError(
                "certified-regular plane point is singular",
                {"dim": L.dim, "ind": profile.ind,
                 "ratio": [rat_str(x) for x in r1],
                 "point": _rendered(xi_pt, D),
                 "kirillov_rank": krank, "generic_rank": m,
                 "spec": spec.as_dict()})
        rank = _gradient_rank(table, eta_pt, xi_pt, D)
        rows.append((r1, r2, rank))
        if rank != b:
            raise FalsificationError(
                "shift family differentials drop rank on a certified plane",
                {"dim": L.dim, "ind": profile.ind,
                 "xi_ratio": [rat_str(x) for x in r1],
                 "eta_ratio": [rat_str(x) for x in r2],
                 "xi": _rendered(xi_pt, D), "eta": _rendered(eta_pt, D),
                 "jacobian_rank": rank, "required_rank": b,
                 "members": len(build_family(L, casimirs, [Fraction(x, D) for x in xi_pt])),
                 "spec": spec.as_dict()})
    return ComplVerdict(True, len(rows), b, star, tuple(rows), skipped, spec)


@dataclass
class BolsVerdict:
    ok: bool
    degree_classification: str
    codim2_ok: bool
    xi_regular: bool
    note: str
    codim2: Optional[Codim2Certificate] = None

    def as_dict(self) -> dict:
        return {"ok": self.ok,
                "degree_classification": self.degree_classification,
                "codim2_ok": self.codim2_ok, "xi_regular": self.xi_regular,
                "note": self.note,
                "codim2": self.codim2.as_dict() if self.codim2 else None}


def verify_bols(L: LieAlgebraData, casimirs: CasimirSet, profile: AlgebraProfile,
                xi: Sequence[Scalar], codim2: Optional[Codim2Certificate] = None,
                seed: int = 0, bound: int = 9) -> BolsVerdict:
    """Maximality-of-dimension criterion at a shift direction.

    Three premises: generator degrees sum to the bound, the singular
    set has codimension two, and xi itself is regular.  When all hold,
    the shift family at xi attains the maximal transcendence degree;
    the verdict says which premise broke otherwise.  An already
    computed codimension certificate can be passed in to avoid
    recomputation; otherwise one is drawn at seed with sample height
    bound.
    """
    casimirs.check_on(L)
    dp = degree_profile(casimirs, profile)
    if dp.classification != EXACT:
        return BolsVerdict(False, dp.classification, False, False, dp.note)
    if codim2 is None:
        codim2 = certify_codim2(L, profile, seed=seed, bound=bound)
    if not codim2.ok:
        return BolsVerdict(False, dp.classification, False, False,
                           "singular set contains a divisor", codim2)
    if not is_regular(L, profile, xi):
        return BolsVerdict(False, dp.classification, True, False,
                           "shift direction is not a regular point", codim2)
    return BolsVerdict(True, dp.classification, True, True,
                       "criterion satisfied: family dimension is maximal",
                       codim2)
