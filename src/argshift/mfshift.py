"""Argument-shift families and their commutativity certificates.

Shifting a central generator f along a direction xi produces the
coefficient polynomials of f(x + a*xi); collecting these over a set of
generators gives the shift family at xi.  This module builds families,
certifies pairwise commutativity under both the Lie-Poisson bracket and
the bracket frozen at xi, compares degree data against the maximal
possible transcendence degree, and hunts for linear forms that commute
with the family without belonging to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exactlin import MatQ, SubspaceQ, Scalar, rank_kernel, vec
from .liealg import AlgebraProfile, LieAlgebraData
from .mpoly import MPoly
from .poisson import CasimirSet, bracket, coordinate_brackets, frozen_bracket

DEFICIT = "DEFICIT"
EXACT = "EXACT"
EXCESS = "EXCESS"


@dataclass(frozen=True)
class ShiftMember:
    generator_index: int
    power: int
    poly: MPoly


class ShiftFamily:
    """Shift polynomials of a generator set along a fixed direction."""

    __slots__ = ("algebra", "xi", "generators", "members")

    def __init__(self, algebra: LieAlgebraData, xi: tuple[Fraction, ...],
                 generators: tuple[MPoly, ...], members: tuple[ShiftMember, ...]):
        self.algebra = algebra
        self.xi = xi
        self.generators = generators
        self.members = members

    @property
    def polys(self) -> tuple[MPoly, ...]:
        return tuple(m.poly for m in self.members)

    def linear_members(self) -> list[ShiftMember]:
        return [m for m in self.members if m.poly.degree() == 1]

    def all_homogeneous(self) -> bool:
        return all(m.poly.is_homogeneous() for m in self.members)

    def __len__(self) -> int:
        return len(self.members)


def build_family(L: LieAlgebraData, generators: Union[CasimirSet, Sequence[MPoly]],
                 xi: Sequence[Scalar]) -> ShiftFamily:
    """Expand each generator along xi and keep the nonconstant coefficients.

    The coefficient of a^deg(f) is the constant f(xi) and is dropped;
    coefficients that vanish identically (for special xi) are dropped
    as well, so the member list can be shorter than the degree sum.
    """
    gens = tuple(generators.generators if isinstance(generators, CasimirSet)
                 else generators)
    if not gens:
        raise ValueError("no generators to shift")
    pt = vec(xi)
    if len(pt) != L.dim:
        raise ValueError("shift direction length mismatch")
    members = []
    for gi, f in enumerate(gens):
        if f.is_zero():
            raise ValueError("zero generator in shift family")
        if f.nvars != L.dim:
            raise ValueError("generator lives on the wrong space")
        shifts = f.param_expand(pt)
        for j in range(len(shifts) - 1):
            if not shifts[j].is_zero():
                members.append(ShiftMember(gi, j, shifts[j]))
    return ShiftFamily(L, pt, gens, tuple(members))


@dataclass
class CommutativityCertificate:
    ok: bool
    pairs_checked: int
    failures: tuple[tuple[int, int, str], ...]

    def as_dict(self) -> dict:
        return {"ok": self.ok, "pairs_checked": self.pairs_checked,
                "failures": [list(f) for f in self.failures]}


def certify_commutative(family: ShiftFamily) -> CommutativityCertificate:
    """Exact pairwise commutativity under both pencil endpoints.

    Every unordered pair of members is checked against the Lie-Poisson
    bracket and against the bracket frozen at the shift direction; a
    failure records the pair and which bracket detected it.
    """
    L = family.algebra
    polys = family.polys
    failures: list[tuple[int, int, str]] = []
    pairs = 0
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            pairs += 1
            if not bracket(L, polys[i], polys[j]).is_zero():
                failures.append((i, j, "lie-poisson"))
            if not frozen_bracket(L, family.xi, polys[i], polys[j]).is_zero():
                failures.append((i, j, "frozen"))
    return CommutativityCertificate(not failures, pairs, tuple(failures))


@dataclass
class DegreeProfile:
    b_q: int
    sum_degrees: int
    classification: str

    def as_dict(self) -> dict:
        return {"b_q": self.b_q, "sum_degrees": self.sum_degrees,
                "classification": self.classification}


def degree_profile(casimirs: CasimirSet, profile: AlgebraProfile) -> DegreeProfile:
    """Compare the generator degree sum against (dim + ind) / 2.

    The shift family of l = ind independent central generators has
    transcendence degree at most that bound, with equality exactly when
    the degree sum meets it; a mismatched generator count is an error
    rather than a classification.
    """
    if len(casimirs) != profile.ind:
        raise ValueError(
            f"need ind = {profile.ind} generators, got {len(casimirs)}")
    target = profile.b_q
    total = casimirs.sum_degrees
    if total < target:
        cls = DEFICIT
    elif total == target:
        cls = EXACT
    else:
        cls = EXCESS
    return DegreeProfile(target, total, cls)


def _linear_coeffs(p: MPoly) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * p.nvars
    for exps, c in p.terms.items():
        if sum(exps) != 1:
            raise ValueError("not a homogeneous linear form")
        out[exps.index(1)] = c
    return tuple(out)


def linear_member_span(family: ShiftFamily) -> SubspaceQ:
    """Coefficient span of the degree-one members."""
    vecs = [_linear_coeffs(m.poly) for m in family.linear_members()]
    return SubspaceQ.span(vecs, family.algebra.dim)


def nonmembership_linear(family: ShiftFamily, g: MPoly) -> bool:
    """Certify that a linear form is not in the subalgebra the family generates.

    Sound only for homogeneous members: then the generated subalgebra
    is graded and its degree-one part is exactly the span of the
    degree-one members.  Returns True when g is certified outside,
    False when g is a member.
    """
    if not family.all_homogeneous():
        raise ValueError("nonmembership certificate requires homogeneous members")
    if g.nvars != family.algebra.dim:
        raise ValueError("linear form lives on the wrong space")
    coeffs = _linear_coeffs(g)
    return not linear_member_span(family).contains(coeffs)


def linear_commutant(L: LieAlgebraData, polys: Sequence[MPoly]) -> SubspaceQ:
    """All linear forms whose bracket with every given polynomial vanishes.

    Writing y = sum c_i x_i, each monomial of each {x_i, p} contributes
    one linear condition on c; the commutant is the common kernel.
    """
    rows: list[list[Fraction]] = []
    for p in polys:
        per_var = coordinate_brackets(L, p)
        monomials = set()
        for q in per_var:
            monomials.update(q.terms)
        for mono in sorted(monomials):
            rows.append([per_var[i].terms.get(mono, Fraction(0))
                         for i in range(L.dim)])
    if not rows:
        return SubspaceQ.full(L.dim)
    return rank_kernel(MatQ(rows))[1]


def find_nonmaximality_witness(family: ShiftFamily) -> Optional[MPoly]:
    """A linear form commuting with the family but provably outside it.

    Returns None when every commuting linear form already lies in the
    span of the degree-one members; otherwise the returned form extends
    the family to a strictly larger commutative subalgebra, so the
    family was not maximal.
    """
    if not family.all_homogeneous():
        raise ValueError("nonmaximality search requires homogeneous members")
    commutant = linear_commutant(family.algebra, family.polys)
    span = linear_member_span(family)
    for v in commutant.basis:
        if not span.contains(v):
            return MPoly.linear_form(v)
    return None
