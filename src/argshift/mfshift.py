"""Argument-shift families and their commutativity certificates.

Shifting a central generator f along a direction xi produces the
coefficient polynomials of f(x + a*xi); collecting these over a set of
generators gives the shift family at xi.  This module builds families,
certifies their commutativity under both the Lie-Poisson bracket and
the bracket frozen at xi (from the exact Casimir check of the
generators, by the Mishchenko-Fomenko argument, or pair by pair when a
generator is no Casimir), compares degree data against the maximal
possible transcendence degree, and hunts for linear forms that commute
with the family without belonging to it: one walk over the rows of the
members' coadjoint actions, computed member by member and stopped as
soon as those rows prove that every commuting linear form already lies
in the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .exactlin import SubspaceQ, Scalar, annihilator, vec
from .liealg import AlgebraProfile, LieAlgebraData
from .mpoly import MPoly
from .poisson import (CasimirSet, _action_width, _coadjoint, _pack, bracket, frozen_bracket,
                      is_casimir)

DEFICIT = "DEFICIT"
EXACT = "EXACT"
EXCESS = "EXCESS"


@dataclass(frozen=True)
class ShiftMember:
    generator_index: int
    power: int
    poly: MPoly


class ShiftFamily:
    """Shift polynomials of a generator set along a fixed direction.

    The members are built here, never passed in: for each generator f,
    in order, the coefficients f_j of a^j in f(x + a*xi) for j below
    deg f, those that vanish identically dropped.  The coefficient of
    a^deg(f) is the constant f(xi) and is dropped as well.  So every
    member is the shift coefficient it names, which certify_commutative
    relies on.
    """

    __slots__ = ("algebra", "xi", "generators", "members")

    def __init__(self, algebra: LieAlgebraData, xi: Sequence[Scalar],
                 generators: tuple[MPoly, ...]):
        if not generators:
            raise ValueError("no generators to shift")
        xi = vec(xi)
        if len(xi) != algebra.dim:
            raise ValueError("shift direction length mismatch")
        members = []
        for gi, f in enumerate(generators):
            if f.is_zero():
                raise ValueError("zero generator in shift family")
            if f.nvars != algebra.dim:
                raise ValueError("generator lives on the wrong space")
            shifts = f.param_expand(xi)
            members += (ShiftMember(gi, j, p) for j, p in enumerate(shifts[:-1])
                        if not p.is_zero())
        self.algebra, self.xi, self.generators, self.members = (algebra, xi, generators,
                                                                 tuple(members))

    @property
    def polys(self) -> tuple[MPoly, ...]:
        return tuple(m.poly for m in self.members)

    def all_homogeneous(self) -> bool:
        """Whether every member is homogeneous.  A nonconstant generator
        f is its own member f_0, and the shift coefficients of a
        homogeneous f are homogeneous, so the generators decide."""
        return all(f.is_homogeneous() for f in self.generators)

    def __len__(self) -> int:
        return len(self.members)


def build_family(L: LieAlgebraData, generators: Union[CasimirSet, Sequence[MPoly]],
                 xi: Sequence[Scalar]) -> ShiftFamily:
    """The shift family of generators (a CasimirSet or polynomials) at xi.

    Coefficients that vanish identically (for special xi) are dropped,
    so the member list can be shorter than the degree sum.
    """
    gens = tuple(generators.generators if isinstance(generators, CasimirSet)
                 else generators)
    return ShiftFamily(L, xi, gens)


@dataclass
class CommutativityCertificate:
    ok: bool
    pairs_checked: int
    failures: tuple[tuple[int, int, str], ...]
    method: str = "pairwise"            # "casimir-pencil" | "pairwise"


def certify_commutative(family: ShiftFamily) -> CommutativityCertificate:
    """Exact commutativity under both pencil endpoints.

    The Casimir pencil certifies the whole family at once
    (Mishchenko-Fomenko) on two premises: every generator passes the
    exact is_casimir check, run here, and every member is the shift
    coefficient it names, which ShiftFamily guarantees by building
    them.  With f_k the member (generator f, power k), 0 when dropped,
    and c_ij^k the structure constants, f a Casimir gives the identity
    sum over j, k of c_ij^k (x_k + a xi_k) d_j f(x + a xi) = 0 for every
    a and i, and its coefficient of a^(k+1) is the chain
    {x_i, f_(k+1)} = -{x_i, f_k}_xi, its a^0 coefficient {x_i, f_0} = 0;
    the top coefficient f(xi) is a constant, which brackets kill.
    {f, g} = sum over i of d_i f {x_i, g}, so the chain moves one power
    across a bracket: {f_k, g_l} = -{f_k, g_(l-1)}_xi
    = {g_(l-1), f_k}_xi = -{g_(l-1), f_(k+1)} = {f_(k+1), g_(l-1)}.
    Repeating gives {f_k, g_l} = {f_(k+l), g_0} = 0, as g_0 is a
    Casimir, and then {f_k, g_l}_xi = -{f_k, g_(l+1)} = 0.  This covers
    every pair of members, so pairs_checked counts them all.

    A generator that is no Casimir fails the chain at its first link,
    and nothing is proved.  Every unordered pair of members is then
    checked against the Lie-Poisson bracket and against the bracket
    frozen at the shift direction; a failure records the pair and which
    bracket detected it.
    """
    L = family.algebra
    polys = family.polys
    total = len(polys) * (len(polys) - 1) // 2
    if all(is_casimir(L, f).ok for f in family.generators):
        return CommutativityCertificate(True, total, (), "casimir-pencil")
    failures: list[tuple[int, int, str]] = []
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not bracket(L, polys[i], polys[j]).is_zero():
                failures.append((i, j, "lie-poisson"))
            if not frozen_bracket(L, family.xi, polys[i], polys[j]).is_zero():
                failures.append((i, j, "frozen"))
    return CommutativityCertificate(not failures, total, tuple(failures))


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
    target, total = profile.b_q, casimirs.sum_degrees
    return DegreeProfile(target, total, DEFICIT if total < target else
                         EXACT if total == target else EXCESS)


def _linear_row(p: MPoly) -> list[int]:
    """The numerators of a linear form: a positive multiple of its coefficients."""
    row = [0] * p.nvars
    for exps, c in p.num.items():
        if sum(exps) != 1:
            raise ValueError("not a homogeneous linear form")
        row[exps.index(1)] = c
    return row


def linear_member_span(family: ShiftFamily) -> SubspaceQ:
    """Coefficient span of the degree-one members of a family with
    homogeneous members: those of power deg f - 1, as the member of
    power k of a homogeneous f has degree deg f - k."""
    degrees = [f.degree() for f in family.generators]
    return SubspaceQ(family.algebra.dim,
                     [_linear_row(m.poly) for m in family.members
                      if m.power == degrees[m.generator_index] - 1])


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
    return any(linear_member_span(family).reduce(_linear_row(g)))


def find_nonmaximality_witness(family: ShiftFamily) -> Optional[MPoly]:
    """A linear form commuting with the family but provably outside it.

    Returns None when every commuting linear form already lies in the
    span S of the degree-one members; otherwise the returned form
    extends the family to a strictly larger commutative subalgebra, so
    the family was not maximal.

    Writing y = sum c_i x_i, {y, p} = sum c_i {x_i, p}, so each monomial
    of each member's {x_i, p} gives an integer row, a linear condition
    on c, and the commutant C is the annihilator of the row space R.
    The rows feed one SubspaceQ member by member, and the walk stops
    once annihilator(S) lies in R: then C lies in S, for any family,
    commutative or not.  Otherwise R is the whole row space at the end,
    and the witness is the first canonical basis vector of C, in pivot
    order, outside S.  The actions are computed one member at a time as
    the walk reads them, so the members after the stop are never
    bracketed.
    """
    if not family.all_homogeneous():
        raise ValueError("nonmaximality search requires homogeneous members")
    L, n = family.algebra, family.algebra.dim
    # a member's degree is at most its generator's
    width = _action_width(family.generators)
    actions = _coadjoint(n, _pack(n, family.polys, width), (L.num, L.den), width)
    span = linear_member_span(family)
    need = annihilator(span)
    rows = SubspaceQ(n)
    walk = ([acc.get(mono, 0) for acc in accs]
            for accs, _ in actions for mono in set().union(*accs))
    if not need.dim or any(rows.add(row) and rows.dim >= need.dim and need.is_subspace_of(rows)
                           for row in walk):
        return None
    return next(MPoly.linear_form(v) for v in annihilator(rows).basis if not span.contains(v))
