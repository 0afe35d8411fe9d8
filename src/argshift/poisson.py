"""Lie-Poisson structure on the symmetric algebra of a Lie algebra.

Coordinates x_i are dual to the chosen basis, so {x_i, x_j} is the
linear form given by the bracket table.  Everything here is exact: the
bracket of polynomials, the skew form at a point, sampled index
estimation, and verified Casimir sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .exactlin import (MatQ, Scalar, _cleared, _skew_rank, _skew_rows, _solve, _triangle,
                       faddeev_leverrier)
from .liealg import AlgebraProfile, LieAlgebraData, classical_matrix_basis, make_classical, make_takiff
from .mpoly import MPoly, _gradient_rank, gradient_table
from .sampling import integer_coords, rng_stream


# C(i, j) for the pairs i < j, as (i, j) -> {k: c} with integer c:
# c times x_k, or the constant c when k is None; over one positive
# denominator.  (L.num, L.den) is the Lie-Poisson table as it stands.
Pairs = tuple[dict[tuple[int, int], dict[Optional[int], int]], int]

# {x_i, p} for every coordinate i, each as packed monomial -> integer
# numerator, over one positive denominator: p's MPoly.den times that of
# the structure table, not reduced until _unpack makes an MPoly
Action = tuple[list[dict[int, int]], int]

# the terms of a polynomial as (packed monomial, numerator, support),
# over its denominator
Packed = tuple[list[tuple[int, int, list[tuple[int, int]]]], int]


def _pack(n: int, polys: Iterable[MPoly], width: int) -> Iterator[Packed]:
    """The terms of each of polys, one polynomial at a time, with a
    field of `width` bits per variable: a monomial x^e packs into sum
    over v of e_v 2^(v width)."""
    weights = [1 << (v * width) for v in range(n)]
    for p in polys:
        if p.nvars != n:
            raise ValueError("polynomial must live on the dual of the algebra")
        terms = []
        for e, c in p.num.items():
            supp = [(v, k) for v, k in enumerate(e) if k]
            terms.append((sum(k * weights[v] for v, k in supp), c, supp))
        yield terms, p.den


def _coadjoint(n: int, packed: Iterable[Packed], pairs: Pairs, width: int) -> Iterator[Action]:
    """The coadjoint action {x_i, p} = sum over j of C(i, j) d_j p, for
    every coordinate i and every p, packed by _pack at this width, one
    p at a time: the one bracket kernel.

    Packing makes multiplying monomials and dividing out x_j one
    integer add; the caller picks a width no field of a monomial it
    forms can overflow.  The structure table is built once per call:
    by_var[j] lists (i, packed offset, integer coefficient) of
    C(i, j) / x_j, so each term of p feeds every i through the entries
    of its variables, and like terms of each {x_i, p} merge in one
    accumulator.  Coefficients stay integers over one denominator.
    """
    weights = [1 << (v * width) for v in range(n)]
    forms, tden = pairs
    by_var: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for (i, j), form in forms.items():
        for k, c in form.items():
            w = 0 if k is None else weights[k]
            by_var[j].append((i, w - weights[j], c))
            by_var[i].append((j, w - weights[i], -c))
    for terms, pden in packed:
        accs: list[dict[int, int]] = [{} for _ in range(n)]
        for mp, cp, supp in terms:
            for j, ej in supp:
                a = cp * ej
                for i, off, c in by_var[j]:
                    acc = accs[i]
                    key = mp + off
                    acc[key] = acc.get(key, 0) + a * c
        yield [{key: c for key, c in acc.items() if c} for acc in accs], pden * tden


def _action_width(polys: Iterable[MPoly]) -> int:
    """A field width for the actions of polys: every field of a monomial
    of {x_i, p} lies in [0, deg p]."""
    return (max((p.degree() for p in polys), default=0) + 1).bit_length() + 1


def _unpack(n: int, acc: dict[int, int], den: int, width: int) -> MPoly:
    mask = (1 << width) - 1
    shifts = [v * width for v in range(n)]
    return MPoly._make(n, {tuple((key >> s) & mask for s in shifts): c
                           for key, c in acc.items()}, den)


def _bracket(n: int, f: MPoly, g: MPoly, pairs: Pairs) -> MPoly:
    """{f, g} = sum over i of d_i f {x_i, g} = -sum over i of d_i g {x_i, f}.

    This is sum over i < j of C(i, j) (d_i f d_j g - d_j f d_i g),
    re-associated: like terms of {x_i, g} merge before the product, so
    it never takes more multiply-adds than the pairs of terms of f and
    g.  Both actions cost time linear in the number of terms; the side
    whose product count is smaller is differentiated, and an argument
    whose action vanishes is a Casimir, so the bracket is 0.  Every
    field of a monomial formed here lies in [0, deg f + deg g - 1].
    """
    if f.is_zero() or g.is_zero():
        return MPoly.zero(n)
    width = (f.degree() + g.degree()).bit_length() + 1
    (fterms, f_cden), (gterms, g_cden) = packed = list(_pack(n, (f, g), width))
    (F, fden), (G, gden) = _coadjoint(n, packed, pairs, width)
    if not any(F) or not any(G):
        return MPoly.zero(n)
    weights = [1 << (v * width) for v in range(n)]
    cost_f = sum(len(G[i]) for _, _, supp in fterms for i, _ in supp)
    cost_g = sum(len(F[i]) for _, _, supp in gterms for i, _ in supp)
    # d_i of the differentiated side times the action of the other
    dterms, dden, act, aden, sign = fterms, f_cden, G, gden, 1
    if cost_g < cost_f:
        dterms, dden, act, aden, sign = gterms, g_cden, F, fden, -1
    acc: dict[int, int] = {}
    get = acc.get
    for md, cd, sd in dterms:
        for i, ei in sd:
            row = act[i]
            if row:
                a = sign * cd * ei
                base = md - weights[i]
                for m, b in row.items():
                    key = base + m
                    acc[key] = get(key, 0) + a * b
    return _unpack(n, {key: c for key, c in acc.items() if c}, dden * aden, width)


def _frozen_pairs(L: LieAlgebraData, xi: Sequence[Scalar]) -> Pairs:
    """The constants <xi, [b_i, b_j]> that are nonzero, as pair forms,
    read off the Kirillov form at xi."""
    K = kirillov(L, xi)
    off = _triangle(L.dim)[0]
    return {(i, j): {None: v} for i, j in L.num if (v := K.tri[off[i] + j - i - 1])}, K.den


def _check_dual(L: LieAlgebraData, f: MPoly, g: MPoly) -> None:
    if f.nvars != L.dim or g.nvars != L.dim:
        raise ValueError("polynomials must live on the dual of the algebra")


def bracket(L: LieAlgebraData, f: MPoly, g: MPoly) -> MPoly:
    """Poisson bracket {f, g} on polynomials in the dual coordinates."""
    _check_dual(L, f, g)
    return _bracket(L.dim, f, g, (L.num, L.den))


def frozen_bracket(L: LieAlgebraData, xi: Sequence[Scalar], f: MPoly, g: MPoly) -> MPoly:
    """Bracket with the linear coefficients frozen at the point xi."""
    _check_dual(L, f, g)
    return _bracket(L.dim, f, g, _frozen_pairs(L, xi))


def coordinate_bracket(L: LieAlgebraData, i: int, f: MPoly) -> MPoly:
    """{x_i, f}, the coadjoint action of basis vector i on f."""
    if not 0 <= i < L.dim:
        raise ValueError("variable index out of range")
    return coordinate_brackets(L, f)[i]


def coordinate_brackets(L: LieAlgebraData, f: MPoly) -> list[MPoly]:
    """{x_i, f} for every coordinate i, read off the coadjoint kernel."""
    width = _action_width((f,))
    [(accs, den)] = _coadjoint(L.dim, _pack(L.dim, (f,), width), (L.num, L.den), width)
    return [_unpack(L.dim, acc, den, width) for acc in accs]


@dataclass
class KirillovForm:
    """The skew form at a point: the flat strict upper triangle of its
    integer numerators over one positive denominator (1 at integer
    points of an integer table), of which rows, matrix and rank are views."""
    at: tuple[Fraction, ...]
    tri: list[int]
    den: int

    @property
    def rows(self) -> list[list[int]]:
        return _skew_rows(self.tri, len(self.at))

    @property
    def matrix(self) -> MatQ:
        return MatQ._make(tuple(map(tuple, self.rows)), len(self.at), self.den)

    @property
    def rank(self) -> int:
        return _skew_rank(self.tri, len(self.at))


def _kirillov_walk(L: LieAlgebraData) -> list[tuple[int, int, int]]:
    """L's table as (t, k, c) per term c x_k of [b_i, b_j]: entry (i, j)
    of den K's triangle, at t = off[i] + j - i - 1, sums its c x_k."""
    off = _triangle(L.dim)[0]
    return [(off[i] + j - i - 1, k, c) for (i, j), form in L.num.items() for k, c in form.items()]


def _kirillov_triangle(L: LieAlgebraData, ipt: Sequence[int], walk: Optional[list] = None) -> list[int]:
    """The triangle of den K at an integer point, along L's table walk."""
    if len(ipt) != L.dim:
        raise ValueError("point length mismatch")
    a = [0] * (L.dim * (L.dim - 1) // 2)
    for t, k, c in _kirillov_walk(L) if walk is None else walk:
        a[t] += c * ipt[k]
    return a


def kirillov(L: LieAlgebraData, xi: Sequence[Scalar]) -> KirillovForm:
    """The skew form K[i][j] = <xi, [b_i, b_j]> at a point of the dual,
    formed on the integer structure table of L with the denominators of
    xi cleared."""
    pden, [ipt] = _cleared(xi)
    return KirillovForm(tuple(Fraction(x, pden) for x in ipt), _kirillov_triangle(L, ipt),
                        pden * L.den)


def estimate_index(L: LieAlgebraData, trials: int = 24, seed: int = 0,
                   bound: int = 9, casimirs: Optional[CasimirSet] = None) -> AlgebraProfile:
    """Index estimate dim - max sampled Kirillov rank, with witness point.

    Sampling can only overestimate the index (never reach too high a
    rank), so the estimate is an upper bound that is exact once any
    regular point is hit.  Points stay integer coordinates and forms
    integer triangles, on one walk of the table; only the witness is Fractions.

    trials is a budget: sampling stops at the first trial whose rank
    reaches a ceiling no rank passes, so the profile is the one every
    trial gives (the witness is the first point of maximal rank).  A
    skew form has even rank: the ceiling is dim - l rounded down to
    even, l = len(casimirs) or 0, and a set verified on another table
    is refused.  Each verified f has K(x) grad f(x) = 0 at every x, and
    the l gradients are independent at the set's witness, so on a dense
    open set.  It meets the open set of generic rank, so ker K(x) there
    has dimension l or more.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n = L.dim
    if casimirs is not None:
        casimirs.check_on(L)
    ceiling = (n - (len(casimirs) if casimirs else 0)) & ~1
    walk = _kirillov_walk(L)
    max_rank = 0
    witness: Optional[tuple[int, ...]] = None
    for t in range(trials):
        pt = integer_coords(rng_stream(seed, "index-sample", t), n, bound)
        r = _skew_rank(_kirillov_triangle(L, pt, walk), n)
        if r > max_rank:
            max_rank, witness = r, pt
        if max_rank == ceiling:
            break
    return AlgebraProfile(
        dim=n, ind=n - max_rank, status="estimated", max_rank_seen=max_rank,
        witness=None if witness is None else tuple(map(Fraction, witness)),
        seed=seed, trials=trials, bound=bound)


@dataclass
class CasimirCheck:
    ok: bool
    witness_index: Optional[int] = None
    witness: Optional[MPoly] = None


def is_casimir(L: LieAlgebraData, f: MPoly) -> CasimirCheck:
    """Exact test that {x_i, f} vanishes for every coordinate."""
    for i, defect in enumerate(coordinate_brackets(L, f)):
        if not defect.is_zero():
            return CasimirCheck(False, i, defect)
    return CasimirCheck(True)


class CasimirSet:
    """Central generators, verified on the structure table they keep.

    verified is the only constructor: it checks each generator exactly,
    witnesses algebraic independence by a rational point where the
    Jacobian has full rank, and records the algebra.  The set cannot be
    changed after that, and every consumer calls check_on, which
    refuses a set verified on another table.
    """

    __slots__ = ("algebra", "generators", "degrees", "independence_witness")

    def __init__(self, *args: object, **kwargs: object):
        raise TypeError("a CasimirSet is built only by CasimirSet.verified")

    def __setattr__(self, name: str, value: object):
        raise AttributeError("a verified CasimirSet cannot be changed")

    @classmethod
    def verified(cls, L: LieAlgebraData, polys: Sequence[MPoly], seed: int = 0,
                 bound: int = 9) -> "CasimirSet":
        gens = tuple(polys)
        for p in gens:
            if p.is_zero():
                raise ValueError("zero polynomial offered as a Casimir")
            if p.nvars != L.dim:
                raise ValueError("generator lives on the wrong space")
            chk = is_casimir(L, p)
            if not chk.ok:
                name = L.basis_names[chk.witness_index]
                raise ValueError(
                    f"not a Casimir: bracket with x_{name} gives "
                    f"{chk.witness.pretty([f'x_{m}' for m in L.basis_names])}")
        witness = None
        if gens:
            table = gradient_table(gens)
            for t in range(60):
                pt = integer_coords(rng_stream(seed, "casimir-independence", t), L.dim, bound)
                if _gradient_rank(table, pt, None, 1) == len(gens):
                    witness = pt
                    break
            else:
                raise ValueError("could not witness algebraic independence of the generators")
        cs = object.__new__(cls)
        for name, value in zip(cls.__slots__, (L, gens, tuple(p.degree() for p in gens),
                                               witness)):
            object.__setattr__(cs, name, value)
        return cs

    def check_on(self, L: LieAlgebraData) -> None:
        """Refuse L unless the set was verified on L's structure table."""
        A = self.algebra
        if (A.dim, A.den, A.num) != (L.dim, L.den, L.num):
            raise ValueError("the Casimirs were verified on another table")

    def __len__(self) -> int:
        return len(self.generators)

    @property
    def sum_degrees(self) -> int:
        return sum(self.degrees)


def classical_casimir_polys(family: str, n: int) -> list[MPoly]:
    """Characteristic polynomial invariants of gl(n) or sl(n).

    The dual pairing is the trace form, so the generic element of the
    dual is the matrix X in the span of the basis with tr(X b) = x_b for
    every basis matrix b: X = sum_a x_a sum_b G^-1[a, b] b, G the Gram
    matrix of the trace form.  The coefficient of t^(n-k) in det(tI - X)
    is a degree-k central generator; degree 1 exists only for gl.  The
    coefficients come from the Faddeev-LeVerrier recurrence over MPoly,
    run on D X, whose entries are sparse integer linear forms (the solve
    gives G^-1 = N / D).  That scales the coefficient of t^(n-k) by D^k,
    which the normalization to monic in graded lex order drops.
    """
    if family not in ("gl", "sl"):
        raise ValueError("classical Casimirs implemented for gl and sl")
    if n < 2:
        raise ValueError(f"{family}(n) requires n >= 2")
    basis = classical_matrix_basis(family, n)
    # each basis matrix, integer (den 1), as its nonzero entries (i, j, value)
    mats = [[(i, j, x) for i, row in enumerate(m.num) for j, x in enumerate(row) if x]
            for m in basis]
    d = len(mats)
    gram = [[sum(x * b.num[j][i] for i, j, x in a) for b in basis] for a in mats]
    # G^-1 = N / D, and column b of N is row b, as G is symmetric
    _, _, ninv = _solve(gram, d, [[int(a == b) for a in range(d)] for b in range(d)])
    # entry (i, j) of D X as the integer coefficients of x_0 .. x_(d-1)
    forms = [[[0] * d for _ in range(n)] for _ in range(n)]
    for row, mat in zip(ninv, mats):
        for i, j, x in mat:
            for a, y in enumerate(row):
                if y:
                    forms[i][j][a] += y * x
    X = [[MPoly.linear_form(form) for form in row] for row in forms]
    coeffs = faddeev_leverrier(X, MPoly.one(d))
    return [coeffs[n - k].monic() for k in range(1, n + 1)
            if not coeffs[n - k].is_constant()]


def classical_casimirs(family: str, n: int, seed: int = 0) -> CasimirSet:
    """classical_casimir_polys verified on make_classical(family, n)."""
    gens = classical_casimir_polys(family, n)
    return CasimirSet.verified(make_classical(family, n), gens, seed=seed)


def takiff_lift(base: LieAlgebraData, f: MPoly, n: int) -> list[MPoly]:
    """Lift a Casimir of q to n+1 Casimirs of the truncated current algebra.

    Substitutes for x_i the generating series sum over l of t^l times
    x_i at level n - l (top level first) and returns the coefficients of
    t^0 .. t^n, multiplying series cut at t^n.  Every returned
    polynomial is re-verified as a Casimir of make_takiff(base, n);
    verification failure raises instead of returning unchecked output.
    """
    if n < 0:
        raise ValueError("level bound must be nonnegative")
    if f.nvars != base.dim:
        raise ValueError("polynomial must live on the dual of the base algebra")
    chk = is_casimir(base, f)
    if not chk.ok:
        raise ValueError("input polynomial is not a Casimir of the base algebra")
    d = base.dim
    nv = (n + 1) * d
    zero = MPoly.zero(nv)

    def times(a: list[MPoly], b: list[MPoly]) -> list[MPoly]:
        return [sum((a[l] * b[j - l] for l in range(j + 1)), zero) for j in range(n + 1)]

    series = [[MPoly.variable(nv, (n - l) * d + i) for l in range(n + 1)] for i in range(d)]
    lifts = [zero] * (n + 1)
    for e, c in f.terms.items():
        term = [MPoly.const(nv, c)] + [zero] * n
        for i, k in enumerate(e):
            for _ in range(k):
                term = times(term, series[i])
        lifts = [a + b for a, b in zip(lifts, term)]
    takiff = make_takiff(base, n)
    for p in lifts:
        if not is_casimir(takiff, p).ok:
            raise ArithmeticError("lift failed exact verification on the current algebra")
    return lifts
