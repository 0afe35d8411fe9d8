"""Test oracles: older or more direct routes the package no longer runs.

Each function here computes a fact the package decides another way, so
tests can hold the package's route against it.

- ``partial`` and ``evaluate``: calculus on one MPoly, term by term.
- ``stream_minor_gcd``: the running gcd of square minors, each taken
  as a symbolic determinant.  ``regcert.certify_codim2`` replaced it
  with a gcd over principal Pfaffians.
- ``var_coeffs``: the coefficients of an MPoly in one variable.
- ``takiff_lift_by_substitution``: Takiff lifts by substituting the
  generating series in a ring with the formal parameter as one more
  variable.  ``poisson.takiff_lift`` multiplies series cut at the top
  level instead.
- ``bareiss_skew_rank``: the rank of a skew matrix by general
  fraction-free (Bareiss) elimination, checked even.
  ``exactlin._skew_rank`` eliminates by 2 x 2 Pfaffian pivots instead.
- ``randint_coords``: integer coordinates drawn one ``Random.randint``
  call each.  ``sampling.integer_coords`` makes the same draw by
  rejection on ``getrandbits`` without the call chain.
- ``integer_point``: ``sampling.integer_coords`` as Fractions, the
  same point from the same stream.  The package samples int tuples and
  makes Fractions only where a report or a falsification bundle
  renders them.
- ``fraction_kirillov`` and ``estimate_index_by_bareiss``: Kirillov
  forms built from the Fraction bracket table at Fraction points and
  ranked by ``bareiss_skew_rank``.  ``poisson.estimate_index`` ranks
  integer forms from the algebra's integer table.
- ``estimate_index_all_trials``: the sampled index estimate over every
  trial of the budget, on integer points and integer forms.
  ``poisson.estimate_index`` stops at the first trial whose rank
  reaches the ceiling the parity of a skew form and a verified Casimir
  set certify instead.
- ``_rref`` and ``_rank_kernel_int``: the integer reduced row echelon
  form of a batch of integer rows by one Bareiss elimination and
  back-elimination, and the rank and canonical kernel read off it with
  the columns reversed.  ``exactlin`` grows the same canonical rows one
  vector at a time in ``SubspaceQ`` and reads a kernel off them
  (``annihilator``), for every basis, kernel and solve.
- ``bareiss_skew_kernel``: the rank and kernel of a skew pencil member
  by general Bareiss elimination, checked even.  ``exactlin._skew_kernel``
  reads the kernel off the Pfaffian elimination instead.
- ``rref_span``: the canonical subspace spanned by integer rows, read
  off one batch elimination (``_rref``).  ``SubspaceQ`` grows its
  canonical rows one vector at a time instead.
- ``cascade_reduce``: a vector reduced by a subspace's canonical rows
  one after the other, scaled by each hit pivot in turn, so by their
  product.  ``SubspaceQ.reduce`` forms one combination over the lcm of
  those pivots instead.
- ``ambient_image_equality``: the common image of a subspace L under
  every member of a pencil, by the Wong sequence K <- A(L & B^-1 K)
  run on whole vectors of the ambient space, each step one kernel and
  one span.  ``skewpencil.check_image_equality`` runs it as a closure
  in the coordinates of the image.
- ``two_solve_phi``: the recursion operator on Ltilde / L by solving
  A w = B v over the whole space and then for the coordinates of each
  w in the quotient basis followed by L.  ``skewpencil.phi_operator``
  solves the Gram pair of the quotient basis instead.
- ``fraction_char_poly``: the characteristic polynomial by
  Faddeev-LeVerrier on the Fraction entries of a matrix.
  ``skewpencil.char_poly`` runs the recurrence on its integer rows and
  divides by powers of the denominator at the end instead.
- ``fraction_add``, ``fraction_mul`` and ``fraction_param_expand``:
  sums, products and shift expansions on ``{exponents: Fraction}``
  term dicts, one Fraction per term.  ``MPoly`` runs them on integer
  numerators over one denominator instead.
- ``to_sympy``: an MPoly as a sympy expression, for differential tests.
- ``fraction_matrix_add``, ``fraction_matrix_scale``,
  ``fraction_matrix_mul``, ``fraction_transpose`` and
  ``fraction_matvec``: matrix arithmetic on lists of Fraction rows, one
  Fraction per entry.  ``MatQ`` runs it on integer rows over one
  denominator instead.
- ``shift_chain_holds``: the argument-shift chain checked on the
  expanded members of a shift family, each member's coadjoint action
  under the Lie-Poisson bracket and under the bracket frozen at xi.
  ``mfshift.certify_commutative`` checks the generators by
  ``is_casimir`` and derives the chain from the Casimir identity
  instead.
- ``fraction_jacobi_defect`` and ``fraction_validate``: the Jacobi
  check on the Fraction bracket table, one Fraction per product.
  ``liealg.validate`` runs it on the integer table, whose defects are
  den^2 times these.
- ``fraction_poly_from_json``, ``fraction_algebra_table_from_json`` and
  ``fraction_algebra_from_json``: the JSON readers with one Fraction
  string parse per coefficient, summed or normalized as Fractions.
  ``jsonio`` reads each coefficient as an integer pair and hands
  integer numerators over one denominator to ``MPoly`` and
  ``LieAlgebraData`` instead.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, lcm
from typing import Any, Iterable, Optional, Sequence

import sympy

from argshift.exactlin import (MatQ, Scalar, SubspaceQ, _echelon, _int_rows, _primitive,
                               _rank_int, _skew_rank, _skew_rows, _solve, faddeev_leverrier,
                               rat_str, vec)
from argshift.jsonio import _array, _count, _field, _int
from argshift.liealg import AlgebraProfile, BracketEntry, LieAlgebraData, ValidationReport
from argshift.mfshift import ShiftFamily
from argshift.mpoly import MPoly, determinant, poly_gcd
from argshift.poisson import (Action, _action_width, _coadjoint, _frozen_pairs,
                              _kirillov_triangle, _kirillov_walk, _pack)
from argshift.regcert import FalsificationError
from argshift.sampling import integer_coords, rng_stream
from argshift.skewpencil import SkewPencil, _matvec


def partial(p: MPoly, i: int) -> MPoly:
    """The derivative of p in variable i."""
    if not 0 <= i < p.nvars:
        raise ValueError("variable index out of range")
    out: dict[tuple[int, ...], Fraction] = {}
    for e, c in p.terms.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
    return MPoly(p.nvars, out)


def evaluate(p: MPoly, point: Sequence[Scalar]) -> Fraction:
    """The value of p at a rational point."""
    pt = vec(point)
    if len(pt) != p.nvars:
        raise ValueError("point length mismatch")
    total = Fraction(0)
    for e, c in p.terms.items():
        for x, k in zip(pt, e):
            if k:
                c *= x ** k
        total += c
    return total


def grad_at(p: MPoly, pt: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """The gradient of p at a rational point."""
    return tuple(evaluate(partial(p, i), pt) for i in range(p.nvars))


def var_coeffs(p: MPoly, v: int) -> dict[int, MPoly]:
    """The coefficient of each power of variable v that occurs in p, as
    a polynomial in the other variables (slot v dropped)."""
    out: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for e, c in p.terms.items():
        out.setdefault(e[v], {})[e[:v] + e[v + 1:]] = c
    return {k: MPoly(p.nvars - 1, terms) for k, terms in out.items()}


def takiff_lift_by_substitution(f: MPoly, n: int) -> list[MPoly]:
    """The coefficients of t^0 .. t^n in f(x(t)), x_i(t) the sum over l
    of t^l x_i at level n - l, with t the last of (n+1) dim + 1
    variables.  No Casimir check."""
    d = f.nvars
    nv = (n + 1) * d + 1
    subs = []
    for i in range(d):
        terms = {}
        for l in range(n + 1):
            e = [0] * nv
            e[(n - l) * d + i] = 1
            e[nv - 1] = l
            terms[tuple(e)] = 1
        subs.append(MPoly(nv, terms))
    big = MPoly.zero(nv)
    for e, c in f.terms.items():
        term = MPoly.const(nv, c)
        for s, k in zip(subs, e):
            term = term * s ** k
        big = big + term
    by_power = var_coeffs(big, nv - 1)
    return [by_power.get(j, MPoly.zero(nv - 1)) for j in range(n + 1)]


def stream_minor_gcd(entries: Sequence[Sequence[MPoly]],
                     order: Iterable[tuple[Sequence[int], Sequence[int]]]
                     ) -> tuple[Optional[MPoly], int]:
    """Running monic gcd of the square minors named by order.

    Each item of order is (row indices, column indices).  The stream
    stops as soon as the gcd is constant, which certifies the gcd of
    every minor.  Returns (gcd, minors_examined); gcd is None when
    every examined minor vanished.
    """
    g: Optional[MPoly] = None
    checked = 0
    for rows_idx, cols_idx in order:
        checked += 1
        minor = determinant([[entries[i][j] for j in cols_idx] for i in rows_idx])
        if minor.is_zero():
            continue
        g = minor if g is None else poly_gcd([g, minor])
        if g.is_constant():
            break
    return (None if g is None else g.monic()), checked


def bareiss_skew_rank(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank of the integer rows of a skew matrix by Bareiss elimination;
    an odd rank raises ArithmeticError."""
    r = _rank_int(rows, ncols)
    if r % 2 != 0:
        raise ArithmeticError("skew matrix produced odd rank")
    return r


def fraction_kirillov(L: LieAlgebraData, xi: Sequence[Scalar]) -> list[list[Fraction]]:
    """K[i][j] = <xi, [b_i, b_j]> in Fractions, from the bracket table."""
    pt = vec(xi)
    return [[sum((c * pt[k] for k, c in L.bracket_coeffs(i, j).items()), Fraction(0))
             for j in range(L.dim)] for i in range(L.dim)]


def shift_chain_holds(family: ShiftFamily) -> bool:
    """Does the argument-shift chain hold on the family's members?

    With f_k the member (generator, k), 0 when dropped, the chain is
    {x_i, f_0} = 0 and {x_i, f_(k+1)} + {x_i, f_k}_xi = 0 for every i
    and every k up to the last member, past which f_k counts as 0: the
    top coefficient f_d = f(xi) is a constant, and brackets kill it.
    """
    L, n = family.algebra, family.algebra.dim
    polys = family.polys
    chains: dict[int, dict[int, int]] = {}
    for pos, m in enumerate(family.members):
        chains.setdefault(m.generator_index, {})[m.power] = pos
    width = _action_width(polys)
    packed = list(_pack(n, polys, width))
    lie = list(_coadjoint(n, packed, (L.num, L.den), width))
    frozen = list(_coadjoint(n, packed, _frozen_pairs(L, family.xi), width))
    zero: Action = ([{}] * n, 1)

    def cancels(a: Action, b: Action) -> bool:
        (pa, da), (pb, db) = a, b
        return all(ai.keys() == bi.keys() and all(c * db == -bi[key] * da
                                                  for key, c in ai.items())
                   for ai, bi in zip(pa, pb))

    for chain in chains.values():
        if 0 in chain and any(lie[chain[0]][0]):
            return False
        for k in range(max(chain) + 1):
            upper = lie[chain[k + 1]] if k + 1 in chain else zero
            lower = frozen[chain[k]] if k in chain else zero
            if not cancels(upper, lower):
                return False
    return True


def fraction_jacobi_defect(L: LieAlgebraData, i: int, j: int, k: int) -> dict[int, Fraction]:
    """[b_i, [b_j, b_k]] + cyclic, nonzero coefficients only, in Fractions."""
    acc: dict[int, Fraction] = {}

    def add_nested(a: int, inner: dict[int, Fraction]) -> None:
        for m, c in inner.items():
            for l, d in L.bracket_coeffs(a, m).items():
                s = acc.get(l, Fraction(0)) + c * d
                if s == 0:
                    acc.pop(l, None)
                else:
                    acc[l] = s

    add_nested(i, L.bracket_coeffs(j, k))
    add_nested(j, L.bracket_coeffs(k, i))
    add_nested(k, L.bracket_coeffs(i, j))
    return acc


def fraction_validate(L: LieAlgebraData) -> ValidationReport:
    """The Jacobi report of liealg.validate, from fraction_jacobi_defect."""
    names = L.basis_names
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                defect = fraction_jacobi_defect(L, i, j, k)
                if defect:
                    l, c = next(iter(defect.items()))
                    return ValidationReport(
                        False, "jacobi", (i, j, k),
                        f"Jacobi fails on ({names[i]}, {names[j]}, {names[k]}): "
                        f"coefficient of {names[l]} is {rat_str(c)}")
    return ValidationReport(True)


def randint_coords(rng: random.Random, dim: int, bound: int,
                   nonzero: bool = True) -> tuple[int, ...]:
    """Integer coordinates in [-bound, bound], one randint each, redrawn
    until some coordinate is nonzero unless nonzero is False."""
    if bound < 1:
        raise ValueError("bound must be positive")
    if nonzero and dim < 1:
        raise ValueError("no nonzero point in dimension 0")
    while True:
        pt = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if not nonzero or any(pt):
            return pt


def integer_point(rng: random.Random, dim: int, bound: int,
                  nonzero: bool = True) -> tuple[Fraction, ...]:
    """integer_coords as Fractions: the same point from the same stream."""
    return tuple(map(Fraction, integer_coords(rng, dim, bound, nonzero)))


def estimate_index_by_bareiss(L: LieAlgebraData, trials: int, seed: int,
                              bound: int) -> AlgebraProfile:
    """The sampled index estimate over every trial, each point a Fraction
    point and each form ranked by bareiss_skew_rank."""
    max_rank = 0
    witness = None
    for t in range(trials):
        pt = integer_point(rng_stream(seed, "index-sample", t), L.dim, bound)
        r = bareiss_skew_rank(_int_rows(fraction_kirillov(L, pt)), L.dim)
        if r > max_rank:
            max_rank, witness = r, pt
    return AlgebraProfile(dim=L.dim, ind=L.dim - max_rank, status="estimated",
                          max_rank_seen=max_rank, witness=witness,
                          seed=seed, trials=trials, bound=bound)


def estimate_index_all_trials(L: LieAlgebraData, trials: int = 24, seed: int = 0,
                              bound: int = 9) -> AlgebraProfile:
    """The sampled index estimate over every trial, each integer point's
    Kirillov triangle ranked by Pfaffian elimination."""
    walk = _kirillov_walk(L)
    max_rank = 0
    witness: Optional[tuple[int, ...]] = None
    for t in range(trials):
        pt = integer_coords(rng_stream(seed, "index-sample", t), L.dim, bound)
        r = _skew_rank(_kirillov_triangle(L, pt, walk), L.dim)
        if r > max_rank:
            max_rank, witness = r, pt
    return AlgebraProfile(
        dim=L.dim, ind=L.dim - max_rank, status="estimated", max_rank_seen=max_rank,
        witness=None if witness is None else tuple(map(Fraction, witness)),
        seed=seed, trials=trials, bound=bound)


def _rref(work: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Integer reduced row echelon form of integer rows, consumed in place.

    Returns the nonzero rows, each primitive and zero in every pivot
    column but its own, and the pivot columns.  The back-elimination
    clears each pivot column above its pivot, dividing every combined
    row by its content.
    """
    pivots = _echelon(work, ncols)
    rank = len(pivots)
    work = [_primitive(row) for row in work[:rank]]
    for r in range(rank - 1, 0, -1):
        pc = pivots[r]
        low = work[r]
        p = low[pc]
        for above in range(r):
            row = work[above]
            q = row[pc]
            if q:
                work[above] = _primitive([p * a - q * b for a, b in zip(row, low)])
    return work, pivots


def _rank_kernel_int(rows: Sequence[Sequence[int]], ncols: int
                     ) -> tuple[int, list[list[int]]]:
    """Rank and kernel of integer rows, the kernel as primitive integer
    vectors: each is the canonical kernel vector of rank_kernel times
    a positive integer.

    Eliminating with the columns reversed writes each pivot variable in
    terms of the free variables before it, so the kernel vector of free
    column f is nonzero at f and zero at the other free columns: the
    canonical basis up to scale, read off without a second reduction.
    """
    n = ncols
    work, pivots = _rref([row[::-1] for row in rows], n)
    # reversed column c is column n - 1 - c of the input
    solved = [(n - 1 - c, row, row[c]) for c, row in zip(pivots, work)]
    pivot_set = {pc for pc, _, _ in solved}
    basis: list[list[int]] = []
    for f in range(n):
        if f in pivot_set:
            continue
        hits = [(pc, row[n - 1 - f], p) for pc, row, p in solved if row[n - 1 - f]]
        den = lcm(*(p for _, _, p in hits))
        v = [0] * n
        v[f] = den
        for pc, x, p in hits:
            v[pc] = -x * (den // p)
        basis.append(_primitive(v))
    return len(pivots), basis


def bareiss_skew_kernel(rows: Sequence[Sequence[int]], ncols: int
                        ) -> tuple[int, list[list[int]]]:
    """Rank and canonical integer kernel basis of the integer rows of a
    skew matrix by Bareiss elimination; an odd rank raises
    ArithmeticError."""
    r, ker = _rank_kernel_int(rows, ncols)
    if r % 2 != 0:
        raise ArithmeticError("skew matrix produced odd rank")
    return r, ker


def rref_span(rows: Sequence[Sequence[int]], ncols: int) -> SubspaceQ:
    """The subspace spanned by integer rows, its canonical rows taken
    from one _rref, each turned to a positive pivot."""
    work, pivots = _rref(list(rows), ncols)
    S = SubspaceQ(ncols)
    S.rows = {pc: row if row[pc] > 0 else [-x for x in row] for row, pc in zip(work, pivots)}
    return S


def cascade_reduce(S: SubspaceQ, v: Sequence[int]) -> list[int]:
    """v reduced by S's rows in insertion order, each hit row's pivot p
    scaling v before x row is taken off, x = v[pc]: the product of the
    hit pivots times v minus a vector of S, zero in every pivot column."""
    for pc, row in S.rows.items():
        x = v[pc]
        if x:
            p = row[pc]
            v = [p * a - x * b for a, b in zip(v, row)]
    return list(v)


def ambient_image_equality(pencil: SkewPencil, L: SubspaceQ) -> SubspaceQ:
    """The common image W of L under every nonzero member, with the same
    checks, raises and bundles as skewpencil.check_image_equality:
    A(L) = B(L) by ranks, then K <- A(L & B^-1 K) from K = 0 until dim K
    stops growing, each step a kernel of [B v_1 .. B v_l | -K] and a
    span of A x over its vectors."""
    n = pencil.dim
    avs = [_matvec(pencil._a, v) for v in L.rows.values()]
    bvs = [_matvec(pencil._b, v) for v in L.rows.values()]
    W = rref_span(avs, n)
    b_dim = _rank_int(bvs, n)
    if b_dim != W.dim or _rank_int(avs + bvs, n) != W.dim:
        raise FalsificationError(
            "kernel-sum images under the two pencil generators differ",
            {"dim": n, "L_dim": L.dim, "A_image_dim": W.dim,
             "B_image_dim": b_dim})
    K: list[list[int]] = []
    while len(K) < W.dim:
        cols = bvs + [[-x for x in k] for k in K]
        _, ker = _rank_kernel_int([[c[i] for c in cols] for i in range(n)], len(cols))
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


def two_solve_phi(pencil: SkewPencil, L: SubspaceQ, Ltilde: SubspaceQ,
                  A_ratio: tuple[Scalar, Scalar], B_ratio: tuple[Scalar, Scalar]) -> MatQ:
    """The matrix of v -> w, A w = B v, on Ltilde / L in the basis of
    Ltilde's primitive rows outside L: one n x (n + q) solve for the
    images w, one n x (n + q) solve for their coordinates in that basis
    followed by L's rows, of which the first q make each column."""
    n = pencil.dim
    a1, a2, b1, b2 = _int_rows([tuple(A_ratio) + tuple(B_ratio)])[0]
    Am, Bm = _skew_rows(pencil._member(a1, a2), n), _skew_rows(pencil._member(b1, b2), n)
    grown = SubspaceQ(n, L.rows.values())
    comp = [row for _, row in sorted(Ltilde.rows.items()) if grown.add(row) is not None]
    _, D1, ws = _solve(Am, n, [_matvec(Bm, v) for v in comp])
    if None in ws:
        raise ArithmeticError("A w = B v has no solution")
    frame = comp + list(L.rows.values())
    # each w is its numerators over D1, so its coordinates are over D1 D2
    _, D2, coords = _solve([[u[i] for u in frame] for i in range(n)], len(frame), ws)
    if None in coords:
        raise ArithmeticError("an image w lies outside Ltilde")
    q = len(comp)
    return MatQ([[Fraction(col[i], D1 * D2) for col in coords] for i in range(q)], cols=q)


def fraction_char_poly(M: MatQ) -> list[Fraction]:
    """Coefficients of det(tI - M), ascending in t, by Faddeev-LeVerrier
    on M's Fraction entries."""
    return faddeev_leverrier(M.to_lists(), Fraction(1))


Terms = dict[tuple[int, ...], Fraction]


def fraction_add(a: Terms, b: Terms) -> Terms:
    """a + b on Fraction term dicts."""
    terms = dict(a)
    for e, c in b.items():
        s = terms.get(e, Fraction(0)) + c
        if s == 0:
            terms.pop(e, None)
        else:
            terms[e] = s
    return terms


def fraction_mul(a: Terms, b: Terms) -> Terms:
    """a * b on Fraction term dicts, term by term."""
    out: Terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def fraction_param_expand(terms: Terms, xi: Sequence[Scalar]) -> list[Terms]:
    """The coefficients [f_0, ..., f_d] of f(x + a*xi) by powers of a,
    f the nonzero polynomial with these terms and d its total degree,
    each term expanded binomially in Fractions."""
    pt = vec(xi)
    d = max(sum(e) for e in terms)
    acc: list[Terms] = [{} for _ in range(d + 1)]
    for exps, c in terms.items():
        expanded: list[tuple[tuple[int, ...], Fraction, int]] = [(exps, c, 0)]
        for i, (e_i, x_i) in enumerate(zip(exps, pt)):
            if e_i == 0 or x_i == 0:
                continue
            nxt = []
            for es, coeff, j in expanded:
                nxt.append((es, coeff, j))
                pw = Fraction(1)
                for k in range(1, e_i + 1):
                    pw *= x_i
                    nxt.append((es[:i] + (e_i - k,) + es[i + 1:], coeff * comb(e_i, k) * pw,
                                j + k))
            expanded = nxt
        for es, coeff, j in expanded:
            s = acc[j].get(es, Fraction(0)) + coeff
            if s == 0:
                acc[j].pop(es, None)
            else:
                acc[j][es] = s
    return acc


def to_sympy(p: MPoly, syms: Sequence[sympy.Symbol]) -> sympy.Expr:
    """p as an expanded sympy expression in syms."""
    return sympy.expand(sum((sympy.Rational(c.numerator, c.denominator)
                             * sympy.Mul(*[x ** k for x, k in zip(syms, e)])
                             for e, c in p.terms.items()), sympy.Integer(0)))


FractionRows = list[list[Fraction]]


def fraction_matrix_add(a: FractionRows, b: FractionRows) -> FractionRows:
    """a + b, entry by entry."""
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def fraction_matrix_scale(a: FractionRows, c: Fraction) -> FractionRows:
    """c a, entry by entry."""
    return [[c * x for x in row] for row in a]


def fraction_transpose(a: FractionRows, cols: int) -> FractionRows:
    """The transpose of the rows a of a matrix with cols columns."""
    return [[row[j] for row in a] for j in range(cols)]


def fraction_matvec(a: FractionRows, v: Sequence[Fraction]) -> list[Fraction]:
    """a v, one dot product per row."""
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def fraction_matrix_mul(a: FractionRows, b: FractionRows, cols: int) -> FractionRows:
    """a b, b with cols columns."""
    return [fraction_matvec(fraction_transpose(b, cols), row) for row in a]


def _fraction(value: Any) -> Fraction:
    """One coefficient of a JSON file, by one Fraction string parse."""
    try:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value.strip().replace("−", "-"))
        raise TypeError(f"cannot interpret {value!r} as a rational")
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot interpret {value!r} as a rational") from exc


def fraction_poly_from_json(data: Any) -> MPoly:
    """A polynomial file, its coefficients summed as Fractions."""
    nvars = _count(data, "nvars", "polynomial")
    terms: dict[tuple[int, ...], Fraction] = {}
    for item in _array(_field(data, "terms", "polynomial"), "polynomial terms"):
        exps = tuple(_int(e, "exponent")
                     for e in _array(_field(item, "exps", "term"), "exponents"))
        if len(exps) != nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple {exps} for nvars={nvars}")
        terms[exps] = terms.get(exps, Fraction(0)) + _fraction(_field(item, "coeff", "term"))
    return MPoly(nvars, terms)


def fraction_algebra_table_from_json(data: Any) -> tuple[int, list[str], list[BracketEntry]]:
    """Dimension, basis names and bracket entries of Fractions, not yet
    validated."""
    dim = _count(data, "dim", "algebra")
    basis = [str(b) for b in _array(data.get("basis", [f"e{i + 1}" for i in range(dim)]),
                                    "basis")]
    entries = []
    for item in _array(data.get("brackets", []), "brackets"):
        if not isinstance(item, dict) or not isinstance(item.get("coeffs"), dict):
            raise ValueError("bracket must be an object with i, j and a coeffs object")
        coeffs = {_int(k, "bracket coefficient index"): _fraction(v)
                  for k, v in item["coeffs"].items()}
        entries.append((_int(_field(item, "i", "bracket"), "i"),
                        _int(_field(item, "j", "bracket"), "j"), coeffs))
    return dim, basis, entries


def fraction_algebra_from_json(data: Any) -> LieAlgebraData:
    """An algebra file, its table normalized as Fractions."""
    dim, basis, entries = fraction_algebra_table_from_json(data)
    meta = data.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValueError("algebra meta must be an object")
    return LieAlgebraData.from_table(dim, basis, entries, meta=meta)
