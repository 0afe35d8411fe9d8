"""Sparse multivariate polynomials over Q.

A polynomial is a map from exponent vectors to nonzero integer
numerators over one positive denominator, in lowest terms, so equal
polynomials have equal numerators and denominators.  The monomial order
used everywhere (leading terms, normalization, display) is graded
lexicographic.  The shift expansion ``param_expand``, the exact gcd and
the integer gradient ranks live here because every certificate in the
workbench reduces to them.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, gcd as int_gcd, lcm
from operator import add
from typing import Iterable, Mapping, Optional, Sequence

from .exactlin import Scalar, _cleared, _rank_int, _ratio_str, rat


def grlex_key(exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(exps), exps)


class MPoly:
    """Immutable sparse polynomial in ``nvars`` variables over Q: the
    integer numerators ``num`` over the denominator ``den`` > 0, with
    gcd(den, numerators) = 1."""

    __slots__ = ("nvars", "num", "den")

    def __init__(self, nvars: int, terms: Optional[Mapping[tuple[int, ...], Scalar]] = None):
        given = {tuple(e): c for e, c in (terms or {}).items()}
        den, [nums] = _cleared(given.values())
        num = {e: c for e, c in zip(given, nums) if c}
        for exps in num:
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for nvars={nvars}")
        self.nvars = nvars
        self.num = num
        self.den = den

    # --- constructors -------------------------------------------------
    @classmethod
    def _make(cls, nvars: int, num: dict[tuple[int, ...], int], den: int) -> "MPoly":
        # num must be clean: nonzero ints keyed by exponent tuples of
        # length nvars with no negative entry; den > 0
        g = int_gcd(den, *num.values()) if den > 1 else 1
        if g > 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
        p = object.__new__(cls)
        p.nvars = nvars
        p.num = num
        p.den = den
        return p

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls._make(nvars, {}, 1)

    @classmethod
    def const(cls, nvars: int, c: Scalar) -> "MPoly":
        return cls(nvars, {(0,) * nvars: rat(c)})

    @classmethod
    def one(cls, nvars: int) -> "MPoly":
        return cls._make(nvars, {(0,) * nvars: 1}, 1)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MPoly":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls._make(nvars, {exps: 1}, 1)

    @classmethod
    def linear_form(cls, coeffs: Sequence[Scalar]) -> "MPoly":
        n = len(coeffs)
        den, [num] = _cleared(coeffs)
        return cls._make(n, {tuple(1 if j == i else 0 for j in range(n)): c
                             for i, c in enumerate(num) if c}, den)

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as Fractions: a fresh dict, for writing rationals."""
        return {e: Fraction(c, self.den) for e, c in self.num.items()}

    # --- predicates and basic data ------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.num)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.num), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.num}
        return len(degrees) <= 1

    def variables(self) -> set[int]:
        return {i for e in self.num for i in range(self.nvars) if e[i]}

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.num:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.num, key=grlex_key)
        return e, Fraction(self.num[e], self.den)

    def monic(self) -> "MPoly":
        e, lead = self.leading()
        c = self.num[e]
        return self if lead == 1 else MPoly._make(
            self.nvars, {m: v if c > 0 else -v for m, v in self.num.items()}, abs(c))

    # --- arithmetic ----------------------------------------------------
    def _check(self, other: "MPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        g = int_gcd(self.den, other.den)
        sa, sb = other.den // g, self.den // g
        out = {e: c * sa for e, c in self.num.items()} if sa != 1 else dict(self.num)
        get = out.get
        for e, c in other.num.items():
            s = get(e, 0) + c * sb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly._make(self.nvars, out, self.den * sa)

    def __neg__(self) -> "MPoly":
        return MPoly._make(self.nvars, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: object) -> "MPoly":
        if isinstance(other, MPoly):
            self._check(other)
            out: dict[tuple[int, ...], int] = {}
            get = out.get
            for e1, c1 in self.num.items():
                for e2, c2 in other.num.items():
                    e = tuple(map(add, e1, e2))
                    out[e] = get(e, 0) + c1 * c2
            return MPoly._make(self.nvars, {e: c for e, c in out.items() if c},
                               self.den * other.den)
        c = rat(other)  # type: ignore[arg-type]
        if c == 0:
            return MPoly.zero(self.nvars)
        k = c.numerator
        return MPoly._make(self.nvars, {e: k * v for e, v in self.num.items()},
                           self.den * c.denominator)

    def __rmul__(self, other: object) -> "MPoly":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power")
        result = MPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MPoly) and self.nvars == other.nvars
                and self.den == other.den and self.num == other.num)

    def __hash__(self) -> int:
        return hash((self.nvars, self.den, frozenset(self.num.items())))

    # --- shift expansion ------------------------------------------------
    def param_expand(self, xi: Sequence[Scalar]) -> list["MPoly"]:
        """Coefficients of f(x + a*xi) as polynomials in x, by powers of a.

        Returns [f_0, ..., f_d] with d the total degree, so that
        f(x + a*xi) = sum_j f_j(x) a^j identically.  f_0 = f and f_d is
        the constant f(xi).  Errors on the zero polynomial.  With
        xi = X / D, X integer and D > 0, every product that feeds f_j
        carries X to total power j, so f_j is integer numerators over
        den D^j.
        """
        if self.is_zero():
            raise ValueError("param_expand of the zero polynomial")
        D, [X] = _cleared(xi)
        if len(X) != self.nvars:
            raise ValueError("shift direction length mismatch")
        d = self.degree()
        acc: list[dict[tuple[int, ...], int]] = [{} for _ in range(d + 1)]
        for exps, c in self.num.items():
            expanded: list[tuple[tuple[int, ...], int, int]] = [(exps, c, 0)]
            for i, (e_i, X_i) in enumerate(zip(exps, X)):
                if e_i and X_i:
                    # (x_i + a X_i / D)^e_i: the k-th binomial term goes to a^k
                    expanded = [(es[:i] + (e_i - k,) + es[i + 1:], coeff * comb(e_i, k) * X_i ** k,
                                 j + k) for es, coeff, j in expanded for k in range(e_i + 1)]
            for es, coeff, j in expanded:
                acc[j][es] = acc[j].get(es, 0) + coeff
        return [MPoly._make(self.nvars, {e: c for e, c in a.items() if c}, self.den * D ** j)
                for j, a in enumerate(acc)]

    # --- display ---------------------------------------------------------
    def pretty(self, names: Optional[Sequence[str]] = None) -> str:
        if self.is_zero():
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        if len(names) != self.nvars:
            raise ValueError("name list length mismatch")
        pieces = []
        for e in sorted(self.num, key=grlex_key, reverse=True):
            c = self.num[e]
            factors = [names[i] if k == 1 else f"{names[i]}^{k}"
                       for i, k in enumerate(e) if k]
            if not factors:
                body = _ratio_str(abs(c), self.den)
            elif abs(c) == self.den:
                body = "*".join(factors)
            else:
                body = "*".join([_ratio_str(abs(c), self.den)] + factors)
            pieces.append(("- " if c < 0 else "+ ") + body)
        first = pieces[0]
        out = ("-" + first[2:]) if first.startswith("- ") else first[2:]
        return " ".join([out] + pieces[1:])

    def __repr__(self) -> str:
        return f"MPoly({self.pretty()})"


# --- exact division ------------------------------------------------------

def try_divide(f: MPoly, g: MPoly) -> Optional[MPoly]:
    """Exact quotient f/g, or None when g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return MPoly.zero(f.nvars)
    f._check(g)
    ge, _ = g.leading()
    gc = g.num[ge]
    # the quotient's terms t x^diff; the leading monomial of r falls at
    # each step, so every diff is new
    quotient: list[MPoly] = []
    r = f
    while not r.is_zero():
        re = max(r.num, key=grlex_key)
        diff = tuple(a - b for a, b in zip(re, ge))
        if any(d < 0 for d in diff):
            return None
        # t = (r_re / r.den) / (gc / g.den)
        t = MPoly._make(f.nvars, {diff: r.num[re] * g.den * (1 if gc > 0 else -1)},
                        r.den * abs(gc))
        quotient.append(t)
        r = r - t * g
    den = lcm(*(t.den for t in quotient))
    return MPoly._make(f.nvars, {e: c * (den // t.den) for t in quotient
                                 for e, c in t.num.items()}, den)


def exact_divide(f: MPoly, g: MPoly) -> MPoly:
    q = try_divide(f, g)
    if q is None:
        raise ArithmeticError("expected exact polynomial division")
    return q


# --- gcd ------------------------------------------------------------------

def _deg_in(p: MPoly, v: int) -> int:
    return max((e[v] for e in p.num), default=-1)


def _var_coeffs(p: MPoly, v: int) -> dict[int, MPoly]:
    """View p as univariate in v; coefficients keep the same ring."""
    buckets: dict[int, dict[tuple[int, ...], int]] = {}
    for e, c in p.num.items():
        buckets.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1:]] = c
    return {k: MPoly._make(p.nvars, t, p.den) for k, t in buckets.items()}


def _times_monomial(p: MPoly, m: Sequence[int]) -> MPoly:
    """p times x^m; an entry of m may be negative where every exponent
    of p covers it."""
    return MPoly._make(p.nvars, {tuple(map(add, e, m)): c for e, c in p.num.items()}, p.den)


def _prem(a: MPoly, b: MPoly, v: int) -> MPoly:
    db = _deg_in(b, v)
    lb = _var_coeffs(b, v)[db]
    r = a
    while not r.is_zero() and _deg_in(r, v) >= db:
        dr = _deg_in(r, v)
        lr = _var_coeffs(r, v)[dr]
        r = lb * r - _times_monomial(lr * b, [dr - db if i == v else 0 for i in range(a.nvars)])
    return r


def _monomial_content(p: MPoly) -> tuple[int, ...]:
    return tuple(min(e[i] for e in p.num) for i in range(p.nvars))


def _dense_divmod(num: dict[int, Fraction], den: dict[int, Fraction]
                  ) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """Quotient and remainder of univariate polynomials held as dense
    {exponent: coefficient} dicts over Q; den must be nonzero."""
    quo: dict[int, Fraction] = {}
    rem = dict(num)
    dd = max(den)
    lc = den[dd]
    while rem and max(rem) >= dd:
        dn = max(rem)
        c = rem[dn] / lc
        quo[dn - dd] = c
        for k, cv in den.items():
            key = k + dn - dd
            s = rem.get(key, Fraction(0)) - c * cv
            if s == 0:
                rem.pop(key, None)
            else:
                rem[key] = s
    return quo, rem


def _dense_gcd(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    """Monic gcd by Euclid over Q on dense coefficient dicts; a nonzero."""
    while b:
        a, b = b, _dense_divmod(a, b)[1]
    lc = a[max(a)]
    return {k: c / lc for k, c in a.items()}


def _int_primitive(p: MPoly) -> MPoly:
    # the numerators over their content: coprime integer coefficients,
    # which keep the pseudo-remainder sequence from blowing up bit sizes
    content = int_gcd(*p.num.values())
    return MPoly._make(p.nvars, {e: c // content for e, c in p.num.items()}, 1)


def _content_in(p: MPoly, v: int) -> MPoly:
    return _gcd_list([c for c in _var_coeffs(p, v).values()])


def _primitive_part(p: MPoly, v: int) -> MPoly:
    return exact_divide(p, _content_in(p, v))


def _gcd2(f: MPoly, g: MPoly) -> MPoly:
    if f.is_zero():
        return g.monic() if not g.is_zero() else g
    if g.is_zero():
        return f.monic()
    n = f.nvars
    mf, mg = _monomial_content(f), _monomial_content(g)
    f1 = _times_monomial(f, [-x for x in mf])
    g1 = _times_monomial(g, [-x for x in mg])
    mono = MPoly._make(n, {tuple(map(min, mf, mg)): 1}, 1)
    if f1.is_constant() or g1.is_constant():
        return mono
    if f1 == g1:
        return (mono * f1).monic()
    vars_f, vars_g = f1.variables(), g1.variables()
    if not (vars_f & vars_g):
        return mono
    v = max(vars_f | vars_g)
    df, dg = _deg_in(f1, v), _deg_in(g1, v)
    if df == 0:
        return (mono * _gcd2(f1, _content_in(g1, v))).monic()
    if dg == 0:
        return (mono * _gcd2(g1, _content_in(f1, v))).monic()
    cf, cg = _content_in(f1, v), _content_in(g1, v)
    a = _int_primitive(exact_divide(f1, cf))
    b = _int_primitive(exact_divide(g1, cg))
    if _deg_in(a, v) < _deg_in(b, v):
        a, b = b, a
    while True:
        if b.is_zero():
            head = _primitive_part(a, v)
            break
        if _deg_in(b, v) == 0:
            head = MPoly.one(n)
            break
        r = _prem(a, b, v)
        a, b = b, (_int_primitive(_primitive_part(r, v)) if not r.is_zero() else r)
    return (mono * _gcd2(cf, cg) * head).monic()


def _gcd_list(polys: Iterable[MPoly]) -> MPoly:
    acc: Optional[MPoly] = None
    for p in polys:
        if p.is_zero():
            continue
        acc = p if acc is None else _gcd2(acc, p)
        if acc.is_constant():
            break
    if acc is None:
        raise ValueError("gcd of all-zero input")
    return acc.monic()


def poly_gcd(polys: Sequence[MPoly]) -> MPoly:
    """Monic gcd of a family, with early exit once it is constant."""
    if not polys:
        raise ValueError("gcd of empty input")
    n = polys[0].nvars
    if any(p.nvars != n for p in polys):
        raise ValueError("variable count mismatch")
    g = _gcd_list(polys)
    return MPoly.one(n) if g.is_constant() else g


def _root_cells(h: dict[int, Fraction], lc: int) -> list[int]:
    """Ascending s such that the cell ((s - 1)/lc, s/lc] holds a real
    root of h, a squarefree polynomial of degree >= 1; lc > 0.

    Sturm (1829): with p_0 = h, p_1 = h' and p_(i+1) = -rem(p_(i-1), p_i)
    down to a nonzero constant (h is squarefree), and V(x) the sign
    changes of p_0(x), p_1(x), ... with zeros dropped, V(x) - V(y) is
    the number of distinct real roots in (x, y] for x < y.  Every root
    lies inside the Cauchy bound |t| < 1 + max_k |h_k / h_e|, so
    bisecting on the grid s/lc from -B to B, B = lc times that bound
    rounded up, and dropping cells that hold no root reaches every
    occupied cell after about log2(2B) rounds, with at most deg h cells
    alive per round.
    """
    seq = [h, {k - 1: k * c for k, c in h.items() if k}]
    while max(seq[-1]) > 0:
        seq.append({k: -c for k, c in _dense_divmod(seq[-2], seq[-1])[1].items()})
    # scale each member by a positive integer: signs, hence V, are kept
    dense = [_cleared([p.get(k, 0) for k in range(max(p) + 1)])[1][0] for p in seq]

    def variations(s: int) -> int:
        # sign of p(s/lc) is that of lc^deg(p) p(s/lc), an integer
        # evaluated by homogeneous Horner
        count, last = 0, 0
        for coeffs in dense:
            value, scale = 0, 1
            for c in reversed(coeffs):
                value = value * s + c * scale
                scale *= lc
            if value:
                if last and (value > 0) != (last > 0):
                    count += 1
                last = value
        return count

    e = max(h)
    cauchy = 1 + max((abs(c) for k, c in h.items() if k < e), default=0) / abs(h[e])
    bound = ceil(lc * cauchy)
    cells: list[int] = []
    stack = [(-bound, variations(-bound), bound, variations(bound))]
    while stack:
        a, va, b, vb = stack.pop()
        if va == vb:
            continue
        if b - a == 1:
            cells.append(b)
            continue
        mid = (a + b) // 2
        vm = variations(mid)
        stack.append((mid, vm, b, vb))
        stack.append((a, va, mid, vm))
    return cells


def rational_roots(coeffs: Sequence[Scalar]) -> dict[Fraction, int]:
    """Rational roots with multiplicity of f = sum coeffs[k] t^k.

    Roots outside Q are simply not reported; a root at 0 comes first,
    the others ascend.  Exact, with no divisor enumeration:

    - Clear denominators and content to a primitive integer f of degree
      d with leading coefficient lc > 0.  g(s) = lc^(d-1) f(s / lc) is
      monic with integer coefficients, and a rational root of a monic
      integer polynomial is an integer (rational root theorem).  So
      every rational root of f is s / lc for an integer s: it lies on
      the grid (1/lc) Z.
    - h = f / gcd(f, f') (Euclid over Q) has the roots of f, each simple.
    - Every real root of h lies in one cell ((s - 1)/lc, s/lc], found by
      exact Sturm isolation (``_root_cells``).  The only grid point in
      that cell is s / lc, so the candidates include every rational
      root of f, which gives completeness.  Working on f at the grid
      points, not on the coefficients of g, keeps the bisection depth
      at log2 of lc + max |f_k| rather than of lc^(d-1).
    - Each candidate is kept only when exact division of f by
      (t - s / lc) leaves remainder 0, repeated for the multiplicity, so
      every reported root is a verified one.

    The cost is O(d log B) Sturm sign evaluations, B the root bound,
    instead of a search over the divisors of the coefficients.
    """
    cs = [rat(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has no root set")
    roots: dict[Fraction, int] = {}
    shift = 0
    while cs[0] == 0:
        cs.pop(0)
        shift += 1
    if shift:
        roots[Fraction(0)] = shift
    if len(cs) == 1:
        return roots
    _, [ints] = _cleared(cs)
    content = int_gcd(*ints) * (1 if ints[-1] > 0 else -1)
    f = {k: Fraction(a // content) for k, a in enumerate(ints) if a}
    lc = ints[-1] // content
    h = _dense_divmod(f, _dense_gcd(f, {k - 1: k * c for k, c in f.items() if k}))[0]
    for s in _root_cells(h, lc):
        linear = {0: Fraction(-s, lc), 1: Fraction(1)}
        mult = 0
        quo, rem = _dense_divmod(f, linear)
        while not rem:
            mult += 1
            quo, rem = _dense_divmod(quo, linear)
        if mult:
            roots[Fraction(s, lc)] = mult
    return roots


# --- gradients on integer rows ---------------------------------------------

# per polynomial (nvars, degree, terms); a term is (its numerator over the
# polynomial's denominator, [(variable, exponent)], degree)
GradTable = list[tuple[int, int, list[tuple[int, list[tuple[int, int]], int]]]]


def gradient_table(polys: Sequence[MPoly]) -> GradTable:
    """The terms of each polynomial on its integer numerators, for gradient_rank."""
    return [(p.nvars, p.degree(), [(c, [(v, k) for v, k in enumerate(e) if k], sum(e))
                                   for e, c in p.num.items()])
            for p in polys]


def gradient_rank(table: GradTable, point: Sequence[Scalar],
                  direction: Optional[Sequence[Scalar]] = None) -> int:
    """Rank of the gradients grad f(point) of the table's polynomials f;
    given a direction xi, of grad f(point + a*xi) for a = 0, ..., deg f - 1.

    The shifted rows span what the gradients at the point of the shift
    members f_j span, f(x + a*xi) = sum_j a^j f_j(x).  The gradient in x
    of f(x + a*xi) is sum_j a^j grad f_j(x), a polynomial in a of degree
    at most deg f - 1, as f_(deg f) = f(xi) is constant.  Its values at
    deg f distinct a are the coefficients times an invertible Vandermonde
    matrix, so both sets of vectors span one space, and members that
    vanish identically add the zero gradient.  So the rank of a shift
    family's differentials needs no expansion and no solve.

    Rows are integer (_gradient_rank).  Write point = P / D and xi = X / D
    with P and X integer and D > 0, and f = g / q with g integer and q > 0.
    A term c x^e of g contributes c D^(deg f - deg e) grad x^e at P + a X,
    so the row is q D^(deg f - 1) grad f(point + a*xi): a positive multiple
    of the gradient, even when f is not homogeneous.
    """
    D, (P, X) = _cleared(point, () if direction is None else direction)
    if direction is not None and len(X) != len(P):
        raise ValueError("shift direction length mismatch")
    return _gradient_rank(table, P, None if direction is None else X, D)


def _gradient_rank(table: GradTable, P: Sequence[int], X: Optional[Sequence[int]],
                   D: int) -> int:
    """gradient_rank at P / D along X / D, or with no direction when X is None."""
    n = len(P)
    rows: list[list[int]] = []
    for nvars, deg, terms in table:
        if nvars != n:
            raise ValueError("point length mismatch")
        for a in range(deg if X is not None else 1):
            at = [p + a * x for p, x in zip(P, X)] if a else P
            row = [0] * n
            for c, supp, tdeg in terms:
                scale = c * D ** (deg - tdeg)
                for i, ei in supp:
                    v = scale * ei
                    for u, eu in supp:
                        k = eu - 1 if u == i else eu
                        if k:
                            v *= at[u] ** k
                    row[i] += v
            rows.append(row)
    return _rank_int(rows, n)


# --- determinants over the polynomial ring --------------------------------

def determinant(rows: Sequence[Sequence[MPoly]]) -> MPoly:
    """Exact determinant of a square MPoly matrix (fraction-free)."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty determinant")
    nvars = rows[0][0].nvars
    if any(len(r) != n for r in rows):
        raise ValueError("non-square matrix")
    a = [list(r) for r in rows]
    sign = 1
    prev = MPoly.one(nvars)
    zero = MPoly.zero(nvars)
    for k in range(n - 1):
        pivot = None
        for i in range(k, n):
            for j in range(k, n):
                if not a[i][j].is_zero():
                    cand = (len(a[i][j].num), i, j)
                    if pivot is None or cand < pivot:
                        pivot = cand
        if pivot is None:
            return MPoly.zero(nvars)
        _, pi, pj = pivot
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            sign = -sign
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        p = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = exact_divide(p * a[i][j] - a[i][k] * a[k][j], prev)
            a[i][k] = zero
        prev = p
    return a[n - 1][n - 1] if sign == 1 else -a[n - 1][n - 1]

