"""Exact linear algebra over the rationals.

Matrices are dense and immutable integer rows over one denominator.
Three integer eliminations do one job each, and each entry is turned
into a Fraction once at the end:

- a rank with no basis (_rank_int) is fraction-free (Bareiss) forward
  elimination, _echelon;
- the rank and, on request, a kernel basis of a skew matrix given as
  its flat strict upper triangle (_skew_rank, _skew_kernel; rows enter
  checked, by _skew_triangle) come from fraction-free Pfaffian
  elimination by 2 x 2 pivots, about a quarter of Bareiss's updates;
- every other basis is a SubspaceQ: its canonical reduced echelon
  basis as primitive integer rows, grown one integer vector at a time,
  so equality of subspaces is equality of rows.  A vector is reduced
  by one combination over the lcm of the pivots it hits, not scaled
  by each of them in turn.

A kernel basis is read off the canonical rows of the matrix's row
space, one vector per free column, and only those vectors are reduced
to the kernel's canonical rows (annihilator, rank_kernel); a solve
reads the rank and integer solutions over one denominator off the
canonical rows of the augmented matrix (_solve; solve_many alone makes
Fractions).  The reduced row echelon basis over Q is a view for output.
Callers that already hold integer rows hand them to SubspaceQ or enter
at the private integer functions (_rank_int, _solve, and _skew_rank
and _skew_kernel on triangles), which skip the Fraction round trip.

_cleared is the one route from rationals (ints, Fractions, "p/q"
strings) into integer numerators over their least common denominator,
for every module, and _ratio_str the one way back out, as "p" or "p/q";
rat_str is _ratio_str on a Fraction.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, repeat
from math import gcd, lcm
from operator import add, mul
from typing import Any, Iterable, Optional, Sequence, Union

VecQ = tuple[Fraction, ...]

Scalar = Union[int, str, Fraction]


# the most digits an int may have and still be printed
_DIGITS = sys.get_int_max_str_digits() or 4300
_BOUND = 10 ** _DIGITS
_CANONICAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?").fullmatch
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z").search


def rat(value: Scalar) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(*_rat_pair(value))


def _rat_pair(value: Scalar) -> tuple[int, int]:
    """value as (p, q) in lowest terms, q > 0.

    "p" and "p/q" are read by int; other strings by Fraction, stripped
    and with the unicode minus sign read as "-".  A zero denominator is
    a ValueError, as any other malformed string is.  A value whose numerator
    or denominator would have more than _DIGITS digits is refused, and
    is not built when the string has more digits or an exponent past
    4 _DIGITS (10^e, or a denominator of at least 2^-e): building
    1e100000000 would take minutes.
    """
    if isinstance(value, str):
        n, _, d = value.partition("/")
        if _CANONICAL(value) and max(len(n), len(d)) <= _DIGITS and (q := int(d or 1)):
            g = gcd(p := int(n), q)
            return p // g, q // g
        text = value.strip().replace("−", "-")
        exp = _EXPONENT(text)
        if sum(map(str.isdigit, text)) <= _DIGITS and not (exp and abs(int(exp[1])) > 4 * _DIGITS):
            try:
                x = Fraction(text)
            except ZeroDivisionError:
                raise ValueError(f"cannot interpret {value!r} as a rational") from None
            if max(abs(x.numerator), x.denominator) < _BOUND:
                return x.numerator, x.denominator
        shown = value if len(value) <= 40 else value[:30] + "..."
        raise ValueError(f"cannot interpret {shown!r} as a rational: it would need "
                         f"more than {_DIGITS} digits")
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int):
        return int(value), 1
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(q: Fraction) -> str:
    """Render a Fraction as "p" or "p/q" with positive denominator."""
    return _ratio_str(q.numerator, q.denominator)


def _ratio_str(p: int, q: int) -> str:
    """The rational p/q, q > 0, as "p" or "p/q" in lowest terms."""
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def vec(values: Iterable[Scalar]) -> VecQ:
    return tuple(rat(v) for v in values)


def _cleared(*vectors: Iterable[Scalar]) -> tuple[int, list[list[int]]]:
    """The vectors' integer numerators over their least common positive
    denominator D (1 with no entries): the lcm of denominators in lowest
    terms leaves gcd(D, numerators) = 1."""
    qs = [[x if isinstance(x, (int, Fraction)) else rat(x) for x in v] for v in vectors]
    D = lcm(*(x.denominator for v in qs for x in v))
    return D, [[x.numerator * (D // x.denominator) for x in v] for v in qs]


class MatQ:
    """Immutable dense rational matrix: the integer row tuples num over
    one den > 0, in lowest terms, so equal matrices have equal (cols,
    den, num).  The constructor validates entries and clears their
    denominators; arithmetic results come from _make.  Entries, to_lists
    and matvec are Fraction views for output."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, entries: Sequence[Sequence[Scalar]], cols: Optional[int] = None):
        den, num = _cleared(*entries)
        ncols = len(num[0]) if num else cols or 0
        if any(len(row) != ncols for row in num):
            raise ValueError("ragged matrix")
        if cols not in (None, ncols):
            raise ValueError(f"rows of {ncols} entries for {cols} columns")
        self.num, self.den, self.rows, self.cols = tuple(map(tuple, num)), den, len(num), ncols

    @classmethod
    def _make(cls, num: tuple[tuple[int, ...], ...], cols: int, den: int = 1) -> "MatQ":
        """The matrix num / den, den > 0, brought to lowest terms."""
        if den != 1 and (g := gcd(den, *(x for row in num for x in row))) > 1:
            num, den = tuple(tuple(x // g for x in row) for row in num), den // g
        M = object.__new__(cls)
        M.num, M.den, M.rows, M.cols = num, den, len(num), cols
        return M

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "MatQ":
        return cls._make(((0,) * cols,) * rows, cols)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def to_lists(self) -> list[list[Fraction]]:
        return [[Fraction(x, self.den) for x in row] for row in self.num]

    def _columns(self) -> tuple[tuple[int, ...], ...]:
        # zip(*num) of no rows would lose the column count
        return tuple(zip(*self.num)) if self.rows else ((),) * self.cols

    def transpose(self) -> "MatQ":
        return MatQ._make(self._columns(), self.rows, self.den)

    def __add__(self, other: "MatQ") -> "MatQ":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return MatQ._make(tuple(tuple(s * a + t * b for a, b in zip(ra, rb))
                                for ra, rb in zip(self.num, other.num)), self.cols, den)

    def __sub__(self, other: "MatQ") -> "MatQ":
        return self + (-other)

    def __neg__(self) -> "MatQ":
        return MatQ._make(tuple(tuple(-x for x in row) for row in self.num), self.cols, self.den)

    def scale(self, c: Scalar) -> "MatQ":
        c = rat(c)
        return MatQ._make(tuple(tuple(c.numerator * x for x in row) for row in self.num),
                          self.cols, self.den * c.denominator)

    def __mul__(self, other: Union["MatQ", Scalar]) -> "MatQ":
        if isinstance(other, MatQ):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            bt = other._columns()
            return MatQ._make(tuple(tuple(sum(map(mul, row, col)) for col in bt)
                                    for row in self.num), other.cols, self.den * other.den)
        return self.scale(other)

    def __rmul__(self, other: Scalar) -> "MatQ":
        return self.scale(other)

    def matvec(self, v: Sequence[Scalar]) -> VecQ:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        d, [w] = _cleared(v)
        return tuple(Fraction(x, self.den * d) for x in _matvec(self.num, w))

    def is_skew(self) -> bool:
        """True iff M^T = -M, which makes the diagonal zero."""
        return self.rows == self.cols and not any(
            any(map(add, row, col)) for row, col in zip(self.num, self._columns()))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MatQ) and self.cols == other.cols
                and self.den == other.den and self.num == other.num)

    def __hash__(self) -> int:
        return hash((self.cols, self.den, self.num))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_str(x) for x in row) for row in self.to_lists())
        return f"MatQ[{self.rows}x{self.cols}]({body})"


def _matvec(rows: Sequence[Sequence[int]], v: Sequence[Union[int, Fraction]]) -> list:
    """rows times the vector v, for integer rows."""
    return [sum(map(mul, row, v)) for row in rows]


_ZERO = Fraction(0)


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _int_rows(rows: Iterable[Iterable[Scalar]]) -> list[list[int]]:
    # clear denominators and strip each row's integer content: each row
    # becomes a positive multiple of itself, which preserves row space,
    # rank and kernel
    return [_primitive(row) for row in _cleared(*rows)[1]]


def _echelon(work: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free (Bareiss) forward elimination of integer rows in place.

    Returns the pivot columns; row r of work holds pivot r afterwards.
    Rows are replaced, never written to, so work may share its rows.
    """
    m = len(work)
    pivots: list[int] = []
    piv_row = 0
    prev = 1
    for c in range(ncols):
        sel = next((r for r in range(piv_row, m) if work[r][c] != 0), None)
        if sel is None:
            continue
        work[piv_row], work[sel] = work[sel], work[piv_row]
        top = work[piv_row]
        p = top[c]
        for i in range(piv_row + 1, m):
            cur = work[i]
            q = cur[c]
            new_row = [0] * ncols
            for j in range(c + 1, ncols):
                x, rem = divmod(p * cur[j] - q * top[j], prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exact divisibility")
                new_row[j] = x
            work[i] = new_row
        pivots.append(c)
        piv_row += 1
        prev = p
        if piv_row == m:
            break
    return pivots


def _unit_lead(row: Sequence[int]) -> VecQ:
    """The rational vector on the line of a nonzero integer row whose
    leading entry is 1."""
    p = next(x for x in row if x)
    return tuple(Fraction(x, p) if x else _ZERO for x in row)


def _rank_int(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank of integer rows, which are left unchanged."""
    return len(_echelon(list(rows), ncols))


@lru_cache(maxsize=None)
def _triangle(m: int) -> tuple[list[int], list[int], list[int]]:
    """The strict upper triangle of an m x m matrix as a flat list in
    row-major order: where each row starts (and, last, the length), and
    the row and the column of every entry."""
    return ([k * m - k * (k + 1) // 2 for k in range(m + 1)],
            [k for k in range(m) for _ in range(k + 1, m)],
            [l for k in range(m) for l in range(k + 1, m)])


def _divide_exactly(values: Sequence[int], d: int) -> Sequence[int]:
    """values divided by d, each division checked exact."""
    if not values:
        return values
    quotients, rems = zip(*map(divmod, values, repeat(d)))
    if any(rems):
        raise ArithmeticError("fraction-free elimination lost exact divisibility")
    return quotients


def _skew_triangle(rows: Sequence[Sequence[int]]) -> list[int]:
    """The flat strict upper triangle of skew integer rows; others raise ArithmeticError."""
    n = len(rows)
    if any(len(row) != n for row in rows) or any(
            any(map(add, row, col)) for row, col in zip(rows, zip(*rows))):
        raise ArithmeticError("rows of a skew rank are not skew")
    return [x for k, row in enumerate(rows) for x in row[k + 1:]]


def _skew_rows(a: Sequence[int], n: int) -> list[list[int]]:
    """The rows of the n x n skew matrix whose strict upper triangle is a."""
    rows = [[0] * n for _ in range(n)]
    for x, i, j in zip(a, *_triangle(n)[1:]):
        rows[i][j], rows[j][i] = x, -x
    return rows


def _skew_rank(a: Sequence[int], n: int) -> int:
    """Rank of the n x n skew matrix of triangle a.  See _skew_eliminate."""
    return _skew_eliminate(a, n, False)[0]


def _skew_kernel(a: Sequence[int], n: int) -> tuple[int, list[list[int]]]:
    """Rank and a primitive integer kernel basis.  See _skew_eliminate."""
    return _skew_eliminate(a, n, True)


def _skew_eliminate(a: Sequence[int], n: int, track: bool) -> tuple[int, list[list[int]]]:
    """Fraction-free Pfaffian elimination of an n x n integer skew
    matrix given as its flat strict upper triangle: the rank and, when
    track is set, a kernel basis; a wrong length raises ArithmeticError.

    A nonzero entry p = a_ij, i < j, of the active block is a 2 x 2
    skew pivot: every remaining pair (k, l) becomes

        (p a_kl - a_ik a_jl + a_jk a_il) / prev,

    and rows and columns i and j leave the block.  Each entry is then
    the Pfaffian of the principal block on the pivots so far and
    {k, l}, so it divides exactly by prev, the previous pivot, by the
    Pfaffian form of Sylvester's identity (Knuth, "Overlapping
    Pfaffians", 1996).  The rank is twice the number of pivots.

    Every step is one pass over the block's triangle.  Rows above the
    pivot row are zero and leave with the pivot.

    Row k of the block is the combination T_k of the input rows, with
    T_k <- (p T_k - a_ik T_j + a_jk T_i) / prev at each step, exact by
    the same identity.  T_k is prev at input row k itself and zero off
    k and the pivots so far, so only its entries at the pivots are
    kept; a pivot step appends a_jk and -a_ik for the new pivots i, j.
    A row that leaves the block as zero has T_k M = 0 for the input
    matrix M, which is skew, so T_k is a kernel vector, independent of
    the others by its entry at k.
    """
    if len(a) != n * (n - 1) // 2:
        raise ArithmeticError(f"{len(a)} entries are no skew triangle of order {n}")
    m = n
    rank = 0
    prev = 1
    # with track: the input row of each block row, the input rows of the
    # pivots so far, T_k at those pivots, and the kernel found so far
    idx = list(range(n))
    piv: list[int] = []
    tk: list[Sequence[int]] = [[] for _ in range(n)]
    ker: list[list[int]] = []

    def leave(k: int) -> None:
        v = [0] * n
        v[idx[k]] = prev
        for q, x in zip(piv, tk[k]):
            v[q] = x
        ker.append(_primitive(v))

    while True:
        t = next(compress(count(), a), None)
        if t is None:
            if track:
                for k in range(m):
                    leave(k)
            return rank, ker
        # row k of the block is a[off[k]:off[k + 1]], columns k + 1 .. m - 1
        off = _triangle(m)[0]
        i = bisect_right(off, t) - 1
        c = t - off[i]
        j = i + 1 + c
        p = a[t]
        # a_ik and a_jk for the rows k that stay, i < k != j
        top = a[off[i]:off[i + 1]]
        ai = top[:c] + top[c + 1:]
        aj = [-a[off[k] + j - k - 1] for k in range(i + 1, j)]
        aj += a[off[j]:off[j + 1]]
        # a_kl of the pairs that stay, with column j cut out of rows k < j
        akl = []
        for k in range(i + 1, j):
            akl += a[off[k]:off[k] + j - k - 1]
            akl += a[off[k] + j - k:off[k + 1]]
        akl += a[off[j + 1]:]
        _, us, vs = _triangle(len(ai))
        a = [p * x - ai[u] * aj[v] + aj[u] * ai[v] for x, u, v in zip(akl, us, vs)]
        if prev != 1:
            a = _divide_exactly(a, prev)
        if track:
            for k in range(i):
                leave(k)
            # the rows that stay, one after the other, at the old pivots
            ti, tj = tk[i], tk[j]
            stay = [*range(i + 1, j), *range(j + 1, m)]
            flat = [p * x - u * y + w * z for k, u, w in zip(stay, ai, aj)
                    for x, y, z in zip(tk[k], tj, ti)]
            if prev != 1:
                flat = _divide_exactly(flat, prev)
            s = len(piv)
            tk = [[*flat[r * s:r * s + s], w, -u] for r, (u, w) in enumerate(zip(ai, aj))]
            piv += [idx[i], idx[j]]
            idx = [idx[k] for k in stay]
        m = len(ai)
        rank += 2
        prev = p


class SubspaceQ:
    """Linear subspace of Q^n, kept as its canonical integer echelon basis.

    rows maps each pivot column to a primitive integer row with a
    positive entry there and zero in every other pivot column.  That
    basis is canonical, so equal subspaces have equal rows.  The dict is
    in insertion order; basis is the read-only rational view in pivot
    order, each row scaled to a leading 1 (reduced row echelon form).
    add grows the subspace one integer vector at a time.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence[int]] = ()):
        """The span of integer vectors of length ambient_dim."""
        self.ambient_dim = ambient_dim
        self.rows: dict[int, list[int]] = {}
        for v in vectors:
            self.add(v)

    @classmethod
    def span(cls, vectors: Iterable[Sequence[Scalar]], ambient_dim: int) -> "SubspaceQ":
        rows = _int_rows(vectors)
        if any(len(row) != ambient_dim for row in rows):
            raise ValueError("vector length does not match ambient dimension")
        return cls(ambient_dim, rows)

    @classmethod
    def zero(cls, ambient_dim: int) -> "SubspaceQ":
        return cls(ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "SubspaceQ":
        return cls(ambient_dim, [[int(i == j) for j in range(ambient_dim)]
                                 for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[VecQ, ...]:
        return tuple(_unit_lead(self.rows[c]) for c in sorted(self.rows))

    def reduce(self, v: Sequence[int]) -> list[int]:
        """D v - sum (D / p_c) v[c] row_c over the rows hit, those whose
        pivot column c has v[c] != 0, D the lcm of their pivots p_c: zero
        in every pivot column, and zero exactly when v lies in the
        subspace.  Scaling v by each p_c in turn would multiply it by
        their product, far longer than D when the p_c share a large
        factor.  The scaling rides on the first hit's pass."""
        hits = [(x, row, row[pc]) for pc, row in self.rows.items() if (x := v[pc])]
        if not hits:
            return list(v)
        D = lcm(*(p for _, _, p in hits))
        (x, row, p), *rest = hits
        f = D // p * x
        v = [D * a - f * b for a, b in zip(v, row)]
        for x, row, p in rest:
            f = D // p * x
            v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, v: Sequence[int]) -> Optional[list[int]]:
        """Grow the subspace by the integer vector v: the new row when v
        was not in the subspace, None when it was."""
        v = self.reduce(v)
        pc = next((c for c, x in enumerate(v) if x), None)
        if pc is None:
            return None
        v = _primitive(v)
        if v[pc] < 0:
            v = [-x for x in v]
        p = v[pc]
        for c, row in self.rows.items():
            x = row[pc]
            if x:
                self.rows[c] = _primitive([p * a - x * b for a, b in zip(row, v)])
        self.rows[pc] = v
        return v

    def contains(self, v: Sequence[Scalar]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return not any(self.reduce(_cleared(v)[1][0]))

    def is_subspace_of(self, other: "SubspaceQ") -> bool:
        return not any(any(other.reduce(v)) for v in self.rows.values())

    def __add__(self, other: "SubspaceQ") -> "SubspaceQ":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return SubspaceQ(self.ambient_dim, [*self.rows.values(), *other.rows.values()])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SubspaceQ)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __repr__(self) -> str:
        rows = "; ".join("(" + ", ".join(rat_str(x) for x in v) + ")" for v in self.basis)
        return f"SubspaceQ(dim {self.dim} of Q^{self.ambient_dim}: {rows})"


def rank_kernel(M: MatQ) -> tuple[int, SubspaceQ]:
    """Exact rank and canonical kernel basis of M: the dimension of its
    row space and the annihilator of that row space.

    The kernel lives in Q^cols.  Skew input additionally asserts the
    even-rank invariant.  An empty matrix has rank 0 and full kernel.
    """
    row_space = SubspaceQ(M.cols, M.num)
    if row_space.dim % 2 != 0 and M.is_skew():
        raise ArithmeticError("skew matrix produced odd rank")
    return row_space.dim, annihilator(row_space)


def solve_many(M: MatQ, rhs_list: Sequence[Sequence[Scalar]]) -> list[Optional[VecQ]]:
    """Solutions of M x = b for several right-hand sides in one elimination."""
    # with B = N / d, M x = b is num y = den N, x = y / d
    d, nums = _cleared(*rhs_list)
    _, D, xs = _solve(M.num, M.cols, [[M.den * y for y in b] for b in nums])
    return [None if x is None else tuple(Fraction(y, D * d) for y in x) for x in xs]


def _solve(rows: Sequence[Sequence[int]], cols: int, rhs_list: Sequence[Sequence[int]]
           ) -> tuple[int, int, list[Optional[list[int]]]]:
    """rows x = b for integer rows and right-hand sides, in one elimination:
    (rank, D, xs), rank the number of pivots of the canonical rows of
    [rows | b ...] in the coefficient block and D their lcm (1 with none);
    each x in xs is an integer list, x / D the canonical solution, zero
    at the free columns, or None when b is inconsistent."""
    for b in rhs_list:
        if len(b) != len(rows):
            raise ValueError("shape mismatch")
    width = cols + len(rhs_list)
    # zip(*rhs_list) is empty with no right-hand side, whose rows still count
    bs = zip(*rhs_list) if rhs_list else repeat(())
    reduced = SubspaceQ(width, [[*row, *b] for row, b in zip(rows, bs)]).rows
    solved = [(pc, row) for pc, row in reduced.items() if pc < cols]
    D = lcm(*(row[pc] for pc, row in solved))
    scaled = [(pc, D // row[pc], row) for pc, row in solved]  # x[pc] = D row[col] / row[pc]
    # rows with a pivot past the coefficient block are zero on it; a
    # right-hand side is inconsistent iff one of them is nonzero in it
    rest = [row for pc, row in reduced.items() if pc >= cols]
    xs: list[Optional[list[int]]] = []
    for col in range(cols, width):
        if any(row[col] for row in rest):
            xs.append(None)
            continue
        x = [0] * cols
        for pc, f, row in scaled:
            x[pc] = f * row[col]
        xs.append(x)
    return len(solved), D, xs


def faddeev_leverrier(rows: Sequence[Sequence[Any]], one: Any) -> list:
    """Coefficients of det(tI - M), ascending in t, for a square M over
    any commutative ring that contains Q.

    Faddeev-LeVerrier: N_k = M (N_(k-1) + c_(q-k+1) I) from N_0 = 0, and
    c_(q-k) = -tr(N_k) / k.  The ring needs +, - and *, and a product
    with a Fraction for the division by k; `one` is its unit.  With the
    int 1 for `one` the ring is Z: every c_(q-k) of an integer M is an
    integer, so each division by k is exact, and it is checked.  Zero
    entries of M are skipped, so a sparse M costs its nonzero entries.
    """
    q = len(rows)
    zero = one - one
    nonzero = [[(l, x) for l, x in enumerate(row) if x != zero] for row in rows]
    coeffs = [one]
    prod = [[zero] * q for _ in range(q)]
    for k in range(1, q + 1):
        c = coeffs[-1]
        shifted = [[x + c if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(prod)]
        # the last step needs only the trace
        prod = [[sum((x * shifted[l][j] for l, x in nz), zero) if k < q or i == j else zero
                 for j in range(q)] for i, nz in enumerate(nonzero)]
        trace = sum((prod[i][i] for i in range(q)), zero)
        if type(one) is int:
            c, rem = divmod(trace, -k)
            if rem:
                raise ArithmeticError("integer Faddeev-LeVerrier lost exact divisibility")
        else:
            c = trace * Fraction(-1, k)
        coeffs.append(c)
    return coeffs[::-1]


def annihilator(U: SubspaceQ) -> SubspaceQ:
    """Vectors pairing to zero with U under the standard bilinear form.

    U's rows are already reduced, so a kernel basis is read off them
    with no elimination: the vector of the free column f is D at f and
    -row_c[f] D / p_c at each pivot c, where p_c is row c's pivot entry
    and D the lcm of the p_c with row_c[f] != 0.  It is zero at the
    other free columns, so these vectors, made primitive, are
    independent; the SubspaceQ they grow holds the canonical rows.
    """
    n = U.ambient_dim
    ker: list[list[int]] = []
    for f in range(n):
        if f in U.rows:
            continue
        hits = [(c, row[f], row[c]) for c, row in U.rows.items() if row[f]]
        den = lcm(*(p for _, _, p in hits))
        v = [0] * n
        v[f] = den
        for c, x, p in hits:
            v[c] = -x * (den // p)
        ker.append(_primitive(v))
    return SubspaceQ(n, ker)


def image(M: MatQ, U: SubspaceQ) -> SubspaceQ:
    """Span of M applied to a subspace of Q^cols, inside Q^rows."""
    if U.ambient_dim != M.cols:
        raise ValueError("ambient dimension mismatch")
    # num v = den M v spans the same subspace
    return SubspaceQ(M.rows, [_matvec(M.num, v) for v in U.rows.values()])
