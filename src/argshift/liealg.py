"""Lie algebra tables over Q and constructors for the worked families.

Structure constants are stored once, sparsely, as integer numerators
over one denominator, keyed by (i, j) with i < j; the other half is
derived by antisymmetry, so antisymmetry holds by construction once a
raw table has been normalized.  Validation checks raw tables (diagonal,
antisymmetry consistency) and the Jacobi identity exactly, on the
integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .exactlin import MatQ, Scalar, SubspaceQ, _rank_int, _solve, annihilator, rat_str, vec
from .sampling import integer_coords, rng_stream

# (i, j, {k: c}): [b_i, b_j] = sum of c b_k, each c an int or a Fraction
BracketEntry = tuple[int, int, dict[int, Fraction]]


@dataclass
class ValidationReport:
    ok: bool
    kind: Optional[str] = None       # "diagonal" | "antisymmetry" | "jacobi"
    where: Optional[tuple] = None
    detail: str = ""

    def as_dict(self) -> dict:
        return {"ok": self.ok, "kind": self.kind,
                "where": list(self.where) if self.where else None,
                "detail": self.detail}


class LieAlgebraData:
    """Finite-dimensional Lie algebra given by exact structure constants.

    num maps each pair (i, j), i < j, with a nonzero bracket to the
    integer numerators {k: c} of [b_i, b_j] over one positive den in
    lowest terms; zero coefficients and empty pairs are dropped, so
    equal tables have equal (num, den).  The constructor clears the
    table of rationals (int or Fraction), divided by den, once; the
    table is never mutated after that.
    """

    __slots__ = ("dim", "basis_names", "num", "den", "meta")

    def __init__(self, dim: int, basis_names: Sequence[str],
                 table: dict[tuple[int, int], dict[int, Fraction]],
                 meta: Optional[dict] = None, den: int = 1):
        if len(basis_names) != dim:
            raise ValueError("basis name count does not match dimension")
        if len(set(basis_names)) != dim:
            raise ValueError("basis names must be unique")
        self.dim = dim
        self.basis_names = tuple(basis_names)
        d = lcm(*(c.denominator for coeffs in table.values() for c in coeffs.values()))
        num = {key: form for key, coeffs in table.items()
               if (form := {k: c.numerator * (d // c.denominator)
                            for k, c in coeffs.items() if c})}
        # over the lcm d the numerators are in lowest terms; den may not be
        if den > 1 and (g := gcd(den, *(c for form in num.values() for c in form.values()))) > 1:
            num = {key: {k: c // g for k, c in form.items()} for key, form in num.items()}
            den //= g
        self.num, self.den = num, d * den
        self.meta = dict(meta or {})

    @classmethod
    def from_table(cls, dim: int, basis_names: Sequence[str],
                   entries: Iterable[BracketEntry],
                   meta: Optional[dict] = None, den: int = 1) -> "LieAlgebraData":
        """Normalize a raw bracket table over den; raises on bad input.

        Jacobi is NOT checked here; run validate() for the full report.
        """
        table, report = _normalize_table(dim, list(entries))
        if not report.ok:
            raise ValueError(f"invalid bracket table: {report.detail}")
        return cls(dim, basis_names, table, meta, den)

    @classmethod
    def abelian(cls, dim: int, basis_names: Optional[Sequence[str]] = None) -> "LieAlgebraData":
        names = basis_names or [f"a{i + 1}" for i in range(dim)]
        return cls(dim, names, {}, {"constructor": "abelian"})

    def pairs(self) -> Iterable[tuple[int, int, dict[int, Fraction]]]:
        """Stored bracket entries (i < j, nonzero Fraction coefficient maps)."""
        for (i, j), form in self.num.items():
            yield i, j, {k: Fraction(c, self.den) for k, c in form.items()}

    def _form(self, i: int, j: int) -> dict[int, int]:
        """den [b_i, b_j] as integer coefficients, for any i and j."""
        if i <= j:
            return self.num.get((i, j), {})
        return {k: -c for k, c in self.num.get((j, i), {}).items()}

    def bracket_coeffs(self, i: int, j: int) -> dict[int, Fraction]:
        return {k: Fraction(c, self.den) for k, c in self._form(i, j).items()}

    def bracket_vectors(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> tuple[Fraction, ...]:
        """[x, y] for elements given in basis coordinates."""
        xv, yv = vec(x), vec(y)
        out = [Fraction(0)] * self.dim
        for i, j, coeffs in self.pairs():
            factor = xv[i] * yv[j] - xv[j] * yv[i]
            if factor:
                for k, c in coeffs.items():
                    out[k] += factor * c
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LieAlgebraData)
                and self.dim == other.dim
                and self.basis_names == other.basis_names
                and self.den == other.den and self.num == other.num)

    def __repr__(self) -> str:
        return f"LieAlgebraData(dim={self.dim}, basis={list(self.basis_names)})"


def _normalize_table(dim: int, entries: list[BracketEntry]
                     ) -> tuple[dict[tuple[int, int], dict[int, Fraction]], ValidationReport]:
    seen: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j, coeffs in entries:
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"bracket index ({i},{j}) out of range")
        clean = {}
        for k, c in coeffs.items():
            k = int(k)
            if not 0 <= k < dim:
                raise ValueError(f"bracket target index {k} out of range")
            if c:
                clean[k] = c
        if i == j:
            if clean:
                return {}, ValidationReport(False, "diagonal", (i, i),
                                            f"[b{i}, b{i}] must vanish")
            continue
        key, val = ((i, j), clean) if i < j else ((j, i), {k: -c for k, c in clean.items()})
        if key in seen and seen[key] != val:
            return {}, ValidationReport(False, "antisymmetry", key,
                                        f"entries for ({key[0]},{key[1]}) and its flip disagree")
        seen[key] = val
    return seen, ValidationReport(True)


def _jacobi_defect(L: LieAlgebraData, i: int, j: int, k: int) -> dict[int, int]:
    """den^2 [b_i, [b_j, b_k]] + cyclic, nonzero coefficients only."""
    acc: dict[int, int] = {}

    def add_nested(a: int, inner: dict[int, int]) -> None:
        for m, c in inner.items():
            for l, d in L._form(a, m).items():
                s = acc.get(l, 0) + c * d
                if s == 0:
                    acc.pop(l, None)
                else:
                    acc[l] = s

    add_nested(i, L._form(j, k))
    add_nested(j, L._form(k, i))
    add_nested(k, L._form(i, j))
    return acc


def validate(L: LieAlgebraData) -> ValidationReport:
    """Exact Jacobi check; antisymmetry holds by construction."""
    n = L.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                defect = _jacobi_defect(L, i, j, k)
                if defect:
                    l, c = next(iter(defect.items()))
                    names = L.basis_names
                    return ValidationReport(
                        False, "jacobi", (i, j, k),
                        f"Jacobi fails on ({names[i]}, {names[j]}, {names[k]}): "
                        f"coefficient of {names[l]} is {rat_str(Fraction(c, L.den ** 2))}")
    return ValidationReport(True)


def validate_table(dim: int, entries: Iterable[BracketEntry],
                   basis_names: Optional[Sequence[str]] = None,
                   den: int = 1) -> ValidationReport:
    """Validate a raw table over den: diagonal, antisymmetry, Jacobi."""
    names = basis_names or [f"b{i}" for i in range(dim)]
    table, report = _normalize_table(dim, list(entries))
    if not report.ok:
        return report
    return validate(LieAlgebraData(dim, names, table, den=den))


# --- matrix realizations ---------------------------------------------------

def _unit_matrix(n: int, i: int, j: int) -> MatQ:
    return MatQ._make(tuple(tuple(int((a, b) == (i, j)) for b in range(n)) for a in range(n)), n)


def algebra_from_matrices(names: Sequence[str], mats: Sequence[MatQ],
                          meta: Optional[dict] = None) -> LieAlgebraData:
    """Structure constants of a commutator-closed independent matrix family.

    With den the lcm of the matrices' denominators, A_k = den M_k are
    integer, and [A_i, A_j] = den^2 [M_i, M_j] = den sum c_k A_k: one
    solve on the integer columns A_k gives their rank and den c = x / D.
    """
    d = len(mats)
    if d == 0:
        raise ValueError("empty matrix basis")
    size = mats[0].rows
    if any(M.rows != size or M.cols != size for M in mats):
        raise ValueError("matrix sizes disagree")
    den = lcm(*(M.den for M in mats))
    flat = [[x * (den // M.den) for row in M.num for x in row] for M in mats]
    # the nonzero entries (row, column, value) of each A_k
    entries = [[(*divmod(t, size), x) for t, x in enumerate(A) if x] for A in flat]
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    rhs = []
    for i, j in pairs:
        # A_i A_j - A_j A_i, flattened row by row
        out = [0] * (size * size)
        for a, b, x in entries[i]:
            for c, e, y in entries[j]:
                if b == c:
                    out[a * size + e] += x * y
                if e == a:
                    out[c * size + b] -= x * y
        rhs.append(out)
    rank, D, xs = _solve(list(zip(*flat)), d, rhs)
    if rank != d:
        raise ValueError("matrix basis is linearly dependent")
    table = {}
    for (i, j), x in zip(pairs, xs):
        if x is None:
            raise ValueError(f"matrix family not closed under commutator at ({names[i]}, {names[j]})")
        table[(i, j)] = {k: c for k, c in enumerate(x) if c}
    return LieAlgebraData(d, names, table, meta, den * D)


def make_classical(family: str, n: int) -> LieAlgebraData:
    """gl(n), sl(n) (n >= 2), or so(n) (n >= 3) with fixed basis order.

    sl(n) order: strict upper E_ij by lex, then H_k = E_kk - E_(k+1)(k+1),
    then strict lower E_ij by lex.  For sl(2) the names are (e, h, f).
    """
    sep = "" if n < 10 else "_"
    meta = {"constructor": "classical", "family": family, "n": n}
    if family in ("gl", "sl"):
        if n < 2:
            raise ValueError(f"{family}(n) requires n >= 2")
        if family == "gl":
            names = [f"e{i + 1}{sep}{j + 1}" for i in range(n) for j in range(n)]
        elif n == 2:
            names = ["e", "h", "f"]
        else:
            names = [f"e{i + 1}{sep}{j + 1}" for i in range(n) for j in range(i + 1, n)]
            names += [f"h{k + 1}" for k in range(n - 1)]
            names += [f"f{i + 1}{sep}{j + 1}" for i in range(n) for j in range(i)]
        return algebra_from_matrices(names, classical_matrix_basis(family, n), meta)
    if family == "so":
        if n < 3:
            raise ValueError("so(n) requires n >= 3")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mats = [_unit_matrix(n, i, j) - _unit_matrix(n, j, i) for i, j in pairs]
        names = [f"r{i + 1}{sep}{j + 1}" for i, j in pairs]
        return algebra_from_matrices(names, mats, meta)
    raise ValueError(f"unsupported classical family {family!r}")


def classical_matrix_basis(family: str, n: int) -> list[MatQ]:
    """The matrix basis underlying make_classical, in the same order."""
    if family == "gl":
        return [_unit_matrix(n, i, j) for i in range(n) for j in range(n)]
    if family == "sl":
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        lower = [(i, j) for i in range(n) for j in range(i)]
        mats = [_unit_matrix(n, i, j) for i, j in upper]
        mats += [_unit_matrix(n, k, k) - _unit_matrix(n, k + 1, k + 1) for k in range(n - 1)]
        mats += [_unit_matrix(n, i, j) for i, j in lower]
        return mats
    raise ValueError(f"no matrix basis for family {family!r}")


# --- semidirect products ---------------------------------------------------

def make_semidirect(g: LieAlgebraData, rho: Sequence[MatQ],
                    vnames: Optional[Sequence[str]] = None) -> LieAlgebraData:
    """g acting on an abelian V through the exact representation rho.

    rho[i] is the action of basis vector i on V; the homomorphism
    property is checked exactly and a failing bracket is reported.
    """
    if len(rho) != g.dim:
        raise ValueError("need one action matrix per basis vector of g")
    dim_v = rho[0].rows
    if any(M.rows != dim_v or M.cols != dim_v for M in rho):
        raise ValueError("action matrices must be square of equal size")
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            got = rho[i] * rho[j] - rho[j] * rho[i]
            expected = MatQ.zeros(dim_v, dim_v)
            for k, c in g.bracket_coeffs(i, j).items():
                expected = expected + rho[k].scale(c)
            if got != expected:
                raise ValueError(
                    f"not a representation: commutator check fails at "
                    f"({g.basis_names[i]}, {g.basis_names[j]})")
    names = list(g.basis_names) + list(vnames or [f"v{a + 1}" for a in range(dim_v)])
    # g's numerators and every rho[i]'s over one den
    den = lcm(g.den, *(M.den for M in rho))
    f = den // g.den
    table = {key: {k: f * c for k, c in form.items()} for key, form in g.num.items()}
    for i, M in enumerate(rho):
        f = den // M.den
        for a, col in enumerate(zip(*M.num)):
            table[(i, g.dim + a)] = {g.dim + b: f * x for b, x in enumerate(col)}
    meta = {"constructor": "semidirect", "g_dim": g.dim, "v_dim": dim_v}
    return LieAlgebraData(g.dim + dim_v, names, table, meta, den)


def make_vinberg(eigenvalues: Sequence[Scalar]) -> LieAlgebraData:
    """One-dimensional torus acting diagonally on k^m with nonzero weights."""
    eigs = vec(eigenvalues)
    if not eigs:
        raise ValueError("need at least one eigenvalue")
    if any(e == 0 for e in eigs):
        raise ValueError("eigenvalues must be nonzero")
    m = len(eigs)
    names = ["s"] + [f"v{i + 1}" for i in range(m)]
    table = {(0, 1 + i): {1 + i: eigs[i]} for i in range(m)}
    meta = {"constructor": "vinberg", "eigenvalues": [rat_str(e) for e in eigs]}
    return LieAlgebraData(1 + m, names, table, meta)


def make_takiff(q: LieAlgebraData, n: int) -> LieAlgebraData:
    """Truncated current algebra with nilpotency degree n (levels 0..n).

    Basis is level-major: index l*dim + i carries basis vector i at
    level l; levels add under the bracket and overflow is truncated.
    make_takiff(q, 0) reproduces q with identical table and names.
    """
    if n < 0:
        raise ValueError("level bound must be nonnegative")
    d = q.dim
    total = (n + 1) * d
    names = [q.basis_names[i] if l == 0 else f"{q.basis_names[i]}.t{l}"
             for l in range(n + 1) for i in range(d)]
    table: dict[tuple[int, int], dict[int, int]] = {}
    for a in range(total):
        l, i = divmod(a, d)
        for b in range(a + 1, total):
            k, j = divmod(b, d)
            if l + k > n or i == j:
                continue
            form = q._form(i, j)
            if form:
                table[(a, b)] = {(l + k) * d + m: c for m, c in form.items()}
    meta = {"constructor": "takiff", "level": n, "base_dim": d}
    return LieAlgebraData(total, names, table, meta, q.den)


def make_z2_contraction(g: LieAlgebraData, parity: Sequence[int]) -> LieAlgebraData:
    """Degenerate the odd-odd brackets of a Z/2-graded table to zero.

    The grading is checked exactly: every structure constant must
    respect parity[i] + parity[j] = parity[k] mod 2, else the first
    offending bracket is reported.
    """
    if len(parity) != g.dim:
        raise ValueError("parity vector length mismatch")
    if any(p not in (0, 1) for p in parity):
        raise ValueError("parity entries must be 0 or 1")
    for (i, j), form in sorted(g.num.items()):
        for k in form:
            if parity[k] != (parity[i] + parity[j]) % 2:
                raise ValueError(
                    f"table is not graded: [{g.basis_names[i]}, {g.basis_names[j]}] "
                    f"hits {g.basis_names[k]} of wrong parity")
    table = {(i, j): form for (i, j), form in g.num.items()
             if not (parity[i] == 1 and parity[j] == 1)}
    out = LieAlgebraData(g.dim, g.basis_names, table,
                         {"constructor": "z2_contraction", "parity": list(parity)}, g.den)
    report = validate(out)
    if not report.ok:
        raise ArithmeticError(f"contraction lost the Jacobi identity: {report.detail}")
    return out


def make_sl2_so2_contraction() -> LieAlgebraData:
    """Contraction of sl(2) along the splitting fixed by x -> -x^T.

    In the basis t = e - f (fixed line), p = h, r = e + f the sl(2)
    table reads [t,p] = -2r, [t,r] = 2p, [p,r] = 2t; the contraction
    zeroes the last bracket since p, r are both odd.
    """
    base = LieAlgebraData.from_table(
        3, ["t", "p", "r"],
        [(0, 1, {2: -2}), (0, 2, {1: 2}), (1, 2, {0: 2})])
    return make_z2_contraction(base, [0, 1, 1])


def make_centralizer_sl(n: int, partition: Sequence[int]) -> LieAlgebraData:
    """Centralizer in sl(n) of the Jordan nilpotent with the given blocks."""
    parts = list(partition)
    if sum(parts) != n or any(p <= 0 for p in parts):
        raise ValueError("partition must consist of positive parts summing to n")
    # rows: entries of e*x - x*e (all a,b), then the trace row, where e
    # maps each basis vector to the one before it in its Jordan block
    heads = {sum(parts[:m]) for m in range(len(parts) + 1)}
    rows: list[list[int]] = []
    for a in range(n):
        for b in range(n):
            row = [0] * (n * n)
            if a + 1 not in heads:
                row[(a + 1) * n + b] = 1
            if b not in heads:
                row[a * n + b - 1] = -1
            rows.append(row)
    rows.append([int(a == b) for a in range(n) for b in range(n)])
    # each canonical kernel row over its pivot entry: the unit-lead basis
    kernel = annihilator(SubspaceQ(n * n, rows)).rows
    mats = [MatQ._make(tuple(tuple(v[i * n:(i + 1) * n]) for i in range(n)), n, v[c])
            for c, v in sorted(kernel.items())]
    names = [f"z{i + 1}" for i in range(len(mats))]
    meta = {"constructor": "centralizer_sl", "n": n, "partition": parts}
    return algebra_from_matrices(names, mats, meta)


# --- index profiles ---------------------------------------------------------

@dataclass
class AlgebraProfile:
    """Index data for an algebra, estimated by sampling or declared."""

    dim: int
    ind: int
    status: str = "declared"          # "declared" | "estimated"
    max_rank_seen: Optional[int] = None
    witness: Optional[tuple[Fraction, ...]] = None
    seed: Optional[int] = None
    trials: Optional[int] = None
    bound: Optional[int] = None

    @property
    def b_q(self) -> int:
        if (self.dim + self.ind) % 2 != 0:
            raise ArithmeticError("dim + ind is odd; no integral magic number")
        return (self.dim + self.ind) // 2

    @classmethod
    def declared(cls, dim: int, ind: int) -> "AlgebraProfile":
        return cls(dim=dim, ind=ind, status="declared")

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "ind": self.ind,
            "status": self.status,
            "b_q": (self.dim + self.ind) // 2 if (self.dim + self.ind) % 2 == 0 else None,
            "max_rank_seen": self.max_rank_seen,
            "witness": [rat_str(x) for x in self.witness] if self.witness else None,
            "seed": self.seed,
            "trials": self.trials,
            "bound": self.bound,
        }


def semidirect_index_report(g: LieAlgebraData, rho: Sequence[MatQ],
                            trials: int = 20, seed: int = 0, bound: int = 9) -> dict:
    """Index prediction dim V - dim g for g acting on abelian V.

    The formula applies only when some covector of V has an orbit of
    full dimension dim g; this is tested by sampling the rank of the
    infinitesimal orbit map.  When the sampled maximum falls short the
    report says the formula is not established instead of asserting it.
    """
    dim_g = len(rho)
    if dim_g != g.dim:
        raise ValueError("need one action matrix per basis vector of g")
    dim_v = rho[0].rows
    max_orbit = 0
    witness = None
    for t in range(trials):
        rng = rng_stream(seed, "semidirect-orbit", t)
        zeta = integer_coords(rng, dim_v, bound)
        # row i is zeta times rho[i], cleared of rho[i]'s denominator
        rows = [[sum(zeta[b] * act.num[b][a] for b in range(dim_v)) for a in range(dim_v)]
                for act in rho]
        r = _rank_int(rows, dim_v)
        if r > max_orbit:
            max_orbit, witness = r, zeta
        if max_orbit == dim_g:
            break
    applies = max_orbit == dim_g
    return {
        "dim_g": dim_g,
        "dim_v": dim_v,
        "max_orbit_dim_seen": max_orbit,
        "orbit_witness": [rat_str(x) for x in witness] if witness else None,
        "formula_applies": applies,
        "predicted_ind": dim_v - dim_g if applies else None,
        "note": ("generic orbit reaches dim g; index = dim V - dim g"
                 if applies else
                 "no sampled orbit reached dim g; formula not established"),
        "seed": seed,
        "trials": trials,
        "bound": bound,
    }
