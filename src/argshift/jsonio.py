"""JSON encodings for the exact types.

Rationals travel as strings "p" or "p/q" (a unicode minus sign is
tolerated on input), vectors and matrices as nested arrays of such
strings, polynomials as {"nvars", "terms"} with explicit exponent
lists.  Emitters order terms and keys canonically so equal values
always serialize to identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Sequence

from .exactlin import MatQ, SubspaceQ, rat, rat_str
from .liealg import BracketEntry, LieAlgebraData
from .mfshift import ShiftFamily, ShiftMember
from .mpoly import MPoly, grlex_key
from .poisson import CasimirSet


def _field(data: Any, key: str, what: str) -> Any:
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"{what} must be an object with {key!r}")
    return data[key]


def _array(data: Any, what: str) -> list:
    if not isinstance(data, list):
        raise ValueError(f"{what} must be an array")
    return data


def _int(value: Any, what: str) -> int:
    # int() would truncate 2.5 to 2 and read true as 1
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{what} must be an integer, not {value!r}")


def _count(data: Any, key: str, what: str) -> int:
    value = _int(_field(data, key, what), key)
    if value < 0:
        raise ValueError(f"{key} must be a nonnegative integer, not {value}")
    return value


def _rat(value: Any) -> Fraction:
    try:
        return rat(value)
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot interpret {value!r} as a rational") from exc


def vector_to_json(v: Sequence[Fraction]) -> list[str]:
    return [rat_str(rat(x)) for x in v]


def vector_from_json(data: Sequence[Any]) -> tuple[Fraction, ...]:
    if not isinstance(data, (list, tuple)):
        raise ValueError("vector must be an array of rational strings")
    return tuple(_rat(x) for x in data)


def matrix_to_json(M: MatQ) -> list[list[str]]:
    return [vector_to_json(row) for row in M.to_lists()]


def matrix_from_json(data: Sequence[Sequence[Any]]) -> MatQ:
    if not isinstance(data, (list, tuple)) or not data:
        raise ValueError("matrix must be a nonempty array of rows")
    return MatQ([vector_from_json(row) for row in data])


def poly_to_json(p: MPoly) -> dict:
    terms = sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
    return {"nvars": p.nvars,
            "terms": [{"coeff": rat_str(c), "exps": list(e)} for e, c in terms]}


def poly_from_json(data: dict) -> MPoly:
    nvars = _count(data, "nvars", "polynomial")
    terms: dict[tuple[int, ...], Fraction] = {}
    for item in _array(_field(data, "terms", "polynomial"), "polynomial terms"):
        exps = tuple(_int(e, "exponent")
                     for e in _array(_field(item, "exps", "term"), "exponents"))
        if len(exps) != nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple {exps} for nvars={nvars}")
        terms[exps] = terms.get(exps, Fraction(0)) + _rat(_field(item, "coeff", "term"))
    return MPoly(nvars, terms)


def algebra_to_json(L: LieAlgebraData) -> dict:
    brackets = []
    for i, j, coeffs in L.table_entries():
        brackets.append({"i": i, "j": j,
                         "coeffs": {str(k): rat_str(c)
                                    for k, c in sorted(coeffs.items())}})
    out: dict[str, Any] = {"dim": L.dim, "basis": list(L.basis_names),
                           "brackets": brackets}
    if L.meta:
        out["meta"] = dict(L.meta)
    return out


def algebra_table_from_json(data: Any) -> tuple[int, list[str], list[BracketEntry]]:
    """Dimension, basis names and raw bracket entries, not yet validated."""
    dim = _count(data, "dim", "algebra")
    basis = [str(b) for b in _array(data.get("basis", [f"e{i + 1}" for i in range(dim)]),
                                    "basis")]
    entries = []
    for item in _array(data.get("brackets", []), "brackets"):
        if not isinstance(item, dict) or not isinstance(item.get("coeffs"), dict):
            raise ValueError("bracket must be an object with i, j and a coeffs object")
        coeffs = {_int(k, "bracket coefficient index"): _rat(v)
                  for k, v in item["coeffs"].items()}
        entries.append((_int(_field(item, "i", "bracket"), "i"),
                        _int(_field(item, "j", "bracket"), "j"), coeffs))
    return dim, basis, entries


def algebra_from_json(data: Any) -> LieAlgebraData:
    dim, basis, entries = algebra_table_from_json(data)
    meta = data.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValueError("algebra meta must be an object")
    return LieAlgebraData.from_table(dim, basis, entries, meta=meta)


def casimirs_to_json(cs: CasimirSet) -> dict:
    out: dict[str, Any] = {"nvars": cs.nvars,
                           "generators": [poly_to_json(p) for p in cs.generators],
                           "degrees": list(cs.degrees)}
    if cs.independence_witness is not None:
        out["independence_witness"] = vector_to_json(cs.independence_witness)
    return out


def casimirs_from_json(data: Any) -> CasimirSet:
    """Parse without re-verifying; CasimirSet.verified re-checks on demand."""
    nvars = _count(data, "nvars", "Casimir file")
    gens = tuple(poly_from_json(d)
                 for d in _array(data.get("generators", []), "Casimir generators"))
    for k, p in enumerate(gens):
        if p.nvars != nvars:
            raise ValueError(f"generator {k} has nvars {p.nvars}, but the Casimir file "
                             f"has nvars {nvars}")
    degrees = tuple(p.degree() for p in gens)
    if "degrees" in data:
        given = [_int(d, "degree") for d in _array(data["degrees"], "degrees")]
        if given != list(degrees):
            raise ValueError(f"degrees {given} do not match the generators' "
                             f"degrees {list(degrees)}")
    witness = None
    if data.get("independence_witness") is not None:
        witness = vector_from_json(data["independence_witness"])
    return CasimirSet(nvars, gens, degrees, witness)


def subspace_to_json(S: SubspaceQ) -> dict:
    return {"ambient": S.ambient_dim,
            "basis": [vector_to_json(row) for row in S.basis]}


def subspace_from_json(data: dict) -> SubspaceQ:
    ambient = _count(data, "ambient", "subspace")
    return SubspaceQ.span([vector_from_json(row)
                           for row in _array(data.get("basis", []), "subspace basis")],
                          ambient)


def family_to_json(fam: ShiftFamily) -> dict:
    return {"xi": vector_to_json(fam.xi),
            "generators": [poly_to_json(p) for p in fam.generators],
            "members": [{"generator": m.generator_index, "power": m.power,
                         "poly": poly_to_json(m.poly)}
                        for m in fam.members]}


def family_from_json(data: dict, algebra: LieAlgebraData) -> ShiftFamily:
    xi = vector_from_json(_field(data, "xi", "family"))
    gens = tuple(poly_from_json(d) for d in _array(data.get("generators", []), "generators"))
    members = tuple(ShiftMember(_int(_field(m, "generator", "member"), "generator"),
                                _int(_field(m, "power", "member"), "power"),
                                poly_from_json(_field(m, "poly", "member")))
                    for m in _array(data.get("members", []), "members"))
    return ShiftFamily(algebra, xi, gens, members)


def dumps(obj: Any) -> str:
    """Canonical rendering: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
