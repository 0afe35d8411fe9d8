"""JSON encodings for the exact types.

Rationals travel as strings "p" or "p/q" (a unicode minus sign is
tolerated on input), vectors and matrices as nested arrays of such
strings, polynomials as {"nvars", "terms"} with explicit exponent
lists.  Readers and writers go between these strings and the integer
numerators over one denominator of the exact types, with no Fraction
between.  Emitters order terms and keys canonically so equal values
always serialize to identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring
from math import lcm
from typing import Any, Sequence

from .exactlin import MatQ, SubspaceQ, _rat_pair, _ratio_str, rat, rat_str
from .liealg import BracketEntry, LieAlgebraData
from .mfshift import ShiftFamily
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


def _ratio(value: Any) -> tuple[int, int]:
    """value as (p, q) in lowest terms, q > 0."""
    # a JSON true or false is an int to Python
    if isinstance(value, (str, int, Fraction)) and not isinstance(value, bool):
        return _rat_pair(value)
    raise ValueError(f"cannot interpret {value!r} as a rational")


def vector_to_json(v: Sequence[Fraction]) -> list[str]:
    return [rat_str(rat(x)) for x in v]


def _ratios(data: Sequence[Any]) -> list[tuple[int, int]]:
    if not isinstance(data, (list, tuple)):
        raise ValueError("vector must be an array of rational strings")
    return [_ratio(x) for x in data]


def vector_from_json(data: Sequence[Any]) -> tuple[Fraction, ...]:
    return tuple(Fraction(p, q) for p, q in _ratios(data))


def matrix_to_json(M: MatQ) -> list[list[str]]:
    return [[_ratio_str(x, M.den) for x in row] for row in M.num]


def matrix_from_json(data: Sequence[Sequence[Any]]) -> MatQ:
    if not isinstance(data, (list, tuple)) or not data:
        raise ValueError("matrix must be a nonempty array of rows")
    rows = [_ratios(row) for row in data]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    den = lcm(*(q for row in rows for _, q in row))
    return MatQ._make(tuple(tuple(p * (den // q) for p, q in row) for row in rows),
                      len(rows[0]), den)


def poly_to_json(p: MPoly) -> dict:
    terms = sorted(p.num.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
    return {"nvars": p.nvars,
            "terms": [{"coeff": _ratio_str(c, p.den), "exps": list(e)} for e, c in terms]}


def poly_from_json(data: dict) -> MPoly:
    nvars = _count(data, "nvars", "polynomial")
    rows = []
    for item in _array(_field(data, "terms", "polynomial"), "polynomial terms"):
        exps = _field(item, "exps", "term")
        # the usual file: a list of nvars nonnegative JSON ints
        if not (type(exps) is list and len(exps) == nvars
                and all(type(e) is int and e >= 0 for e in exps)):
            exps = [_int(e, "exponent") for e in _array(exps, "exponents")]
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {tuple(exps)} for nvars={nvars}")
        rows.append((tuple(exps), _ratio(_field(item, "coeff", "term"))))
    den = lcm(*(q for _, (_, q) in rows))
    num: dict[tuple[int, ...], int] = {}
    for e, (p, q) in rows:
        num[e] = num.get(e, 0) + p * (den // q)
    return MPoly._make(nvars, {e: c for e, c in num.items() if c}, den)


def algebra_to_json(L: LieAlgebraData) -> dict:
    brackets = [{"i": i, "j": j,
                 "coeffs": {str(k): _ratio_str(c, L.den) for k, c in sorted(form.items())}}
                for (i, j), form in sorted(L.num.items())]
    out: dict[str, Any] = {"dim": L.dim, "basis": list(L.basis_names),
                           "brackets": brackets}
    if L.meta:
        out["meta"] = dict(L.meta)
    return out


def algebra_table_from_json(data: Any) -> tuple[int, list[str], list[BracketEntry], int]:
    """Dimension, basis names, raw bracket entries of integer numerators
    and their common denominator, not yet validated."""
    dim = _count(data, "dim", "algebra")
    basis = ([str(b) for b in _array(data["basis"], "basis")] if "basis" in data
             else [f"e{i + 1}" for i in range(dim)])
    entries = []
    for item in _array(data.get("brackets", []), "brackets"):
        if not isinstance(item, dict) or not isinstance(item.get("coeffs"), dict):
            raise ValueError("bracket must be an object with i, j and a coeffs object")
        coeffs = {_int(k, "bracket coefficient index"): _ratio(v)
                  for k, v in item["coeffs"].items()}
        entries.append((_int(_field(item, "i", "bracket"), "i"),
                        _int(_field(item, "j", "bracket"), "j"), coeffs))
    den = lcm(*(q for _, _, coeffs in entries for _, q in coeffs.values()))
    return dim, basis, [(i, j, {k: p * (den // q) for k, (p, q) in coeffs.items()})
                        for i, j, coeffs in entries], den


def algebra_from_json(data: Any) -> LieAlgebraData:
    dim, basis, entries, den = algebra_table_from_json(data)
    meta = data.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValueError("algebra meta must be an object")
    return LieAlgebraData.from_table(dim, basis, entries, meta, den)


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
    # each canonical row over its positive pivot entry is the RREF row
    return {"ambient": S.ambient_dim,
            "basis": [[_ratio_str(x, row[c]) for x in row] for c, row in sorted(S.rows.items())]}


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


def dumps(obj: Any) -> str:
    """Canonical rendering: sorted keys, two-space indent, trailing newline.

    json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) plus a
    newline, in one pass: json skips its C encoder when indent is set.
    """
    return _text(obj, "\n") + "\n"


def _text(obj: Any, newline: str) -> str:
    """obj as JSON, its inner lines indented two spaces past newline;
    str and int members, most of a report, are written inline."""
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [encode_basestring(k if isinstance(k, str) else _key(k)) + ": "
                 + (encode_basestring(v) if type(v) is str
                    else str(v) if type(v) is int else _text(v, inner))
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [encode_basestring(v) if type(v) is str
                 else str(v) if type(v) is int else _text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    return json.dumps(obj, ensure_ascii=False)   # a scalar, or a TypeError naming its type


def _key(key: Any) -> str:
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
