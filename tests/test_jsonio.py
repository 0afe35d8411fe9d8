"""Round-trip and format tests for the JSON encodings."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argshift.exactlin import MatQ, SubspaceQ
from argshift.jsonio import (algebra_from_json, algebra_to_json,
                             casimirs_from_json, casimirs_to_json, dumps,
                             matrix_from_json, matrix_to_json, poly_from_json,
                             poly_to_json, subspace_from_json,
                             subspace_to_json, vector_from_json,
                             vector_to_json)
from argshift.jsonio import algebra_table_from_json
from argshift.liealg import make_classical, make_vinberg, validate_table
from argshift.mpoly import MPoly
from argshift.poisson import classical_casimirs
from oracles import (fraction_algebra_from_json, fraction_algebra_table_from_json,
                     fraction_poly_from_json)

SL2 = make_classical("sl", 2)
X = [MPoly.variable(3, i) for i in range(3)]
CAS = X[1] * X[1] + 4 * X[0] * X[2]


def test_vector_strings():
    v = (Fraction(1, 2), Fraction(-3), Fraction(0))
    assert vector_to_json(v) == ["1/2", "-3", "0"]
    assert vector_from_json(["1/2", "-3", "0"]) == v


def test_unicode_minus_tolerated():
    # hand-written tables sometimes carry U+2212
    assert vector_from_json(["−2", "−1/3"]) == (Fraction(-2), Fraction(-1, 3))


def test_matrix_round_trip():
    M = MatQ([[0, Fraction(1, 3)], [Fraction(-1, 3), 0]])
    assert matrix_from_json(matrix_to_json(M)) == M
    with pytest.raises(ValueError):
        matrix_from_json([])


def test_poly_round_trip_and_shape():
    d = poly_to_json(CAS)
    assert d["nvars"] == 3
    assert {"coeff": "4", "exps": [1, 0, 1]} in d["terms"]
    assert poly_from_json(d) == CAS
    # duplicate exponent rows accumulate
    twice = {"nvars": 1, "terms": [{"coeff": "1", "exps": [2]},
                                   {"coeff": "1/2", "exps": [2]}]}
    assert poly_from_json(twice) == MPoly(1, {(2,): Fraction(3, 2)})
    with pytest.raises(ValueError):
        poly_from_json({"nvars": 2, "terms": [{"coeff": "1", "exps": [1]}]})
    # a missing terms key is a malformed file, not the zero polynomial
    with pytest.raises(ValueError):
        poly_from_json({"nvars": 3, "generators": []})
    assert poly_from_json({"nvars": 3, "terms": []}).is_zero()


def test_algebra_round_trip():
    d = algebra_to_json(SL2)
    assert d["dim"] == 3
    assert d["basis"] == ["e", "h", "f"]
    back = algebra_from_json(d)
    assert back == SL2
    assert back.meta == SL2.meta


def test_algebra_bracket_entry_shape():
    d = algebra_to_json(SL2)
    eh = [b for b in d["brackets"] if (b["i"], b["j"]) == (0, 1)]
    assert eh == [{"i": 0, "j": 1, "coeffs": {"0": "-2"}}]


def test_algebra_json_rejects_bad_table():
    bad = {"dim": 2, "basis": ["a", "b"],
           "brackets": [{"i": 0, "j": 0, "coeffs": {"1": "1"}}]}
    with pytest.raises(ValueError):
        algebra_from_json(bad)


def test_vinberg_meta_passthrough():
    V = make_vinberg([1, 2])
    back = algebra_from_json(algebra_to_json(V))
    assert back == V
    assert back.meta == V.meta


def test_casimirs_round_trip():
    cs = classical_casimirs("sl", 2)
    back = casimirs_from_json(casimirs_to_json(cs))
    assert back.generators == cs.generators
    assert back.degrees == cs.degrees
    assert back.independence_witness == cs.independence_witness


def test_subspace_round_trip():
    S = SubspaceQ.span([(1, 2, 3), (0, 1, 1)], 3)
    assert subspace_from_json(subspace_to_json(S)) == S


@pytest.mark.parametrize("parse, data", [
    (poly_from_json, {"nvars": 1, "terms": [[1]]}),
    (poly_from_json, {"nvars": 1, "terms": [{"exps": [1]}]}),
    (poly_from_json, {"nvars": 1, "terms": [{"exps": [1.5], "coeff": "1"}]}),
    (poly_from_json, {"nvars": 1, "terms": [{"exps": [1], "coeff": 0.5}]}),
    (vector_from_json, [[1]]),
    (matrix_from_json, [["1", None]]),
    (algebra_from_json, {"dim": 2, "brackets": [{"j": 1, "coeffs": {}}]}),
    (algebra_from_json, {"dim": 2, "meta": [1]}),
    (casimirs_from_json, {"generators": []}),
    (casimirs_from_json, {"nvars": 3, "generators": [], "degrees": [True]}),
    (subspace_from_json, {"basis": []}),
    (subspace_from_json, {"ambient": 2, "basis": "12"}),
    (matrix_from_json, [["1"], ["1", "2"]]),
    (vector_from_json, "12"),
    (casimirs_from_json, {"nvars": 1, "generators": [
        {"nvars": 1, "terms": [{"exps": [2], "coeff": "1"}]}], "degrees": [1]}),
    (casimirs_from_json, {"nvars": 1, "generators": [], "degrees": [2]}),
    (subspace_from_json, {"ambient": -2, "basis": []}),
    (algebra_from_json, {"dim": -1}),
])
def test_malformed_input_raises_value_error(parse, data):
    with pytest.raises(ValueError):
        parse(data)


def _poly(nvars, coeff="1", exps=(1,)):
    return {"nvars": nvars, "terms": [{"coeff": coeff, "exps": list(exps)}]}


@pytest.mark.parametrize("data, message", [
    ({"nvars": 2.5, "terms": []}, "nvars must be an integer, not 2.5"),
    ({"nvars": True, "terms": []}, "nvars must be an integer, not True"),
    (_poly(1, exps=[-1]), "bad exponent tuple (-1,) for nvars=1"),
    (_poly(2, exps=[1]), "bad exponent tuple (1,) for nvars=2"),
    (_poly(1, exps=[1.5]), "exponent must be an integer, not 1.5"),
    (_poly(1, coeff="1/0"), "cannot interpret '1/0' as a rational"),
    (_poly(1, coeff=None), "cannot interpret None as a rational"),
    (_poly(1, coeff=1.5), "cannot interpret 1.5 as a rational"),
    ({"nvars": -1, "terms": []}, "nvars must be a nonnegative integer, not -1"),
])
def test_poly_from_json_error_messages(data, message):
    with pytest.raises(ValueError) as err:
        poly_from_json(data)
    assert str(err.value) == message


@pytest.mark.parametrize("data, message", [
    ({"nvars": -2}, "nvars must be a nonnegative integer, not -2"),
    ({"nvars": 3, "generators": [_poly(4, exps=[1, 0, 0, 1])]},
     "generator 0 has nvars 4, but the Casimir file has nvars 3"),
    ({"nvars": 2, "generators": [_poly(2, exps=[2, 0]), _poly(1, exps=[2])]},
     "generator 1 has nvars 1, but the Casimir file has nvars 2"),
])
def test_casimirs_from_json_checks_nvars(data, message):
    with pytest.raises(ValueError) as err:
        casimirs_from_json(data)
    assert str(err.value) == message


def test_algebra_from_json_names_a_negative_dim():
    with pytest.raises(ValueError) as err:
        algebra_from_json({"dim": -1})
    assert str(err.value) == "dim must be a nonnegative integer, not -1"


def test_poly_from_json_drops_zero_sums():
    data = {"nvars": 2, "terms": [{"coeff": "1/2", "exps": [1, 0]},
                                  {"coeff": "-1/2", "exps": [1, 0]},
                                  {"coeff": "0", "exps": [0, 1]},
                                  {"coeff": "3", "exps": ["2", 0]}]}
    p = poly_from_json(data)
    assert p.terms == {(2, 0): Fraction(3)}
    assert all(isinstance(c, Fraction) for c in p.terms.values())
    assert p == MPoly(2, {(2, 0): 3})


def test_dumps_canonical():
    a = dumps({"b": 1, "a": [Fraction is None]})
    assert a.endswith("\n")
    assert dumps({"x": 1, "y": 2}) == dumps({"y": 2, "x": 1})


@pytest.mark.parametrize("parse, data, message", [
    # every coefficient is read before any index is checked against dim
    (algebra_from_json, {"dim": 2, "brackets": [{"i": 0, "j": 5, "coeffs": {"0": "1"}},
                                                {"i": 0, "j": 1, "coeffs": {"0": "1/0"}}]},
     "cannot interpret '1/0' as a rational"),
    (algebra_from_json, {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"7": "1"}},
                                                {"i": 0, "j": 1, "coeffs": {"0": "x"}}]},
     "Invalid literal for Fraction: 'x'"),
    (algebra_from_json, {"dim": 2, "brackets": [{"i": 0, "j": 0, "coeffs": {"1": "1"}},
                                                {"i": 0, "j": 1, "coeffs": {"0": None}}]},
     "cannot interpret None as a rational"),
    (algebra_from_json, {"dim": 2, "meta": 3,
                         "brackets": [{"i": 0, "j": 3, "coeffs": {"0": "1"}}]},
     "algebra meta must be an object"),
    (algebra_from_json, {"dim": 2, "basis": ["a"],
                         "brackets": [{"i": 0, "j": 3, "coeffs": {"0": "1"}}]},
     "bracket index (0,3) out of range"),
    # within a term the exponents come first; across terms, the earlier term
    (poly_from_json, {"nvars": 1, "terms": [{"coeff": "1/0", "exps": [-1]}]},
     "bad exponent tuple (-1,) for nvars=1"),
    (poly_from_json, {"nvars": 1, "terms": [{"coeff": "x", "exps": [1.5]}]},
     "exponent must be an integer, not 1.5"),
    (poly_from_json, {"nvars": 2, "terms": [{"coeff": "1/0", "exps": [1, 0]},
                                            {"coeff": "1", "exps": [1]}]},
     "cannot interpret '1/0' as a rational"),
    (poly_from_json, {"nvars": 2, "terms": [{"coeff": "1", "exps": [1]},
                                            {"coeff": "1/0", "exps": [1, 0]}]},
     "bad exponent tuple (1,) for nvars=2"),
])
def test_first_fault_is_reported_first(parse, data, message):
    with pytest.raises(ValueError) as err:
        parse(data)
    assert str(err.value) == message


# strings that take the reader's fast path, strings that Fraction reads
# or refuses after it, and values that are no rational string at all
ODD_COEFFS = ["2/4", "+3", " 5 ", "−1", "1.5", "1e2", "3/0", "3 / 4", "٣", "-0", "x"]
coeff = (st.sampled_from(ODD_COEFFS)
         | st.fractions(max_denominator=12).map(lambda q: f"{q.numerator}/{q.denominator}")
         | st.integers(-30, 30).map(str)
         | st.integers(-5, 5)
         | st.sampled_from([None, 1.5, True]))
exponent = st.integers(0, 3) | st.sampled_from([-1, "2", 1.5, False])


def same_outcome(old, new, data):
    """Both readers give equal values, or ValueErrors with one message."""
    try:
        want = old(data)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            new(data)
        assert str(err.value) == str(exc)
        return None
    got = new(data)
    assert got == want
    return got


@st.composite
def poly_files(draw):
    nvars = draw(st.integers(0, 3))
    exps = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars)
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        e = draw(exps if draw(st.integers(0, 9)) else st.lists(exponent, max_size=4))
        c = draw(coeff if draw(st.integers(0, 4)) else st.sampled_from(ODD_COEFFS))
        terms.append({"coeff": c, "exps": e})
        if draw(st.booleans()) and isinstance(c, str) and c[:1].isdigit():
            terms.append({"coeff": "-" + c, "exps": e})   # a duplicate that cancels
    return {"nvars": nvars, "terms": terms}


@settings(max_examples=80, deadline=None)
@given(poly_files())
def test_poly_reader_matches_the_fraction_reader(data):
    p = same_outcome(fraction_poly_from_json, poly_from_json, data)
    if p is not None:
        assert poly_from_json(poly_to_json(p)) == p


@st.composite
def algebra_files(draw):
    dim = draw(st.integers(0, 3))
    index = st.integers(-1, dim)
    brackets = []
    for _ in range(draw(st.integers(0, 5))):
        i, j = draw(index), draw(index)
        coeffs = draw(st.dictionaries(index.map(str), coeff, max_size=3))
        brackets.append({"i": i, "j": j, "coeffs": coeffs})
        if draw(st.booleans()):   # the flipped entry, consistent or not
            flip = {k: "-" + v if isinstance(v, str) and draw(st.booleans()) else v
                    for k, v in coeffs.items()}
            brackets.append({"i": j, "j": i, "coeffs": flip})
    return {"dim": dim, "basis": [f"b{k}" for k in range(dim)], "brackets": brackets}


def _validate_old(data):
    dim, basis, entries = fraction_algebra_table_from_json(data)
    return validate_table(dim, entries, basis).as_dict()


def _validate_new(data):
    dim, basis, entries, den = algebra_table_from_json(data)
    return validate_table(dim, entries, basis, den).as_dict()


@settings(max_examples=60, deadline=None)
@given(algebra_files())
def test_algebra_reader_matches_the_fraction_reader(data):
    L = same_outcome(fraction_algebra_from_json, algebra_from_json, data)
    if L is not None:
        assert algebra_from_json(algebra_to_json(L)) == L
    same_outcome(_validate_old, _validate_new, data)


def test_reader_refuses_rationals_too_long_to_print():
    # 10^100000000 would take minutes to build and could never be written
    for text in ("1e100000000", "-1e-100000000", "1" + "0" * 4300, "1e4300", "1/" + "9" * 4301):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            poly_from_json(_poly(1, coeff=text))
    assert poly_from_json(_poly(1, coeff="9" * 4300 + "/7")).den == 7
    assert poly_from_json(_poly(1, coeff="1e4299")).num == {(1,): 10 ** 4299}


json_text = st.text(st.characters(blacklist_categories=["Cs"]) | st.sampled_from('"\\\n\t\x00\x7fé€𝄞'))
json_scalar = (st.none() | st.booleans() | st.integers() | st.floats() | json_text)
json_tree = st.recursive(
    json_scalar,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(json_text, kids, max_size=4)
                  | st.dictionaries(st.integers() | st.floats() | st.booleans(), kids, max_size=3)),
    max_leaves=15)


@settings(max_examples=60, deadline=None)
@given(json_tree)
def test_dumps_matches_json_dumps(obj):
    try:
        want = json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    except TypeError as exc:
        with pytest.raises(TypeError) as err:
            dumps(obj)
        assert str(err.value) == str(exc)
        return
    assert dumps(obj) == want


class Name(str):
    pass


@pytest.mark.parametrize("obj", [
    "é\x00\"\\", Name("ü"), {}, [], (), {"a": {}, "b": [], "c": ()}, [True, 1, 0, False, None],
    {1: "x", True: "y", 2.5: "z", False: []}, [1.5, float("nan"), float("inf"), -0.0, 10 ** 30],
    {"\u2028": "\x7f", "": [[[]]]}])
def test_dumps_matches_json_dumps_on_edge_cases(obj):
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def test_dumps_reports_what_json_cannot_encode():
    for obj in ({"a": Fraction(1, 2)}, [{(1, 2): 3}], {None: 1, "a": 2}):
        with pytest.raises(TypeError) as want:
            json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)
        with pytest.raises(TypeError) as got:
            dumps(obj)
        assert str(got.value) == str(want.value)
