from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supermin import catalog, cli, serialize
from supermin.field import AlgScalar
from supermin.poly import Poly


def random_scalar(rng):
    terms = {}
    for _ in range(3):
        m = rng.randrange(8)
        terms[m] = (
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        )
    return AlgScalar(terms)


def test_scalar_roundtrip():
    rng = random.Random(71)
    for _ in range(25):
        c = random_scalar(rng)
        parts = serialize.scalar_to_strings(c)
        assert len(parts) == 16
        assert serialize.scalar_from_strings(parts) == c


def test_scalar_strings_are_plain_rationals():
    c = AlgScalar.term(6, Fraction(-3, 4), Fraction(5))
    parts = serialize.scalar_to_strings(c)
    assert "-3/4" in parts and "5" in parts
    assert all("/" in p or p.lstrip("-").isdigit() for p in parts)


def test_scalar_record_length_checked():
    with pytest.raises(ValueError):
        serialize.scalar_from_strings(["0"] * 15)


def test_poly_roundtrip():
    rng = random.Random(73)
    p = Poly({e: random_scalar(rng) for e in (0, 2, 7)})
    obj = serialize.poly_to_obj(p)
    assert [rec[0] for rec in obj] == [0, 2, 7]
    assert serialize.poly_from_obj(obj) == p


def test_poly_rejects_bad_records():
    with pytest.raises(ValueError):
        serialize.poly_from_obj([[-1, ["0"] * 16]])
    with pytest.raises(ValueError):
        serialize.poly_from_obj([[2, ["0"] * 16], [2, ["1"] + ["0"] * 15]])


def test_curve_roundtrip(curve12):
    obj = serialize.curve_to_obj(curve12, (1, 2))
    back, k = serialize.curve_from_obj(obj)
    assert k == (1, 2)
    assert all((a - b).is_zero() for a, b in zip(back, curve12))


def test_curve_schema_validation():
    with pytest.raises(ValueError):
        serialize.curve_from_obj({"basis": "u", "components": []})
    with pytest.raises(ValueError):
        serialize.curve_from_obj({"basis": "e", "components": [[]] * 6})


def malformed(obj, shape):
    """A copy of a valid curve record with one field made malformed."""
    bad = json.loads(json.dumps(obj))
    if shape == "integer_components":
        bad["components"] = [1, 2, 3, 4, 5, 6, 7]
    elif shape == "scalar_1_over_0":
        bad["components"][0][0][1][0] = "1/0"
    elif shape == "k_scalar":
        bad["k"] = 5
    elif shape == "k_negative":
        bad["k"] = [0, -3]
    elif shape == "exponent_1_5":
        bad["components"][0][0][0] = 1.5
    elif shape in NOT_P_OVER_Q:
        bad["components"][0][0][1][0] = NOT_P_OVER_Q[shape]
    return bad


# strings fractions.Fraction parses although they are not ASCII "p/q"
NOT_P_OVER_Q = {
    "scalar_decimal": "1.5",
    "scalar_spaced_underscore": " 1_0 ",
    "scalar_non_ascii_digit": "\u0663",
    "scalar_exponent": "1e10000000",
}

MALFORMED = (
    "integer_components", "scalar_1_over_0", "k_scalar", "k_negative", "exponent_1_5",
    *NOT_P_OVER_Q,
)


@pytest.mark.parametrize("shape", MALFORMED)
def test_curve_rejects_malformed_shape(curve11, shape):
    obj = serialize.curve_to_obj(curve11, (1, 1))
    serialize.curve_from_obj(obj)  # the unaltered record loads
    with pytest.raises(ValueError):
        serialize.curve_from_obj(malformed(obj, shape))


def run_main(argv):
    """cli.main in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_usage_exit(code, out, err):
    assert code == 2
    assert err.startswith("invalid input: ") and len(err.splitlines()) == 1
    assert "Traceback" not in out + err


@pytest.mark.parametrize("shape", MALFORMED)
def test_cli_malformed_curve_exits_2(curve11, shape, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(malformed(serialize.curve_to_obj(curve11, (1, 1)), shape)))
    assert_clean_usage_exit(
        *run_main(["sample", str(path), "-n", "8", "--out", str(tmp_path / "pts.json")])
    )
    assert not (tmp_path / "pts.json").exists()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="CPython limits int string conversion from 3.11 on")
def test_cli_oversized_rational_names_the_digit_limit(curve11, tmp_path):
    """A 5000-digit numerator is past CPython's limit on converting strings
    to ints: one short line that names the limit and echoes a prefix."""
    obj = serialize.curve_to_obj(curve11, (1, 1))
    obj["components"][0][0][1][0] = "1" + "0" * 4999
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_main(["verify", str(path)])
    assert_clean_usage_exit(code, out, err)
    assert len(err.rstrip("\n")) < 300, len(err)
    assert str(sys.get_int_max_str_digits()) in err


def test_cli_deeply_nested_curve_exits_2(tmp_path):
    """The JSON parser gives up on deep nesting with a RecursionError; the
    loader reports it as malformed input, not as a failed run."""
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000)
    assert_clean_usage_exit(*run_main(["verify", str(path)]))


# Property tests of the input boundary: arbitrary JSON values and one-node
# mutations of a gen record either load as a curve or raise ValueError,
# and the command line turns every rejection into one line and exit 2.

GEN11 = serialize.curve_to_obj(catalog.example_family(1, 1), (1, 1))


def json_paths(obj, path=()):
    """The key path of every node of a JSON tree, the root's included."""
    yield path
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return
    for key, child in children:
        yield from json_paths(child, path + (key,))


rationals = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**12))
SCHEMA_WORDS = ("basis", "components", "k", "e", "0", "1/2", "-7/3", "1/0")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(SCHEMA_WORDS),
    lambda children: st.lists(children, max_size=8)
    | st.dictionaries(st.text() | st.sampled_from(SCHEMA_WORDS), children, max_size=4),
    max_leaves=24,
)


@st.composite
def gen_record_mutations(draw):
    """The (1, 1) gen record with one node replaced by a random JSON value,
    or by an exponent or a rational string, which may leave it valid."""
    path = draw(st.sampled_from(list(json_paths(GEN11))))
    value = draw(json_values | st.integers(0, 12) | rationals.map(str))
    if not path:
        return value
    record = json.loads(json.dumps(GEN11))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return record


curve_inputs = json_values | gen_record_mutations()


def rejected(obj) -> bool:
    try:
        serialize.curve_from_obj(obj)
    except ValueError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(curve_inputs)
def test_curve_from_obj_gives_a_curve_or_valueerror(obj):
    try:
        curve, _k = serialize.curve_from_obj(obj)
    except ValueError:
        return
    assert len(curve) == 7 and all(type(c) is Poly for c in curve)


@settings(max_examples=100, deadline=None)
@given(curve_inputs.filter(rejected))
def test_cli_rejects_malformed_input_in_one_line(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "fuzzed_curve.json"
    path.write_text(json.dumps(obj))
    assert_clean_usage_exit(*run_main(["verify", str(path)]))


sparse_scalars = st.dictionaries(
    st.integers(0, 7), st.tuples(rationals, rationals), max_size=3
).map(AlgScalar)
sparse_polys = st.dictionaries(st.integers(0, 60), sparse_scalars, max_size=4).map(Poly)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(sparse_polys, min_size=7, max_size=7).map(tuple),
    st.none() | st.tuples(st.integers(1, 9), st.integers(1, 9)),
)
def test_random_sparse_curves_round_trip(curve, k):
    text = serialize.dumps_canonical(serialize.curve_to_obj(curve, k))
    back, k_back = serialize.curve_from_obj(json.loads(text))
    assert back == curve
    assert k_back == k


def test_scalar_rejects_non_strings():
    with pytest.raises(ValueError):
        serialize.scalar_from_strings([0] * 16)
    with pytest.raises(ValueError):
        serialize.scalar_from_strings(["0.5"] * 15 + [None])


def test_gen_output_roundtrips_byte_for_byte(family_curves):
    for pair, curve in family_curves.items():
        text = serialize.dumps_canonical(serialize.curve_to_obj(curve, pair))
        back, k = serialize.curve_from_obj(json.loads(text))
        assert k == pair
        assert serialize.dumps_canonical(serialize.curve_to_obj(back, k)) == text, pair


def test_dumps_canonical_is_deterministic(curve11):
    a = serialize.dumps_canonical(serialize.curve_to_obj(curve11, (1, 1)))
    b = serialize.dumps_canonical(serialize.curve_to_obj(curve11, (1, 1)))
    assert a == b
    assert a.endswith("\n")
    json.loads(a)  # parses back


def test_format_float_17_digits():
    assert serialize.format_float(1.0) == "1"
    s = serialize.format_float(1 / 3)
    assert float(s) == 1 / 3
    assert len(s.replace("0.", "")) == 17


def test_jsonable_converts_everything():
    data = {
        (3, 4): AlgScalar.root(6),
        "f": Fraction(-2, 9),
        "x": 0.5,
        "z": 1 + 2j,
        "t": (True, None, 7),
    }
    out = serialize.jsonable(data)
    assert out["3,4"] == repr(AlgScalar.root(6))
    assert out["f"] == "-2/9"
    assert out["x"] == "0.5"
    assert out["z"] == ["1", "2"]
    assert out["t"] == [True, None, 7]
    json.dumps(out)
