from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

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
    return bad


MALFORMED = ("integer_components", "scalar_1_over_0", "k_scalar", "k_negative", "exponent_1_5")


@pytest.mark.parametrize("shape", MALFORMED)
def test_curve_rejects_malformed_shape(curve11, shape):
    obj = serialize.curve_to_obj(curve11, (1, 1))
    serialize.curve_from_obj(obj)  # the unaltered record loads
    with pytest.raises(ValueError):
        serialize.curve_from_obj(malformed(obj, shape))


@pytest.mark.parametrize("shape", MALFORMED)
def test_cli_malformed_curve_exits_2(curve11, shape, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(malformed(serialize.curve_to_obj(curve11, (1, 1)), shape)))
    code = cli.main(["sample", str(path), "-n", "8", "--out", str(tmp_path / "pts.json")])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("invalid input: ") and len(err.splitlines()) == 1
    assert "Traceback" not in out + err
    assert not (tmp_path / "pts.json").exists()


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
