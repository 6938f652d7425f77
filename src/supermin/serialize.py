"""Deterministic JSON serialization for scalars, polynomials, and curves.

Every rational number travels as a "p/q" string (never a float), field
scalars as a fixed-order list of 16 such strings (8 real parts then 8
imaginary parts, one per radical in a frozen order), and floats -- which
only appear in diagnostic reports -- as strings with 17 significant
digits.  Key order is sorted everywhere, so identical data produces
byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .field import AlgScalar, MASK_ORDER
from .poly import Poly


def _frac_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def scalar_to_strings(c: AlgScalar) -> list[str]:
    """16 rational strings: real parts then imaginary parts, radical order."""
    out = []
    for m in MASK_ORDER:
        out.append(_frac_str(c.coeff(m)[0]))
    for m in MASK_ORDER:
        out.append(_frac_str(c.coeff(m)[1]))
    return out


def _require(ok: bool, message: str) -> None:
    """The input boundary: every malformed shape is a ValueError."""
    if not ok:
        raise ValueError(message)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _rational(s) -> Fraction:
    _require(isinstance(s, str), f"rational must be a 'p/q' string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational 'p/q' string: {s!r}") from None


def scalar_from_strings(parts) -> AlgScalar:
    _require(
        isinstance(parts, (list, tuple)) and len(parts) == 16,
        "scalar record must hold exactly 16 rational strings",
    )
    vals = [_rational(s) for s in parts]
    return AlgScalar({m: (vals[idx], vals[idx + 8]) for idx, m in enumerate(MASK_ORDER)})


def poly_to_obj(p: Poly) -> list:
    return [[e, scalar_to_strings(p.terms[e])] for e in sorted(p.terms)]


def poly_from_obj(obj) -> Poly:
    _require(isinstance(obj, list), "polynomial record must be a list of terms")
    terms = {}
    for rec in obj:
        _require(
            isinstance(rec, list) and len(rec) == 2,
            "polynomial term must be a pair [exponent, scalar]",
        )
        exp, parts = rec
        _require(_is_int(exp), f"polynomial exponent must be an integer, got {exp!r}")
        _require(exp >= 0, "polynomial exponents must be non-negative")
        _require(exp not in terms, f"duplicate exponent {exp} in polynomial record")
        terms[exp] = scalar_from_strings(parts)
    return Poly(terms)


def curve_to_obj(curve, k: tuple[int, int] | None = None) -> dict:
    obj = {
        "basis": "e",
        "components": [poly_to_obj(c) for c in curve],
    }
    if k is not None:
        obj["k"] = [int(k[0]), int(k[1])]
    return obj


def curve_from_obj(obj) -> tuple[tuple[Poly, ...], tuple[int, int] | None]:
    _require(
        isinstance(obj, dict) and obj.get("basis") == "e",
        "curve record must be an object with basis tag 'e'",
    )
    comps = obj.get("components")
    _require(
        isinstance(comps, list) and len(comps) == 7,
        "curve record must hold exactly 7 components",
    )
    curve = tuple(poly_from_obj(c) for c in comps)
    k = obj.get("k")
    if k is not None:
        _require(
            isinstance(k, list) and len(k) == 2 and all(_is_int(v) and v >= 1 for v in k),
            f"curve exponent tag must be a pair of integers >= 1, got {k!r}",
        )
        k = tuple(k)
    return curve, k


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def jsonable(value):
    """Recursively convert report values to JSON-safe, deterministic data."""
    if isinstance(value, AlgScalar):
        return repr(value)
    if isinstance(value, Fraction):
        return _frac_str(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, complex):
        return [format_float(value.real), format_float(value.imag)]
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {_key_str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return repr(value)


def _key_str(key) -> str:
    if isinstance(key, tuple):
        return ",".join(str(k) for k in key)
    return str(key)


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
