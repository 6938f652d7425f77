from __future__ import annotations

import math
import operator
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supermin.field import (
    MASK_ORDER, RADICAL, AlgScalar, _settled, _SparsePoly, as_scalar, product_sum,
    products_vanish,
)
from supermin.poly import BiPoly, Poly


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def random_scalar(rng, size=4):
    """A random element with small rational coefficients on a few radicals."""
    terms = {}
    for _ in range(size):
        m = rng.choice(range(8))
        re = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        im = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        terms[m] = (re, im)
    return AlgScalar(terms)


def close(a: complex, b: complex, tol=1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_constants():
    assert AlgScalar.zero().is_zero()
    assert not AlgScalar.one().is_zero()
    assert complex(AlgScalar.one()) == 1
    assert complex(AlgScalar.i()) == 1j
    assert AlgScalar.rational(3, 4).as_fraction() == Fraction(3, 4)


def test_root_factors_out_squares():
    # root(n) must express sqrt(n) with the square part pulled out
    assert close(complex(AlgScalar.root(90)), math.sqrt(90))
    assert AlgScalar.root(90) == AlgScalar.term(10, 3)
    assert AlgScalar.root(4) == AlgScalar.rational(2)
    assert AlgScalar.root(1) == AlgScalar.one()
    for n in (2, 3, 5, 6, 10, 15, 30, 8, 12, 18, 45, 60, 360):
        assert close(complex(AlgScalar.root(n)), math.sqrt(n))


def test_root_rejects_unsupported_radicand():
    with pytest.raises(ValueError):
        AlgScalar.root(7)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**30), st.sampled_from(RADICAL))
def test_root_of_a_square_times_a_divisor_of_30(k, d):
    r = AlgScalar.root(k * k * d)
    assert r == AlgScalar.rational(k) * AlgScalar.root(d)
    assert r * r == AlgScalar.rational(k * k * d)
    with pytest.raises(ValueError):
        AlgScalar.root(7 * k * k * d)


def test_root_does_not_trial_divide():
    """6 (2^61 - 1)^2 has a prime factor near 2.3e18; trial division up to
    its square root would not finish."""
    code = ("from supermin.field import AlgScalar\n"
            "p = 2**61 - 1\n"
            "assert AlgScalar.root(6 * p * p) == AlgScalar.rational(p) * AlgScalar.root(6)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
    assert res.returncode == 0, res.stderr


def test_term_places_coefficients():
    c = AlgScalar.term(6, Fraction(1, 2), Fraction(-3))
    mask = RADICAL.index(6)
    assert c.coeff(mask) == (Fraction(1, 2), Fraction(-3))
    assert close(complex(c), (0.5 - 3j) * math.sqrt(6))


def test_mask_order_covers_all_components():
    assert sorted(MASK_ORDER) == list(range(8))
    assert len(RADICAL) == 8


# ---------------------------------------------------------------------------
# ring axioms, numerically cross-checked
# ---------------------------------------------------------------------------

def test_i_squares_to_minus_one():
    assert AlgScalar.i() * AlgScalar.i() == AlgScalar.rational(-1)


def test_radical_squares():
    for n in (2, 3, 5, 6, 10, 15, 30):
        assert AlgScalar.root(n) * AlgScalar.root(n) == AlgScalar.rational(n)


def test_radical_products_mix():
    # sqrt2 * sqrt3 = sqrt6, sqrt6 * sqrt10 = 2 sqrt15, and so on
    assert AlgScalar.root(2) * AlgScalar.root(3) == AlgScalar.root(6)
    assert AlgScalar.root(6) * AlgScalar.root(10) == AlgScalar.rational(2) * AlgScalar.root(15)
    assert AlgScalar.root(30) * AlgScalar.root(30) == AlgScalar.rational(30)
    assert AlgScalar.root(10) * AlgScalar.root(15) == AlgScalar.rational(5) * AlgScalar.root(6)


def test_arithmetic_matches_complex_embedding():
    rng = random.Random(7)
    for _ in range(40):
        a, b = random_scalar(rng), random_scalar(rng)
        assert close(complex(a + b), complex(a) + complex(b))
        assert close(complex(a - b), complex(a) - complex(b))
        assert close(complex(a * b), complex(a) * complex(b))


def test_distributivity_exact():
    rng = random.Random(11)
    for _ in range(20):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_mul_associative_exact():
    rng = random.Random(13)
    for _ in range(20):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_scalar_int_and_fraction_coercion():
    a = AlgScalar.root(3)
    assert 2 * a == a + a
    assert a * 2 == a + a
    assert a / 2 == AlgScalar.term(3, Fraction(1, 2))
    assert 1 - AlgScalar.one() == AlgScalar.zero()
    assert Fraction(1, 3) * a == AlgScalar.term(3, Fraction(1, 3))


def test_pow():
    a = AlgScalar.one() + AlgScalar.root(2)
    assert a**0 == AlgScalar.one()
    assert a**3 == a * a * a
    assert a**-2 == (a * a).inverse()


# ---------------------------------------------------------------------------
# conjugation and inversion
# ---------------------------------------------------------------------------

def test_conj_is_complex_conjugation():
    rng = random.Random(17)
    for _ in range(20):
        a = random_scalar(rng)
        assert close(complex(a.conj()), complex(a).conjugate())
        assert a.conj().conj() == a


def test_inverse_random():
    rng = random.Random(19)
    found = 0
    while found < 25:
        a = random_scalar(rng)
        if a.is_zero():
            continue
        found += 1
        assert a * a.inverse() == AlgScalar.one()
        assert a.inverse() * a == AlgScalar.one()


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        AlgScalar.zero().inverse()


def test_division():
    a = AlgScalar.root(6) + AlgScalar.i()
    b = AlgScalar.rational(2) - AlgScalar.root(5)
    assert (a / b) * b == a
    assert 1 / b == b.inverse()


def test_known_inverse():
    # 1/(1 + sqrt2) = sqrt2 - 1
    a = AlgScalar.one() + AlgScalar.root(2)
    assert a.inverse() == AlgScalar.root(2) - AlgScalar.one()


# ---------------------------------------------------------------------------
# rationality detection
# ---------------------------------------------------------------------------

def test_is_rational_and_as_fraction():
    assert AlgScalar.rational(22, 7).is_rational()
    assert AlgScalar.rational(22, 7).as_fraction() == Fraction(22, 7)
    assert not AlgScalar.root(2).is_rational()
    # "rational" means free of radicals; a Gaussian rational qualifies but
    # cannot be lowered to a Fraction
    assert AlgScalar.i().is_rational()
    with pytest.raises(ValueError):
        AlgScalar.i().as_fraction()
    with pytest.raises(ValueError):
        AlgScalar.root(2).as_fraction()


def test_equality_and_hash():
    a = AlgScalar.root(2) / 2
    b = AlgScalar.term(2, Fraction(1, 2))
    assert a == b
    assert hash(a) == hash(b)
    assert a != AlgScalar.root(2)


def test_radical_fold_matches_trial_division():
    # products fold radicals through the RADICAL[m1 & m2] table; root()
    # factors by trial division, so it is an independent oracle
    for a in range(8):
        for b in range(8):
            want = AlgScalar.root(RADICAL[a] * RADICAL[b])
            assert AlgScalar.term(RADICAL[a], 1) * AlgScalar.term(RADICAL[b], 1) == want
            assert AlgScalar.term(RADICAL[a], 0, 1) * AlgScalar.term(RADICAL[b], 0, 1) == -want


# ---------------------------------------------------------------------------
# the product fold for zero and equality tests, against BiPoly arithmetic
# ---------------------------------------------------------------------------

_fold_part = st.builds(Fraction, st.integers(-9, 9) | st.integers(-2**70, 2**70),
                       st.sampled_from([1, 2, 3, 7, 10**20]))
# several masks per monomial, mixed denominators
_fold_scalar = st.dictionaries(
    st.integers(0, 7), st.tuples(_fold_part, _fold_part), min_size=1, max_size=4
).map(AlgScalar)
_exponent = st.integers(0, 2) | st.integers(2**64, 2**64 + 2)
_fold_bipoly = st.dictionaries(
    st.tuples(_exponent, _exponent), _fold_scalar, max_size=4
).map(BiPoly)
_signed = st.tuples(st.sampled_from((1, -1)), _fold_bipoly, _fold_bipoly)


@st.composite
def product_terms(draw):
    """(terms, cancels): signed products, and when ``cancels`` each one
    again with the sign flipped and the factors swapped, shuffled in."""
    terms = draw(st.lists(_signed, min_size=1, max_size=4))
    cancels = draw(st.booleans())
    if cancels:
        terms = draw(st.permutations(terms + [(-sign, y, x) for sign, x, y in terms]))
    return terms, cancels


def built(terms) -> BiPoly:
    """The sum of sign * x * y by BiPoly ``*``, ``+`` and ``-``."""
    acc = BiPoly()
    for sign, x, y in terms:
        acc = acc + x * y if sign > 0 else acc - x * y
    return acc


@settings(max_examples=100, deadline=None)
@given(product_terms())
def test_product_fold_matches_bipoly_arithmetic(case):
    terms, cancels = case
    want = built(terms)
    got = product_sum(terms)
    assert type(got) is BiPoly
    assert dict(got._num) == dict(want._num) and got._den == want._den
    assert products_vanish(terms) == want.is_zero()
    if cancels:
        assert want.is_zero()


@settings(max_examples=50, deadline=None)
@given(_fold_bipoly.filter(bool), _fold_bipoly.filter(bool), st.data())
def test_product_fold_sees_one_numerator_moved_by_one(x, y, data):
    """Negative control: x*y - x*y vanishes, and stops vanishing when one
    numerator part of the first x is moved by 1."""
    assert products_vanish([(1, x, y), (-1, x, y)])
    key = data.draw(st.sampled_from(sorted(x._num, key=repr)))
    re, im = x._num[key]
    num = dict(x._num)
    num[key] = (re + 1, im) if data.draw(st.booleans()) else (re, im + 1)
    moved = BiPoly._of(_settled(num), x._den)
    terms = [(1, moved, y), (-1, x, y)]
    assert not products_vanish(terms)
    assert product_sum(terms) == built(terms) != BiPoly()


# ---------------------------------------------------------------------------
# the ring core: one set of operators behind one coercion hook
# ---------------------------------------------------------------------------

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__",
             "__mul__", "__rmul__", "__eq__", "__hash__")


def test_operators_are_defined_once():
    """Scalars and polynomials take every operator from the ring core,
    which reads the other operand through ``_coerce``; ``coeff`` has one
    meaning, AlgScalar's ``coeff(mask)``, and the core has none."""
    for cls in (AlgScalar, Poly, BiPoly):
        for name in OPERATORS:
            assert getattr(cls, name) is getattr(_SparsePoly, name), f"{cls.__name__}.{name}"
    assert not any(hasattr(cls, "coeff") for cls in (_SparsePoly, Poly, BiPoly))


def same(x, y) -> bool:
    """Equal values with their entries in the same order, which is what
    float conversions read."""
    return (type(x) is type(y) and x._den == y._den
            and list(x._num.items()) == list(y._num.items()))


_plain = st.integers(-9, 9) | st.integers(-2**70, 2**70) | _fold_part
_any_scalar = st.dictionaries(
    st.integers(0, 7), st.tuples(_fold_part, _fold_part), max_size=4
).map(AlgScalar)
_poly = st.dictionaries(st.integers(0, 4) | st.integers(2**64, 2**64 + 2),
                        _any_scalar, max_size=4).map(Poly)


@settings(max_examples=100, deadline=None)
@given(_poly, _plain | _any_scalar)
def test_a_scalar_times_a_poly_from_either_side(p, c):
    assert same(c * p, p * c)


@settings(max_examples=100, deadline=None)
@given(_any_scalar, _plain)
def test_ints_and_fractions_meet_a_scalar_as_scalars(a, x):
    s = as_scalar(x)
    for op in (operator.add, operator.sub, operator.mul):
        assert same(op(a, x), op(a, s)), op
        assert same(op(x, a), op(s, a)), op


def per_mask_complex(x: AlgScalar) -> complex:
    """The float value of a scalar formed mask by mask, each part divided
    by the denominator before its radical is applied."""
    out = 0j
    for (_, m), (re, im) in x._num.items():
        r = math.sqrt(RADICAL[m])
        out += complex(re / x._den * r, im / x._den * r)
    return out


def float_bits(z: complex) -> tuple[str, str]:
    """The exact real and imaginary parts, signed zeros told apart."""
    return z.real.hex(), z.imag.hex()


# parts from 2^-60 to 10^100 in size; zero parts, and zero scalars, for signed zeros
_wide_part = st.just(Fraction(0)) | st.builds(
    Fraction, st.integers(-10**100, 10**100), st.integers(1, 2**60))
_wide_scalar = st.dictionaries(
    st.integers(0, 7), st.tuples(_wide_part, _wide_part), min_size=1, max_size=8
).map(AlgScalar)


@settings(max_examples=300, deadline=None)
@given(_wide_scalar)
def test_complex_is_the_per_mask_sum_bit_for_bit(x):
    """``complex`` reads ``float_terms``, which scales by an exact 2^-k
    first, and gives the bits of the unscaled per-mask formula."""
    assert float_bits(complex(x)) == float_bits(per_mask_complex(x))

