from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermin.field import AlgScalar
from supermin.poly import BiPoly, Poly, RationalFn, poly_divmod, poly_gcd


def rand_poly(rng, deg=5, density=0.7):
    terms = {}
    for e in range(deg + 1):
        if rng.random() < density:
            terms[e] = AlgScalar.rational(rng.randint(-4, 4)) + AlgScalar.term(
                2, Fraction(rng.randint(-2, 2))
            )
    return Poly({e: c for e, c in terms.items() if c})


def close(a, b, tol=1e-10):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Poly basics
# ---------------------------------------------------------------------------

def test_zero_poly_degree_and_ord():
    z = Poly()
    assert z.is_zero()
    assert z.degree() == -1
    p = Poly.monomial(3) + Poly.monomial(5)
    assert p.degree() == 5
    assert p.ord() == 3


def test_eval_matches_term_sum():
    rng = random.Random(3)
    p = rand_poly(rng)
    for z in (0.3 + 0.4j, -1.25j, 2.0):
        direct = sum(complex(c) * z**e for e, c in p.terms.items())
        assert close(p(z), direct)


def test_diff_product_rule():
    rng = random.Random(5)
    for _ in range(10):
        p, q = rand_poly(rng), rand_poly(rng)
        assert (p * q).diff() == p.diff() * q + p * q.diff()


def test_scale_arg():
    p = Poly.monomial(2) + Poly.const(3)
    r = AlgScalar.rational(5)
    q = p.scale_arg(r)
    # q(z) = p(5z)
    assert q == Poly.monomial(2, 25) + Poly.const(3)


def test_reverse_swaps_ends():
    p = Poly.monomial(0, 1) + Poly.monomial(3, 2)
    rev = p.reverse(3)
    assert rev == Poly.monomial(3, 1) + Poly.monomial(0, 2)
    # reversing twice with the same total is the identity
    assert rev.reverse(3) == p


def test_poly_divmod_and_gcd():
    rng = random.Random(7)
    g = Poly.monomial(1) + Poly.const(1)
    a = rand_poly(rng, deg=3) * g
    b = rand_poly(rng, deg=2) * g
    if a.is_zero() or b.is_zero():
        pytest.skip("degenerate random draw")
    q, r = poly_divmod(a, b)
    assert b * q + r == a
    assert r.is_zero() or r.degree() < b.degree()
    d = poly_gcd(a, b)
    # gcd is monic and divisible by the common factor
    _, r1 = poly_divmod(d, g)
    assert r1.is_zero()
    assert d.terms[d.degree()] == AlgScalar.one()


# ---------------------------------------------------------------------------
# BiPoly
# ---------------------------------------------------------------------------

def test_conj_factor_against_values():
    rng = random.Random(9)
    p = rand_poly(rng)
    bp = p.conj_factor()
    for z in (0.7 - 0.2j, 1.1 + 0.3j):
        assert close(bp(z), complex(p(z)).conjugate())


def test_bipoly_product_and_conj():
    rng = random.Random(11)
    p, q = rand_poly(rng), rand_poly(rng)
    h = p.to_bipoly() * q.conj_factor()
    for z in (0.5 + 0.5j, -0.8 + 0.1j):
        assert close(h(z), p(z) * complex(q(z)).conjugate())
    # conj swaps the two variable roles
    assert h.conj() == q.to_bipoly() * p.conj_factor()


def test_bipoly_reverse_against_values():
    rng = random.Random(13)
    p, q = rand_poly(rng), rand_poly(rng)
    h = p.to_bipoly() * q.conj_factor()
    rev = h.reverse(7)  # z^7 zbar^7 h(1/z, 1/zbar)
    for w in (0.5 + 0.5j, -0.8 + 0.1j):
        assert close(rev(w), w**7 * w.conjugate() ** 7 * h(1 / w))
    assert rev.reverse(7) == h
    with pytest.raises(ValueError):
        h.reverse(max(max(k) for k in h.terms) - 1)


def test_bipoly_derivatives():
    p = Poly.monomial(2)
    h = p.to_bipoly() * p.conj_factor()  # z^2 zbar^2
    dz = h.diff_z()
    dzbar = h.diff_zbar()
    z = 0.6 + 0.3j
    assert close(dz(z), 2 * z * z.conjugate() ** 2)
    assert close(dzbar(z), 2 * z**2 * z.conjugate())


def test_bipoly_content_and_shift():
    p = Poly.monomial(2) + Poly.monomial(4)
    h = p.to_bipoly() * p.conj_factor()
    assert h.content() == (2, 2)
    down = h.shift_down(2, 2)
    assert down.content() == (0, 0)
    z = 0.9 - 0.4j
    assert close(down(z) * abs(z) ** 4, h(z))


@pytest.mark.parametrize(
    "op", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"]
)
def test_poly_and_bipoly_never_mix(op):
    """Poly and BiPoly share their ring code but stay two rings: an
    operation keeps the class of its operands and refuses a mixed pair."""
    p = Poly.monomial(1) + Poly.const(1)
    h = p.to_bipoly() * p.conj_factor()
    assert type(op(p, p)) is Poly
    assert type(op(h, h)) is BiPoly
    with pytest.raises(TypeError):
        op(p, h)
    with pytest.raises(TypeError):
        op(h, p)
    assert (Poly.const(1) == BiPoly.const(1)) is False
    with pytest.raises(TypeError):
        hash(RationalFn(h, p.to_bipoly()))


# ---------------------------------------------------------------------------
# RationalFn
# ---------------------------------------------------------------------------

def test_rationalfn_cross_multiplied_equality():
    p = Poly.monomial(1) + Poly.const(1)
    num = p.to_bipoly() * p.conj_factor()
    den = p.to_bipoly()
    a = RationalFn(num, den)
    b = RationalFn(p.conj_factor(), BiPoly.one())
    assert a == b


def test_rationalfn_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFn(BiPoly.one(), BiPoly())


def test_constant_value():
    p = Poly.monomial(3) + Poly.const(2)
    h = p.to_bipoly() * p.conj_factor()
    two_h = h + h
    assert RationalFn(two_h, h).constant_value() == AlgScalar.rational(2)
    with pytest.raises(ValueError):
        RationalFn(p.to_bipoly(), BiPoly.one()).constant_value()


def test_rationalfn_evaluate():
    p = Poly.monomial(2) + Poly.const(1)
    f = RationalFn(p.to_bipoly(), BiPoly.const(AlgScalar.rational(2)))
    z = 1.5 + 0.5j
    assert close(f(z), (z**2 + 1) / 2)


# ---------------------------------------------------------------------------
# The integer core against a reference on {key: AlgScalar} dicts
# ---------------------------------------------------------------------------

_part = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7]))
_scalar = st.dictionaries(
    st.integers(0, 7), st.tuples(_part, _part), min_size=1, max_size=4
).map(AlgScalar)
_poly_terms = st.dictionaries(st.integers(0, 6), _scalar, max_size=5)
_bipoly_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), _scalar, max_size=6
)


def _ref(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c}


def _ref_mul(a: dict, b: dict, add) -> dict:
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = add(k1, k2)
            out[k] = out.get(k, AlgScalar.zero()) + c1 * c2
    return _ref(out)


def _ref_add(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, AlgScalar.zero()) + c * sign
    return _ref(out)


def _ref_value(terms: dict, z: complex) -> complex:
    zb = z.conjugate()
    return sum(
        (complex(c) * (z**k[0] * zb**k[1] if type(k) is tuple else z**k)
         for k, c in terms.items()),
        0j,
    )


def _check_ring(cls, x, a, y, b, add):
    assert dict(x.terms) == _ref(a)
    assert len(x) == len(_ref(a))
    assert x == cls(dict(a)) and hash(x) == hash(cls(dict(a)))
    assert (x == y) == (_ref(a) == _ref(b))
    assert x * y == cls(_ref_mul(a, b, add))
    assert x + y == cls(_ref_add(a, b, 1))
    assert x - y == cls(_ref_add(a, b, -1))
    third = x * Fraction(1, 3)
    assert third * 3 == x and hash(third * 3) == hash(x)
    other = Poly.const(1) if cls is BiPoly else BiPoly.const(1)
    for mixed in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            mixed(x, other)
    assert (x == other) is False


@settings(max_examples=150, deadline=None)
@given(_poly_terms, _poly_terms)
def test_poly_integer_core_matches_scalar_reference(a, b):
    x, y = Poly(a), Poly(b)
    _check_ring(Poly, x, a, y, b, operator.add)
    assert x.reverse(6) == Poly({6 - e: c for e, c in a.items()})
    z = 0.7 - 0.4j
    assert close(x(z), _ref_value(a, z))


@settings(max_examples=150, deadline=None)
@given(_bipoly_terms, _bipoly_terms)
def test_bipoly_integer_core_matches_scalar_reference(a, b):
    x, y = BiPoly(a), BiPoly(b)
    _check_ring(BiPoly, x, a, y, b, lambda k1, k2: (k1[0] + k2[0], k1[1] + k2[1]))
    ref = _ref(a)
    assert x.conj() == BiPoly({(q, p): c.conj() for (p, q), c in ref.items()})
    assert x.diff_z() == BiPoly({(p - 1, q): c * p for (p, q), c in ref.items() if p})
    assert x.reverse(4) == BiPoly({(4 - p, 4 - q): c for (p, q), c in ref.items()})
    c, d = x.content()
    assert all(p >= c and q >= d for p, q in ref)
    assert x.shift_down(c, d) == BiPoly({(p - c, q - d): v for (p, q), v in ref.items()})
    z = 0.7 - 0.4j
    assert close(x(z), _ref_value(a, z))
