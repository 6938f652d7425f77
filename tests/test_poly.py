from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest

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
