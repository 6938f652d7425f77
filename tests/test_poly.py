from __future__ import annotations

import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermin import harmonic, poly, twistor
from supermin.field import AlgScalar
from supermin.poly import BiPoly, Poly, RationalFn, evaluate, one_scale


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


def test_reverse_swaps_ends():
    p = Poly.monomial(0, 1) + Poly.monomial(3, 2)
    rev = p.reverse(3)
    assert rev == Poly.monomial(3, 1) + Poly.monomial(0, 2)
    # reversing twice with the same total is the identity
    assert rev.reverse(3) == p


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


# ---------------------------------------------------------------------------
# the float kernel
# ---------------------------------------------------------------------------

RATIONAL_POINTS = ((Fraction(1, 2), Fraction(1, 4)), (Fraction(3, 5), 0), (0, Fraction(-2, 3)))


def _exact_value(p, z: AlgScalar) -> AlgScalar:
    """p(z) in exact arithmetic, zbar = conj z for a BiPoly."""
    out = AlgScalar.zero()
    for key, c in p.terms.items():
        a, b = key if type(key) is tuple else (key, 0)
        out = out + c * z**a * z.conj() ** b
    return out


def _kernel_points(curve, zr, zi) -> np.ndarray:
    """Sphere points of the curve by the kernel, the components brought to
    one scale as ``cli._sample_points`` brings them."""
    return twistor.project_arrays(*one_scale(evaluate(curve, zr, zi)))


def test_kernel_matches_exact_values(curve12, dense_curve):
    """At rational z the kernel's sphere point equals the exact projection
    of the exactly evaluated curve, and its D_p values the exact BiPoly
    values, to 1e-15 relative."""
    for curve in (curve12, dense_curve):
        seq = harmonic.build_sequence(curve)
        for re, im in RATIONAL_POINTS:
            z = AlgScalar.rational(re) + AlgScalar.term(1, 0, im)
            zr, zi = np.array([float(re)]), np.array([float(im)])
            exact = twistor.project([_exact_value(c, z) for c in curve])
            want = np.array([complex(v).real for v in exact])
            got = _kernel_points(curve, zr, zi)[0]
            assert np.max(np.abs(got - want)) <= 1e-15 * np.linalg.norm(want), (re, im)
            for p in range(7):
                d = seq.gram_det(p)
                want = complex(_exact_value(d, z))
                dr, di, k = evaluate((d,), zr, zi)[0]
                got = complex(np.ldexp(dr[0], k), np.ldexp(di[0], k))
                assert abs(got - want) <= 1e-15 * abs(want), (re, im, p)


def test_kernel_is_blind_to_block_boundaries(curve12, dense_curve):
    """A grid longer than two blocks, evaluated whole or split at an odd
    offset, gives the same bytes: curve values, sphere points, densities."""
    rng = np.random.default_rng(7)
    size = 2 * poly.BLOCK + 905
    zr, zi = rng.uniform(-1.3, 1.3, size), rng.uniform(-1.3, 1.3, size)
    cut = 1237
    seq = harmonic.build_sequence(dense_curve)
    dets = [seq.gram_det(p) for p in range(7)]
    for polys in (curve12, dets):
        whole = evaluate(polys, zr, zi)
        head, tail = evaluate(polys, zr[:cut], zi[:cut]), evaluate(polys, zr[cut:], zi[cut:])
        for (wr, wi, k), (hr, hi, hk), (tr, ti, tk) in zip(whole, head, tail):
            assert k == hk == tk
            assert wr.tobytes() == np.concatenate((hr, tr)).tobytes()
            assert wi.tobytes() == np.concatenate((hi, ti)).tobytes()
    whole = _kernel_points(curve12, zr, zi)
    split = np.concatenate((_kernel_points(curve12, zr[:cut], zi[:cut]),
                            _kernel_points(curve12, zr[cut:], zi[cut:])))
    assert whole.tobytes() == split.tobytes()
    z = zr + 1j * zi
    for p in (0, 3):
        whole = seq.density_value(p, z)
        split = np.concatenate((seq.density_value(p, z[:cut]), seq.density_value(p, z[cut:])))
        assert whole.tobytes() == split.tobytes()


_points = st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=6)
_hermitian = _bipoly_terms.map(BiPoly).map(lambda x: x + x.conj())


@settings(max_examples=150, deadline=None)
@given(st.lists(_poly_terms.map(Poly) | _bipoly_terms.map(BiPoly) | _hermitian,
                min_size=1, max_size=3), _points)
def test_real_only_kernel_is_the_full_kernels_real_part(polys, points):
    """``real_only`` returns the full evaluation's real parts and scales bit
    for bit, signed zeros included, and no imaginary parts."""
    zr, zi = (np.array(v) for v in zip(*points))
    full = evaluate(polys, zr, zi)
    real = evaluate(polys, zr, zi, real_only=True)
    for (fr, _, fk), (rr, ri, rk) in zip(full, real):
        assert ri is None and rk == fk
        assert rr.tobytes() == fr.tobytes()


def test_kernel_is_python_complex_arithmetic(curve12, dense_curve):
    """Below degree 100 the kernel computes out = out + c * z**a * zbar**b
    of Python complex numbers, operation for operation: scaled back by 2^k
    its values equal that loop's bit for bit."""
    seq = harmonic.build_sequence(dense_curve)
    polys = [*curve12, *(seq.gram_det(p) for p in range(7))]
    points = [0.52 - 0.31j, -0.7 + 0.45j, 1.1 + 0.2j, 0j, 1j]
    zs = np.array(points)
    for p, (re, im, k) in zip(polys, evaluate(polys, zs.real, zs.imag)):
        for n, z in enumerate(points):
            want = 0j
            for key, c in p.terms.items():
                a, b = key if type(key) is tuple else (key, 0)
                want = want + complex(c) * z**a * z.conjugate() ** b
            assert complex(np.ldexp(re[n], k), np.ldexp(im[n], k)) == want, (p, z)


def test_a_single_point_is_a_one_element_array_bit_for_bit(curve12, dense_curve):
    """``evaluate`` at two floats runs the array kernel's term loop on Python
    floats: on the D_p and the sections of the dense and the multi-radical
    chains, with and without ``real_only``, its values and scales equal those
    of the same point as a one-element array, signed zeros included."""
    lam = AlgScalar.one() + AlgScalar.term(2, 1) + AlgScalar.term(3, 0, 1)
    for curve in (dense_curve, tuple(c * lam for c in curve12)):
        seq = harmonic.build_sequence(curve)
        polys = [*(seq.gram_det(p) for p in range(-1, 7)),
                 *(c for section in seq.raw_sections for c in section)]
        for z in (0.52 - 0.31j, -0.7 + 0.45j, 1.1 + 0.2j, 0j, -0.0 - 1j):
            for real_only in (False, True):
                point = evaluate(polys, z.real, z.imag, real_only=real_only)
                array = evaluate(polys, np.array([z.real]), np.array([z.imag]),
                                 real_only=real_only)
                for (pr, pi, pk), (ar, ai, ak) in zip(point, array):
                    assert type(pr) is float and pk == ak
                    assert np.array([pr]).tobytes() == ar.tobytes(), (z, real_only)
                    if real_only:
                        assert pi is None and ai is None
                    else:
                        assert np.array([pi]).tobytes() == ai.tobytes(), z


def test_float_terms_follow_an_exact_power_of_two(curve12):
    """2^j * p converts to the same floats as p, with k moved by j, even where
    the coefficients are far outside the float range."""
    for c in curve12:
        k, terms = c.float_terms()
        for j in (40, -40, 3000, -3000):
            kj, terms_j = (c * AlgScalar.rational(Fraction(2) ** j)).float_terms()
            assert kj == k + j and terms_j == terms


def test_primitive_parts_divide_one_scalar():
    """The gcd of every numerator, across the whole tuple, is divided out:
    6z and 4 + 10i/3 share 2, and the zero polynomial stays zero."""
    third = AlgScalar.rational(10, 3) * AlgScalar.i()
    parts = poly.primitive_parts((Poly({1: 6}), Poly({0: AlgScalar.rational(4) + third}), Poly()))
    half = AlgScalar.rational(1, 2)
    assert parts == (Poly({1: 3}), Poly({0: (AlgScalar.rational(4) + third) * half}), Poly())
    assert poly.primitive_parts(parts) == parts


def test_primitive_parts_divide_the_monomial_content():
    """z^c, c the least order among the components, is divided out too."""
    parts = poly.primitive_parts((Poly({3: 2, 5: 4}), Poly({4: 6}), Poly()))
    assert parts == (Poly({0: 1, 2: 2}), Poly({1: 3}), Poly())
    big = poly.primitive_parts(tuple(Poly.monomial(10**400) * c for c in parts))
    assert big == parts
