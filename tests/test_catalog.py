from __future__ import annotations

import hashlib
import warnings
from fractions import Fraction

import pytest

from supermin import catalog, g2, harmonic, plucker, twistor
from supermin.field import RADICAL, AlgScalar
from supermin.poly import Poly
from supermin.serialize import curve_to_obj, dumps_canonical


def curves_equal(a, b) -> bool:
    return all((x - y).is_zero() for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# the two-parameter family and the printed curve
# ---------------------------------------------------------------------------

def test_example_family_validates_input():
    with pytest.raises(ValueError):
        catalog.example_family(0, 1)
    with pytest.raises(ValueError):
        catalog.example_family(1, -2)


# sha256 of ``gen``'s bytes, dumps_canonical(curve_to_obj(example_family(k1, k2), (k1, k2))),
# recorded when the family was a hand-expanded table of e-coordinates
FAMILY_SHA256 = {
    (1, 1): "8db307e2b5f5674ed5a2b8cef08750d8b19991724377c95adf7c93bf8e4b0a41",
    (1, 2): "bbb72b790de5d07ac40f5e972d85479f36b2e11153625670491df4d824362bf6",
    (1, 3): "e503eda4a5129d7f208c6b72baa3067629d1036845990cf84497618c01b0733a",
    (1, 4): "6680f5b6038ed316fb211fbd522202ef3685712325b2c2e40722567983bbfbe0",
    (1, 5): "eb5d8f0f5740fc24e3a71f0a43b12eb6a47636394ac3df214082322460285c1e",
    (1, 6): "c833018c736aa081b873bdc13e22b5724d25e79691db0bf723af293c7d7216df",
    (2, 1): "511c45fffd88632c5c7e5edb5394d4f495cbe486cc99f6f479df9808500656d2",
    (2, 2): "0a534ea97c67d6931c5ebd41a798e91c240735bcebc431b7a7ad4e54e1a4f73d",
    (2, 3): "834fca8e79749747944789f114f4531b24a91dd5de83be80a2b2ad989557505c",
    (2, 4): "ca4b8ac38a43664bd4225460d7477e506b1114a7fbe1802d0b90287e49e8029a",
    (2, 5): "e884218f0dae92419b5e54bad1431b4c002604a4a204a431bcaa2102fe3c0319",
    (2, 6): "f3420ba52b5ca29391f5209fe8cd09d7aa6ab6fe28073d09b7de633118c67572",
    (3, 1): "c955d4ec092b4adfcceb62d1bddb4c340fdffb1904e5266ac39a5752303aafd9",
    (3, 2): "ca4535c73b27ab86cde4ed2e171e72e95a8da29b4e2b972ecb52d8ab846c7582",
    (3, 3): "dcee97862803295d0635cb30f35d7448cfcd783ab7a9b695c4018eb923d53d23",
    (3, 4): "d3b1af1765624dc362653819ae46e266d62f7ad212f1aaa0a805c9f7c796e4e4",
    (3, 5): "64df9044608f8b774a0d0f642cf919c210e47a9b8f410c39f7f6fcc5200178c9",
    (3, 6): "2da9423a4b6974df02021b59c90453d06a5b3f500834527fc93a3f5e0663070b",
    (4, 1): "bdae6f3013a4cb08239d267790a5ca4e578e3eb89bd9bc7a58f7382c610e3969",
    (4, 2): "3d9c478f5fa0d97885cee24c2221ae0d5f5d1dbec597c571fb0e1b706e2916b5",
    (4, 3): "42dee55d94189a72f2e5d3693109001fc1f6e11e9240ce8d8b06115f7a202b83",
    (4, 4): "8fbcaf272a52b5e18baab8c75d58a8ea4f75d112b2797877352e723a3ca5f717",
    (4, 5): "99ed78b6c936a2a53da0254d520e2699b690426715d7b790a4497af27fd44e9b",
    (4, 6): "039224f471615f7a2f70d1035437e02032b54c65cbebdff1dcdaa3dccad249fa",
    (5, 1): "f23802aac527f6e819fb6733e5a6466570cb6c196a21d43f49841444c6f9ce26",
    (5, 2): "97f2c7805f591df47461bdc02656b62ef9040031cd85ee539a8adac2375020c6",
    (5, 3): "0103fdb0234b4f3bf93fb52da338fc2c3d4e01d907689ce380951b862b57b7e8",
    (5, 4): "a9f2918a62b3b95ef8cb2c53102dc86f1d26cd7d92a0e68e4b822b26d9edba96",
    (5, 5): "4bd1084cccbcaa8aebe6ee19b2758af7f070f3d280bb322997fabef1c555bd2c",
    (5, 6): "c4f651e01cb16c33834b16cff93e856d87ea62d903ba87dc30c8626eb5a99105",
    (6, 1): "06ee725ee87bfccea712ad83360174b846f68503073d49ab770a5de6591d5b46",
    (6, 2): "dea73a6dbb00a2a3e151156315fd22718746de32a6e8ce2fda8647dde8d48e2d",
    (6, 3): "fd5f4cf8cba3c76846b5c51c98a8f22ed38a44bc79d3dabc758472875c8bcc83",
    (6, 4): "a6c8b4402dd2ec672d697eb66c2079f65899490528942d5ff95d5bfc4c0ca699",
    (6, 5): "fe65f19db62072e6e253f5bc5e72f963fbef55ce5b598fda290a0c63705a454f",
    (6, 6): "028ac51dce562fc5b6b30b086d904bb2a57d1338b24aa20cffb32082fe09183a",
}


@pytest.mark.parametrize("pair", list(FAMILY_SHA256), ids=str)
def test_example_family_matches_its_pinned_hash(pair):
    """The gen bytes of 36 pairs, where the golden files cover five."""
    text = dumps_canonical(curve_to_obj(catalog.example_family(*pair), pair))
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_SHA256[pair]


def test_family_support_is_the_ladder(family_curves):
    for (k1, k2), curve in family_curves.items():
        spec = catalog.SingularityTypeSpec.from_pair(k1, k2)
        support = set()
        for comp in curve:
            support |= set(comp.terms)
        assert support <= set(spec.exponents())


def test_lowest_curve_is_scaled_family_member(curve12):
    """The explicit degree-8 curve equals 70*sqrt2 times the (1, 2) member."""
    scale = AlgScalar.term(2, 70)
    scaled = tuple(Poly.const(scale) * c for c in curve12)
    assert curves_equal(scaled, catalog.lowest_curve())


def test_lowest_curve_spot_values():
    low = catalog.lowest_curve()
    # fourth component is 210 sqrt10 z^4
    assert low[3] == Poly.monomial(4, AlgScalar.term(10, 210))
    # seventh component has constant term -135 and top term 70 z^8
    assert low[6].terms[0] == AlgScalar.rational(-135)
    assert low[6].terms[8] == AlgScalar.rational(70)
    assert low[6].degree() == 8


def test_lowest_curve_geometry():
    low = catalog.lowest_curve()
    assert twistor.is_quadric_curve(low)
    assert twistor.is_superhorizontal(low)
    harmonic.HarmonicSequence(low)  # raises unless linearly full


# ---------------------------------------------------------------------------
# type specifications and the exponent ladder
# ---------------------------------------------------------------------------

def test_spec_pattern_and_exponents():
    spec = catalog.SingularityTypeSpec.from_pair(1, 2)
    assert spec.k == (1, 2, 1, 1, 2, 1)
    assert spec.k1 == 1 and spec.k2 == 2
    assert spec.exponents() == (0, 1, 3, 4, 5, 7, 8)
    assert catalog.SingularityTypeSpec.from_pair(2, 1).exponents() == (
        0, 2, 3, 5, 7, 8, 10,
    )


def test_spec_rejects_bad_patterns():
    with pytest.raises(ValueError):
        catalog.SingularityTypeSpec((1, 2, 1, 1, 2, 2))
    with pytest.raises(ValueError):
        catalog.SingularityTypeSpec((1, 2, 1))
    with pytest.raises(ValueError):
        catalog.SingularityTypeSpec((0, 1, 0, 0, 1, 0))


def test_normal_form_roundtrip(curve11):
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    form = catalog.normal_form_of(curve11, spec)
    assert curves_equal(form.to_curve(), curve11)
    # circle symmetric: the directions are pairwise hermitian-orthogonal
    v = form.vectors
    assert not any(g2.hdot(v[i], v[j]) for i in range(7) for j in range(i + 1, 7))


def test_normal_form_rejects_off_ladder_support(curve11):
    spec = catalog.SingularityTypeSpec.from_pair(1, 2)
    # the (1,1) curve has exponents outside the (1,2) ladder
    with pytest.raises(ValueError, match="ladder"):
        catalog.normal_form_of(curve11, spec)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def weight_oracle(exponents, j):
    """Independent integer-product recomputation of the slot weight."""
    K = exponents
    num = 1
    for r in range(1, 7):
        for s in range(r, 7):
            num *= K[s] - K[r - 1]
    den = 1
    for r in range(1, j + 1):
        den *= K[j] - K[r - 1]
    for r in range(1, 7 - j):
        den *= K[7 - r] - K[j]
    return Fraction(num, den)


def test_lambda_weights_match_oracle():
    for pair in ((1, 1), (1, 2), (2, 3), (3, 2)):
        spec = catalog.SingularityTypeSpec.from_pair(*pair)
        for j in range(7):
            got = catalog.lambda_weights(spec, j)
            assert got == AlgScalar.rational(weight_oracle(spec.exponents(), j))


def test_lambda_weights_frozen_values():
    spec = catalog.SingularityTypeSpec.from_pair(1, 2)
    values = [catalog.lambda_weights(spec, j).as_fraction() for j in range(7)]
    assert values == [
        2903040, 9676800, 40642560, 67737600, 40642560, 9676800, 2903040,
    ]


def test_lambda_weights_palindromic():
    for pair in ((1, 1), (2, 1), (2, 3), (4, 5)):
        spec = catalog.SingularityTypeSpec.from_pair(*pair)
        lams = [catalog.lambda_weights(spec, j) for j in range(7)]
        for j in range(7):
            assert lams[j] == lams[6 - j]


def test_lambda_weights_range_check():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    with pytest.raises(ValueError):
        catalog.lambda_weights(spec, 7)


# ---------------------------------------------------------------------------
# reality of the image sphere
# ---------------------------------------------------------------------------

def test_reality_check_family(curve11, curve12):
    for pair, curve in (((1, 1), curve11), ((1, 2), curve12)):
        spec = catalog.SingularityTypeSpec.from_pair(*pair)
        form = catalog.normal_form_of(curve, spec)
        ok, mu = catalog.reality_check(form)
        assert ok, pair
        assert mu.is_rational()


def test_reality_constant_frozen(curve12):
    spec = catalog.SingularityTypeSpec.from_pair(1, 2)
    form = catalog.normal_form_of(curve12, spec)
    ok, mu = catalog.reality_check(form)
    assert ok
    assert mu == AlgScalar.rational(-1, 1505280)


def test_reality_check_detects_breakage(curve11):
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    form = catalog.normal_form_of(curve11, spec)
    vectors = list(form.vectors)
    vectors[2] = tuple(c * 3 for c in vectors[2])
    broken = catalog.NormalFormCurve(spec=spec, vectors=tuple(vectors))
    ok, _mu = catalog.reality_check(broken)
    assert not ok


def test_reality_check_exact_survives_any_scale(curve12):
    """An exact form far outside the float range is tested exactly; its
    float tolerance was once squared into an OverflowError."""
    spec = catalog.SingularityTypeSpec.from_pair(1, 2)
    _ok, mu = catalog.reality_check(catalog.normal_form_of(curve12, spec))
    big = 10**200
    form = catalog.normal_form_of(tuple(Poly.const(big) * c for c in curve12), spec)
    assert catalog.reality_check(form) == (True, mu * big**2)
    vectors = list(form.vectors)
    vectors[2] = tuple(c * 3 for c in vectors[2])
    broken = catalog.NormalFormCurve(spec=spec, vectors=tuple(vectors))
    assert not catalog.reality_check(broken)[0]


# ---------------------------------------------------------------------------
# the deformation family
# ---------------------------------------------------------------------------

def test_rfamily_corners_must_be_nonzero():
    with pytest.raises(ValueError):
        catalog.RFamilyParams(r1=0)
    with pytest.raises(ValueError):
        catalog.RFamilyParams(r1=1, r8=0)


def test_rfamily_generic_exact_stays_superhorizontal():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    params = catalog.RFamilyParams(
        r1=AlgScalar.rational(2),
        r2=AlgScalar.rational(1, 3),
        r3=AlgScalar.root(2),
        r4=AlgScalar.rational(-1),
        r5=AlgScalar.rational(1, 2),
        r6=AlgScalar.root(3),
        r7=AlgScalar.rational(5),
        r8=AlgScalar.rational(1),
    )
    curve = catalog.r_family(spec, params).to_curve()
    assert twistor.is_quadric_curve(curve)
    assert twistor.is_superhorizontal(curve)
    harmonic.HarmonicSequence(curve)  # raises unless linearly full


def test_rfamily_second_pair_exact():
    spec = catalog.SingularityTypeSpec.from_pair(2, 3)
    params = catalog.RFamilyParams(
        r1=AlgScalar.rational(3),
        r4=AlgScalar.rational(1, 2),
        r7=AlgScalar.root(5),
        r8=AlgScalar.rational(-2),
    )
    curve = catalog.r_family(spec, params).to_curve()
    assert twistor.is_quadric_curve(curve)
    assert twistor.is_superhorizontal(curve)


def test_rfamily_diagonal_is_circle_symmetric():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    params = catalog.RFamilyParams(r1=AlgScalar.term(10, 3))
    form = catalog.r_family(spec, params)
    v = form.vectors
    assert not any(g2.hdot(v[i], v[j]) for i in range(7) for j in range(i + 1, 7))
    ok, _mu = catalog.reality_check(form)
    assert ok


def test_rfamily_zero_orbit_is_the_family(family_curves):
    """With every interior parameter zero, exp_apply moves nothing, and the
    corners sqrt15, sqrt6 give back ``example_family`` exactly."""
    params = catalog.RFamilyParams(r1=AlgScalar.root(15), r8=AlgScalar.root(6))
    for pair, curve in family_curves.items():
        spec = catalog.SingularityTypeSpec.from_pair(*pair)
        assert catalog.r_family(spec, params).to_curve() == curve, pair


def test_rfamily_takes_ints_and_fractions():
    spec = catalog.SingularityTypeSpec.from_pair(1, 2)
    plain = catalog.RFamilyParams(r1=2, r2=Fraction(1, 3), r4=-1, r8=Fraction(-5, 2))
    exact = catalog.RFamilyParams(*(AlgScalar.rational(r) for r in tuple(plain)))
    assert catalog.r_family(spec, plain) == catalog.r_family(spec, exact)


@pytest.mark.parametrize("params", [
    {"r1": 1.5 + 0.25j, "r3": 0.7, "r8": 2.0},
    {"r1": AlgScalar.term(10, 3), "r5": 0.5},
], ids=["complex_corner", "float_interior"])
def test_rfamily_refuses_float_parameters(params):
    """The family has one exact path: a float or complex parameter is
    refused, not carried through in floats."""
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    with pytest.raises(TypeError, match="AlgScalars, ints or Fractions"):
        catalog.r_family(spec, catalog.RFamilyParams(**params))


# ---------------------------------------------------------------------------
# normalizer
# ---------------------------------------------------------------------------

def test_chart_scale_exact_unit():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    r = catalog.chart_scale(spec, AlgScalar.term(10, 3), AlgScalar.one())
    assert r == AlgScalar.one()


def test_chart_scale_exact_rational_root():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    # q = sqrt90 / (sqrt90/8) = 8 and the ladder corner is 3, so r = 2
    r1 = AlgScalar.term(10, Fraction(3, 8))
    r = catalog.chart_scale(spec, r1, AlgScalar.one())
    assert r == AlgScalar.rational(2)


def test_chart_scale_exact_root_beyond_float_range():
    """Exact roots come from integer arithmetic, not a rounded float root:
    q = 3^120 (about 1.8e57) and q = 10^402 both have exact cube roots."""
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    for q, root in ((3**120, 3**40), (10**402, 10**134)):
        r1 = AlgScalar.term(10, Fraction(3, q))  # sqrt90 / r1 = q
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = catalog.chart_scale(spec, r1, AlgScalar.one())
        assert r == AlgScalar.rational(root)


@pytest.mark.parametrize("m", RADICAL)
@pytest.mark.parametrize("pair", [(1, 1), (1, 2), (2, 1), (3, 2)], ids=str)
def test_chart_scale_finds_every_radical(pair, m):
    """r = (3/2)*sqrt(m) for each radicand m of the field, at the ladder
    corners n = 3, 4, 5 and 8, comes back exactly from r1 = sqrt90 / r^n and
    r8 = 1, with no warning."""
    spec = catalog.SingularityTypeSpec.from_pair(*pair)
    r = AlgScalar.term(m, Fraction(3, 2))
    r1 = AlgScalar.root(90) / r ** (2 * spec.k1 + spec.k2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert catalog.chart_scale(spec, r1, AlgScalar.one()) == r


@pytest.mark.parametrize("q", [2, 2 * 10**400, AlgScalar.root(90), AlgScalar.root(90) / 2],
                         ids=["two", "two_e400", "sqrt90", "sqrt90_over_two"])
def test_chart_scale_refuses_a_root_outside_the_field(q):
    """No s*sqrt(m) cubes to 2, to 2*10^400, to sqrt90 (r1 = r8 = 1) or to
    sqrt90/2 (r1 = 2): each raises ValueError, and the normalizer with it."""
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    r1 = AlgScalar.root(90) / q
    with pytest.raises(ValueError, match="no r = s"):
        catalog.chart_scale(spec, r1, AlgScalar.one())
    with pytest.raises(ValueError, match="no r = s"):
        catalog.normalizer(spec, r1, AlgScalar.one())


@pytest.mark.parametrize("function", [catalog.chart_scale, catalog.normalizer],
                         ids=["chart_scale", "normalizer"])
@pytest.mark.parametrize("corners", [(0, 1), (AlgScalar.root(15), 0)], ids=["r1", "r8"])
def test_zero_corner_is_refused_as_the_family_refuses_it(function, corners):
    """A zero r1 or r8 raises the ValueError of ``RFamilyParams``, not a
    division by zero."""
    spec = catalog.SingularityTypeSpec.from_pair(2, 2)
    with pytest.raises(ValueError, match="corner parameters r1 and r8 must be nonzero"):
        function(spec, *corners)


def test_normalizer_is_the_identity_at_the_family_corners(family_curves):
    """At r1 = sqrt15, r8 = sqrt6 the chart scale is 1 and every d_p is
    c_p / c_p = 1, so the normalizer is the identity matrix."""
    r1, r8 = AlgScalar.root(15), AlgScalar.root(6)
    identity = tuple(tuple(AlgScalar.one() if i == j else AlgScalar.zero() for j in range(7))
                     for i in range(7))
    for pair in family_curves:
        spec = catalog.SingularityTypeSpec.from_pair(*pair)
        assert catalog.chart_scale(spec, r1, r8) == AlgScalar.one(), pair
        assert catalog.normalizer(spec, r1, r8) == identity, pair


def test_normalizer_is_exact_group_element():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    A = catalog.normalizer(spec, AlgScalar.term(10, 3), AlgScalar.one())
    assert g2.g2c_membership(A)


def test_normalizer_pipeline_unit_scale(curve11):
    """Conjugating the diagonal deformation with corner 3*sqrt10 lands
    exactly on the (1, 1) family member (chart scale 1)."""
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    r1 = AlgScalar.term(10, 3)
    r8 = AlgScalar.one()
    curve = catalog.r_family(spec, catalog.RFamilyParams(r1=r1, r8=r8)).to_curve()
    A = catalog.normalizer(spec, r1, r8)
    moved = catalog.transform_curve(A, curve)
    assert curves_equal(moved, curve11)


def test_normalizer_pipeline_chart_scale_two():
    """With corner sqrt90/8 on (1, 1) the chart must be rescaled by 2 first,
    and with corner sqrt90/4 on (1, 2) by sqrt2; the normalizer is an exact
    element of G2^C, and the combined move lands exactly on the family
    member."""
    for pair, r1, want in (
        ((1, 1), AlgScalar.term(10, Fraction(3, 8)), AlgScalar.rational(2)),
        ((1, 2), AlgScalar.root(90) * AlgScalar.rational(1, 4), AlgScalar.root(2)),
    ):
        spec = catalog.SingularityTypeSpec.from_pair(*pair)
        r8 = AlgScalar.one()
        r = catalog.chart_scale(spec, r1, r8)
        assert r == want, pair
        A = catalog.normalizer(spec, r1, r8)
        assert all(isinstance(x, AlgScalar) for row in A for x in row)
        assert g2.g2c_membership(A)
        curve = catalog.r_family(spec, catalog.RFamilyParams(r1=r1, r8=r8)).to_curve()
        # the substitution z -> r*z: coefficient c_e becomes c_e * r^e
        scaled = tuple(Poly({e: c * r**e for e, c in comp.terms.items()}) for comp in curve)
        moved = catalog.transform_curve(A, scaled)
        assert curves_equal(moved, catalog.example_family(*pair)), pair


# ---------------------------------------------------------------------------
# a member moved by G2^C
# ---------------------------------------------------------------------------

def test_g2c_matrix_is_a_group_element(g2c_matrix):
    """M is in G2^C and not diagonal in the frame: N*u_6 has u_5 coordinate
    d56 = 1, and no power of N reaches u_5 again, so M*u_6 has it too."""
    assert g2.g2c_membership(g2c_matrix)
    u = g2.u_basis()
    moved = [g2.dot(row, u[6]) for row in g2c_matrix]
    assert g2.hdot(moved, u[5]) == AlgScalar.one()


def test_g2c_moved_member_keeps_the_curve_verdicts(g2c_moved12, curve12):
    """M*f is a denser curve than f, and still quadric, superhorizontal and
    linearly full, with f's reality constant: the bilinear form and the
    cross product are invariant under G2^C."""
    entries = sum(len(c.terms) for c in g2c_moved12)
    assert entries > sum(len(c.terms) for c in curve12)
    assert twistor.is_quadric_curve(g2c_moved12)
    assert twistor.is_superhorizontal(g2c_moved12)
    harmonic.HarmonicSequence(g2c_moved12)  # raises unless linearly full
    spec = catalog.SingularityTypeSpec.from_pair(1, 2)
    ok, mu = catalog.reality_check(catalog.normal_form_of(g2c_moved12, spec))
    assert (ok, mu) == (True, AlgScalar.rational(-1, 1505280))


def test_g2c_moved_member_has_the_member_report(g2c_moved12, curve12):
    """Degrees, ramification and area are invariant under any linear change
    of coordinates."""
    rep = plucker.full_report(g2c_moved12)
    assert rep == plucker.full_report(curve12)
    assert rep.degrees == (8, 14, 16, 16, 14, 8) and rep.area_pi_multiple == 32


# ---------------------------------------------------------------------------
# the records of twistor, catalog and plucker
# ---------------------------------------------------------------------------

def _point():
    return twistor.QuadricPoint([1, 1j, 0, 0, 0, 0, 0])


_SPEC11 = catalog.SingularityTypeSpec.from_pair(1, 1)
_RECORDS = {
    "QuadricPoint": (_point, ("x",)),
    "TangentSplit": (lambda: twistor.split_tangent(_point()),
                     ("vertical", "superhorizontal", "horizontal_rest")),
    "SingularityTypeSpec": (lambda: _SPEC11, ("k",)),
    "NormalFormCurve": (lambda: catalog.normal_form_of(catalog.example_family(1, 1), _SPEC11),
                        ("spec", "vectors")),
    "RFamilyParams": (lambda: catalog.RFamilyParams(r1=2, r3=Fraction(1, 3)),
                      ("r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8")),
    "SingularityReport": (lambda: plucker.full_report(catalog.example_family(1, 1)),
                          ("type_at_zero", "type_at_infinity", "totals", "degrees",
                           "area_pi_multiple")),
}


@pytest.mark.parametrize("name", list(_RECORDS))
def test_records_are_immutable_values(name):
    """Every record refuses assignment to a field and equals the record
    rebuilt from its fields."""
    make, fields = _RECORDS[name]
    record = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    rebuilt = type(record)(**{field: getattr(record, field) for field in fields})
    assert rebuilt == record


_REFUSED = {
    "RFamilyParams._replace": (lambda: catalog.RFamilyParams(r1=2)._replace(r1=0), "corner"),
    "RFamilyParams._make": (lambda: catalog.RFamilyParams._make((0,) * 8), "corner"),
    "SingularityTypeSpec._make": (
        lambda: catalog.SingularityTypeSpec._make([(1, 2, 3, 4, 5, 6)]), "pattern"),
    "SingularityTypeSpec._replace": (lambda: _SPEC11._replace(k=(1, 1, 1)), "six positive"),
    "NormalFormCurve._replace": (lambda: catalog.normal_form_of(
        catalog.example_family(1, 1), _SPEC11)._replace(vectors=()), "seven direction"),
    "QuadricPoint._make": (lambda: twistor.QuadricPoint._make([[0] * 7]), "zero vector"),
    "QuadricPoint._replace": (lambda: _point()._replace(x=[1, 0, 0, 0, 0, 0, 0]), "quadric"),
}


@pytest.mark.parametrize("name", list(_REFUSED))
def test_make_and_replace_refuse_what_the_constructor_refuses(name):
    """``_make``, and ``_replace`` through it, run the constructor's checks."""
    build, match = _REFUSED[name]
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("name", list(_RECORDS))
def test_records_rebuild_through_make_and_replace(name):
    """A valid record comes back from both with its own type and fields."""
    record = _RECORDS[name][0]()
    for rebuilt in (type(record)._make(record), record._replace()):
        assert type(rebuilt) is type(record)
        assert all(a is b for a, b in zip(rebuilt, record))
